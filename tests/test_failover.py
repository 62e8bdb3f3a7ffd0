"""Controller failure handling (OC4) and the scenario-resolution machinery."""

import pytest

from repro.control.controller import IrisController
from repro.core.failures import Scenario
from repro import api
from repro.exceptions import ControlPlaneError, PlanningError
from repro.region.fibermap import (
    FiberMap,
    OperationalConstraints,
    RegionSpec,
)


@pytest.fixture(scope="module")
def ring_region():
    """Two DCs on a 4-hut ring: every single duct cut is survivable."""
    fmap = FiberMap()
    fmap.add_dc("A", 0, 0)
    fmap.add_dc("B", 40, 0)
    fmap.add_hut("N", 20, 12)
    fmap.add_hut("S", 20, -12)
    fmap.add_duct("A", "N", length_km=24.0)
    fmap.add_duct("N", "B", length_km=24.0)
    fmap.add_duct("A", "S", length_km=26.0)
    fmap.add_duct("S", "B", length_km=26.0)
    return RegionSpec(
        fiber_map=fmap,
        dc_fibers={"A": 4, "B": 4},
        constraints=OperationalConstraints(failure_tolerance=1),
    )


@pytest.fixture(scope="module")
def ring_plan(ring_region):
    return api.plan(ring_region)


class TestScenarioResolution:
    def test_no_failures_is_base(self, ring_plan):
        assert ring_plan.scenario_for_failures(set()) == Scenario()

    def test_unused_duct_cut_keeps_base_paths(self, ring_plan):
        # The southern detour is unused in the base scenario.
        scenario = ring_plan.scenario_for_failures({("A", "S")})
        assert scenario == Scenario()

    def test_used_duct_cut_resolves_to_its_scenario(self, ring_plan):
        scenario = ring_plan.scenario_for_failures({("A", "N")})
        assert scenario == Scenario({("A", "N")})
        paths = ring_plan.topology.scenario_paths[scenario]
        assert paths[("A", "B")] == ("A", "S", "B")

    def test_exceeding_tolerance_raises(self, ring_plan):
        with pytest.raises(PlanningError, match="tolerance"):
            ring_plan.scenario_for_failures({("A", "N"), ("A", "S")})


class TestControllerFailover:
    def test_failover_moves_circuits(self, ring_plan):
        controller = IrisController(ring_plan)
        controller.apply_demands({("A", "B"): 16_000.0})
        north = controller.registry.get("oss:N").device
        south = controller.registry.get("oss:S").device
        assert north.connections() and not south.connections()

        report = controller.report_duct_failure("A", "N")
        assert report.verified
        assert report.drained_pairs == (("A", "B"),)
        assert south.connections() and not north.connections()
        assert controller.audit() == []

    def test_repair_restores_shortest_path(self, ring_plan):
        controller = IrisController(ring_plan)
        controller.apply_demands({("A", "B"): 16_000.0})
        controller.report_duct_failure("A", "N")
        report = controller.report_duct_repair("A", "N")
        assert report.verified
        north = controller.registry.get("oss:N").device
        assert north.connections()
        assert controller.scenario == Scenario()

    def test_unused_duct_failure_is_noop(self, ring_plan):
        controller = IrisController(ring_plan)
        controller.apply_demands({("A", "B"): 16_000.0})
        report = controller.report_duct_failure("A", "S")
        assert not report.changed
        assert ("A", "S") in controller.failed_ducts

    def test_second_cut_beyond_tolerance_rejected(self, ring_plan):
        controller = IrisController(ring_plan)
        controller.apply_demands({("A", "B"): 16_000.0})
        controller.report_duct_failure("A", "N")
        with pytest.raises(ControlPlaneError, match="tolerance"):
            controller.report_duct_failure("S", "B")

    def test_failover_with_two_cut_tolerance(self, toy_region):
        # The toy tree tolerates nothing: even tolerance-0 plans expose
        # scenario_for_failures for unused ducts only.
        plan = api.plan(toy_region)
        assert plan.scenario_for_failures(set()) == Scenario()
        with pytest.raises(PlanningError):
            plan.scenario_for_failures({("H1", "H2")})
