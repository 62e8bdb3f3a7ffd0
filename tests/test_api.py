"""The repro.api facade: PlannerConfig, plan/sweep/simulate."""

import dataclasses

import pytest

from repro.api import PlannerConfig, plan, simulate, sweep
from repro.core.plan import IrisPlan
from repro.cost.estimator import Inventory
from repro.region.catalog import make_region
from repro.serialize import plan_to_json


@pytest.fixture(scope="module")
def small_region():
    return make_region(map_index=0, n_dcs=4, dc_fibers=4).spec


class TestPlannerConfig:
    def test_keyword_only_and_frozen(self):
        with pytest.raises(TypeError):
            PlannerConfig(4)  # positional jobs rejected
        config = PlannerConfig(jobs=4)
        with pytest.raises(Exception):  # dataclasses.FrozenInstanceError
            config.jobs = 2

    def test_defaults_match_planner_defaults(self):
        """A bare ``PlannerConfig()`` is serial, storeless, pruned and
        validated, and it is what every planning function falls back to
        when given no config."""
        import inspect

        from repro.designs.robust import plan_robust
        from repro.obs import profile_plan
        from repro.service.replan import apply_delta

        config = PlannerConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "jobs", "backend", "store", "prune_enumeration", "validate", "traffic",
        ]
        assert (config.jobs, config.backend, config.store) == (1, None, None)
        assert config.prune_enumeration is True
        assert config.validate is True
        assert config.traffic is None
        for function in (plan, apply_delta, plan_robust, profile_plan):
            assert inspect.signature(function).parameters["config"].default is None


class TestPlan:
    def test_default_design_returns_iris_plan(self, small_region):
        result = plan(small_region)
        assert isinstance(result, IrisPlan)
        assert result.validate() == []

    def test_matches_legacy_entry_point_bytes(self, small_region):
        """Every route to an iris plan runs the one core function."""
        from repro.core.planner import plan_iris
        from repro.designs import get_design
        from repro.obs import profile_plan

        via_api = plan(small_region, config=PlannerConfig(jobs=1))
        core = plan_iris(small_region, PlannerConfig())
        assert plan_to_json(via_api, full=True) == plan_to_json(core, full=True)
        profiled = profile_plan(small_region, config=PlannerConfig())
        assert plan_to_json(profiled.plan) == plan_to_json(core)
        assert profiled.trace.name == "profile.plan"
        assert profiled.trace.total("hose.lookups") > 0
        assert get_design("iris").plan(small_region) == core.inventory()

    def test_other_designs_return_inventory(self, small_region):
        inventory = plan(small_region, design="eps")
        assert isinstance(inventory, Inventory)
        hubby = plan(small_region, design="centralized")
        assert isinstance(hubby, Inventory)

    def test_unknown_design_rejected(self, small_region):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            plan(small_region, design="quantum")


class TestSweep:
    def test_matches_sweep_grid(self):
        """The facade is the sweep body with the default config filled in."""
        from repro.analysis.designspace import SweepPoint, sweep_grid

        points = [SweepPoint(map_index=0, n_dcs=5, dc_fibers=8, wavelengths=40)]
        via_api = sweep(points, config=PlannerConfig(jobs=1))
        core = sweep_grid(points, prices=None, failure_tolerance=2, config=PlannerConfig())
        assert via_api == core
        assert via_api[0].eps_over_iris > 1.0


class TestSimulate:
    def test_default_scenario_runs(self):
        from repro.simulation.scenarios import ScenarioConfig

        result = simulate(ScenarioConfig(duration_s=5.0, n_dcs=4))
        assert result.summary.iris_flows > 0


class TestTopLevelExports:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


    def test_facade_exported_at_top_level(self):
        import repro

        assert repro.plan is plan
        assert repro.sweep is sweep
        assert repro.simulate is simulate
        assert repro.PlannerConfig is PlannerConfig
        assert repro.__version__ == "1.10.0"
