"""Demand telemetry and the closed control loop (§5.2)."""

import random

import pytest

from repro.control.controller import IrisController, compute_target
from repro.control.telemetry import DemandEstimator
from repro import api
from repro.exceptions import ControlPlaneError
from repro.simulation.flowsim import FluidSimulator


class TestEstimator:
    def test_single_window(self):
        est = DemandEstimator(safety_factor=1.0)
        est.observe_window({("A", "B"): 125e9}, window_s=1.0)  # 1 Tbps
        assert est.demands_gbps()[("A", "B")] == pytest.approx(1000.0)

    def test_ewma_converges(self):
        est = DemandEstimator(alpha=0.5, safety_factor=1.0)
        est.observe_window({("A", "B"): 0.0}, 1.0)
        for _ in range(20):
            est.observe_window({("A", "B"): 125e6}, 1.0)  # 1 Gbps
        assert est.demands_gbps()[("A", "B")] == pytest.approx(1.0, rel=1e-3)

    def test_safety_factor_applied(self):
        est = DemandEstimator(safety_factor=1.5)
        est.observe_window({("A", "B"): 125e6}, 1.0)
        assert est.demands_gbps()[("A", "B")] == pytest.approx(1.5)

    def test_pair_canonicalization(self):
        est = DemandEstimator(safety_factor=1.0)
        est.observe_window({("B", "A"): 125e6}, 1.0)
        assert ("A", "B") in est.demands_gbps()

    def test_observe_flows(self):
        est = DemandEstimator(safety_factor=1.0)
        est.observe_flows(
            [("A", "B", 1e9), ("B", "A", 1e9), ("A", "C", 5e8)], window_s=2.0
        )
        demands = est.demands_gbps()
        assert demands[("A", "B")] == pytest.approx(8.0)
        assert demands[("A", "C")] == pytest.approx(2.0)

    def test_requires_observation(self):
        with pytest.raises(ControlPlaneError):
            DemandEstimator().demands_gbps()

    def test_validation(self):
        with pytest.raises(ControlPlaneError):
            DemandEstimator(alpha=0.0)
        with pytest.raises(ControlPlaneError):
            DemandEstimator(safety_factor=0.5)
        with pytest.raises(ControlPlaneError):
            DemandEstimator().observe_window({}, 0.0)

    def test_reconfiguration_gate(self):
        est = DemandEstimator(safety_factor=1.0)
        est.observe_window({("A", "B"): 125e6}, 1.0)
        applied = est.demands_gbps()
        # No drift: not worthwhile.
        assert not est.reconfiguration_worthwhile(applied)
        # Big shift: worthwhile.
        for _ in range(10):
            est.observe_window({("A", "B"): 500e6}, 1.0)
        assert est.reconfiguration_worthwhile(applied)


class TestClosedLoop:
    def test_simulation_to_circuits(self, toy_region):
        """Flows -> telemetry -> demand matrix -> circuits -> devices."""
        plan = api.plan(toy_region)
        # Offer ~32 Gbps DC1->DC3 and ~16 Gbps DC2->DC4 for one second.
        rng = random.Random(5)
        flows = []
        t = 0.0
        while t < 1.0:
            t += rng.expovariate(2000.0)
            flows.append((t, "DC1", "DC3", 2_000_000 * 8))
        t = 0.0
        while t < 1.0:
            t += rng.expovariate(1000.0)
            flows.append((t, "DC2", "DC4", 2_000_000 * 8))

        sim = FluidSimulator(
            egress_bps={dc: 1e12 for dc in toy_region.dcs}
        )
        records = sim.run(flows)

        est = DemandEstimator(alpha=1.0, safety_factor=1.2)
        est.observe_flows(
            ((r.src, r.dst, r.size_bytes) for r in records), window_s=1.0
        )
        demands = est.demands_gbps()
        assert demands[("DC1", "DC3")] > demands[("DC2", "DC4")] > 0

        controller = IrisController(plan)
        report = controller.apply_demands(demands)
        assert report.verified and report.connects > 0
        target = compute_target(plan, demands)
        assert all(n >= 1 for n in target.fibers.values())
        assert controller.audit() == []
