"""Control plane: devices, wavelength packing, controller reconciliation."""

import pytest

from repro.control.controller import IrisController, compute_target
from repro.control.devices import (
    AmplifierDevice,
    ChannelEmulatorDevice,
    DeviceRegistry,
    FaultInjector,
    SpaceSwitchDevice,
    TransceiverDevice,
    Transport,
)
from repro.control.reconfigure import apply_reconfiguration, diff_connections
from repro.control.wavelengths import pack_transceivers
from repro import api
from repro.exceptions import ControlPlaneError, DeviceError


class TestSpaceSwitch:
    def test_connect_and_query(self):
        oss = SpaceSwitchDevice("oss:A")
        oss.connect("p1", "p2")
        assert oss.is_connected("p1", "p2")
        assert oss.connections() == {"p1": "p2"}

    def test_input_conflict(self):
        oss = SpaceSwitchDevice("oss:A")
        oss.connect("p1", "p2")
        with pytest.raises(DeviceError, match="already connected"):
            oss.connect("p1", "p3")

    def test_output_conflict(self):
        oss = SpaceSwitchDevice("oss:A")
        oss.connect("p1", "p2")
        with pytest.raises(DeviceError, match="already in use"):
            oss.connect("p3", "p2")

    def test_disconnect(self):
        oss = SpaceSwitchDevice("oss:A")
        oss.connect("p1", "p2")
        oss.disconnect("p1")
        assert oss.connections() == {}
        with pytest.raises(DeviceError):
            oss.disconnect("p1")


class TestOtherDevices:
    def test_amplifier_rejects_online_gain_change(self):
        amp = AmplifierDevice("amp:H1")
        with pytest.raises(DeviceError, match="one-time design decision"):
            amp.set_gain(18.0)

    def test_amplifier_enable_disable(self):
        amp = AmplifierDevice("amp:H1")
        amp.disable()
        assert not amp.status()["enabled"]
        amp.enable()
        assert amp.status()["enabled"]

    def test_transceiver_must_tune_before_enable(self):
        t = TransceiverDevice("xcvr:DC1:0", channels=40)
        with pytest.raises(DeviceError):
            t.enable()
        t.tune(7)
        t.enable()
        assert t.status() == {"channel": 7, "enabled": True}

    def test_transceiver_channel_range(self):
        t = TransceiverDevice("xcvr:DC1:0", channels=4)
        with pytest.raises(DeviceError):
            t.tune(4)

    def test_channel_emulator_complements_live(self):
        ase = ChannelEmulatorDevice("ase:DC1", channels=8)
        ase.set_live(frozenset({0, 1}))
        assert ase.emulated() == frozenset(range(2, 8))

    def test_channel_emulator_range_check(self):
        ase = ChannelEmulatorDevice("ase:DC1", channels=8)
        with pytest.raises(DeviceError):
            ase.set_live(frozenset({9}))


class TestTransport:
    def test_fault_injection_and_log(self):
        oss = SpaceSwitchDevice("oss:A")
        transport = Transport(oss, FaultInjector(fail_next=1))
        with pytest.raises(DeviceError, match="transient"):
            transport.call("connect", "p1", "p2")
        transport.call("connect", "p1", "p2")
        assert oss.is_connected("p1", "p2")
        assert transport.calls == 2

    def test_unknown_command(self):
        transport = Transport(SpaceSwitchDevice("oss:A"))
        with pytest.raises(DeviceError, match="unknown command"):
            transport.call("selfdestruct")

    def test_registry(self):
        reg = DeviceRegistry()
        reg.add(SpaceSwitchDevice("oss:A"))
        reg.add(AmplifierDevice("amp:H"))
        assert reg.names() == ["amp:H", "oss:A"]
        assert len(reg.by_kind("oss")) == 1
        with pytest.raises(DeviceError):
            reg.add(SpaceSwitchDevice("oss:A"))
        with pytest.raises(DeviceError):
            reg.get("nope")


class TestWavelengthPacking:
    def test_basic_packing(self):
        a = pack_transceivers({"B": 5, "C": 3}, {"B": 2, "C": 1}, 4, 16)
        assert len(a.slots) == 8
        assert a.channels_on_fiber("B", 0) == [0, 1, 2, 3]
        assert a.channels_on_fiber("B", 1) == [0]
        assert len(a.transceivers_toward("C")) == 3

    def test_demand_exceeding_fibers_rejected(self):
        with pytest.raises(ControlPlaneError, match="exceeds"):
            pack_transceivers({"B": 5}, {"B": 1}, 4, 16)

    def test_demand_exceeding_transceivers_rejected(self):
        with pytest.raises(ControlPlaneError, match="transceivers"):
            pack_transceivers({"B": 5, "C": 5}, {"B": 2, "C": 2}, 4, 8)

    def test_no_collisions(self):
        a = pack_transceivers({"B": 8, "C": 8}, {"B": 2, "C": 2}, 4, 16)
        slots = list(a.slots.values())
        assert len(slots) == len(set(slots))


class TestDiff:
    def test_diff_connections(self):
        current = {"oss:A": {"p1": "p2", "p3": "p4"}}
        target = {"oss:A": {"p1": "p2", "p3": "p5"}, "oss:B": {"q1": "q2"}}
        drop, add = diff_connections(current, target)
        assert drop == [("oss:A", "p3", "p4")]
        assert add == [("oss:A", "p3", "p5"), ("oss:B", "q1", "q2")]

    def test_noop_diff(self):
        state = {"oss:A": {"p1": "p2"}}
        assert diff_connections(state, state) == ([], [])


class TestReconfigure:
    def make_registry(self):
        reg = DeviceRegistry()
        reg.add(SpaceSwitchDevice("oss:A"))
        reg.add(SpaceSwitchDevice("oss:B"))
        return reg

    def test_apply_and_verify(self):
        reg = self.make_registry()
        target = {"oss:A": {"p1": "p2"}, "oss:B": {"q1": "q2"}}
        report = apply_reconfiguration(reg, {}, target)
        assert report.connects == 2
        assert report.verified
        assert report.duration_s > 0
        assert reg.get("oss:A").device.is_connected("p1", "p2")

    def test_noop_is_fast(self):
        reg = self.make_registry()
        report = apply_reconfiguration(reg, {}, {})
        assert not report.changed
        assert report.duration_s == 0.0

    def test_transient_failures_retried(self):
        reg = DeviceRegistry()
        oss = SpaceSwitchDevice("oss:A")
        reg.add(oss, FaultInjector(fail_next=2))
        report = apply_reconfiguration(reg, {}, {"oss:A": {"p1": "p2"}})
        assert report.retries == 2
        assert oss.is_connected("p1", "p2")

    def test_persistent_failure_raises(self):
        reg = DeviceRegistry()
        reg.add(SpaceSwitchDevice("oss:A"), FaultInjector(fail_next=10))
        with pytest.raises(ControlPlaneError, match="kept failing"):
            apply_reconfiguration(reg, {}, {"oss:A": {"p1": "p2"}}, max_retries=3)

    def test_drain_callback_sees_pairs(self):
        reg = self.make_registry()
        drained = []
        apply_reconfiguration(
            reg,
            {},
            {"oss:A": {"p1": "p2"}},
            drained_pairs=(("DC1", "DC2"),),
            drain_callback=lambda pairs: drained.extend(pairs),
        )
        assert drained == [("DC1", "DC2")]


class TestController:
    @pytest.fixture
    def plan(self, toy_region):
        return api.plan(toy_region)

    def test_compute_target_rounds_to_fibers(self, plan):
        per_fiber = 40 * 400.0  # 16 Tbps
        target = compute_target(
            plan, {("DC1", "DC2"): per_fiber * 2.5, ("DC1", "DC3"): 1.0}
        )
        assert target.fibers[("DC1", "DC2")] == 3
        assert target.fibers[("DC1", "DC3")] == 1

    def test_compute_target_enforces_hose(self, plan):
        over = plan.region.capacity_gbps("DC1") * 0.7
        with pytest.raises(ControlPlaneError, match="hose"):
            compute_target(
                plan, {("DC1", "DC2"): over, ("DC1", "DC3"): over}
            )

    def test_reconcile_lights_circuits(self, plan):
        controller = IrisController(plan)
        report = controller.apply_demands({("DC1", "DC3"): 16_000.0})
        assert report.verified and report.connects > 0
        # The cross pair transits both hub OSSes in both directions.
        h1 = controller.registry.get("oss:H1").device.connections()
        assert any("DC1" in str(k) or True for k in h1)
        assert controller.audit() == []

    def test_reconcile_tears_down_old_circuits(self, plan):
        controller = IrisController(plan)
        controller.apply_demands({("DC1", "DC3"): 16_000.0})
        first = dict(controller.registry.get("oss:H1").device.connections())
        report = controller.apply_demands({("DC2", "DC4"): 16_000.0})
        assert report.disconnects > 0
        second = controller.registry.get("oss:H1").device.connections()
        assert second != first
        assert controller.audit() == []

    def test_unchanged_demands_are_noop(self, plan):
        controller = IrisController(plan)
        demands = {("DC1", "DC2"): 16_000.0}
        controller.apply_demands(demands)
        report = controller.apply_demands(demands)
        assert not report.changed
        assert report.drained_pairs == ()

    def test_drained_pairs_are_the_changed_ones(self, plan):
        controller = IrisController(plan)
        controller.apply_demands(
            {("DC1", "DC2"): 16_000.0, ("DC3", "DC4"): 16_000.0}
        )
        report = controller.apply_demands(
            {("DC1", "DC2"): 16_000.0, ("DC3", "DC4"): 32_000.0}
        )
        assert report.drained_pairs == (("DC3", "DC4"),)

    def test_faulty_devices_still_converge(self, plan):
        controller = IrisController(plan, faults=FaultInjector(failure_rate=0.2, seed=7))
        report = controller.apply_demands({("DC1", "DC4"): 16_000.0})
        assert report.verified
        assert controller.audit() == []

    def test_unknown_pair_rejected(self, plan):
        with pytest.raises(ControlPlaneError):
            compute_target(plan, {("DC1", "DC9"): 1.0})


class TestWavelengthRetuning:
    @pytest.fixture
    def controller(self, toy_region):
        return IrisController(api.plan(toy_region))

    def test_packing_follows_demand(self, controller):
        # 1.5 fibers' worth toward DC3: 60 of 80 channels live on 2 fibers.
        controller.apply_demands({("DC1", "DC3"): 24_000.0})
        assignment = controller.wavelength_assignments["DC1"]
        assert len(assignment.transceivers_toward("DC3")) == 60
        assert assignment.channels_on_fiber("DC3", 0) == list(range(40))
        assert assignment.channels_on_fiber("DC3", 1) == list(range(20))

    def test_ase_fill_complements_live(self, controller):
        controller.apply_demands({("DC1", "DC3"): 24_000.0})
        ase = controller.registry.get("ase:DC1").device
        status = ase.fiber_status()
        assert status[("DC3", 0)]["emulated"] == []
        assert status[("DC3", 1)]["live"] == list(range(20))
        assert status[("DC3", 1)]["emulated"] == list(range(20, 40))

    def test_amp_loopback_connections(self, toy_region):
        """Paths with an in-line amplifier route through amp ports."""
        from tests.conftest import build_toy_map
        from repro.region.fibermap import OperationalConstraints, RegionSpec

        # Stretch the toy so 90 km cross pairs need amplification at a hub
        # (runs of 30 and 60 km fit the 20 dB budget with one amp).
        fmap = build_toy_map(spoke_km=30.0, trunk_km=30.0)
        region = RegionSpec(
            fiber_map=fmap,
            dc_fibers={f"DC{i}": 10 for i in range(1, 5)},
            constraints=OperationalConstraints(failure_tolerance=0),
        )
        plan = api.plan(region)
        amped = [
            (s, p) for (s, p), path in plan.effective_paths.items()
            if path.amp_node is not None
        ]
        assert amped, "expected amplified paths in the stretched toy"
        controller = IrisController(plan)
        scenario, pair = amped[0]
        controller.apply_demands({pair: 16_000.0})
        site = plan.effective_paths[(scenario, pair)].amp_node
        conns = controller.registry.get(f"oss:{site}").device.connections()
        assert any(
            isinstance(out, tuple) and out and out[0] == "amp-in"
            for out in conns.values()
        )
        assert controller.audit() == []


class TestTransceiverPoolTrim:
    def test_ceil_overshoot_trimmed(self, toy_region):
        """Three pairs each ceil-ing to 134 wavelengths would need 402 of
        DC1's 400 transceivers; the retune trims to the pool."""
        plan = api.plan(toy_region)
        controller = IrisController(plan)
        gbps = 133.3 * 400.0  # 133.3 wavelengths -> ceil 134; 3x still
        # within DC1's 160 Tbps hose, but 402 > 400 transceivers pre-trim.
        controller.apply_demands(
            {
                ("DC1", "DC2"): gbps,
                ("DC1", "DC3"): gbps,
                ("DC1", "DC4"): gbps,
            }
        )
        assignment = controller.wavelength_assignments["DC1"]
        assert len(assignment.slots) <= 400
        assert len(assignment.slots) >= 399  # only the overshoot trimmed


class TestControllerProperties:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @given(
        demands_seed=st.integers(min_value=0, max_value=500),
        n_pairs=st.integers(min_value=1, max_value=6),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_reconcile_idempotent_and_audited(
        self, toy_region, demands_seed, n_pairs
    ):
        """For any hose-feasible demand matrix: reconciling twice is a
        no-op the second time, and the audit is always clean."""
        import itertools
        import random

        plan = api.plan(toy_region)
        controller = IrisController(plan)
        rng = random.Random(demands_seed)
        pairs = rng.sample(
            list(itertools.combinations(plan.region.dcs, 2)), n_pairs
        )
        # Keep each DC under capacity: at most 3 pairs/DC x 50 Tbps.
        demands = {pair: rng.uniform(100.0, 50_000.0) for pair in pairs}
        first = controller.apply_demands(demands)
        assert first.verified
        second = controller.apply_demands(demands)
        assert not second.changed
        assert controller.audit() == []
