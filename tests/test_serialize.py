"""JSON round-trips for regions and plan summaries."""

import json

import pytest

from repro import api
from repro.exceptions import ReproError
from repro.serialize import (
    fiber_map_from_dict,
    fiber_map_to_dict,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    region_from_json,
    region_to_json,
)


class TestFiberMapRoundTrip:
    def test_round_trip(self, toy_map):
        restored = fiber_map_from_dict(fiber_map_to_dict(toy_map))
        assert restored.dcs == toy_map.dcs
        assert restored.huts == toy_map.huts
        assert restored.ducts == toy_map.ducts
        for u, v in toy_map.ducts:
            assert restored.duct_length(u, v) == pytest.approx(
                toy_map.duct_length(u, v)
            )
        for node in toy_map.nodes:
            assert restored.position(node) == toy_map.position(node)

    def test_malformed_rejected(self):
        with pytest.raises(ReproError):
            fiber_map_from_dict({"nodes": [{"name": "A"}], "ducts": []})


class TestRegionRoundTrip:
    def test_round_trip(self, toy_region):
        restored = region_from_json(region_to_json(toy_region))
        assert restored.dc_fibers == dict(toy_region.dc_fibers)
        assert restored.wavelengths_per_fiber == toy_region.wavelengths_per_fiber
        assert restored.constraints == toy_region.constraints
        assert restored.fiber_map.ducts == toy_region.fiber_map.ducts

    def test_invalid_json(self):
        with pytest.raises(ReproError, match="invalid JSON"):
            region_from_json("{nope")

    def test_wrong_version(self, toy_region):
        data = json.loads(region_to_json(toy_region))
        data["format_version"] = 99
        with pytest.raises(ReproError, match="version"):
            region_from_json(json.dumps(data))

    def test_missing_fields(self):
        with pytest.raises(ReproError):
            region_from_json(json.dumps({"format_version": 1}))


class TestPlanSummary:
    def test_plan_summary_contents(self, toy_region):
        plan = api.plan(toy_region)
        data = plan_to_dict(plan)
        assert data["base_capacity"]["H1~H2"] == 20
        assert data["residual"]["H1~H2"] == 4
        assert data["total_fiber_pair_spans"] == 76
        assert data["cut_throughs"] == []
        # Valid JSON end to end.
        assert json.loads(plan_to_json(plan)) == data


class TestPlanSummaryWithAmplifiers:
    def test_amplifier_sites_serialized(self):
        from tests.test_amplifiers import line_region

        region = line_region(55.0, 55.0)
        plan = api.plan(region)
        data = plan_to_dict(plan)
        assert data["amplifier_sites"] == {"M0": 4}
        assert data["scenarios_enumerated"] >= 1
        assert data["scenarios_total"] >= data["scenarios_enumerated"]


class TestInstrumentedPlanSerialization:
    """Plans carry timings and (sometimes) a span trace; the audit JSON
    must stay deterministic by default and expose both only explicitly."""

    def test_default_json_is_deterministic_across_runs(self, toy_region):
        # Second plan hits a warm hose cache and a different-looking trace;
        # neither may leak into the default audit output.
        first = plan_to_json(api.plan(toy_region))
        second = plan_to_json(api.plan(toy_region))
        assert first == second

    def test_default_timings_block_is_environment_invariant(self, toy_region):
        data = plan_to_dict(api.plan(toy_region))
        assert set(data["timings"]) == {"scenarios_evaluated", "hose_lookups"}
        assert data["timings"]["scenarios_evaluated"] == data["scenarios_enumerated"]
        assert "trace" not in data

    def test_runtime_fields_opt_in(self, toy_region):
        plan = api.plan(toy_region)
        data = plan_to_dict(plan, include_runtime=True)
        timings = data["timings"]
        assert timings["backend"] == "serial" and timings["jobs"] == 1
        assert (
            timings["hose_cache_hits"] + timings["hose_cache_misses"]
            == timings["hose_lookups"]
        )
        assert timings["total_s"] >= 0.0

    def test_trace_opt_in_and_round_trips(self, toy_region):
        from repro.obs import record_from_dict, record_to_dict

        api.plan(toy_region)  # warm the hose cache: stable hit counters
        data = plan_to_dict(api.plan(toy_region), include_trace=True)
        assert data["trace"]["name"] == "plan.topology"
        # Without runtime fields the trace is deterministic content...
        again = plan_to_dict(api.plan(toy_region), include_trace=True)
        assert data["trace"] == again["trace"]
        # ...and reconstructs to an equivalent span tree.
        restored = record_from_dict(data["trace"])
        assert record_to_dict(restored, include_durations=False) == data["trace"]

    def test_traced_plan_serializes_cleanly(self, toy_region):
        # A plan produced under global tracing has a much richer trace
        # attached; default serialization must still match the untraced one.
        from repro import obs
        from repro.core.hose import clear_hose_cache

        clear_hose_cache()
        plain = plan_to_json(api.plan(toy_region))
        clear_hose_cache()
        with obs.tracing("audit"):
            traced_plan = api.plan(toy_region)
        assert plan_to_json(traced_plan) == plain


class TestFullPlanRoundTrip:
    """The lossless ``full=True`` encoding and its reconstruction."""

    def test_encode_decode_is_a_fixpoint(self, toy_region):
        plan = api.plan(toy_region)
        encoded = plan_to_dict(plan, full=True)
        restored = plan_from_dict(encoded)
        # Fixpoint: re-encoding the reconstruction changes nothing.
        assert plan_to_dict(restored, full=True) == encoded
        # And so on, indefinitely.
        assert plan_to_dict(plan_from_dict(plan_to_dict(restored, full=True)),
                            full=True) == encoded

    def test_fixpoint_on_failure_tolerant_region(self, small_region_instance):
        plan = api.plan(small_region_instance.spec)
        encoded = plan_to_dict(plan, full=True)
        restored = plan_from_dict(encoded)
        assert plan_to_dict(restored, full=True) == encoded
        assert restored.validate() == []
        assert restored.inventory() == plan.inventory()

    def test_json_form_round_trips(self, toy_region):
        plan = api.plan(toy_region)
        text = plan_to_json(plan, full=True)
        restored = plan_from_json(text)
        assert plan_to_json(restored, full=True) == text
        # The default summary of a loaded plan matches a fresh plan's.
        assert plan_to_json(restored) == plan_to_json(plan)

    def test_full_is_a_superset_of_the_summary(self, toy_region):
        plan = api.plan(toy_region)
        summary = plan_to_dict(plan)
        encoded = plan_to_dict(plan, full=True)
        assert summary == {
            key: value for key, value in encoded.items() if key in summary
        }
        assert {"region", "scenario_paths", "amplifier_assignments",
                "effective_paths"} <= set(encoded)

    def test_summary_dict_rejected(self, toy_region):
        with pytest.raises(ReproError, match="full=True"):
            plan_from_dict(plan_to_dict(api.plan(toy_region)))

    def test_wrong_version_rejected(self, toy_region):
        encoded = plan_to_dict(api.plan(toy_region), full=True)
        encoded["format_version"] = 999
        with pytest.raises(ReproError, match="version"):
            plan_from_dict(encoded)

    def test_malformed_payload_rejected(self, toy_region):
        encoded = plan_to_dict(api.plan(toy_region), full=True)
        encoded["effective_paths"] = [{"bogus": 1}]
        with pytest.raises(ReproError, match="malformed"):
            plan_from_dict(encoded)

    def test_loaded_timings_are_environment_invariant(self, toy_region):
        restored = plan_from_dict(
            plan_to_dict(api.plan(toy_region), full=True)
        )
        timings = restored.topology.timings
        assert timings is not None and timings.backend == "store"
        assert timings.total_s == 0.0


class TestTopologyRoundTrip:
    def test_encode_decode_is_a_fixpoint(self, toy_region):
        from repro.core.topology import plan_topology
        from repro.serialize import topology_from_dict, topology_to_dict

        topology = plan_topology(toy_region)
        encoded = topology_to_dict(topology)
        restored = topology_from_dict(encoded)
        assert topology_to_dict(restored) == encoded
        assert restored.edge_capacity == topology.edge_capacity
        assert restored.scenario_paths == topology.scenario_paths
        assert restored.scenario_count_total == topology.scenario_count_total

    def test_wrong_version_rejected(self, toy_region):
        from repro.core.topology import plan_topology
        from repro.serialize import topology_from_dict, topology_to_dict

        encoded = topology_to_dict(plan_topology(toy_region))
        encoded["format_version"] = 0
        with pytest.raises(ReproError, match="version"):
            topology_from_dict(encoded)
