"""plan-enum and plan-cut: cold plan, store hit and patched delta rounds.

Each round is: one cold ``repro.api.plan`` after clearing the hose cache,
``warm`` store hits through ``PlannerConfig(store=...)``, then, for each
recorded provable bypass duct, the duct's add and its cut through
``apply_delta``, starting from the hose-cache state the cold plan left.
The seed orders the bypass ducts; every seed patches all of them, so
every seed does the same work. The rounds are identical, so every work
counter must repeat exactly from one round to the next.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from measure import CheckFailed, Recorder, plan_digest, rounds_for
from spans import SpanLog

#: Region parameters, store hits per round, and the nominal round length
#: (seconds on a 2-CPU host, checks included) used to fill ``--seconds``.
SPECS: dict[str, dict[str, Any]] = {
    "plan-enum": {
        "region": {"map_index": 2, "n_dcs": 10, "dc_fibers": 8},
        "warm": 2,
        "round_s": 6.5,
    },
    "plan-cut": {
        "region": {"map_index": 5, "n_dcs": 6, "dc_fibers": 8},
        "warm": 4,
        "round_s": 6.0,
    },
}


def same_plan(a: Any, b: Any) -> bool:
    """Whether two plans carry equal values in every field their full
    encoding reads, so that they encode to the same bytes."""
    from repro.serialize import region_to_dict, timings_to_dict

    return (
        a.topology == b.topology
        and a.amplifiers == b.amplifiers
        and a.cut_throughs == b.cut_throughs
        and a.residual == b.residual
        and a.effective_paths == b.effective_paths
        and region_to_dict(a.region) == region_to_dict(b.region)
        and timings_to_dict(a.topology.timings) == timings_to_dict(b.topology.timings)
    )


def wrap_planner_layers(log: SpanLog) -> None:
    """Span the planner-side layer calls, at the names their callers use."""
    import repro.core.plan
    import repro.core.planner
    import repro.serialize
    import repro.service.replan
    from repro.store import PlanStore

    for owner, attr, name in (
        (repro.core.planner, "plan_topology", "core.topology"),
        (repro.service.replan, "plan_topology", "core.topology"),
        (repro.core.planner, "place_amplifiers", "core.amplifiers"),
        (repro.core.planner, "place_cut_throughs", "core.cutthrough"),
        (repro.core.planner, "residual_fiber_pairs", "core.residual"),
        (repro.core.plan.IrisPlan, "validate", "core.plan.validate"),
        (repro.serialize, "plan_from_dict", "serialize.decode"),
        (PlanStore, "get", "store.get"),
        (PlanStore, "put", "store.put"),
    ):
        log.wrap(owner, attr, name)


def plan_counts(plan: Any) -> dict[str, float]:
    """The per-layer metrics read off one cold plan."""
    topology = plan.topology
    keys = [path for paths in topology.scenario_paths.values() for path in paths.values()]
    return {
        "core.topology.enumerate_s": topology.timings.enumerate_s,
        "core.topology.capacity_s": topology.timings.capacity_s,
        "core.topology.scenarios": len(topology.scenario_paths),
        "core.topology.scenarios_raw": topology.scenario_count_total,
        "core.topology.path_keys": len(keys),
        "core.topology.distinct_paths": len(set(keys)),
        "core.amplifiers.sites": len(plan.amplifiers.site_counts),
        "core.cutthrough.links": len(plan.cut_throughs),
        "core.plan.effective_paths": len(plan.effective_paths),
    }


def span_totals(log: SpanLog) -> dict[str, float]:
    """The per-layer busy times of the planner-side spans."""
    return {
        "core.amplifiers.s": log.busy("core.amplifiers"),
        "core.cutthrough.s": log.busy("core.cutthrough"),
        "core.plan.validate_s": log.busy("core.plan.validate"),
        "serialize.decode_s": log.busy("serialize.decode"),
        "serialize.encode_s": log.busy("serialize.encode"),
        "store.get_s": log.busy("store.get"),
        "store.put_s": log.busy("store.put"),
        "service.replan.duct_added_s": log.busy("service.replan.duct_added"),
        "service.replan.duct_cut_s": log.busy("service.replan.duct_cut"),
        "service.replan.dc_resized_s": log.busy("service.replan.dc_resized"),
    }


def region_sha(region: Any) -> str:
    from repro.serialize import region_to_dict
    from repro.store.canonical import canonical_json
    from measure import sha256_text

    return sha256_text(canonical_json(region_to_dict(region)))


class PlannerWorkload:
    def __init__(self, name: str, seed: int, seconds: float, pins: dict, root: Path):
        self.name = name
        self.spec = SPECS[name]
        self.pins = pins[name]
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.setup_failures: list[str] = []
        #: Digest -> a plan whose full encoding was hashed and matched it.
        self.verified: dict[str, Any] = {}

    # -- set-up ---------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        from repro.api import PlannerConfig
        from repro.region.catalog import make_region
        from repro.region.delta import RegionDelta
        from repro.store import PlanStore, plan_key

        self.region = make_region(**self.spec["region"]).spec
        if region_sha(self.region) != self.pins["region_sha"]:
            self.setup_failures.append(
                "input: generated region differs from its recorded digest"
            )
        pinned = self.pins["bypass"]
        first = self.seed % len(pinned)
        self.bypasses = [
            (RegionDelta.duct_added(*b["duct"], length_km=b["length_km"]),
             RegionDelta.duct_cut(*b["duct"]), b["plan_sha"])
            for b in pinned[first:] + pinned[:first]
        ]
        self.store = PlanStore(workdir / "store")
        self.config = PlannerConfig(store=self.store)
        self.stored = False
        self.key = plan_key(
            design="iris",
            region=self.region,
            config={"prune_enumeration": True, "validate": True},
        )

    # -- one round ------------------------------------------------------------

    def _round(self, rec: Recorder, log: SpanLog | None = None) -> dict[str, Any]:
        from repro import api
        from repro.core.hose import clear_hose_cache, hose_cache_stats
        from repro.serialize import plan_to_dict
        from repro.service.replan import DeltaStats, apply_delta
        from repro.store.canonical import canonical_json

        base_sha = self.pins["plan_sha"]

        def digest_is(wanted: str):
            return lambda plan: self.check(plan, wanted)

        def span(name: str):
            return lambda: log.span(name) if log is not None else nullcontext()

        counters: dict[str, Any] = {}
        clear_hose_cache()
        plan = rec.timed("cold", lambda: api.plan(self.region), digest_is(base_sha),
                         span("op.cold"))
        cold_hose = hose_cache_stats()
        if plan is None:
            raise CheckFailed("cold plan failed; the round cannot continue")
        counters["cold.hose"] = [
            cold_hose.lookups, cold_hose.hits,
            cold_hose.cold_solves, cold_hose.incremental_solves,
        ]
        counters["plan"] = {
            "scenarios": len(plan.topology.scenario_paths),
            "scenarios_raw": plan.topology.scenario_count_total,
            "cut_throughs": len(plan.cut_throughs),
            "amplifier_sites": len(plan.amplifiers.site_counts),
            "effective_paths": len(plan.effective_paths),
        }
        self.last_plan = plan
        if log is not None or not self.stored:
            with span("serialize.encode")():
                payload = plan_to_dict(plan, full=True)
                self.plan_bytes = len(canonical_json(payload))
            self.store.put(self.key, payload, kind="plan")
            self.stored = True
        hits_before = self.store.hits
        for _ in range(self.spec["warm"]):
            rec.timed("warm", lambda: api.plan(self.region, config=self.config),
                      digest_is(base_sha), span("op.warm"))
        counters["warm.store_hits"] = self.store.hits - hits_before
        stats = {}
        for add, cut, add_sha in self.bypasses:
            name = "-".join(add.duct)
            stats[f"add {name}"], stats[f"cut {name}"] = DeltaStats(), DeltaStats()
            added = rec.timed(
                "patched",
                lambda: apply_delta(plan, add, stats=stats[f"add {name}"]),
                digest_is(add_sha),
                span("service.replan.duct_added"),
            )
            if added is not None:
                rec.timed(
                    "patched",
                    lambda: apply_delta(added, cut, stats=stats[f"cut {name}"]),
                    digest_is(base_sha),
                    span("service.replan.duct_cut"),
                )
        after = hose_cache_stats()
        counters["patched.hose"] = [
            after.lookups - cold_hose.lookups, after.hits - cold_hose.hits,
            after.cold_solves - cold_hose.cold_solves,
            after.incremental_solves - cold_hose.incremental_solves,
        ]
        counters["patched.delta"] = {
            kind: [s.mode, s.realization, s.reused, s.checked, s.computed]
            for kind, s in stats.items()
        }
        return counters

    def check(self, plan: Any, wanted: str) -> None:
        """Hash the first plan expected under each digest; compare later
        ones field by field with that verified plan, which is as strict
        and takes milliseconds instead of a full encoding."""
        reference = self.verified.get(wanted)
        if reference is not None:
            if not same_plan(plan, reference):
                raise CheckFailed(f"plan differs from the verified plan {wanted[:12]}")
            return
        digest = plan_digest(plan)
        if digest != wanted:
            raise CheckFailed(f"plan digest: got {digest}, want {wanted}")
        self.verified[wanted] = plan

    # -- untraced run -----------------------------------------------------------

    def run(self) -> Recorder:
        rec = Recorder()
        for failure in self.setup_failures:
            rec.fail("setup", failure)
        for index in range(rounds_for(self.seconds, self.spec["round_s"])):
            try:
                counters = self._round(rec)
            except CheckFailed as exc:
                rec.fail("round", str(exc))
                continue
            if index == 0:
                rec.counters = counters
            elif counters != rec.counters:
                rec.fail("determinism", f"round {index} counters {counters} "
                         f"differ from round 0 {rec.counters}")
        return rec

    # -- traced run -------------------------------------------------------------

    def trace(self, log: SpanLog) -> tuple[Recorder, dict[str, float]]:
        from repro.core.hose import clear_hose_cache, hose_cache_stats
        from repro.obs import profile_plan

        untraced = Recorder()
        self._round(untraced)
        cold_s = untraced.of("cold")[0]

        clear_hose_cache()
        start = time.perf_counter()
        profiled = profile_plan(self.region).plan
        profile_s = time.perf_counter() - start
        untraced.check("profile", lambda p: self.check(p, self.pins["plan_sha"]), profiled)

        wrap_planner_layers(log)
        hits0, misses0 = self.store.hits, self.store.misses
        traced = Recorder()
        try:
            counters = self._round(traced, log)
        finally:
            log.restore()
        traced.failures[:0] = untraced.failures
        traced.run_failures += untraced.run_failures
        hose = hose_cache_stats()
        deltas = list(counters["patched.delta"].values())
        metrics = {
            **plan_counts(self.last_plan),
            **span_totals(log),
            "core.hose.lookups": hose.lookups,
            "core.hose.hits": hose.hits,
            "core.hose.cold_solves": hose.cold_solves,
            "core.hose.incremental_solves": hose.incremental_solves,
            "core.plan.unattributed_s": next(
                s.self_s for s in log.spans if s.name == "op.cold"
            ),
            "serialize.plan_bytes": self.plan_bytes,
            "store.hits": self.store.hits - hits0,
            "store.misses": self.store.misses - misses0,
            "store.blob_bytes": self.store.stats().total_bytes,
            "service.replan.scenarios_reused": sum(d[2] for d in deltas),
            "service.replan.bypass_checks": sum(d[3] for d in deltas),
            "service.replan.scenarios_computed": sum(d[4] for d in deltas),
            "service.replan.realization_reused": sum(d[1] == "reused" for d in deltas),
            "obs.trace_overhead": profile_s / cold_s,
            "trace.run_overhead": sum(op.seconds for op in traced.ops)
            / sum(op.seconds for op in untraced.ops),
        }
        return traced, metrics

    def close(self) -> None:
        pass
