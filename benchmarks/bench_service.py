"""Planner service: patched-vs-cold replan latency and coalesce rate.

The service's pitch is that a region *edit* should not cost a full
replan: ``apply_delta`` reuses the old plan's scenario paths (execution-
identity oracle), hose flows (warm cache + residual repair), and — when
the bypass proof covers every scenario — the entire optical realization,
while guaranteeing the patched plan is byte-identical to a cold replan
of the mutated region. This bench measures that on the golden region
(the same one ``bench_planner_runtime.py`` tracks):

* **add**: a conservative bypass duct (priced 5% above its worst-case
  alternative route, so it provably changes no scenario path);
* **cut**: cutting that duct again (the cut-mode oracle, landing back on
  the original region).

Gate: patched must be at least ``MIN_SPEEDUP``x faster than cold in both
directions, and byte-identical. The coalesce section drives an in-process
request stampede through :class:`PlannerService` and asserts the single-
flight rate.

Run directly for the CI smoke pass or to append a ``kind="service"``
trajectory row::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke
    PYTHONPATH=src python benchmarks/bench_service.py --json BENCH_planner.json
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import networkx as nx

from repro import api
from repro.core.hose import clear_hose_cache
from repro.region.catalog import make_region
from repro.region.delta import RegionDelta
from repro.serialize import plan_to_json, region_to_dict
from repro.service import PlannerService, ServiceConfig, apply_delta
from repro.service.replan import DeltaStats

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``BENCH_planner.json`` row layout version (bump on breaking changes).
BENCH_SCHEMA_VERSION = 1

#: The golden region every planner bench tracks (5 DCs, 8 fibers, map 0).
GOLDEN_REGION = {"map_index": 0, "n_dcs": 5, "dc_fibers": 8}

#: The acceptance gate: patched replans must beat cold by at least this.
MIN_SPEEDUP = 5.0

#: Timing repetitions (best-of, damping scheduler noise).
REPEATS = 3

#: Stampede width for the coalesce-rate section.
STAMPEDE_CLIENTS = 8


def _bypass_delta(plan, factor: float = 1.05) -> RegionDelta:
    """A duct between non-adjacent nodes, priced ``factor``x its worst-case
    alternative route over every enumerated scenario — every strict bypass
    check passes, so the patched topology is provably unchanged."""
    fmap = plan.region.fiber_map
    scenarios = list(plan.topology.scenario_paths)
    existing = set(fmap.ducts)
    for u in fmap.nodes:
        for v in fmap.nodes:
            if v <= u or (min(u, v), max(u, v)) in existing:
                continue
            worst = 0.0
            for scenario in scenarios:
                graph = fmap.subgraph_without(scenario)
                try:
                    dist = nx.dijkstra_path_length(
                        graph, u, v, weight="length_km"
                    )
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    worst = None
                    break
                worst = max(worst, dist)
            if worst is not None and worst > 0:
                return RegionDelta.duct_added(u, v, length_km=factor * worst)
    raise AssertionError("no bypassable node pair in the region")


def _best_of(fn, repeats: int = REPEATS):
    """(best wall seconds, last result) over ``repeats`` runs of ``fn``."""
    best_s, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best_s is None or elapsed < best_s:
            best_s = elapsed
    return best_s, result


def _measure_direction(base_plan, delta):
    """Cold-vs-patched timings for one delta direction, parity-asserted.

    Cold replans the mutated region from a *cleared* hose cache (a fresh
    daemon, the worst case); patched runs ``apply_delta`` against the
    warm base plan (the steady-state daemon). Both sides are best-of-N.
    """
    mutated = delta.apply_to_region(base_plan.region)

    def cold():
        clear_hose_cache()
        return api.plan(mutated)

    cold_s, cold_plan = _best_of(cold)

    # Rewarm exactly what a live daemon would hold: the base plan's run.
    clear_hose_cache()
    api.plan(base_plan.region)

    stats = DeltaStats()

    def patched():
        return apply_delta(base_plan, delta, stats=stats)

    patched_s, patched_plan = _best_of(patched)

    assert plan_to_json(patched_plan, full=True) == plan_to_json(
        cold_plan, full=True
    ), "patched plan diverged from cold replan"
    return cold_s, patched_s, patched_plan, stats


def _measure_coalesce(n_clients: int = STAMPEDE_CLIENTS):
    """Drive a same-key stampede through the service; return its counters."""
    region = make_region(map_index=1, n_dcs=4, dc_fibers=6).spec
    # Workers start after the burst so the job is in flight for every
    # submission — the coalescing window is deterministic regardless of
    # hose-cache warmth (a warm plan can otherwise finish mid-stampede).
    service = PlannerService(ServiceConfig(workers=2))
    try:
        request = {"op": "submit", "region": region_to_dict(region)}
        responses = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        def client(i):
            barrier.wait()
            responses[i] = service.handle(dict(request))

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service._start_workers()
        job_ids = {r["job_id"] for r in responses if r and r.get("ok")}
        results = {
            service.handle(
                {"op": "result", "job_id": job_id, "timeout_s": 300}
            )["plan"]
            for job_id in job_ids
        }
        assert len(results) == 1, "stampede responses not bit-identical"
        return service.counters()
    finally:
        service.close()


def _measure_golden():
    """The full service bench on the golden region; returns the row dict."""
    from repro import __version__

    instance = make_region(**GOLDEN_REGION)
    clear_hose_cache()
    base_plan = api.plan(instance.spec)

    add = _bypass_delta(base_plan)
    add_cold_s, add_patched_s, widened, add_stats = _measure_direction(
        base_plan, add
    )

    cut = RegionDelta.duct_cut(*add.duct)
    cut_cold_s, cut_patched_s, restored, cut_stats = _measure_direction(
        widened, cut
    )
    # The cut lands back on the original region: full-circle parity.
    assert plan_to_json(restored, full=True) == plan_to_json(
        base_plan, full=True
    ), "add-then-cut did not restore the original plan"

    counters = _measure_coalesce()
    attempts = counters["queued"] + counters["coalesced"]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "version": __version__,
        "kind": "service",
        "region": dict(GOLDEN_REGION),
        "jobs": 1,
        "backend": "serial",
        "scenarios": len(base_plan.topology.scenario_paths),
        "add": {
            "cold_s": round(add_cold_s, 4),
            "patched_s": round(add_patched_s, 4),
            "speedup": round(add_cold_s / add_patched_s, 2),
            "mode": add_stats.mode,
            "realization": add_stats.realization,
            "scenarios_reused": add_stats.reused,
            "scenarios_computed": add_stats.computed,
        },
        "cut": {
            "cold_s": round(cut_cold_s, 4),
            "patched_s": round(cut_patched_s, 4),
            "speedup": round(cut_cold_s / cut_patched_s, 2),
            "mode": cut_stats.mode,
            "realization": cut_stats.realization,
            "scenarios_reused": cut_stats.reused,
            "scenarios_computed": cut_stats.computed,
        },
        "coalesce": {
            "clients": attempts,
            "coalesced": counters["coalesced"],
            "cold_plans": counters["cold"],
            "rate": round(counters["coalesced"] / attempts, 3)
            if attempts
            else 0.0,
        },
    }


def _gate(row) -> list[str]:
    problems = []
    for direction in ("add", "cut"):
        speedup = row[direction]["speedup"]
        if speedup < MIN_SPEEDUP:
            problems.append(
                f"{direction}: patched speedup {speedup:.2f}x "
                f"< gate {MIN_SPEEDUP:.1f}x"
            )
    if row["coalesce"]["cold_plans"] != 1:
        problems.append(
            f"stampede cost {row['coalesce']['cold_plans']} cold plan(s), "
            "expected exactly 1"
        )
    return problems


# ----------------------------------------------------------------------
# pytest entry points


def test_patched_replan_beats_cold(report):
    row = _measure_golden()
    for direction in ("add", "cut"):
        d = row[direction]
        report(
            f"service {direction}-delta: cold {d['cold_s']:.2f} s -> "
            f"patched {d['patched_s']:.3f} s ({d['speedup']:.1f}x, "
            f"mode={d['mode']}, realization={d['realization']})"
        )
    c = row["coalesce"]
    report(
        f"service stampede: {c['clients']} clients -> {c['cold_plans']} cold "
        f"plan(s), coalesce rate {c['rate']:.0%}"
    )
    problems = _gate(row)
    assert not problems, problems


# ----------------------------------------------------------------------
# CLI entry points (CI smoke + trajectory row)


def _smoke() -> int:
    """A fast pass on a small region: parity + coalescing, no speed gate."""
    instance = make_region(map_index=0, n_dcs=4, dc_fibers=6)
    clear_hose_cache()
    base_plan = api.plan(instance.spec)
    delta = _bypass_delta(base_plan)
    cold_s, patched_s, _plan, stats = _measure_direction(base_plan, delta)
    print(
        f"service smoke: cold {cold_s:.2f} s -> patched {patched_s:.3f} s "
        f"({cold_s / patched_s:.1f}x, mode={stats.mode}, "
        f"realization={stats.realization})"
    )
    counters = _measure_coalesce()
    print(
        f"service smoke: stampede {counters['queued'] + counters['coalesced']}"
        f" submits -> {counters['cold']} cold plan(s), "
        f"{counters['coalesced']} coalesced"
    )
    if counters["cold"] != 1:
        print("SMOKE FAILED: stampede cost more than one cold plan")
        return 1
    return 0


def _bench_json(path: str) -> int:
    """Append one ``kind="service"`` row to ``path`` and apply the gate."""
    import json

    row = _measure_golden()
    target = Path(path)
    if target.exists():
        payload = json.loads(target.read_text())
        if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
            print(
                f"BENCH GATE FAILED: {path} has schema_version "
                f"{payload.get('schema_version')!r}, expected "
                f"{BENCH_SCHEMA_VERSION}"
            )
            return 1
    else:
        payload = {"schema_version": BENCH_SCHEMA_VERSION, "rows": []}
    payload["rows"].append(row)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"BENCH_planner service row appended to {path} "
        f"({len(payload['rows'])} row(s))"
    )
    for direction in ("add", "cut"):
        d = row[direction]
        print(
            f"  {direction}: cold {d['cold_s']:.2f} s -> patched "
            f"{d['patched_s']:.3f} s ({d['speedup']:.1f}x, "
            f"realization={d['realization']})"
        )
    c = row["coalesce"]
    print(
        f"  coalesce: {c['clients']} clients, rate {c['rate']:.0%}, "
        f"{c['cold_plans']} cold plan(s)"
    )
    problems = _gate(row)
    for problem in problems:
        print(f"BENCH GATE FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the quick parity+coalesce smoke pass and exit",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="append a kind=service BENCH_planner.json row and apply "
        "the patched-vs-cold speed gate",
    )
    cli_args = parser.parse_args()
    if not cli_args.smoke and not cli_args.json:
        parser.error(
            "this entry point supports --smoke and/or --json; "
            "use pytest for the full benchmark"
        )
    status = 0
    if cli_args.smoke:
        status = _smoke()
    if status == 0 and cli_args.json:
        status = _bench_json(cli_args.json)
    sys.exit(status)
