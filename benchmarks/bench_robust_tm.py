"""Multi-TM robust planning vs the hose envelope (METTEOR-style).

The robust design plans one topology simultaneously feasible for an
ensemble of sampled traffic matrices instead of the full hose envelope.
This bench quantifies the trade on the golden region:

* **cost** — robust vs iris / eps / hybrid equipment cost (the ensemble
  is strictly inside the hose, so robust must come in at or under iris);
* **FCT** — the robust-static fabric (provisioned for the ensemble max,
  never reconfigured) vs the reconfiguring Iris fabric, as p99 slowdown
  over the same EPS baseline and the same flow trace.

Run directly for a CI smoke pass::

    PYTHONPATH=src python benchmarks/bench_robust_tm.py --smoke

or to append a ``kind: robust_tm`` trajectory row to the committed
benchmark file::

    PYTHONPATH=src python benchmarks/bench_robust_tm.py --smoke \\
        --json BENCH_planner.json
"""

import random
import time
from pathlib import Path

from repro import api
from repro.cost.estimator import estimate_cost
from repro.designs import get_design
from repro.designs.robust import TrafficEnsembleSpec, plan_robust
from repro.region.catalog import make_region
from repro.simulation.scenarios import (
    ScenarioConfig,
    run_comparison,
    run_robust_comparison,
)
from repro.simulation.traffic import sample_ensemble

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``BENCH_planner.json`` row layout version (shared with the planner
#: runtime bench; this bench tags its rows with ``"kind": "robust_tm"``).
BENCH_SCHEMA_VERSION = 1

#: The golden region (tests/test_golden.py) the trajectory tracks.
GOLDEN_REGION = {"map_index": 0, "n_dcs": 5, "dc_fibers": 8}

#: The Fig 17-style operating point the FCT comparison runs at.
FCT_SCENARIO = ScenarioConfig(
    n_dcs=5,
    duration_s=12.0,
    change_interval_s=4.0,
    utilization=0.6,
    seed=17,
)

#: Ensemble seed for the FCT comparison's robust-static allocation.
FCT_ENSEMBLE_SEED = 99


def _design_costs(region) -> dict[str, float]:
    """Total equipment cost per design on ``region``."""
    iris_plan = api.plan(region)
    robust_plan = plan_robust(region)
    return {
        "iris": estimate_cost(iris_plan.inventory()).total,
        "robust": estimate_cost(robust_plan.inventory()).total,
        "eps": estimate_cost(get_design("eps").plan(region)).total,
        "hybrid": estimate_cost(get_design("hybrid").plan(region)).total,
    }


def _fct_comparison(config: ScenarioConfig) -> dict[str, float]:
    """p99 FCT slowdowns (vs EPS) of the reconfiguring Iris fabric and
    the robust-static fabric, over the identical flow trace."""
    ensemble = sample_ensemble(
        config.dcs, random.Random(FCT_ENSEMBLE_SEED), count=5
    )
    iris = run_comparison(config)
    robust = run_robust_comparison(config, ensemble)
    return {
        "iris_p99": iris.summary.p99_all,
        "robust_p99": robust.summary.p99_all,
        "iris_reconfigurations": iris.reconfigurations,
        "robust_reconfigurations": robust.reconfigurations,
    }


def test_robust_cost_vs_baselines(report):
    """Robust plans inside the hose envelope: never costlier than iris."""
    region = make_region(**GOLDEN_REGION).spec
    costs = _design_costs(region)

    report("robust cost vs baselines (5-DC golden region, 5-TM ensemble)")
    for name in ("robust", "iris", "hybrid", "eps"):
        report(f"        {name:<8}{costs[name]:>14,.0f} $/yr  "
               f"({costs[name] / costs['iris']:.2f}x iris)")

    assert costs["robust"] <= costs["iris"]
    # EPS stays far above every optical design (Fig 12's headline gap).
    assert costs["eps"] > 2 * costs["robust"]


def test_robust_static_fct(report):
    """The robust fabric avoids reconfiguration churn entirely; its p99
    penalty comes only from tighter circuits."""
    fct = _fct_comparison(FCT_SCENARIO)

    report("robust-static vs iris FCT (Fig 17-style operating point)")
    report(f"        iris    p99 slowdown {fct['iris_p99']:.3f}  "
           f"({fct['iris_reconfigurations']:.0f} reconfiguration(s))")
    report(f"        robust  p99 slowdown {fct['robust_p99']:.3f}  "
           f"(0 reconfigurations by construction)")

    assert fct["robust_reconfigurations"] == 0
    assert fct["iris_p99"] >= 1.0
    assert fct["robust_p99"] >= 1.0
    # The static fabric stays in the same regime as the reconfiguring
    # one at this operating point (no order-of-magnitude blowup).
    assert fct["robust_p99"] < 2.0


def _measure(smoke: bool) -> dict:
    """One full cost + FCT measurement; smaller scenario under --smoke."""
    region = make_region(**GOLDEN_REGION).spec
    t0 = time.perf_counter()
    costs = _design_costs(region)
    plan_s = time.perf_counter() - t0

    config = FCT_SCENARIO
    if smoke:
        from dataclasses import replace

        config = replace(config, duration_s=6.0)
    t0 = time.perf_counter()
    fct = _fct_comparison(config)
    sim_s = time.perf_counter() - t0

    return {
        "costs": costs,
        "fct": fct,
        "plan_s": round(plan_s, 4),
        "sim_s": round(sim_s, 4),
        "sim_duration_s": config.duration_s,
    }


def _print_summary(measured: dict) -> None:
    costs = measured["costs"]
    fct = measured["fct"]
    print("robust-TM bench (5-DC golden region, 5-TM ensemble)")
    for name in ("robust", "iris", "hybrid", "eps"):
        print(f"  {name:<8}{costs[name]:>14,.0f} $/yr  "
              f"({costs[name] / costs['iris']:.2f}x iris)")
    print(f"  FCT p99: iris {fct['iris_p99']:.3f} "
          f"({fct['iris_reconfigurations']:.0f} reconfig) vs "
          f"robust-static {fct['robust_p99']:.3f} (0 reconfig)")
    print(f"  planned 4 designs in {measured['plan_s']:.1f} s, "
          f"simulated {measured['sim_duration_s']:.0f} s twice in "
          f"{measured['sim_s']:.1f} s")


def _gate(measured: dict) -> list[str]:
    costs = measured["costs"]
    fct = measured["fct"]
    problems = []
    if costs["robust"] > costs["iris"]:
        problems.append(
            f"robust cost {costs['robust']:,.0f} exceeds iris "
            f"{costs['iris']:,.0f} (ensemble escaped the hose envelope)"
        )
    if fct["robust_reconfigurations"] != 0:
        problems.append("robust-static fabric reported reconfigurations")
    return problems


def _bench_json(path: str, measured: dict) -> int:
    """Append one ``kind: robust_tm`` row to the shared trajectory file."""
    import json

    from repro import __version__

    costs = measured["costs"]
    row = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "robust_tm",
        "version": __version__,
        "region": dict(GOLDEN_REGION),
        "ensemble": {
            "count": TrafficEnsembleSpec().count,
            "seed": TrafficEnsembleSpec().seed,
        },
        "cost_total": {k: round(v, 2) for k, v in costs.items()},
        "cost_over_iris": {
            k: round(v / costs["iris"], 4) for k, v in costs.items()
        },
        "fct": {
            "iris_p99": round(measured["fct"]["iris_p99"], 6),
            "robust_p99": round(measured["fct"]["robust_p99"], 6),
            "iris_reconfigurations": int(
                measured["fct"]["iris_reconfigurations"]
            ),
            "robust_reconfigurations": int(
                measured["fct"]["robust_reconfigurations"]
            ),
            "sim_duration_s": measured["sim_duration_s"],
        },
        "plan_s": measured["plan_s"],
        "sim_s": measured["sim_s"],
    }

    target = Path(path)
    if target.exists():
        payload = json.loads(target.read_text())
        if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
            print(f"BENCH GATE FAILED: {path} has schema_version "
                  f"{payload.get('schema_version')!r}, expected "
                  f"{BENCH_SCHEMA_VERSION}")
            return 1
    else:
        payload = {"schema_version": BENCH_SCHEMA_VERSION, "rows": []}
    payload["rows"].append(row)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"robust_tm row appended to {path} ({len(payload['rows'])} row(s))")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the quick cost+FCT pass and exit")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="append a robust_tm trajectory row to the "
                             "shared BENCH_planner.json file")
    cli_args = parser.parse_args()
    if not cli_args.smoke and not cli_args.json:
        parser.error("this entry point supports --smoke and/or --json; "
                     "use pytest for the full benchmarks")
    measured = _measure(smoke=cli_args.smoke)
    _print_summary(measured)
    problems = _gate(measured)
    for problem in problems:
        print(f"BENCH GATE FAILED: {problem}")
    status = 1 if problems else 0
    if status == 0 and cli_args.json:
        status = _bench_json(cli_args.json, measured)
    sys.exit(status)
