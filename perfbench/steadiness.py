"""Check the benchmark's steadiness the way its acceptance does.

Runs every workload once per seed, in ``--sets`` sets of seeds (workloads
interleaved within each seed, so host drift falls on all of them alike),
then prints, per workload and end-to-end metric: each set's median and
quartiles, the spread (Q3 - Q1) / median as a share of the metric's
bound, and how far the second set's median moved from the first. It also
checks that every run was correct and that every run of a workload
printed the same work counters. Run from the repository root::

    python3 perfbench/steadiness.py --seeds 10 --sets 2
    python3 perfbench/steadiness.py --report .perfbench/steadiness.json

Raw results go to ``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return {
        "workload": workload, "seed": seed, "returncode": done.returncode,
        "wall_s": time.perf_counter() - start,
        "result": json.loads(lines[-1]) if lines else None,
        "counters": json.loads(lines[-2])["counters"] if len(lines) > 1 else None,
        "stderr": done.stderr[-2000:],
    }


def report(runs: list[dict], bench: dict) -> int:
    problems = 0
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        sets = sorted({r["set"] for r in mine})
        walls = [r["wall_s"] for r in mine]
        bad = [r for r in mine if r["returncode"] or not r["result"]
               or not r["result"]["correct"] or r["result"]["failed"]]
        counters = {json.dumps(r["counters"], sort_keys=True) for r in mine}
        print(f"\n### {workload}\n")
        print(f"{len(mine)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"{len(bad)} incorrect, {len(counters)} distinct counter sets\n")
        problems += len(bad) + (len(counters) != 1)
        header = "| metric | bound |"
        for s in sets:
            header += f" set {s} median (Q1-Q3) | spread/bound |"
        print(header + " median moved |")
        print("|" + "---|" * (2 + 2 * len(sets) + 1))
        for metric, bound in bounds.items():
            row = f"| {metric} | {bound} |"
            medians = []
            for s in sets:
                values = [r["result"]["metrics"][metric]["value"]
                          for r in mine if r["set"] == s and r["result"]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                if metric != "setup_s" and spread > bound / 3:
                    problems += 1
                row += f" {med:.4g} ({q1:.4g}-{q3:.4g}) | {spread / bound:.2f} |"
            moved = medians[-1] / medians[0] - 1
            if abs(moved) > bound:
                problems += 1
            print(row + f" {moved:+.3f} |")
    print(f"\n{problems} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--report", metavar="JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.report:
        return report(json.loads(Path(args.report).read_text()), bench)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out = ROOT / ".perfbench" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    runs = []
    for set_index in range(args.sets):
        for i in range(args.seeds):
            seed = args.first_seed + set_index * args.seeds + i
            for workload in workloads:
                run = run_once(workload, seed, bench["run_seconds"])
                run["set"] = set_index
                runs.append(run)
                metrics = (run["result"] or {}).get("metrics", {})
                print(f"set {set_index} seed {seed} {workload}: {run['wall_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)
                out.write_text(json.dumps(runs, indent=1))
    return report(runs, bench)


if __name__ == "__main__":
    sys.exit(main())
