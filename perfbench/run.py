"""Repository benchmark: plan-enum, plan-cut, service-mix, lint-corpus.

Run from the repository root::

    python3 perfbench/run.py --workload plan-enum --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is one JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics,
after a per-layer table, and the spans are written to
``.perfbench/spans-<workload>.jsonl``. ``--workload all --trace 1`` runs
the traced pass of every workload in turn. See ``perfbench/NOTES.md``.
"""

import time

SETUP_START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan-enum", "plan-cut", "service-mix", "lint-corpus")
#: How many times one run sets up; ``setup_s`` is their median.
SETUPS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit (used for repeats)",
    )
    return parser.parse_args(argv)


def _make(name: str, args: argparse.Namespace, pins: dict):
    if name in ("plan-enum", "plan-cut"):
        from wl_planner import PlannerWorkload

        return PlannerWorkload(name, args.seed, args.seconds, pins, ROOT)
    if name == "service-mix":
        from wl_service import ServiceWorkload

        return ServiceWorkload(args.seed, args.seconds, pins, ROOT)
    from wl_lint import LintWorkload

    return LintWorkload(args.seed, args.seconds, pins, ROOT)


def _child_setup_s(args: argparse.Namespace) -> float:
    """One more set-up, in a fresh interpreter, as that process timed it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _end_to_end(rec, setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics. In-process operations report their time in
    reference-kernel units (``*_ref``); the service's concurrent request
    loop cannot bracket a request with the kernel, so service-mix reports
    seconds, plus request latency and throughput."""
    from statistics import median

    from measure import percentile

    metrics = {"setup_s": median(setup_times)}
    for kind in ("cold", "warm", "patched"):
        ops = [op for op in rec.ops if op.kind == kind]
        if rec.latencies:
            metrics[f"{kind}_s"] = median([op.seconds for op in ops])
        else:
            metrics[f"{kind}_ref"] = median([op.refs for op in ops])
    metrics["peak_rss_mb"] = rec.peak_mb
    if rec.latencies:
        metrics["req_p90_s"] = percentile(rec.latencies, 0.9)
        metrics["req_per_s"] = len(rec.latencies) / rec.loop_s
    return metrics


UNITS = {
    "setup_s": "s", "cold_ref": "ref", "warm_ref": "ref", "patched_ref": "ref",
    "cold_s": "s", "warm_s": "s", "patched_s": "s",
    "peak_rss_mb": "MB", "req_p90_s": "s", "req_per_s": "1/s",
}


def _print_table(name: str, log, layer: dict[str, float], units: dict[str, str]) -> None:
    print(f"== {name}: spans (calls, busy s, self s)")
    for span_name, calls, busy, self_s in sorted(log.table()):
        print(f"  {span_name:34s} {calls:6d} {busy:10.4f} {self_s:10.4f}")
    print(f"== {name}: per-layer metrics (0 = layer not exercised)")
    for metric, value in layer.items():
        print(f"  {metric:40s} {value:16.6g} {units[metric]}")

    def ratio(num: str, den: str) -> str:
        return f"{layer[num] / layer[den]:.4f}" if layer[den] else "n/a"

    submits = sum(layer.get(f"service.daemon.{k}", 0)
                  for k in ("cold", "store_hits", "patched", "coalesced"))
    coalesce = f"{layer['service.daemon.coalesced'] / submits:.4f}" if submits else "n/a"
    store_total = layer["store.hits"] + layer["store.misses"]
    store_rate = f"{layer['store.hits'] / store_total:.4f}" if store_total else "n/a"
    print(f"== {name}: ratios")
    print(f"  hose hit rate                 {ratio('core.hose.hits', 'core.hose.lookups')}")
    print(f"  distinct_paths / path_keys    "
          f"{ratio('core.topology.distinct_paths', 'core.topology.path_keys')}")
    print(f"  scenarios / scenarios_raw     "
          f"{ratio('core.topology.scenarios', 'core.topology.scenarios_raw')}")
    print(f"  store hit rate                {store_rate}")
    print(f"  coalesce rate                 {coalesce}")
    print(f"  traced / untraced op time     {layer['trace.run_overhead']:.4f}")


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no planner sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    from measure import PER_LAYER_UNITS, workdir
    from spans import SpanLog

    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    workload = _make(args.workload, args, pins)
    work = workdir(ROOT, args.workload)
    log = SpanLog()
    try:
        workload.setup(work)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            rec, layer = workload.trace(log)
        else:
            rec = workload.run()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = dict(PER_LAYER_UNITS)
        if args.workload == "service-mix":
            from wl_service import DAEMON_UNITS

            units.update(DAEMON_UNITS)
        metrics = {name: layer.get(name, 0) for name in units}
        log.write(ROOT / ".perfbench" / f"spans-{args.workload}.jsonl")
        _print_table(args.workload, log, metrics, units)
    else:
        setups = [setup_s]
        for _ in range(SETUPS - 1):
            try:
                setups.append(_child_setup_s(args))
            except (subprocess.SubprocessError, ValueError, KeyError) as exc:
                rec.fail("setup", f"repeat set-up failed: {exc}")
        metrics = _end_to_end(rec, setups)
        units = UNITS
        print(json.dumps({"counters": rec.counters}, sort_keys=True))
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for kind in ("cold", "warm", "patched"):
        ops = [op for op in rec.ops if op.kind == kind]
        print(f"{kind} s: " + " ".join(f"{op.seconds:.4f}" for op in ops), file=sys.stderr)
        print(f"{kind} ref s: " + " ".join(f"{op.ref_s:.4f}" for op in ops), file=sys.stderr)
    attempted = max(1, len(rec.ops))
    failed = min(attempted, sum(1 for op in rec.ops if not op.ok) + rec.run_failures)
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
