"""Artifact store: cold-vs-warm sweep and checkpoint overhead.

The paper notes planning "still executes within a few minutes for even
large region sizes" (§4.3) — per region. A Fig 12 campaign multiplies
that by hundreds of cells, which is what :mod:`repro.store` amortizes:
a warm store turns a sweep into pure pricing. This bench measures the
cold-vs-warm wall-time ratio and the cold-side checkpoint overhead, and
asserts the store's contract — the warm pass hits for **every** cell and
reproduces the cold records exactly.

Run directly for a CI smoke pass that emits the store stats artifact::

    PYTHONPATH=src python benchmarks/bench_store_resume.py --smoke \\
        --stats-json store_stats.json
"""

import tempfile
import time
from pathlib import Path

from repro.analysis.designspace import SweepPoint
from repro.api import PlannerConfig, sweep
from repro.store import PlanStore

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A small grid with two distinct plan cells and a pricing-only repeat,
#: sized so both passes fit the CI smoke budget.
BENCH_POINTS = [
    SweepPoint(map_index=0, n_dcs=5, dc_fibers=8, wavelengths=40),
    SweepPoint(map_index=0, n_dcs=5, dc_fibers=8, wavelengths=64),
    SweepPoint(map_index=1, n_dcs=5, dc_fibers=8, wavelengths=40),
]


def _cold_warm(points, store_root):
    """Run the sweep cold then warm against one store; return the numbers."""
    store = PlanStore(store_root)
    t0 = time.perf_counter()
    cold = sweep(points, config=PlannerConfig(store=store))
    cold_s = time.perf_counter() - t0
    cells = store.puts

    t0 = time.perf_counter()
    warm = sweep(points, config=PlannerConfig(store=store))
    warm_s = time.perf_counter() - t0
    return store, cold, cold_s, cells, warm, warm_s


def test_warm_sweep_hits_every_cell(tmp_path, report):
    store, cold, cold_s, cells, warm, warm_s = _cold_warm(
        BENCH_POINTS, tmp_path
    )

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    report("store  cold-vs-warm sweep (3 points, 2 plan cells)")
    report(f"        cold (plan + put)     {cold_s:.2f} s   "
           f"{cells} cell(s) checkpointed")
    report(f"        warm (get + price)    {warm_s:.2f} s   "
           f"speedup {speedup:.1f}x")

    # The contract: every cell hits, nothing replans, records are equal.
    assert store.hits == cells
    assert store.misses == cells  # only the cold pass missed
    assert store.puts == cells
    assert warm == cold


def test_checkpoint_overhead_is_small(tmp_path, report):
    """Storing must not eat the planning budget it exists to save."""
    t0 = time.perf_counter()
    plain = sweep(BENCH_POINTS)
    plain_s = time.perf_counter() - t0

    store = PlanStore(tmp_path)
    t0 = time.perf_counter()
    stored = sweep(BENCH_POINTS, config=PlannerConfig(store=store))
    stored_s = time.perf_counter() - t0

    overhead = (stored_s - plain_s) / plain_s if plain_s > 0 else 0.0
    stats = store.stats()
    report("store  checkpoint overhead (cold sweep, store on vs off)")
    report(f"        no store              {plain_s:.2f} s")
    report(f"        cold store            {stored_s:.2f} s   "
           f"(+{overhead:.0%}, {stats.total_bytes / 1024:.0f} KiB written)")

    assert stored == plain
    # Serialization + fsync for a few cells must stay a small fraction of
    # planning time (generous bound: CI boxes have slow disks).
    assert stored_s < plain_s * 1.5 + 2.0


def _smoke(stats_json: str | None) -> int:
    """CI smoke: cold + warm sweep; warm must hit for every cell."""
    with tempfile.TemporaryDirectory() as tmp:
        store, cold, cold_s, cells, warm, warm_s = _cold_warm(
            BENCH_POINTS, tmp
        )
        stats = store.stats()

        print(f"cold sweep: {cold_s:.2f} s, {cells} cell(s) checkpointed, "
              f"{stats.total_bytes / 1024:.0f} KiB")
        print(f"warm sweep: {warm_s:.2f} s, {store.hits} hit(s), "
              f"{store.misses - cells} warm miss(es)")

        if stats_json:
            import json

            Path(stats_json).write_text(
                json.dumps(stats.to_dict(), indent=2, sort_keys=True)
            )
            print(f"store stats written to {stats_json}")

        if warm != cold:
            print("STORE PARITY FAILED: warm records differ from cold")
            return 1
        if store.hits != cells or store.misses != cells:
            print(f"STORE RESUME FAILED: {store.hits}/{cells} cells hit "
                  f"({store.misses - cells} unexpected miss(es))")
            return 1
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the quick cold/warm smoke pass and exit")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="also write the store stats JSON artifact")
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("this entry point only supports --smoke; "
                     "use pytest for the full benchmarks")
    sys.exit(_smoke(cli_args.stats_json))
