"""Record the digests the benchmark checks its inputs and outputs against.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record_pins.py [--only plan-enum ...]

Every output digest is computed here by a cold plan or a cold lint pass,
never by the cached or patched path the benchmark then times, so a
patched or cached result is checked against an independent computation.
Rewrites ``perfbench/pins.json`` (only the named workloads with ``--only``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Bypass ducts recorded per plan workload; every round patches each.
BYPASS_CANDIDATES = 2
#: Bypass length as a multiple of the worst-case alternative route, so
#: every strict bypass check passes and the realization is reused.
BYPASS_FACTOR = 1.05


def bypass_ducts(plan):
    """Node pairs without a duct, with a length no scenario's shortest
    path can prefer over the existing route."""
    import networkx as nx

    fmap = plan.region.fiber_map
    graphs = [fmap.subgraph_without(s) for s in plan.topology.scenario_paths]
    existing = set(fmap.ducts)
    nodes = sorted(fmap.nodes)
    for u in nodes:
        for v in nodes:
            if v <= u or (u, v) in existing or (v, u) in existing:
                continue
            worst = 0.0
            for graph in graphs:
                try:
                    dist = nx.dijkstra_path_length(graph, u, v, weight="length_km")
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    worst = None
                    break
                worst = max(worst, dist)
            if worst:
                yield (u, v), BYPASS_FACTOR * worst


def provable_bypasses(plan, limit: int):
    """Bypass ducts that ``apply_delta`` takes in "add" mode (a duct
    short enough to survive pruning, so every scenario is checked) and
    for which it reuses the whole realization."""
    from repro.region.delta import RegionDelta
    from repro.service.replan import DeltaStats, apply_delta

    for duct, length in bypass_ducts(plan):
        stats = DeltaStats()
        apply_delta(plan, RegionDelta.duct_added(*duct, length_km=length), stats=stats)
        if stats.mode == "add" and stats.realization == "reused":
            yield duct, length
            limit -= 1
            if limit == 0:
                return


def record_planner(name: str) -> dict:
    from repro import api
    from repro.core.hose import clear_hose_cache
    from repro.region.catalog import make_region
    from repro.region.delta import RegionDelta

    from measure import plan_digest
    from wl_planner import SPECS, region_sha

    region = make_region(**SPECS[name]["region"]).spec
    clear_hose_cache()
    plan = api.plan(region)
    out = {"region_sha": region_sha(region), "plan_sha": plan_digest(plan), "bypass": []}
    for duct, length in list(provable_bypasses(plan, BYPASS_CANDIDATES)):
        add = RegionDelta.duct_added(*duct, length_km=length)
        clear_hose_cache()
        cold_added = api.plan(add.apply_to_region(region))
        out["bypass"].append(
            {"duct": list(duct), "length_km": length, "plan_sha": plan_digest(cold_added)}
        )
    return out


def record_service() -> dict:
    from repro import api
    from repro.core.hose import clear_hose_cache
    from repro.exceptions import ReproError
    from repro.region.catalog import make_region
    from repro.region.delta import RegionDelta

    from measure import plan_text, sha256_text
    from wl_planner import region_sha
    from wl_service import DC_FIBERS, REGIONS

    content: dict[str, str] = {}

    def result_sha(region, label: str) -> str:
        clear_hose_cache()
        text = plan_text(api.plan(region))
        encoded = json.loads(text)
        del encoded["timings"]
        content[label] = sha256_text(json.dumps(encoded, sort_keys=True))
        return sha256_text(text)

    def first_feasible(region, deltas, label: str):
        for delta in deltas:
            try:
                return delta, result_sha(delta.apply_to_region(region), label)
            except ReproError:
                continue
        raise SystemExit("no feasible delta of this kind")

    regions, results = [], {}
    for i, (map_index, n_dcs) in enumerate(REGIONS):
        region = make_region(map_index=map_index, n_dcs=n_dcs, dc_fibers=DC_FIBERS).spec
        clear_hose_cache()
        plan = api.plan(region)
        results[f"{i}:base"] = result_sha(region, f"{i}:base")
        duct, length = next(provable_bypasses(plan, 1))
        add = RegionDelta.duct_added(*duct, length_km=length)
        results[f"{i}:add"] = result_sha(add.apply_to_region(region), f"{i}:add")
        # Cut a duct the plan uses, so the cut reroutes traffic.
        cut, results[f"{i}:cut"] = first_feasible(
            region, (RegionDelta.duct_cut(*d) for d in plan.topology.used_ducts),
            f"{i}:cut",
        )
        resize, results[f"{i}:resize"] = first_feasible(
            region,
            (RegionDelta.dc_resized(dc, DC_FIBERS + 4) for dc in sorted(region.dc_fibers)),
            f"{i}:resize",
        )
        regions.append({
            "region_sha": region_sha(region),
            "add": {"duct": list(duct), "length_km": length},
            "cut": list(cut.duct),
            "resize": [resize.dc, resize.fibers],
        })
    return {"regions": regions, "results": results, "content": content}


#: Files whose first function body the lint-corpus rounds edit: one
#: planner file and one lint file, each with a wide dependency cone.
LINT_EDITS = ("src/repro/core/hose.py", "src/repro/lint/flow.py")


def record_lint() -> dict:
    import os
    import tarfile
    import tempfile

    from repro.lint import lint_paths

    from wl_lint import CORPUS, LINT_ROOTS, corpus_sha, edited, findings_sha

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        with tarfile.open(CORPUS, "r:gz") as tar:
            tar.extractall(corpus, filter="data")
        os.chdir(corpus)
        try:
            out = {
                "corpus_sha": corpus_sha(corpus),
                "findings_sha": findings_sha(lint_paths(LINT_ROOTS)),
                "edits": [],
            }
            for path in LINT_EDITS:
                source = (corpus / path).read_text(encoding="utf-8")
                (corpus / path).write_text(edited(source), encoding="utf-8")
                out["edits"].append(
                    {"file": path, "findings_sha": findings_sha(lint_paths(LINT_ROOTS))}
                )
                (corpus / path).write_text(source, encoding="utf-8")
        finally:
            os.chdir(home)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", default=None)
    args = parser.parse_args()
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    recorders = {
        "plan-enum": lambda: record_planner("plan-enum"),
        "plan-cut": lambda: record_planner("plan-cut"),
        "service-mix": record_service,
        "lint-corpus": record_lint,
    }
    for name, record in recorders.items():
        if args.only is None or name in args.only:
            print(f"recording {name}", file=sys.stderr)
            pins[name] = record()
            path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
