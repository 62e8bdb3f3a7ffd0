"""lint-corpus: reprolint over a frozen copy of the repository's sources.

``corpus.tar.gz`` holds the ``src/``, ``tests/`` and ``benchmarks/``
Python files (173) as they were when the benchmark was defined, so a
later change to the live tree reads as an input change, never as a lint
speed change. Each round is: a cold ``lint_paths`` on an empty
``PlanStore`` (its puts included), ``warm`` passes where every file is a
cache hit, then, for each recorded edit, a pass after one function body
in one file changes. The seed orders the edits; every seed makes all of
them, so every seed does the same work.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tarfile
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from measure import Recorder, expect, rounds_for, sha256_text
from spans import SpanLog

CORPUS = Path(__file__).resolve().parent / "corpus.tar.gz"
LINT_ROOTS = ["src", "tests", "benchmarks"]
WARM = 5
ROUND_S = 12.5


def corpus_sha(root: Path) -> str:
    lines = sorted(
        f"{path.relative_to(root).as_posix()}\0"
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in root.rglob("*.py")
    )
    return sha256_text("\n".join(lines))


def findings_sha(findings: list[Any]) -> str:
    return sha256_text(json.dumps(
        [[f.path, f.line, f.col, f.rule_id, f.message] for f in sorted(findings)]
    ))


def edited(source: str) -> str:
    """``source`` with a ``pass`` appended to its first function's body."""
    func = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    last = func.body[-1]
    lines = source.splitlines(keepends=True)
    lines.insert(last.end_lineno, " " * last.col_offset + "pass\n")
    return "".join(lines)


class LintWorkload:
    def __init__(self, seed: int, seconds: float, pins: dict, root: Path):
        self.seed = seed
        self.seconds = seconds
        self.pins = pins["lint-corpus"]
        self.root = root
        self.home = os.getcwd()
        self.setup_failures: list[str] = []

    def setup(self, workdir: Path) -> None:
        from repro.lint import lint_paths  # noqa: F401  (import cost is set-up)
        from repro.store import PlanStore  # noqa: F401

        self.workdir = workdir
        self.corpus = workdir / "corpus"
        with tarfile.open(CORPUS, "r:gz") as tar:
            tar.extractall(self.corpus, filter="data")
        if corpus_sha(self.corpus) != self.pins["corpus_sha"]:
            self.setup_failures.append("input: lint corpus differs from its digest")
        pinned = self.pins["edits"]
        first = self.seed % len(pinned)
        self.edits = [
            (e["file"], (self.corpus / e["file"]).read_text(encoding="utf-8"),
             e["findings_sha"])
            for e in pinned[first:] + pinned[:first]
        ]
        os.chdir(self.corpus)

    def _round(self, rec: Recorder, index: int, log: SpanLog | None = None) -> dict:
        from repro.lint import lint_paths
        from repro.store import PlanStore

        def span(name: str):
            return lambda: log.span(name) if log is not None else nullcontext()

        def findings_are(wanted: str):
            def check(findings: list[Any]) -> None:
                expect(findings_sha(findings), wanted, "findings digest")

            return check

        def timed(kind: str, wanted: str, label: str) -> None:
            before = (store.hits, store.misses, store.puts)
            rec.timed(kind, lambda: lint_paths(LINT_ROOTS, store=store),
                      findings_are(wanted), span(f"op.{kind}"))
            counters.setdefault(label, []).append([
                now - then for now, then in zip((store.hits, store.misses, store.puts), before)
            ])

        store = PlanStore(self.workdir / f"store-{index}-{log is not None}")
        counters: dict[str, list[list[int]]] = {}
        timed("cold", self.pins["findings_sha"], "cold")
        for _ in range(WARM):
            timed("warm", self.pins["findings_sha"], "warm")
        for path, source, wanted in self.edits:
            target = self.corpus / path
            target.write_text(edited(source), encoding="utf-8")
            try:
                timed("patched", wanted, f"patched {path}")
            finally:
                target.write_text(source, encoding="utf-8")
        self.store = store
        return {"store hits, misses, puts": counters}

    def run(self) -> Recorder:
        rec = Recorder()
        for failure in self.setup_failures:
            rec.fail("setup", failure)
        for index in range(rounds_for(self.seconds, ROUND_S)):
            counters = self._round(rec, index)
            if index == 0:
                rec.counters = counters
            elif counters != rec.counters:
                rec.fail("determinism", f"round {index} counters {counters} "
                         f"differ from round 0 {rec.counters}")
        return rec

    def trace(self, log: SpanLog) -> tuple[Recorder, dict[str, float]]:
        import repro.lint.project as project
        from repro.store import PlanStore

        untraced = Recorder()
        self._round(untraced, 0)
        for owner, attr, name in (
            (ast, "parse", "lint.parse"),
            (project, "analyze_syntax", "lint.syntax"),
            (project, "analyze_flow", "lint.flow"),
            (project, "extract_summaries", "lint.summaries"),
            (project, "propagate_effects", "lint.summaries"),
            (project, "extract_concurrency", "lint.concurrency"),
            (project, "build_concurrency", "lint.concurrency"),
            (project, "lint_project", "lint.project"),
            (PlanStore, "get", "store.get"),
            (PlanStore, "put", "store.put"),
        ):
            log.wrap(owner, attr, name)
        traced = Recorder()
        traced.failures.extend(untraced.failures)
        traced.run_failures = untraced.run_failures
        try:
            self._round(traced, 1, log)
        finally:
            log.restore()
        store = self.store
        metrics = {
            "lint.parse_s": log.busy("lint.parse"),
            "lint.syntax_s": log.busy("lint.syntax"),
            "lint.flow_s": log.busy("lint.flow"),
            "lint.summaries_s": log.busy("lint.summaries"),
            "lint.concurrency_s": log.busy("lint.concurrency"),
            "lint.project_s": log.busy("lint.project"),
            "lint.cache_hits": store.hits,
            "lint.cache_misses": store.misses,
            "store.get_s": log.busy("store.get"),
            "store.put_s": log.busy("store.put"),
            "store.hits": store.hits,
            "store.misses": store.misses,
            "store.blob_bytes": store.stats().total_bytes,
            "trace.run_overhead": sum(op.seconds for op in traced.ops)
            / sum(op.seconds for op in untraced.ops),
        }
        return traced, metrics

    def close(self) -> None:
        os.chdir(self.home)

