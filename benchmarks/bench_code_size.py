"""Code size: source lines per package, planner knobs, planning entry points.

"Same bytes from less code" needs a number that goes down. This bench
counts, for the checkout it lives in:

* ``src_lines``: per top-level package of ``src/repro`` (modules directly
  under ``src/repro`` count as ``repro``), the physical lines that hold
  code or docstrings. Blank lines and comment-only lines are excluded,
  so deleting comments does not shrink the count.
* ``src_statements``: the same split in logical lines (one per Python
  statement), which re-wrapping code cannot change.
* ``planner_config_fields`` / ``service_config_fields``: the option count
  of :class:`repro.api.PlannerConfig` and
  :class:`repro.service.ServiceConfig`.
* ``planning_entry_points``: the distinct callables in the public
  surface (the ``__all__`` of :data:`PUBLIC_MODULES`) that plan a whole
  region or sweep: defined in one of :data:`PIPELINE_MODULES`, with a
  first parameter named ``region`` or ``points``.

Rows append to the committed ``BENCH_planner.json`` trajectory tagged
``kind: code``. The row is a record, not a gate::

    PYTHONPATH=src python benchmarks/bench_code_size.py --json BENCH_planner.json
"""

import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: ``BENCH_planner.json`` row layout version (shared trajectory file;
#: this bench tags its rows with ``"kind": "code"``).
BENCH_SCHEMA_VERSION = 1

#: The modules whose ``__all__`` is the package's public surface.
PUBLIC_MODULES = ("repro", "repro.api", "repro.core", "repro.analysis", "repro.obs")

#: The modules that assemble the whole planning pipeline (as opposed to
#: one phase of it, like ``plan_topology``).
PIPELINE_MODULES = (
    "repro.api",
    "repro.core.planner",
    "repro.analysis.designspace",
    "repro.obs.profile",
)

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _count(source: str) -> tuple[int, int]:
    """(code-or-docstring physical lines, statements) of one module."""
    lines: set[int] = set()
    statements = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE:
            statements += 1
        elif token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines), statements


def _package(path: Path) -> str:
    parts = path.relative_to(SRC_ROOT).parts
    return parts[0] if len(parts) > 1 else "repro"


def planning_entry_points() -> list[str]:
    """The defining-module names of the distinct whole-pipeline planning
    callables in the public surface."""
    found: dict[int, str] = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            target = getattr(module, name)
            if getattr(target, "__module__", None) not in PIPELINE_MODULES:
                continue
            try:
                params = list(inspect.signature(target).parameters)
            except (TypeError, ValueError):
                continue
            if params[:1] in (["region"], ["points"]):
                found[id(target)] = f"{target.__module__}.{target.__qualname__}"
    return sorted(found.values())


def measure() -> dict:
    """The code-size numbers of this checkout."""
    lines: dict[str, int] = {}
    statements: dict[str, int] = {}
    sha = hashlib.sha256()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        source = path.read_text()
        sha.update(str(path.relative_to(SRC_ROOT)).encode() + b"\0" + source.encode())
        n_lines, n_statements = _count(source)
        package = _package(path)
        lines[package] = lines.get(package, 0) + n_lines
        statements[package] = statements.get(package, 0) + n_statements

    from repro.api import PlannerConfig
    from repro.service import ServiceConfig

    entry_points = planning_entry_points()
    return {
        "src_sha": sha.hexdigest(),
        "src_lines": dict(sorted(lines.items())),
        "src_lines_total": sum(lines.values()),
        "src_statements": dict(sorted(statements.items())),
        "src_statements_total": sum(statements.values()),
        "planner_config_fields": len(dataclasses.fields(PlannerConfig)),
        "service_config_fields": len(dataclasses.fields(ServiceConfig)),
        "planning_entry_points": len(entry_points),
        "entry_points": entry_points,
    }


def _report_lines(measured: dict) -> list[str]:
    out = ["code   src size per package (code lines / statements)"]
    for package, count in measured["src_lines"].items():
        out.append(f"        {package:<12}{count:>7} {measured['src_statements'][package]:>7}")
    out.append(f"        {'total':<12}{measured['src_lines_total']:>7} "
               f"{measured['src_statements_total']:>7}")
    out.append(f"        PlannerConfig fields {measured['planner_config_fields']}, "
               f"ServiceConfig fields {measured['service_config_fields']}")
    out.append(f"        planning entry points {measured['planning_entry_points']}: "
               + ", ".join(measured["entry_points"]))
    return out


def test_code_size(report):
    measured = measure()
    for line in _report_lines(measured):
        report(line)
    assert measured["src_lines_total"] > 0
    assert "repro.api.plan" in measured["entry_points"]


def _bench_json(path: str, measured: dict) -> None:
    """Append one ``kind: code`` row to the shared trajectory file."""
    from repro import __version__

    row = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "code",
        "version": __version__,
        **measured,
    }
    target = Path(path)
    if target.exists():
        payload = json.loads(target.read_text())
        if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
            raise SystemExit(
                f"{path} has schema_version {payload.get('schema_version')!r}, "
                f"expected {BENCH_SCHEMA_VERSION}"
            )
    else:
        payload = {"schema_version": BENCH_SCHEMA_VERSION, "rows": []}
    payload["rows"].append(row)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"code row appended to {path} ({len(payload['rows'])} row(s))")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="append a code-size row to the shared "
                             "BENCH_planner.json file")
    cli_args = parser.parse_args()
    measured = measure()
    for line in _report_lines(measured):
        print(line)
    if cli_args.json:
        _bench_json(cli_args.json, measured)
