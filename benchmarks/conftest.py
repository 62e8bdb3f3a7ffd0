"""Shared benchmark fixtures and the paper-vs-measured report.

Benchmark functions emit report lines through the ``report`` fixture; the
collected lines are printed in the terminal summary (so they survive
pytest's output capture) and written to ``bench_report.txt`` at the repo
root for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_LINES: list[str] = []


@pytest.fixture
def report():
    """Emit one paper-vs-measured line into the end-of-run report."""

    def emit(line: str) -> None:
        _LINES.append(line)

    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.write_sep("=", "paper-vs-measured report")
    for line in _LINES:
        terminalreporter.write_line(line)
    try:
        Path(config.rootpath, "bench_report.txt").write_text(
            "\n".join(_LINES) + "\n"
        )
    except OSError:
        pass


@pytest.fixture(scope="session")
def mini_sweep_records():
    """The Fig 12 mini design-space sweep, planned once per session."""
    from repro.analysis.designspace import default_mini_sweep
    from repro.api import sweep

    return sweep(default_mini_sweep())


@pytest.fixture(scope="session")
def sample_plans():
    """A handful of full Iris plans reused by the appendix benches."""
    from repro import api
    from repro.region.catalog import make_region

    plans = []
    for map_index, n_dcs in ((0, 5), (1, 5), (2, 6), (3, 8)):
        instance = make_region(map_index=map_index, n_dcs=n_dcs, dc_fibers=8)
        plans.append(api.plan(instance.spec))
    return plans


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty data")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def fraction(values, predicate):
    values = list(values)
    return sum(1 for v in values if predicate(v)) / len(values)
