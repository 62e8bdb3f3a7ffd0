"""Per-figure analyses of the paper's evaluation."""

from repro.analysis.latency import latency_inflation_ratios, cdf, fraction_at_least
from repro.analysis.flexibility import flexibility_gains
from repro.analysis.portcost import port_cost_table
from repro.analysis.designspace import (
    SweepPoint,
    SweepRecord,
    default_mini_sweep,
    full_paper_sweep,
)
from repro.analysis.toy import toy_example_summary
from repro.analysis.complexity import (
    eps_complexity,
    iris_complexity,
    port_reduction_factor,
)

__all__ = [
    "latency_inflation_ratios",
    "cdf",
    "fraction_at_least",
    "flexibility_gains",
    "port_cost_table",
    "SweepPoint",
    "SweepRecord",
    "default_mini_sweep",
    "full_paper_sweep",
    "toy_example_summary",
    "eps_complexity",
    "iris_complexity",
    "port_reduction_factor",
]
