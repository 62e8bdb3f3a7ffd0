"""The paper's primary contribution: Iris network planning (§4, App. A-B)."""

from repro.core.plan import (
    AmplifierPlan,
    CutThroughLink,
    IrisPlan,
    TopologyPlan,
)
from repro.core.engine import (
    PlanTimings,
    SerialBackend,
    ProcessBackend,
    get_backend,
    resolve_jobs,
    worker_safe,
)
from repro.core.failures import all_failure_scenarios, Scenario
from repro.core.hose import (
    HoseCacheStats,
    clear_hose_cache,
    hose_cache_stats,
    hose_capacity,
    oriented_pairs_through_edge,
)
from repro.core.topology import plan_topology, compute_scenario_paths
from repro.core.amplifiers import place_amplifiers
from repro.core.cutthrough import place_cut_throughs
from repro.core.residual import residual_fiber_pairs

__all__ = [
    "AmplifierPlan",
    "CutThroughLink",
    "IrisPlan",
    "TopologyPlan",
    "PlanTimings",
    "SerialBackend",
    "ProcessBackend",
    "get_backend",
    "resolve_jobs",
    "worker_safe",
    "Scenario",
    "all_failure_scenarios",
    "HoseCacheStats",
    "clear_hose_cache",
    "hose_cache_stats",
    "hose_capacity",
    "oriented_pairs_through_edge",
    "plan_topology",
    "compute_scenario_paths",
    "place_amplifiers",
    "place_cut_throughs",
    "residual_fiber_pairs",
]
