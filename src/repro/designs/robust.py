"""METTEOR-style multi-traffic-matrix robust design.

*METTEOR: Robust Multi-Traffic Topology Engineering* argues that instead of
re-optimizing the reconfigurable topology for each traffic matrix (and
paying reconfiguration churn), one should plan a single topology that is
simultaneously feasible for an *ensemble* of representative TMs. This
module is that planning mode for the Iris regional planner:

* sample an ensemble of heavy-tailed DC-DC matrices
  (:class:`TrafficEnsembleSpec`, seeded and reproducible);
* run Algorithm 1's prune + failure-scenario enumeration unchanged;
* size each duct, per scenario, at the **maximum over ensemble members**
  of the traffic it must carry — clamped to the hose envelope, which the
  incremental hose solver (:func:`repro.core.hose.hose_capacity`) prices
  per (duct, scenario) exactly as the iris design does. Each sampled TM
  respects the hose (per-DC shares scale to the DC's fiber count), so the
  robust capacity of every duct is ≤ the iris hose capacity: the ensemble
  buys a cheaper topology, never a larger one.
* complete amplifiers / cut-throughs / residual fibers / validation with
  the stock :func:`repro.core.planner.realize`.

Determinism: ensemble sampling uses one explicit ``random.Random``; duct
loads are computed in sorted (duct, pair) order inside each chunk and
merged by per-duct maximum, so ``jobs=1`` and ``jobs=N`` plans are
byte-identical (``plan_to_json`` equality, parity-tested). With a
``config.store``, plans are cached under a key that includes the **ensemble
digest** — two different ensembles never collide, identical specs hit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.api import PlannerConfig
from repro.core.engine import PlanTimings, get_backend, worker_safe
from repro.core.hose import (
    hose_cache_stats,
    hose_capacity,
    oriented_pairs_through_edge,
)
from repro.core.plan import IrisPlan, Pair, TopologyPlan
from repro.core.topology import (
    _used_ducts,
    enumerate_scenario_paths,
    prune_overlong_ducts,
)
from repro.cost.estimator import Inventory
from repro.designs.base import register_design
from repro.exceptions import SimulationError
from repro.region.fibermap import Duct, RegionSpec
from repro.simulation.traffic import TrafficMatrix, sample_ensemble
from repro.units import IRIS_MAX_DUCT_KM


@dataclass(frozen=True)
class TrafficEnsembleSpec:
    """A reproducible recipe for a robust-planning TM ensemble.

    The spec (not the sampled matrices) is what travels through configs
    and CLI flags; :meth:`build` materializes it for a region's DCs with
    an explicit seeded RNG, so equal specs over equal DC sets yield equal
    ensembles everywhere.
    """

    count: int = 5
    seed: int = 2020
    skew: float = 1.4
    max_change: float | None = 0.5

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimulationError("ensemble needs at least one matrix")
        if self.skew <= 0:
            raise SimulationError("skew must be positive")
        if self.max_change is not None and self.max_change < 0:
            raise SimulationError("max_change must be non-negative")

    def build(self, dcs: Sequence[str]) -> list[TrafficMatrix]:
        """Sample the ensemble for ``dcs`` (deterministic in the spec)."""
        rng = random.Random(self.seed * 999_983 + 7)
        return sample_ensemble(
            dcs,
            rng,
            count=self.count,
            skew=self.skew,
            max_change=self.max_change,
        )


def ensemble_digest(ensemble: Sequence[TrafficMatrix]) -> str:
    """Content digest of a TM ensemble (for :func:`repro.store.plan_key`).

    Encodes every matrix's full weight table in canonical pair order, so
    any change to any weight of any member changes the robust plan's
    cache key.
    """
    from repro.store.canonical import digest

    return digest(
        [
            {f"{a}|{b}": tm.weights[(a, b)] for a, b in tm.pairs()}
            for tm in ensemble
        ]
    )


def pair_demand_fibers(
    tm: TrafficMatrix, dc_fibers: Mapping[str, int]
) -> dict[Pair, float]:
    """One TM's per-pair demand, in (fractional) fibers.

    The matrix gives traffic *shares*; the absolute operating point scales
    every share by the largest factor at which no DC's total (in + out)
    traffic exceeds its fiber count — i.e. the TM is run as hot as the
    hose allows. At that scale each pair's demand is its weight times the
    scale factor, and every DC's incident demand sum is ≤ its capacity,
    so per-duct robust loads can never exceed the hose envelope.
    """
    scale = math.inf
    for dc, fibers in dc_fibers.items():
        share = tm.dc_load_share(dc)
        if share > 0:
            scale = min(scale, fibers / share)
    if not math.isfinite(scale):
        raise SimulationError("traffic matrix touches no known DC")
    return {pair: w * scale for pair, w in tm.weights.items()}


@worker_safe
def _robust_capacity_chunk(
    shared: tuple[Mapping[str, int], tuple[Mapping[Pair, float], ...]],
    path_sets: list[Mapping[Pair, tuple[str, ...]]],
) -> tuple[dict[Duct, int], int, int, int, int, int, int]:
    """Worker: per-duct robust maxima over one chunk of scenario path sets.

    For each (scenario, used duct): the duct's load under one TM is the
    sum of demands of pairs routed across it; the robust need is the
    ensemble maximum of that load, rounded up to whole fibers and clamped
    to the hose envelope (the hose is the worst case over *all* feasible
    TMs, so no sampled TM can legitimately exceed it — the clamp defends
    against float slop only). Sorted iteration everywhere keeps the sum
    order — hence the float result — identical in any chunking, so the
    per-duct max merge reproduces serial plans exactly.

    Returns (duct -> fibers, cache hits, misses, cold solves, incremental
    solves, duct evaluations, hose clamps applied).
    """
    dc_fibers, demands_per_tm = shared
    before = hose_cache_stats()
    edge_capacity: dict[Duct, int] = {}
    duct_evals = 0
    clamped = 0
    for paths in path_sets:
        for edge in sorted(_used_ducts(paths)):
            oriented = tuple(sorted(oriented_pairs_through_edge(edge, paths)))
            crossing = sorted({tuple(sorted(p)) for p in oriented})
            hose = hose_capacity(oriented, dc_fibers)
            load = 0.0
            for demands in demands_per_tm:
                tm_load = 0.0
                for pair in crossing:
                    tm_load += demands.get(pair, 0.0)
                load = max(load, tm_load)
            need = max(1, math.ceil(load - 1e-9))
            duct_evals += 1
            if need > hose:
                need = hose
                clamped += 1
            if need > edge_capacity.get(edge, 0):
                edge_capacity[edge] = need
    after = hose_cache_stats()
    return (
        edge_capacity,
        after.hits - before.hits,
        after.misses - before.misses,
        after.cold_solves - before.cold_solves,
        after.incremental_solves - before.incremental_solves,
        duct_evals,
        clamped,
    )


def robust_topology(
    region: RegionSpec,
    ensemble: Sequence[TrafficMatrix],
    *,
    prune_enumeration: bool = True,
    jobs: int | None = 1,
    backend: str | None = None,
) -> TopologyPlan:
    """Algorithm 1 with ensemble-robust capacity sizing.

    Identical to :func:`repro.core.topology.plan_topology` through the
    prune and enumeration phases; the capacity phase sizes each duct at
    the ensemble-max traffic load instead of the full hose max-flow (see
    :func:`_robust_capacity_chunk`). Bit-identical across ``jobs``.
    """
    if not ensemble:
        raise SimulationError("robust planning needs a non-empty ensemble")
    tracer = obs.current()
    if tracer is None:
        tracer = obs.Tracer("plan")
    constraints = region.constraints

    demands_per_tm = tuple(
        pair_demand_fibers(tm, region.dc_fibers) for tm in ensemble
    )

    with tracer.span("plan.topology") as top:
        with tracer.span("plan.prune") as span:
            usable_km = min(constraints.max_span_km, IRIS_MAX_DUCT_KM)
            fmap = prune_overlong_ducts(region.fiber_map, usable_km)
            span.incr("prune.ducts_dropped",
                      len(region.fiber_map.ducts) - len(fmap.ducts))

        with get_backend(jobs, backend) as engine_backend:
            with tracer.span("plan.enumerate"):
                scenario_paths, total_raw = enumerate_scenario_paths(
                    fmap,
                    constraints.failure_tolerance,
                    sla_fiber_km=constraints.sla_fiber_km,
                    prune=prune_enumeration,
                    backend=engine_backend,
                )

            with tracer.span("plan.capacity"):
                edge_capacity: dict[Duct, int] = {}
                hits = misses = cold = incremental = 0
                duct_evals = clamps = 0
                path_sets = list(scenario_paths.values())
                chunks = (
                    engine_backend.plan_chunks(path_sets) if path_sets else []
                )
                for (
                    chunk_caps,
                    chunk_hits,
                    chunk_misses,
                    chunk_cold,
                    chunk_incremental,
                    chunk_evals,
                    chunk_clamps,
                ) in engine_backend.run_chunks(
                    _robust_capacity_chunk,
                    (region.dc_fibers, demands_per_tm),
                    chunks,
                ):
                    hits += chunk_hits
                    misses += chunk_misses
                    cold += chunk_cold
                    incremental += chunk_incremental
                    duct_evals += chunk_evals
                    clamps += chunk_clamps
                    for edge, needed in chunk_caps.items():
                        if needed > edge_capacity.get(edge, 0):
                            edge_capacity[edge] = needed

        top.incr("scenarios.evaluated", len(scenario_paths))
        top.incr("hose.cache_hits", hits)
        top.incr("hose.cache_misses", misses)
        top.incr("hose.cold_solves", cold)
        top.incr("hose.incremental_solves", incremental)
        top.incr("robust.tms", len(ensemble))
        top.incr("robust.duct_evals", duct_evals)
        top.incr("robust.clamped", clamps)

    timings = PlanTimings.from_record(
        top.record, backend=engine_backend.name, jobs=engine_backend.jobs
    )
    return TopologyPlan(
        edge_capacity=edge_capacity,
        scenario_paths=scenario_paths,
        scenario_count_total=total_raw,
        timings=timings,
        trace=top.record,
    )


def plan_robust(
    region: RegionSpec,
    *,
    config: PlannerConfig | None = None,
    ensemble: Sequence[TrafficMatrix] | None = None,
) -> IrisPlan:
    """Plan ``region`` robustly against a TM ensemble, end to end.

    Pass either a pre-sampled ``ensemble`` or a ``config.traffic`` spec to
    sample one (default: :class:`TrafficEnsembleSpec`'s five matrices).
    Returns a full :class:`~repro.core.plan.IrisPlan` — same shape as the
    iris design, so serialization, inventories, and cost estimation work
    unchanged.

    With a ``config.store``, the plan is cached under
    ``plan_key(design="robust", ...)`` whose config embeds the ensemble
    digest: replanning the same region with the same ensemble is a load,
    any change to any TM weight is a miss.
    """
    from repro.core.planner import realize, store_key

    config = config or PlannerConfig()
    if ensemble is None:
        spec = config.traffic if config.traffic is not None else TrafficEnsembleSpec()
        ensemble = spec.build(region.dcs)
    ensemble = list(ensemble)

    def compute() -> IrisPlan:
        topology = robust_topology(
            region,
            ensemble,
            prune_enumeration=config.prune_enumeration,
            jobs=config.jobs,
            backend=config.backend,
        )
        return realize(region, topology, config)

    if config.store is None:
        return compute()

    from repro.store import cached

    key = store_key(
        region,
        config,
        design="robust",
        tm_count=len(ensemble),
        tm_ensemble=ensemble_digest(ensemble),
    )
    return cached(config.store, key, compute)


@register_design("robust")
@dataclass(frozen=True)
class RobustDesign:
    """The multi-TM robust design, registered as ``"robust"``.

    ``config.traffic`` configures the ensemble recipe; the other fields
    mirror the other planner-backed designs.
    """

    config: PlannerConfig = PlannerConfig()

    name = "robust"

    def plan(self, region: RegionSpec) -> Inventory:
        return plan_robust(region, config=self.config).inventory()
