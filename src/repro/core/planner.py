"""The end-to-end Iris planner: Algorithm 1 + Algorithm 2 + cut-throughs +
residual fibers, assembled into a validated :class:`~repro.core.plan.IrisPlan`.

Two functions carry the pipeline: :func:`plan_iris` runs Algorithm 1 over
every tolerated duct-cut scenario and hands the topology to
:func:`realize`, which places amplifiers and cut-throughs, sizes residual
fibers and validates. The public entry point is :func:`repro.api.plan`::

    from repro.api import PlannerConfig, plan
    result = plan(region, config=PlannerConfig(jobs=4))
    inventory = result.inventory()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.amplifiers import place_amplifiers
from repro.core.cutthrough import place_cut_throughs
from repro.core.plan import IrisPlan, TopologyPlan
from repro.core.residual import residual_fiber_pairs
from repro.core.engine import CancelToken
from repro.core.topology import plan_topology
from repro.exceptions import PlanningError
from repro.region.fibermap import RegionSpec

if TYPE_CHECKING:
    from repro.api import PlannerConfig


def store_key(
    region: RegionSpec, config: "PlannerConfig", *, design: str = "iris", **extra: Any
) -> str:
    """The store key of ``design``'s plan of ``region`` under ``config``.

    Only the options that change plan content enter the key
    (``prune_enumeration``, ``validate``, plus a design's ``extra``
    inputs); ``jobs``/``backend``/``store`` are execution details. The
    CLI ``--store``, the planner service and :func:`plan_iris` share this
    key, so a plan any of them writes is a hit for the others.
    """
    from repro.store import plan_key

    return plan_key(
        design=design,
        region=region,
        config={
            "prune_enumeration": config.prune_enumeration,
            "validate": config.validate,
            **extra,
        },
    )


def plan_iris(
    region: RegionSpec,
    config: "PlannerConfig",
    *,
    cancel_token: CancelToken | None = None,
) -> IrisPlan:
    """Plan ``region`` end to end under ``config``.

    With ``config.store``, a stored plan is loaded instead of replanned —
    bit-identical to a fresh one (``plan_to_json`` equality,
    parity-tested) — and a fresh plan is checkpointed for next time.
    ``cancel_token`` is checked at chunk boundaries of Algorithm 1's
    fan-out, so the planner service can cancel or time out a job
    mid-plan (it unwinds with :class:`~repro.exceptions.JobCancelled`).
    """

    def compute() -> IrisPlan:
        topology = plan_topology(
            region,
            prune_enumeration=config.prune_enumeration,
            jobs=config.jobs,
            backend=config.backend,
            cancel_token=cancel_token,
        )
        return realize(region, topology, config)

    if config.store is None:
        return compute()
    from repro.store import cached

    return cached(config.store, store_key(region, config), compute)


def realize(
    region: RegionSpec, topology: TopologyPlan, config: "PlannerConfig"
) -> IrisPlan:
    """Complete the optical realization of a planned topology.

    Amplifiers (Algorithm 2), then cut-throughs, then residual fibers;
    with ``config.validate``, every scenario path is checked against
    TC1-TC4/OC1 and any violation raises :class:`PlanningError`.
    """
    with obs.span("plan.amplifiers") as span:
        distance_amps, effective = place_amplifiers(region, topology)
        span.incr("amplifiers.distance_sites", len(distance_amps.site_counts))
    with obs.span("plan.cutthrough") as span:
        cut_throughs, effective, amplifiers = place_cut_throughs(
            region,
            effective,
            site_counts=distance_amps.site_counts,
            assignments=distance_amps.assignments,
        )
        span.incr("cutthrough.links", len(cut_throughs))
        span.incr("amplifiers.sites", len(amplifiers.site_counts))
    with obs.span("plan.residual") as span:
        residual = residual_fiber_pairs(region, topology)
        span.incr("residual.fiber_pairs", sum(residual.values()))
    plan = IrisPlan(
        region=region,
        topology=topology,
        amplifiers=amplifiers,
        cut_throughs=cut_throughs,
        residual=residual,
        effective_paths=effective,
    )
    if config.validate:
        with obs.span("plan.validate") as span:
            problems = plan.validate()
            span.incr("validate.paths", len(plan.effective_paths))
            span.incr("validate.violations", len(problems))
        if problems:
            raise PlanningError(
                "planned network violates constraints: "
                + " | ".join(problems[:5])
                + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
            )
    return plan
