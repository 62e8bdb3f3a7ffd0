"""Quickstart: plan an Iris regional DCI and compare its cost with EPS.

Builds a synthetic Azure-like region (5 DCs, 2-cut failure tolerance), runs
the full planning pipeline of §4 — Algorithm 1 topology & capacity, Algorithm
2 amplifier placement, cut-through links, residual fibers — and prices the
resulting network against the electrical packet-switched baseline.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.api import PlannerConfig
from repro.cost import estimate_cost
from repro.designs import eps_inventory, hybridize
from repro.region import make_region


def main() -> None:
    print("=== building a synthetic region (5 DCs x 128 Tbps) ===")
    instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
    region = instance.spec
    fmap = region.fiber_map
    print(f"fiber map: {len(fmap.huts)} huts, {len(fmap.ducts)} ducts")
    for dc in region.dcs:
        print(f"  {dc}: {region.capacity_gbps(dc) / 1000:.0f} Tbps "
              f"({region.fibers(dc)} fibers x {region.wavelengths_per_fiber} waves)")

    print("\n=== planning (OC1-OC4: 120 km SLA, shortest paths, 2-cut tolerant) ===")
    # One entry point; PlannerConfig holds every execution option
    # (jobs, backend, store, ...). Plans are byte-identical across jobs.
    plan = api.plan(region, config=PlannerConfig(jobs=1))
    topo = plan.topology
    print(f"failure scenarios: {len(topo.scenario_paths)} enumerated "
          f"(pruned from {topo.scenario_count_total})")
    print(f"base capacity: {topo.total_fiber_pairs()} fiber-pairs "
          f"over {len(topo.used_ducts)} ducts")
    print(f"residual fiber (fractional demands): "
          f"{plan.residual_fiber_pairs()} pair-spans")
    print(f"in-line amplifiers: {plan.amplifiers.total_amplifiers} "
          f"at {sorted(plan.amplifiers.site_counts)}")
    print(f"cut-through links: {len(plan.cut_throughs)}")
    print(f"constraint violations: {len(plan.validate())}")

    print("\n=== cost comparison (the paper's headline) ===")
    iris = estimate_cost(plan.inventory())
    eps = estimate_cost(eps_inventory(region, topo))
    hybrid = estimate_cost(hybridize(plan).inventory())
    width = max(len(f"{eps.total:,.0f}"), 12)
    for name, cost in (("Iris", iris), ("Hybrid", hybrid), ("EPS", eps)):
        print(f"  {name:<8}${cost.total:>{width},.0f}/yr   "
              f"(transceivers ${cost.transceivers:,.0f}, fiber ${cost.fiber:,.0f})")
    print(f"\n  EPS / Iris = {eps.total / iris.total:.1f}x  "
          f"(paper: >=5x for 80% of scenarios, Fig 12a)")
    print(f"  in-network ports: EPS {eps.inventory.in_network_ports:,} "
          f"vs Iris {iris.inventory.in_network_ports:,}")


if __name__ == "__main__":
    main()
