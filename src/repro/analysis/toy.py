"""The §3.4 motivating example (Fig 10), end to end.

Four DCs of 160 Tbps (f = 10 fiber-pairs at lambda = 40 x 400 Gbps) on the
semi-distributed topology of Fig 1(e). The paper's numbers: F_E = 60
fiber-pairs and T_E = 4800 transceivers electrically; T_O = 1600 transceivers
optically with residual fiber on top; the electrical design costs ~2.7x more.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import api
from repro.cost.estimator import estimate_cost
from repro.cost.pricebook import PriceBook
from repro.designs.eps import eps_inventory
from repro.region.fibermap import (
    FiberMap,
    OperationalConstraints,
    RegionSpec,
)


def toy_region(spoke_km: float = 10.0, trunk_km: float = 20.0) -> RegionSpec:
    """The Fig 10 region: two DCs per hub, hubs joined by a trunk."""
    fmap = FiberMap()
    fmap.add_hut("H1", 0.0, 0.0)
    fmap.add_hut("H2", trunk_km, 0.0)
    for name, (x, y) in {
        "DC1": (-5.0, 5.0),
        "DC2": (-5.0, -5.0),
        "DC3": (trunk_km + 5.0, 5.0),
        "DC4": (trunk_km + 5.0, -5.0),
    }.items():
        fmap.add_dc(name, x, y)
    fmap.add_duct("DC1", "H1", length_km=spoke_km)
    fmap.add_duct("DC2", "H1", length_km=spoke_km)
    fmap.add_duct("DC3", "H2", length_km=spoke_km)
    fmap.add_duct("DC4", "H2", length_km=spoke_km)
    fmap.add_duct("H1", "H2", length_km=trunk_km)
    return RegionSpec(
        fiber_map=fmap,
        dc_fibers={f"DC{i}": 10 for i in range(1, 5)},
        wavelengths_per_fiber=40,
        constraints=OperationalConstraints(failure_tolerance=0),
    )


@dataclass(frozen=True)
class ToySummary:
    """Paper-vs-measured quantities of the §3.4 example."""

    eps_fiber_pairs: int
    eps_transceivers: int
    iris_transceivers: int
    iris_fiber_pairs: int
    cost_ratio: float
    simplified_cost_ratio: float


def toy_example_summary(prices: PriceBook | None = None) -> ToySummary:
    """Reproduce every §3.4 number from the planner and cost model."""
    prices = prices or PriceBook.default()
    region = toy_region()
    plan = api.plan(region)
    iris_inv = plan.inventory()
    eps_inv = eps_inventory(region, plan.topology)

    iris_cost = estimate_cost(iris_inv, prices)
    eps_cost = estimate_cost(eps_inv, prices)

    t_e = eps_inv.dc_transceivers + eps_inv.innetwork_transceivers
    t_o = iris_inv.dc_transceivers
    f_e = eps_inv.fiber_pair_spans
    f_o = iris_inv.fiber_pair_spans
    simplified = (
        prices.transceiver_dci * t_e + prices.fiber_pair_span * f_e
    ) / (prices.transceiver_dci * t_o + prices.fiber_pair_span * f_o)

    return ToySummary(
        eps_fiber_pairs=f_e,
        eps_transceivers=t_e,
        iris_transceivers=t_o,
        iris_fiber_pairs=f_o,
        cost_ratio=eps_cost.total / iris_cost.total,
        simplified_cost_ratio=simplified,
    )
