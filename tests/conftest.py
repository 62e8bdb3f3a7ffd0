"""Shared fixtures: the paper's §3.4 toy region and a small synthetic one."""

from __future__ import annotations

import pytest

from repro.region.fibermap import (
    FiberMap,
    OperationalConstraints,
    RegionSpec,
)
from repro.region.catalog import make_region


def build_toy_map(
    spoke_km: float = 10.0, trunk_km: float = 20.0
) -> FiberMap:
    """The Fig 10 topology: DC1, DC2 on hub H1; DC3, DC4 on hub H2; H1-H2.

    Distances default to values where no amplification is needed and the
    SLA holds, so the §3.4 fiber/transceiver arithmetic is exact.
    """
    fmap = FiberMap()
    fmap.add_hut("H1", 0.0, 0.0)
    fmap.add_hut("H2", trunk_km, 0.0)
    fmap.add_dc("DC1", -5.0, 5.0)
    fmap.add_dc("DC2", -5.0, -5.0)
    fmap.add_dc("DC3", trunk_km + 5.0, 5.0)
    fmap.add_dc("DC4", trunk_km + 5.0, -5.0)
    fmap.add_duct("DC1", "H1", length_km=spoke_km)  # L1
    fmap.add_duct("DC2", "H1", length_km=spoke_km)  # L2
    fmap.add_duct("DC3", "H2", length_km=spoke_km)  # L3
    fmap.add_duct("DC4", "H2", length_km=spoke_km)  # L4
    fmap.add_duct("H1", "H2", length_km=trunk_km)  # L5
    return fmap


@pytest.fixture
def toy_map() -> FiberMap:
    return build_toy_map()


@pytest.fixture
def toy_region(toy_map: FiberMap) -> RegionSpec:
    """The §3.4 example: 4 DCs x 160 Tbps => f=10 fiber-pairs, lambda=40.

    The toy map is a tree, so failures cannot be tolerated: tolerance 0.
    """
    return RegionSpec(
        fiber_map=toy_map,
        dc_fibers={f"DC{i}": 10 for i in range(1, 5)},
        wavelengths_per_fiber=40,
        constraints=OperationalConstraints(failure_tolerance=0),
    )


@pytest.fixture(scope="session")
def small_region_instance():
    """A small synthetic region with 2-cut tolerance (session-cached)."""
    return make_region(map_index=0, n_dcs=5, dc_fibers=8)


@pytest.fixture(scope="session")
def small_plan(small_region_instance):
    """A full Iris plan for the small region (expensive; session-cached)."""
    from repro import api

    return api.plan(small_region_instance.spec)
