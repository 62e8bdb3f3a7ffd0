"""Management-complexity accounting (§2.3, §6.1) and integration checks."""

import pytest

from repro.analysis.complexity import (
    eps_complexity,
    iris_complexity,
    port_reduction_factor,
)
from repro import api


class TestComplexity:
    def test_toy_sites(self, toy_region):
        plan = api.plan(toy_region)
        iris = iris_complexity(plan)
        eps = eps_complexity(plan)
        # Both designs equip the 4 DCs and the 2 hubs.
        assert iris.equipment_sites == 6
        assert iris.in_network_sites == 2
        assert eps.equipment_sites == 6
        assert eps.in_network_sites == 2

    def test_iris_manages_fewer_in_network_ports(self, small_plan):
        factor = port_reduction_factor(small_plan)
        # §3: "reducing in-network ports by an order of magnitude".
        assert factor > 5.0

    def test_iris_in_network_sites_at_most_eps(self, small_plan):
        iris = iris_complexity(small_plan)
        eps = eps_complexity(small_plan)
        # EPS splices through degree-2 huts; Iris switches at every used
        # node — Iris touches at least as many sites but each is passive.
        assert iris.in_network_sites >= eps.in_network_sites
        assert iris.in_network_ports < eps.in_network_ports

    def test_device_class_counts(self, small_plan):
        assert iris_complexity(small_plan).device_classes == 4
        assert eps_complexity(small_plan).device_classes == 3


class TestServiceAreaRendering:
    def test_render_marks_sites(self):
        from repro.region.catalog import make_region
        from repro.region.siting import (
            distributed_service_area,
            render_service_area,
        )

        instance = make_region(map_index=0, n_dcs=4)
        region = instance.spec
        area = distributed_service_area(
            region.fiber_map,
            instance.extent_km,
            spacing_km=8.0,
            margin_km=24.0,
        )
        points = [region.fiber_map.position(dc) for dc in region.dcs]
        picture = render_service_area(area, points)
        rows = picture.split("\n")
        # Rectangular, containing feasible marks and the DC markers.
        assert len({len(r) for r in rows}) == 1
        assert picture.count("D") >= 1
        assert "#" in picture

    def test_render_empty_area_rejected(self):
        from repro.exceptions import RegionError
        from repro.region.siting import ServiceArea, render_service_area

        with pytest.raises(RegionError):
            render_service_area(ServiceArea((), (), 0.0))


class TestHybridPrefixValidity:
    def test_merged_pairs_share_the_prefix(self, small_plan):
        """Every merge's pairs route through (endpoint -> hut) as an actual
        prefix of their shortest path — the physical precondition for
        combining their residual fibers (Appendix B)."""
        from repro.designs.hybrid import hybridize

        hybrid = hybridize(small_plan)
        base = small_plan.topology.base_paths
        assert hybrid.merges, "expected at least one merge on this plan"
        for merge in hybrid.merges:
            for pair in merge.pairs:
                path = base[pair]
                assert merge.endpoint in (path[0], path[-1])
                ordered = (
                    path if path[0] == merge.endpoint else tuple(reversed(path))
                )
                assert merge.hut in ordered[1:-1]
                depth = ordered.index(merge.hut)
                assert depth == merge.shared_spans


class TestWavelengthAssignmentOnRealPlan:
    def test_one_wavelength_per_pair_colours(self, small_plan):
        from repro.designs.wavelength_network import assign_wavelengths

        paths = small_plan.topology.base_paths
        demands = {pair: 1 for pair in paths}
        plan = assign_wavelengths(
            paths, demands, small_plan.region.wavelengths_per_fiber
        )
        assert plan.validate() == []
        assert len(plan.colours) == len(paths)

    def test_tiny_spectrum_exhausts_on_shared_trunks(self, small_plan):
        from repro.designs.wavelength_network import colourable_fraction

        paths = small_plan.topology.base_paths
        demands = {pair: 1 for pair in paths}
        frac = colourable_fraction(paths, demands, 2)
        assert frac < 1.0
