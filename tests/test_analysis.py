"""Per-figure analyses: latency inflation, flexibility, port cost, toy, sweep."""

import pytest

from repro.analysis.designspace import SweepPoint, default_mini_sweep
from repro.api import sweep
from repro.analysis.latency import cdf, fraction_at_least, latency_inflation_ratios
from repro.analysis.flexibility import flexibility_gains
from repro.analysis.portcost import port_cost_table
from repro.analysis.toy import toy_example_summary
from repro.exceptions import ReproError
from repro.region.catalog import region_ensemble


@pytest.fixture(scope="module")
def ensemble():
    # A reduced ensemble (the figure benches run the full 22/33 regions).
    return region_ensemble(count=6, n_dcs_range=(5, 7))


class TestLatencyInflation:
    def test_hub_paths_mostly_longer(self, ensemble):
        ratios = latency_inflation_ratios(ensemble)
        # §2.1: "latency reduces for at least 60% of DC-DC paths" via
        # direct connectivity, i.e. most hub paths are inflated.
        assert fraction_at_least(ratios, 1.0) >= 0.6

    def test_some_paths_inflate_2x(self, ensemble):
        ratios = latency_inflation_ratios(ensemble)
        assert fraction_at_least(ratios, 2.0) > 0.0

    def test_cdf_properties(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ReproError):
            cdf([])
        with pytest.raises(ReproError):
            fraction_at_least([], 1.0)
        with pytest.raises(ReproError):
            latency_inflation_ratios([])


class TestFlexibility:
    def test_distributed_always_more_flexible(self, ensemble):
        gains = flexibility_gains(ensemble, spacing_km=4.0)
        assert len(gains) == len(ensemble)
        for _, gain in gains:
            assert gain >= 1.0

    def test_gains_in_paper_band(self, ensemble):
        # Fig 6: 2-5x across regions (we tolerate a slightly wider band on
        # synthetic maps).
        gains = [g for _, g in flexibility_gains(ensemble, spacing_km=4.0)]
        median = sorted(gains)[len(gains) // 2]
        assert 1.5 <= median <= 8.0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ReproError):
            flexibility_gains([])


class TestPortCostTable:
    def test_rows_normalized_to_centralized(self):
        rows = port_cost_table(n_dcs=16)
        assert rows[0].groups == 1
        assert rows[0].electrical == pytest.approx(1.0)

    def test_paper_narrative_holds(self):
        rows = {r.groups: r for r in port_cost_table(n_dcs=16)}
        # Full mesh roughly 7x (exactly (N+1)/2).
        assert rows[16].electrical == pytest.approx(8.5)
        # Semi-distributed with SR still beats no one: > centralized.
        for g in (2, 4, 8, 16):
            assert rows[g].electrical_sr > rows[1].electrical
        # Optical stays within ~1.5x of centralized across the spectrum.
        assert all(r.optical < 1.5 for r in rows.values())


class TestToyExample:
    def test_section_3_4_numbers(self):
        summary = toy_example_summary()
        assert summary.eps_fiber_pairs == 60
        assert summary.eps_transceivers == 4800
        assert summary.iris_transceivers == 1600
        assert summary.iris_fiber_pairs == 76  # paper: 78 (see DESIGN.md)
        # "the electrical design costs 2.7x more than the optical one"
        assert summary.cost_ratio == pytest.approx(2.7, abs=0.45)
        assert summary.simplified_cost_ratio == pytest.approx(2.74, abs=0.03)


class TestSweep:
    def test_mini_sweep_grid(self):
        points = default_mini_sweep()
        assert len(points) == 32
        assert len({(p.map_index, p.n_dcs, p.dc_fibers) for p in points}) == 16

    def test_single_point_headlines(self):
        records = sweep([SweepPoint(0, 5, 8, 40)])
        (r,) = records
        # Fig 12(a): EPS much more expensive; hybrid ~ Iris.
        assert r.eps_over_iris > 3.0
        assert r.eps_over_hybrid == pytest.approx(r.eps_over_iris, rel=0.2)
        # In-network-only contrast is sharper.
        assert r.eps_over_iris_innetwork > r.eps_over_iris
        # Fig 12(c): EPS port ratio large, Iris small.
        assert r.eps_port_ratio > 5 * r.iris_port_ratio
        # Fig 12(d): unprotected EPS still >2x Iris with 2-cut tolerance.
        assert r.eps_tol0_over_iris > 2.0
        # Fig 12(b): advantage survives SR-priced transceivers.
        assert r.eps_over_iris_sr > 1.5
