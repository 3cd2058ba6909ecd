"""BER maps, contour extraction, and reliable-range estimation."""
import hashlib
import math
import warnings

import numpy as np
import pytest

from ambcsim.ber_theory import (DetectionParams, SeriesError, ber_vs_iota,
                                exact_ber)
from ambcsim.channel import LinkGeometry, scatter_ratio
from ambcsim.coverage import (
    DEFAULT_LEVELS,
    BerGrid,
    CoverageScenario,
    GridSpec,
    _scatter_fields,
    centered_grid,
    compute_ber_grid,
    contour_export,
    range_estimate,
)
from oracles import (
    RANGE_782_AT_1E1,
    RANGE_782_AT_1E2,
    RANGE_2560_AT_1E1,
    RANGE_2560_AT_1E2,
    circularity,
    winding_number,
)
from test_golden import RECORDED_NUMPY, RECORDED_SCIPY, _versions_match


def default_scenario(**kw):
    base = dict(bs_pos=(50.0, 0.0), ue_pos=(0.0, 0.0),
                carrier_freq_hz=782e6, gamma=10.0)
    base.update(kw)
    return CoverageScenario(**base)


def point_ber(sc: CoverageScenario, bd_pos, engine="gaussian"):
    """Independent single-point evaluation through the channel module."""
    geom = LinkGeometry(bs_pos=sc.bs_pos, ue_pos=sc.ue_pos, bd_pos=bd_pos)
    iota = scatter_ratio(geom, sc.wavelength)
    return ber_vs_iota(iota, sc.gamma, sc.m_sc, sc.n_chips, engine=engine)


class TestSpecs:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, -1.0, 1.0, resolution=1)

    def test_axes(self):
        g = centered_grid((1.0, -2.0), half_span=3.0, resolution=7)
        assert g.x_axis[0] == -2.0 and g.x_axis[-1] == 4.0
        assert g.y_axis[0] == -5.0 and g.y_axis[-1] == 1.0
        assert g.x_axis.size == 7

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            default_scenario(carrier_freq_hz=0.0)
        with pytest.raises(ValueError):
            default_scenario(gamma=-1.0)
        with pytest.raises(ValueError):
            default_scenario(engine="magic")
        with pytest.raises(ValueError):
            default_scenario(bs_pos=(0.0, 0.0))

    def test_wavelength(self):
        sc = default_scenario()
        assert sc.wavelength == pytest.approx(0.383366314578005, rel=1e-12)
        assert sc.d_d == 50.0


class TestBerGrid:
    def test_reflection_symmetry(self):
        # geometry is mirror symmetric about the UE-BS axis
        sc = default_scenario(grid=centered_grid((0.0, 0.0), 1.5, 41))
        ber = compute_ber_grid(sc).ber
        assert np.allclose(ber, ber[::-1, :], equal_nan=True)

    def test_matches_pointwise_evaluation(self):
        sc = default_scenario(grid=centered_grid((0.0, 0.0), 1.5, 21))
        out = compute_ber_grid(sc)
        rng = np.random.default_rng(2)
        for _ in range(30):
            i = int(rng.integers(0, 21))
            j = int(rng.integers(0, 21))
            if not np.isfinite(out.ber[i, j]):
                continue
            ref = point_ber(sc, (out.x_axis[j], out.y_axis[i]))
            assert out.ber[i, j] == pytest.approx(ref, rel=1e-9)

    def test_singularity_cells_are_nan(self):
        sc = default_scenario(bs_pos=(1.0, 0.0),
                              grid=centered_grid((0.0, 0.0), 2.0, 41))
        out = compute_ber_grid(sc)
        # UE at grid node (20, 20); BS falls on a node too (x=1.0)
        assert np.isnan(out.ber[20, 20])
        assert np.isnan(out.ber[20, 30])
        finite = out.ber[np.isfinite(out.ber)]
        assert finite.size > 1500
        assert np.all((finite >= 0.0) & (finite <= 0.5))

    def test_far_field_approaches_coin_flip(self):
        sc = default_scenario()
        assert abs(point_ber(sc, (0.0, 400.0)) - 0.5) < 1e-3

    def test_scale_invariance(self):
        # doubling every length and halving the carrier leaves BER alone
        a = default_scenario(grid=centered_grid((0.0, 0.0), 1.0, 31))
        b = default_scenario(bs_pos=(100.0, 0.0), carrier_freq_hz=391e6,
                             grid=centered_grid((0.0, 0.0), 2.0, 31))
        ba = compute_ber_grid(a).ber
        bb = compute_ber_grid(b).ber
        assert np.allclose(ba, bb, rtol=1e-9, equal_nan=True)

    def test_engines_agree_where_ber_is_material(self):
        sc_g = default_scenario(grid=centered_grid((0.0, 0.0), 0.8, 15))
        sc_e = default_scenario(grid=centered_grid((0.0, 0.0), 0.8, 15),
                                engine="exact")
        bg = compute_ber_grid(sc_g).ber
        be = compute_ber_grid(sc_e).ber
        mask = np.isfinite(be) & (be >= 1e-3)
        assert mask.sum() > 50
        rel = np.abs(bg[mask] - be[mask]) / be[mask]
        assert float(rel.max()) < 0.10

    def test_exact_engine_records_series_failures(self):
        sc = default_scenario(gamma=1e9, engine="exact",
                              grid=centered_grid((0.0, 0.0), 0.5, 3))
        out = compute_ber_grid(sc)
        assert len(out.errors) > 0
        i, j, msg = out.errors[0]
        assert np.isnan(out.ber[i, j])
        assert "20000 indices" in msg


def per_cell_exact(sc: CoverageScenario):
    """The exact map by one exact_ber call per non-singular cell, in
    row-major order, with the destructive role swap spelled out."""
    u, bad = _scatter_fields(sc)
    ber = np.full(u.shape, np.nan)
    errors = []
    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            if bad[i, j]:
                continue
            uv = float(u[i, j])
            big, small = (uv, 1.0) if uv >= 1.0 else (1.0, uv)
            p = DetectionParams(m_sc=sc.m_sc, n_chips=sc.n_chips,
                                h_on_sq=sc.gamma * big,
                                h_off_sq=sc.gamma * small, noise_power=1.0)
            try:
                ber[i, j] = exact_ber(p)
            except SeriesError as exc:
                errors.append((i, j, str(exc)))
    return ber, tuple(errors)


class TestExactGridDedup:
    """The exact engine runs once per distinct u and scatters back; the
    map must be bit-identical to a per-cell loop."""

    def test_default_16x16_matches_per_cell_loop(self):
        sc = default_scenario(engine="exact",
                              grid=centered_grid((0.0, 0.0), 2.0, 16))
        u, bad = _scatter_fields(sc)
        # the mirror symmetry about the UE-BS axis repeats u
        assert np.unique(u[~bad]).size < np.count_nonzero(~bad)
        out = compute_ber_grid(sc)
        ref, ref_errors = per_cell_exact(sc)
        assert np.array_equal(out.ber, ref, equal_nan=True)
        assert out.errors == ref_errors == ()

    def test_repeated_failing_u_lists_every_cell(self):
        sc = default_scenario(gamma=1e9, engine="exact",
                              grid=centered_grid((0.0, 0.0), 0.5, 5))
        u, bad = _scatter_fields(sc)
        out = compute_ber_grid(sc)
        ref, ref_errors = per_cell_exact(sc)
        failed_u = [u[i, j] for i, j, _ in ref_errors]
        assert len(set(failed_u)) < len(failed_u)
        assert out.errors == ref_errors
        cells = [(i, j) for i, j, _ in out.errors]
        assert cells == sorted(set(cells))
        assert np.array_equal(out.ber, ref, equal_nan=True)


class TestContours:
    def _radial_grid(self, radius=0.7, res=101):
        ax = np.linspace(-1.0, 1.0, res)
        xx, yy = np.meshgrid(ax, ax)
        rr = np.hypot(xx, yy)
        # monotone radial BER passing the 0.1 level at the target radius
        ber = np.clip(0.1 * rr / radius, 0.005, 0.45)
        return BerGrid(ber=ber, x_axis=ax, y_axis=ax)

    def test_radial_field_gives_one_circle(self):
        grid = self._radial_grid()
        lines = contour_export(grid, levels=(0.1,))
        assert len(lines) == 1
        pts = lines[0].points
        assert np.allclose(pts[0], pts[-1])
        assert abs(winding_number(pts, (0.0, 0.0))) == 1
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(radii, 0.7, atol=0.02)
        assert circularity(pts) < 0.02

    def test_uncrossed_level_yields_nothing(self):
        grid = self._radial_grid()
        assert contour_export(grid, levels=(0.49,)) == []

    def test_level_domain(self):
        grid = self._radial_grid()
        with pytest.raises(ValueError):
            contour_export(grid, levels=(0.6,))
        with pytest.raises(ValueError):
            contour_export(grid, levels=(0.0,))

    def test_nan_cells_skipped(self):
        grid = self._radial_grid()
        ber = grid.ber.copy()
        ber[50, 50] = np.nan
        lines = contour_export(
            BerGrid(ber=ber, x_axis=grid.x_axis, y_axis=grid.y_axis),
            levels=(0.1,))
        assert len(lines) == 1
        assert np.all(np.isfinite(lines[0].points))

    def test_default_levels(self):
        assert DEFAULT_LEVELS == (0.4, 0.3, 0.2, 0.1, 0.05, 0.01)

    @pytest.mark.parametrize("ber, level, edges", [
        # case 5 (corners (0,0) and (1,1) above the level)
        ([[0.4, 0.0], [0.0, 0.4]], 0.1,
         [("left", "top"), ("right", "bottom")]),
        ([[0.2, 0.0], [0.0, 0.2]], 0.15,
         [("left", "bottom"), ("right", "top")]),
        # case 10 (corners (0,1) and (1,0) above the level)
        ([[0.0, 0.4], [0.4, 0.0]], 0.1,
         [("bottom", "right"), ("top", "left")]),
        ([[0.0, 0.2], [0.2, 0.0]], 0.15,
         [("bottom", "left"), ("top", "right")]),
    ], ids=["5-center-above", "5-center-below", "10-center-above",
            "10-center-below"])
    def test_saddle_cell_segments(self, ber, level, edges):
        # the cell center decides which corners the two segments cut off
        ax = np.array([0.0, 1.0])
        lines = contour_export(BerGrid(ber=np.array(ber), x_axis=ax,
                                       y_axis=ax), levels=(level,))

        def side(p):
            x, y = p
            return ("left" if x == 0.0 else "right" if x == 1.0
                    else "bottom" if y == 0.0 else "top")

        assert [tuple(side(p) for p in ln.points) for ln in lines] == edges

    def test_frozen_polylines_on_random_grids(self):
        # levels, line order, first vertices and vertex bits, pinned on
        # seeded grids with NaN holes, values tied with each other and
        # with the levels, and saddles whose center sits on the level
        if not _versions_match():
            pytest.skip(f"hash recorded under numpy {RECORDED_NUMPY} and "
                        f"scipy {RECORDED_SCIPY}")
        h = hashlib.sha256()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            ny, nx = rng.integers(2, 25, 2)
            ber = rng.integers(0, 10, (ny, nx)) * 0.05
            ber[rng.random((ny, nx)) < 0.1] = np.nan
            x = np.cumsum(rng.uniform(0.1, 1.0, nx)) - 3.0
            y = np.cumsum(rng.uniform(0.1, 1.0, ny)) - 3.0
            lines = contour_export(BerGrid(ber=ber, x_axis=x, y_axis=y),
                                   levels=(0.4, 0.2, 0.125, 0.05))
            h.update(np.int64(len(lines)).tobytes())
            for ln in lines:
                h.update(np.float64(ln.level).tobytes())
                h.update(np.int64(ln.points.shape[0]).tobytes())
                h.update(ln.points.tobytes())
        assert h.hexdigest() == (
            "b87be3fe182538b9bf3570647d236990535a109bc8e080b141fa2dc8d1516dc1")

    def test_real_field_loop_count_is_stable(self):
        # fringe horseshoes appear at a fixed level but only one loop
        # encloses the UE
        sc = default_scenario(grid=centered_grid((0.0, 0.0), 2.0, 200))
        out = compute_ber_grid(sc)
        lines = contour_export(out, levels=(0.1,))
        enclosing = [ln for ln in lines
                     if ln.points.shape[0] > 3
                     and np.allclose(ln.points[0], ln.points[-1])
                     and winding_number(ln.points, (0.0, 0.0)) != 0]
        assert len(enclosing) == 1


class TestReliableRegionShape:
    """Pins the measured geometry of the level-0.1 reliable region."""

    def _crossing(self, sc, theta, target=0.1, r_max=3.0):
        # innermost boundary of the connected readable region along a ray
        direction = np.array([math.cos(theta), math.sin(theta)])
        rs = np.linspace(1e-3, r_max, 6000)
        vals = np.array([point_ber(sc, tuple(r * direction)) for r in rs])
        idx = int(np.argmax(vals > target))
        assert vals[idx] > target
        lo, hi = rs[idx - 1], rs[idx]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if point_ber(sc, tuple(mid * direction)) > target:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def test_boundary_radii_by_bearing(self):
        sc = default_scenario()
        toward = self._crossing(sc, 0.0)
        side = self._crossing(sc, math.pi / 2.0)
        away = self._crossing(sc, math.pi)
        assert toward == pytest.approx(1.8312, rel=0.02)
        assert side == pytest.approx(0.1017, rel=0.02)
        assert away == pytest.approx(0.0556, rel=0.02)
        # the region stretches toward the BS because the round-trip
        # phase excess vanishes on that axis
        assert toward > 10 * side > 10 * away

    def test_enclosing_loop_shape(self):
        sc = default_scenario()
        out = compute_ber_grid(sc)
        lines = contour_export(out, levels=(0.1,))
        loops = [ln.points for ln in lines
                 if ln.points.shape[0] > 3
                 and np.allclose(ln.points[0], ln.points[-1])
                 and winding_number(ln.points, (0.0, 0.0)) != 0]
        assert len(loops) == 1
        pts = loops[0]
        radii = np.hypot(pts[:, 0], pts[:, 1])
        # readable fringe corridors weld the near rings onto the region,
        # so the loop's inner radius sits beyond the first radial exit
        assert radii.min() == pytest.approx(0.2187, rel=0.05)
        assert radii.max() == pytest.approx(1.8312, rel=0.05)
        assert 0.25 < circularity(pts) < 0.40


class TestRangeEstimate:
    def test_frozen_ranges(self):
        sc7 = default_scenario()
        sc25 = default_scenario(carrier_freq_hz=2560e6)
        assert range_estimate(sc7, 1e-1) == pytest.approx(RANGE_782_AT_1E1,
                                                          rel=1e-5)
        assert range_estimate(sc7, 1e-2) == pytest.approx(RANGE_782_AT_1E2,
                                                          rel=1e-5)
        assert range_estimate(sc25, 1e-1) == pytest.approx(RANGE_2560_AT_1E1,
                                                           rel=1e-5)
        assert range_estimate(sc25, 1e-2) == pytest.approx(RANGE_2560_AT_1E2,
                                                           rel=1e-5)

    def test_laxer_target_reads_farther(self):
        sc = default_scenario()
        assert range_estimate(sc, 0.3) > range_estimate(sc, 1e-2)

    def test_range_scales_with_frequency_ratio(self):
        # carrier ratio 782/2560 maps through the envelope geometry
        r7 = range_estimate(default_scenario(), 1e-2)
        r25 = range_estimate(default_scenario(carrier_freq_hz=2560e6), 1e-2)
        assert r25 / r7 == pytest.approx(0.30947, rel=1e-3)

    def test_target_domain(self):
        sc = default_scenario()
        with pytest.raises(ValueError):
            range_estimate(sc, 0.0)
        with pytest.raises(ValueError):
            range_estimate(sc, 0.5)

    def test_unreachable_target_warns_nan(self):
        # the 1/d_s envelope reaches any finite requirement, so only a
        # vanishing link SNR pushes the needed ratio past the bracket
        sc = default_scenario(gamma=1e-30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isnan(range_estimate(sc, 1e-4))

    def test_exact_engine_range_close_to_gaussian(self):
        r_g = range_estimate(default_scenario(), 1e-1)
        r_e = range_estimate(default_scenario(engine="exact"), 1e-1)
        assert r_e == pytest.approx(r_g, rel=0.05)
