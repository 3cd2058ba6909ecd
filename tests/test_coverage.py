"""BER maps, contour extraction, and reliable-range estimation."""
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ambcsim import ber_theory, coverage
from ambcsim.ber_theory import (DetectionParams, SeriesError, ber_vs_iota,
                                exact_ber)
from ambcsim.channel import LinkGeometry, _scatter, scatter_ratio
from ambcsim.coverage import (
    DEFAULT_LEVELS,
    BerGrid,
    CoverageScenario,
    _scatter_fields,
    compute_ber_grid,
    contour_export,
    range_estimate,
)
from ambcsim.specfun import q_inv
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
            default_scenario(half_span=0.0)
        with pytest.raises(ValueError):
            default_scenario(half_span=-1.0)
        with pytest.raises(ValueError):
            default_scenario(resolution=1)
        with pytest.raises(ValueError):  # ue +- half_span rounds together
            default_scenario(ue_pos=(1e20, 0.0))

    def test_axes(self):
        g = default_scenario(ue_pos=(1.0, -2.0), half_span=3.0, resolution=7)
        assert g.x_axis[0] == -2.0 and g.x_axis[-1] == 4.0
        assert g.y_axis[0] == -5.0 and g.y_axis[-1] == 1.0
        assert g.x_axis.size == 7

    def test_map_is_centred_on_an_off_origin_ue(self):
        sc = default_scenario(bs_pos=(60.0, 0.0), ue_pos=(10.0, 0.0),
                              resolution=41)
        out = compute_ber_grid(sc)
        assert out.x_axis[0] == 8.0 and out.x_axis[-1] == 12.0
        assert out.y_axis[0] == -2.0 and out.y_axis[-1] == 2.0
        assert np.isnan(out.ber[20, 20])  # the UE's own cell

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            default_scenario(carrier_freq_hz=0.0)
        with pytest.raises(ValueError):
            default_scenario(gamma=-1.0)
        with pytest.raises(ValueError):
            default_scenario(engine="magic")
        with pytest.raises(ValueError):
            default_scenario(bs_pos=(0.0, 0.0))

    @pytest.mark.parametrize("kw", [
        dict(carrier_freq_hz=math.inf), dict(gamma=math.nan),
        dict(half_span=math.inf), dict(ue_pos=(math.nan, 0.0)),
        dict(bs_pos=(math.inf, 0.0))])
    def test_non_finite_values_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            default_scenario(**kw)

    def test_wavelength(self):
        sc = default_scenario()
        assert sc.wavelength == pytest.approx(0.383366314578005, rel=1e-12)
        assert sc.d_d == 50.0


class TestBerGrid:
    def test_reflection_symmetry(self):
        # geometry is mirror symmetric about the UE-BS axis
        sc = default_scenario(half_span=1.5, resolution=41)
        ber = compute_ber_grid(sc).ber
        assert np.allclose(ber, ber[::-1, :], equal_nan=True)

    def test_matches_pointwise_evaluation(self):
        sc = default_scenario(half_span=1.5, resolution=21)
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
                              half_span=2.0, resolution=41)
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
        a = default_scenario(half_span=1.0, resolution=31)
        b = default_scenario(bs_pos=(100.0, 0.0), carrier_freq_hz=391e6,
                             half_span=2.0, resolution=31)
        ba = compute_ber_grid(a).ber
        bb = compute_ber_grid(b).ber
        assert np.allclose(ba, bb, rtol=1e-9, equal_nan=True)

    def test_engines_agree_where_ber_is_material(self):
        sc_g = default_scenario(half_span=0.8, resolution=15)
        sc_e = default_scenario(half_span=0.8, resolution=15,
                                engine="exact")
        bg = compute_ber_grid(sc_g).ber
        be = compute_ber_grid(sc_e).ber
        mask = np.isfinite(be) & (be >= 1e-3)
        assert mask.sum() > 50
        rel = np.abs(bg[mask] - be[mask]) / be[mask]
        assert float(rel.max()) < 0.10

    def test_exact_engine_records_series_failures(self):
        sc = default_scenario(gamma=1e9, engine="exact",
                              half_span=0.5, resolution=3)
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
                              half_span=2.0, resolution=16)
        u, bad = _scatter_fields(sc)
        # the mirror symmetry about the UE-BS axis repeats u
        assert np.unique(u[~bad]).size < np.count_nonzero(~bad)
        out = compute_ber_grid(sc)
        ref, ref_errors = per_cell_exact(sc)
        assert np.array_equal(out.ber, ref, equal_nan=True)
        assert out.errors == ref_errors == ()

    def test_repeated_failing_u_lists_every_cell(self):
        sc = default_scenario(gamma=1e9, engine="exact",
                              half_span=0.5, resolution=5)
        u, bad = _scatter_fields(sc)
        out = compute_ber_grid(sc)
        ref, ref_errors = per_cell_exact(sc)
        failed_u = [u[i, j] for i, j, _ in ref_errors]
        assert len(set(failed_u)) < len(failed_u)
        assert out.errors == ref_errors
        cells = [(i, j) for i, j, _ in out.errors]
        assert cells == sorted(set(cells))
        assert np.array_equal(out.ber, ref, equal_nan=True)


def one_shot_fields(sc: CoverageScenario):
    """The field as one grid-sized evaluation, as built before it was
    banded, kept verbatim as the bit-level reference."""
    x = sc.x_axis
    y = sc.y_axis
    xx, yy = np.meshgrid(x, y)
    lam = sc.wavelength
    ue = np.asarray(sc.ue_pos, dtype=float)
    bs = np.asarray(sc.bs_pos, dtype=float)
    d_s = np.hypot(xx - ue[0], yy - ue[1])
    d_b = np.hypot(xx - bs[0], yy - bs[1])
    d_d = sc.d_d
    half_diag = 0.5 * math.hypot(x[1] - x[0], y[1] - y[0])
    bad = (d_s <= half_diag) | (d_b <= half_diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        amag, phase = _scatter(d_d, d_s, d_b, lam)
        u = 1.0 + 2.0 * amag * np.cos(phase) + amag * amag
    return u, bad


def one_shot_gaussian_ber(sc: CoverageScenario):
    """The gaussian map in one grid-sized evaluation, the reference."""
    u, bad = one_shot_fields(sc)
    ok = ~bad
    ber = np.full(u.shape, np.nan)
    ber[ok] = ber_theory._gaussian_ber_u(u[ok], sc.gamma,
                                         sc.n_chips * sc.m_sc)
    return ber


class TestBandedGrid:
    """The field and the gaussian map are evaluated in bands of rows;
    every operation is elementwise, so each cell keeps its bits."""

    SCENARIOS = {
        "res2": dict(resolution=2),
        "res17": dict(resolution=17),
        "res400": dict(resolution=400),
        # the BS 1.2 m from an off-origin UE: two singular regions on
        # rows far apart
        "off-origin-bs-inside": dict(ue_pos=(0.3, -0.2), bs_pos=(1.1, 0.7),
                                     half_span=2.0, resolution=121),
    }

    @pytest.mark.parametrize("band", [None, 5])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bit_identical_to_one_shot(self, monkeypatch, name, band):
        if band is not None:
            # a few cells: one row per band
            monkeypatch.setattr(coverage, "_BAND_CELLS", band)
        sc = default_scenario(**self.SCENARIOS[name])
        u, bad = _scatter_fields(sc)
        ref_u, ref_bad = one_shot_fields(sc)
        assert np.array_equal(bad, ref_bad)
        assert np.array_equal(u, ref_u, equal_nan=True)
        assert np.array_equal(compute_ber_grid(sc).ber,
                              one_shot_gaussian_ber(sc), equal_nan=True)

    def test_singular_cells_span_bands(self, monkeypatch):
        monkeypatch.setattr(coverage, "_BAND_CELLS", 5)
        sc = default_scenario(**self.SCENARIOS["off-origin-bs-inside"])
        # the scenario the bit-identity test runs at one row per band
        rows = [rows for rows, _, bad in coverage._field_bands(sc)
                if bad.any()]
        assert len(rows) >= 2

    def test_exact_errors_keep_order_and_messages(self, monkeypatch):
        sc = default_scenario(gamma=1e9, engine="exact",
                              half_span=0.5, resolution=5)
        whole = compute_ber_grid(sc)
        monkeypatch.setattr(coverage, "_BAND_CELLS", 5)
        banded = compute_ber_grid(sc)
        assert len(banded.errors) > 1
        assert banded.errors == whole.errors
        assert np.array_equal(banded.ber, whole.ber, equal_nan=True)


class TestMapMemory:
    """A gaussian map holds ber and one band's u and temporaries;
    contour_export one level's crossings at a time. Peaks are
    tracemalloc's, after a warm-up call."""

    def test_gaussian_grid_peak(self):
        scenario = default_scenario(resolution=400)
        compute_ber_grid(scenario)
        tracemalloc.start()
        try:
            grid = compute_ber_grid(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * grid.ber.nbytes

    def test_contour_peak(self):
        grid = compute_ber_grid(default_scenario(resolution=400))
        contour_export(grid)
        tracemalloc.start()
        try:
            contour_export(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.ber.nbytes


class TestExactTableReuse:
    """The exact map and the exact range bisection each pass one table
    dict through their exact_ber calls."""

    def test_range_bisection_matches_one_without_tables(self, monkeypatch):
        sc = default_scenario(engine="exact")
        got = range_estimate(sc, 1e-2)
        monkeypatch.setattr(coverage, "exact_ber",
                            lambda p, tables=None: ber_theory.exact_ber(p))
        assert range_estimate(sc, 1e-2) == got

    def test_map_peak_memory_is_about_two_tables(self, monkeypatch):
        sizes = []
        build = ber_theory._reg_beta_table

        def measured(*args):
            table = build(*args)
            sizes.append(table.nbytes)
            return table

        monkeypatch.setattr(ber_theory, "_reg_beta_table", measured)
        tracemalloc.start()
        try:
            compute_ber_grid(default_scenario(engine="exact", resolution=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * max(sizes)


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
        sc = default_scenario(half_span=2.0, resolution=200)
        out = compute_ber_grid(sc)
        lines = contour_export(out, levels=(0.1,))
        enclosing = [ln for ln in lines
                     if ln.points.shape[0] > 3
                     and np.allclose(ln.points[0], ln.points[-1])
                     and winding_number(ln.points, (0.0, 0.0)) != 0]
        assert len(enclosing) == 1


def reference_stitch(segs, first):
    """The walk of coverage._stitch that scans for loop starts over
    segs.tolist(), kept as the reference for its paths."""
    flat = segs.ravel()
    nb = np.full((first.size, 2), -1)
    nb[flat, (np.arange(flat.size) != first[flat]).astype(np.intp)] = \
        segs[:, ::-1].ravel()
    nx = (nb[:, 0] ^ nb[:, 1]).tolist()
    seen = [False] * first.size

    def walk(a, b):
        path = [a]
        seen[a] = True
        while b >= 0 and not seen[b]:
            path.append(b)
            seen[b] = True
            a, b = b, nx[b] ^ a
        if b >= 0:
            path.append(b)
        return path

    ends = np.flatnonzero(nb[:, 1] < 0)
    paths = [walk(s, nx[s] ^ -1)
             for s in ends[np.argsort(first[ends])].tolist() if not seen[s]]
    paths += [walk(a, b) for a, b in segs.tolist() if not seen[a]]
    return paths


def random_degree2_graph(rng):
    """(segs, first) of a seeded random graph of maximum degree 2: a
    lone segment, a loop of 3, then open paths and loops of 3 or more
    segments, with shuffled segment order, orientation and node ids."""
    sizes = [(1, False), (3, True)] + [
        (int(size), bool(size >= 3 and rng.random() < 0.5))
        for size in rng.integers(1, 9, rng.integers(0, 10))]
    parts = []
    m = 0
    for size, closed in sizes:
        ids = np.arange(m, m + size + (not closed))
        m += ids.size
        parts.append(np.column_stack((ids, np.roll(ids, -1)))[:size])
    segs = np.concatenate(parts)[rng.permutation(sum(s for s, _ in sizes))]
    flip = rng.random(segs.shape[0]) < 0.5
    segs[flip] = segs[flip, ::-1]
    segs = rng.permutation(m)[segs]
    _, first = np.unique(segs.ravel(), return_index=True)
    return segs, first


class TestStitch:
    def test_paths_match_reference_walk(self):
        for seed in range(200):
            segs, first = random_degree2_graph(np.random.default_rng(seed))
            paths = coverage._stitch(segs, first)
            assert paths == reference_stitch(segs, first), seed
            # every segment lies on exactly one path
            walked = sorted(tuple(sorted(p)) for path in paths
                            for p in zip(path, path[1:]))
            assert walked == sorted(map(tuple, np.sort(segs, 1).tolist()))

    def test_real_map_paths_match_reference_walk(self, monkeypatch):
        graphs = []
        stitch = coverage._stitch

        def recording(segs, first):
            graphs.append((segs, first))
            return stitch(segs, first)

        monkeypatch.setattr(coverage, "_stitch", recording)
        contour_export(compute_ber_grid(default_scenario(resolution=200)))
        assert len(graphs) == len(DEFAULT_LEVELS)
        for segs, first in graphs:
            assert stitch(segs, first) == reference_stitch(segs, first)


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

    def test_closed_form_solves_the_envelope(self):
        # the radius puts the worst-bearing envelope exactly on the
        # |iota| = sqrt(u*) - 1 the target requires
        for f, gamma, bs, target, m_sc, n in itertools.product(
                (450e6, 782e6, 2560e6, 3500e6), (0.1, 1.0, 10.0, 100.0, 1e4),
                ((50.0, 0.0), (10.0, 0.0), (600.0, 800.0)),
                (1e-3, 1e-2, 0.1, 0.4), (12, 288), (2, 4)):
            sc = default_scenario(bs_pos=bs, carrier_freq_hz=f, gamma=gamma,
                                  m_sc=m_sc, n_chips=n)
            c = coverage._required_iota(sc, target)
            r = range_estimate(sc, target)
            got = _scatter(sc.d_d, r, sc.d_d + r, sc.wavelength)[0]
            assert got == pytest.approx(c, rel=1e-14, abs=0.0)

    def test_closed_form_matches_mpmath(self):
        # the one case of a 17 640-scenario scan whose printed radius
        # moved: the old bisection printed 0.275332535, 1.5e-13 off; c is
        # exact here for the double z, so the radius of sqrt(u*) - 1
        # with u* rounded (0.27533253449996388) fails
        mp = pytest.importorskip("mpmath")
        sc = default_scenario(carrier_freq_hz=2560e6, gamma=100.0, m_sc=12)
        with mp.workdps(40):
            z = mp.mpf(q_inv(0.05))
            e = (2 * z * z + 2 * z * mp.sqrt(z * z + 48 * 201)) / 4800
            c = mp.sqrt(1 + e) - 1
            k = mp.mpf(sc.wavelength) * 50 / (4 * mp.pi * c)
            want = float(2 * k / (50 + mp.sqrt(2500 + 4 * k)))
        assert want == pytest.approx(0.27533253449996453, rel=1e-16, abs=0.0)
        assert range_estimate(sc, 0.05) == pytest.approx(want, rel=1e-15,
                                                         abs=0.0)

    def test_required_iota_and_radius_match_mpmath(self):
        # c is within the 1.5e-15 of _required_iota's docstring of the
        # exact c for the double z, and the radius within 4e-15 of the
        # root for that c (c's bound plus the radius formula's roundings);
        # 5.2e-16 and 6.1e-16 were the largest seen. sqrt(u*) - 1 of a
        # rounded u* was 1e-11 off at 90 dB, 6e-4 at 250 dB and read
        # c = 0 (an infinite radius) at 320 dB
        mp = pytest.importorskip("mpmath")
        cases = []
        for (m_sc, n), gamma_db, target in itertools.product(
                ((288, 4), (1, 2)), range(-30, 321, 10),
                (0.49, 0.3, 0.1, 1e-2, 1e-3, 1e-6, 1e-30, 1e-300)):
            gamma = 10.0 ** (gamma_db / 10.0)
            sc = default_scenario(gamma=gamma, m_sc=m_sc, n_chips=n)
            with mp.workdps(60):
                z = mp.mpf(q_inv(target))
                nm, g = m_sc * n, mp.mpf(gamma)
                e = (2 * z * z + 2 * z * mp.sqrt(z * z + nm * (2 * g + 1))) \
                    / (nm * g)
                c = e / (1 + mp.sqrt(1 + e))
                k = mp.mpf(sc.wavelength) * 50 / (4 * mp.pi * c)
                r = 2 * k / (50 + mp.sqrt(2500 + 4 * k))
                got = range_estimate(sc, target)
                assert abs(got / r - 1) <= 4e-15, (gamma_db, target)
            cases.append((sc, target, c))
        for sc, target, c in cases:
            got = coverage._required_iota(sc, target)
            assert abs(got / c - 1) <= 1.5e-15, (sc.gamma, target)

    @pytest.mark.parametrize("u_star", [1.0 + 2.0 ** -50, 1.5, 3.0, 1e10])
    def test_exact_engine_iota_matches_mpmath(self, monkeypatch, u_star):
        # c of the bisected u* is within 4.5e-16 of sqrt(u*) - 1
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(coverage, "_decreasing_root",
                            lambda *args: u_star)
        c = coverage._required_iota(default_scenario(engine="exact"), 0.1)
        with mp.workdps(40):
            assert abs(c / (mp.sqrt(mp.mpf(u_star)) - 1) - 1) <= 4.5e-16

    def test_far_base_station(self):
        # d_d^2 overflows beyond 1.3e154 m, 2 k beyond 9e307, and
        # k = lam d_d / (4 pi c) itself at 1e300 m and gamma 1e300
        # (c = 9.7e-152), so the root must be taken divided through by
        # d_d; the radius tends to lam / (4 pi c) as d_d grows, and stays
        # within the 4e-15 of test_required_iota_and_radius_match_mpmath
        for d_d, gamma in ((1e200, 10.0), (1e308, 10.0), (1e300, 1e300)):
            sc = default_scenario(bs_pos=(d_d, 0.0), gamma=gamma)
            c = coverage._required_iota(sc, 1e-2)
            got = range_estimate(sc, 1e-2)
            assert got == pytest.approx(
                sc.wavelength / (4.0 * math.pi * c), rel=1e-14, abs=0.0)
            assert _radius_error(sc, c, got) <= 4e-15, (d_d, gamma)

    def test_near_base_station_at_huge_snr(self):
        # t / d_d = lam / (4 pi c d_d) overflows at 1e-160 m and gamma
        # 1e300, so sqrt(t) and sqrt(d_d) are taken apart; the radius is
        # about sqrt(t d_d), 5.6e-6 m
        sc = default_scenario(bs_pos=(1e-160, 0.0), gamma=1e300)
        c = coverage._required_iota(sc, 1e-2)
        got = range_estimate(sc, 1e-2)
        assert got == pytest.approx(math.sqrt(
            sc.wavelength / (4.0 * math.pi * c) * 1e-160), rel=1e-14)
        assert _radius_error(sc, c, got) <= 4e-15

    def test_gaussian_range_runs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the gaussian range searched")

        monkeypatch.setattr(coverage, "_decreasing_root", no_search)
        assert range_estimate(default_scenario(), 1e-2) == pytest.approx(
            RANGE_782_AT_1E2, rel=1e-5)

    @pytest.mark.parametrize("gamma", [1e306, 1e308])
    def test_unbounded_range_is_inf(self, gamma):
        # u* = 1: every target is met everywhere, without a warning
        assert range_estimate(default_scenario(gamma=gamma), 1e-2) == math.inf

    def test_nan_requirement_warns_nan(self, monkeypatch):
        monkeypatch.setattr(coverage, "_excess_for_target",
                            lambda *args: math.nan)
        with pytest.warns(UserWarning, match="unreachable"):
            assert math.isnan(range_estimate(default_scenario(), 1e-2))


def _radius_error(sc, c, got):
    """Relative error of a range against the 50-digit positive root of
    d_s^2 + d_d d_s - k = 0, k = lam d_d / (4 pi c), for the double c."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        d = mp.mpf(sc.d_d)
        k = mp.mpf(sc.wavelength) * d / (4 * mp.pi * c)
        return float(abs(got / (2 * k / (d + mp.sqrt(d * d + 4 * k))) - 1))


class TestDecreasingRoot:
    """The exact range's bracket and bisection, on synthetic decreasing
    functions."""

    def test_no_root_above_lo_warns_nan(self):
        with pytest.warns(UserWarning, match="unreachable"):
            assert math.isnan(coverage._decreasing_root(
                lambda u: -u, 1.0, 2.0, 1e-9))

    def test_bracket_doubles_until_it_holds_the_root(self):
        seen = []

        def f(u):
            seen.append(u)
            return 100.0 - u

        root = coverage._decreasing_root(f, 1.0, 2.0, 1e-9)
        assert root == pytest.approx(100.0, rel=1e-9)
        assert seen[1:9] == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 64.5]

    def test_no_bracket_warns_nan(self):
        # f stays positive: hi doubles _MAX_STEPS times, to 2^201
        with pytest.warns(UserWarning, match="no finite bracket"):
            assert math.isnan(coverage._decreasing_root(
                lambda u: 1.0, 1.0, 2.0, 1e-9))
