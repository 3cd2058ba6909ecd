"""Spatial BER mapping around the UE.

Sweeps the BD position over a grid with UE and BS fixed, evaluates the
link BER per cell from the scatter ratio, extracts contour polylines,
and estimates the reliable reading range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ber_theory import (SeriesError, _excess_for_target, _gaussian_ber_u,
                         _params_for_u, exact_ber)
from .channel import _FOUR_PI, SPEED_OF_LIGHT, _scatter

DEFAULT_LEVELS = (0.4, 0.3, 0.2, 0.1, 0.05, 0.01)


@dataclass(frozen=True)
class CoverageScenario:
    """Fixed UE/BS geometry plus link settings for a map of the square
    of half width half_span around the UE, resolution points per axis.
    The default 4 m x 4 m window resolves the half wavelength
    interference fringes at UHF carriers."""

    bs_pos: tuple
    ue_pos: tuple
    carrier_freq_hz: float
    gamma: float
    m_sc: int = 288
    n_chips: int = 4
    half_span: float = 2.0
    resolution: int = 200
    engine: str = "gaussian"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.carrier_freq_hz, self.gamma,
                                       self.half_span, *self.bs_pos,
                                       *self.ue_pos))):
            raise ValueError("carrier, gamma, half_span and positions "
                             "must be finite")
        if self.carrier_freq_hz <= 0.0:
            raise ValueError("carrier_freq_hz must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive (linear SNR)")
        if self.m_sc < 1 or self.n_chips < 1:
            raise ValueError("m_sc and n_chips must be positive")
        if self.half_span <= 0.0:
            raise ValueError("half_span must be positive")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if not (np.all(np.diff(self.x_axis) > 0.0)
                and np.all(np.diff(self.y_axis) > 0.0)):
            raise ValueError("grid axes must be strictly increasing")
        if self.engine not in ("exact", "gaussian"):
            raise ValueError(f"unknown engine: {self.engine}")
        if tuple(self.bs_pos) == tuple(self.ue_pos):
            raise ValueError("bs_pos and ue_pos must differ")

    def _axis(self, k):
        c = float(self.ue_pos[k])
        return np.linspace(c - self.half_span, c + self.half_span,
                           self.resolution)

    @property
    def x_axis(self) -> np.ndarray:
        return self._axis(0)

    @property
    def y_axis(self) -> np.ndarray:
        return self._axis(1)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def d_d(self) -> float:
        return math.dist(self.bs_pos, self.ue_pos)


@dataclass(frozen=True)
class BerGrid:
    """ber[i][j] is the BER with the BD at (x_axis[j], y_axis[i]).
    Cells at the UE/BS singularities hold NaN and are skipped by the
    contour extractor; every other entry lies in [0, 0.5]."""

    ber: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray
    errors: tuple = ()


# cells per band of rows in which the field and the gaussian BER are
# evaluated: their temporaries scale with the band, not with the map
_BAND_CELLS = 1 << 12


def _field_bands(sc: CoverageScenario):
    """|1+iota|^2 and the singularity mask on the grid, one band of at
    most _BAND_CELLS cells (and at least one row) at a time: yields
    (rows, u, bad) with rows the band's slice of y_axis."""
    x = sc.x_axis
    y = sc.y_axis
    lam = sc.wavelength
    ue = np.asarray(sc.ue_pos, dtype=float)
    bs = np.asarray(sc.bs_pos, dtype=float)
    # leg offsets along each axis; a band's legs broadcast row by column
    sx, sy = x - ue[0], (y - ue[1])[:, None]
    bx, by = x - bs[0], (y - bs[1])[:, None]
    d_d = sc.d_d
    # grid nodes whose cell contains the UE or BS: 1/d singularities
    half_diag = 0.5 * math.hypot(x[1] - x[0], y[1] - y[0])
    step = max(1, _BAND_CELLS // x.size)
    for start in range(0, y.size, step):
        rows = slice(start, start + step)
        d_s = np.hypot(sx, sy[rows])
        d_b = np.hypot(bx, by[rows])
        bad = (d_s <= half_diag) | (d_b <= half_diag)
        with np.errstate(divide="ignore", invalid="ignore"):
            amag, phase = _scatter(d_d, d_s, d_b, lam)
            u = 1.0 + 2.0 * amag * np.cos(phase) + amag * amag
        yield rows, u, bad


def _scatter_fields(sc: CoverageScenario):
    """|1+iota|^2 on the whole grid, plus the singularity mask."""
    shape = (sc.resolution, sc.resolution)
    u = np.empty(shape)
    bad = np.empty(shape, dtype=bool)
    for rows, u_band, bad_band in _field_bands(sc):
        u[rows] = u_band
        bad[rows] = bad_band
    return u, bad


def compute_ber_grid(sc: CoverageScenario) -> BerGrid:
    """BER over the BD-position grid.

    The gaussian engine is evaluated vectorized, a band of rows at a
    time, so beside ber it holds one band's u and temporaries. The
    exact engine runs the series once per distinct u = |1+iota|^2 among
    the non-singular cells, in increasing order with one exact_ber
    table dict, so neighbouring u that share Poisson windows reuse
    their tables (at most two held), and scatters the values back; a u
    whose series fails leaves NaN in each of its cells and one (i, j,
    message) entry per cell in errors, in row-major order, instead of
    aborting the map.
    """
    g = sc.gamma
    ber = np.full((sc.resolution, sc.resolution), np.nan)
    errors = ()
    if sc.engine == "gaussian":
        for rows, u, bad in _field_bands(sc):
            ok = ~bad
            ber[rows][ok] = _gaussian_ber_u(u[ok], g, sc.n_chips * sc.m_sc)
    else:
        # BER depends on a cell only through u: one series per distinct
        # u of the whole grid, scattered back to the cells
        u, bad = _scatter_fields(sc)
        ok = ~bad
        uniq, inv = np.unique(u[ok], return_inverse=True)
        vals = np.empty(uniq.size)
        msgs = {}
        tables = {}
        for k, uv in enumerate(uniq.tolist()):
            p = _params_for_u(uv, g, sc.m_sc, sc.n_chips)
            try:
                vals[k] = exact_ber(p, tables)
            except SeriesError as exc:
                msgs[k] = str(exc)
                vals[k] = np.nan
        ber[ok] = vals[inv]
        if msgs:
            failed = np.isin(inv, list(msgs))
            errors = tuple((i, j, msgs[k]) for (i, j), k
                           in zip(np.argwhere(ok)[failed].tolist(),
                                  inv[failed].tolist()))
    return BerGrid(ber=ber, x_axis=sc.x_axis, y_axis=sc.y_axis,
                   errors=errors)


def range_estimate(sc: CoverageScenario, ber_target: float) -> float:
    """Radius of the largest UE-centered circle on which the BER target
    is still attainable at the worst bearing.

    At distance d_s the interference fringes sweep every phase, so the
    literal angular maximum of BER is 0.5 on any circle wider than a
    fringe. The attainability criterion is therefore the fringe
    envelope at the worst bearing (BD diametrically opposite the BS,
    d_b = d_d + d_s, which minimizes |iota|): the circle is readable
    while (1 + |iota|)^2 >= u*, the |1+iota|^2 the target requires.
    With c = sqrt(u*) - 1 from _required_iota, the crossing
    (lam / 4 pi) d_d / (d_s (d_d + d_s)) = c is the positive root of
    d_s^2 + d_d d_s - t d_d = 0, t = lam / (4 pi c), taken without
    cancellation and divided through by d_d as
    t / (1/2 + hypot(1/2, sqrt(t) / sqrt(d_d))), which holds where d_d^2,
    t / d_d or the k = t d_d of the undivided root overflows (a BS at
    1e300 m and gamma 1e300, or at 1e-160 m). It gives NaN where t
    overflows (c below lam / 2.3e309); sqrt(t) / sqrt(d_d) overflows
    only where the radius, about sqrt(t d_d), is below 5e-140 lam at any
    c the gaussian inverse gives, under the near-field floor below.

    c = 0 (every target met everywhere) returns inf; it occurs only
    where the gaussian inverse's nm (2 gamma + 1) overflows, gamma above
    about 7.8e304 at m_sc n_chips = 1152, since below that c stays above
    1e-170 for every target in (0, 0.5). A radius not above lam * 1e-9,
    deep in the near field, or a NaN c returns NaN with the warning "BER
    target unreachable for this geometry and SNR".
    """
    if not 0.0 < ber_target < 0.5:
        raise ValueError("ber_target must be in (0, 0.5)")
    c = _required_iota(sc, ber_target)
    if c == 0.0:
        return math.inf
    lam = sc.wavelength
    t = lam / (_FOUR_PI * c)
    r = t / (0.5 + math.hypot(0.5, math.sqrt(t) / math.sqrt(sc.d_d)))
    if not r > lam * 1e-9:
        warnings.warn("BER target unreachable for this geometry and SNR")
        return float("nan")
    return r


def _required_iota(sc: CoverageScenario, ber_target: float) -> float:
    """c = sqrt(u*) - 1, the |iota| that ber_target requires, with u*
    the |1+iota|^2 at which the scenario engine's BER hits it.

    Neither engine takes sqrt(u*) - 1 of a u* = 1 + e rounded to a
    double, which loses the digits of e below 2^-53 (all of them at
    320 dB). The gaussian engine takes c = e / (1 + sqrt(1 + e)) from
    the excess e of _excess_for_target: within 1.5e-15 relative of the
    c of the double z = q_inv(ber_target) computed exactly, since its
    13 roundings add at most 13.25 * 2^-53 (tested against mpmath for
    gamma up to 320 dB and targets down to 1e-300; 5.2e-16 was the
    largest). The exact engine refines u* by bisection, its steps
    sharing one exact_ber table dict (late steps lie close together and
    reuse their tables), and takes c = (u* - 1) / (1 + sqrt(u*)),
    within 4.5e-16 relative of sqrt(u*) - 1 for the bisected u*: u* - 1
    is exact for u* <= 2.
    """
    excess = _excess_for_target(ber_target, sc.gamma, sc.m_sc, sc.n_chips)
    if sc.engine == "gaussian":
        return excess / (1.0 + math.sqrt(1.0 + excess))
    # exact BER falls with u > 1; seeded from the gaussian inverse
    tables = {}
    u_star = _decreasing_root(
        lambda u: exact_ber(_params_for_u(u, sc.gamma, sc.m_sc, sc.n_chips),
                            tables) - ber_target,
        1.0 + 1e-12, max(1.0 + excess, 1.0 + 1e-9), 1e-9)
    return (u_star - 1.0) / (1.0 + math.sqrt(u_star))


_MAX_STEPS = 200


def _decreasing_root(f, lo, hi, rel_tol):
    """Root of a decreasing f above lo by bracket and bisection: hi
    doubles until f(hi) < 0, then [lo, hi] halves, keeping f(lo) > 0,
    until hi - lo <= rel_tol * hi, each stage at most _MAX_STEPS times.
    NaN with a warning when f(lo) is not positive or no hi brackets the
    root."""
    if not f(lo) > 0.0:
        warnings.warn("BER target unreachable for this geometry and SNR")
        return float("nan")
    for _ in range(_MAX_STEPS):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        warnings.warn("no finite bracket found for the BER target")
        return float("nan")
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ContourLine:
    """One marching-squares polyline at a fixed BER level. points is an
    (n, 2) array of (x, y) vertices; closed loops repeat the first
    vertex at the end."""

    level: float
    points: np.ndarray


# marching-squares case table: corner bit b0=(i,j) b1=(i,j+1)
# b2=(i+1,j+1) b3=(i+1,j); edges 0=bottom 1=right 2=top 3=left. Rows 5
# and 10 are the saddles whose cell center is at or below the level,
# rows 16 and 17 the same saddles with it above; -1 pads single pairs.
_MS_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    5: [(3, 0), (1, 2)], 6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)],
    9: [(0, 2)], 10: [(0, 3), (2, 1)], 11: [(1, 2)], 12: [(3, 1)],
    13: [(0, 1)], 14: [(0, 3)], 16: [(3, 2), (1, 0)], 17: [(0, 1), (2, 3)],
}
_MS_PAIRS = np.array([(_MS_CASES.get(c, []) + [(-1, -1)] * 2)[:2]
                      for c in range(18)])


def contour_export(grid: BerGrid, levels=DEFAULT_LEVELS) -> list:
    """Extract level-set polylines from the BER grid by marching
    squares with linear edge interpolation.

    Every cell edge has an integer id: the horizontal edge from node
    (i, j) to (i, j + 1) is i (nx - 1) + j, the vertical edge from
    (i, j) to (i + 1, j) is ny (nx - 1) + i nx + j. Segments meeting on
    a shared cell edge are stitched by that id, never by float
    coordinate matching, so loops close exactly. One level's crossings
    are held at a time.
    Squares touching a NaN (sentinel) corner are skipped; levels the
    grid never crosses yield no lines.
    """
    out = []
    finite = np.isfinite(grid.ber)
    ok = (finite[:-1, :-1] & finite[:-1, 1:]
          & finite[1:, 1:] & finite[1:, :-1])
    for level in levels:
        if not 0.0 < level < 0.5:
            raise ValueError("contour levels must be in (0, 0.5)")
        # the level's case codes, segments and unique temporaries are
        # freed before stitching
        node, first, pts = _crossings(grid, ok, level)
        for path in _stitch(node, first):
            out.append(ContourLine(level=float(level), points=pts[path]))
    return out


def _crossings(grid, ok, level):
    """One level's marching-squares segments (node, first) in _stitch's
    form, and pts[k], the interpolated (x, y) of crossed edge node k.
    ok marks the squares with four finite corners."""
    v = grid.ber
    x = grid.x_axis
    y = grid.y_axis
    ny, nx = v.shape
    nh = ny * (nx - 1)
    # interpolate each crossed edge once, from node (i, j) to (ib, jb)
    edge, first, node = np.unique(_segments(v, ok, level).ravel(),
                                  return_index=True, return_inverse=True)
    horiz = edge < nh
    i, j = np.divmod(np.where(horiz, edge, edge - nh),
                     np.where(horiz, nx - 1, nx))
    ib = i + ~horiz
    jb = j + horiz
    # every crossed edge joins a corner above the level to one at or
    # below it, so va != vb
    va = v[i, j]
    vb = v[ib, jb]
    t = (level - va) / (vb - va)
    pts = np.column_stack((x[j] + t * (x[jb] - x[j]),
                           y[i] + t * (y[ib] - y[i])))
    return node.reshape(-1, 2), first, pts


def _segments(v, ok, level):
    """Edge ids of the level's marching-squares segments, one row per
    segment: crossing cells in row-major order, each cell's pairs in
    table order. Squares outside ok have case 0."""
    ny, nx = v.shape
    nh = ny * (nx - 1)
    # a NaN corner compares False, and its square is masked below
    inside = v > level
    case = (inside[:-1, :-1] + 2 * inside[:-1, 1:]
            + 4 * inside[1:, 1:] + 8 * inside[1:, :-1]).astype(np.int8)
    case[~ok] = 0
    # crossing cells in row-major order, their pairs in table order
    ci, cj = np.nonzero((case != 0) & (case != 15))
    c = case[ci, cj]
    sad = np.flatnonzero((c == 5) | (c == 10))
    si, sj = ci[sad], cj[sad]
    center = 0.25 * (v[si, sj] + v[si, sj + 1]
                     + v[si + 1, sj + 1] + v[si + 1, sj])
    up = sad[center > level]
    c[up] = np.where(c[up] == 5, 16, 17)
    hid = ci * (nx - 1) + cj
    vid = nh + ci * nx + cj
    ids = np.stack((hid, vid + 1, hid + nx - 1, vid))
    pairs = _MS_PAIRS[c].reshape(-1, 2)
    cell = np.arange(pairs.shape[0]) // 2
    keep = pairs[:, 0] >= 0
    return ids[pairs[keep], cell[keep, None]]


def _stitch(segs, first):
    """Join segments into maximal polylines.

    segs is an (n, 2) array of node ids 0..m-1 in which every node
    belongs to one or two segments and no two segments join the same
    pair of nodes; first[k] is the position of node k's first
    appearance in segs.ravel(). Open paths start at their degree-1 end
    seen first, in that order; closed loops follow in the order of
    their first segment, walked from its first node to its second, with
    the start repeated at the end.
    """
    flat = segs.ravel()
    # nb[k] holds node k's neighbours, first-seen one first; -1 pads
    nb = np.full((first.size, 2), -1)
    nb[flat, (np.arange(flat.size) != first[flat]).astype(np.intp)] = \
        segs[:, ::-1].ravel()
    # the neighbour of b other than a is nx[b] ^ a: -1 past an end, and
    # an end's one neighbour is nx ^ -1
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
            path.append(b)  # a loop, back at its start
        return path

    ends = np.flatnonzero(nb[:, 1] < 0)
    paths = [walk(s, nx[s] ^ -1)
             for s in ends[np.argsort(first[ends])].tolist() if not seen[s]]
    paths += [walk(a, b) for a, b in zip(*segs.T.tolist()) if not seen[a]]
    return paths
