"""Spatial BER mapping around the UE.

Sweeps the BD position over a grid with UE and BS fixed, evaluates the
link BER per cell from the scatter ratio, extracts contour polylines,
and estimates the reliable reading range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ber_theory import (SeriesError, _params_for_u, exact_ber,
                         iota_magnitude_for_target)
from .channel import SPEED_OF_LIGHT, _scatter
from .specfun import q_func

DEFAULT_LEVELS = (0.4, 0.3, 0.2, 0.1, 0.05, 0.01)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular BD-position grid, resolution points per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int = 200

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must be non-degenerate")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.resolution)

    @property
    def y_axis(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.resolution)


def centered_grid(center, half_span: float = 2.0,
                  resolution: int = 200) -> GridSpec:
    """Square grid of the given half width around a point. The default
    4 m x 4 m window resolves the half wavelength interference fringes
    at UHF carriers."""
    cx, cy = float(center[0]), float(center[1])
    return GridSpec(cx - half_span, cx + half_span,
                    cy - half_span, cy + half_span, resolution)


@dataclass(frozen=True)
class CoverageScenario:
    """Fixed UE/BS geometry plus link and grid settings for a map."""

    bs_pos: tuple
    ue_pos: tuple
    carrier_freq_hz: float
    gamma: float
    m_sc: int = 288
    n_chips: int = 4
    grid: GridSpec = field(default_factory=lambda: centered_grid((0.0, 0.0)))
    engine: str = "gaussian"

    def __post_init__(self):
        if self.carrier_freq_hz <= 0.0:
            raise ValueError("carrier_freq_hz must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive (linear SNR)")
        if self.m_sc < 1 or self.n_chips < 1:
            raise ValueError("m_sc and n_chips must be positive")
        if self.engine not in ("exact", "gaussian"):
            raise ValueError(f"unknown engine: {self.engine}")
        if tuple(self.bs_pos) == tuple(self.ue_pos):
            raise ValueError("bs_pos and ue_pos must differ")

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


def _scatter_fields(sc: CoverageScenario):
    """|iota| and |1+iota|^2 on the grid, plus the singularity mask."""
    x = sc.grid.x_axis
    y = sc.grid.y_axis
    xx, yy = np.meshgrid(x, y)
    lam = sc.wavelength
    ue = np.asarray(sc.ue_pos, dtype=float)
    bs = np.asarray(sc.bs_pos, dtype=float)
    d_s = np.hypot(xx - ue[0], yy - ue[1])
    d_b = np.hypot(xx - bs[0], yy - bs[1])
    d_d = sc.d_d
    # grid nodes whose cell contains the UE or BS: 1/d singularities
    half_diag = 0.5 * math.hypot(x[1] - x[0], y[1] - y[0])
    bad = (d_s <= half_diag) | (d_b <= half_diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        amag, phase = _scatter(d_d, d_s, d_b, lam)
        u = 1.0 + 2.0 * amag * np.cos(phase) + amag * amag
    return u, bad


def compute_ber_grid(sc: CoverageScenario) -> BerGrid:
    """BER over the BD-position grid.

    The gaussian engine is evaluated vectorized. The exact engine runs
    the series once per distinct u = |1+iota|^2 among the non-singular
    cells and scatters the values back; a u whose series fails leaves
    NaN in each of its cells and one (i, j, message) entry per cell in
    errors, in row-major order, instead of aborting the map.
    """
    u, bad = _scatter_fields(sc)
    g = sc.gamma
    nm = sc.n_chips * sc.m_sc
    if sc.engine == "gaussian":
        num = nm * (g * (u - 1.0)) ** 2
        den = 4.0 * (1.0 + g * (u + 1.0))
        # singular cells carry inf in u and come out NaN by design
        with np.errstate(invalid="ignore"):
            ber = q_func(np.sqrt(num / den))
        errors = ()
    else:
        # BER depends on a cell only through u: one series per distinct
        # u, scattered back to the cells
        ok = ~bad
        uniq, inv = np.unique(u[ok], return_inverse=True)
        vals = np.empty(uniq.size)
        msgs = {}
        for k, uv in enumerate(uniq.tolist()):
            p = _params_for_u(uv, g, sc.m_sc, sc.n_chips)
            try:
                vals[k] = exact_ber(p)
            except SeriesError as exc:
                msgs[k] = str(exc)
                vals[k] = np.nan
        ber = np.full_like(u, np.nan)
        ber[ok] = vals[inv]
        errors = tuple((i, j, msgs[k]) for (i, j), k
                       in zip(np.argwhere(ok).tolist(), inv.tolist())
                       if k in msgs)
    ber = np.where(bad, np.nan, ber)
    return BerGrid(ber=ber, x_axis=sc.grid.x_axis, y_axis=sc.grid.y_axis,
                   errors=errors)


def range_estimate(sc: CoverageScenario, ber_target: float) -> float:
    """Radius of the largest UE-centered circle on which the BER target
    is still attainable at the worst bearing.

    At distance d_s the interference fringes sweep every phase, so the
    literal angular maximum of BER is 0.5 on any circle wider than a
    fringe. The attainability criterion is therefore the fringe
    envelope at the worst bearing (BD diametrically opposite the BS,
    d_b = d_d + d_s, which minimizes |iota|): the circle is readable
    while (1 + |iota|)^2 >= |1+iota|^2 required for the target. The
    envelope magnitude is monotone in d_s, so bisection refines the
    crossing. Unreachable targets return NaN with a warning.
    """
    if not 0.0 < ber_target < 0.5:
        raise ValueError("ber_target must be in (0, 0.5)")
    u_star = iota_magnitude_for_target(ber_target, sc.gamma, sc.m_sc,
                                       sc.n_chips)
    if sc.engine == "exact":
        u_star = _exact_u_for_target(sc, ber_target, u_star)
    c = math.sqrt(u_star) - 1.0
    lam = sc.wavelength
    d_d = sc.d_d

    def excess(d_s):
        return _scatter(d_d, d_s, d_d + d_s, lam)[0] - c

    lo = lam * 1e-9
    if excess(lo) <= 0.0:
        warnings.warn("BER target unreachable at any range for this "
                      "geometry and SNR")
        return float("nan")
    hi = lam
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        hi *= 2.0
    else:
        warnings.warn("no finite range bracket found")
        return float("nan")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def _exact_u_for_target(sc, ber_target, u_guess):
    """|1+iota|^2 achieving ber_target under the exact engine, found by
    bisection seeded from the gaussian inverse (exact BER is monotone
    decreasing in u for u > 1)."""

    def ber_at(u):
        return exact_ber(_params_for_u(u, sc.gamma, sc.m_sc, sc.n_chips))

    lo, hi = 1.0 + 1e-12, max(u_guess, 1.0 + 1e-9)
    for _ in range(100):
        if ber_at(hi) < ber_target:
            break
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ber_at(mid) > ber_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * hi:
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
    (i, j) to (i + 1, j) is ny (nx - 1) + i nx + j. Segments meeting on a shared cell edge are stitched by that id,
    never by float coordinate matching, so loops close exactly.
    Squares touching a NaN (sentinel) corner are skipped; levels the
    grid never crosses yield no lines.
    """
    out = []
    v = grid.ber
    x = grid.x_axis
    y = grid.y_axis
    ny, nx = v.shape
    nh = ny * (nx - 1)
    finite = np.isfinite(v)
    ok = (finite[:-1, :-1] & finite[:-1, 1:]
          & finite[1:, 1:] & finite[1:, :-1])
    for level in levels:
        if not 0.0 < level < 0.5:
            raise ValueError("contour levels must be in (0, 0.5)")
        inside = np.where(finite, v > level, False)
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
        segs = ids[pairs[keep], cell[keep, None]]
        # interpolate each crossed edge once, from node (i, j) to (ib, jb)
        edge, first, node = np.unique(segs.ravel(), return_index=True,
                                      return_inverse=True)
        horiz = edge < nh
        i, j = np.divmod(np.where(horiz, edge, edge - nh),
                         np.where(horiz, nx - 1, nx))
        ib = i + ~horiz
        jb = j + horiz
        va = v[i, j]
        vb = v[ib, jb]
        t = np.where(vb == va, 0.5, (level - va) / (vb - va))
        pts = np.column_stack((x[j] + t * (x[jb] - x[j]),
                               y[i] + t * (y[ib] - y[i])))
        for path in _stitch(node.reshape(-1, 2), first):
            out.append(ContourLine(level=float(level), points=pts[path]))
    return out


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
    n0, n1 = nb[:, 0].tolist(), nb[:, 1].tolist()
    seen = [False] * first.size

    def walk(a, b):
        path = [a]
        seen[a] = True
        while b >= 0 and not seen[b]:
            path.append(b)
            seen[b] = True
            a, b = b, (n1[b] if n0[b] == a else n0[b])
        if b >= 0:
            path.append(b)  # a loop, back at its start
        return path

    ends = np.flatnonzero(nb[:, 1] < 0)
    paths = [walk(s, n0[s]) for s in ends[np.argsort(first[ends])].tolist()
             if not seen[s]]
    paths += [walk(a, b) for a, b in segs.tolist() if not seen[a]]
    return paths
