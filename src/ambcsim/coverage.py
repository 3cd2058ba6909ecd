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

from .ber_theory import (DEFAULT_CONTROL, SeriesControl, SeriesError,
                         _params_for_u, exact_ber, iota_magnitude_for_target)
from .channel import SPEED_OF_LIGHT
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
        amag = (lam / (4.0 * math.pi)) * d_d / (d_s * d_b)
        phase = 2.0 * math.pi * (d_d - d_b - d_s) / lam
        u = 1.0 + 2.0 * amag * np.cos(phase) + amag * amag
    return u, bad


def compute_ber_grid(sc: CoverageScenario,
                     ctl: SeriesControl = DEFAULT_CONTROL) -> BerGrid:
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
                vals[k] = exact_ber(p, ctl)
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
        return (lam / (4.0 * math.pi)) * d_d / (d_s * (d_d + d_s)) - c

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
# b2=(i+1,j+1) b3=(i+1,j); edges 0=bottom 1=right 2=top 3=left
_MS_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(0, 3)],
}


def _edge_key(edge, i, j):
    if edge == 0:
        return ("h", i, j)
    if edge == 1:
        return ("v", i, j + 1)
    if edge == 2:
        return ("h", i + 1, j)
    return ("v", i, j)


def contour_export(grid: BerGrid, levels=DEFAULT_LEVELS) -> list:
    """Extract level-set polylines from the BER grid by marching
    squares with linear edge interpolation.

    Segments meeting on a shared cell edge are stitched by the edge's
    integer key, never by float coordinate matching, so loops close
    exactly. Squares touching a NaN (sentinel) corner are skipped;
    levels the grid never crosses yield no lines.
    """
    out = []
    v = grid.ber
    x = grid.x_axis
    y = grid.y_axis
    finite = np.isfinite(v)
    for level in levels:
        if not 0.0 < level < 0.5:
            raise ValueError("contour levels must be in (0, 0.5)")
        inside = np.where(finite, v > level, False)
        b0 = inside[:-1, :-1]
        b1 = inside[:-1, 1:]
        b2 = inside[1:, 1:]
        b3 = inside[1:, :-1]
        ok = (finite[:-1, :-1] & finite[:-1, 1:]
              & finite[1:, 1:] & finite[1:, :-1])
        case = (b0 + 2 * b1 + 4 * b2 + 8 * b3).astype(np.int8)
        case[~ok] = 0
        segments = []
        for i, j in np.argwhere((case != 0) & (case != 15)):
            c = int(case[i, j])
            if c in (5, 10):
                center = 0.25 * (v[i, j] + v[i, j + 1]
                                 + v[i + 1, j + 1] + v[i + 1, j])
                if c == 5:
                    pairs = [(3, 2), (1, 0)] if center > level \
                        else [(3, 0), (1, 2)]
                else:
                    pairs = [(0, 1), (2, 3)] if center > level \
                        else [(0, 3), (2, 1)]
            else:
                pairs = _MS_SEGMENTS[c]
            for ea, eb in pairs:
                segments.append((_edge_key(ea, i, j), _edge_key(eb, i, j)))
        coords = {}
        for key in {k for seg in segments for k in seg}:
            kind, i, j = key
            if kind == "h":
                va, vb = v[i, j], v[i, j + 1]
                pa = (x[j], y[i])
                pb = (x[j + 1], y[i])
            else:
                va, vb = v[i, j], v[i + 1, j]
                pa = (x[j], y[i])
                pb = (x[j], y[i + 1])
            t = 0.5 if vb == va else (level - va) / (vb - va)
            coords[key] = (pa[0] + t * (pb[0] - pa[0]),
                           pa[1] + t * (pb[1] - pa[1]))
        for keys in _stitch(segments):
            pts = np.array([coords[k] for k in keys])
            out.append(ContourLine(level=float(level), points=pts))
    return out


def _stitch(segments):
    """Join edge-key segments into maximal polylines. Open paths start
    at odd-degree nodes; the rest are closed loops (first key repeated
    at the end)."""
    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    used = set()

    def walk(start):
        path = [start]
        node = start
        while True:
            nxt = None
            for nb in adj[node]:
                e = frozenset((node, nb)) if node != nb else (node, nb)
                if e not in used:
                    nxt = nb
                    used.add(e)
                    break
            if nxt is None:
                return path
            path.append(nxt)
            node = nxt

    paths = []
    for node in adj:
        if len(adj[node]) % 2 == 1:
            while any(frozenset((node, nb)) not in used
                      for nb in adj[node] if nb != node):
                paths.append(walk(node))
    for a, b in segments:
        e = frozenset((a, b)) if a != b else (a, b)
        if e not in used:
            paths.append(walk(a))
    return paths
