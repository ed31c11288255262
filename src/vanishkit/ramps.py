"""Convolution of atoms, affine cells and smooth panels by repeated integration.

A test function f is a sum of ramps: with its kink table (c_k, s_k),
f(u) = sum_k s_k (u - c_k)_+ for u <= f.hi.  So for sources mu,
(mu * f)(x) = sum_k s_k R_k(x), where R_k(x) is the integral of
(x - c_k - t) dmu(t) over [x - f.hi, x - c_k): mass times lever minus first
moment, each read from prefix sums.  A grid point costs one query per kink
of f, however many sources it sees (Heckbert, "Filtering by repeated
integration", SIGGRAPH 1986).  ``measures.convolve_grid`` takes this path
for atoms and cells where it beats scattering (source, grid point) pairs,
and always for a smooth density without bounds on its support, whose
panels, cut at the points the prefix sums are read at, carry their mass and
first moment from quadrature.

Affine cells are arrays (a, b, vc, beta) as in ``measures``: density
vc + beta * (s - center) on [a, b], center being the cell midpoint.
"""

from __future__ import annotations

import numpy as np

from .testfunctions import TestFunction

# Pairs per (reached grid point, kink of f + 1) above which atoms or shallow
# cells are summed as ramps rather than scattered as pairs.  A ramp query
# costs what 2 to 4 pairs do (uniform random atoms, and ex_bf's cells at
# levels 1 to 9, with a hat on a Xeon), where the two paths broke even; at 4
# the ramp is taken only where it is clearly faster.
_RAMP_CROSSOVER = 4.0

# Grid points per evaluation chunk, so each temporary stays near 256 kB.
_RAMP_CHUNK = 1 << 14

def _ramp_span(i0: np.ndarray, i1: np.ndarray, f: TestFunction, extent: float) -> tuple[int, int] | None:
    """The grid span [lo, hi) that sources reaching i0 <= idx < i1 cover, if
    ramp sums over it beat scattering their pairs; None otherwise.

    The sources spread over ``extent``.  Sums over more blocks than there are
    sources would cost more per block than the pairs they replace.
    """
    if i0.size == 0 or extent > i0.size * (f.hi - f.lo):
        return None
    lo, hi = int(i0.min()), int(i1.max())
    pairs = int(np.sum(i1 - i0))
    if pairs <= _RAMP_CROSSOVER * (hi - lo) * (f.kinks[0].size + 1):
        return None
    return lo, hi


class _Ramps:
    """Mass G and first moment H of ascending sources, as prefix sums
    restarted in blocks of one support width L of f.

    Block b holds the sources that lie in [base + b L, base + (b+1) L) and
    takes its moments about its anchor base + b L, so no sum carries more
    than one block's mass and no moment grows with the distance from the
    origin.  An interval no longer than L meets at most two blocks.  The
    sources are atoms (left = positions, masses = weights); panels of a
    smooth density (left = left edges, masses = masses, first = first
    moments about the left edges), read only at panel edges, so that a
    prefix holds whole panels; or affine cells cut at the block edges (left
    = a, masses = vc * width, cells = (a, width, center, vc, beta)), whose
    partial masses and moments are closed forms.
    """

    def __init__(
        self, left: np.ndarray, mass: np.ndarray, span: float, cells: tuple | None = None,
        first: np.ndarray | None = None,
    ) -> None:
        self.left, self.cells, self.span = left, cells, span
        self.base = float(left[0])
        key = left if cells is None else cells[2]
        blocks = np.floor((key - self.base) / span).astype(np.intp)
        self.n = int(blocks[-1]) + 1
        self.anchor = self.base + span * np.arange(self.n)
        self.start = blocks.searchsorted(np.arange(self.n + 1))
        moment = (key - self.anchor[blocks]) * mass
        if cells is not None:
            _, width, _, _, beta = cells
            moment += beta * width**3 / 12.0
        if first is not None:
            moment += first
        # block b keeps 0, then its running sums, at start[b] + b ... start[b + 1] + b
        self.cum_g = np.zeros(left.size + self.n, dtype=np.complex128)
        self.cum_h = np.zeros(left.size + self.n, dtype=np.complex128)
        for b in np.flatnonzero(np.diff(self.start)):
            i, j = self.start[b], self.start[b + 1]
            self.cum_g[i + b + 1 : j + b + 1] = np.cumsum(mass[i:j])
            self.cum_h[i + b + 1 : j + b + 1] = np.cumsum(moment[i:j])

    def block(self, u: np.ndarray) -> np.ndarray:
        """The block of each u, clamped to the blocks that hold sources."""
        b = np.floor((u - self.base) / self.span).astype(np.intp)
        return np.clip(b, 0, self.n - 1)

    def total(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and H of all of block b."""
        k = self.start[b + 1] + b
        return self.cum_g[k], self.cum_h[k]

    def prefix(self, u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and H of the part of block b left of u."""
        first = self.start[b]
        j = np.minimum(np.maximum(self.left.searchsorted(u), first), self.start[b + 1])
        if self.cells is None:
            return self.cum_g[j + b], self.cum_h[j + b]
        # cells first..j-1 start left of u; the last of them may reach past it
        a, width, center, vc, beta = self.cells
        c = j - 1
        w = width[c]
        d = np.minimum(np.maximum(u - a[c], 0.0), w)
        rise = d * (d - w) * 0.5  # integral of (s - center) over [a, a + d]
        g = vc[c] * d + beta[c] * rise
        h = (center[c] - self.anchor[b]) * g + vc[c] * rise + beta[c] * ((d - 0.5 * w) ** 3 + (0.5 * w) ** 3) / 3.0
        some = j > first
        return (np.where(some, self.cum_g[c + b] + g, 0.0), np.where(some, self.cum_h[c + b] + h, 0.0))


def _cell_ramps(cells: tuple, span: float) -> _Ramps:
    """Ramps of affine cells, each cut where a block edge falls inside it."""
    a, b, vc, beta = cells
    base = float(a[0])
    edges = base + span * np.arange(1, int((b[-1] - base) // span) + 2)
    owner = a.searchsorted(edges) - 1
    inside = owner >= 0
    inside[inside] = edges[inside] < b[owner[inside]]
    lefts = np.sort(np.concatenate((a, edges[inside])))
    owner = a.searchsorted(lefts, side="right") - 1
    rights = np.minimum(np.append(lefts[1:], np.inf), b[owner])
    width = rights - lefts
    center = 0.5 * (lefts + rights)
    beta = beta[owner]
    vc = vc[owner] + beta * (center - 0.5 * (a + b)[owner])
    return _Ramps(lefts, vc * width, span, (lefts, width, center, vc, beta))


def _ramp_into_grid(ramps: _Ramps, f: TestFunction, grid: np.ndarray, span: tuple[int, int], out: np.ndarray) -> None:
    """Add (sources * f)(x) onto out for x in grid[lo:hi], as sum_k s_k R_k(x).

    R_k(x) reads the prefix sums at x - f.hi and at x - c_k, in at most two
    blocks; a kink at f.hi spans nothing.
    """
    at, jump = f.kinks
    live = at < f.hi
    at, jump = at[live], jump[live]
    lo, hi = span
    for start in range(lo, hi, _RAMP_CHUNK):
        x = grid[start : min(start + _RAMP_CHUNK, hi)]
        p = x - f.hi
        bp = ramps.block(p)
        bn = np.minimum(bp + 1, ramps.n - 1)
        gp, hp = ramps.prefix(p, bp)
        g_end, h_end = ramps.total(bp)
        xp, xn = x - ramps.anchor[bp], x - ramps.anchor[bn]  # levers, exact near the anchor
        acc = np.zeros(x.size, dtype=np.complex128)
        batch = max(1, _RAMP_CHUNK // x.size)  # kinks at a time, rows of one array
        for k in range(0, at.size, batch):
            c, s = at[k : k + batch, None], jump[k : k + batch, None]
            q = x - c
            bq = np.minimum(ramps.block(q), bn)
            gq, hq = ramps.prefix(q, bq)
            one = bq == bp
            r = (xp - c) * (np.where(one, gq, g_end) - gp) - (np.where(one, hq, h_end) - hp)
            r += np.where(one, 0.0, (xn - c) * gq - hq)
            for term in s * r:  # kink by kink, in order
                acc += term
        out[start : start + x.size] += acc
