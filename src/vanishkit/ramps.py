"""Convolution of atoms and panels by repeated integration.

A test function f is a sum of ramps: with its kink table (c_k, s_k),
f(u) = sum_k s_k (u - c_k)_+ for u <= f.hi.  So for sources mu,
(mu * f)(x) = sum_k s_k R_k(x), where R_k(x) is the integral of
(x - c_k - t) dmu(t) over [x - f.hi, x - c_k): mass times lever minus first
moment, each read from prefix sums.  A grid point costs one query per kink
of f, however many sources it sees (Heckbert, "Filtering by repeated
integration", SIGGRAPH 1986).  ``measures.convolve_grid`` takes this path
for atoms and shallow affine cells where it beats scattering (source, grid
point) pairs, and always for a smooth density.  A source is an atom or a
panel: a density cut at the points the prefix sums are read at (and at
cell edges and the ends of a support), whose mass and first moment come
from the closed form of its cell's line or from quadrature.

Each fixed cost is paid once.  ``_Ramps`` lays its blocks out once and takes
every block's running sums in one pass of a few cumsum calls, however many
blocks there are; ``_Reads`` finds where a chunk of grid points reads them
(the block and ``searchsorted`` position of each query) once, so panels
refined level by level only load new sums and read them again.
"""

from __future__ import annotations

import numpy as np

from .testfunctions import TestFunction

# Pairs per (reached grid point, kink of f + 1) above which atoms or shallow
# cells are summed as ramps rather than scattered as pairs.  A ramp query
# costs what 2 to 4 pairs do, where the two paths broke even: uniform random
# atoms with a hat on a Xeon, and on a 2-vCPU Xeon ex_bf's cells as panels,
# levels 1 to 11 against a hat of half-width 0.25 on grid steps 2e-4 to 1e-3
# (break-even 2 to 3.5; at 4.25, level 5, the pairs took 1.2 to 2.4 times as
# long).  At 4 the ramp is taken only where it is clearly faster.
_RAMP_CROSSOVER = 4.0

# Grid points per evaluation chunk, so each temporary stays near 64 kB, under
# glibc's default 128 kB threshold for mapping an allocation of its own.  At
# 2^14 points each chunk's temporaries were mapped, or trimmed off the heap,
# and faulted in afresh: 50,000 points against ex_nu's densest decay block
# took 2,394 page faults and 14.4 ms of CPU, against none and 8.2 ms here.
_RAMP_CHUNK = 1 << 12

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
    sources are atoms (left = positions, mass = weights) or panels (left =
    left edges, mass = masses, first = first moments about the left edges),
    read only at panel edges, so that a prefix holds whole panels.

    The blocks are laid out once, and ``at`` and ``end`` give positions in
    that layout; ``load`` takes the running sums of one set of masses, so
    panels refined level by level keep their layout and their reads.  Block
    b keeps 0 and then its running sums in a row.  Blocks whose source
    counts share a quarter octave have rows of one width, side by side, so
    one cumsum along the rows per width and per sum adds every block in its
    own order, as a cumsum of that block alone would, bit for bit.
    """

    def __init__(self, left: np.ndarray, span: float) -> None:
        self.left, self.span = left, span
        self.base = float(left[0])
        blocks = np.floor((left - self.base) / span).astype(np.intp)
        self.n = int(blocks[-1]) + 1
        self.anchor = self.base + span * np.arange(self.n)
        self.start = blocks.searchsorted(np.arange(self.n + 1))
        # Block b keeps 0 and then its running sums in a row.  Blocks whose
        # counts share a quarter octave sit side by side in rows as long as
        # their longest, so rows hold under 1.25 times their sources, plus one.
        self.count = np.diff(self.start)
        mant, octave = np.frexp(self.count)
        cls = 4 * octave + np.floor(8.0 * mant)  # nondecreasing in the count
        order = np.argsort(cls, kind="stable")
        ranked = self.count[order]
        cut = (np.flatnonzero(np.diff(cls[order])) + 1).tolist()
        width = np.empty_like(ranked)
        self.rows, lo = [], 0
        for i, j in zip([0, *cut], [*cut, ranked.size]):
            w = int(ranked[i:j].max()) + 1
            width[i:j] = w
            if w > 1:  # an empty block's row holds its 0 alone
                self.rows.append((lo, lo + w * (j - i), w))
            lo += w * (j - i)
        self.size = lo
        row = np.empty_like(width)
        row[order] = np.cumsum(width) - width
        self.shift = row - self.start[:-1]  # source j of block b sits at row[b] + 1 + j - start[b]

    def load(self, mass: np.ndarray, first: np.ndarray | None = None) -> _Ramps:
        """Take the running sums of these masses (and first moments about
        the left edges) of the sources: one cumsum per row width and sum."""
        moment = (self.left - np.repeat(self.anchor, self.count)) * mass
        if first is not None:
            moment += first
        slot = np.repeat(self.shift, self.count)
        slot += np.arange(1, mass.size + 1)
        self.cum_g = np.zeros(self.size, dtype=np.complex128)
        self.cum_h = np.zeros(self.size, dtype=np.complex128)
        for cum, values in ((self.cum_g, mass), (self.cum_h, moment)):
            cum[slot] = values
            for lo, hi, width in self.rows:
                sums = cum[lo:hi].reshape(-1, width)[:, 1:]
                np.cumsum(sums, axis=1, out=sums)
        return self

    def block(self, u: np.ndarray) -> np.ndarray:
        """The block of each u, clamped to the blocks that hold sources."""
        b = np.floor((u - self.base) / self.span).astype(np.intp)
        return np.clip(b, 0, self.n - 1)

    def end(self, b: np.ndarray) -> np.ndarray:
        """Where G and H of all of block b are read."""
        return self.start[b + 1] + self.shift[b]

    def at(self, u: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Where G and H of the part of block b left of u are read.  Each u
        is searched for only among the sources of the blocks from b.min()
        to b.max()."""
        lo, hi = (self.start[b.min()], self.start[b.max() + 1]) if b.size else (0, 0)
        j = np.minimum(np.maximum(self.left[lo:hi].searchsorted(u) + lo, self.start[b]), self.start[b + 1])
        return j + self.shift[b]

    def read(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G and H at what ``at`` or ``end`` gave."""
        return self.cum_g[k], self.cum_h[k]


class _Reads:
    """Where the grid points x read the prefix sums of ramps, for every kink
    c_k of f below f.hi: R_k(x) reads them at x - f.hi and at x - c_k, in at
    most two blocks.  The reads depend on the layout of the ramps, not on
    their sums, so panels refined level by level build them once (``keep``)
    and only load new sums between ``values``.

    Kinks are taken a batch at a time, each batch a row per kink of about
    _RAMP_CHUNK entries: kept, every batch is stored; otherwise each is
    built as ``values`` reaches it.
    """

    def __init__(self, ramps: _Ramps, f: TestFunction, x: np.ndarray, keep: bool = False) -> None:
        self.ramps, self.x = ramps, x
        at, jump = f.kinks
        live = at < f.hi  # a kink at f.hi spans nothing
        self.at, self.jump = at[live], jump[live]
        p = x - f.hi
        self.bp = ramps.block(p)
        self.bn = np.minimum(self.bp + 1, ramps.n - 1)
        self.p, self.end = ramps.at(p, self.bp), ramps.end(self.bp)
        self.xp, self.xn = x - ramps.anchor[self.bp], x - ramps.anchor[self.bn]  # levers, exact near the anchor
        self.batch = max(1, _RAMP_CHUNK // x.size)  # kinks at a time, rows of one array
        self.kept = list(self._batches()) if keep else None

    def _batches(self):
        """Each batch's kinks c and jumps s, as columns, its reads at x - c,
        and whether those lie in the block of x - f.hi."""
        for k in range(0, self.at.size, self.batch):
            c, s = self.at[k : k + self.batch, None], self.jump[k : k + self.batch, None]
            q = self.x - c
            bq = np.minimum(self.ramps.block(q), self.bn)
            yield c, s, self.ramps.at(q, bq), bq == self.bp

    def values(self) -> np.ndarray:
        """sum_k s_k R_k(x), from the sums the ramps hold now."""
        ramps = self.ramps
        gp, hp = ramps.read(self.p)
        g_end, h_end = ramps.read(self.end)
        acc = np.zeros(self.x.size, dtype=np.complex128)
        for c, s, q, one in self._batches() if self.kept is None else self.kept:
            gq, hq = ramps.read(q)
            r = (self.xp - c) * (np.where(one, gq, g_end) - gp) - (np.where(one, hq, h_end) - hp)
            r += np.where(one, 0.0, (self.xn - c) * gq - hq)
            for term in s * r:  # kink by kink, in order
                acc += term
        return acc


def _ramp_into_grid(ramps: _Ramps, f: TestFunction, grid: np.ndarray, span: tuple[int, int], out: np.ndarray) -> None:
    """Add (sources * f)(x) onto out for x in grid[lo:hi], as sum_k s_k R_k(x)
    (_Reads), _RAMP_CHUNK points at a time."""
    lo, hi = span
    for start in range(lo, hi, _RAMP_CHUNK):
        x = grid[start : min(start + _RAMP_CHUNK, hi)]
        out[start : start + x.size] += _Reads(ramps, f, x).values()
