"""|mu|-masses of the subwindows of one window, exact for atoms and
declared affine cells.

A declared cell vc + beta t has the closed-form mass ``_cell_mass``; the
cells of a window's declared pieces are added on the union of their edges
(``_cells_sum``) before |.| is taken.  Smooth pieces enter through a
trapezoid cumulative.  A block of a ``measures`` scan plan reads these on
its own window, with atoms as a cumulative sum of |w|: ``variation_on`` and
``sup_norm_K`` are one-block plans, and ``decay_profile`` takes the mass
bound behind its ``lip_margin`` from the blocks it scans.  Block-sum
validation takes them for the cells of all parts at once.

Affine cells are arrays (a, b, vc, beta) as in ``measures``: density
vc + beta * (s - center) on [a, b], center being the cell midpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import _refine
from .testfunctions import Window

if TYPE_CHECKING:
    from .measures import TransformedDensity, _Cells


def _cell_mass(vc: np.ndarray, beta: np.ndarray, t0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Integral of |vc + beta * t| over t0 <= t <= t0 + d (d >= 0), elementwise.

    With r = vc / beta, u = t + Re r and b = |Im r|, the integral is
    |beta| / 2 times u * sqrt(u^2 + b^2) + b^2 * arsinh(u / b) between the
    ends.  A cell of one phase (b = 0) without a zero inside takes its value
    at the middle times d instead, exact on real cells.  When the two ends
    of u have one sign, both differences are written as quotients of sums,
    u1 - u0 being d and u1 + u0 being 2 u0 + d, so nothing cancels however
    far the zero of the density lies.
    """
    out = np.abs(vc + beta * (t0 + 0.5 * d)) * d
    r = np.divide(vc, beta, out=np.zeros(vc.shape, dtype=np.complex128), where=beta != 0)
    u0, b = t0 + r.real, np.abs(r.imag)
    cross = (u0 < 0.0) & (u0 + d > 0.0)
    live = (beta != 0) & (d > 0.0) & ((b > 0.0) | cross)
    if not np.any(live):
        return out
    u0, b, d, cross = u0[live], b[live], d[live], cross[live]
    u1, b2, total = u0 + d, b * b, 2.0 * u0 + d
    s0, s1 = np.hypot(u0, b), np.hypot(u1, b)
    # b = 0 takes no arsinh term; u / b overflows only where b * b underflows to 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prod = np.where(cross, u1 * s1 - u0 * s0, d * total * (u0 * u0 + u1 * u1 + b2) / (u1 * s1 + u0 * s0))
        arc = np.where(cross, np.arcsinh(u1 / b) - np.arcsinh(u0 / b), np.arcsinh(d * total / (u1 * s0 + u0 * s1)))
        out[live] = 0.5 * np.abs(beta[live]) * (prod + np.where(b2 > 0.0, b2 * arc, 0.0))
    return out


def _trapezoid_rule(step: float) -> Callable:
    """The trapezoid table of a smooth piece for mass queries at spacing
    step: intervals of about half the step, 2,048 to 4,000,000 of them."""

    def table(piece: TransformedDensity, clip: Window) -> tuple[np.ndarray, np.ndarray]:
        h = max(min(step / 2.0, clip.width / 2048.0), clip.width / 4_000_000.0)
        ts = np.linspace(clip.lo, clip.hi, max(1, int(np.ceil(clip.width / h))) + 1 if h > 0.0 else 2)
        return ts, _cumulate(ts, np.abs(piece.evalv(ts)))

    return table


def _cumulate(ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    seg = 0.5 * (vals[:-1] + vals[1:]) * np.diff(ts)
    return np.concatenate(([0.0], np.cumsum(seg)))


def _converged_cum(piece: TransformedDensity, clip: Window, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid cumulative on 128 intervals, doubled until two totals agree to tol.

    Each level keeps the values of the last and evaluates only the new
    midpoints, which np.linspace would place at the same points; the
    cumulative is built once, on the level that converges.
    """

    def levels():
        n, step = 128, clip.width / 128
        ts = np.arange(n + 1) * step + clip.lo
        ts[-1] = clip.hi
        vals = np.abs(piece.evalv(ts))
        total = step * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        yield total, vals
        for _ in range(15):
            step = 0.5 * step
            mids = np.abs(piece.evalv(np.arange(1, 2 * n, 2) * step + clip.lo))
            both = np.empty(2 * n + 1)
            both[0::2], both[1::2] = vals, mids
            n, vals = 2 * n, both
            total = 0.5 * total + step * mids.sum()
            yield total, vals

    vals = _refine(levels(), tol, "variation")[0]
    ts = np.linspace(clip.lo, clip.hi, vals.size)
    return ts, _cumulate(ts, vals)


def _cells_sum(cells: list[_Cells]) -> _Cells:
    """Several pieces' cells added into one density, on the union of their
    edges: each piece is affine on every union cell, so the sum is exact."""
    if len(cells) == 1:
        return cells[0]
    edges = np.unique(np.concatenate([np.concatenate((a, b)) for a, b, _, _ in cells]))
    lo, hi = edges[:-1], edges[1:]
    center = 0.5 * (lo + hi)
    vc = np.zeros(center.size, dtype=np.complex128)
    beta = np.zeros(center.size, dtype=np.complex128)
    for a, b, v, s in cells:
        i = a.searchsorted(center, side="right") - 1
        on = i >= 0
        on[on] = center[on] < b[i[on]]
        i = i[on]
        vc[on] += v[i] + s[i] * (center[on] - 0.5 * (a[i] + b[i]))
        beta[on] += s[i]
    return lo, hi, vc, beta
