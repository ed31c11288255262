"""Measure expressions on the line and their windowed operations.

A measure is described by a small expression tree built from two leaves
(pure-point atom sources and absolutely continuous density sources) and
four combinators (translate, reflect-conjugate, complex scale, finite sum).
Nothing is ever truncated globally: every operation resolves the tree
against one finite window at a time, so sources backed by infinite
families only enumerate what the window can see.

Conventions used throughout:

* windows are closed; atoms sitting exactly on an endpoint are included;
* atoms at the same representable position are merged by adding weights,
  and exact-zero results are dropped;
* the reflection combinator realizes ``mu~ = conj(mu(-.))``, so an atom
  ``w`` at ``p`` maps to ``conj(w)`` at ``-p`` and a density ``rho`` maps
  to ``conj(rho(-.))``.

Convolution against a piecewise-linear test function is exact (to
rounding) whenever a density declares its own piecewise-affine structure
through ``knots``; genuinely smooth densities fall back to Gauss-Legendre
quadrature on the panels between the kinks of the test function, with
refinement-based error control.  Where atoms and shallow cells are dense,
they are summed by repeated integration instead (``ramps``).

Affine cells are always tracked as (value at cell center, slope).  A
global intercept would lose all precision on steep narrow cells far from
the origin, where intercept and slope-times-position cancel to a small
value.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgument, QuadratureError
from .masses import _converged_cum, _MassTable, _trapezoid_cum
from .ramps import _cell_ramps, _ramp_into_grid, _ramp_span, _Ramps
from .testfunctions import TestFunction, Window

__all__ = [
    "Atom",
    "AtomSource",
    "FiniteAtoms",
    "LatticeComb",
    "DensitySource",
    "ConstantDensity",
    "IndicatorDensity",
    "TriangleDensity",
    "FunctionDensity",
    "MeasureExpr",
    "PurePoint",
    "AbsCont",
    "Translate",
    "ReflectConj",
    "Scale",
    "Sum",
    "ResolvedWindow",
    "resolve_window",
    "atoms_in",
    "convolve",
    "convolve_grid",
    "variation_on",
    "sup_norm_K",
    "seminorm_pg",
]

_GL2 = (-0.5773502691896257, 0.5773502691896257)  # Gauss-Legendre 2 on [-1, 1]

# Gauss-Legendre 4 on [-1, 1]
_GL4_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL4_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


class Atom(NamedTuple):
    position: float
    weight: complex


# ---------------------------------------------------------------------------
# Leaf sources
# ---------------------------------------------------------------------------


class AtomSource(abc.ABC):
    """A (possibly infinite) family of weighted atoms, queried per window.

    ``enumerate_window`` must return each position at most once, include
    atoms lying exactly on the window endpoints, and be consistent across
    windows: restricting the result of a larger window to a smaller one
    yields exactly the result for the smaller window.
    """

    @abc.abstractmethod
    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        """Return (positions, weights) arrays for atoms with position in w."""


# The most atoms one window of a comb, or one block-sum input, may hold:
# 240 MB of position and weight columns.
_MAX_ATOMS = 10**7


def _check_atom_count(count: int, source: AtomSource, w: Window) -> None:
    """Refuse to enumerate more than _MAX_ATOMS candidates, counted in closed form."""
    if count > _MAX_ATOMS:
        raise InvalidArgument(f"{source!r} holds more than {_MAX_ATOMS} atoms in [{w.lo}, {w.hi}]")


class FiniteAtoms(AtomSource):
    """An explicit finite atom list; coincident positions merge at build time."""

    def __init__(self, atoms: Sequence[tuple[float, complex]] | np.ndarray) -> None:
        arr = _as_complex(atoms)
        if arr.shape == (0,):
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidArgument(f"atoms must be (position, weight) pairs, got shape {arr.shape}")
        self.positions, self.weights = _merge(*_atom_columns(arr[:, 0], arr[:, 1]))

    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        lo = self.positions.searchsorted(w.lo, side="left")
        hi = self.positions.searchsorted(w.hi, side="right")
        return self.positions[lo:hi], self.weights[lo:hi]

    def __repr__(self) -> str:
        return f"FiniteAtoms(n={self.positions.size})"


def _as_complex(values: object) -> np.ndarray:
    try:
        return np.array(values, dtype=np.complex128)
    except (TypeError, ValueError):
        raise InvalidArgument("atoms must be given as numbers")


def _atom_columns(positions: object, weights: object) -> tuple[np.ndarray, np.ndarray]:
    """Atom positions as float64 and weights as complex128, one weight per
    position, all finite and the positions real; else InvalidArgument."""
    pos, wts = _as_complex(positions), _as_complex(weights)
    if pos.ndim != 1 or wts.shape != pos.shape:
        raise InvalidArgument(f"need one weight per atom position, got shapes {pos.shape} and {wts.shape}")
    if not (np.isfinite(pos).all() and np.isfinite(wts).all()):
        raise InvalidArgument("atom positions and weights must be finite")
    if np.count_nonzero(pos.imag):
        raise InvalidArgument("atom positions must be real")
    return np.ascontiguousarray(pos.real), wts


class LatticeComb(AtomSource):
    """Atoms at ``offset + spacing * n`` for all integers n.

    ``weight_fn`` maps an integer index array to complex weights; indices
    whose weight is exactly zero are dropped.
    """

    def __init__(
        self,
        spacing: float,
        offset: float = 0.0,
        weight_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if not (0 < spacing < np.inf):
            raise InvalidArgument(f"spacing must be positive and finite, got {spacing}")
        if not np.isfinite(offset):
            raise InvalidArgument(f"offset must be finite, got {offset}")
        self.spacing = float(spacing)
        self.offset = float(offset)
        self.weight_fn = (
            weight_fn
            if weight_fn is not None
            else (lambda n: np.ones(n.shape, dtype=np.complex128))
        )

    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        lim = np.iinfo(np.intp).max // 4  # bounds the indices and so their count
        q_lo, q_hi = ((x - self.offset) / self.spacing for x in (w.lo, w.hi))
        if not (abs(q_lo) < lim and abs(q_hi) < lim):
            raise InvalidArgument(f"window {w} holds lattice indices beyond the index range")
        first, last = math.ceil(q_lo - 1e-9), math.floor(q_hi + 1e-9)
        _check_atom_count(last - first + 1, self, w)
        n = np.arange(first, last + 1)
        pos = self.offset + self.spacing * n
        keep = (pos >= w.lo) & (pos <= w.hi)
        n, pos = n[keep], pos[keep]
        wts = np.asarray(self.weight_fn(n), dtype=np.complex128)
        nz = wts != 0
        return pos[nz], wts[nz]

    def __repr__(self) -> str:
        return f"LatticeComb(spacing={self.spacing}, offset={self.offset})"


class DensitySource(abc.ABC):
    """Density of an absolutely continuous component.

    Subclasses with piecewise-affine structure override ``knots`` to return
    the structure points inside a window; between consecutive knots (and
    the window edges) the density must be affine.  Smooth densities keep
    the default ``knots -> None`` and are integrated by quadrature.
    ``support`` of None means the whole line.
    """

    support: Window | None = None

    @abc.abstractmethod
    def evalv(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized pointwise values."""

    def knots(self, w: Window) -> np.ndarray | None:
        return None


class ConstantDensity(DensitySource):
    """A constant density, by default Lebesgue measure itself."""

    def __init__(self, value: complex = 1.0, support: Window | None = None) -> None:
        self.value = complex(value)
        self.support = support

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(xs), self.value, dtype=np.complex128)

    def knots(self, w: Window) -> np.ndarray:
        return np.empty(0)

    def __repr__(self) -> str:
        return f"ConstantDensity(value={self.value}, support={self.support})"


class IndicatorDensity(DensitySource):
    """``value`` on [a, b], zero elsewhere."""

    def __init__(self, a: float, b: float, value: complex = 1.0) -> None:
        if not (b > a):
            raise InvalidArgument(f"need b > a, got [{a}, {b}]")
        self.support = Window(a, b)
        self.value = complex(value)

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= self.support.lo) & (xs <= self.support.hi)
        return np.where(inside, self.value, 0.0).astype(np.complex128)

    def knots(self, w: Window) -> np.ndarray:
        return np.empty(0)

    def __repr__(self) -> str:
        return f"IndicatorDensity([{self.support.lo}, {self.support.hi}], value={self.value})"


class TriangleDensity(DensitySource):
    """Tent density: peak ``height`` at ``center``, zero ``halfwidth`` away."""

    def __init__(self, center: float = 0.0, halfwidth: float = 1.0, height: complex = 1.0) -> None:
        if not (halfwidth > 0):
            raise InvalidArgument(f"halfwidth must be positive, got {halfwidth}")
        self.center = float(center)
        self.halfwidth = float(halfwidth)
        self.height = complex(height)
        self.support = Window(center - halfwidth, center + halfwidth)

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        t = 1.0 - np.abs(xs - self.center) / self.halfwidth
        return self.height * np.maximum(t, 0.0)

    def knots(self, w: Window) -> np.ndarray:
        k = np.array([self.center])
        return k[(k > w.lo) & (k < w.hi)]

    def __repr__(self) -> str:
        return f"TriangleDensity(center={self.center}, halfwidth={self.halfwidth})"


class FunctionDensity(DensitySource):
    """Smooth density given by a vectorized callable (quadrature path)."""

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        support: Window | None = None,
        label: str = "function",
    ) -> None:
        self._fn = fn
        self.support = support
        self.label = label

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(xs, dtype=float)), dtype=np.complex128)

    def __repr__(self) -> str:
        return f"FunctionDensity({self.label})"


# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------


class MeasureExpr:
    """Base class for measure expressions; leaves and combinators below."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class PurePoint(MeasureExpr):
    source: AtomSource


@dataclass(frozen=True, eq=False)
class AbsCont(MeasureExpr):
    density: DensitySource


@dataclass(frozen=True, eq=False)
class Translate(MeasureExpr):
    t: float
    child: MeasureExpr


@dataclass(frozen=True, eq=False)
class ReflectConj(MeasureExpr):
    child: MeasureExpr


@dataclass(frozen=True, eq=False)
class Scale(MeasureExpr):
    c: complex
    child: MeasureExpr


@dataclass(frozen=True, eq=False)
class Sum(MeasureExpr):
    children: tuple[MeasureExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


class TransformedDensity:
    """A density source pushed through translate/reflect/scale combinators.

    Represents ``x -> scale * C^e( base(sign * (x - shift)) )`` where C is
    complex conjugation applied ``e`` in {0, 1} times and sign is +-1.
    """

    __slots__ = ("base", "sign", "shift", "conj", "scale")

    def __init__(self, base: DensitySource, sign: int, shift: float, conj: int, scale: complex) -> None:
        self.base = base
        self.sign = sign
        self.shift = shift
        self.conj = conj
        self.scale = scale

    def _pre_window(self, w: Window) -> Window:
        a = self.sign * (w.lo - self.shift)
        b = self.sign * (w.hi - self.shift)
        return Window(min(a, b), max(a, b))

    @property
    def support(self) -> Window | None:
        base = self.base.support
        if base is None:
            return None
        a = self.sign * base.lo + self.shift
        b = self.sign * base.hi + self.shift
        return Window(min(a, b), max(a, b))

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        vals = self.base.evalv(self.sign * (np.asarray(xs, dtype=float) - self.shift))
        if self.conj:
            vals = np.conj(vals)
        return self.scale * vals

    def knots(self, w: Window) -> np.ndarray | None:
        base = self.base.knots(self._pre_window(w))
        if base is None:
            return None
        mapped = self.sign * base + self.shift
        return np.sort(mapped)

    def __repr__(self) -> str:
        return (
            f"TransformedDensity({self.base!r}, sign={self.sign}, "
            f"shift={self.shift}, conj={self.conj}, scale={self.scale})"
        )


@dataclass(frozen=True)
class ResolvedWindow:
    """Everything a measure puts inside one window: merged atoms + densities."""

    positions: np.ndarray
    weights: np.ndarray
    pieces: tuple[TransformedDensity, ...]

    @property
    def atoms(self) -> list[Atom]:
        return [Atom(float(p), complex(w)) for p, w in zip(self.positions, self.weights)]


def _merge(pos: np.ndarray, wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge exactly equal positions by adding weights; drop exact zeros."""
    if pos.size == 0:
        return pos.astype(float), wts.astype(np.complex128)
    if (pos[1:] > pos[:-1]).all():  # sorted and distinct already
        uniq = pos
        acc = np.zeros(pos.size, dtype=np.complex128) + wts
    else:
        uniq, inv = np.unique(pos, return_inverse=True)
        acc = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(acc, inv, wts)
    keep = acc != 0
    return uniq[keep], acc[keep]


def _resolve_parts(
    exprs: Sequence[MeasureExpr], w: Window
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[TransformedDensity]]]:
    """Resolve several expressions against one window in one pass.

    Walks each tree once, pushing the combinator stack down to the leaves:
    atom sources are enumerated on the pre-image of the window (a reflected
    leaf is reversed, so it comes out ascending too), and each reachable
    density is wrapped with its accumulated transform.  The atoms of all
    expressions are laid out flat, expression by expression, the leaves of
    one expression in the order of their first atoms, and each expression's
    atoms are merged on their own (_merge_runs).
    Returns (positions, weights, atom count per expression, pieces per
    expression).
    """
    pos_parts: list[np.ndarray] = []
    wt_parts: list[np.ndarray] = []
    owners: list[int] = []
    pieces: list[list[TransformedDensity]] = [[] for _ in exprs]

    def walk(node: MeasureExpr, i: int, sign: int, shift: float, conj: int, scale: complex) -> None:
        if isinstance(node, PurePoint):
            if sign == 1:
                pre = Window(w.lo - shift, w.hi - shift)
            else:
                pre = Window(shift - w.hi, shift - w.lo)
            pos, wts = node.source.enumerate_window(pre)
            if pos.size:
                wts = np.conj(wts) if conj else np.asarray(wts, dtype=np.complex128)
                pos, wts = sign * pos + shift, scale * wts
                pos_parts.append(pos if sign == 1 else pos[::-1])
                wt_parts.append(wts if sign == 1 else wts[::-1])
                owners.append(i)
        elif isinstance(node, AbsCont):
            piece = TransformedDensity(node.density, sign, shift, conj, scale)
            sup = piece.support
            if sup is None or sup.intersect(w) is not None:
                pieces[i].append(piece)
        elif isinstance(node, Translate):
            walk(node.child, i, sign, shift + sign * node.t, conj, scale)
        elif isinstance(node, ReflectConj):
            walk(node.child, i, -sign, shift, 1 - conj, scale)
        elif isinstance(node, Scale):
            c = np.conj(node.c) if conj else node.c
            walk(node.child, i, sign, shift, conj, scale * complex(c))
        elif isinstance(node, Sum):
            for child in node.children:
                walk(child, i, sign, shift, conj, scale)
        else:
            raise InvalidArgument(f"unknown measure expression node: {node!r}")

    for i, mu in enumerate(exprs):
        first = len(pos_parts)
        walk(mu, i, 1, 0.0, 0, 1.0 + 0.0j)
        if len(pos_parts) - first > 1:  # leaves by first atom: disjoint ones need no merge
            order = sorted(range(first, len(pos_parts)), key=lambda j: pos_parts[j][0])
            pos_parts[first:] = [pos_parts[j] for j in order]
            wt_parts[first:] = [wt_parts[j] for j in order]
    n = len(exprs)
    if not pos_parts:
        return np.empty(0), np.empty(0, dtype=np.complex128), np.zeros(n, dtype=np.intp), pieces
    counts = np.bincount(np.repeat(owners, [p.size for p in pos_parts]), minlength=n)
    return (*_merge_runs(np.concatenate(pos_parts), np.concatenate(wt_parts), counts), pieces)


def _merge_runs(pos: np.ndarray, wts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_merge on each run of atoms, run i counts[i] long, in one vectorised pass.

    A run already ascending and distinct only loses its exact zeros; the runs
    out of order or repeated go through _merge.  Returns (positions, weights,
    counts).
    """
    n = counts.size
    part = np.repeat(np.arange(n), counts)
    bad = np.unique(part[1:][(part[1:] == part[:-1]) & ~(pos[1:] > pos[:-1])])
    if bad.size:
        counts = counts.copy()
        starts = counts.cumsum() - counts
        pos_runs: list[np.ndarray] = []
        wt_runs: list[np.ndarray] = []
        done = 0
        for i in bad.tolist():
            lo, hi = int(starts[i]), int(starts[i] + counts[i])
            merged = _merge(pos[lo:hi], wts[lo:hi])
            pos_runs += [pos[done:lo], merged[0]]
            wt_runs += [wts[done:lo], merged[1]]
            counts[i] = merged[0].size
            done = hi
        pos = np.concatenate(pos_runs + [pos[done:]])
        wts = np.concatenate(wt_runs + [wts[done:]])
        part = np.repeat(np.arange(n), counts)
    wts = np.zeros(wts.size, dtype=np.complex128) + wts  # as _merge's sorted path
    keep = wts != 0
    if not keep.all():
        pos, wts = pos[keep], wts[keep]
        counts = np.bincount(part[keep], minlength=n)
    return pos, wts, counts


def resolve_window(mu: MeasureExpr, w: Window) -> ResolvedWindow:
    """Resolve an expression against a window: its merged atoms and its
    density pieces (see _resolve_parts, of which this is the one-expression
    case)."""
    pos, wts, _, pieces = _resolve_parts((mu,), w)
    return ResolvedWindow(pos, wts, tuple(pieces[0]))


def atoms_in(mu: MeasureExpr, w: Window) -> list[Atom]:
    """Merged, position-sorted atoms of mu inside the closed window w."""
    return resolve_window(mu, w).atoms


# ---------------------------------------------------------------------------
# Affine cells
# ---------------------------------------------------------------------------


# Affine cells as arrays (a, b, vc, beta): density vc + beta * (s - center)
# on [a, b], center being the cell midpoint.
_Cells = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _affine_cells(piece: TransformedDensity, clip: Window) -> _Cells | None:
    """Split the clipped window into affine cells.

    Returns None when the density does not declare structure.  Cells where
    the density vanishes identically are dropped.  One evalv call samples
    every cell at its two interior third-points.
    """
    knots = piece.knots(clip)
    if knots is None:
        return None
    inner = knots[(knots > clip.lo) & (knots < clip.hi)]
    edges = np.concatenate(([clip.lo], inner, [clip.hi]))
    a, b = edges[:-1], edges[1:]
    width = b - a
    s1 = a + width / 3.0
    s2 = b - width / 3.0
    g = piece.evalv(np.concatenate((s1, s2)))
    g1, g2 = g[: a.size], g[a.size :]
    # Sub-ulp cells collapse the sample points; treat them as flat.
    sloped = s2 > s1
    beta = np.zeros(a.size, dtype=np.complex128)
    np.divide(g2 - g1, s2 - s1, out=beta, where=sloped)
    vc = 0.5 * (g1 + g2)  # midpoint of s1, s2 is the cell center
    live = (width > 0.0) & ((vc != 0) | (beta != 0))
    return a[live], b[live], vc[live], beta[live]


# ---------------------------------------------------------------------------
# Quadrature for smooth (undeclared) densities
# ---------------------------------------------------------------------------


def _panel_nodes(edges: np.ndarray, splits: int) -> tuple[np.ndarray, np.ndarray]:
    """GL4 nodes and weights in u on the panels between consecutive edges,
    each panel split 2**splits ways."""
    sub = 2**splits
    width = np.diff(edges) / sub
    mid = (edges[:-1, None] + width[:, None] * (np.arange(sub) + 0.5)[None, :]).ravel()
    half = np.repeat(0.5 * width, sub)
    nodes = (mid[:, None] + half[:, None] * _GL4_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL4_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _smooth_convolution(
    piece: TransformedDensity, f: TestFunction, xs: np.ndarray, u_lo: float, u_hi: float, tol: float
) -> np.ndarray:
    """Integral of f(u) * density(x - u) over [u_lo, u_hi], for each x in xs.

    GL4 on panels whose edges are u_lo, the kinks of f strictly inside,
    and u_hi.  f is affine on each panel, so the rule converges as fast as
    the density allows.  Every panel is split 2**s ways for s = 0, 1, ...
    until two levels agree to tol at every x.  The deepest level is
    6 + ceil(log2(widest panel / f.step)), which splits every panel into
    pieces no wider than f.step / 64.
    """
    kinks = f.kinks[0]
    edges = np.concatenate(([u_lo], kinks[(kinks > u_lo) & (kinks < u_hi)], [u_hi]))
    # knot-to-knot panels span a whole number of cells up to rounding
    cells = int(np.ceil(float(np.max(np.diff(edges))) / f.step - 1e-9))
    depth = 6 + max(0, cells - 1).bit_length()

    def values(splits: int) -> np.ndarray:
        nodes, weights = _panel_nodes(edges, splits)
        wf = weights * f.values(nodes)
        acc = np.empty(xs.size, dtype=np.complex128)
        chunk = max(1, int(2_000_000 // max(nodes.size, 1)))
        for start in range(0, xs.size, chunk):
            part = xs[start : start + chunk]
            acc[start : start + chunk] = (piece.evalv(part[:, None] - nodes[None, :]) * wf).sum(axis=1)
        return acc

    prev = values(0)
    for splits in range(1, depth + 1):
        cur = values(splits)
        delta = float(np.max(np.abs(cur - prev)))
        if delta <= tol:
            return cur
        prev = cur
    raise QuadratureError("density quadrature did not converge", delta)


def _piece_into_grid(
    piece: TransformedDensity,
    f: TestFunction,
    grid: np.ndarray,
    out: np.ndarray,
    tol: float,
) -> None:
    """Add the convolution of one density piece with f onto out (over grid)."""
    hull = Window(grid[0] - f.hi, grid[-1] - f.lo)
    sup = piece.support
    clip = hull if sup is None else hull.intersect(sup)
    if clip is None:
        return
    cells = _affine_cells(piece, clip)
    if cells is not None:
        _scatter_cells(cells, f, grid, out)
        return
    # Smooth path.  When the support covers every shifted window, the
    # integral is sum_j W_j * rho(x - u_j) with x-independent nodes.
    if sup is None or (sup.lo <= hull.lo and hull.hi <= sup.hi):
        out += _smooth_convolution(piece, f, grid, f.lo, f.hi, tol)
        return
    # Bounded smooth support that the hull sticks out of: point by point,
    # with the ends of the support inside the reach of f as panel edges.
    i0 = np.searchsorted(grid, clip.lo + f.lo, side="left")
    i1 = np.searchsorted(grid, clip.hi + f.hi, side="right")
    for j in range(i0, i1):
        x = float(grid[j])
        w = Window(x - f.hi, x - f.lo).intersect(sup)
        if w is not None:
            out[j] += _smooth_convolution(piece, f, np.array([x]), x - w.hi, x - w.lo, tol)[0]


# ---------------------------------------------------------------------------
# Pair scatter: atoms and affine cells
# ---------------------------------------------------------------------------


# The (source, grid point) pairs one scatter chunk expands, so its
# temporaries stay near 256 kB whatever the source count and grid size (a
# source reaching more grid points is split across chunks).  A steep cell's
# pair expands to one GL2 sub-cell per knot interval of f it crosses, at most
# f.knots.size - 1 (and 2 where the knots are further apart than a steep
# cell is wide, under (f.hi - f.lo) / 49,999; see _steep_cells).
# On a Xeon with 2 MB of L2 per core, chunks of 2^16 pairs made convolve_grid
# about 30 % slower.
_SCATTER_CHUNK = 1 << 14


def _scatter_pairs(i0: np.ndarray, i1: np.ndarray, pair_values: Callable, out: np.ndarray) -> None:
    """Add pair_values(source, idx) onto out[idx] for every (source, grid point) pair.

    Source s reaches the grid points i0[s] <= idx < i1[s].  The pairs are
    numbered source by source and expanded in runs of _SCATTER_CHUNK
    consecutive pairs; a run cuts through a source that reaches more grid
    points than fit.  pair_values gets each run's source and grid index
    arrays.  np.add.at adds the pairs in order, so each grid point sums its
    sources in order.
    """
    src = (i1 > i0).nonzero()[0]
    count = i1[src] - i0[src]
    end = count.cumsum()
    first = end - count  # number of each source's first pair
    shift = i0[src] - first  # grid index minus pair number, per source
    total = int(end[-1]) if src.size else 0
    for p in range(0, total, _SCATTER_CHUNK):
        q = min(p + _SCATTER_CHUNK, total)
        a = int(end.searchsorted(p, side="right"))  # the source of pair p
        z = int(end.searchsorted(q - 1, side="right"))  # the source of pair q - 1
        owner = np.arange(a, z + 1).repeat(np.minimum(end[a : z + 1], q) - np.maximum(first[a : z + 1], p))
        idx = np.arange(p, q) + shift[owner]
        np.add.at(out, idx, pair_values(src[owner], idx))


_STEEP_FACTOR = 1e5  # slope * reach over cell size above which a cell is steep


def _steep_cells(cells: _Cells, f: TestFunction) -> np.ndarray:
    """Which cells are steep against f: slope times reach dwarfs their values."""
    a, b, vc, beta = cells
    width = b - a
    slope = np.abs(beta)
    cell_sup = np.abs(vc) + slope * 0.5 * width
    return slope * ((f.hi - f.lo) + width) > _STEEP_FACTOR * np.maximum(1.0, cell_sup)


def _cell_pairs(cells: _Cells, steep: np.ndarray, f: TestFunction, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The integral of f(x - t) * density(t) over cell s, for each pair (s, x).

    A pair adds vc*dF + beta*((x - center)*dF - dM), with dF and dM the
    differences of the antiderivative and first moment of f between x - b
    and x - a.  On a steep cell (``steep[s]``), those differences would
    amplify the rounding of the global antiderivative; its pair sums GL2
    over the sub-cells that the knots of f cut [x - b, x - a] into instead,
    exact because both factors are affine on each.
    """
    a, b, vc, beta = cells

    def antiderivative(s: np.ndarray, x: np.ndarray) -> np.ndarray:
        dF = f.integral_to(x - a[s]) - f.integral_to(x - b[s])
        vals = vc[s] * dF
        sloped = beta[s] != 0
        if np.count_nonzero(sloped):
            s, x, dF = s[sloped], x[sloped], dF[sloped]
            dM = f.moment_to(x - a[s]) - f.moment_to(x - b[s])
            vals[sloped] += beta[s] * ((x - 0.5 * (a[s] + b[s])) * dF - dM)
        return vals

    def gauss(s: np.ndarray, x: np.ndarray) -> np.ndarray:
        knots = np.concatenate(([-np.inf], f.knots, [np.inf]))
        u_lo, u_hi = x - b[s], x - a[s]
        k_lo = knots.searchsorted(u_lo, side="right") - 1  # knots[k_lo] <= u_lo
        inside = np.maximum(knots.searchsorted(u_hi, side="left") - 1 - k_lo, 0)
        pair = np.arange(s.size).repeat(inside + 1)
        k = k_lo[pair] + np.arange(pair.size) - ((inside + 1).cumsum() - (inside + 1))[pair]
        # sub-cell j of a pair runs between its knots j and j + 1, cut to [u_lo, u_hi]
        left = np.maximum(u_lo[pair], knots[k])
        right = np.minimum(u_hi[pair], knots[k + 1])
        good = right > left
        pair, left, right = pair[good], left[good], right[good]
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        u1, u2 = mid + _GL2[0] * half, mid + _GL2[1] * half
        c = s[pair]
        rel = x[pair] - 0.5 * (a[c] + b[c])
        fu = f.values(np.concatenate((u1, u2)))
        n = half.size
        # substitute u = x - s: density = vc + beta*((x - center) - u)
        term = half * (
            fu[:n] * (vc[c] + beta[c] * (rel - u1)) + fu[n:] * (vc[c] + beta[c] * (rel - u2))
        )
        total = np.empty(s.size, dtype=np.complex128)
        total.real = np.bincount(pair, term.real, s.size)
        total.imag = np.bincount(pair, term.imag, s.size)
        return total

    sharp = steep[s]
    if not np.count_nonzero(sharp):
        return antiderivative(s, x)
    vals = np.empty(s.size, dtype=np.complex128)
    vals[~sharp] = antiderivative(s[~sharp], x[~sharp])
    vals[sharp] = gauss(s[sharp], x[sharp])
    return vals


def _scatter_cells(cells: _Cells, f: TestFunction, grid: np.ndarray, out: np.ndarray) -> None:
    """Add the integral of f(x - s) * density(s) over each affine cell onto out.

    Cell [a, b] reaches the grid points in [a + f.lo, b + f.hi]; each pair
    (cell, grid point) is a _cell_pairs value.  Shallow cells that make many
    pairs per kink of f are summed as ramps instead.
    """
    a, b, _, _ = cells
    steep = _steep_cells(cells, f)
    i0 = grid.searchsorted(a + f.lo, side="left")
    i1 = grid.searchsorted(b + f.hi, side="right")
    shallow = ~steep
    span = _ramp_span(i0[shallow], i1[shallow], f, float(b[-1] - a[0]) if a.size else 0.0)
    if span is not None:
        sub = tuple(arr[shallow] for arr in cells)
        _ramp_into_grid(_cell_ramps(sub, f.hi - f.lo), f, grid, span, out)
        i1 = np.where(shallow, i0, i1)  # only the steep cells are left to scatter
    _scatter_pairs(i0, i1, lambda s, idx: _cell_pairs(cells, steep, f, s, grid[idx]), out)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < np.inf):
        raise InvalidArgument(f"tolerance must be positive and finite, got {tol}")


def convolve(mu: MeasureExpr, f: TestFunction, x: float, tol: float = 1e-8) -> complex:
    """Value of (mu * f)(x) = integral of f(x - t) dmu(t)."""
    return convolve_grid(mu, f, np.array([x]), tol)[0]


def convolve_grid(mu: MeasureExpr, f: TestFunction, grid: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Values of (mu * f) on an ascending grid; convolve is its one-point case.

    Atoms and the affine cells of density pieces are scattered in chunks of
    (source, grid point) pairs, or, where they make many pairs per kink of f
    and grid point, summed as ramps over the kink table of f (steep cells
    always scatter); smooth pieces add quadrature.
    """
    _check_tol(tol)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidArgument("grid must be a nonempty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidArgument("grid must be strictly ascending")
    hull = Window(grid[0] - f.hi, grid[-1] - f.lo)
    res = resolve_window(mu, hull)
    out = np.zeros(grid.size, dtype=np.complex128)
    pos, wts = res.positions, res.weights
    i0 = grid.searchsorted(pos + f.lo, side="left")
    i1 = grid.searchsorted(pos + f.hi, side="right")
    span = _ramp_span(i0, i1, f, float(pos[-1] - pos[0]) if pos.size else 0.0)
    if span is not None:
        _ramp_into_grid(_Ramps(pos, wts, f.hi - f.lo), f, grid, span, out)
    else:
        _scatter_pairs(i0, i1, lambda s, idx: wts[s] * f.values(grid[idx] - pos[s]), out)
    for piece in res.pieces:
        _piece_into_grid(piece, f, grid, out, tol)
    return out


# Grid points per block of a scan over an arithmetic grid (annulus sups,
# interval means, seminorm_pg), so a scan holds one block of values and its
# memory stays flat however far out it reaches.
_SCAN_CHUNK = 1 << 16


def _scan(
    mu: MeasureExpr, f: TestFunction, lo: float, step: float, n: int, sign: int = 1, tol: float = 1e-8
) -> Iterator[tuple[int, np.ndarray]]:
    """Values of mu*f at sign * (lo + step * k) for k = 0 .. n-1, a block of
    _SCAN_CHUNK points at a time.

    Yields each block's first k and its values in order of k.  Every point
    is formed as one grid ``lo + step * np.arange(n)`` would form it, and each
    block is one convolve_grid call, ascending in x whatever the sign.
    """
    for start in range(0, n, _SCAN_CHUNK):
        xs = lo + step * np.arange(start, min(start + _SCAN_CHUNK, n))
        if sign > 0:
            yield start, convolve_grid(mu, f, xs, tol)
        else:
            yield start, convolve_grid(mu, f, -xs[::-1], tol)[::-1]


def _mass_table(mu: MeasureExpr, hull: Window, rule: Callable) -> _MassTable:
    res = resolve_window(mu, hull)
    table = _MassTable(rule, res.positions, res.weights)
    for piece in res.pieces:
        sup = piece.support
        table.add(piece, _affine_cells(piece, hull if sup is None else hull.intersect(sup)), hull)
    return table


def variation_on(mu: MeasureExpr, w: Window, tol: float = 1e-8) -> float:
    """Total variation |mu|(w): exact for atoms and declared (real or complex)
    affine cells; smooth densities by trapezoid, doubled until converged to tol."""
    _check_tol(tol)
    return float(_mass_table(mu, w, lambda piece, clip: _converged_cum(piece, clip, tol)).query(w.lo, w.hi)[0])


def _search_count(search: Window, step: float) -> int:
    """How many of search.lo, search.lo + step, ... lie in search."""
    if not (step > 0):
        raise InvalidArgument(f"step must be positive, got {step}")
    return int(np.floor(search.width / step)) + 1


def _search_grid(search: Window, step: float) -> np.ndarray:
    """search.lo, search.lo + step, ..., closed by search.hi."""
    xs = search.lo + step * np.arange(_search_count(search, step))
    return xs if xs[-1] >= search.hi else np.append(xs, search.hi)


def sup_norm_K(mu: MeasureExpr, k: Window, search: Window, step: float) -> float:
    """sup over grid points x in search of |mu|(x + k).

    Exact for atoms and declared piecewise-affine densities; smooth
    densities contribute through a trapezoid table at about half the step.
    """
    xs = _search_grid(search, step)

    def table(piece: TransformedDensity, clip: Window) -> tuple[np.ndarray, np.ndarray]:
        h = max(min(step / 2.0, clip.width / 2048.0), clip.width / 4_000_000.0)
        return _trapezoid_cum(piece, clip, max(1, int(np.ceil(clip.width / h))))

    masses = _mass_table(mu, Window(search.lo + k.lo, search.hi + k.hi), table)
    return float(np.max(masses.query(xs + k.lo, xs + k.hi)))


def seminorm_pg(
    mu: MeasureExpr,
    g: TestFunction,
    search: Window,
    step: float | None = None,
    tol: float = 1e-8,
) -> float:
    """sup over grid points x in search of |(mu * g)(x)|, the grid of
    sup_norm_K scanned in blocks."""
    step = g.step if step is None else step
    n = _search_count(search, step)
    best = max(float(np.max(np.abs(vals))) for _, vals in _scan(mu, g, search.lo, step, n, tol=tol))
    if search.lo + step * (n - 1) < search.hi:
        # np.abs of an array, as over the grid: abs() of a complex scalar can round differently
        best = max(best, float(np.abs(convolve_grid(mu, g, np.array([search.hi]), tol))[0]))
    return best
