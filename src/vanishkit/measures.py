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
through ``knots``; genuinely smooth densities fall back to Gauss-Kronrod
quadrature on panels, with refinement-based error control.  Where atoms and
shallow cells are dense, and for the panels of every smooth density (cut at
the ends of its support, if it has bounds), sums are taken by repeated
integration (``ramps``).

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

from .errors import InvalidArgument, _refine
from .masses import _cell_mass, _cells_sum, _converged_cum, _trapezoid_rule
from .ramps import _cell_ramps, _ramp_into_grid, _ramp_span, _Ramps, _Reads
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

# Quadrature rules on [-1, 1], name: (nodes, weights), ascending.  G2 and G8
# are bit for bit what np.polynomial.legendre.leggauss gives; G3 and K7, its
# Kronrod extension (Kronrod 1965), are rounded from 50-digit values.  K7
# keeps the three G3 nodes (its odd entries), bit for bit.
_GL = {
    "G2": (np.array([-0.5773502691896257, 0.5773502691896257]), np.array([1.0, 1.0])),
    "G3": (np.array([-0.7745966692414834, 0.0, 0.7745966692414834]),
           np.array([0.5555555555555556, 0.8888888888888888, 0.5555555555555556])),
    "K7": (np.array([-0.9604912687080203, -0.7745966692414834, -0.43424374934680254, 0.0,
                     0.43424374934680254, 0.7745966692414834, 0.9604912687080203]),
           np.array([0.10465622602646726, 0.26848808986833345, 0.40139741477596225, 0.45091653865847414,
                     0.40139741477596225, 0.26848808986833345, 0.10465622602646726])),
    "G8": (np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                     0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]),
           np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                     0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])),
}


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
    density pieces.

    Walks the tree once, pushing the combinator stack down to the leaves:
    atom sources are enumerated on the pre-image of the window (a reflected
    leaf is reversed, so it comes out ascending too), and each reachable
    density is wrapped with its accumulated transform.  The leaves are taken
    in the order of their first atoms, so disjoint ones come out sorted, and
    merged (_merge).
    """
    pos_parts: list[np.ndarray] = []
    wt_parts: list[np.ndarray] = []
    pieces: list[TransformedDensity] = []

    def walk(node: MeasureExpr, sign: int, shift: float, conj: int, scale: complex) -> None:
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
        elif isinstance(node, AbsCont):
            piece = TransformedDensity(node.density, sign, shift, conj, scale)
            sup = piece.support
            if sup is None or sup.intersect(w) is not None:
                pieces.append(piece)
        elif isinstance(node, Translate):
            walk(node.child, sign, shift + sign * node.t, conj, scale)
        elif isinstance(node, ReflectConj):
            walk(node.child, -sign, shift, 1 - conj, scale)
        elif isinstance(node, Scale):
            c = np.conj(node.c) if conj else node.c
            walk(node.child, sign, shift, conj, scale * complex(c))
        elif isinstance(node, Sum):
            for child in node.children:
                walk(child, sign, shift, conj, scale)
        else:
            raise InvalidArgument(f"unknown measure expression node: {node!r}")

    walk(mu, 1, 0.0, 0, 1.0 + 0.0j)
    del walk  # its closure holds itself; the cycle would keep these atoms until a GC pass
    if not pos_parts:
        return ResolvedWindow(np.empty(0), np.empty(0, dtype=np.complex128), tuple(pieces))
    order = sorted(range(len(pos_parts)), key=lambda j: pos_parts[j][0])
    pos, wts = _merge(np.concatenate([pos_parts[j] for j in order]), np.concatenate([wt_parts[j] for j in order]))
    return ResolvedWindow(pos, wts, tuple(pieces))


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
    # part by part: a complex division multiplies by 1 / width, which a
    # subnormal width overflows, and 0 * inf is NaN
    rise = g2 - g1
    with np.errstate(over="ignore"):
        np.divide(rise.real, s2 - s1, out=beta.real, where=sloped)
        np.divide(rise.imag, s2 - s1, out=beta.imag, where=sloped)
    steep = ~np.isfinite(beta)
    if np.any(steep):
        raise InvalidArgument(f"density slope is not finite on a cell of width {np.min(width[steep]):.3g}")
    vc = 0.5 * (g1 + g2)  # midpoint of s1, s2 is the cell center
    live = (width > 0.0) & ((vc != 0) | (beta != 0))
    return a[live], b[live], vc[live], beta[live]


# ---------------------------------------------------------------------------
# Quadrature for smooth (undeclared) densities
# ---------------------------------------------------------------------------


def _depth(width: np.ndarray, f: TestFunction) -> int:
    """The halvings after which no sub-panel of panels this wide is wider
    than f.step / 64: 6 + ceil(log2(widest panel / f.step))."""
    # knot-to-knot panels span a whole number of cells up to rounding
    cells = int(np.ceil(float(np.max(width)) / f.step - 1e-9))
    return 6 + max(0, cells - 1).bit_length()


# Entries of the query array x_i - c_k that one chunk of grid points builds
# (and of the reads the chunk keeps for its levels), and of one level's
# nodes built at a time, so each temporary stays near 32 MB however many
# points and kinks there are.
_PANEL_CHUNK = 1 << 21

# Width, in steps of f, of the buckets in which query floats are merged into
# one cut (the largest of them): x_i - c_k and x_j - c_l that agree in exact
# arithmetic differ by rounding, and would otherwise cut slivers of rounding
# width, each a panel of its own.
_BUCKET = 2.0**-20


def _kronrod_levels(
    piece: TransformedDensity, left: np.ndarray, width: np.ndarray, depth: int
) -> Iterator[np.ndarray]:
    """Each panel's mass and first moment about its left edge, in units of
    width and width**2 ((mass, first) x panels), level by level, finer and
    finer: G3 on each panel [left, left + width], K7 on each panel, then K7
    on 2, 4, ..., 2**depth equal sub-panels.

    K7 keeps the three G3 nodes, so the G3 level weighs its values by both
    rules and the K7 level evaluates only its four new nodes: 7 evaluations
    per panel for the two levels.  Nodes are built _PANEL_CHUNK at a time.
    """

    def moments(t: np.ndarray, w: np.ndarray) -> np.ndarray:
        # per row of the weights w (rows x nodes t in [0, 1]): rows x (mass, first) x panels
        rule = np.concatenate((w, w * t))  # the integrals of 1 and of t
        out = np.empty((rule.shape[0], left.size, 2))  # rule x panel x (real, imag)
        rows = max(1, _PANEL_CHUNK // t.size)
        for i in range(0, left.size, rows):
            nodes = left[i : i + rows] + width[i : i + rows] * t[:, None]
            rho = np.ascontiguousarray(piece.evalv(nodes), np.complex128)
            # einsum, not BLAS: a threaded zgemm spins a second core for these thin products
            out[:, i : i + rows] = np.einsum("km,mnc->knc", rule, rho.view(np.float64).reshape(*rho.shape, 2))
        return out.view(np.complex128)[..., 0].reshape(2, w.shape[0], left.size).swapaxes(0, 1)

    nodes, weights = _GL["K7"]
    gauss, kronrod = moments(0.5 * (1.0 + nodes[1::2]), 0.5 * np.stack((_GL["G3"][1], weights[1::2])))
    yield gauss
    yield kronrod + moments(0.5 * (1.0 + nodes[::2]), 0.5 * weights[None, ::2])[0]
    for s in range(1, depth + 1):
        sub = 2**s
        t = ((np.arange(sub)[:, None] + 0.5 * (1.0 + nodes)) / sub).ravel()
        yield moments(t, np.tile(0.5 * weights / sub, sub)[None])[0]


def _panel_values(reads: _Reads, width: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """(piece * f)(x) at the points of reads, as ramp sums over the panels
    of these widths that its ramps were laid out on, from one level's
    moments (_kronrod_levels)."""
    mass, first = moments
    reads.ramps.load(width * mass, width * width * first)
    return reads.values()


def _panels(x: np.ndarray, at: np.ndarray, f: TestFunction, support: Window | None) -> tuple[np.ndarray, np.ndarray]:
    """Left edges and widths of the panels between the cuts of the reaches
    of x, ascending, that lie inside some point's reach (_smooth_into_grid)
    and inside the support.  A bounded support clips the cuts to the chunk's
    reach intersected with it, and the two ends of that clip are cuts of
    their own, outside the bucket merge, so no panel sticks out of it."""
    bucket = _BUCKET * f.step
    q = np.empty((x.size, at.size + 1))
    np.subtract(x[:, None], at, out=q[:, 1:])
    starts = q[:, 0] = x - f.hi
    ends = q[:, 1].copy()  # x - at[0]
    q = q.ravel()
    q.sort()
    cut = np.diff(q) > bucket
    key = q - q[0]
    key /= bucket
    key += 0.5  # q[0] at a bucket's middle, so that cuts on its lattice are too
    np.floor(key, out=key)
    cut |= key[1:] != key[:-1]
    del key
    cuts = q[np.append(np.flatnonzero(cut), q.size - 1)]
    if support is not None:
        lo, hi = max(q[0], support.lo), min(q[-1], support.hi)
        if not lo < hi:
            return cuts[:0], cuts[:0]
        cuts = np.concatenate(([lo], cuts[(cuts > lo) & (cuts < hi)], [hi]))
    # the reach that starts last at or before a panel ends last: the panel
    # lies inside a reach if it starts before that reach's end
    inside = ends[starts.searchsorted(cuts[:-1], side="right") - 1] > cuts[:-1]
    return cuts[:-1][inside], np.diff(cuts)[inside]


def _smooth_into_grid(
    piece: TransformedDensity, f: TestFunction, grid: np.ndarray, out: np.ndarray, tol: float
) -> None:
    """Add (piece * f)(x) onto out for each x in grid: ramp sums over panels.

    A chunk of grid points cuts its reach at the floats x - f.hi and x - c_k
    (c_k a kink of f below f.hi) that _Reads reads the prefix sums at, and
    keeps the panels between consecutive cuts that lie inside some point's
    reach and inside the support of the piece (_panels).  Floats in one
    bucket of width _BUCKET * f.step make one cut, the largest, so a read
    at any of them sums whole panels up to that cut.  Moving a read by
    d <= the bucket changes (mu * f)(x) by O(d (d + ulp(x)) max|density|
    sum|s_k|): the integrand of R_k vanishes at x - c_k, and at x - f.hi,
    where all R_k read, the sum of theirs is f(f.hi) = 0.  Only the grid
    points whose reach meets a bounded support are read.

    Each panel's mass and first moment come from _kronrod_levels, and the
    chunk's values from _Ramps, level by level down to sub-panels no wider
    than f.step / 64 (_depth), until two levels agree to tol at every point
    of the chunk.  The panels' ramp layout and the chunk's reads of it (the
    block and position of each query, at most _PANEL_CHUNK of them) are
    built once; a level only loads its sums.
    """
    at = f.kinks[0][f.kinks[0] < f.hi]
    if not at.size:  # f vanishes
        return
    support = piece.support
    if support is not None:
        i0, i1 = grid.searchsorted(support.lo + f.lo), grid.searchsorted(support.hi + f.hi, side="right")
        grid, out = grid[i0:i1], out[i0:i1]
    rows = max(1, _PANEL_CHUNK // (at.size + 1))
    for start in range(0, grid.size, rows):
        x = grid[start : start + rows]
        left, width = _panels(x, at, f, support)
        if not left.size:
            continue
        reads = _Reads(_Ramps(left, f.hi - f.lo), f, x, keep=True)
        levels = (_panel_values(reads, width, m) for m in _kronrod_levels(piece, left, width, _depth(width, f)))
        out[start : start + x.size] += _refine(((v, v) for v in levels), tol, "density")[0]
        del reads, levels  # before the next chunk's query array


# ---------------------------------------------------------------------------
# Pair scatter: atoms and affine cells
# ---------------------------------------------------------------------------


# The (source, grid point) pairs one scatter chunk expands, so its
# temporaries stay near 64 kB whatever the source count and grid size (a
# source reaching more grid points is split across chunks).  A steep cell's
# pair expands to one GL2 sub-cell per knot interval of f it crosses, at most
# f.knots.size - 1 (and 2 where the knots are further apart than a steep
# cell is wide, under (f.hi - f.lo) / 49,999; see _steep_cells).
# At 2^14 pairs the chunk's 256 kB temporaries sat at glibc's mmap threshold
# and were mapped, or trimmed off the heap, and faulted in again per chunk:
# convolve_grid(ex_tent, hat(0, 0.25)) on 20,801 points, the steep-cell
# scatter, took about 1,000 page faults and 3.8-6.0 ms of CPU per call; at
# 2^12, none and 2.8-4.5 ms (best of 20).
_SCATTER_CHUNK = 1 << 12


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
        u1, u2 = mid + _GL["G2"][0][:, None] * half
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
# Scan plans and the public operations that read them
# ---------------------------------------------------------------------------


class _Plan:
    """mu read over a hull a block window at a time: atoms and pieces are
    resolved per block (a whole hull's atoms are what cost memory), each
    piece cut into cells, or tabled, once.  Without mu it only shares cells."""

    def __init__(self, mu: MeasureExpr | None, hull: Window) -> None:
        self.mu, self.hull, self._built = mu, hull, {}

    def built(self, piece: TransformedDensity, build: Callable):
        """build(piece, hull ∩ support), once per density, transform and build
        (a resolution wraps its pieces afresh)."""
        key = (id(piece.base), piece.sign, piece.shift, piece.conj, piece.scale, build)
        if key not in self._built:
            sup = piece.support
            self._built[key] = build(piece, self.hull if sup is None else self.hull.intersect(sup))
        return self._built[key]

    def cells(self, piece: TransformedDensity, w: Window | None = None) -> _Cells | None:
        """The cells of piece on the hull (None: smooth); given w, those that
        overlap w, the end ones cut to w."""
        cells = self.built(piece, _affine_cells)
        if cells is None or w is None:
            return cells
        i, j = cells[1].searchsorted(w.lo, side="right"), cells[0].searchsorted(w.hi)
        a, b, vc, beta = (c[i:j] for c in cells)
        if a.size and (a[0] < w.lo or b[-1] > w.hi):  # a cut cell keeps its line
            cut_a, cut_b = np.maximum(a, w.lo), np.minimum(b, w.hi)
            a, b, vc = cut_a, cut_b, vc + beta * (0.5 * (cut_a + cut_b) - 0.5 * (a + b))
        return a, b, vc, beta

    def block(self, w: Window) -> _Block:
        """mu resolved on w, a window inside the hull."""
        return _Block(self, w, resolve_window(self.mu, w))


class _Block:
    """A plan's measure resolved on one window; answers mu*f and |mu| inside it."""

    def __init__(self, plan: _Plan, w: Window, res: ResolvedWindow) -> None:
        self.plan, self.window, self.res = plan, w, res

    def convolve(self, f: TestFunction, grid: np.ndarray, tol: float) -> np.ndarray:
        """convolve_grid on an ascending grid whose reach [grid[0] - f.hi,
        grid[-1] - f.lo] lies in the window, from the sources inside the reach."""
        reach = Window(grid[0] - f.hi, grid[-1] - f.lo)
        out = np.zeros(grid.size, dtype=np.complex128)
        lo, hi = self.res.positions.searchsorted(reach.lo), self.res.positions.searchsorted(reach.hi, side="right")
        pos, wts = self.res.positions[lo:hi], self.res.weights[lo:hi]
        i0 = grid.searchsorted(pos + f.lo, side="left")
        i1 = grid.searchsorted(pos + f.hi, side="right")
        span = _ramp_span(i0, i1, f, float(pos[-1] - pos[0]) if pos.size else 0.0)
        if span is not None:
            _ramp_into_grid(_Ramps(pos, f.hi - f.lo).load(wts), f, grid, span, out)
        else:
            _scatter_pairs(i0, i1, lambda s, idx: wts[s] * f.values(grid[idx] - pos[s]), out)
        for piece in self.res.pieces:
            cells = self.plan.cells(piece, reach)
            if cells is None:
                _smooth_into_grid(piece, f, grid, out, tol)
            elif cells[0].size:
                _scatter_cells(cells, f, grid, out)
        return out

    def corners(self, f: TestFunction, lo: float, step: float, start: int, stop: int, sign: int, keep=()):
        """The scan indices k in [start, stop) of the points sign * (lo + step * k)
        next to a breakpoint p + c of mu*f, p an atom of the block in the reach
        of those points and c a kink of f, ascending: k_b - 1 .. k_b + 2 for
        k_b = floor((sign * (p + c) - lo) / step), so rounding cannot skip the
        points that bracket it; and start, stop - 1 and the indices in keep.
        No breakpoint lies between two consecutive corners, so mu*f is linear
        there.  None where a density piece is resolved, or where the corners
        would be every point: of [start, stop), or of the (f.hi - f.lo) / step
        that each atom reaches (its pairs are then all the scatter evaluates).

        The reach runs from the first point to the next point out, sign * (lo
        + step * stop), as _scan resolves it.  The kinks are taken in strided
        passes of about a quarter block of breakpoints each (one kink of f
        against every atom at least), so a block whose atoms are dense is
        given up early."""
        size, kinks = stop - start, f.kinks[0]
        if self.res.pieces or size < 2 or 4 * kinks.size >= (f.hi - f.lo) / step:
            return None
        mark = np.zeros(size + 7, dtype=bool)  # point start + i at 3 + i; the rest catch what falls off
        inside = mark[3 : 3 + size]
        keep = np.asarray(keep, dtype=np.intp) - start
        inside[keep[(keep >= 0) & (keep < size)]] = True
        inside[0] = inside[-1] = True
        ends = sorted((sign * (lo + step * start), sign * (lo + step * stop)))
        pos = self.res.positions
        pos = pos[pos.searchsorted(ends[0] - f.hi) : pos.searchsorted(ends[1] - f.lo, side="right")]
        passes = max(1, min(kinks.size, -(-4 * pos.size * kinks.size // size)))
        for i in range(passes):
            b = (pos[:, None] + kinks[i::passes]).ravel()
            near = np.minimum(np.maximum(np.floor((sign * b - lo) / step) - start, -2.0), size + 1.0).astype(np.intp)
            mark[near + 2] = mark[near + 3] = mark[near + 4] = mark[near + 5] = True  # k_b - 1 .. k_b + 2
            if np.count_nonzero(inside) == size:
                return None
        return start + np.flatnonzero(inside)

    def masses(self, rule: Callable, lo: np.ndarray | float, hi: np.ndarray | float) -> np.ndarray:
        """|mu| of [lo, hi] elementwise, for windows inside the window: exact
        for atoms (a cumulative sum of |w|) and for the declared pieces' cells,
        added on the union of their edges before |.| (_cells_sum).  A smooth
        piece adds the |.| of its trapezoid table rule(piece, clip), built
        once on the plan's hull: an upper bound on |mu|, up to its error."""
        lo, hi = np.atleast_1d(lo, hi)
        ends, pos = np.concatenate((lo, hi)), self.res.positions  # one pass for both ends
        cum = np.concatenate(([0.0], np.cumsum(np.abs(self.res.weights))))
        out = cum[pos.searchsorted(hi, side="right")] - cum[pos.searchsorted(lo)]
        declared, mass_to = [], []
        for piece in self.res.pieces:
            cells = self.plan.cells(piece, self.window)
            if cells is None:
                mass_to.append(np.interp(ends, *self.plan.built(piece, rule)))
            elif cells[0].size:
                declared.append(cells)
        if declared:
            a, b, vc, beta = _cells_sum(declared)
            width = b - a
            cum = np.concatenate(([0.0], np.cumsum(_cell_mass(vc, beta, -0.5 * width, width))))
            i = np.maximum(a.searchsorted(ends, side="right") - 1, 0)
            mass_to.insert(0, cum[i] + _cell_mass(vc[i], beta[i], -0.5 * width[i], np.clip(ends - a[i], 0.0, width[i])))
        for m in mass_to:
            out += m[lo.size :] - m[: lo.size]
        return out


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
    always scatter); smooth pieces add quadrature, on panels summed as ramps
    and clipped to their support.
    """
    _check_tol(tol)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidArgument("grid must be a nonempty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidArgument("grid must be strictly ascending")
    hull = Window(grid[0] - f.hi, grid[-1] - f.lo)
    return _Plan(mu, hull).block(hull).convolve(f, grid, tol)  # a one-block plan


# Grid points per block of a scan over an arithmetic grid (annulus sups,
# interval means, seminorm_pg), so a scan holds one block of values and its
# memory stays flat however far out it reaches.
_SCAN_CHUNK = 1 << 16

# A part of a scan block: segment i's points start .. stop-1, its corners (or
# None) and its values there
_Part = tuple[int, int, int, "np.ndarray | None", np.ndarray]


def _scan(
    plan: _Plan, f: TestFunction, step: float, segments: Sequence[tuple[float, int]], sign: int = 1,
    tol: float = 1e-8, keep: np.ndarray | tuple = (), real: bool = False,
) -> Iterator[tuple[_Block, list[_Part]]]:
    """Values of the plan's mu*f at sign * (lo + step * k) for k = 0 .. n-1,
    for each segment (lo, n), a block of at most _SCAN_CHUNK points at a time.

    The segments ascend, each one's points below the next one's first.
    Whole segments are packed into one block while they fit; a longer one
    is cut into blocks of _SCAN_CHUNK points.  Yields each _Block and its
    parts (i, start, stop, corners, values): segment i's points k = start ..
    stop-1, their corners and the values there in order of k.  A block is
    resolved once, on the reach of its points widened to the next point out
    of its last part, sign * (lo + step * stop), and convolved once.  A
    block of atoms only reads each part at its corners (_Block.corners,
    from the atoms in that part's reach, with the indices in keep), where
    real asks it to be read so only if its weights and f are real; any
    other part at every k, with corners None.  Every point is formed as one
    grid ``lo + step * np.arange(n)`` would form it."""
    blocks, run, size = [], [], 0
    for i, (_, n) in enumerate(segments):
        if run and (size + n > _SCAN_CHUNK):
            blocks.append(run)
            run, size = [], 0
        if n > _SCAN_CHUNK:
            blocks += [[(i, start, min(start + _SCAN_CHUNK, n))] for start in range(0, n, _SCAN_CHUNK)]
        else:
            run.append((i, 0, n))
            size += n
    if run:
        blocks.append(run)
    for run in blocks:
        (first, start, _), (last, _, stop) = run[0], run[-1]
        # the first point and the next point out
        ends = sign * np.array([segments[first][0] + step * start, segments[last][0] + step * stop])
        block = plan.block(Window(float(ends.min()) - f.hi, float(ends.max()) - f.lo))
        complex_ = np.count_nonzero(block.res.weights.imag) or np.count_nonzero(f.samples.imag)
        ks = [None if real and complex_ else block.corners(f, segments[i][0], step, a, b, sign, keep)
              for i, a, b in run]
        xs = [sign * (segments[i][0] + step * (np.arange(a, b) if k is None else k)) for (i, a, b), k in zip(run, ks)]
        grid = np.concatenate(xs) if len(xs) > 1 else xs[0]
        vals = block.convolve(f, grid, tol) if sign > 0 else block.convolve(f, grid[::-1], tol)[::-1]
        parts, end = [], 0
        for (i, a, b), k, x in zip(run, ks, xs):
            parts.append((i, a, b, k, vals[end : end + x.size]))
            end += x.size
        yield block, parts
        del block, ks, xs, grid, vals, parts  # resolve the next block without this one


def variation_on(mu: MeasureExpr, w: Window, tol: float = 1e-8) -> float:
    """Total variation |mu|(w): exact for atoms and declared (real or complex)
    affine cells; smooth densities by trapezoid, doubled until converged to tol."""
    _check_tol(tol)
    return float(_Plan(mu, w).block(w).masses(lambda piece, clip: _converged_cum(piece, clip, tol), w.lo, w.hi)[0])


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
    hull = Window(search.lo + k.lo, search.hi + k.hi)
    return float(np.max(_Plan(mu, hull).block(hull).masses(_trapezoid_rule(step), xs + k.lo, xs + k.hi)))


def seminorm_pg(
    mu: MeasureExpr,
    g: TestFunction,
    search: Window,
    step: float | None = None,
    tol: float = 1e-8,
) -> float:
    """sup over grid points x in search of |(mu * g)(x)|, the grid of
    sup_norm_K scanned in blocks; a block of atoms only at its corners, as
    decay_profile reads it."""
    step = g.step if step is None else step
    n = _search_count(search, step)
    plan = _Plan(mu, Window(search.lo - g.hi, search.lo + step * n - g.lo))
    best = max(float(np.max(np.abs(vals))) for _, [(*_, vals)] in _scan(plan, g, step, [(search.lo, n)], tol=tol))
    if search.lo + step * (n - 1) < search.hi:
        # np.abs of an array, as over the grid: abs() of a complex scalar can round differently
        best = max(best, float(np.abs(convolve_grid(mu, g, np.array([search.hi]), tol))[0]))
    return best
