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
refinement-based error control.

Affine cells are always tracked as (value at cell center, slope).  A
global intercept would lose all precision on steep narrow cells far from
the origin, where intercept and slope-times-position cancel to a small
value.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgument, QuadratureError
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


class FiniteAtoms(AtomSource):
    """An explicit finite atom list; coincident positions merge at build time."""

    def __init__(self, atoms: Sequence[tuple[float, complex]]) -> None:
        pos = np.array([a[0] for a in atoms], dtype=float)
        wts = np.array([a[1] for a in atoms], dtype=np.complex128)
        if pos.size and not np.all(np.isfinite(pos)):
            raise InvalidArgument("atom positions must be finite")
        self.positions, self.weights = _merge(pos, wts)

    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        lo = np.searchsorted(self.positions, w.lo, side="left")
        hi = np.searchsorted(self.positions, w.hi, side="right")
        return self.positions[lo:hi], self.weights[lo:hi]

    def __repr__(self) -> str:
        return f"FiniteAtoms(n={self.positions.size})"


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
        if not (spacing > 0):
            raise InvalidArgument(f"spacing must be positive, got {spacing}")
        self.spacing = float(spacing)
        self.offset = float(offset)
        self.weight_fn = (
            weight_fn
            if weight_fn is not None
            else (lambda n: np.ones(n.shape, dtype=np.complex128))
        )

    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        n_lo = int(np.ceil((w.lo - self.offset) / self.spacing - 1e-9))
        n_hi = int(np.floor((w.hi - self.offset) / self.spacing + 1e-9))
        n = np.arange(n_lo, n_hi + 1)
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
    uniq, inv = np.unique(pos, return_inverse=True)
    acc = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(acc, inv, wts)
    keep = acc != 0
    return uniq[keep], acc[keep]


def resolve_window(mu: MeasureExpr, w: Window) -> ResolvedWindow:
    """Resolve an expression against a window.

    Pushes the combinator stack down to the leaves, enumerates atom sources
    on the pre-image of the window, merges coincident atoms, and wraps each
    reachable density with its accumulated transform.
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
                pos_parts.append(sign * pos + shift)
                wt_parts.append(scale * wts)
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
    if pos_parts:
        pos = np.concatenate(pos_parts)
        wts = np.concatenate(wt_parts)
        pos, wts = _merge(pos, wts)
    else:
        pos = np.empty(0)
        wts = np.empty(0, dtype=np.complex128)
    return ResolvedWindow(pos, wts, tuple(pieces))


def atoms_in(mu: MeasureExpr, w: Window) -> list[Atom]:
    """Merged, position-sorted atoms of mu inside the closed window w."""
    return resolve_window(mu, w).atoms


# ---------------------------------------------------------------------------
# Affine cells
# ---------------------------------------------------------------------------


class _Cell(NamedTuple):
    """One affine cell: density(s) = vc + beta * (s - center) on [a, b]."""

    a: float
    b: float
    vc: complex
    beta: complex

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)


def _affine_cells(piece: TransformedDensity, clip: Window) -> list[_Cell] | None:
    """Split the clipped window into affine cells.

    Returns None when the density does not declare structure.  Cells where
    the density vanishes identically are dropped.
    """
    knots = piece.knots(clip)
    if knots is None:
        return None
    inner = knots[(knots > clip.lo) & (knots < clip.hi)]
    edges = np.concatenate(([clip.lo], inner, [clip.hi]))
    cells: list[_Cell] = []
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        if width <= 0.0:
            continue
        s1 = a + width / 3.0
        s2 = b - width / 3.0
        g1, g2 = piece.evalv(np.array([s1, s2]))
        # Sub-ulp cells collapse the sample points; treat them as flat.
        beta = (g2 - g1) / (s2 - s1) if s2 > s1 else 0.0
        vc = 0.5 * (g1 + g2)  # midpoint of s1, s2 is the cell center
        if vc == 0 and beta == 0:
            continue
        cells.append(_Cell(float(a), float(b), complex(vc), complex(beta)))
    return cells


# A cell is "steep" when its slope times the reach of the test function
# dwarfs the cell values; there the antiderivative-difference path would
# amplify the rounding of the global antiderivative, so an exact
# knot-aligned Gauss rule is used instead.
_STEEP_FACTOR = 1e5


def _cell_is_steep(cell: _Cell, f: TestFunction) -> bool:
    reach = (f.hi - f.lo) + (cell.b - cell.a)
    cell_sup = abs(cell.vc) + abs(cell.beta) * 0.5 * (cell.b - cell.a)
    return abs(cell.beta) * reach > _STEEP_FACTOR * max(1.0, cell_sup)


def _cell_contribution_vec(xs: np.ndarray, cell: _Cell, f: TestFunction) -> np.ndarray:
    """Integral of f(x - s) * density(s) over the cell, for each x in xs."""
    dF = f.integral_to(xs - cell.a) - f.integral_to(xs - cell.b)
    if cell.beta == 0:
        return cell.vc * dF
    dM = f.moment_to(xs - cell.a) - f.moment_to(xs - cell.b)
    # substitute u = x - s: density = vc + beta*((x - center) - u)
    return cell.vc * dF + cell.beta * ((xs - cell.center) * dF - dM)


def _cell_contribution_steep(x: float, cell: _Cell, f: TestFunction) -> complex:
    """Same integral, assembled from knot-aligned GL2 sub-cells.

    Exact for affine cells of any steepness: on each sub-cell both factors
    are affine, so the integrand is a quadratic polynomial.
    """
    u_lo, u_hi = x - cell.b, x - cell.a
    k_lo = np.searchsorted(f.knots, u_lo, side="right")
    k_hi = np.searchsorted(f.knots, u_hi, side="left")
    edges = np.concatenate(([u_lo], f.knots[k_lo:k_hi], [u_hi]))
    widths = np.diff(edges)
    good = widths > 0
    if not np.any(good):
        return 0.0j
    mid = (0.5 * (edges[:-1] + edges[1:]))[good]
    half = (0.5 * widths)[good]
    u_nodes = np.concatenate([mid + _GL2[0] * half, mid + _GL2[1] * half])
    dens = cell.vc + cell.beta * ((x - cell.center) - u_nodes)
    vals = f.values(u_nodes) * dens
    n = half.size
    return complex(np.sum(half * (vals[:n] + vals[n:])))


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
    the density allows.  A kink is a knot where the slope of f jumps by
    more than rounding: rounded samples move a slope by a few ulps of
    max|f| / step, and max|f| is at most max|slope| times half the support.
    Every panel is split 2**s ways for s = 0, 1, ... until two levels agree
    to tol at every x.  The deepest level is 6 + ceil(log2(widest panel /
    f.step)), which splits every panel into pieces no wider than f.step / 64.
    """
    slopes = np.diff(f.samples) / f.step
    threshold = 4.0 * np.finfo(float).eps * f.samples.size * float(np.max(np.abs(slopes)))
    kinks = f.knots[1:-1][np.abs(np.diff(slopes)) > threshold]
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
        for cell in cells:
            i0 = np.searchsorted(grid, cell.a + f.lo, side="left")
            i1 = np.searchsorted(grid, cell.b + f.hi, side="right")
            if i1 <= i0:
                continue
            xs = grid[i0:i1]
            if _cell_is_steep(cell, f):
                for j in range(xs.size):
                    out[i0 + j] += _cell_contribution_steep(float(xs[j]), cell, f)
            else:
                out[i0:i1] += _cell_contribution_vec(xs, cell, f)
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
# Atom scatter
# ---------------------------------------------------------------------------


# Upper bound on the (atom, grid point) pairs one scatter chunk expands, so
# its temporaries stay near a megabyte whatever the atom count and grid size
# (a single atom reaching more grid points is one chunk of its own).
_SCATTER_CHUNK = 1 << 16


def _scatter_atoms(
    pos: np.ndarray, wts: np.ndarray, f: TestFunction, grid: np.ndarray, out: np.ndarray
) -> None:
    """Add sum over atoms of w * f(x - p) onto out (over grid).

    Atom p reaches the grid points in [p + f.lo, p + f.hi], a range found by
    searchsorted.  The (atom, grid point) pairs of consecutive atoms are
    expanded with np.repeat and summed with np.bincount over the span of grid
    points the chunk reaches; positions ascend, so that span runs from the
    first atom's first point to the last atom's last.  Each grid point sums
    its atoms in position order.
    """
    i0 = np.searchsorted(grid, pos + f.lo, side="left")
    i1 = np.searchsorted(grid, pos + f.hi, side="right")
    reach = i1 > i0
    pos, wts, i0, i1 = pos[reach], wts[reach], i0[reach], i1[reach]
    count = i1 - i0
    end = np.cumsum(count)
    shift = i0 - (end - count)  # grid index minus pair index, per atom
    a = 0
    while a < pos.size:
        start = int(end[a] - count[a])
        b = max(a + 1, int(np.searchsorted(end, start + _SCATTER_CHUNK, side="right")))
        owner = np.repeat(np.arange(a, b), count[a:b])
        idx = np.arange(start, int(end[b - 1])) + shift[owner]
        vals = wts[owner] * f.values(grid[idx] - pos[owner])
        lo, hi = int(i0[a]), int(i1[b - 1])
        local = idx - lo
        out.real[lo:hi] += np.bincount(local, vals.real, hi - lo)
        out.imag[lo:hi] += np.bincount(local, vals.imag, hi - lo)
        a = b


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def convolve(mu: MeasureExpr, f: TestFunction, x: float, tol: float = 1e-8) -> complex:
    """Value of (mu * f)(x) = integral of f(x - t) dmu(t)."""
    return convolve_grid(mu, f, np.array([x]), tol)[0]


def convolve_grid(mu: MeasureExpr, f: TestFunction, grid: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Values of (mu * f) on an ascending grid; convolve is its one-point case.

    Atoms are scattered in chunks of (atom, grid point) pairs; each density
    piece adds exact affine-cell terms or smooth quadrature.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidArgument("grid must be a nonempty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise InvalidArgument("grid must be strictly ascending")
    hull = Window(grid[0] - f.hi, grid[-1] - f.lo)
    res = resolve_window(mu, hull)
    out = np.zeros(grid.size, dtype=np.complex128)
    _scatter_atoms(res.positions, res.weights, f, grid, out)
    for piece in res.pieces:
        _piece_into_grid(piece, f, grid, out, tol)
    return out


def _integral_abs_affine(cell: _Cell) -> float:
    """Exact integral of |density| over a real affine cell; complex cells
    fall back to refined trapezoid on |.| (smooth unless the segment
    passes through zero)."""
    width = cell.b - cell.a
    if cell.vc.imag == 0.0 and cell.beta.imag == 0.0:
        vc, beta = cell.vc.real, cell.beta.real
        if beta == 0.0:
            return abs(vc) * width
        tau_root = -vc / beta  # offset of the zero from the cell center
        half = 0.5 * width
        if tau_root <= -half or tau_root >= half:
            # sign-stable: integral of |v| = |integral of v| = |vc| * width
            return abs(vc) * width
        left_len = tau_root + half
        right_len = half - tau_root
        v_left = vc + beta * (0.5 * (tau_root - half))
        v_right = vc + beta * (0.5 * (tau_root + half))
        return abs(v_left) * left_len + abs(v_right) * right_len
    prev = None
    n = 16
    c = cell.center
    cur = 0.0
    for _ in range(16):
        ts = np.linspace(cell.a, cell.b, n + 1)
        vals = np.abs(cell.vc + cell.beta * (ts - c))
        cur = float(np.trapezoid(vals, ts))
        if prev is not None and abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    return cur


def variation_on(mu: MeasureExpr, w: Window, tol: float = 1e-8) -> float:
    """Total variation |mu|(w): atom magnitudes plus integral of |density|."""
    res = resolve_window(mu, w)
    total = float(np.sum(np.abs(res.weights))) if res.weights.size else 0.0
    for piece in res.pieces:
        sup = piece.support
        clip = w if sup is None else w.intersect(sup)
        if clip is None or clip.width == 0.0:
            continue
        cells = _affine_cells(piece, clip)
        if cells is not None:
            for cell in cells:
                total += _integral_abs_affine(cell)
            continue
        prev = None
        n = 128
        cur = 0.0
        for _ in range(16):
            ts = np.linspace(clip.lo, clip.hi, n + 1)
            vals = np.abs(piece.evalv(ts))
            cur = float(np.trapezoid(vals, ts))
            if prev is not None and abs(cur - prev) <= tol:
                total += cur
                break
            prev = cur
            n *= 2
        else:
            raise QuadratureError("variation quadrature did not converge", abs(cur - prev))
    return total


class _VariationTable:
    """Window-mass accumulator over a fixed hull for many variation queries.

    Atom masses and real piecewise-affine densities are exact; other
    densities go through a dense trapezoid cumulative.
    """

    def __init__(self, mu: MeasureExpr, hull: Window, step_hint: float) -> None:
        res = resolve_window(mu, hull)
        self.pos = res.positions
        self.cum_atoms = np.concatenate(([0.0], np.cumsum(np.abs(res.weights))))
        # each affine table: (edges, cum at edges, v at segment midpoints, beta)
        self.affine_tables: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.dense_tables: list[tuple[np.ndarray, np.ndarray]] = []
        for piece in res.pieces:
            sup = piece.support
            clip = hull if sup is None else hull.intersect(sup)
            if clip is None or clip.width == 0.0:
                continue
            cells = _affine_cells(piece, clip)
            if cells is None or any(c.vc.imag != 0 or c.beta.imag != 0 for c in cells):
                self.dense_tables.append(self._dense_table(piece, clip, step_hint))
                continue
            # sign-stable segments (a, b, value at own midpoint, beta)
            segments: list[tuple[float, float, float, float]] = []
            cursor = clip.lo
            for cell in cells:
                if cell.a > cursor:
                    segments.append((cursor, cell.a, 0.0, 0.0))
                vc, beta = cell.vc.real, cell.beta.real
                split_at: float | None = None
                if beta != 0.0:
                    root = cell.center - vc / beta
                    if cell.a < root < cell.b:
                        split_at = root
                if split_at is None:
                    segments.append((cell.a, cell.b, vc, beta))
                else:
                    m1 = 0.5 * (cell.a + split_at)
                    m2 = 0.5 * (split_at + cell.b)
                    segments.append((cell.a, split_at, vc + beta * (m1 - cell.center), beta))
                    segments.append((split_at, cell.b, vc + beta * (m2 - cell.center), beta))
                cursor = cell.b
            if cursor < clip.hi:
                segments.append((cursor, clip.hi, 0.0, 0.0))
            e = np.array([s[0] for s in segments] + [segments[-1][1]])
            vmid = np.array([s[2] for s in segments])
            beta_arr = np.array([s[3] for s in segments])
            seg_int = np.abs(vmid) * np.diff(e)  # sign-stable on each segment
            cum = np.concatenate(([0.0], np.cumsum(seg_int)))
            self.affine_tables.append((e, cum, vmid, beta_arr))

    @staticmethod
    def _dense_table(piece: TransformedDensity, clip: Window, step_hint: float) -> tuple[np.ndarray, np.ndarray]:
        h = max(min(step_hint / 2.0, clip.width / 2048.0), clip.width / 4_000_000.0)
        n = max(2, int(np.ceil(clip.width / h)) + 1)
        ts = np.linspace(clip.lo, clip.hi, n)
        vals = np.abs(piece.evalv(ts))
        seg = 0.5 * (vals[:-1] + vals[1:]) * np.diff(ts)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        return ts, cum

    def query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        out = (
            self.cum_atoms[np.searchsorted(self.pos, hi, side="right")]
            - self.cum_atoms[np.searchsorted(self.pos, lo, side="left")]
        )
        for table in self.affine_tables:
            out = out + self._affine_cum(table, hi) - self._affine_cum(table, lo)
        for ts, cum in self.dense_tables:
            out = out + np.interp(hi, ts, cum) - np.interp(lo, ts, cum)
        return out

    @staticmethod
    def _affine_cum(
        table: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], u: np.ndarray
    ) -> np.ndarray:
        e, cum, vmid, beta = table
        uc = np.clip(u, e[0], e[-1])
        idx = np.clip(np.searchsorted(e, uc, side="right") - 1, 0, vmid.size - 1)
        e0 = e[idx]
        seg_mid = 0.5 * (e0 + e[idx + 1])
        d = uc - e0
        # value at the midpoint of [e0, u]; sign is constant on the segment
        v = vmid[idx] + beta[idx] * (0.5 * (e0 + uc) - seg_mid)
        return cum[idx] + np.abs(v * d)


def sup_norm_K(mu: MeasureExpr, k: Window, search: Window, step: float) -> float:
    """sup over grid points x in search of |mu|(x + k).

    Exact for atoms and declared real piecewise-affine densities; other
    densities contribute through a dense cumulative table.
    """
    if not (step > 0):
        raise InvalidArgument(f"step must be positive, got {step}")
    hull = Window(search.lo + k.lo, search.hi + k.hi)
    table = _VariationTable(mu, hull, step)
    n = int(np.floor(search.width / step))
    xs = search.lo + step * np.arange(n + 1)
    if xs.size == 0 or xs[-1] < search.hi:
        xs = np.append(xs, search.hi)
    vals = table.query(xs + k.lo, xs + k.hi)
    return float(np.max(vals))


def seminorm_pg(
    mu: MeasureExpr,
    g: TestFunction,
    search: Window,
    step: float | None = None,
    tol: float = 1e-8,
) -> float:
    """sup over grid points x in search of |(mu * g)(x)|."""
    if step is None:
        step = g.step
    if not (step > 0):
        raise InvalidArgument(f"step must be positive, got {step}")
    n = int(np.floor(search.width / step))
    xs = search.lo + step * np.arange(n + 1)
    if xs.size == 0 or xs[-1] < search.hi:
        xs = np.append(xs, search.hi)
    vals = convolve_grid(mu, g, xs, tol=tol)
    return float(np.max(np.abs(vals)))
