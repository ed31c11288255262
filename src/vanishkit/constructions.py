"""Builders for the shipped example measures and the block-sum generator.

The example catalog covers the structured measures the rest of the library
is exercised against: offset-pair combs with exact cancellation, Riemann
block combs, shrinking tents, alternating dyadic densities, the dyadic step
family with its sinc-squared spectral side, and the radial Bessel density.

The block-sum machinery assembles a measure as a sum of translated parts
sharing a common compact carrier window, validates the four hypotheses that
make such a sum vanish at infinity (support containment, bounded variation,
vague convergence to zero, uniformly discrete translates), and generates the
summed measure when they hold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HypothesesNotSatisfied, InvalidArgument, UnknownExample
from .fourier import bessel_j0_vec
from .masses import _cell_mass, _cells_sum, _converged_cum
from .measures import (
    AbsCont,
    AtomSource,
    ConstantDensity,
    DensitySource,
    FiniteAtoms,
    IndicatorDensity,
    MeasureExpr,
    PurePoint,
    ReflectConj,
    Scale,
    Sum,
    Translate,
    TriangleDensity,
    _MAX_ATOMS,
    _affine_cells,
    _as_complex,
    _atom_columns,
    _cell_pairs,
    _check_atom_count,
    _merge,
    _merge_runs,
    _piece_into_grid,
    _resolve_parts,
    _steep_cells,
)
from .testfunctions import TestFunction, Window, tf_hat, tf_reflect_conj

__all__ = [
    "OffsetPairComb",
    "RiemannComb",
    "ShrinkingTentsDensity",
    "AlternatingDyadicDensity",
    "DyadicStepDensity",
    "RadialBesselDensity",
    "EXAMPLE_NAMES",
    "build_example",
    "BlockPart",
    "BlockSumInput",
    "HypothesisReport",
    "GeneratedBlockSum",
    "default_probes",
    "validate_block_sum",
    "generate_block_sum",
    "ex_a_block_input",
    "nu_block_input",
    "ex_b_block_input",
]


class OffsetPairComb(AtomSource):
    """Atoms +1 at n + 1/n and -1 at n, over all nonzero integers n.

    The +1 atom of n = 1 lands exactly on the integer 2 and cancels the
    -1 atom of n = 2; same at -2 by symmetry.  Enumeration merges on exact
    position equality, so those two positions carry no atom.
    """

    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        first, last = math.floor(w.lo) - 2, math.ceil(w.hi) + 2
        _check_atom_count(2 * (last - first + 1), self, w)
        n = np.arange(first, last + 1, dtype=float)
        n = n[n != 0]
        pos = np.column_stack((n, n + 1.0 / n)).ravel()  # -1 at n, then +1 at n + 1/n
        wts = np.tile(np.array([-1.0, 1.0], dtype=np.complex128), n.size)
        pos, wts = _merge(pos, wts)
        keep = (pos >= w.lo) & (pos <= w.hi)
        return pos[keep], wts[keep]

    def __repr__(self) -> str:
        return "OffsetPairComb()"


def _runs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each element of consecutive runs, run i sizes[i] long: the length
    of its run and its index within the run."""
    length = np.repeat(sizes, sizes)
    return length, np.arange(length.size) - np.repeat(sizes.cumsum() - sizes, sizes)


class RiemannComb(AtomSource):
    """Block combs: for each n >= 1, atoms of weight 1/n at n + k/n.

    ``k_start = 0`` gives k = 0..n-1 (blocks [n, n+1), an atom on every
    integer); ``k_start = 1`` gives k = 1..n (blocks (n, n+1], closing at
    the right endpoint).  Either way block n is a Riemann-sum comb whose
    vague limit is Lebesgue on a unit interval.
    """

    def __init__(self, k_start: int = 0) -> None:
        if k_start not in (0, 1):
            raise InvalidArgument(f"k_start must be 0 or 1, got {k_start}")
        self.k_start = k_start

    def enumerate_window(self, w: Window) -> tuple[np.ndarray, np.ndarray]:
        first, last = max(1, math.floor(w.lo) - 1), math.floor(w.hi) + 1
        _check_atom_count((first + last) * max(0, last - first + 1) // 2, self, w)
        blocks = np.arange(first, last + 1)
        n, ks = _runs(blocks)  # block n holds n atoms
        p = n + (ks + self.k_start) / n
        inside = (p >= w.lo) & (p <= w.hi)
        return _merge(p[inside], (1.0 / n[inside]).astype(np.complex128))

    def __repr__(self) -> str:
        return f"RiemannComb(k_start={self.k_start})"


# From level 48 on, n +- 2^-n rounds to n in float64 (2^-n is at most half
# an ulp of n), so a tent has no cells to integrate; the family is cut after
# level 47, the last one float64 resolves, and the omitted mass is 2^-47.
_TENT_CAP = 47


class ShrinkingTentsDensity(DensitySource):
    """Tents of height 1 and halfwidth 2^-n centered at n = 1, 2, ...

    The tent at n has integral 2^-n, so the measure vanishes at infinity
    while the density keeps peak value 1 on every block.
    """

    support = None

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        m = np.rint(xs)
        ok = (m >= 1) & (m <= _TENT_CAP)
        mm = np.where(ok, m, 1.0)
        val = 1.0 - np.exp2(mm) * np.abs(xs - mm)
        return np.where(ok & (val > 0.0), val, 0.0).astype(np.complex128)

    def knots(self, w: Window) -> np.ndarray:
        n_lo = max(1, math.floor(w.lo))
        n_hi = min(_TENT_CAP, math.ceil(w.hi))
        out = []
        for n in range(n_lo, n_hi + 1):
            h = 2.0 ** (-n)
            out.extend((n - h, float(n), n + h))
        return np.array(out)

    def __repr__(self) -> str:
        return "ShrinkingTentsDensity()"


# Beyond level 14 a block has over 16k sign changes per unit; representing
# its knots is pointless at desk scale and the block is dropped (its
# convolution with any Lipschitz f is below Lip(f) * 2^-15 in sup norm).
_BF_MAX_LEVEL = 14


class AlternatingDyadicDensity(DensitySource):
    """Density (-1)^k on [n + k/2^n, n + (k+1)/2^n) for n >= 1, 0 elsewhere.

    Left-closed subinterval convention; the density does not vanish at
    infinity pointwise (it keeps hitting +-1) but the measure it defines
    does, through cancellation at ever finer scales.
    """

    support = None

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        m = np.floor(xs)
        ok = (m >= 1) & (m <= _BF_MAX_LEVEL)
        mm = np.where(ok, m, 1.0)
        k = np.floor((xs - mm) * np.exp2(mm))
        val = 1.0 - 2.0 * np.mod(k, 2.0)
        return np.where(ok, val, 0.0).astype(np.complex128)

    def knots(self, w: Window) -> np.ndarray:
        n_lo = max(1, math.floor(w.lo))
        n_hi = min(_BF_MAX_LEVEL, math.ceil(w.hi))
        out = [np.array([1.0, _BF_MAX_LEVEL + 1.0])]
        for n in range(n_lo, n_hi + 1):
            out.append(n + np.arange(2**n + 1) / 2.0**n)
        return np.unique(np.concatenate(out))

    def __repr__(self) -> str:
        return f"AlternatingDyadicDensity(max_level={_BF_MAX_LEVEL})"


class DyadicStepDensity(DensitySource):
    """Steps 2^-n on [n, n+1) and on [-n-1, -n) for n = 0..n_trunc.

    The absolutely continuous spread of the truncated dyadic block family;
    support is [-(n_trunc+1), n_trunc+1].
    """

    def __init__(self, n_trunc: int) -> None:
        if n_trunc < 0:
            raise InvalidArgument(f"n_trunc must be nonnegative, got {n_trunc}")
        self.n_trunc = n_trunc
        self.support = Window(-(n_trunc + 1.0), n_trunc + 1.0)

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        m = np.floor(xs)
        pos = (m >= 0) & (m <= self.n_trunc)
        neg = (m >= -(self.n_trunc + 1)) & (m <= -1)
        out = np.zeros(xs.shape)
        out[pos] = np.exp2(-m[pos])
        out[neg] = np.exp2(m[neg] + 1.0)
        return out.astype(np.complex128)

    def knots(self, w: Window) -> np.ndarray:
        lo = max(-(self.n_trunc + 1), math.floor(w.lo))
        hi = min(self.n_trunc + 1, math.ceil(w.hi))
        if lo > hi:
            return np.empty(0)
        return np.arange(lo, hi + 1, dtype=float)

    def __repr__(self) -> str:
        return f"DyadicStepDensity(n_trunc={self.n_trunc})"


class RadialBesselDensity(DensitySource):
    """2 pi J0(2 pi |x|): the 1-d radial profile of the circle transform."""

    support = None

    def evalv(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return (2.0 * np.pi * bessel_j0_vec(2.0 * np.pi * np.abs(xs))).astype(np.complex128)

    def __repr__(self) -> str:
        return "RadialBesselDensity()"


EXAMPLE_NAMES = (
    "ex_a",
    "ex_nu",
    "ex_tent",
    "ex_bf",
    "ex_b",
    "ex_sinc_series",
    "j0_radial",
)


def build_example(name: str, truncation: int | None = None) -> MeasureExpr:
    """Build a catalog measure by name.

    ``truncation`` applies only to ex_sinc_series (series cutoff N,
    default 20); the other examples are lazily windowed and need none.
    """
    if name != "ex_sinc_series" and truncation is not None:
        raise InvalidArgument(f"{name} takes no truncation parameter")
    if name == "ex_a":
        return PurePoint(OffsetPairComb())
    if name == "ex_nu":
        return PurePoint(RiemannComb(k_start=0))
    if name == "ex_tent":
        return AbsCont(ShrinkingTentsDensity())
    if name == "ex_bf":
        return AbsCont(AlternatingDyadicDensity())
    if name == "ex_b":
        return Sum(
            (
                AbsCont(ConstantDensity(1.0)),
                Scale(-1.0, PurePoint(RiemannComb(k_start=1))),
                Scale(-1.0, ReflectConj(PurePoint(RiemannComb(k_start=1)))),
            )
        )
    if name == "ex_sinc_series":
        n = 20 if truncation is None else int(truncation)
        if n < 0:
            raise InvalidArgument(f"truncation must be nonnegative, got {truncation}")
        total = 2.0 - 2.0**-n
        return Sum(
            (
                PurePoint(FiniteAtoms([(0.0, total)])),
                AbsCont(DyadicStepDensity(n)),
                Scale(total, AbsCont(TriangleDensity(0.0, 1.0, 1.0))),
            )
        )
    if name == "j0_radial":
        return AbsCont(RadialBesselDensity())
    raise UnknownExample(name)


# ---------------------------------------------------------------------------
# Block sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPart:
    """One summand: a measure carried by the common window, then shifted."""

    measure: MeasureExpr
    shift: float
    label: str = ""


class BlockSumInput:
    """Parts with a shared carrier window and per-part shifts.

    The atoms of the parts are columns: ``positions`` and ``weights`` flat,
    part by part, ``counts[i]`` of them in part i.  ``exprs[i]`` is the rest
    of part i (density pieces, infinite sources, combinators) as a measure
    expression, or None.  Part i, their sum carried by ``window``, is
    translated by ``shifts[i]``.  ``gap_floor`` is the uniform-discreteness
    floor for the shifts; ``pairing_tol`` bounds the probe pairings on the
    last quarter of the index range for the vague-null hypothesis.

    ``BlockSumInput(parts, window)`` moves each FiniteAtoms leaf that is a
    part, or a term of a part's top Sum, into the columns; ``parts`` views
    any input as BlockPart objects, built when first read.
    """

    def __init__(
        self, parts: Sequence[BlockPart], window: Window, gap_floor: float = 1e-6, pairing_tol: float = 1e-3
    ) -> None:
        self._parts = tuple(parts)
        leaves: list[list[FiniteAtoms]] = []
        exprs: list[MeasureExpr | None] = []
        for p in self._parts:
            terms = p.measure.children if isinstance(p.measure, Sum) else (p.measure,)
            is_leaf = [isinstance(t, PurePoint) and isinstance(t.source, FiniteAtoms) for t in terms]
            leaves.append([t.source for t, leaf in zip(terms, is_leaf) if leaf])
            rest = [t for t, leaf in zip(terms, is_leaf) if not leaf]
            exprs.append(None if not rest else rest[0] if len(rest) == 1 else Sum(tuple(rest)))
        flat = [leaf for part in leaves for leaf in part]
        self._set(
            window, np.concatenate([leaf.positions for leaf in flat] or [[]]),
            np.concatenate([leaf.weights for leaf in flat] or [[]]),
            [sum(leaf.positions.size for leaf in part) for part in leaves], [p.shift for p in self._parts],
            [p.label for p in self._parts], exprs, gap_floor, pairing_tol,
        )

    @classmethod
    def from_columns(
        cls, window: Window, positions: np.ndarray, weights: np.ndarray, counts: np.ndarray, shifts: np.ndarray,
        labels: Sequence[str] | None = None, exprs: Sequence[MeasureExpr | None] | None = None,
        gap_floor: float = 1e-6, pairing_tol: float = 1e-3,
    ) -> BlockSumInput:
        """An input from its columns; labels default to "" and exprs to None."""
        inp = cls.__new__(cls)
        inp._parts = None
        inp._set(window, positions, weights, counts, shifts, labels, exprs, gap_floor, pairing_tol)
        return inp

    def _set(self, window, positions, weights, counts, shifts, labels, exprs, gap_floor, pairing_tol) -> None:
        self.positions, self.weights = _atom_columns(positions, weights)
        shifts, counts = _as_complex(shifts), np.array(counts)
        n = shifts.size
        self.labels = np.full(n, "") if labels is None else np.asarray(labels, dtype=str)
        self.exprs = (None,) * n if exprs is None else tuple(exprs)
        if n == 0:
            raise InvalidArgument("block sum needs at least one part")
        if not (shifts.ndim == 1 and shifts.shape == counts.shape == self.labels.shape and len(self.exprs) == n):
            raise InvalidArgument("block columns need one count, label and expression slot per shift")
        if counts.dtype.kind not in "iu" or np.any(counts < 0) or counts.sum() != self.positions.size:
            raise InvalidArgument(f"part atom counts must be integers >= 0 adding up to {self.positions.size}")
        if not np.isfinite(shifts).all() or np.count_nonzero(shifts.imag):
            raise InvalidArgument("shifts must be real and finite")
        if not (gap_floor > 0):
            raise InvalidArgument(f"gap_floor must be positive, got {gap_floor}")
        if not (pairing_tol > 0):
            raise InvalidArgument(f"pairing_tol must be positive, got {pairing_tol}")
        self.window, self.counts, self.shifts = window, counts.astype(np.intp), shifts.real.copy()
        self.gap_floor, self.pairing_tol = gap_floor, pairing_tol

    @property
    def parts(self) -> tuple[BlockPart, ...]:
        """A part's atoms are one FiniteAtoms leaf, summed with its expression if it has one."""
        if self._parts is None:
            parts, ends = [], self.counts.cumsum()
            for i, expr in enumerate(self.exprs):
                lo, hi = ends[i] - self.counts[i], ends[i]
                if expr is None or hi > lo:
                    atoms = PurePoint(FiniteAtoms(np.column_stack((self.positions[lo:hi], self.weights[lo:hi]))))
                    expr = atoms if expr is None else Sum((atoms, expr))
                parts.append(BlockPart(expr, float(self.shifts[i]), str(self.labels[i])))
            self._parts = tuple(parts)
        return self._parts


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the four block-sum hypotheses.

    h_support: every part carried inside the window (offender index else
    None).  h_bounded: per-part variation shows no growth trend across the
    last half of indices; sup_variation is the overall sup.  h_vague_null:
    probe pairings on the last quarter of indices stay below tolerance;
    pairing_trace holds the per-index worst |pairing|.  h_udiscrete: shifts
    pairwise separated by at least the floor.
    """

    h_support: bool
    support_offender: int | None
    h_bounded: bool
    sup_variation: float
    h_vague_null: bool
    worst_pairing: float
    pairing_trace: tuple[float, ...]
    h_udiscrete: bool
    min_shift_gap: float
    overall: bool

    def summary(self) -> str:
        def mark(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        lines = [
            f"(i)   support containment: {mark(self.h_support)}"
            + (f" (offender part {self.support_offender})" if self.support_offender is not None else ""),
            f"(ii)  bounded variation:   {mark(self.h_bounded)} (sup {self.sup_variation:.6g})",
            f"(iii) vague null sequence: {mark(self.h_vague_null)} (worst tail pairing {self.worst_pairing:.3e})",
            f"(iv)  discrete translates: {mark(self.h_udiscrete)} (min gap {self.min_shift_gap:.6g})",
            f"overall: {mark(self.overall)}",
        ]
        return "\n".join(lines)


def default_probes(window: Window) -> list[TestFunction]:
    """Hats at 3 dyadic scales and 5 centers spanning the window."""
    centers = np.linspace(window.lo, window.hi, 5)
    scales = [window.width / 2.0, window.width / 4.0, window.width / 8.0]
    return [tf_hat(float(c), hw, 1.0) for hw in scales for c in centers]


# the fixed quadrature tolerance of the pairings and variations, the default
# of convolve and variation_on
_TOL = 1e-8


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of the consecutive runs of values, run i counts[i] long; an
    empty run sums to 0."""
    out = np.zeros(counts.size, dtype=values.dtype)
    full = counts > 0
    if np.any(full):
        out[full] = np.add.reduceat(values, (counts.cumsum() - counts)[full])
    return out


def _validate(
    inp: BlockSumInput, probes: Sequence[TestFunction] | None
) -> tuple[HypothesisReport, np.ndarray, np.ndarray, np.ndarray]:
    """The report of validate_block_sum, and the parts' atoms inside the window.

    Everything is read on a span that covers the window with a margin and
    every probe's support.  The atom columns are clipped to the span with a
    mask; only the parts' expressions are resolved, in one pass.  Their atoms
    join the columns part by part, and each part's atoms are merged as
    _merge would.  The affine cells of the declared density pieces are built
    once per distinct (density, transform, clip) and shared by every piece
    that repeats it.  The pairing of a part with a probe g is (part * g~)(0),
    the integral of conj(g) against the part: one evaluation of
    g~ = tf_reflect_conj(g) at minus every atom position, and one
    cell-kernel call on every cell that reaches 0, each summed per part; a
    smooth piece adds its one-point convolution with g~.  A part's variation
    is the |w| of its atoms inside the window, plus the window mass of its
    declared pieces added on common edges (_cells_sum), from one pass over
    the cells of all parts, plus each smooth piece's own mass.  Returns
    (report, positions, weights, part index) of the atoms inside the window.
    """
    if probes is None:
        probes = default_probes(inp.window)
    if not probes:
        raise InvalidArgument("probe family must be nonempty")
    k = inp.window
    pad = 10.0 * max(1.0, k.width)
    span = Window(min(k.lo - pad, *(g.lo for g in probes)), max(k.hi + pad, *(g.hi for g in probes)))
    n = inp.shifts.size
    part = np.repeat(np.arange(n), inp.counts)
    clip = (inp.positions >= span.lo) & (inp.positions <= span.hi)
    pos, wts, part = inp.positions[clip], inp.weights[clip], part[clip]
    with_expr = [i for i, e in enumerate(inp.exprs) if e is not None]
    pieces: dict[int, list] = {}
    if with_expr:
        e_pos, e_wts, e_counts, e_pieces = _resolve_parts([inp.exprs[i] for i in with_expr], span)
        pieces = {i: pp for i, pp in zip(with_expr, e_pieces) if pp}
        if e_pos.size:
            part = np.concatenate((part, np.repeat(with_expr, e_counts)))
            order = np.argsort(part, kind="stable")  # part by part, the columns first
            pos, wts, part = np.concatenate((pos, e_pos))[order], np.concatenate((wts, e_wts))[order], part[order]
    pos, wts, counts = _merge_runs(pos, wts, np.bincount(part, minlength=n))
    part = np.repeat(np.arange(n), counts)
    inside = (pos >= k.lo) & (pos <= k.hi)

    offends = np.zeros(n, dtype=bool)  # support: an atom or a piece off the window
    offends[part[~inside]] = True
    reflected = [tf_reflect_conj(g) for g in probes]
    pairs = np.array([_segment_sums(g.values(-pos) * wts, counts) for g in reflected])
    variations = _segment_sums(np.abs(wts[inside]), np.bincount(part[inside], minlength=n))
    declared = []  # (part, cells) per declared piece
    smooth = []  # (part, piece) per smooth piece
    built = {}  # cells (or None) per distinct density, transform and clip
    for i, part_pieces in pieces.items():
        for piece in part_pieces:
            sup = piece.support
            offends[i] |= sup is None or sup.lo < k.lo - 1e-12 or sup.hi > k.hi + 1e-12
            clip = span if sup is None else span.intersect(sup)
            key = (id(piece.base), piece.sign, piece.shift, piece.conj, piece.scale, clip.lo, clip.hi)
            if key not in built:
                built[key] = _affine_cells(piece, clip)
            cells = built[key]
            if cells is None:
                smooth.append((i, piece))
            else:
                declared.append((i, cells))
    if declared:
        # each part's declared pieces added on common edges, then |.| on the window
        summed = [(i, _cells_sum([c for _, c in group])) for i, group in itertools.groupby(declared, lambda d: d[0])]
        a, b, vc, beta = (np.concatenate(arrays) for arrays in zip(*(c for _, c in summed)))
        lo, hi = np.maximum(a, k.lo), np.minimum(b, k.hi)
        mass = _cell_mass(vc, beta, lo - 0.5 * (a + b), np.maximum(hi - lo, 0.0))
        owner = np.repeat([i for i, _ in summed], [c[0].size for _, c in summed])
        variations += np.bincount(owner, weights=mass, minlength=n)
        cells = tuple(np.concatenate(arrays) for arrays in zip(*(c for _, c in declared)))
        owner = np.repeat([i for i, _ in declared], [c[0].size for _, c in declared])
        for j, g in enumerate(reflected):
            reach = np.flatnonzero((cells[0] + g.lo <= 0.0) & (cells[1] + g.hi >= 0.0))
            vals = _cell_pairs(cells, _steep_cells(cells, g), g, reach, np.zeros(reach.size))
            pairs[j] += _segment_sums(vals, np.bincount(owner[reach], minlength=n))
    origin = np.zeros(1)
    for i, piece in smooth:
        clip = k if piece.support is None else k.intersect(piece.support)
        if clip is not None and clip.width > 0.0:  # adds its own |.|: an upper bound on |part|
            variations[i] += _converged_cum(piece, clip, _TOL)[1][-1]
        for j, g in enumerate(reflected):
            _piece_into_grid(piece, g, origin, pairs[j, i : i + 1], _TOL)
    trace = np.max(np.abs(pairs), axis=0)
    support_ok = not np.any(offends)

    sup_var = float(np.max(variations))
    if n >= 4:
        half = n // 2
        bounded_ok = float(np.max(variations[half:])) <= 1.05 * float(np.max(variations[:half])) + 1e-9
    else:
        bounded_ok = np.isfinite(sup_var)

    worst_pairing = float(np.max(trace[n - max(1, n // 4) :]))
    vague_ok = worst_pairing < inp.pairing_tol

    shifts = np.sort(inp.shifts)
    if shifts.size >= 2:
        min_gap = float(np.min(np.diff(shifts)))
    else:
        min_gap = float("inf")
    discrete_ok = min_gap >= inp.gap_floor

    overall = support_ok and bounded_ok and vague_ok and discrete_ok
    report = HypothesisReport(
        h_support=support_ok,
        support_offender=None if support_ok else int(np.argmax(offends)),
        h_bounded=bool(bounded_ok),
        sup_variation=sup_var,
        h_vague_null=bool(vague_ok),
        worst_pairing=worst_pairing,
        pairing_trace=tuple(float(t) for t in trace),
        h_udiscrete=bool(discrete_ok),
        min_shift_gap=min_gap,
        overall=bool(overall),
    )
    return report, pos[inside], wts[inside], part[inside]


def validate_block_sum(
    inp: BlockSumInput, probes: Sequence[TestFunction] | None = None
) -> HypothesisReport:
    """Check the four hypotheses on a block-sum input.

    Support containment is probed on a finitely expanded window (content
    further out is invisible to any finite check); vague convergence is
    tested against the probe family only, so a pass is evidence, not proof.
    """
    return _validate(inp, probes)[0]


@dataclass(frozen=True)
class GeneratedBlockSum:
    """A generated block-sum measure with its validation report.

    ``covered`` is the spatial range the truncated index family accounts
    for; windows inside it see the exact sum.
    """

    measure: MeasureExpr
    report: HypothesisReport
    covered: Window
    n_parts: int


def _is_pure_point(expr: MeasureExpr) -> bool:
    if isinstance(expr, PurePoint):
        return True
    if isinstance(expr, AbsCont):
        return False
    if isinstance(expr, (Translate, ReflectConj, Scale)):
        return _is_pure_point(expr.child)
    if isinstance(expr, Sum):
        return all(_is_pure_point(c) for c in expr.children)
    raise InvalidArgument(f"unknown expression node {type(expr).__name__}")


def generate_block_sum(
    inp: BlockSumInput,
    probes: Sequence[TestFunction] | None = None,
    override: bool = False,
) -> GeneratedBlockSum:
    """Validate and assemble the translated block sum.

    Raises HypothesesNotSatisfied (carrying the report) when validation
    fails, unless ``override`` is set for counterexample study; with it the
    sum is built whatever the verdict, and ``.report`` holds the one
    validation run.  A pure-point sum is one atom list: each part's atoms
    inside the window, shifted.  Otherwise the sum is an expression: all
    column atoms, shifted, as one atom list, plus each translated expression.
    """
    report, pos, wts, part = _validate(inp, probes)
    if not report.overall and not override:
        raise HypothesesNotSatisfied(report)
    shifts = inp.shifts
    covered = Window(float(np.min(shifts)) + inp.window.lo, float(np.max(shifts)) + inp.window.hi)
    exprs = [(float(shifts[i]), e) for i, e in enumerate(inp.exprs) if e is not None]
    if all(_is_pure_point(e) for _, e in exprs):
        measure: MeasureExpr = PurePoint(FiniteAtoms(np.column_stack((pos + shifts[part], wts))))
    else:
        shifted = np.column_stack((inp.positions + np.repeat(shifts, inp.counts), inp.weights))
        measure = Sum((PurePoint(FiniteAtoms(shifted)),) + tuple(Translate(t, e) for t, e in exprs))
    return GeneratedBlockSum(measure, report, covered, shifts.size)


# ---------------------------------------------------------------------------
# Documented decompositions
# ---------------------------------------------------------------------------


def _check_recipe(name: str, n: int, atoms: int) -> None:
    """Reject a recipe size below 1 or one whose input would exceed _MAX_ATOMS
    (validation evaluates each of its probes over all of them)."""
    if n < 1:
        raise InvalidArgument(f"{name} block input needs n >= 1, got {n}")
    if atoms > _MAX_ATOMS:
        raise InvalidArgument(f"{name} block input with n = {n} holds {atoms} atoms, over the {_MAX_ATOMS} allowed")


def _signed_labels(n: np.ndarray) -> np.ndarray:
    """Labels +1, -1, +2, -2, ... of the two parts of each n."""
    return np.strings.add(np.tile(["+", "-"], n.size), np.repeat(n, 2).astype(str))


def ex_a_block_input(n_half: int) -> BlockSumInput:
    """Offset-pair parts: {+1 at 1/n, -1 at 0} shifted by n, both signs.

    Reassembles the offset-pair comb exactly on windows inside
    [-n_half - 1, n_half + 1].
    """
    _check_recipe("ex_a", n_half, 4 * n_half)
    n = np.arange(1, n_half + 1)
    inv, zero = 1.0 / n, np.zeros(n_half)
    # part +n: -1 at 0, +1 at 1/n; part -n: +1 at -1/n, -1 at 0
    positions = np.column_stack((zero, inv, -inv, zero)).ravel()
    weights = np.tile(np.array([-1.0, 1.0, 1.0, -1.0], dtype=np.complex128), n_half)
    shifts = np.column_stack((n, -n)).ravel()
    return BlockSumInput.from_columns(
        Window(-1.0, 1.0), positions, weights, np.full(2 * n_half, 2), shifts, _signed_labels(n)
    )


def nu_block_input(n_max: int) -> BlockSumInput:
    """Riemann-comb parts (1/n at k/n, k = 0..n-1) shifted by n.

    The parts converge vaguely to Lebesgue on [0, 1], not to zero, so
    validation fails the vague-null hypothesis; the generated sum (with
    override) is the staircase comb whose convolutions plateau.
    """
    _check_recipe("ex_nu", n_max, n_max * (n_max + 1) // 2)
    sizes = np.arange(1, n_max + 1)
    n, k = _runs(sizes)
    return BlockSumInput.from_columns(
        Window(0.0, 1.0), k / n, (1.0 / n).astype(np.complex128), sizes, sizes,
        np.strings.add("n=", sizes.astype(str)),
    )


def ex_b_block_input(n_max: int) -> BlockSumInput:
    """Lebesgue-minus-Riemann parts reassembling the ex_b measure.

    Index 0 carries Lebesgue on [-1, 1] (the two half-line families' n = 0
    terms share shift 0, so they are merged into one part to keep the
    shifts pairwise distinct); index n >= 1 carries Lebesgue on a unit
    interval minus the right-endpoint Riemann comb (1/n at k/n, k = 1..n),
    shifted by +-n.  Equals the ex_b catalog measure on covered windows.
    The combs are the columns, the indicator densities the expressions.
    """
    _check_recipe("ex_b", n_max, n_max * (n_max + 1))
    blocks = np.arange(1, n_max + 1)
    sizes = np.repeat(blocks, 2)  # part +n, then part -n
    n, j = _runs(sizes)
    minus = np.repeat(np.tile([False, True], n_max), sizes)
    positions = np.where(minus, j - n, j + 1) / n  # -n: the comb of +n reflected, ascending
    halves = (AbsCont(IndicatorDensity(0.0, 1.0)), AbsCont(IndicatorDensity(-1.0, 0.0)))
    return BlockSumInput.from_columns(
        Window(-1.0, 1.0),
        positions,
        (-1.0 / n).astype(np.complex128),
        np.concatenate(([0], sizes)),
        np.concatenate(([0], np.column_stack((blocks, -blocks)).ravel())),
        np.concatenate((["middle"], _signed_labels(blocks))),
        (AbsCont(IndicatorDensity(-1.0, 1.0)),) + halves * n_max,
    )
