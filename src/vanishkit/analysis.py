"""Decay verdicts, coefficient scans, and interval means for measures.

The central object is the decay profile: sups of |mu*f| over a chain of
annuli.  Since only finitely many annuli can ever be inspected, a passing
verdict is named ``vanishing-up-to-horizon`` rather than claiming true
membership in C_0.

Verdict strings: ``vanishing-up-to-horizon``, ``not-vanishing``,
``inconclusive``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgument
from .masses import _trapezoid_rule
from .measures import AtomSource, MeasureExpr, PurePoint, _Plan, _scan
from .testfunctions import TestFunction, Window, tf_convolve, tf_hat, tf_reflect_conj

__all__ = [
    "VANISHING",
    "NOT_VANISHING",
    "INCONCLUSIVE",
    "DecayProfile",
    "decay_profile",
    "default_family",
    "VanishingReport",
    "vanishing_verdict",
    "CoefficientVerdict",
    "coefficients_vanishing",
    "min_gap",
    "DiscreteSupportReport",
    "discrete_support_crosscheck",
    "MeanTrace",
    "mean_abs",
]

VANISHING = "vanishing-up-to-horizon"
NOT_VANISHING = "not-vanishing"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DecayProfile:
    """Annulus sups of |mu*f| plus the derived verdict.

    ``entries`` pairs each requested radius with the sup of |mu*f| over
    grid points x with radius <= |x| < next radius (the last annulus
    extends by the width of the previous one).  ``k_eps_estimate`` is the
    radius from which every inspected annulus stays below epsilon; it is
    set exactly when the verdict is vanishing-up-to-horizon.
    ``lip_margin`` bounds how much |mu*f| anywhere in an annulus can exceed
    the annulus's sup: between two neighbouring grid points, half the grid
    step times Lip(f) times the largest |mu| on the scanned blocks' windows;
    past the last grid point, up to the outer radius, the full step times
    Lip(f) times the |mu| that gap reaches.  Both windows lie over the annuli
    only (smooth densities enter by a trapezoid table, not a bound).
    """

    entries: tuple[tuple[float, float], ...]
    epsilon: float
    verdict: str
    k_eps_estimate: float | None
    lip_margin: float

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.entries)

    @property
    def sups(self) -> tuple[float, ...]:
        return tuple(s for _, s in self.entries)


def _annulus_bounds(radii: Sequence[float]) -> list[tuple[float, float]]:
    rs = [float(r) for r in radii]
    if len(rs) == 0:
        raise InvalidArgument("radii must be nonempty")
    if not all(np.isfinite(rs)):
        raise InvalidArgument(f"radii must be finite, got {rs}")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise InvalidArgument("radii must be strictly increasing")
    if rs[0] < 0:
        raise InvalidArgument("radii must be nonnegative")
    last_width = rs[-1] - rs[-2] if len(rs) >= 2 else rs[-1]
    outer = rs[-1] + (last_width if last_width > 0 else 1.0)
    return list(zip(rs, rs[1:] + [outer]))


def _annulus_count(lo: float, hi: float, step: float) -> int:
    """How many of lo, lo + step, ... lie below hi (lo < hi): the next one,
    lo + step * n, is at or past hi, so the last one is within a step of it."""
    n = max(1, int(np.ceil((hi - lo) / step)))
    while lo + step * (n - 1) >= hi:
        n -= 1
    while lo + step * n < hi:
        n += 1
    return n


def decay_profile(
    mu: MeasureExpr,
    f: TestFunction,
    radii: Sequence[float],
    epsilon: float,
    annulus_step: float | None = None,
) -> DecayProfile:
    """Sups of |mu*f| over the annuli radii[i] <= |x| < radii[i+1].

    Both signs of x are scanned, one block of grid points at a time, from one
    scan plan over every annulus.  The annuli of one sign are the segments
    of one scan (_scan): annuli that fit in a block together share it, so
    each block is resolved, convolved and asked for all its |mu| windows
    once.  The grid step defaults to half the test function's own step;
    lip_margin, read from the same blocks, says how far the true sup can
    sit above the grid sup.

    A block that resolves atoms only is read at its corners (_Block.corners),
    unless they would be every point: the grid points next to each atom +
    knot of f, and its two ends.  mu*f is
    then linear between consecutive corners, and |a + bt| is convex for
    complex a and b, so the largest grid value of a run sits at one of its
    two ends: the sup is the same grid sup, read from far fewer points.
    """
    if not (0 < epsilon < np.inf):
        raise InvalidArgument(f"epsilon must be positive and finite, got {epsilon}")
    bounds = _annulus_bounds(radii)
    if annulus_step is None:
        annulus_step = f.step / 2.0
    if not (0 < annulus_step < np.inf):
        raise InvalidArgument(f"annulus_step must be positive and finite, got {annulus_step}")
    # |mu*f| is Lipschitz with constant Lip(f) * |mu|([x - f.hi, x' - f.lo])
    # between x < x'.  Each scanned block gives that |mu| between every r-th
    # point of each annulus part and the next point out (_scan), at most
    # max(1, annulus_step) apart; a point between two grid points is within
    # half a step of one of them.  The gap from an annulus's last point x to
    # its outer radius (under one step, _annulus_count) is bounded from x
    # alone, a full step out, by the |mu| of [x - f.hi, hi - f.lo], read from
    # the block that holds x.  A block answers all its windows in one call.
    outer = bounds[-1][1]
    plan = _Plan(mu, Window(-outer - 2.0 * annulus_step - f.hi, outer + 2.0 * annulus_step - f.lo))
    step = max(1.0, annulus_step)
    r, rule = int(step // annulus_step), _trapezoid_rule(step)
    segments = [(lo, _annulus_count(lo, hi, annulus_step)) for lo, hi in bounds]
    sups = [0.0] * len(bounds)
    mass_bound = gap_mass = 0.0
    for sign in (1, -1):
        for block, parts in _scan(plan, f, annulus_step, segments, sign):
            x0, x1, gaps = [], [], []
            for i, start, stop, ks, vals in parts:
                sups[i] = max(sups[i], float(np.max(np.abs(vals))))
                lo, n = segments[i]
                # every r-th k from start, and stop
                x = sign * (lo + annulus_step * np.minimum(np.arange(start, stop + r, r), stop))
                x0.append(x[:-1] if sign > 0 else x[1:])
                x1.append(x[1:] if sign > 0 else x[:-1])
                if stop == n:
                    last, hi = lo + annulus_step * (n - 1), bounds[i][1]
                    gaps.append((last, hi) if sign > 0 else (-hi, -last))
            g0, g1 = np.array(gaps).reshape(-1, 2).T
            m = block.masses(rule, np.concatenate((*x0, g0)) - f.hi, np.concatenate((*x1, g1)) - f.lo)
            mass_bound = max(mass_bound, float(np.max(m[: m.size - g0.size])))
            if g0.size:
                gap_mass = max(gap_mass, float(np.max(m[m.size - g0.size :])))
            del block, parts, ks, vals  # before the next block is resolved
    entries = list(zip((lo for lo, _ in bounds), sups))
    lip_margin = annulus_step * f.lipschitz * max(0.5 * mass_bound, gap_mass)
    if sups[-1] < epsilon:
        j = len(sups)
        while j > 0 and sups[j - 1] < epsilon:
            j -= 1
        verdict = VANISHING
        k_eps: float | None = entries[j][0]
    elif sups[-1] >= 0.5 * max(sups):
        verdict, k_eps = NOT_VANISHING, None
    else:
        verdict, k_eps = INCONCLUSIVE, None
    return DecayProfile(tuple(entries), float(epsilon), verdict, k_eps, lip_margin)


def default_family() -> list[tuple[str, TestFunction]]:
    """Labelled default test family: three hats and their autocorrelations."""
    out: list[tuple[str, TestFunction]] = []
    for hw in (0.125, 0.25, 0.5):
        h = tf_hat(0.0, hw, 1.0)
        out.append((f"hat(0,{hw})", h))
        out.append((f"autocorr(hat(0,{hw}))", tf_convolve(h, tf_reflect_conj(h))))
    return out


@dataclass(frozen=True)
class VanishingReport:
    """Aggregated decay verdict over a family of test functions."""

    verdict: str
    epsilon: float
    r_max: float
    profiles: tuple[tuple[str, DecayProfile], ...]
    worst_label: str
    worst_sup: float


def vanishing_verdict(
    mu: MeasureExpr,
    family: Sequence[tuple[str, TestFunction]] | None = None,
    epsilon: float = 0.05,
    r_max: float = 1000.0,
    annulus_step: float | None = None,
) -> VanishingReport:
    """Run decay_profile for every family member and aggregate.

    The aggregate is vanishing only if every member's profile is; a single
    not-vanishing member decides the whole report.  The worst offender is
    the member with the largest final-annulus sup.
    """
    if family is None:
        family = default_family()
    if len(family) == 0:
        raise InvalidArgument("family must be nonempty")
    radii = [r_max / 8.0, r_max / 4.0, r_max / 2.0, r_max]
    profiles: list[tuple[str, DecayProfile]] = []
    for label, f in family:
        profiles.append((label, decay_profile(mu, f, radii, epsilon, annulus_step)))
    verdicts = [p.verdict for _, p in profiles]
    if all(v == VANISHING for v in verdicts):
        verdict = VANISHING
    elif NOT_VANISHING in verdicts:
        verdict = NOT_VANISHING
    else:
        verdict = INCONCLUSIVE
    worst_label, worst_sup = "", -1.0
    for label, p in profiles:
        final_sup = p.entries[-1][1]
        if final_sup > worst_sup:
            worst_label, worst_sup = label, final_sup
    return VanishingReport(verdict, float(epsilon), float(r_max), tuple(profiles), worst_label, worst_sup)


class CoefficientVerdict(NamedTuple):
    """Result of the atom-weight scan; unpacks as (verdict, radius)."""

    verdict: str
    radius: float
    scanned: int


def coefficients_vanishing(src: AtomSource, epsilon: float, r_max: float = 1000.0) -> CoefficientVerdict:
    """Scan atoms in [-r_max, r_max] for weights still >= epsilon far out.

    Returns the smallest R such that every scanned atom with |position| > R
    has |weight| < epsilon.  The not-vanishing call is a heuristic: it
    fires when the quarter of scanned atoms with the largest |position|
    still contains a violating weight.
    """
    if not (0 < epsilon < np.inf):
        raise InvalidArgument(f"epsilon must be positive and finite, got {epsilon}")
    pos, wts = src.enumerate_window(Window(-r_max, r_max))
    n = pos.size
    if n == 0:
        return CoefficientVerdict(VANISHING, 0.0, 0)
    abspos = np.abs(pos)
    order = np.argsort(abspos, kind="stable")
    violating = np.abs(wts[order]) >= epsilon
    if not np.any(violating):
        return CoefficientVerdict(VANISHING, 0.0, n)
    radius = float(abspos[order][np.nonzero(violating)[0][-1]])
    outer_quarter = max(1, int(np.ceil(n / 4)))
    if np.any(violating[-outer_quarter:]):
        return CoefficientVerdict(NOT_VANISHING, radius, n)
    return CoefficientVerdict(VANISHING, radius, n)


def min_gap(src: AtomSource, w: Window) -> float:
    """Minimum distance between distinct atom positions in w; inf if < 2 atoms."""
    pos, _ = src.enumerate_window(w)
    if pos.size < 2:
        return float("inf")
    return float(np.min(np.diff(np.sort(pos))))


@dataclass(frozen=True)
class DiscreteSupportReport:
    """Coefficient verdict vs convolution-decay verdict on one source.

    For uniformly discrete support the two notions of vanishing agree, so
    ``agree=False`` on an applicable input indicates a library defect.
    When the measured gap is below the declared floor the comparison is
    not applicable and no verdicts are computed.
    """

    applicable: bool
    gap: float
    gap_floor: float
    coefficient_verdict: str | None
    decay_verdict: str | None
    agree: bool | None
    note: str


def discrete_support_crosscheck(
    src: AtomSource,
    f: TestFunction,
    epsilon: float,
    r_max: float,
    gap_floor: float,
    annulus_step: float | None = None,
) -> DiscreteSupportReport:
    """Check that weight decay and convolution decay give the same verdict."""
    if not (gap_floor > 0):
        raise InvalidArgument(f"gap_floor must be positive, got {gap_floor}")
    gap = min_gap(src, Window(-r_max, r_max))
    if gap < gap_floor:
        return DiscreteSupportReport(
            False, gap, gap_floor, None, None, None,
            "support is not uniformly discrete at the declared floor",
        )
    coeff = coefficients_vanishing(src, epsilon, r_max)
    radii = [r_max / 4.0, r_max / 2.0, r_max]
    decay = decay_profile(PurePoint(src), f, radii, epsilon, annulus_step)
    if decay.verdict == INCONCLUSIVE:
        return DiscreteSupportReport(
            True, gap, gap_floor, coeff.verdict, decay.verdict, None,
            "decay profile inconclusive; no comparison made",
        )
    agree = (coeff.verdict == VANISHING) == (decay.verdict == VANISHING)
    note = "" if agree else "verdicts disagree on uniformly discrete support: library defect"
    return DiscreteSupportReport(True, gap, gap_floor, coeff.verdict, decay.verdict, agree, note)


@dataclass(frozen=True)
class MeanTrace:
    """Averages of |mu*f| over the intervals [-n, n]."""

    entries: tuple[tuple[int, float], ...]
    limit_estimate: float


def mean_abs(mu: MeasureExpr, f: TestFunction, n_list: Sequence[int]) -> MeanTrace:
    """Trapezoid averages (1/2n) * integral of |mu*f| over [-n, n].

    One convolution grid at the test function's own step covers the whole
    largest interval; each requested n reads off a prefix sum.  The grid is
    scanned in blocks, each block's cumulative sum seeded with the total so
    far, so only the prefix sums at the ends of the intervals are kept.

    A block of real atoms against a real f is read at its corners and at the
    marks -n and n (_Block.corners).  Between consecutive corners a, a + m
    (grid indices), mu*f is real and linear, g_k = g_a + (g_{a+m} - g_a) (k -
    a) / m, so its m trapezoids sum in closed form: h m (|g_a| + |g_{a+m}|) / 2
    where g keeps its sign; where it changes sign, in the grid interval j ..
    j + 1, j = floor(m g_a / (g_a - g_{a+m})), the same sum over a .. j and
    j + 1 .. a + m plus the trapezoid of j .. j + 1 itself.  The result
    equals the trapezoid over every grid point to rounding.  Other blocks are
    read at every grid point.
    """
    ns = [int(n) for n in n_list]
    if len(ns) == 0:
        raise InvalidArgument("n_list must be nonempty")
    if any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidArgument("n_list must be strictly increasing positive integers")
    big = ns[-1]
    h = f.step
    if 2 * big >= np.iinfo(np.intp).max * h:
        raise InvalidArgument(f"horizon {big} needs too many grid points at step {h}")
    k_max = int(round(2 * big / h))
    # the grid indices of -n and n, for each n; the prefix sum at each
    marks = np.array([[round((big - n) / h), round((big + n) / h)] for n in ns])
    cum_at = np.zeros(marks.shape)
    total, last, last_g = 0.0, np.empty(0), np.empty(0)
    plan = _Plan(mu, Window(-big - f.hi, -big + h * (k_max + 1) - f.lo))
    for _, [(_, start, stop, ks, vals)] in _scan(plan, f, h, [(-big, k_max + 1)], keep=marks.ravel(), real=True):
        with np.errstate(over="ignore", invalid="ignore"):  # overflows reach the report's finite check
            mod = np.concatenate((last, np.abs(vals)))
            seg = mod[:-1] + mod[1:]
            seg *= 0.5
            seg *= h
            base = start - last.size
            if ks is not None:  # corners: mu*f is real and linear on each run between two
                ks = np.concatenate((np.arange(base, start), ks))
                gap = np.diff(ks)
                seg *= gap  # a run of one sign: |mu*f| is linear, its trapezoids sum to one
                g = np.concatenate((last_g, vals.real))
                cross = (gap > 1) & (g[:-1] * g[1:] < 0)
                if np.count_nonzero(cross):
                    # a run that changes sign: |.| is linear on the grid intervals
                    # either side of the one, j .. j + 1, that holds the zero
                    m, a, b = gap[cross], g[:-1][cross], g[1:][cross]
                    j = np.minimum(np.floor(m * a / (a - b)), m - 1)
                    gj, gk = np.abs(a + (b - a) * (j / m)), np.abs(a + (b - a) * ((j + 1) / m))
                    seg[cross] = (0.5 * h) * ((np.abs(a) + gj) * j + (gj + gk) + (gk + np.abs(b)) * (m - j - 1))
            # cum[i] is the prefix sum at grid index base + i, or at ks[i]; cumsum adds in order
            cum = np.cumsum(np.concatenate(([total], seg)))
            here = (marks >= base) & (marks < stop)
            cum_at[here] = cum[marks[here] - base if ks is None else ks.searchsorted(marks[here])]
            total, last, last_g = cum[-1], mod[-1:].copy(), vals.real[-1:].copy()
        del ks, vals, mod, seg, cum  # before the next block is resolved
    with np.errstate(invalid="ignore"):  # inf - inf, likewise
        entries = [(n, float((hi - lo) / (2.0 * n))) for n, (lo, hi) in zip(ns, cum_at)]
    return MeanTrace(tuple(entries), entries[-1][1])
