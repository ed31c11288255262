"""Fourier side: exponential sums, exact transforms of piecewise-linear
functions, the dyadic sinc-squared series density, Bessel J0, and the two
consistency checks that tie the spatial and spectral pictures together.

Conventions: forward transform uses e^{-2 pi i k x}, inverse uses
e^{+2 pi i k x}; sinc(u) = sin(u)/u with sinc(0) = 1.

The transform of a TestFunction is exact in closed form: its second
derivative is a sum of point masses s_j at its kinks c_j, so its transform is
``-sum_j s_j e^{-2 pi i k c_j} / (4 pi^2 k^2)``, three terms for a hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgument, TruncationTailError, _refine
from .measures import DensitySource, MeasureExpr, TransformedDensity, convolve_grid, _affine_cells, _check_tol, _GL
from .testfunctions import TestFunction, Window, tf_convolve, tf_reflect_conj

__all__ = [
    "sinc",
    "exp_sum",
    "ft_compact",
    "sinc_autocorr_density",
    "series_density",
    "SpectralDensity",
    "spectral_constant",
    "spectral_sinc_sq",
    "spectral_series",
    "bessel_j0",
    "bessel_j0_vec",
    "bessel_j0_check",
    "RLReport",
    "rl_crosscheck",
    "rajchman_check",
]


def sinc(u):
    """sin(u)/u with the value 1 at u = 0; accepts scalars or arrays."""
    return np.sinc(np.asarray(u) / np.pi)


# complex entries per chunk of an exponential matrix
_CHUNK_ELEMS = 4_000_000


def exp_sum(positions, weights, k):
    """Fourier-Stieltjes transform of finitely many atoms: sum w e^{-2 pi i k p}.

    ``positions`` and ``weights`` are matching 1-d arrays; ``k`` may be a
    scalar (returns complex) or an array of any shape (returns an array of
    that shape).  The k x positions phase matrix is built a chunk of k at a
    time, at most _CHUNK_ELEMS entries each.
    """
    pos = np.asarray(positions, dtype=float)
    wts = np.asarray(weights, dtype=np.complex128)
    karr = np.asarray(k, dtype=float)
    flat = karr.ravel()
    out = np.zeros(flat.size, dtype=np.complex128)
    if pos.size:
        chunk = max(1, _CHUNK_ELEMS // pos.size)
        for start in range(0, flat.size, chunk):
            kk = flat[start : start + chunk]
            out[start : start + chunk] = np.exp(-2j * np.pi * np.multiply.outer(kk, pos)) @ wts
    if np.ndim(k) == 0:
        return complex(out[0])
    return out.reshape(karr.shape)


def _panel_nodes(lo: float, h: float, n_panels: int) -> np.ndarray:
    """The GL8 nodes lo + h (2p + 1 + x_q) of n_panels panels of width 2h
    from lo, as an (n_panels, 8) array."""
    return lo + h * (2.0 * np.arange(n_panels)[:, None] + 1.0 + _GL["G8"][0])


def _panel_exp_sum(x: np.ndarray, lo: float, h: float, vals: np.ndarray, sign: int) -> np.ndarray:
    """sum_{p,q} vals[p, q] e^{sign 2 pi i x t_pq} at each x, on the GL8 nodes
    t_pq = lo + h (2p + 1 + x_q) of P = vals.shape[0] panels.

    The phase is factorised, not built: the panels are grouped into A
    blocks of B = round(sqrt(P / 8)) panels (the last padded with zero
    weights), so t_pq = s_a + o_bq with s_a = lo + 2hBa the block starts and
    o_bq = h (2b + 1 + x_q) the 8B offsets inside one block.  Then
    M = e^{i x o} @ W^T is one (X x 8B) by (8B x A) product, and the sum is
    the row sum of e^{i x s} * M: X (8B + A) exponentials instead of X 8P.
    Works for any x; chunked over x so each chunk's matrices hold at most
    _CHUNK_ELEMS entries.
    """
    xs = np.asarray(x, dtype=float)
    n_panels = vals.shape[0]
    per_block = max(1, int(round(np.sqrt(n_panels / 8.0))))
    n_blocks = -(-n_panels // per_block)
    weights = np.zeros((n_blocks * per_block, 8), dtype=np.complex128)
    weights[:n_panels] = vals
    weights = weights.reshape(n_blocks, 8 * per_block)
    offsets = _panel_nodes(0.0, h, per_block).ravel()
    starts = lo + 2.0 * h * per_block * np.arange(n_blocks)
    out = np.empty(xs.size, dtype=np.complex128)
    turn = sign * 2j * np.pi
    chunk = max(1, _CHUNK_ELEMS // (offsets.size + 2 * n_blocks))
    for first in range(0, xs.size, chunk):
        xx = xs[first : first + chunk]
        inner = np.exp(turn * np.multiply.outer(xx, offsets)) @ weights.T
        inner *= np.exp(turn * np.multiply.outer(xx, starts))
        out[first : first + chunk] = inner.sum(axis=1)
    return out


# Taylor terms of the transform of a test function where pi |k| (hi - lo) < 1.
# Term n is at most sum |s| ((hi - lo) / 2)^2 / (n + 2)!, so the first one
# left out is below 1e-18 of that.
_FT_TAYLOR_TERMS = 18


def _ft_testfunction(f: TestFunction, k) -> np.ndarray:
    """Exact forward transform of the piecewise-linear interpolant, from its kink table.

    f'' is sum_j s_j delta_{c_j}, so f^(k) = -sum_j s_j e^{-2 pi i k c_j} / (4 pi^2 k^2),
    taken about the middle m of the support.  Where pi |k| (hi - lo) < 1 that
    sum cancels, and the Taylor series e^{-2 pi i k m} sum_n (-2 pi i k)^n mu_n / n!
    takes over, with the moments mu_n = sum_j s_j (c_j - m)^(n+2) / ((n+1)(n+2))
    about m and mu_0 the mass of f.
    """
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    at, jump = f.kinks
    mid = 0.5 * (f.lo + f.hi)
    rel = at - mid
    near = np.pi * np.abs(karr) * (f.hi - f.lo) < 1.0
    out = np.empty(karr.size, dtype=np.complex128)
    far = karr[~near]
    out[~near] = -exp_sum(rel, jump, far) / (4.0 * np.pi**2 * far**2)
    n = np.arange(_FT_TAYLOR_TERMS)
    moments = (rel[None, :] ** (n[:, None] + 2) @ jump) / ((n + 1) * (n + 2))
    moments[0] = f.mass
    z = -2j * np.pi * karr[near]
    series = np.zeros(z.size, dtype=np.complex128)
    for m in n[::-1]:  # Horner in z, with 1/n! folded in
        series = moments[m] + series * z / (m + 1)
    out[near] = series
    return np.exp(-2j * np.pi * karr * mid) * out


# The most nodes one GL8 level may hold, as many as the atoms of a window
# (measures._MAX_ATOMS): about 0.5 GB of node, value and weight arrays.
_MAX_NODES = 10**7


def _gl8_panels(spans: list, rate: float, what: str) -> list[int]:
    """The panel counts max(1, ceil(width * rate)) of the spans at one
    level, refused with InvalidArgument before any array when their 8 nodes
    each come to more than _MAX_NODES (or to NaN)."""
    counts = np.maximum(1.0, np.ceil(np.array([b - a for a, b in spans]) * rate))
    nodes = 8.0 * counts.sum()
    if not nodes <= _MAX_NODES:
        raise InvalidArgument(f"the {what} quadrature needs {nodes:.3g} nodes at one level, more than {_MAX_NODES}")
    return counts.astype(int).tolist()


def _gl8_integral(spans: list, weight: Callable, xs: np.ndarray, sign: int, rates: list, tol: float, what: str):
    """Integral of weight(t) e^{sign 2 pi i x t} over the spans at each x,
    and the difference between its last two levels (_refine).

    Level r puts GL8 on ceil(width * r) equal panels of each span, sized by
    _gl8_panels just before it is built; its node sum is one _panel_exp_sum
    per span.  No one level can converge, so the first two are both sized
    before the first is built.
    """
    for rate in rates[:2]:
        _gl8_panels(spans, rate, what)

    def level(rate: float) -> np.ndarray:
        total = np.zeros(xs.size, dtype=np.complex128)
        for (a, b), n_panels in zip(spans, _gl8_panels(spans, rate, what)):
            h = 0.5 * (b - a) / n_panels
            nodes = _panel_nodes(a, h, n_panels)
            vals = (h * _GL["G8"][1]) * weight(nodes.ravel()).reshape(nodes.shape)
            total += _panel_exp_sum(xs, a, h, vals, sign)
        return total

    return _refine(((v, v) for v in map(level, rates)), tol, what)


def _ft_density(d: DensitySource, k, tol: float) -> np.ndarray:
    """Transform of a compactly supported density by panelled Gauss rule.

    GL8 on equal panels of each cell between the declared knots (or of the
    whole support), the panel count doubled three times at most
    (_gl8_integral).
    """
    sup = d.support
    if sup is None:
        raise InvalidArgument("ft_compact requires a declared compact support")
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    piece = TransformedDensity(d, 1, 0.0, 0, 1.0 + 0.0j)
    cells = _affine_cells(piece, sup)
    spans = [(sup.lo, sup.hi)] if cells is None else list(zip(cells[0].tolist(), cells[1].tolist()))
    kmax = float(np.max(np.abs(karr))) if karr.size else 0.0
    # panels short enough that each sees at most ~half an oscillation
    per_unit = max(2.0 * kmax, 4.0 / max(sup.width, 1e-12))
    rates = [per_unit * scale for scale in (1.0, 2.0, 4.0, 8.0)]
    return _gl8_integral(spans, piece.evalv, karr, -1, rates, tol, "transform")[0]


def ft_compact(g, k, direction: str = "forward", tol: float = 1e-8):
    """Fourier transform of a compactly supported function.

    ``g`` is a TestFunction (exact closed form) or a DensitySource with
    declared support (panelled quadrature with refinement check).
    forward: integral of g(s) e^{-2 pi i k s} ds; inverse flips the sign
    of k.  Scalar k returns complex; array k returns an array.
    """
    if direction not in ("forward", "inverse"):
        raise InvalidArgument(f"direction must be forward or inverse, got {direction!r}")
    _check_tol(tol)
    karr = np.asarray(k, dtype=float)
    keff = karr if direction == "forward" else -karr
    if isinstance(g, TestFunction):
        out = _ft_testfunction(g, keff)
    elif isinstance(g, DensitySource):
        out = _ft_density(g, keff, tol)
    else:
        raise InvalidArgument(f"cannot transform object of type {type(g).__name__}")
    if np.ndim(k) == 0:
        return complex(out[0])
    return out.reshape(karr.shape)


def sinc_autocorr_density(n: int, x):
    """Closed-form density 1 + 2 cos(pi x (2n+1)) sinc(pi x) + sinc^2(pi x).

    Equals |1 + e^{-pi i x (2n+1)} sinc(pi x)|^2, hence is nonnegative.
    Scalar x returns float; arrays map elementwise.
    """
    if n < 0:
        raise InvalidArgument(f"n must be nonnegative, got {n}")
    xa = np.asarray(x, dtype=float)
    val = _sinc_autocorr(n, xa, sinc(np.pi * xa))
    if np.ndim(x) == 0:
        return float(val)
    return val


def _sinc_autocorr(n: int, xa: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sinc_autocorr_density(n, xa) from s = sinc(pi xa), computed once per call."""
    return 1.0 + 2.0 * np.cos(np.pi * xa * (2 * n + 1)) * s + s * s


def series_density(x, n_trunc: int):
    """Partial sum over n <= n_trunc of 2^{-n} sinc_autocorr_density(n, x).

    The omitted tail is bounded by 4 * 2^{-n_trunc} = 2^{2 - n_trunc}
    pointwise (each summand lies in [0, 4]).
    """
    if n_trunc < 0:
        raise InvalidArgument(f"n_trunc must be nonnegative, got {n_trunc}")
    xa = np.asarray(x, dtype=float)
    s = sinc(np.pi * xa)
    total = np.zeros(xa.shape)
    for n in range(n_trunc + 1):
        total += (0.5**n) * _sinc_autocorr(n, xa, s)
    if np.ndim(x) == 0:
        return float(total)
    return total


@dataclass(frozen=True)
class SpectralDensity:
    """A density on the frequency line with the metadata the quadrature needs.

    ``osc_rate`` estimates oscillations per unit k (used to size quadrature
    panels); ``sup_bound`` dominates |eval|; ``tail_bound`` is the sup-norm
    distance to the untruncated object this density approximates (0 when
    exact).
    """

    eval_fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    osc_rate: float
    tail_bound: float = 0.0

    def __call__(self, k):
        return self.eval_fn(np.asarray(k, dtype=float))


def spectral_constant(value: float = 1.0) -> SpectralDensity:
    return SpectralDensity(
        eval_fn=lambda k: np.full(np.shape(k), float(value)),
        sup_bound=abs(float(value)),
        osc_rate=0.0,
    )


def spectral_sinc_sq() -> SpectralDensity:
    """sinc^2(pi k): the transform of the unit tent on [-1, 1]."""
    return SpectralDensity(
        eval_fn=lambda k: sinc(np.pi * np.asarray(k, dtype=float)) ** 2,
        sup_bound=1.0,
        osc_rate=1.0,
    )


def spectral_series(n_trunc: int) -> SpectralDensity:
    """The dyadic series density truncated at n_trunc, tail 2^{2-n_trunc}."""
    return SpectralDensity(
        eval_fn=lambda k: series_density(k, n_trunc),
        sup_bound=8.0,
        osc_rate=(2 * n_trunc + 1) / 2.0,
        tail_bound=float(2.0 ** (2 - n_trunc)),
    )


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

_J0_SERIES_LIMIT = 14.0
_J0_HANKEL_TERMS = 19


def bessel_j0(x: float) -> float:
    """J0(x) to absolute accuracy better than 1e-12 for |x| <= 1e8.

    |x| <= 14 uses the power series in exact integer arithmetic (the
    alternating series cancels catastrophically in floats near the upper
    end); beyond 14 the Hankel asymptotic expansion truncated at its
    smallest useful term is already accurate to ~7e-13 and improves
    rapidly with x.  Its phase, the float x - pi/4, is off by up to half an
    ulp of x, which costs up to ulp(x) / 2 * sqrt(2 / (pi x)), about
    9e-17 * sqrt(x): 6e-13 at 1e8, but 9e-12 at 1e10 and 9e-10 at 1e14
    (5.1e-13, 2.5e-12 and 1.8e-10 against mpmath).

    A float x is p / 2**e exactly, so q = x**2 / 4 = a / 2**s with a = p**2.
    Term m of the series is (-q)**m / (m!)**2; over the common denominator
    (m!)**2 * 2**(s*m) its numerator is (-a)**m, and the partial sum's
    numerator is carried alongside.  The series stops once q < m**2 and
    |term| < 1e-26, and the one int / int division at the end rounds the
    exact sum correctly.
    """
    x = abs(float(x))
    if not np.isfinite(x):
        raise InvalidArgument(f"x must be finite, got {x}")
    if x <= _J0_SERIES_LIMIT:
        p, d = x.as_integer_ratio()
        a, two_s = p * p, 4 * d * d  # q = a / two_s
        term, total, denom = 1, 1, 1  # term / denom and total / denom
        m = 1
        while True:
            term = -term * a
            total = total * (m * m * two_s) + term
            denom *= m * m * two_s
            if a < m * m * two_s and abs(term) * 10**26 < denom:
                break
            m += 1
        return total / denom
    return float(_j0_hankel(np.array([x]))[0])


def _j0_hankel(xa: np.ndarray) -> np.ndarray:
    """J0 on an array of arguments above _J0_SERIES_LIMIT (Hankel expansion).

    Term m is u_m = u_{m-1} (2m - 1)**2 / (8 m x), added to P (m even) or Q
    (m odd) with sign (-1)**(m // 2) resp. (-1)**((m + 1) // 2).  It is
    updated in place, in the order of the textbook loop, and adding -u is
    subtracting u, so the result is bit for bit that loop's."""
    p_sum = np.ones_like(xa)  # term 0
    q_sum = np.zeros_like(xa)
    u = np.ones_like(xa)
    d = np.empty_like(xa)
    for m in range(1, _J0_HANKEL_TERMS):
        u *= (2 * m - 1) ** 2
        u /= np.multiply(8.0 * m, xa, out=d)
        acc = q_sum if m % 2 else p_sum
        if m % 4 in (0, 3):
            acc += u
        else:
            acc -= u
    omega = xa - 0.25 * np.pi
    p_sum *= np.cos(omega, out=d)
    q_sum *= np.sin(omega, out=omega)
    p_sum -= q_sum
    np.multiply(np.pi, xa, out=d)
    np.divide(2.0, d, out=d)
    p_sum *= np.sqrt(d, out=d)
    return p_sum


# J0 on [0, _J0_SERIES_LIMIT] as 28 polynomials of degree 10, one per interval
# [a, a + 0.5], in the local variable t = 4 (x - a) - 1 in [-1, 1].  Entry i
# of the literal lists the t**0 .. t**10 coefficients of interval i: the
# interpolant of bessel_j0 at the 11 Chebyshev points of the interval, solved
# in exact rationals and rounded (tests/test_fourier.py rebuilds it).  Its
# error against bessel_j0 is about 1e-16.  Stored transposed, so that row k
# holds the t**k coefficients of every interval.
_J0_INV_WIDTH = 2.0
_J0_TABLE = np.ascontiguousarray(np.array([
    [0.9844359292958527, -0.0310064943306814, -0.015260375625153314, 0.00024202713587847448,
     5.945292910080689e-05, -6.300042445833619e-07, -1.03079904737863e-07, 8.200875135925796e-10,
     1.0056882433670984e-10, -6.335455951367816e-13, -5.775926857410126e-14],
    [0.8642422751666486, -0.08731090054371532, -0.012455754341672965, 0.0006765927233710756,
     4.730696425082791e-05, -1.7547986119896926e-06, -8.096819949486716e-08, 2.2793057316433273e-09,
     7.842324245269904e-11, -1.7726565602317485e-12, -6.051527165954158e-14],
    [0.6459060852712852, -0.12765581507997012, -0.0074189836567292574, 0.0009733082169978444,
     2.5619114694982983e-05, -2.5037817415217196e-06, -4.162126633633169e-08, 3.236200629405445e-09,
     3.897235755869865e-11, -2.5110100987056218e-12, -1.46390891738371e-14],
    [0.36903253018515075, -0.14503904940974813, -0.0011723344675888057, 0.0010733187821561805,
     -9.765728849457855e-07, -2.7191492641341013e-06, 6.302679592032389e-09, 3.482202744694743e-09,
     -8.795920683441875e-12, -2.6878800725257203e-12, 1.623582983932025e-14],
    [0.08274985128873404, -0.13709458916174, 0.005030433211768067, 0.0009596686639040223,
     -2.6835415129869597e-05, -2.36027253609354e-06, 5.230534074297006e-08, 2.967915930007112e-09,
     -5.4227369242544345e-11, -2.2606980962176124e-12, 3.322264418576827e-14],
    [-0.16414142780851365, -0.10649307573947557, 0.009970013970810017, 0.0006604965594797888,
     -4.653815459260711e-05, -1.5118490188297702e-06, 8.639445432504967e-08, 1.8134842318834487e-09,
     -8.727701135980987e-11, -1.337353988003474e-12, 5.319663650972203e-14],
    [-0.33275080217061154, -0.06027992200380106, 0.012716921106440057, 0.00024239329920587715,
     -5.6067583124881955e-05, -3.6411844395032234e-07, 1.013033267332488e-07, 2.804985491468589e-10,
     -1.006993013833596e-10, -1.2437941421123616e-13, 7.051482314412372e-14],
    [-0.4014060549361743, -0.008307337282420044, 0.012820850459502153, -0.00020452660780141395,
     -5.366444030409213e-05, 8.302386160776078e-07, 9.408301449737853e-08, -1.2877878672005544e-09,
     -9.164760893340874e-11, 1.101225359748387e-12, 5.399613830889562e-14],
    [-0.3691997702998954, 0.03888829824458553, 0.010393719344090184, -0.0005864579276212093,
     -4.0175118114099136e-05, 1.8126646390526594e-06, 6.671190310334241e-08, -2.544305385292086e-09,
     -6.250856405902108e-11, 2.064983263733715e-12, 4.038325287825202e-14],
    [-0.25512082749137394, 0.07229669966177764, 0.006069981131164092, -0.0008262035408321436,
     -1.881936164350932e-05, 2.3759280811170524e-06, 2.5592125369742397e-08, -3.2161918642878734e-09,
     -2.0012075248382967e-11, 2.5568244445635305e-12, 1.017797236933773e-14],
    [-0.09308098963931788, 0.0862534946448594, 0.0008551262918275251, -0.0008794496431444879,
     5.562897279962643e-06, 2.409109300884699e-06, -1.9941952208463645e-08, -3.165219901905907e-09,
     2.6101443644434852e-11, 2.4636608938679616e-12, -1.7599256983158905e-14],
    [0.07597533201690107, 0.07948613097983316, -0.0041021884946548515, -0.0007434856344633423,
     2.7610085089645035e-05, 1.920404388888838e-06, -5.975616372354747e-08, -2.4171723120054605e-09,
     6.545910728355636e-11, 1.82166530574896e-12, -4.2385159235866814e-14],
    [0.21309005307666073, 0.05518021938480932, -0.007762668546342024, -0.00045657697947119424,
     4.263199569219884e-05, 1.032912766446338e-06, -8.519900350902377e-08, -1.1535812923633847e-09,
     8.935274737720508e-11, 7.814370642222064e-13, -5.84964709119682e-14],
    [0.2894567897845566, 0.02008069631381945, -0.009417389427320327, -8.831893013615763e-05,
     4.7628615776866284e-05, -4.524595662029418e-08, -9.101508254206419e-08, 3.316601413140586e-10,
     9.271509048808424e-11, -4.1223377572271984e-13, -6.470032422131699e-14],
    [0.291996924191779, -0.01714542516328299, -0.00882929310231518, 0.0002766864813543876,
     4.190949565267314e-05, -1.069336823249887e-06, -7.646027213982484e-08, 1.7006512172310462e-09,
     7.516502470836265e-11, -1.4879355238218978e-12, -4.23466130885615e-14],
    [0.22523406912010668, -0.04790064804727944, -0.006265973562466072, 0.0005580337124804668,
     2.718228727576569e-05, -1.813683169829708e-06, -4.5377097214162663e-08, 2.648762433000103e-09,
     4.1166288601825014e-11, -2.205891151067147e-12, -1.9277192659011092e-14],
    [0.10920747150610137, -0.06555088799818595, -0.002419538211865598, 0.0006972292544172012,
     7.101426189964217e-06, -2.121874269630163e-06, -5.228946402624032e-09, 2.9731360728039864e-09,
     -1.24218369971312e-12, -2.407393802461118e-12, 7.065948088849734e-15],
    [-0.02594885609462996, -0.0668044728715704, 0.001765251365408118, 0.0006699789640515234,
     -1.3609567818131445e-05, -1.9402201549255602e-06, 3.466928295069211e-08, 2.6168242605789483e-09,
     -4.224377238887741e-11, -2.055776177954496e-12, 2.9981084486752324e-14],
    [-0.14741426284123627, -0.05228666261753027, 0.005313272235647373, 0.0004904198639098748,
     -3.0254063980172707e-05, -1.3271762511467363e-06, 6.530692960876551e-08, 1.6788431854275242e-09,
     -7.256042554744714e-11, -1.2447543755881323e-12, 5.0642298098339434e-14],
    [-0.22733329951184827, -0.026209625314624375, 0.007440186447111874, 0.00020655362023673906,
     -3.922293902509624e-05, -4.370757399286298e-07, 8.001982860579848e-08, 3.883330435327454e-10,
     -8.550631552781747e-11, -1.6846952906011806e-13, 5.384790028189326e-14],
    [-0.24897577978284946, 0.004755113924217049, 0.007722503924016266, -0.00011184556459423833,
     -3.8779473260285686e-05, 5.175845528886819e-07, 7.595376654516937e-08, -9.505929633490575e-10,
     -7.857065559340962e-11, 9.178757542467441e-13, 4.985777864557044e-14],
    [-0.21006948984951077, 0.033117525635747554, 0.0061795840504048506, -0.00038989280322524394,
     -2.9396205928360912e-05, 1.3162234884971184e-06, 5.4624045603317995e-08, -2.0302049130110367e-09,
     -5.381655548317913e-11, 1.769622604559178e-12, 3.362260247905928e-14],
    [-0.12266024171056998, 0.05233129490618018, 0.0032516737211643505, -0.0005648970248200251,
     -1.3577713053218398e-05, 1.7808740926042157e-06, 2.1460390638249384e-08, -2.6098794189317223e-09,
     -1.7369840107478106e-11, 2.192099440187817e-12, 7.378770101233914e-15],
    [-0.009669352567074631, 0.05827014706849105, -0.00031772791385859526, -0.0006003308894422357,
     4.777339645449612e-06, 1.81584313439809e-06, -1.5538178743142815e-08, -2.5700310485957736e-09,
     2.20679572615504e-11, 2.097223793299302e-12, -1.72871045946547e-14],
    [0.1009306105105151, 0.050089299688963716, -0.0036651968814023135, -0.0004933532514580553,
     2.1316774629514688e-05, 1.4274497371632251e-06, -4.7710400698100345e-08, -1.936969753057545e-09,
     5.532488135364215e-11, 1.5207055096862895e-12, -3.917457830361053e-14],
    [0.18288505664015528, 0.030294637705797954, -0.006012164272022981, -0.00027433273411442405,
     3.225384537499436e-05, 7.197395383950132e-07, -6.774956678558328e-08, -8.735038716097129e-10,
     7.485801061731573e-11, 6.053122692097072e-13, -5.407092351874846e-14],
    [0.2177656779210489, 0.004030368558591774, -0.006843199779925027, 1.295120752351561e-06,
     3.5227272246793096e-05, -1.322891099984217e-07, -7.136104092577149e-08, 3.6185891159924187e-10,
     7.64549482368041e-11, -4.2652901855625025e-13, -5.0376946745113876e-14],
    [0.1990188785029985, -0.022223661685447784, -0.006017306665168828, 0.00026674055696311746,
     2.980728106469776e-05, -9.252322661538302e-07, -5.818363526244219e-08, 1.4771138373507554e-09,
     6.020751263011025e-11, -1.3340959787597474e-12, -3.6864578485772944e-14],
]).T)


def _j0_table(xa: np.ndarray) -> np.ndarray:
    """J0 on a 1-d array of arguments in [0, _J0_SERIES_LIMIT] (the table)."""
    t = xa * _J0_INV_WIDTH
    i = t.astype(np.intp)
    np.minimum(i, _J0_TABLE.shape[1] - 1, out=i)
    t -= i  # exact: the width is a power of two
    t *= 2.0
    t -= 1.0
    acc = _J0_TABLE[-1].take(i)
    coef = np.empty_like(acc)
    for row in _J0_TABLE[-2::-1]:
        acc *= t
        acc += row.take(i, out=coef, mode="clip")
    return acc


def bessel_j0_vec(xs: np.ndarray) -> np.ndarray:
    """Vectorized float J0 for density evaluation.

    Up to |x| = 14 it reads the piecewise polynomial _J0_TABLE, within about
    1e-16 of bessel_j0; beyond, the Hankel expansion, as bessel_j0 does.
    """
    xs = np.abs(np.asarray(xs, dtype=float))
    small = xs <= _J0_SERIES_LIMIT
    if small.all():
        return _j0_table(xs.ravel()).reshape(xs.shape)
    out = np.empty(xs.shape)
    out[small] = _j0_table(xs[small])
    out[~small] = _j0_hankel(xs[~small])
    return out


# The circle rule's angles, and its radii per block of cosines (2 MB)
_CIRCLE_POINTS = _CIRCLE_ROWS = 512
_CIRCLE_COS = np.cos(2.0 * np.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS)


def bessel_j0_check(r: float | np.ndarray) -> tuple:
    """Both sides of 2 pi J0(2 pi r) = integral over the unit circle, for a
    radius (two floats) or an array of radii (two arrays of its shape), each
    value bit for bit what its radius alone gives.

    lhs comes from the series/asymptotic J0 (one _j0_hankel call for all
    arguments above _J0_SERIES_LIMIT); rhs is the periodic trapezoid rule
    for the circle integral of cos(2 pi r cos(theta)), which converges
    spectrally, one row sum per radius.  The two share no code path.
    """
    rs = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        xs = 2.0 * np.pi * rs.ravel()
    bad = ~(np.isfinite(xs) & (xs >= 0.0))
    if bad.any():
        raise InvalidArgument(f"r must be nonnegative with 2 pi r finite, got {rs.ravel()[bad][0]}")
    far = xs > _J0_SERIES_LIMIT
    lhs, rhs = np.empty_like(xs), np.empty_like(xs)
    lhs[far] = _j0_hankel(xs[far])
    lhs[~far] = [bessel_j0(x) for x in xs[~far].tolist()]
    for start in range(0, xs.size, _CIRCLE_ROWS):
        block = np.multiply.outer(xs[start : start + _CIRCLE_ROWS], _CIRCLE_COS)
        np.sum(np.cos(block, out=block), axis=1, out=rhs[start : start + _CIRCLE_ROWS])
    lhs *= 2.0 * np.pi
    rhs *= 2.0 * np.pi / _CIRCLE_POINTS
    if rs.ndim == 0:
        return float(lhs[0]), float(rhs[0])
    return lhs.reshape(rs.shape), rhs.reshape(rs.shape)


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RLReport:
    """Direct (spatial) vs spectral reconstruction of mu * (f * f~)."""

    xs: np.ndarray
    direct: np.ndarray
    spectral: np.ndarray
    deviation: np.ndarray  # |direct - spectral| at each x
    max_deviation: float
    k_window: float
    tail_estimate: float
    quad_estimate: float


def rl_crosscheck(
    mu: MeasureExpr,
    density: SpectralDensity,
    f: TestFunction,
    x_grid: np.ndarray,
    tolerance: float = 1e-4,
) -> RLReport:
    """Compare mu*(f*f~) computed spatially against its spectral rebuild.

    Spatial side: exact/controlled convolution of mu with the
    autocorrelation g = f*f~.  Spectral side: inverse transform of
    density(k) * |f_hat(k)|^2 over [-K, K], with K sized so the neglected
    frequency tail stays below tolerance/10 (|f_hat| <= C/k^2 with C from
    the slope jumps of f).  Agreement corroborates that the measure's
    transform is the given density.  A spectral level of more than
    _MAX_NODES quadrature nodes raises InvalidArgument before it is built;
    the first two, which any convergence needs, are sized before the
    autocorrelation.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise InvalidArgument("x_grid must be a nonempty 1-d array")
    if not (tolerance > 0):
        raise InvalidArgument(f"tolerance must be positive, got {tolerance}")
    c_decay = f.slope_jump_total() / (4.0 * np.pi**2)
    c_sq = c_decay * c_decay  # a Python float product overflows to inf, where ** would raise
    if not math.isfinite(c_sq):
        raise InvalidArgument("rl_crosscheck: the squared slope-jump bound of the test function overflows float64")
    k_window = max(4.0, (20.0 * density.sup_bound * c_sq / (3.0 * tolerance)) ** (1.0 / 3.0))
    k_window = float(np.ceil(k_window))
    xmax = float(np.max(np.abs(xs)))
    rate = density.osc_rate + xmax + (f.hi - f.lo)
    base_rate = max(rate / 2.0, 1.0)
    spans, rates = [(-k_window, k_window)], [base_rate * mult for mult in (1.0, 2.0, 4.0)]
    for rate in rates[:2]:  # refuse an oversized first or second level before the autocorrelation
        _gl8_panels(spans, rate, "spectral")
    g = tf_convolve(f, tf_reflect_conj(f))
    direct = convolve_grid(mu, g, xs)

    freq_tail = density.sup_bound * 2.0 * c_sq / (3.0 * k_window**3)
    g0 = float(np.real(g(0.0)))
    tail_estimate = freq_tail + density.tail_bound * g0
    if tail_estimate > tolerance:
        raise TruncationTailError(
            f"truncation tail {tail_estimate:.3e} exceeds tolerance {tolerance:.3e}",
            tail_estimate,
        )

    spectral, quad_estimate = _gl8_integral(
        spans, lambda k: density(k) * np.abs(_ft_testfunction(f, k)) ** 2, xs, 1, rates, tolerance / 10.0, "spectral"
    )
    gap = direct - spectral
    # np.hypot rounds as Python's abs does; np.abs of complex128 can be 2 ulps away
    deviation = np.hypot(gap.real, gap.imag)
    return RLReport(
        xs, direct, spectral, deviation, float(deviation.max()), k_window, tail_estimate, quad_estimate
    )


def rajchman_check(
    mu: MeasureExpr,
    f: TestFunction,
    radii: Sequence[float],
    epsilon: float = 0.05,
    annulus_step: float | None = None,
):
    """Decay profile of mu * (f * f~).

    The transform of the finite measure |f_hat|^2 mu_hat is exactly this
    autocorrelation convolution (up to reflection), so its spatial decay is
    the desk-scale stand-in for that measure's transform vanishing at
    infinity.
    """
    from .analysis import decay_profile

    g = tf_convolve(f, tf_reflect_conj(f))
    return decay_profile(mu, g, radii, epsilon, annulus_step)
