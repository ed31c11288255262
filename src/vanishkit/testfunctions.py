"""Compactly supported piecewise-linear test functions on a uniform grid.

A TestFunction is the continuous, piecewise-linear interpolant of complex
samples on the grid ``lo, lo + step, ..., hi``.  The first and last samples
are exactly zero, so the interpolant extends by zero to the whole line and
trapezoid sums over the sample grid coincide with exact integrals of the
interpolant up to curvature terms.  Because the knots are uniform, the
interpolant also has an exact closed-form antiderivative and first moment,
which the convolution code uses to integrate piecewise-polynomial densities
without any quadrature error.

Its kink table lists the knots c_k where the slope jumps, and the jumps s_k.
Because f vanishes off its support, f(u) = sum_k s_k (u - c_k)_+ for
u <= hi, with sum s_k = sum s_k c_k = 0: a hat is three ramps, whatever its
sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "Window",
    "TestFunction",
    "tf_hat",
    "tf_indicator",
    "tf_convolve",
    "tf_reflect_conj",
]


# Most samples a constructed test function may hold.  A TestFunction keeps
# about six arrays of its sample count, so 2**20 samples is about 100 MB.
MAX_SAMPLES = 1 << 20


def _cells(width: float, step: float) -> int:
    """round(width / step), clamped to 2 * MAX_SAMPLES (which no count may
    reach), so that a ratio too large for an int still gives one."""
    return round(min(width / step, 2.0 * MAX_SAMPLES))


def _check_samples(count: int, what: str) -> None:
    """Refuse a test function of more than MAX_SAMPLES samples before allocating it."""
    if count > MAX_SAMPLES:
        raise InvalidArgument(f"{what} needs more than the {MAX_SAMPLES} samples a test function may hold")


@dataclass(frozen=True)
class Window:
    """A finite closed interval [lo, hi] used for all windowed queries."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidArgument(f"window bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise InvalidArgument(f"window is empty: lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def shift(self, t: float) -> "Window":
        return Window(self.lo + t, self.hi + t)

    def reflect(self) -> "Window":
        return Window(-self.hi, -self.lo)

    def intersect(self, other: "Window") -> "Window | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Window(lo, hi)

    def covers(self, other: "Window") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Piecewise-linear interpolant of uniform samples, zero off its support.

    Attributes
    ----------
    lo:
        Position of the first sample.
    step:
        Grid spacing, strictly positive.
    samples:
        Complex sample values; ``samples[0]`` and ``samples[-1]`` must be
        exactly zero so the function is continuous across the support edge.
    """

    lo: float
    step: float
    samples: np.ndarray
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _cum0: np.ndarray = field(init=False, repr=False, compare=False)
    _cum1: np.ndarray = field(init=False, repr=False, compare=False)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)
    _kinks: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.complex128, copy=True)
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidArgument("need a 1-d array of at least two samples")
        if not (np.isfinite(self.lo) and np.isfinite(self.step) and self.step > 0):
            raise InvalidArgument(f"bad grid: lo={self.lo}, step={self.step}")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise InvalidArgument("samples must be finite")
        if samples[0] != 0 or samples[-1] != 0:
            raise InvalidArgument("first and last samples must be exactly zero")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        grid = self.lo + self.step * np.arange(samples.size)
        grid.setflags(write=False)
        object.__setattr__(self, "_grid", grid)
        # Exact running integrals of the interpolant at the knots:
        # cum0[k] = integral of f up to knot k, cum1[k] = integral of u*f(u).
        mid = 0.5 * (samples[:-1] + samples[1:]) * self.step
        cum0 = np.concatenate(([0.0 + 0.0j], np.cumsum(mid)))
        x0, x1 = grid[:-1], grid[1:]
        y0, y1 = samples[:-1], samples[1:]
        # integral of u*f over one cell with f linear from (x0,y0) to (x1,y1)
        seg1 = (self.step / 6.0) * (y0 * (2.0 * x0 + x1) + y1 * (x0 + 2.0 * x1))
        cum1 = np.concatenate(([0.0 + 0.0j], np.cumsum(seg1)))
        slope = (samples[1:] - samples[:-1]) / self.step
        # slope jumps at every knot, counting the jumps onto and off the
        # support.  A kink is a jump of more than rounding: rounded samples
        # move a slope by a few ulps of max|f| / step, and max|f| is at most
        # max|slope| times half the support.
        jumps = np.diff(np.concatenate(([0.0], slope, [0.0])))
        kink = np.abs(jumps) > 4.0 * np.finfo(float).eps * samples.size * float(np.max(np.abs(slope)))
        kinks = (grid[kink], jumps[kink])
        for arr in (cum0, cum1, slope, *kinks):
            arr.setflags(write=False)
        for name, value in (("_cum0", cum0), ("_cum1", cum1), ("_slope", slope), ("_kinks", kinks)):
            object.__setattr__(self, name, value)

    @property
    def hi(self) -> float:
        return float(self._grid[-1])

    @property
    def support(self) -> Window:
        return Window(self.lo, self.hi)

    @property
    def knots(self) -> np.ndarray:
        return self._grid

    @property
    def kinks(self) -> tuple[np.ndarray, np.ndarray]:
        """The kink table (c, s): the knots c where the slope jumps by more
        than rounding, ascending, and the jumps s there (complex)."""
        return self._kinks

    @property
    def sup_norm(self) -> float:
        """Largest |f|; attained at a knot because f is piecewise linear."""
        return float(np.max(np.abs(self.samples)))

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(self._slope)))

    @property
    def mass(self) -> complex:
        """Exact integral of the interpolant over the line."""
        return complex(self._cum0[-1])

    def slope_jump_total(self) -> float:
        """Total variation of f', counting the jumps onto/off the support.

        Bounds the Fourier transform: |f^(k)| <= slope_jump_total / (2 pi k)^2.
        """
        return float(np.sum(np.abs(self._kinks[1])))

    def __call__(self, x: float) -> complex:
        return complex(np.interp(x, self._grid, self.samples))

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; exact zero outside the support."""
        return np.interp(np.asarray(xs, dtype=float), self._grid, self.samples)

    def _locate(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index of u clamped to the support, and the offset into it.

        np.minimum/np.maximum rather than np.clip, whose own overhead
        dominates on the small arrays of a one-point convolution; np.floor of
        the quotient rather than //, whose float loop is about 20 times
        slower.  Where the quotient rounds up onto a knot, the offset into
        the cell past it is a rounding below zero, and that cell's polynomial
        continues its neighbour's to rounding.
        """
        uc = np.minimum(np.maximum(np.asarray(u, dtype=float), self.lo), self.hi)
        cell = np.floor((uc - self.lo) / self.step).astype(int)
        idx = np.maximum(np.minimum(cell, self.samples.size - 2), 0)
        return idx, uc - self._grid[idx]

    def integral_to(self, u: np.ndarray) -> np.ndarray:
        """Exact antiderivative F(u) = integral of f over (-inf, u]."""
        idx, d = self._locate(u)
        return self._cum0[idx] + self.samples[idx] * d + 0.5 * self._slope[idx] * d * d

    def moment_to(self, u: np.ndarray) -> np.ndarray:
        """Exact M(u) = integral of v*f(v) over (-inf, u]."""
        idx, d = self._locate(u)
        x0 = self._grid[idx]
        y0 = self.samples[idx]
        slope = self._slope[idx]
        # integral of (x0+t)*(y0 + slope*t) dt for t in [0, d]
        part = x0 * (y0 * d + 0.5 * slope * d * d) + 0.5 * y0 * d * d + slope * d**3 / 3.0
        return self._cum1[idx] + part

    def integral_between(self, a: float, b: float) -> complex:
        """Exact integral of f over [a, b] (a <= b)."""
        if a > b:
            raise InvalidArgument(f"need a <= b, got a={a}, b={b}")
        return complex(self.integral_to(np.asarray(b)) - self.integral_to(np.asarray(a)))


def tf_hat(center: float, halfwidth: float, height: complex = 1.0, step: float | None = None) -> TestFunction:
    """Triangular bump: peak ``height`` at ``center``, zero at distance ``halfwidth``.

    The grid step is snapped so both the peak and the support endpoints fall
    exactly on knots; the interpolant then equals the hat function exactly.
    """
    if not (halfwidth > 0):
        raise InvalidArgument(f"halfwidth must be positive, got {halfwidth}")
    if step is None:
        n_side = 256
    else:
        if not (0 < step <= halfwidth):
            raise InvalidArgument(f"step must lie in (0, halfwidth], got {step}")
        n_side = max(1, _cells(halfwidth, step))
    _check_samples(2 * n_side + 1, "tf_hat")
    actual = halfwidth / n_side
    k = np.arange(2 * n_side + 1)
    samples = height * (1.0 - np.abs(k - n_side) / n_side)
    samples[0] = 0.0
    samples[-1] = 0.0
    return TestFunction(center - halfwidth, actual, samples)


def tf_indicator(a: float, b: float, step: float = 1e-3) -> TestFunction:
    """Continuous surrogate for the indicator of [a, b]: flat 1 inside,
    linear ramps of one grid cell on either side."""
    if not (b > a):
        raise InvalidArgument(f"need b > a, got [{a}, {b}]")
    if not (0 < step <= (b - a)):
        raise InvalidArgument(f"step must lie in (0, b - a], got {step}")
    m = max(1, _cells(b - a, step))
    _check_samples(m + 3, "tf_indicator")
    inner = (b - a) / m
    samples = np.ones(m + 3, dtype=np.complex128)
    samples[0] = 0.0
    samples[-1] = 0.0
    return TestFunction(a - inner, inner, samples)


def tf_reflect_conj(f: TestFunction) -> TestFunction:
    """The function x -> conj(f(-x)); support reflects through the origin."""
    return TestFunction(-f.hi, f.step, np.conj(f.samples[::-1]))


def tf_convolve(f: TestFunction, g: TestFunction, refine: int = 12) -> TestFunction:
    """Convolution sampled exactly at the knots of a refined common grid.

    Both inputs are resampled to step h = min(step)/refine (exact, they are
    piecewise linear).  On a shared grid the product f(t)g(x_j - t) is
    piecewise quadratic with aligned knots, so its integral has the closed
    form h*((2/3)c_j + (1/6)(c_{j-1} + c_{j+1})) with c the discrete
    convolution of the sample arrays.  The knot values of the result are
    therefore exact; only the linear interpolation between knots
    approximates, with error O(h^2) against the true convolution.
    Support is the Minkowski sum of the input supports.
    """
    if refine < 1:
        raise InvalidArgument(f"refine must be >= 1, got {refine}")
    h = min(f.step, g.step) / refine

    def count(t: TestFunction) -> int:
        return t.samples.size if t.step == h else _cells(t.hi - t.lo, h) + 1

    # the result has one sample fewer than the resampled inputs together
    _check_samples(count(f) + count(g) - 1, "tf_convolve")

    def resampled(t: TestFunction) -> np.ndarray:
        if t.step == h:
            return t.samples
        return t.values(t.lo + h * np.arange(count(t)))

    fs = resampled(f)
    gs = resampled(g)
    c = np.convolve(fs, gs)
    padded = np.concatenate(([0.0], c, [0.0]))
    samples = h * ((2.0 / 3.0) * c + (1.0 / 6.0) * (padded[:-2] + padded[2:]))
    # Knot values next to the support edge involve only zero edge samples.
    samples[0] = 0.0
    samples[-1] = 0.0
    return TestFunction(f.lo + g.lo, h, samples)
