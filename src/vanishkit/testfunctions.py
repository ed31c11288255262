"""Compactly supported piecewise-linear test functions, held as kink tables.

A TestFunction is the continuous, piecewise-linear function through the
complex values ``samples`` at the ascending ``knots``, zero at both ends so
that it extends by zero to the whole line; each interior knot is a slope
change, so a hat is three knots whatever its resolution.  Per-knot tables of
its antiderivative and first moment give exact integrals against
piecewise-polynomial densities.  Its kink table (c_k, s_k) lists the knots
where the slope jumps and the jumps: f(u) = sum_k s_k (u - c_k)_+ for
u <= hi, with sum s_k = sum s_k c_k = 0.

``step`` is the resolution of f, not a knot spacing: the default annulus
step, the grid of ``mean_abs``, the search step of ``seminorm_pg``, the CLI
point cap and the depth of the smooth quadrature read it.
``TestFunction.from_samples`` is the entry point for values on a uniform grid.
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


# Most points of the resolution grid a test function may span: its support
# divided by its step, plus one.  The scans derive their grids from that
# resolution (a hat holds three knots whatever its step), and tf_convolve
# samples its inputs on a finer grid, so too fine a step is refused at once.
MAX_SAMPLES = 1 << 20

# The common grid of tf_convolve is this many times finer than the finer
# input's step.
_REFINE = 12


def _cells(width: float, step: float) -> int:
    """round(width / step), clamped to 2 * MAX_SAMPLES (which no count may
    reach), so that a ratio too large for an int still gives one."""
    return round(min(float(width) / float(step), 2.0 * MAX_SAMPLES))


def _check_samples(count: int, what: str) -> None:
    """Refuse a test function whose resolution grid exceeds MAX_SAMPLES points."""
    if count > MAX_SAMPLES:
        raise InvalidArgument(f"{what} needs more than {MAX_SAMPLES} samples at its step")


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
    """Piecewise-linear function through (knots, samples), zero off its support.

    ``knots`` are finite and strictly ascending, at least two; ``samples``
    are the complex values there, the first and last exactly zero so that f
    is continuous across the support edge; ``step`` is the resolution.
    ``kinks`` is the kink table (c, s): the knots c where the slope jumps,
    ascending, and the (complex) jumps s there.
    """

    knots: np.ndarray
    samples: np.ndarray
    step: float
    lo: float = field(init=False)
    hi: float = field(init=False)
    _cum0: np.ndarray = field(init=False, repr=False)
    _cum1: np.ndarray = field(init=False, repr=False)
    _slope: np.ndarray = field(init=False, repr=False)
    kinks: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        knots = np.array(self.knots, dtype=float)
        samples = np.array(self.samples, dtype=np.complex128)
        if knots.ndim != 1 or knots.size < 2 or samples.shape != knots.shape:
            raise InvalidArgument(f"need one sample per knot and at least two, got shapes {knots.shape} and {samples.shape}")
        lo, hi = float(knots[0]), float(knots[-1])
        if not (math.isfinite(hi - lo) and np.all(knots[1:] > knots[:-1])):
            raise InvalidArgument("knots must be finite and strictly ascending")
        if not (math.isfinite(self.step) and self.step > 0):
            raise InvalidArgument(f"step must be positive and finite, got {self.step}")
        if not (np.all(np.isfinite(samples)) and samples[0] == 0 == samples[-1]):
            raise InvalidArgument("samples must be finite, and the first and last exactly zero")
        x0, x1, y0, y1 = knots[:-1], knots[1:], samples[:-1], samples[1:]
        with np.errstate(all="ignore"):
            width = x1 - x0
            slope = (y1 - y0) / width
            # Exact running integrals at the knots: cum0[k] = integral of f up
            # to knot k, cum1[k] = integral of u*f(u); f is linear on a cell.
            cum0 = np.concatenate(([0.0 + 0.0j], np.cumsum(0.5 * (y0 + y1) * width)))
            seg1 = (width / 6.0) * (y0 * (2.0 * x0 + x1) + y1 * (x0 + 2.0 * x1))
            cum1 = np.concatenate(([0.0 + 0.0j], np.cumsum(seg1)))
        if not all(np.isfinite(table).all() for table in (slope, cum0, cum1)):
            raise InvalidArgument("test function slopes or moments overflow float64")
        # slope jumps at every knot, counting the jumps onto and off the support
        jumps = np.diff(np.concatenate(([0.0], slope, [0.0])))
        kinks = (knots[jumps != 0], jumps[jumps != 0])
        for arr in (knots, samples, cum0, cum1, slope, *kinks):
            arr.setflags(write=False)
        fields = dict(knots=knots, samples=samples, lo=lo, hi=hi, _cum0=cum0, _cum1=cum1, _slope=slope, kinks=kinks)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_samples(cls, lo: float, step: float, samples: np.ndarray) -> "TestFunction":
        """The interpolant of samples on the grid lo, lo + step, ..., at resolution step.

        Its knots are both ends and the grid points where the slope jumps by
        more than rounding, a few ulps of max|f| / step, and max|f| is at
        most max|slope| times half the support."""
        lo, step, samples = float(lo), float(step), np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size < 2 or not np.all(np.isfinite(samples)):
            raise InvalidArgument("need a 1-d array of at least two finite samples")
        if not (math.isfinite(lo + step * (samples.size - 1)) and step > 0):
            raise InvalidArgument(f"bad grid: lo={lo}, step={step}")
        slope = np.diff(samples) / step
        jumps = np.abs(np.diff(np.concatenate(([0.0], slope, [0.0]))))
        keep = jumps > 4.0 * np.finfo(float).eps * samples.size * float(np.max(np.abs(slope)))
        keep[[0, -1]] = True
        return cls(lo + step * np.flatnonzero(keep), samples[keep], step)

    @property
    def support(self) -> Window:
        return Window(self.lo, self.hi)

    @property
    def sup_norm(self) -> float:
        """Largest |f|; attained at a knot because f is piecewise linear."""
        return float(np.max(np.abs(self.samples)))

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(self._slope)))

    @property
    def mass(self) -> complex:
        """Exact integral of f over the line."""
        return complex(self._cum0[-1])

    def slope_jump_total(self) -> float:
        """Total variation of f', counting the jumps onto/off the support.

        Bounds the Fourier transform: |f^(k)| <= slope_jump_total / (2 pi k)^2.
        """
        return float(np.sum(np.abs(self.kinks[1])))

    def __call__(self, x: float) -> complex:
        return complex(np.interp(x, self.knots, self.samples))

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; exact zero outside the support."""
        return np.interp(np.asarray(xs, dtype=float), self.knots, self.samples)

    def _cell(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Knot interval of u clamped to the support, and the offset into it
        (np.minimum/np.maximum: np.clip costs more on one-point arrays)."""
        uc = np.minimum(np.maximum(np.asarray(u, dtype=float), self.lo), self.hi)
        idx = np.minimum(self.knots.searchsorted(uc, side="right") - 1, self.knots.size - 2)
        return idx, uc - self.knots[idx]

    def integral_to(self, u: np.ndarray) -> np.ndarray:
        """Exact antiderivative F(u) = integral of f over (-inf, u]."""
        idx, d = self._cell(u)
        return self._cum0[idx] + self.samples[idx] * d + 0.5 * self._slope[idx] * d * d

    def moment_to(self, u: np.ndarray) -> np.ndarray:
        """Exact M(u) = integral of v*f(v) over (-inf, u]."""
        idx, d = self._cell(u)
        x0, y0, slope = self.knots[idx], self.samples[idx], self._slope[idx]
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

    Three knots, at the support ends and the peak.  The step is snapped to
    halfwidth / n for a whole n (256 by default), so the knots fall on the
    resolution grid lo, lo + step, ...
    """
    center, halfwidth = float(center), float(halfwidth)  # Python floats overflow without warnings
    if not (halfwidth > 0):
        raise InvalidArgument(f"halfwidth must be positive, got {halfwidth}")
    lo, hi = center - halfwidth, center + halfwidth
    if not math.isfinite(hi - lo):
        raise InvalidArgument(f"hat support [{lo}, {hi}] must be finite, and so must its width")
    if step is not None and not (0 < step <= halfwidth):
        raise InvalidArgument(f"step must lie in (0, halfwidth], got {step}")
    n_side = 256 if step is None else max(1, _cells(halfwidth, step))
    _check_samples(2 * n_side + 1, "tf_hat")
    actual = halfwidth / n_side
    return TestFunction(lo + actual * np.array([0.0, n_side, 2 * n_side]), np.array([0.0, height, 0.0]), actual)


def tf_indicator(a: float, b: float, step: float = 1e-3) -> TestFunction:
    """Continuous surrogate for the indicator of [a, b]: flat 1 inside,
    linear ramps of one step (b - a) / m on either side."""
    a, b = float(a), float(b)
    if not (b > a):
        raise InvalidArgument(f"need b > a, got [{a}, {b}]")
    if not (0 < step <= (b - a)):
        raise InvalidArgument(f"step must lie in (0, b - a], got {step}")
    m = max(1, _cells(b - a, step))
    _check_samples(m + 3, "tf_indicator")
    inner = (b - a) / m
    lo = a - inner
    if not math.isfinite(lo + inner * (m + 2) - lo):
        raise InvalidArgument(f"indicator support around [{a}, {b}] must be finite")
    return TestFunction(lo + inner * np.array([0.0, 1, m + 1, m + 2]), np.array([0.0, 1.0, 1.0, 0.0]), inner)


def tf_reflect_conj(f: TestFunction) -> TestFunction:
    """The function x -> conj(f(-x)); support reflects through the origin."""
    return TestFunction(-f.knots[::-1], np.conj(f.samples[::-1]), f.step)


def tf_convolve(f: TestFunction, g: TestFunction) -> TestFunction:
    """Convolution sampled exactly at the knots of a refined common grid.

    Both inputs are resampled to step h = min(step) / _REFINE (exact, they
    are piecewise linear).  On a shared grid the product f(t)g(x_j - t) is
    piecewise quadratic with aligned knots, so its integral has the closed
    form h*((2/3)c_j + (1/6)(c_{j-1} + c_{j+1})) with c the discrete
    convolution of the sample arrays.  The knot values of the result are
    therefore exact; only the linear interpolation between knots
    approximates, with error O(h^2) against the true convolution.
    Support is the Minkowski sum of the input supports.
    """
    h = min(f.step, g.step) / _REFINE
    counts = [_cells(t.hi - t.lo, h) + 1 for t in (f, g)]
    # the result has one sample fewer than the resampled inputs together
    _check_samples(sum(counts) - 1, "tf_convolve")
    fs, gs = (t.values(t.lo + h * np.arange(n)) for t, n in zip((f, g), counts))
    c = np.convolve(fs, gs)
    padded = np.concatenate(([0.0], c, [0.0]))
    samples = h * ((2.0 / 3.0) * c + (1.0 / 6.0) * (padded[:-2] + padded[2:]))
    # Knot values next to the support edge involve only zero edge samples.
    samples[0] = 0.0
    samples[-1] = 0.0
    return TestFunction.from_samples(f.lo + g.lo, h, samples)
