"""Geometry and calculus of the piecewise linear test functions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanishkit import testfunctions
from vanishkit.errors import InvalidArgument
from vanishkit.testfunctions import (
    Window,
    tf_convolve,
    tf_hat,
    tf_indicator,
    tf_reflect_conj,
)


def test_window_arithmetic():
    w = Window(-1.0, 3.0)
    assert w.width == 4.0
    assert w.contains(0.0) and w.contains(3.0) and not w.contains(3.5)
    assert w.shift(2.0).lo == 1.0
    assert w.reflect() == Window(-3.0, 1.0)
    assert w.intersect(Window(2.0, 5.0)) == Window(2.0, 3.0)
    assert w.intersect(Window(4.0, 5.0)) is None
    assert Window(-2.0, 4.0).covers(w)


def test_hat_geometry():
    f = tf_hat(1.0, 0.5, 2.0)
    assert f.support == Window(0.5, 1.5)
    assert f.sup_norm == pytest.approx(2.0)
    assert f(1.0) == pytest.approx(2.0)
    assert f(0.75) == pytest.approx(1.0)
    assert f(0.5) == 0.0 and f(2.0) == 0.0
    assert f.mass == pytest.approx(1.0, abs=1e-14)  # halfwidth * height
    assert f.lipschitz == pytest.approx(4.0)


def test_hat_complex_height():
    f = tf_hat(0.0, 0.25, 1.0 + 1.0j)
    assert f(0.0) == pytest.approx(1.0 + 1.0j)
    assert f.mass == pytest.approx(0.25 + 0.25j, abs=1e-14)


def test_indicator_plateau():
    f = tf_indicator(0.0, 1.0)
    assert f(0.5) == pytest.approx(1.0)
    assert abs(f.mass - 1.0) < 2e-3  # edge ramps nibble one step of mass
    assert f.support.covers(Window(0.0, 1.0))


def test_reflect_conj_mirrors_and_conjugates():
    f = tf_hat(1.0, 0.5, 1.0 + 2.0j)
    g = tf_reflect_conj(f)
    assert g.support == Window(-1.5, -0.5)
    xs = np.linspace(-1.4, -0.6, 17)
    assert np.allclose(g.values(xs), np.conj(f.values(-xs)), atol=1e-14)


@pytest.mark.parametrize(
    "f, count",
    [
        (tf_hat(0.3, 0.4, 1.5 - 0.5j), 3),
        (tf_hat(0.0, 0.3, 1.0, step=0.003), 3),  # 1 - k/100 rounds; the wobble is not a kink
        (tf_indicator(-1.0, 2.0, step=0.01), 4),
        (tf_convolve(tf_hat(0.0, 0.25, 1.0, step=0.075), tf_hat(0.1, 0.125, 1.0j, step=0.075)), None),
    ],
)
def test_kink_table_identities(f, count):
    c, s = f.kinks
    if count is not None:
        assert c.size == count
    assert np.all(np.diff(c) > 0) and np.all(s != 0)
    scale = np.sum(np.abs(s)) * max(abs(f.lo), abs(f.hi))
    assert abs(np.sum(s)) <= 1e-13 * np.sum(np.abs(s))
    assert abs(np.sum(s * c)) <= 1e-13 * scale
    # f(u) = sum_k s_k (u - c_k)_+ at every knot
    ramps = np.maximum(f.knots[:, None] - c[None, :], 0.0) @ s
    assert np.max(np.abs(ramps - f.samples)) <= 1e-13 * scale
    assert f.slope_jump_total() == pytest.approx(np.sum(np.abs(s)), rel=1e-15)


@pytest.mark.parametrize("half", [2.0, 0.5, 0.125, 2.0**-10])
def test_dyadic_hat_kinks_are_every_nonzero_slope_jump(half):
    # a hat is its three knots; on its uniform resolution grid the slope of
    # the interpolant jumps exactly there, by the same amounts: the knots and
    # the jumps are exact for a power-of-two halfwidth
    f = tf_hat(1.5, half, 1.0 - 0.5j)
    assert f.knots.tolist() == [1.5 - half, 1.5, 1.5 + half]
    assert f.samples.tolist() == [0.0, 1.0 - 0.5j, 0.0]
    grid = f.lo + f.step * np.arange(513)
    slope = np.diff(f.values(grid)) / f.step
    jumps = np.diff(np.concatenate(([0.0], slope, [0.0])))
    c, s = f.kinks
    assert c.tolist() == grid[jumps != 0].tolist() == f.knots.tolist()
    assert s.tobytes() == jumps[jumps != 0].tobytes()
    assert s.tolist() == [(1.0 - 0.5j) / half, -2.0 * (1.0 - 0.5j) / half, (1.0 - 0.5j) / half]


def test_integral_between_matches_dense_trapezoid():
    f = tf_hat(0.3, 0.4, 1.5)
    xs = np.linspace(-0.2, 0.8, 100001)
    dense = np.trapezoid(f.values(xs), xs)
    assert complex(f.integral_between(-0.2, 0.8)) == pytest.approx(dense, abs=1e-9)


def test_moment_to_is_first_moment():
    f = tf_hat(0.0, 0.5, 1.0)
    xs = np.linspace(-0.5, 0.4, 200001)
    dense = np.trapezoid(f.values(xs) * xs, xs)
    assert complex(f.moment_to(np.array([0.4]))[0]) == pytest.approx(dense, abs=1e-9)


def test_convolve_exact_at_knots():
    # hat(0,1/2) against itself: value at 0 is the squared L2 mass 1/3
    f = tf_hat(0.0, 0.5, 1.0)
    g = tf_convolve(f, tf_reflect_conj(f))
    assert g(0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert g.support == Window(-1.0, 1.0)


def test_convolve_mass_multiplicative():
    f = tf_hat(0.0, 0.25, 2.0)
    g = tf_hat(1.0, 0.5, 1.5)
    h = tf_convolve(f, g)
    assert complex(h.mass) == pytest.approx(complex(f.mass) * complex(g.mass), abs=1e-12)
    assert h.support == Window(0.25, 1.75)


@settings(max_examples=30, deadline=None)
@given(
    c1=st.floats(-3, 3), h1=st.floats(0.1, 1.0),
    c2=st.floats(-3, 3), h2=st.floats(0.1, 1.0),
)
def test_convolve_commutes(c1, h1, c2, h2):
    f = tf_hat(c1, h1, 1.0)
    g = tf_hat(c2, h2, 1.0)
    a = tf_convolve(f, g)
    b = tf_convolve(g, f)
    xs = np.linspace(a.lo, a.hi, 33)
    assert np.allclose(a.values(xs), b.values(xs), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-2, 2), c=st.floats(-1, 1), h=st.floats(0.1, 1.0))
def test_convolve_matches_dense_quadrature(x, c, h):
    f = tf_hat(c, h, 1.0)
    g = tf_hat(0.0, 0.5, 1.0)
    conv = tf_convolve(f, g)
    ss = np.linspace(g.lo, g.hi, 20001)
    dense = np.trapezoid(f.values(x - ss) * g.values(ss), ss)
    assert complex(conv(x)) == pytest.approx(dense, abs=1e-7)


def test_sample_limit_counts_before_allocating(monkeypatch):
    # MAX_SAMPLES bounds the resolution grid, support / step + 1, not the
    # knots: 11 grid points are allowed, 13 are not.  A hat of 5 or 6 cells a
    # side, an indicator of 8 or 10 inner cells; either holds 3 or 4 knots.
    monkeypatch.setattr(testfunctions, "MAX_SAMPLES", 11)
    assert tf_hat(0.0, 0.25, step=0.05).knots.size == 3
    assert tf_indicator(0.0, 1.0, step=0.125).knots.size == 4
    for make in (lambda: tf_hat(0.0, 0.25, step=0.04), lambda: tf_indicator(0.0, 1.0, step=0.1)):
        with pytest.raises(InvalidArgument, match="samples"):
            make()
    # a convolution resamples both inputs to step / 12 = 1/96: supports of
    # 0.5 and 0.75 are 49 + 73 points, and the result one fewer; 0.5 and 1
    # would make 145
    small, wide = tf_hat(0.0, 0.25, step=0.125), tf_hat(0.0, 0.375, step=0.125)
    monkeypatch.setattr(testfunctions, "MAX_SAMPLES", 121)
    conv = tf_convolve(small, wide)
    assert conv.step == 0.125 / 12 and conv.support == Window(-0.625, 0.625)
    assert conv.knots.size <= 121
    with pytest.raises(InvalidArgument, match="samples"):
        tf_convolve(small, tf_hat(0.0, 0.5, step=0.125))


@pytest.mark.parametrize("make", [
    lambda: tf_hat(0.0, 0.25, step=1e-9),
    lambda: tf_hat(0.0, 1e300, step=1e-300),  # a ratio too large for an int
    lambda: tf_indicator(-1e308, 1e308, step=1.0),
    lambda: tf_convolve(tf_hat(0.0, 0.25, step=1e-5), tf_hat(0.0, 0.25)),  # 2 x 600,001 points at 1e-5 / 12
])
def test_sample_limit_refuses_huge_functions_without_allocating(make):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgument, match="samples"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# The kink table against closed forms and the dense interpolant
# ---------------------------------------------------------------------------


def _dense_integrals(grid, ys, u):
    """Integral of the interpolant of (grid, ys), and of v times it, over (-inf, u]:
    cell by cell on the uniform grid, in closed form on the cell cut at u."""
    u = min(max(u, grid[0]), grid[-1])
    total, moment = 0j, 0j
    for x0, x1, y0, y1 in zip(grid[:-1], grid[1:], ys[:-1], ys[1:]):
        if u <= x0:
            break
        b = min(u, x1)
        slope = (y1 - y0) / (x1 - x0)
        d = b - x0
        total += y0 * d + 0.5 * slope * d * d
        # integral of (x0 + t) (y0 + slope t) over 0 <= t <= d
        moment += x0 * (y0 * d + 0.5 * slope * d * d) + y0 * d * d / 2 + slope * d**3 / 3
    return total, moment


def _check_against_dense(f, grid, ys, points):
    scale = float(np.max(np.abs(ys)))
    width = f.hi - f.lo
    reach = max(abs(f.lo), abs(f.hi))
    assert np.max(np.abs(f.values(points) - np.interp(points, grid, ys)), initial=0.0) <= 1e-13 * scale
    for u in points:
        total, moment = _dense_integrals(grid, ys, float(u))
        assert abs(f.integral_to(u) - total) <= 1e-13 * scale * width
        assert abs(f.moment_to(u) - moment) <= 1e-13 * scale * width * reach
    assert abs(f.mass - _dense_integrals(grid, ys, f.hi)[0]) <= 1e-13 * scale * width
    # the knots carry the rounding of lo + j step, which moves a slope by
    # about eps * reach / step relative
    slack = 1e-13 + 4.0 * np.finfo(float).eps * reach / f.step
    assert f.lipschitz == pytest.approx(np.max(np.abs(np.diff(ys))) / f.step, rel=slack)
    # f(u) = sum_k s_k (u - c_k)_+, the kinks are knots, and the jumps sum to 0
    c, s = f.kinks
    assert np.isin(c, f.knots).all() and np.all(s != 0)
    assert abs(np.sum(s)) <= 1e-13 * np.sum(np.abs(s))
    ramps = np.maximum(points[:, None] - c[None, :], 0.0) @ s
    inside = points <= f.hi
    assert np.max(np.abs(ramps[inside] - f.values(points[inside])), initial=0.0) <= 1e-13 * scale * max(1.0, reach)


def _probe_points(grid, data):
    lo, hi = grid[0], grid[-1]
    offsets = data.draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=8))
    return np.concatenate((grid, lo + (hi - lo) * np.array(offsets), [lo - 1.0, hi + 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    center=st.floats(-3, 3), half=st.floats(0.01, 2.0),
    re=st.floats(-4, 4), im=st.floats(-4, 4), cells=st.integers(1, 64), data=st.data(),
)
def test_random_hats_match_closed_forms_and_the_dense_interpolant(center, half, re, im, cells, data):
    height = complex(re, im) if (re, im) != (0.0, 0.0) else 1.0
    f = tf_hat(center, half, height, step=half / cells)
    x0, x1, x2 = f.knots
    assert f.knots.size == 3 and f.samples.tolist() == [0.0, height, 0.0]
    assert np.allclose([x0, x1, x2], [center - half, center, center + half], rtol=0.0, atol=1e-15 * (abs(center) + half))
    n = round(half / f.step)
    grid = f.lo + f.step * np.arange(2 * n + 1)
    assert grid[[0, n, 2 * n]].tolist() == f.knots.tolist()
    ys = height * (1.0 - np.abs(np.arange(2 * n + 1) - n) / n)
    ys[[0, -1]] = 0.0
    _check_against_dense(f, grid, ys, _probe_points(grid, data))
    # the closed forms of the triangle through its three knots
    w0, w1 = x1 - x0, x2 - x1
    assert f.mass == pytest.approx(height * (x2 - x0) / 2, rel=1e-13)
    assert f.lipschitz == pytest.approx(abs(height) / min(w0, w1), rel=1e-13)
    assert np.allclose(f.kinks[1], [height / w0, -height / w0 - height / w1, height / w1], rtol=1e-13, atol=0.0)
    for u in (x0 + 0.3 * w0, x1, x1 + 0.6 * w1, x2 + 1.0):
        if u <= x1:
            t = u - x0
            integral, moment = height * t * t / (2 * w0), height / w0 * (t**3 / 3 + x0 * t * t / 2)
        else:
            t = x2 - min(u, x2)
            integral = height * w0 / 2 + height * (w1 * w1 - t * t) / (2 * w1)
            moment = height / w0 * (w0**3 / 3 + x0 * w0 * w0 / 2)
            moment += height / w1 * (x2 * (w1 * w1 - t * t) / 2 - (w1**3 - t**3) / 3)
        scale = abs(height) * half
        assert abs(f.integral_to(u) - integral) <= 1e-13 * scale
        assert abs(f.moment_to(u) - moment) <= 1e-13 * scale * (abs(center) + half)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-5, 5), step=st.floats(1e-3, 1.0),
    re=st.lists(st.integers(-8, 8), min_size=1, max_size=40), data=st.data(),
    scale=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
def test_random_polygons_from_samples_match_the_dense_interpolant(lo, step, re, data, scale):
    im = data.draw(st.lists(st.integers(-8, 8), min_size=len(re), max_size=len(re)))
    ys = np.concatenate(([0.0], scale * (np.array(re) + 1j * np.array(im)), [0.0]))
    grid = lo + step * np.arange(ys.size)
    f = testfunctions.TestFunction.from_samples(lo, step, ys)
    assert (f.lo, f.hi, f.step) == (grid[0], grid[-1], step)
    assert np.isin(f.knots, grid).all()
    assert f.samples.tolist() == ys[np.isin(grid, f.knots)].tolist()
    if np.any(ys != 0):
        _check_against_dense(f, grid, ys, _probe_points(grid, data))


@pytest.mark.parametrize("knots, samples, step", [
    ([0.0, 2.0, 1.0], [0.0, 1.0, 0.0], 0.1),  # unsorted
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0], 0.1),  # repeated
    ([0.0, np.inf], [0.0, 0.0], 0.1),
    ([np.nan, 1.0], [0.0, 0.0], 0.1),
    ([-1e308, 0.0, 1e308], [0.0, 1.0, 0.0], 0.1),  # the width overflows
    ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], 0.1),
    ([0.0, 1.0, 2.0], [0.0, complex(1.0, np.inf), 0.0], 0.1),
    ([0.0, 1.0, 2.0], [1.0, 1.0, 0.0], 0.1),  # nonzero ends
    ([0.0, 1.0, 2.0], [0.0, 1.0, 1e-300j], 0.1),
    ([0.0, 1.0, 2.0], [0.0, 0.0], 0.1),  # mismatched shapes
    ([[0.0, 1.0]], [[0.0, 0.0]], 0.1),
    ([0.0], [0.0], 0.1),
    ([0.0, 1.0], [0.0, 0.0], 0.0),
    ([0.0, 1.0], [0.0, 0.0], np.nan),
    ([0.0, 1e-310, 1.0], [0.0, 1e10, 0.0], 0.1),  # its slope overflows
])
def test_constructor_rejects_malformed_tables(knots, samples, step):
    with pytest.raises(InvalidArgument):
        testfunctions.TestFunction(knots, samples, step)


@pytest.mark.parametrize("make", [
    lambda: tf_hat(0.0, 1e308),
    lambda: tf_hat(1e308, 1e308),
    lambda: tf_hat(0.0, 0.25, np.inf),
    lambda: tf_hat(np.nan, 0.25),
    lambda: tf_indicator(-1e308, 0.0, step=1e308),  # a ramp of 1e308 past -1e308
    lambda: tf_indicator(0.0, 1.5e308, step=1.5e308),
    lambda: testfunctions.TestFunction.from_samples(0.0, 1e308, [0.0, 1.0, 0.0]),
    lambda: testfunctions.TestFunction.from_samples(0.0, 0.1, [0.0, np.inf, 0.0]),
])
def test_extreme_test_functions_are_refused_without_warnings(make):
    # warnings are errors in this suite, so an overflow on the way fails it
    with pytest.raises(InvalidArgument):
        make()


def test_hat_and_indicator_are_three_and_four_knots():
    assert tf_hat(0.3, 0.4, 1.5 - 0.5j, step=1e-5).knots.size == 3
    f = tf_indicator(-1.0, 2.0, step=0.01)
    assert f.knots.tolist() == (-1.01 + 0.01 * np.array([0.0, 1, 301, 302])).tolist()
    assert f.samples.tolist() == [0.0, 1.0, 1.0, 0.0]
    g = tf_reflect_conj(tf_hat(1.0, 0.5, 1.0 + 2.0j))
    assert g.knots.tolist() == [-1.5, -1.0, -0.5] and g.samples.tolist() == [0.0, 1.0 - 2.0j, 0.0]
