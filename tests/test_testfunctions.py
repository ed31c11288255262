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
        (tf_convolve(tf_hat(0.0, 0.25, 1.0, step=0.025), tf_hat(0.1, 0.125, 1.0j, step=0.025), refine=4), None),
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
    # samples 1 - k/n are exact for a power-of-two n, so the rounding floor
    # of the kink table drops nothing: 3 kinks, the jumps unchanged
    f = tf_hat(1.5, half, 1.0 - 0.5j)
    slope = np.diff(f.samples) / f.step
    jumps = np.diff(np.concatenate(([0.0], slope, [0.0])))
    c, s = f.kinks
    assert c.tolist() == f.knots[jumps != 0].tolist() == [1.5 - half, 1.5, 1.5 + half]
    assert s.tobytes() == jumps[jumps != 0].tobytes()


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
    # 11 samples are allowed, 13 are not: a hat of 5 or 6 cells a side, an
    # indicator of 8 or 10 inner cells, a convolution of 5 + 7 or 5 + 9
    monkeypatch.setattr(testfunctions, "MAX_SAMPLES", 11)
    assert tf_hat(0.0, 0.25, step=0.05).samples.size == 11
    assert tf_indicator(0.0, 1.0, step=0.125).samples.size == 11
    small = tf_hat(0.0, 0.25, step=0.125)  # 5 samples
    assert tf_convolve(small, tf_hat(0.0, 0.375, step=0.125), refine=1).samples.size == 11
    for make in (
        lambda: tf_hat(0.0, 0.25, step=0.04),
        lambda: tf_indicator(0.0, 1.0, step=0.1),
        lambda: tf_convolve(small, tf_hat(0.0, 0.5, step=0.125), refine=1),
    ):
        with pytest.raises(InvalidArgument, match="samples"):
            make()


@pytest.mark.parametrize("make", [
    lambda: tf_hat(0.0, 0.25, step=1e-9),
    lambda: tf_hat(0.0, 1e300, step=1e-300),  # a ratio too large for an int
    lambda: tf_indicator(-1e308, 1e308, step=1.0),
    lambda: tf_convolve(tf_hat(0.0, 0.25), tf_hat(0.0, 0.25), refine=10**6),
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
