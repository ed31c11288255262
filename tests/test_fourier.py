"""Transforms, spectral densities, the Bessel identity, and cross-checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vanishkit import fourier
from vanishkit.constructions import build_example
from vanishkit.errors import InvalidArgument, TruncationTailError
from vanishkit.fourier import (
    bessel_j0,
    bessel_j0_check,
    bessel_j0_vec,
    exp_sum,
    ft_compact,
    rajchman_check,
    rl_crosscheck,
    series_density,
    sinc,
    sinc_autocorr_density,
    spectral_series,
    spectral_sinc_sq,
)
from vanishkit.analysis import NOT_VANISHING
from vanishkit.measures import (
    AbsCont,
    ConstantDensity,
    LatticeComb,
    PurePoint,
    TriangleDensity,
)
from vanishkit.testfunctions import tf_convolve, tf_hat, tf_indicator, tf_reflect_conj


def test_sinc_basics():
    assert sinc(0.0) == 1.0
    assert abs(sinc(np.pi)) < 1e-15
    u = np.linspace(0.01, 3.0, 50)
    assert np.allclose(sinc(u), np.sin(u) / u, atol=1e-15)


def test_exp_sum_riemann_block():
    # block of three equal atoms at 3, 10/3, 11/3 evaluated at k = 3/2
    positions = [3.0 + k / 3.0 for k in range(3)]
    assert exp_sum(positions, [1.0 / 3.0] * 3, 1.5) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_exp_sum_single_atom_modulus_one():
    ks = np.linspace(-4.0, 4.0, 33)
    vals = exp_sum([0.0], [1.0], ks)
    assert np.allclose(vals, 1.0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(k=st.floats(-10, 10))
def test_exp_sum_conjugate_symmetry_real_weights(k):
    positions, weights = [0.3, -1.7, 4.0], [1.0, 2.5, -0.5]
    assert exp_sum(positions, weights, -k) == pytest.approx(
        np.conj(exp_sum(positions, weights, k)), abs=1e-13
    )


def test_exp_sum_chunks_over_k_and_keeps_its_shape(monkeypatch):
    rng = np.random.default_rng(3)
    pos = rng.uniform(-40.0, 40.0, 57)
    wts = rng.normal(size=57) + 1j * rng.normal(size=57)
    ks = rng.uniform(-9.0, 9.0, (6, 35))
    whole = exp_sum(pos, wts, ks)
    monkeypatch.setattr(fourier, "_CHUNK_ELEMS", 200)  # 3 rows of k a chunk
    chunked = exp_sum(pos, wts, ks)
    assert chunked.shape == ks.shape
    want = np.exp(-2j * np.pi * ks[..., None] * pos) @ wts
    assert np.max(np.abs(chunked - whole)) <= 1e-15 * np.sum(np.abs(wts))
    assert np.max(np.abs(chunked - want)) <= 1e-12 * np.sum(np.abs(wts))
    assert exp_sum([], [], ks).shape == ks.shape


def _direct_panel_sum(x, lo, h, vals, sign):
    nodes = fourier._panel_nodes(lo, h, vals.shape[0]).ravel()
    return np.exp(sign * 2j * np.pi * np.multiply.outer(x, nodes)) @ vals.ravel()


@settings(max_examples=60, deadline=None)
@given(
    n_panels=st.integers(1, 2000),
    lo=st.floats(-100.0, 100.0),
    width=st.floats(1e-3, 200.0),
    xmax=st.floats(0.0, 1e3),
    sign=st.sampled_from((-1, 1)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_panels=1, lo=-1.0, width=2.0, xmax=5.0, sign=1, seed=0)
@example(n_panels=7, lo=0.0, width=1.0, xmax=1e3, sign=-1, seed=1)  # B = 1
@example(n_panels=1999, lo=-28.0, width=56.0, xmax=3.0, sign=1, seed=2)  # last block short
@example(n_panels=2000, lo=-200.0, width=400.0, xmax=1e3, sign=-1, seed=3)  # A B = P
def test_panel_exp_sum_matches_the_direct_phase_matrix(n_panels, lo, width, xmax, sign, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate(([0.0, -xmax, xmax], rng.uniform(-xmax, xmax, 30)))
    vals = rng.normal(size=(n_panels, 8)) + 1j * rng.normal(size=(n_panels, 8))
    h = width / (2 * n_panels)
    got = fourier._panel_exp_sum(x, lo, h, vals, sign)
    want = _direct_panel_sum(x, lo, h, vals, sign)
    tmax = max(abs(lo), abs(lo + width))
    bound = 64 * np.finfo(float).eps * (1.0 + xmax * tmax) * np.sum(np.abs(vals))
    assert np.max(np.abs(got - want)) <= bound


def _count_panels(monkeypatch) -> list[int]:
    panels = []
    kernel = fourier._panel_exp_sum

    def counted(x, lo, h, vals, sign):
        panels.append(vals.shape[0])
        return kernel(x, lo, h, vals, sign)

    monkeypatch.setattr(fourier, "_panel_exp_sum", counted)
    return panels


def test_spectral_sums_keep_their_refinement_levels(monkeypatch):
    # criterion 2 and the default rlcheck: 686 panels, then 1372 agree
    panels = _count_panels(monkeypatch)
    mu = build_example("ex_sinc_series", truncation=20)
    f = tf_hat(0.0, 0.5, 1.0)
    for xs in (np.linspace(-3.0, 3.0, 241), -3.0 + 0.025 * np.arange(241)):
        report = rl_crosscheck(mu, spectral_series(20), f, xs, tolerance=1e-4)
        assert report.k_window == 28.0 and report.quad_estimate <= 1e-5
        assert panels == [686, 1372]
        panels.clear()
    # the triangle on -5:5:0.01 (two cells): 10 panels a cell, then 20
    ks = np.linspace(-5.0, 5.0, 1001)
    assert np.max(np.abs(ft_compact(TriangleDensity(0.0, 1.0, 1.0), ks) - sinc(np.pi * ks) ** 2)) <= 1e-14
    assert panels == [10, 10, 20, 20]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_sums_stay_small_in_memory():
    # a dense x-by-nodes phase matrix peaked at 86 MB on criterion 2, and
    # would take about 2 GB for the triangle on 20,001 frequencies
    mu = build_example("ex_sinc_series", truncation=20)
    f = tf_hat(0.0, 0.5, 1.0)
    peak = _traced_peak(lambda: rl_crosscheck(mu, spectral_series(20), f, np.linspace(-3.0, 3.0, 241), 1e-4))
    assert peak <= 8_000_000
    ks = np.linspace(-200.0, 200.0, 20001)
    peak = _traced_peak(lambda: ft_compact(TriangleDensity(0.0, 1.0, 1.0), ks))
    assert peak <= 100_000_000


def test_ft_hat_closed_form():
    # unit hat of halfwidth a transforms to a * sinc^2(pi k a)
    a = 0.5
    f = tf_hat(0.0, a, 1.0)
    ks = np.linspace(-6.0, 6.0, 121)
    got = ft_compact(f, ks)
    want = a * sinc(np.pi * ks * a) ** 2
    assert np.max(np.abs(got - want)) < 1e-12


def _ft_nodal(f, ks):
    """Transform as a sum of nodal tents on the resolution grid x_j = lo + j step, every
    knot among them: step sinc^2(pi k step) sum_j f(x_j) e^{-2 pi i k x_j}."""
    xs = f.lo + f.step * np.arange(round((f.hi - f.lo) / f.step) + 1)
    assert np.isin(f.knots, xs).all()
    env = f.step * sinc(np.pi * ks * f.step) ** 2
    out = np.empty(ks.size, dtype=np.complex128)
    for start in range(0, ks.size, 2000):
        kk = ks[start : start + 2000]
        out[start : start + 2000] = np.exp(-2j * np.pi * kk[:, None] * xs[None, :]) @ f.values(xs)
    return env * out


@pytest.mark.parametrize(
    "f",
    [
        tf_hat(0.0, 0.5, 1.0),
        tf_hat(-0.7, 0.3, 1.0 - 2.0j, step=0.003),
        tf_convolve(tf_hat(0.0, 0.25, 1.0, step=0.075), tf_hat(0.2, 0.125, 1.0j, step=0.075)),
    ],
)
def test_ft_kink_sum_against_nodal_tents(f):
    # through k = 0, the Taylor range pi |k| (hi - lo) < 1 and its edge
    width = f.hi - f.lo
    ks = np.concatenate((np.linspace(-40.0, 40.0, 20001), [0.0, 1e-9], np.array([0.999, 1.001]) / (np.pi * width)))
    got = ft_compact(f, ks)
    assert np.max(np.abs(got - _ft_nodal(f, ks))) <= 1e-13
    assert ft_compact(f, 0.0) == f.mass


def test_ft_translated_hat_picks_up_phase():
    f = tf_hat(2.0, 0.5, 1.0)
    ks = np.linspace(-3.0, 3.0, 61)
    got = ft_compact(f, ks)
    want = 0.5 * sinc(np.pi * ks * 0.5) ** 2 * np.exp(-2j * np.pi * ks * 2.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ft_indicator_values():
    # the edge ramps add one step of mass, so tolerances sit at 2 steps
    f = tf_indicator(0.0, 1.0)
    assert abs(ft_compact(f, np.array([0.0]))[0] - 1.0) < 2e-3
    assert abs(ft_compact(f, np.array([1.0]))[0]) < 2e-3
    assert abs(ft_compact(f, np.array([0.5]))[0]) == pytest.approx(2.0 / np.pi, abs=2e-3)


def test_ft_inverse_is_forward_at_negated_frequency():
    f = tf_hat(1.0, 0.5, 1.0)
    ks = np.linspace(-2.0, 2.0, 41)
    fwd = ft_compact(f, -ks)
    inv = ft_compact(f, ks, direction="inverse")
    assert np.allclose(fwd, inv, atol=1e-14)


def test_ft_density_matches_test_function_route():
    dens = TriangleDensity(0.0, 1.0, 1.0)
    ks = np.linspace(-4.0, 4.0, 81)
    via_quad = ft_compact(dens, ks)
    want = sinc(np.pi * ks) ** 2
    assert np.max(np.abs(via_quad - want)) < 1e-10


def test_ft_rejects_unbounded_or_bad_direction():
    with pytest.raises(InvalidArgument):
        ft_compact(ConstantDensity(1.0), np.array([0.0]))
    with pytest.raises(InvalidArgument):
        ft_compact(tf_hat(0.0, 0.5, 1.0), np.array([0.0]), direction="sideways")


def test_plancherel_for_hats():
    ks = np.linspace(-8.0, 8.0, 321)
    for hw in (0.125, 0.25, 0.5):
        f = tf_hat(0.0, hw, 1.0)
        auto = tf_convolve(f, tf_reflect_conj(f))
        lhs = ft_compact(auto, ks)
        rhs = np.abs(ft_compact(f, ks)) ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_sinc_autocorr_closed_form_is_squared_modulus():
    xs = np.linspace(-4.0, 4.0, 801)
    for n in (0, 1, 3):
        s = sinc(np.pi * xs)
        direct = np.abs(1.0 + np.exp(-1j * np.pi * xs * (2 * n + 1)) * s) ** 2
        assert np.max(np.abs(sinc_autocorr_density(n, xs) - direct)) < 1e-13


def test_series_density_values():
    assert series_density(np.array([0.0]), 5)[0] == pytest.approx(7.875, abs=1e-12)
    assert series_density(np.array([1.0]), 5)[0] == pytest.approx(1.96875, abs=1e-12)
    assert series_density(np.array([0.0]), 20)[0] == pytest.approx(8.0 - 2.0 ** -18, abs=1e-12)


def test_series_density_nonnegative():
    ks = np.linspace(0.0, 3.0, 30001)
    assert float(np.min(series_density(ks, 40))) >= 0.0


def test_spectral_series_metadata():
    dens = spectral_series(20)
    assert dens.sup_bound == pytest.approx(8.0)
    assert dens.tail_bound == pytest.approx(2.0 ** -18)
    assert dens(np.array([0.25]))[0] == pytest.approx(series_density(np.array([0.25]), 20)[0])


def test_bessel_j0_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.linspace(0.0, 30.0, 601)
    got = bessel_j0_vec(xs)
    want = scipy_special.j0(xs)
    assert np.max(np.abs(got - want)) < 5e-12
    for x in (0.5, 7.3, 13.9, 14.1, 25.0):
        assert bessel_j0(x) == pytest.approx(float(scipy_special.j0(x)), abs=5e-12)


def _j0_series_fraction(x):
    """The J0 power series summed in exact rationals, with the integer series' stop rule."""
    from fractions import Fraction

    q = Fraction(abs(x)) ** 2 / 4
    term = total = Fraction(1)
    m = 1
    while True:
        term = -term * q / (m * m)
        total += term
        if q < m * m and abs(term) < Fraction(1, 10**26):
            return float(total)
        m += 1


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-14.0, 14.0))
@example(x=0.0)
@example(x=5e-324)
@example(x=2.404825557695773)
@example(x=14.0)
def test_bessel_j0_series_is_the_exact_sum_correctly_rounded(x):
    assert bessel_j0(x) == _j0_series_fraction(x)


def test_bessel_identity_small_radii():
    for r in (0.0, 0.7, 3.3):
        lhs, rhs = bessel_j0_check(r, quad_points=512)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rl_crosscheck_triangle_vs_sinc_sq():
    mu = AbsCont(TriangleDensity(0.0, 1.0, 1.0))
    f = tf_hat(0.0, 0.5, 1.0)
    xs = np.linspace(-2.0, 2.0, 41)
    report = rl_crosscheck(mu, spectral_sinc_sq(), f, xs, tolerance=1e-5)
    assert report.max_deviation <= 1e-5
    # Python's complex abs is the reference; np.abs rounds 6 of these 41 apart
    want = [abs(d - s) for d, s in zip(report.direct.tolist(), report.spectral.tolist())]
    assert report.deviation.tolist() == want
    assert report.max_deviation == max(want)


def test_rl_crosscheck_rejects_fat_truncation_tail():
    mu = AbsCont(TriangleDensity(0.0, 1.0, 1.0))
    f = tf_hat(0.0, 0.5, 1.0)
    with pytest.raises(TruncationTailError):
        rl_crosscheck(mu, spectral_series(6), f, np.linspace(-1.0, 1.0, 11), tolerance=1e-5)


def test_rajchman_comb_autocorrelation_plateau():
    comb = PurePoint(LatticeComb(1.0, 0.0, None))
    f = tf_hat(0.0, 0.25, 1.0)
    prof = rajchman_check(comb, f, [4.0, 8.0], epsilon=0.05, annulus_step=0.01)
    assert prof.verdict == NOT_VANISHING
    # hat autocorrelation at integer offsets contributes g(0) = 1/6
    assert prof.sups[0] == pytest.approx(1.0 / 6.0, abs=1e-6)
