"""Measure expressions: window resolution, convolution, variation, norms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanishkit import errors, fourier, masses, measures, ramps
from vanishkit.constructions import AlternatingDyadicDensity, build_example
from vanishkit.errors import InvalidArgument, QuadratureError
from vanishkit.fourier import bessel_j0_vec
from vanishkit.measures import (
    _SCATTER_CHUNK,
    _STEEP_FACTOR,
    AbsCont,
    ConstantDensity,
    DensitySource,
    FiniteAtoms,
    FunctionDensity,
    IndicatorDensity,
    LatticeComb,
    PurePoint,
    ReflectConj,
    Scale,
    Sum,
    Translate,
    TriangleDensity,
    atoms_in,
    convolve,
    convolve_grid,
    resolve_window,
    seminorm_pg,
    sup_norm_K,
    variation_on,
)
from vanishkit.testfunctions import Window, tf_convolve, tf_hat, tf_indicator, tf_reflect_conj


def test_finite_atoms_window_selection():
    mu = PurePoint(FiniteAtoms([(0.0, 1.0), (3.0, 0.2 - 0.1j), (5.0, -1.0)]))
    got = atoms_in(mu, Window(-1.0, 4.0))
    assert [(a.position, a.weight) for a in got] == [(0.0, 1.0 + 0.0j), (3.0, 0.2 - 0.1j)]


@pytest.mark.parametrize("atoms", [[(0.0, 1.0, 5.0)], [(1j, 1.0)], [(0.0,)]])
def test_finite_atoms_rejects_malformed_rows(atoms):
    with pytest.raises(InvalidArgument):
        FiniteAtoms(atoms)


def test_lattice_comb_offsets_and_weights():
    comb = PurePoint(LatticeComb(1.0, 0.5, lambda n: (1.0 / (1.0 + np.abs(n))).astype(np.complex128)))
    got = atoms_in(comb, Window(0.0, 3.0))
    assert [a.position for a in got] == [0.5, 1.5, 2.5]
    assert [a.weight for a in got] == [1.0, 0.5, pytest.approx(1.0 / 3.0)]


def test_lattice_comb_rejects_indices_beyond_intp():
    # a narrow window far out: few points, but indices past what intp holds
    comb = LatticeComb(1.0)
    with pytest.raises(InvalidArgument):
        comb.enumerate_window(Window(1e20, 1e20 + 10.0))
    assert comb.enumerate_window(Window(1e15, 1e15 + 2.0))[0].size == 3


def test_translate_reflect_scale_compose():
    base = PurePoint(FiniteAtoms([(1.0, 2.0 + 1.0j)]))
    mu = Scale(2.0j, ReflectConj(Translate(0.5, base)))
    got = atoms_in(mu, Window(-2.0, 0.0))
    assert len(got) == 1
    # atom moved to 1.5, reflected to -1.5; weight conjugated then scaled
    assert got[0].position == -1.5
    assert got[0].weight == pytest.approx(2.0j * (2.0 - 1.0j))


def test_sum_merges_coincident_atoms():
    mu = Sum((
        PurePoint(FiniteAtoms([(0.0, 1.0), (1.0, 1.0)])),
        Scale(-1.0, PurePoint(FiniteAtoms([(1.0, 1.0)]))),
    ))
    got = atoms_in(mu, Window(-0.5, 1.5))
    assert [(a.position, a.weight) for a in got] == [(0.0, 1.0 + 0.0j)]


def _merge_by_unique(pos, wts):
    uniq, inv = np.unique(pos, return_inverse=True)
    acc = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(acc, inv, wts)
    keep = acc != 0
    return uniq[keep], acc[keep]


@pytest.mark.parametrize(
    "pos, wts",
    [
        ([-1.5, 0.0, 0.25, 3.0], [1.0, -2.0 + 1.0j, 0.5j, 1.0]),
        ([3.0, 0.25, 0.0, -1.5], [1.0, -2.0 + 1.0j, 0.5j, 1.0]),
        ([-1.5, 0.0, 0.25, 3.0], [1.0, 0.0, -0.0 - 0.0j, 2.0]),
        ([0.0, 0.5], [complex(1.0, -0.0), complex(-0.0, 2.0)]),
        ([0.0, 0.0, 1.0], [1.0, -1.0, 2.0]),
    ],
    ids=["sorted", "reflected", "zero_weights", "signed_zero_parts", "coincident"],
)
def test_merge_of_sorted_input_matches_the_general_path(pos, wts):
    pos, wts = np.array(pos), np.array(wts, dtype=np.complex128)
    got, want = measures._merge(pos, wts), _merge_by_unique(pos, wts)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()  # signed zeros included


def test_convolve_atom_hits_test_function():
    mu = PurePoint(FiniteAtoms([(2.0, 3.0)]))
    f = tf_hat(0.0, 0.5, 1.0)
    assert convolve(mu, f, 2.0) == pytest.approx(3.0)
    assert convolve(mu, f, 2.25) == pytest.approx(1.5)
    assert convolve(mu, f, 3.0) == 0.0


def test_convolve_indicator_density_half_overlap():
    mu = AbsCont(IndicatorDensity(0.0, 1.0, 1.0))
    f = tf_hat(0.5, 0.5, 1.0)
    # only the left half of the hat is inside the slab at x = 0.5
    assert complex(convolve(mu, f, 0.5)).real == pytest.approx(0.25, abs=1e-9)
    assert complex(convolve(mu, f, 1.0)).real == pytest.approx(0.5, abs=1e-9)


def test_convolve_grid_matches_pointwise():
    mu = Sum((
        PurePoint(FiniteAtoms([(0.0, 1.0), (2.5, -2.0)])),
        AbsCont(TriangleDensity(1.0, 1.0, 1.0)),
    ))
    f = tf_hat(0.0, 0.3, 1.0)
    xs = np.linspace(-1.0, 4.0, 41)
    grid = convolve_grid(mu, f, xs)
    single = np.array([convolve(mu, f, float(x)) for x in xs])
    assert np.allclose(grid, single, atol=1e-10)


def _take_path(monkeypatch, path):
    """Send atoms and shallow cells down one path: "pairs" or "ramp"."""
    monkeypatch.setattr(ramps, "_RAMP_CROSSOVER", np.inf if path == "pairs" else 0.0)


def _atom_double_sum(pos, wts, f, grid, chunk=500):
    """sum_p w_p f(x - p) at every x, as dense numpy products over grid chunks."""
    out = np.empty(grid.size, dtype=np.complex128)
    for start in range(0, grid.size, chunk):
        x = grid[start : start + chunk]
        near = slice(pos.searchsorted(x[0] - f.hi), pos.searchsorted(x[-1] - f.lo, side="right"))
        out[start : start + chunk] = f.values(x[:, None] - pos[None, near]) @ wts[near]
    return out


def test_convolve_grid_atom_scatter_against_double_sum(monkeypatch):
    _atom_sums_against_double_sum(monkeypatch, "pairs")


def test_convolve_grid_atom_ramps_against_double_sum(monkeypatch):
    _atom_sums_against_double_sum(monkeypatch, "ramp")


def _atom_sums_against_double_sum(monkeypatch, path):
    # An off-center complex hat over a grid with a gap: the atoms between
    # -4.7 and 4.7 are inside the hull but reach no grid point, and the
    # atoms that do reach it make several scatter chunks of pairs.
    _take_path(monkeypatch, path)
    rng = np.random.default_rng(7)
    pos = rng.uniform(-25.0, 25.0, 4000)
    wts = rng.normal(size=4000) + 1j * rng.normal(size=4000)
    mu = PurePoint(FiniteAtoms(list(zip(pos.tolist(), wts.tolist()))))
    center, half, height = 0.05, 0.25, 1.0 - 0.5j
    f = tf_hat(center, half, height)
    side = 5.0 + 0.004 * np.arange(3751)
    grid = np.concatenate((-side[::-1], side))
    got = convolve_grid(mu, f, grid)

    want = np.empty(grid.size, dtype=np.complex128)
    pairs = 0
    for start in range(0, grid.size, 500):
        u = grid[start : start + 500, None] - pos[None, :]
        hat = height * np.maximum(0.0, 1.0 - np.abs(u - center) / half)
        want[start : start + 500] = hat @ wts
        pairs += int(np.count_nonzero(np.abs(u - center) <= half))
    assert pairs >= 3 * _SCATTER_CHUNK
    lo, hi = grid[0] - (center + half), grid[-1] - (center - half)
    silent = (pos > lo) & (pos < hi) & (np.abs(pos + center) < 5.0 - half)
    assert np.count_nonzero(silent) > 100
    assert np.max(np.abs(got - want)) <= 1e-12


def test_variation_constant_density():
    assert variation_on(AbsCont(ConstantDensity(1.0)), Window(0.0, 5.0)) == pytest.approx(5.0)
    assert variation_on(Scale(-2.0, AbsCont(ConstantDensity(1.0))), Window(0.0, 5.0)) == pytest.approx(10.0)


def test_variation_counts_atoms_by_modulus():
    mu = PurePoint(FiniteAtoms([(0.0, 3.0 - 4.0j), (1.0, 1.0)]))
    assert variation_on(mu, Window(-0.5, 1.5)) == pytest.approx(6.0)
    assert variation_on(mu, Window(0.5, 0.75)) == 0.0


def test_sup_norm_k_scans_translates():
    mu = PurePoint(FiniteAtoms([(0.0, 1.0), (0.5, 2.0), (4.0, 1.0)]))
    # densest unit window holds weights 1 and 2
    assert sup_norm_K(mu, Window(0.0, 1.0), Window(-1.0, 5.0), 0.25) == pytest.approx(3.0)


def test_seminorm_grid_sup():
    mu = PurePoint(FiniteAtoms([(1.0, -2.0)]))
    f = tf_hat(0.0, 0.25, 1.0)
    assert seminorm_pg(mu, f, Window(0.0, 3.0)) == pytest.approx(2.0)


@pytest.mark.parametrize("chunk", [100, 1 << 16])
@pytest.mark.parametrize("search", [Window(0.3, 2.9), Window(0.3, 2.905)])
@pytest.mark.parametrize("mu", [build_example("ex_a"), PurePoint(FiniteAtoms([(-1.0, 0.5), (2.805, 1.0)]))])
def test_seminorm_in_blocks_equals_one_grid(monkeypatch, chunk, search, mu):
    # 261 grid points, three blocks of 100; the second search is closed by
    # one more point at its end, where the atom at 2.805 puts the sup
    f = tf_hat(0.1, 0.25, 1.0 - 0.5j, step=0.05)
    monkeypatch.setattr(measures, "_SCAN_CHUNK", chunk)
    one_shot = float(np.max(np.abs(convolve_grid(mu, f, measures._search_grid(search, 0.01)))))
    assert seminorm_pg(mu, f, search, step=0.01) == one_shot


def test_seminorm_rejects_bad_step():
    mu = PurePoint(FiniteAtoms([(0.0, 1.0)]))
    with pytest.raises(InvalidArgument):
        seminorm_pg(mu, tf_hat(0.0, 0.25, 1.0), Window(0.0, 1.0), step=-1.0)


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(-20, 20),
    width=st.floats(0.1, 10),
    inner_a=st.floats(0, 1),
    inner_b=st.floats(0, 1),
)
def test_nested_window_consistency(lo, width, inner_a, inner_b):
    # atoms of a sub-window are exactly the covered atoms of the larger one
    mu = PurePoint(LatticeComb(0.7, 0.13, None))
    outer = Window(lo, lo + width)
    a, b = sorted((lo + inner_a * width, lo + inner_b * width))
    inner = Window(a, b)
    whole = atoms_in(mu, outer)
    sub = atoms_in(mu, inner)
    filtered = [t for t in whole if inner.contains(t.position)]
    assert sub == filtered


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-4, 4), t=st.floats(-3, 3))
def test_translation_covariance(x, t):
    mu = Sum((
        PurePoint(FiniteAtoms([(0.0, 1.0 + 0.5j), (1.0, -1.0)])),
        AbsCont(IndicatorDensity(-1.0, 0.5, 2.0)),
    ))
    f = tf_hat(0.0, 0.4, 1.0)
    lhs = convolve(Translate(t, mu), f, x)
    rhs = convolve(mu, f, x - t)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-3, 3))
def test_linearity_of_convolution(x):
    mu1 = PurePoint(FiniteAtoms([(0.5, 1.0 - 1.0j)]))
    mu2 = AbsCont(TriangleDensity(0.0, 1.0, 2.0))
    f = tf_hat(0.0, 0.5, 1.0)
    combined = convolve(Sum((mu1, Scale(3.0, mu2))), f, x)
    separate = convolve(mu1, f, x) + 3.0 * convolve(mu2, f, x)
    assert combined == pytest.approx(separate, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-3, 3))
def test_reflect_conj_convolution_identity(x):
    # for mu~ = reflected conjugate, mu~ * f (x) = sum conj(w) f(x + p)
    atoms = [(0.5, 1.0 + 2.0j), (-1.25, -0.5j)]
    mu = ReflectConj(PurePoint(FiniteAtoms(atoms)))
    f = tf_hat(0.0, 0.6, 1.0)
    expected = sum(np.conj(w) * complex(f(x + p)) for p, w in atoms)
    assert convolve(mu, f, x) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(split=st.floats(0.05, 4.95))
def test_variation_additive_at_atom_free_cuts(split):
    mu = Sum((
        AbsCont(TriangleDensity(2.0, 1.5, 1.0)),
        PurePoint(FiniteAtoms([(1.0, 1.0), (3.0, -2.0)])),
    ))
    if atoms_in(mu, Window(split, split)):
        return  # cutting at an atom would count it twice
    total = variation_on(mu, Window(0.0, 5.0))
    parts = variation_on(mu, Window(0.0, split)) + variation_on(mu, Window(split, 5.0))
    assert parts == pytest.approx(total, abs=1e-8)


class _AffineDensity(DensitySource):
    """c0 + c1 * x on a support window, declared affine there."""

    def __init__(self, c0, c1, support):
        self.c0, self.c1, self.support = c0, c1, support

    def evalv(self, xs):
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= self.support.lo) & (xs <= self.support.hi)
        return np.where(inside, self.c0 + self.c1 * xs, 0.0).astype(np.complex128)

    def knots(self, w):
        return np.empty(0)


@pytest.mark.parametrize(
    "vc, beta, t0, d",
    [
        (0.3 + 0.7j, -1.2 + 0.4j, -0.5, 1.0),  # complex
        (0.3 + 0.7j, -1.2 + 0.4j, -0.3, 0.45),  # complex, part of a cell
        ((0.6 + 0.8j) * 2.0, (0.6 + 0.8j) * 1.5, -0.5, 1.0),  # one phase
        (0.2, -1.0, -0.5, 1.0),  # real, zero inside
        (0.3 + 1e-9j, 1.0, -1.0, 2.0),  # one phase up to 1e-9, zero inside
        (1.0, 1e-7, -0.5, 1.0),  # real, zero 1e7 widths away
        (1.5e7 * 1e-3 * (1 + 2j) * np.exp(0.3j), 1e-3 * (1 + 2j), -1.85e-6, 3.7e-6),  # |r| = 4e12 widths
        (2.5 + 1.0j, 1e-6 * (1 - 1j), -0.5, 1.0),  # complex, |r| ~ 1.9e6 widths
    ],
)
def test_cell_mass_closed_form_against_scipy_quad(vc, beta, t0, d):
    integrate = pytest.importorskip("scipy.integrate")
    vc, beta = complex(vc), complex(beta)
    zero = -(vc / beta).real
    points = [zero] if t0 < zero < t0 + d else None
    expected, _ = integrate.quad(
        lambda t: abs(vc + beta * t), t0, t0 + d, points=points, epsabs=0.0, epsrel=1e-13, limit=200
    )
    got = masses._cell_mass(np.array([vc]), np.array([beta]), np.array([t0]), np.array([d]))[0]
    assert abs(got - expected) <= 1e-12 * expected


def test_variation_and_sup_norm_agree_on_complex_cells():
    # |(x - 0.5) + 0.3i| over [0, 1]: twice the arsinh primitive on [0, 0.5]
    mu = AbsCont(_AffineDensity(-0.5 + 0.3j, 1.0, Window(0.0, 1.0)))
    exact = 0.5 * np.sqrt(0.34) + 0.09 * np.arcsinh(0.5 / 0.3)
    assert variation_on(mu, Window(0.0, 1.0)) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert sup_norm_K(mu, Window(0.0, 1.0), Window(0.0, 0.0), 0.5) == pytest.approx(exact, rel=1e-12, abs=0.0)
    # windows that cut the cell read the closed form on the partial cell
    xs = np.arange(0.0, 0.6001, 0.05)
    scanned = max(variation_on(mu, Window(x, x + 0.4)) for x in xs)
    assert sup_norm_K(mu, Window(0.0, 0.4), Window(0.0, 0.6), 0.05) == pytest.approx(scanned, rel=1e-12, abs=0.0)


def test_variation_quadrature_error_reports_the_last_residual():
    step = FunctionDensity(lambda x: np.where(x < 0.3, 1.0, 0.0), Window(0.0, 1.0), label="step")
    with pytest.raises(QuadratureError) as info:
        variation_on(AbsCont(step), Window(0.0, 1.0))
    assert info.value.residual > 0.0


def _jump(xs):
    return np.where(np.asarray(xs) < 0.3, 1.0, 0.0)


_NOT_CONVERGING = {
    # quadrature: (its call on a jump inside its domain, the levels it builds);
    # the hat's panels are 256 of its steps wide, so G3, then K7 on 2^s
    # sub-panels for s = 0 to 6 + 8
    "density": (lambda: convolve_grid(AbsCont(FunctionDensity(np.sign)), tf_hat(0.0, 0.25, 1.0), np.array([0.05])), 16),
    "variation": (lambda: variation_on(AbsCont(FunctionDensity(_jump, Window(0.0, 1.0))), Window(0.0, 1.0)), 16),
    "transform": (lambda: fourier.ft_compact(FunctionDensity(_jump, Window(0.0, 1.0)), np.array([0.0, 1.0])), 4),
    "spectral": (
        lambda: fourier.rl_crosscheck(
            PurePoint(FiniteAtoms([(0.0, 1.0)])), fourier.SpectralDensity(_jump, 1.0, 0.0), tf_hat(0.0, 0.25, 1.0),
            np.array([0.0]),
        ),
        3,
    ),
}


@pytest.mark.parametrize("what", sorted(_NOT_CONVERGING))
def test_quadrature_error_carries_the_last_level_difference(what, monkeypatch):
    # every adaptive quadrature runs its levels through errors._refine; a
    # jump keeps two levels from agreeing, and the residual is the
    # difference between the last two
    call, n_levels = _NOT_CONVERGING[what]
    seen = []

    def recorded(levels, tol, name):
        def tee():
            for estimate, value in levels:
                seen.append(np.copy(estimate))
                yield estimate, value

        return errors._refine(tee(), tol, name)

    for module in (measures, masses, fourier):
        monkeypatch.setattr(module, "_refine", recorded)
    with pytest.raises(QuadratureError, match=f"^{what} quadrature did not converge") as info:
        call()
    assert len(seen) == n_levels
    assert info.value.residual == float(np.max(np.abs(seen[-1] - seen[-2]))) > 0.0


class _CountingStep:
    """1 left of 0.3 and 0 right of it, counting the points it is asked for."""

    def __init__(self):
        self.points = 0

    def __call__(self, xs):
        self.points += np.size(xs)
        return np.where(xs < 0.3, 1.0, 0.0)


def test_variation_quadrature_evaluates_each_node_once():
    # Every level of the doubling reuses the last one's values: 129 nodes,
    # then 128 * (2 + 4 + ... + 2^15) midpoints.  Evaluating every level
    # afresh took about 8.4M points.
    step = _CountingStep()
    with pytest.raises(QuadratureError):
        variation_on(AbsCont(FunctionDensity(step, Window(0.0, 1.0))), Window(0.0, 1.0))
    assert step.points == 129 + 128 * (2**15 - 1) <= 4_200_000


def test_variation_of_cancelling_pieces():
    # Declared pieces add before |.|: 1 - 1 is no mass, and a tent minus a
    # slab is |1 + t| + |t| + |t| + 1 on the cells of [-1, 2].
    cancel = Sum((AbsCont(ConstantDensity(1.0)), AbsCont(ConstantDensity(-1.0))))
    assert variation_on(cancel, Window(0.0, 5.0)) == 0.0
    assert sup_norm_K(cancel, Window(0.0, 1.0), Window(0.0, 4.0), 0.5) == 0.0
    mixed = Sum((AbsCont(TriangleDensity(0.0, 1.0, 1.0)), AbsCont(IndicatorDensity(-0.5, 2.0, -1.0))))
    assert variation_on(mixed, Window(-3.0, 5.0)) == pytest.approx(1.75, rel=1e-15)
    assert variation_on(mixed, Window(0.5, 1.5)) == pytest.approx(0.375 + 0.5, rel=1e-15)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_variation_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidArgument):
        variation_on(AbsCont(ConstantDensity(1.0)), Window(0.0, 1.0), tol=tol)


# ---------------------------------------------------------------------------
# Smooth (undeclared) densities: kink-panel quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [50.0, 1e3, 1e4, 1e5])
def test_smooth_density_cosine_closed_form(a):
    # cos(a x) * hat(0, w) = cos(a x) * 2 (1 - cos(a w)) / (a^2 w).  At
    # a = 1e3 and above, the panels must be refined past 2^6 sub-panels.
    w = 0.25
    mu = AbsCont(FunctionDensity(lambda x: np.cos(a * x), label=f"cos({a} x)"))
    f = tf_hat(0.0, w, 1.0)
    xs = np.array([-3.7, -0.1, 0.0, 0.4, 12.3])
    exact = np.cos(a * xs) * 2.0 * (1.0 - np.cos(a * w)) / (a * a * w)
    assert np.max(np.abs(convolve_grid(mu, f, xs) - exact)) <= 1e-10
    single = np.array([convolve(mu, f, float(x)) for x in xs])
    assert np.max(np.abs(single - exact)) <= 1e-10


def test_smooth_density_bounded_support_pointwise_path():
    # The hull sticks out of the support, whose ends cut the panels: the grid
    # and each of its points taken on its own give the exact convolution.
    smooth = AbsCont(FunctionDensity(lambda x: np.full(x.shape, 2.0), support=Window(-1.0, 2.0)))
    f = tf_hat(0.3, 0.25, 1.0)
    xs = np.linspace(-2.0, 3.5, 111)
    exact = convolve_grid(AbsCont(IndicatorDensity(-1.0, 2.0, 2.0)), f, xs)
    single = np.array([convolve(smooth, f, float(x)) for x in xs])
    assert np.max(np.abs(convolve_grid(smooth, f, xs) - exact)) <= 1e-12
    assert np.max(np.abs(single - exact)) <= 1e-12


def test_smooth_density_jump_raises_quadrature_error():
    # A jump inside a panel leaves an O(width) error at every level.
    mu = AbsCont(FunctionDensity(np.sign, label="sign"))
    with pytest.raises(QuadratureError):
        convolve_grid(mu, tf_hat(0.0, 0.25, 1.0), np.array([-0.1, 0.05]))
    with pytest.raises(QuadratureError):
        convolve(mu, tf_hat(0.0, 0.25, 1.0), 0.05)


def test_j0_radial_against_scipy_quad():
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    mu = build_example("j0_radial")
    f = tf_hat(0.0, 0.25, 1.0)
    xs = np.array([-7.3, 0.12, 41.05])

    def oracle(x):
        def g(s):
            return max(0.0, 1.0 - abs(x - s) / 0.25) * 2.0 * np.pi * special.j0(2.0 * np.pi * abs(s))

        val, _ = integrate.quad(g, x - 0.25, x + 0.25, points=[x], epsabs=1e-13, epsrel=1e-13)
        return val

    expected = np.array([oracle(x) for x in xs])
    assert np.max(np.abs(convolve_grid(mu, f, xs) - expected)) <= 1e-10


class _CountingJ0:
    """2 pi J0(2 pi |x|) that counts the points it is asked for."""

    def __init__(self):
        self.points = 0

    def __call__(self, xs):
        self.points += np.size(xs)
        return 2.0 * np.pi * bessel_j0_vec(2.0 * np.pi * np.abs(xs))


@pytest.mark.parametrize(
    "autocorr, ceiling",
    [
        # the two panels of each point's reach, 0.25 wide, at G3, K7 and K7
        # on halves, 3 + 4 + 14 evaluations each (G3 and K7 differ by 1.7e-5)
        (False, 42),
        # every knot of the autocorrelation is a kink: at most 12,288 panels,
        # 7 evaluations each (G3 and K7 agree)
        (True, 86_016),
    ],
)
def test_smooth_density_work_ceiling(autocorr, ceiling):
    j0 = _CountingJ0()
    mu = AbsCont(FunctionDensity(j0, label="counting j0"))
    f = tf_hat(0.0, 0.25, 1.0)
    if autocorr:
        f = tf_convolve(f, tf_reflect_conj(f))
    xs = np.linspace(-2.0, 2.0, 5)
    convolve_grid(mu, f, xs)
    assert j0.points <= ceiling * xs.size


@pytest.mark.parametrize(
    "points, spacing, ceiling, support",
    [
        # mean_abs's grid for n = 2: the reaches of neighbouring points share
        # their panels, one step wide, so each of the 4,096 + 512 panels costs
        # 3 + 4 evaluations (G3, then K7's new nodes), 7.87 per point (42 with
        # a quadrature per point)
        pytest.param(4097, 1.0, 8, None, id="4097-1.0-8"),
        # one of decay_profile's annulus blocks, at half a step: panels half a
        # step wide, 13.99 per point
        pytest.param(1024, 0.5, 14, None, id="1024-0.5-14"),
        # a bounded support takes the same panels, clipped to it: 7.87 and
        # 13.99 where it covers the hull; 7.38 and 10.03 where the grid sticks
        # out of it at both ends (41.8 and 40.6 with a quadrature per point)
        pytest.param(4097, 1.0, 8, "covering", id="4097-1.0-8-covering"),
        pytest.param(1024, 0.5, 14, "covering", id="1024-0.5-14-covering"),
        pytest.param(4097, 1.0, 8, "sticking out", id="4097-1.0-8-sticking-out"),
        pytest.param(1024, 0.5, 14, "sticking out", id="1024-0.5-14-sticking-out"),
    ],
)
def test_smooth_density_dense_grid_work_ceiling(points, spacing, ceiling, support):
    j0 = _CountingJ0()
    f = tf_hat(0.0, 0.25, 1.0)
    xs = 0.5 + spacing * f.step * np.arange(points)
    sup = {"covering": Window(-10.0, 10.0), "sticking out": Window(0.2, float(xs[-1]) - 0.1 / 3)}.get(support)
    convolve_grid(AbsCont(FunctionDensity(j0, support=sup, label="counting j0")), f, xs)
    assert j0.points <= ceiling * xs.size


def _per_point(rho, support, f, xs):
    """The integral of f(u) rho(x - u) du for each x, rho taken as 0 off the
    support (None for the line), point by point: Gauss-Legendre of order 20
    (numpy's leggauss) on the pieces between the knots of f, the ends of
    the support and 65 equally spaced points of the reach.  It shares no
    code with measures."""
    t, w = np.polynomial.legendre.leggauss(20)
    out = np.zeros(xs.size, dtype=np.complex128)
    for i, x in enumerate(xs):
        lo, hi = f.lo, f.hi
        if support is not None:
            lo, hi = max(lo, x - support.hi), min(hi, x - support.lo)
        if lo >= hi:
            continue
        edges = np.union1d(np.linspace(lo, hi, 65), f.knots[(f.knots > lo) & (f.knots < hi)])
        half = 0.5 * np.diff(edges)[:, None]
        u = edges[:-1, None] + half * (1.0 + t)
        out[i] = np.sum(half * w * f.values(u) * rho(x - u))
    return out


def _scipy_j0_density():
    """2 pi J0(2 pi |x|), the density of j0_radial, from scipy."""
    special = pytest.importorskip("scipy.special")
    return lambda x: 2.0 * np.pi * special.j0(2.0 * np.pi * np.abs(x))


@settings(max_examples=40, deadline=None)
@given(
    density=st.sampled_from(["cos", "bump", "j0"]),
    polygon=st.booleans(),
    arithmetic=st.booleans(),
    support=st.sampled_from([None, "covering", "sticking out", "disjoint", "one point inside"]),
    origin=st.floats(-1000.0, 1000.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_smooth_panels_against_the_per_point_rule(density, polygon, arithmetic, support, origin, seed):
    # Arbitrary grids skip the panels between reaches that do not meet; a
    # bounded support clips the panels to its ends.
    rng = np.random.default_rng(seed)
    amp = complex(*rng.normal(size=2))
    if density == "cos":
        a, phase = rng.uniform(0.5, 60.0), rng.uniform(0.0, 2.0 * np.pi)
        rho = oracle = lambda x: amp * np.cos(a * x + phase)
        tol = 2e-8
    elif density == "bump":
        c, w = origin + rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)
        rho = oracle = lambda x: amp * np.exp(-(((x - c) / w) ** 2))
        tol = 2e-8
    else:
        rho, oracle, tol = build_example("j0_radial").density.evalv, _scipy_j0_density(), 1e-10
    if polygon:
        inner = rng.normal(size=(int(rng.integers(1, 7)), 2)) @ np.array([1.0, 1j])
        f = measures.TestFunction.from_samples(rng.uniform(-1.0, 1.0), rng.uniform(0.02, 0.2), np.r_[0.0, inner, 0.0])
    else:
        f = tf_hat(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 0.6), amp)
    if arithmetic:
        xs = origin + 0.5 * f.step * np.arange(int(rng.integers(1, 200)))
    else:
        gaps = rng.uniform(0.01, 3.0, size=int(rng.integers(1, 20))) * (f.hi - f.lo)
        xs = origin + np.cumsum(gaps)
    if support == "one point inside":
        xs = xs[:1]
    hull = Window(float(xs[0]) - f.hi, float(xs[-1]) - f.lo)
    u, v = rng.uniform(0.05, 0.45, size=2) * hull.width
    sup = {
        "covering": Window(hull.lo - u, hull.hi + v),
        "sticking out": Window(hull.lo + u, hull.hi - v),
        "disjoint": Window(hull.hi + u, hull.hi + u + v),
        "one point inside": Window(hull.lo - u, hull.hi + v),
    }.get(support)
    mu = AbsCont(FunctionDensity(rho, support=sup))
    assert np.max(np.abs(convolve_grid(mu, f, xs) - _per_point(oracle, sup, f, xs))) <= tol


def test_smooth_panels_bound_their_temporaries():
    # 12,287 kinks: chunks of 170 grid points keep the query array x_i - c_k
    # at 2^21 entries; 400 points at one step of f make three chunks
    hat = tf_hat(0.0, 0.25, 1.0)
    f = tf_convolve(hat, tf_reflect_conj(hat))
    assert f.kinks[0].size == 12_287
    mu = build_example("j0_radial")
    xs = 3.3 + f.step * np.arange(400)
    tracemalloc.start()
    try:
        vals = convolve_grid(mu, f, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20  # 36 MB measured: the query array and its sorted copy
    some = np.array([0, 200, 399])
    assert np.max(np.abs(vals[some] - _per_point(_scipy_j0_density(), None, f, xs[some]))) <= 1e-10


def test_panel_chunk_builds_its_ramp_reads_once(record):
    # mean_abs's 4,097-point grid takes levels 0 and 1: the reads, at
    # x - f.hi and at x - c_k for the hat's two kinks below f.hi (a batch
    # each), are built once and read at both levels
    f = tf_hat(0.0, 0.25, 1.0)
    reads = record(ramps._Reads, "__init__")
    at = record(ramps._Ramps, "at")
    levels = record(measures, "_panel_values")
    convolve_grid(build_example("j0_radial"), f, 0.5 + f.step * np.arange(4097))
    assert len(levels) == 2 and len(reads) == 1 and len(at) == 3


def _per_block_sums(left, mass, first, span):
    """G and H of each block, 0 and then one cumsum of the block alone (the
    loop that _Ramps replaced)."""
    blocks = np.floor((left - left[0]) / span).astype(np.intp)
    start = blocks.searchsorted(np.arange(blocks[-1] + 2))
    moment = (left - (left[0] + span * blocks)) * mass + first
    return [(np.r_[0j, np.cumsum(mass[i:j])], np.r_[0j, np.cumsum(moment[i:j])]) for i, j in zip(start, start[1:])]


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    dense=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_ramp_prefix_sums_equal_the_per_block_loop(counts, dense, seed):
    # Empty blocks, one-source blocks and one dense block among sparse ones:
    # each block's running sums, read where the ramps read them, equal a
    # cumsum of that block alone bit for bit (signed zeros included).
    rng = np.random.default_rng(seed)
    counts = [1, *counts]  # the first source sets the base
    counts.insert(int(rng.integers(0, len(counts) + 1)), dense)
    span = 0.5
    left = np.concatenate([b * span + np.sort(rng.uniform(0.0, span, c)) for b, c in enumerate(counts)])
    left = np.unique(left[left < span * len(counts)])
    mass = rng.normal(size=(left.size, 2)) @ np.array([1.0, 1j])
    mass[rng.random(left.size) < 0.1] = complex(-0.0, -0.0)
    first = rng.normal(size=left.size) * 1e-3 + 0j
    r = ramps._Ramps(left, span).load(mass, first)
    for b, (g, h) in enumerate(_per_block_sums(left, mass, first, span)):
        i, j = r.start[b], r.start[b + 1]
        got = r.read(r.at(np.r_[left[i:j], np.inf], np.full(j - i + 1, b)))
        assert [x.tobytes() for x in got] == [g.tobytes(), h.tobytes()]
        assert [x.tobytes() for x in r.read(r.end(np.array([b])))] == [g[-1:].tobytes(), h[-1:].tobytes()]


def test_ramp_sums_take_a_few_cumsums_however_many_blocks(record):
    # one cumsum per row width (counts of one quarter octave share one) and
    # per sum: 1,000 blocks of 1 to 39 sources take at most 2 * 4 * 6
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 40, size=1000)
    left = np.concatenate([b + np.sort(rng.uniform(0.0, 1.0, c)) for b, c in enumerate(counts)])
    ramp = ramps._Ramps(left, 1.0)
    calls = record(np, "cumsum")
    ramp.load(np.ones(left.size, dtype=np.complex128))
    assert ramp.n == 1000 and len(calls) <= 2 * 4 * 6


# ---------------------------------------------------------------------------
# Affine cells: the pair scatter against the per-cell loop it replaced
# ---------------------------------------------------------------------------


def _reference_cells(piece, clip):
    """Affine cells (a, b, vc, beta) built one cell and one evalv call at a time."""
    knots = piece.knots(clip)
    inner = knots[(knots > clip.lo) & (knots < clip.hi)]
    edges = np.concatenate(([clip.lo], inner, [clip.hi]))
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        if width <= 0.0:
            continue
        s1, s2 = a + width / 3.0, b - width / 3.0
        g1, g2 = piece.evalv(np.array([s1, s2]))
        beta = (g2 - g1) / (s2 - s1) if s2 > s1 else 0.0
        vc = 0.5 * (g1 + g2)
        if vc != 0 or beta != 0:
            cells.append((float(a), float(b), complex(vc), complex(beta)))
    return cells


def _reference_steep(x, a, b, vc, beta, f):
    """GL2 on the sub-cells the knots of f cut [x - b, x - a] into, at one x."""
    u_lo, u_hi = x - b, x - a
    k_lo = np.searchsorted(f.knots, u_lo, side="right")
    k_hi = np.searchsorted(f.knots, u_hi, side="left")
    edges = np.concatenate(([u_lo], f.knots[k_lo:k_hi], [u_hi]))
    good = np.diff(edges) > 0
    mid = (0.5 * (edges[:-1] + edges[1:]))[good]
    half = (0.5 * np.diff(edges))[good]
    node = 0.5773502691896257
    u = np.concatenate([mid - node * half, mid + node * half])
    vals = f.values(u) * (vc + beta * ((x - 0.5 * (a + b)) - u))
    n = half.size
    return complex(np.sum(half * (vals[:n] + vals[n:])))


def _reference_convolve_grid(mu, f, grid):
    """mu * f on grid for densities with declared knots: cell by cell, and
    point by point on steep cells.  Also returns the steep cells' (a, b)."""
    hull = Window(grid[0] - f.hi, grid[-1] - f.lo)
    out = np.zeros(grid.size, dtype=np.complex128)
    steep = []
    for piece in resolve_window(mu, hull).pieces:
        sup = piece.support
        clip = hull if sup is None else hull.intersect(sup)
        if clip is None:
            continue
        for a, b, vc, beta in _reference_cells(piece, clip):
            i0 = np.searchsorted(grid, a + f.lo, side="left")
            i1 = np.searchsorted(grid, b + f.hi, side="right")
            xs = grid[i0:i1]
            cell_sup = abs(vc) + abs(beta) * 0.5 * (b - a)
            if abs(beta) * ((f.hi - f.lo) + (b - a)) > _STEEP_FACTOR * max(1.0, cell_sup):
                steep.append((a, b))
                for j, x in enumerate(xs):
                    out[i0 + j] += _reference_steep(float(x), a, b, vc, beta, f)
            elif beta == 0:
                out[i0:i1] += vc * (f.integral_to(xs - a) - f.integral_to(xs - b))
            else:
                dF = f.integral_to(xs - a) - f.integral_to(xs - b)
                dM = f.moment_to(xs - a) - f.moment_to(xs - b)
                out[i0:i1] += vc * dF + beta * ((xs - 0.5 * (a + b)) * dF - dM)
    return out, steep


def _count_chunks(monkeypatch):
    """Record the pair count of every scatter chunk from here on."""
    chunks = []
    scatter = measures._scatter_pairs

    def counted(i0, i1, pair_values, out):
        def values(s, idx):
            chunks.append(idx.size)
            return pair_values(s, idx)

        scatter(i0, i1, values, out)

    monkeypatch.setattr(measures, "_scatter_pairs", counted)
    return chunks


def _autocorr_hat():
    hat = tf_hat(0.0, 1.0, 1.0)
    return tf_convolve(hat, tf_reflect_conj(hat))


def test_pair_scatter_steep_tents_up_to_level_50(monkeypatch):
    _take_path(monkeypatch, "pairs")
    mu, f = build_example("ex_tent"), _autocorr_hat()
    grid = np.linspace(0.0, 52.0, 521)
    want, steep = _reference_convolve_grid(mu, f, grid)
    # The grid reaches level 50; the deepest tent float64 resolves is at 47
    # (at 48 and beyond n +- 2^-n rounds to n).
    assert max(b for a, b in steep) > 47.0
    assert np.max(np.abs(convolve_grid(mu, f, grid) - want)) <= 1e-12


def _alternating_dyadic_density(monkeypatch, path):
    """Chunk sizes of the pair scatter while ex_bf is checked cell by cell."""
    _take_path(monkeypatch, path)
    chunks = _count_chunks(monkeypatch)
    mu, f = build_example("ex_bf"), tf_hat(0.0, 0.5, 1.0)
    grid = np.linspace(0.0, 16.0, 321)
    want, steep = _reference_convolve_grid(mu, f, grid)
    assert steep == []
    assert np.max(np.abs(convolve_grid(mu, f, grid) - want)) <= 1e-12
    return chunks


def test_pair_scatter_alternating_dyadic_density(monkeypatch):
    chunks = _alternating_dyadic_density(monkeypatch, "pairs")
    assert len(chunks) >= 3 and max(chunks) <= _SCATTER_CHUNK


def test_ramp_alternating_dyadic_density(monkeypatch):
    assert _alternating_dyadic_density(monkeypatch, "ramp") == []


def test_pair_scatter_complex_off_center_triangles(monkeypatch):
    _complex_off_center_triangles(monkeypatch, "pairs")


def test_ramp_complex_off_center_triangles(monkeypatch):
    _complex_off_center_triangles(monkeypatch, "ramp")


def _complex_off_center_triangles(monkeypatch, path):
    # a wide tent on the antiderivative path (or the ramp sums) and a steep
    # narrow one on GL2
    _take_path(monkeypatch, path)
    mu = Sum((
        Scale(2.0 - 1.0j, AbsCont(TriangleDensity(0.37, 0.8, 1.0 + 2.0j))),
        AbsCont(TriangleDensity(2.1, 1e-7, 0.5 - 1.0j)),
    ))
    f = tf_hat(0.1, 0.3, 1.0 - 0.5j)
    grid = np.linspace(-1.5, 3.0, 451)
    want, steep = _reference_convolve_grid(mu, f, grid)
    assert len(steep) == 2
    assert np.max(np.abs(convolve_grid(mu, f, grid) - want)) <= 1e-12


def test_pair_scatter_many_chunks_of_mixed_cells(monkeypatch):
    # Small chunks, so steep and shallow tent cells share chunks and a steep
    # cell reaching more pairs than a chunk holds is split across chunks.
    monkeypatch.setattr(measures, "_SCATTER_CHUNK", 64)
    _take_path(monkeypatch, "pairs")
    chunks = _count_chunks(monkeypatch)
    mu, f = build_example("ex_tent"), _autocorr_hat()
    grid = np.linspace(10.0, 22.0, 241)
    want, steep = _reference_convolve_grid(mu, f, grid)
    assert steep
    assert np.max(np.abs(convolve_grid(mu, f, grid) - want)) <= 1e-12
    assert len(chunks) >= 3


def test_pair_scatter_one_point_grid(monkeypatch):
    _take_path(monkeypatch, "pairs")
    mu, f = build_example("ex_tent"), _autocorr_hat()
    grid = np.array([15.3])  # reaches shallow tents (levels 14 and below) and steep ones
    want, steep = _reference_convolve_grid(mu, f, grid)
    assert steep
    got = convolve_grid(mu, f, grid)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert convolve(mu, f, 15.3) == got[0]


def test_pair_scatter_splits_a_wide_source_across_chunks(monkeypatch):
    # Lebesgue measure is one cell that reaches every point of a 2^18-point
    # grid.  Its pairs are split across chunks, so the temporaries stay near
    # a chunk's worth (about 110 bytes a pair) rather than the grid's: as
    # one chunk of 2^18 pairs they peaked at 27 MB.
    chunks = _count_chunks(monkeypatch)
    f = tf_hat(0.0, 0.125, 1.0)
    grid = np.linspace(-8.0, 8.0, 1 << 18)
    clip = Window(grid[0] - f.hi, grid[-1] - f.lo)
    cells = measures._affine_cells(resolve_window(AbsCont(ConstantDensity(1.0)), clip).pieces[0], clip)
    assert cells[0].size == 1
    out = np.zeros(grid.size, dtype=np.complex128)
    tracemalloc.start()
    try:
        measures._scatter_cells(cells, f, grid, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * _SCATTER_CHUNK
    assert chunks == [_SCATTER_CHUNK] * (grid.size // _SCATTER_CHUNK)
    a, b, vc, _ = cells
    assert np.array_equal(out, vc * (f.integral_to(grid - a) - f.integral_to(grid - b)))


# ---------------------------------------------------------------------------
# Ramp sums: atoms and shallow cells against double sums and the cell loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ex_b", "ex_nu"])
def test_ramp_far_out_atoms_against_double_sum(monkeypatch, record, name):
    # about 1,000 atoms per unit, so some 125 per support width of f
    mu, f = build_example(name), tf_hat(0.0, 0.125, 1.0)
    grid = np.arange(1000.0, 1100.0, 0.01) + 0.003
    res = resolve_window(mu, Window(grid[0] - f.hi, grid[-1] - f.lo))
    want = _atom_double_sum(res.positions, res.weights, f, grid, chunk=100)
    want += _reference_convolve_grid(mu, f, grid)[0]  # ex_b's Lebesgue part
    ramp_calls = record(measures, "_ramp_into_grid")
    got = convolve_grid(mu, f, grid)
    assert len(ramp_calls) == 1  # the chooser's own pick
    assert np.max(np.abs(got - want)) <= 1e-12
    _take_path(monkeypatch, "pairs")
    assert np.max(np.abs(convolve_grid(mu, f, grid) - got)) <= 1e-12


def test_ramp_on_block_edges(monkeypatch):
    # Blocks start at the first atom and are one support width (0.5) long.
    # Atoms sit on block edges and a rounding away from them, and grid
    # points put x - f.hi and x - c (each kink c) on the edges.
    _take_path(monkeypatch, "ramp")
    f = tf_hat(0.1, 0.25, 2.0 + 1.0j)
    edges = 0.5 * np.arange(41)
    rng = np.random.default_rng(3)
    pos = np.unique(np.concatenate((edges, np.nextafter(edges, -1.0)[1:], np.nextafter(edges, 30.0),
                                    rng.uniform(0.0, 20.0, 400))))
    wts = rng.normal(size=pos.size) + 1j * rng.normal(size=pos.size)
    mu = PurePoint(FiniteAtoms(list(zip(pos.tolist(), wts.tolist()))))
    kinks = f.kinks[0]
    assert kinks.size == 3
    grid = np.unique(np.concatenate([edges + c for c in kinks] + [rng.uniform(-1.0, 21.0, 300)]))
    got = convolve_grid(mu, f, grid)
    assert np.max(np.abs(got - _atom_double_sum(pos, wts, f, grid))) <= 1e-12


def test_ramp_non_dyadic_hat(monkeypatch):
    # 1 - k/100 rounds, so most slope differences of this hat are a rounding
    # away from zero rather than exactly zero; the kink table keeps only the
    # 3 true kinks, and the ramp sums still match the rounded samples.
    _take_path(monkeypatch, "ramp")
    f = tf_hat(0.0, 0.3, 1.0, step=0.003)
    assert f.kinks[0].size == 3
    rng = np.random.default_rng(11)
    pos = np.sort(rng.uniform(-5.0, 5.0, 3000))
    wts = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    mu = PurePoint(FiniteAtoms(list(zip(pos.tolist(), wts.tolist()))))
    grid = np.linspace(-4.0, 4.0, 2001)
    assert np.max(np.abs(convolve_grid(mu, f, grid) - _atom_double_sum(pos, wts, f, grid))) <= 1e-12
    mu, grid = build_example("ex_bf"), np.linspace(0.0, 16.0, 641)
    want, steep = _reference_convolve_grid(mu, f, grid)
    assert steep == []
    assert np.max(np.abs(convolve_grid(mu, f, grid) - want)) <= 1e-12


def test_ramp_chooser_keeps_sparse_atoms_on_pairs(monkeypatch, record):
    # ex_a has two atoms per unit: a few pairs per grid point, fewer than
    # the ramp would make queries.
    ramp_calls = record(measures, "_ramp_into_grid")
    chunks = _count_chunks(monkeypatch)
    convolve_grid(build_example("ex_a"), tf_hat(0.0, 0.125, 1.0), np.arange(1000.0, 1010.0, 0.125 / 512))
    assert ramp_calls == [] and len(chunks) >= 1


def test_ramp_chooser_keeps_far_apart_clusters_on_pairs(record):
    # Dense atoms, but in two clusters 1e6 apart: blocks of one support
    # width between them would outnumber the atoms 400 to 1.
    ramp_calls = record(measures, "_ramp_into_grid")
    rng = np.random.default_rng(5)
    pos = np.concatenate((rng.uniform(0.0, 1.0, 5000), 1e6 + rng.uniform(0.0, 1.0, 5000)))
    mu = PurePoint(FiniteAtoms([(p, 1.0) for p in pos.tolist()]))
    grid = np.concatenate((np.linspace(0.0, 1.0, 2000), 1e6 + np.linspace(0.0, 1.0, 2000)))
    convolve_grid(mu, tf_hat(0.0, 0.125, 1.0), grid)
    assert ramp_calls == []


def test_ramp_chooser_takes_ex_bf_off_integral_to(monkeypatch):
    # The README's convolve ex_bf: the pair path sent 32,794,204 points
    # through integral_to, twice per cell edge and grid point.
    points = []
    integral_to = measures.TestFunction.integral_to

    def counted(self, u):
        points.append(np.size(u))
        return integral_to(self, u)

    monkeypatch.setattr(measures.TestFunction, "integral_to", counted)
    convolve_grid(build_example("ex_bf"), tf_hat(0.0, 0.25, 1.0), np.arange(0.0, 16.0, 0.001))
    assert sum(points) <= 327_942  # 1 %


class _CountingDensity(DensitySource):
    """Another density's values and knots, counting the evalv calls."""

    def __init__(self, base):
        self.base = base
        self.support = base.support
        self.calls = 0

    def evalv(self, xs):
        self.calls += 1
        return self.base.evalv(xs)

    def knots(self, w):
        return self.base.knots(w)


def test_affine_cells_sample_each_piece_once():
    # ex_bf's density has 32,766 cells on [-0.5, 16.5]; building them one
    # at a time took an evalv call per cell.
    dens = _CountingDensity(AlternatingDyadicDensity())
    mu = AbsCont(dens)
    convolve_grid(mu, tf_hat(0.0, 0.5, 1.0), np.linspace(0.0, 16.0, 33))
    assert dens.calls == 1
    variation_on(mu, Window(0.0, 16.0))
    assert dens.calls == 2
    sup_norm_K(mu, Window(0.0, 1.0), Window(0.0, 15.0), 0.5)
    assert dens.calls == 3


def test_steep_cells_evaluate_f_once_per_chunk(monkeypatch):
    # The per-point loop called f.values once per (steep cell, grid point):
    # 2,624 calls on this grid.
    _take_path(monkeypatch, "pairs")
    mu, f = build_example("ex_tent"), _autocorr_hat()
    chunks = _count_chunks(monkeypatch)
    calls = []
    values = type(f).values

    def counted(self, xs):
        calls.append(np.size(xs))
        return values(self, xs)

    monkeypatch.setattr(type(f), "values", counted)
    convolve_grid(mu, f, np.linspace(0.0, 52.0, 521))
    assert 1 <= len(calls) <= len(chunks)


@pytest.mark.parametrize("f", [tf_hat(0.0, 1.0, 1.0), _autocorr_hat()], ids=["hat", "autocorr"])
def test_steep_pairs_evaluate_f_within_the_chunk_bound(monkeypatch, record, f):
    # A steep pair evaluates f at two GL2 nodes on each knot interval of f
    # it crosses.  A steep cell is narrower than (f.hi - f.lo) / 49,999, so
    # it crosses at most one interval more than the most knots such a window
    # holds, and a chunk of _SCATTER_CHUNK pairs stays within that multiple.
    _take_path(monkeypatch, "pairs")
    chunks = _count_chunks(monkeypatch)
    calls = record(type(f), "values")
    convolve_grid(build_example("ex_tent"), f, np.linspace(0.0, 52.0, 20801))
    assert max(chunks) == _SCATTER_CHUNK
    reach = f.knots.searchsorted(f.knots + (f.hi - f.lo) / 49_999) - np.arange(f.knots.size)
    evaluated = max(np.size(xs) for _, xs in calls)
    assert 2 * _SCATTER_CHUNK <= evaluated <= 2 * _SCATTER_CHUNK * (1 + int(reach.max()))


def test_integral_and_moment_accept_scalars():
    f = tf_hat(0.2, 0.5, 1.0 - 1.0j)
    for u in (-1.0, 0.05, 0.4, 2.0):
        assert f.integral_to(np.asarray(u)) == f.integral_to(np.array([u]))[0]
        assert f.moment_to(u) == f.moment_to(np.array([u]))[0]
