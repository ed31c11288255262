"""Named measures and the block-sum validator/generator."""

import math

import numpy as np
import pytest

from vanishkit import constructions, measures, testfunctions
from vanishkit.analysis import VANISHING, decay_profile
from vanishkit.constructions import (
    EXAMPLE_NAMES,
    BlockPart,
    BlockSumInput,
    build_example,
    ex_a_block_input,
    ex_b_block_input,
    generate_block_sum,
    nu_block_input,
    validate_block_sum,
)
from vanishkit.errors import HypothesesNotSatisfied, InvalidArgument, UnknownExample
from vanishkit.measures import (
    AbsCont,
    ConstantDensity,
    FiniteAtoms,
    FunctionDensity,
    IndicatorDensity,
    PurePoint,
    ReflectConj,
    Scale,
    Sum,
    TransformedDensity,
    Translate,
    TriangleDensity,
    _affine_cells,
    atoms_in,
    convolve,
    variation_on,
)
from vanishkit.testfunctions import Window, tf_hat


HAT = tf_hat(0.0, 0.25, 1.0)


def test_example_names_all_build():
    for name in EXAMPLE_NAMES:
        assert build_example(name) is not None
    with pytest.raises(UnknownExample):
        build_example("no_such_measure")


def test_offset_pairs_atom_layout():
    mu = build_example("ex_a")
    got = atoms_in(mu, Window(0.5, 3.5))
    assert [(a.position, a.weight) for a in got] == [
        (1.0, -1.0 + 0.0j),
        (2.5, 1.0 + 0.0j),
        (3.0, -1.0 + 0.0j),
        (10.0 / 3.0, 1.0 + 0.0j),
    ]
    # the +atom of pair 1 cancels the -atom of pair 2 at position 2
    assert atoms_in(mu, Window(1.9, 2.1)) == []


def _offset_pairs_by_loop(w):
    n_lo = math.floor(w.lo) - 2
    n_hi = math.ceil(w.hi) + 2
    ns = [n for n in range(n_lo, n_hi + 1) if n != 0]
    if not ns:
        return np.empty(0), np.empty(0, dtype=np.complex128)
    pos = np.empty(2 * len(ns))
    wts = np.empty(2 * len(ns), dtype=np.complex128)
    for i, n in enumerate(ns):
        pos[2 * i] = float(n)
        wts[2 * i] = -1.0
        pos[2 * i + 1] = n + 1.0 / n
        wts[2 * i + 1] = 1.0
    pos, wts = measures._merge(pos, wts)
    keep = (pos >= w.lo) & (pos <= w.hi)
    return pos[keep], wts[keep]


def _riemann_comb_by_loop(w, k_start):
    chunks_p = []
    chunks_w = []
    for n in range(max(1, math.floor(w.lo) - 1), math.floor(w.hi) + 2):
        ks = np.arange(k_start, n + k_start)
        p = n + ks / n
        inside = (p >= w.lo) & (p <= w.hi)
        if np.any(inside):
            chunks_p.append(p[inside])
            chunks_w.append(np.full(int(np.sum(inside)), 1.0 / n, dtype=np.complex128))
    if not chunks_p:
        return np.empty(0), np.empty(0, dtype=np.complex128)
    return measures._merge(np.concatenate(chunks_p), np.concatenate(chunks_w))


def test_combs_enumerate_as_the_per_block_loop():
    # the vectorised enumerations against the block-by-block loops, bit for bit
    rng = np.random.default_rng(11)
    windows = [Window(-3.0, 3.0), Window(-2.5, -1.0), Window(0.0, 1.0), Window(1.0, 2.0)]
    for _ in range(60):
        a = float(rng.uniform(-60.0, 60.0))
        windows.append(Window(a, a + float(rng.choice([0.0, 0.3, 1.0, 7.5]))))
    for w in windows:
        cases = [(constructions.OffsetPairComb(), _offset_pairs_by_loop(w))]
        cases += [(constructions.RiemannComb(k), _riemann_comb_by_loop(w, k)) for k in (0, 1)]
        for source, want in cases:
            got = source.enumerate_window(w)
            for g, r in zip(got, want):
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), (source, w)


def _riemann_block_by_loop(n, w, k_start, pad):
    """The atoms of block n in w, from every k within pad of the closed-form range."""
    ks = np.arange(max(k_start, math.floor((w.lo - n) * n) - pad), min(n + k_start, math.ceil((w.hi - n) * n) + pad))
    p = n + ks / n
    inside = (p >= w.lo) & (p <= w.hi)
    return p[inside], np.full(int(np.sum(inside)), 1.0 / n, dtype=np.complex128)


@pytest.mark.parametrize(
    "w",
    [
        Window(1e6, 1e6 + 0.01),
        Window(4e6, 4e6 + 0.01),
        Window(999_999.999_999_7, 1_000_001.000_000_3),
        Window(123_456.3, 123_457.9),
        Window(2.0**25 + 0.37, 2.0**25 + 0.37 + 1e-4),
        Window(2.0**26 - 1.6, 2.0**26 - 1.6 + 1e-4),
        # one atom each, where (p - n) * n rounds past its k
        Window(7 + 4 / 7, 7 + 4 / 7),
        Window(1000 + 805 / 1000, 1000 + 805 / 1000),
        Window(999_983 + 22_652 / 999_983, 999_983 + 22_652 / 999_983),
        Window(67_108_859 + 31_464_116 / 67_108_859, 67_108_859 + 31_464_116 / 67_108_859),
    ],
)
def test_riemann_comb_far_windows_enumerate_their_candidates_only(monkeypatch, w):
    # the closed-form k range of each block keeps every atom that a range
    # 1000 wider keeps, bit for bit, and the guard counts at most two
    # candidates a side of each block beyond the atoms
    blocks = range(max(1, math.floor(w.lo) - 1), math.floor(w.hi) + 2)
    for k_start in (0, 1):
        chunks = [_riemann_block_by_loop(n, w, k_start, 1000) for n in blocks]
        want = measures._merge(*(np.concatenate(c) for c in zip(*chunks)))
        monkeypatch.setattr(measures, "_MAX_ATOMS", want[0].size + 4 * len(blocks))
        got = constructions.RiemannComb(k_start).enumerate_window(w)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def test_riemann_comb_refuses_blocks_it_cannot_resolve():
    # from 2^26 on a block is a candidate whole, over 10^7 atoms
    with pytest.raises(InvalidArgument, match="atoms"):
        constructions.RiemannComb().enumerate_window(Window(2.0**26 + 0.5, 2.0**26 + 0.5))
    with pytest.raises(InvalidArgument, match="atoms"):
        constructions.RiemannComb().enumerate_window(Window(1e20, 1e20 + 10.0))
    with pytest.raises(InvalidArgument, match="atoms"):
        constructions.RiemannComb().enumerate_window(Window(0.0, 5000.0))


def test_offset_pairs_convolution_peak():
    mu = build_example("ex_a")
    assert complex(convolve(mu, HAT, 100.0)).real == pytest.approx(-0.04, abs=1e-12)
    # at the offset atom the pair contributes f(0) - f(1/100) = 4/100
    assert complex(convolve(mu, HAT, 100.01)).real == pytest.approx(0.04, abs=1e-9)


def test_offset_pairs_variation():
    mu = build_example("ex_a")
    # pairs at 1..10 minus the two interior cancellations at 2 and 3
    assert variation_on(mu, Window(0.5, 10.5)) == pytest.approx(18.0, abs=1e-12)


def test_riemann_comb_block_and_plateau():
    mu = build_example("ex_nu")
    got = atoms_in(mu, Window(2.9, 3.9))
    assert [a.position for a in got] == [3.0, pytest.approx(10.0 / 3.0), pytest.approx(11.0 / 3.0)]
    assert all(a.weight == pytest.approx(1.0 / 3.0) for a in got)
    f = tf_hat(0.5, 0.5, 1.0)
    assert complex(convolve(mu, f, 100.0)).real == pytest.approx(0.5, abs=1e-4)
    assert complex(convolve(mu, f, 400.0)).real == pytest.approx(0.5, abs=1e-5)


def test_tents_window_masses():
    mu = build_example("ex_tent")
    for n in range(1, 11):
        half = 2.0 ** -n
        # the tent at n, isolated, integrates to exactly its halfwidth
        assert variation_on(mu, Window(n - half, n + half)) == pytest.approx(half, abs=1e-12)
    # [0, 2] holds all of tent 1 plus the left half of tent 2
    assert variation_on(mu, Window(0.0, 2.0)) == pytest.approx(0.5 + 0.125, abs=1e-12)
    for n in range(2, 11):
        assert variation_on(mu, Window(n - 1.0, n + 1.0)) == pytest.approx(
            2.25 * 2.0 ** -n, abs=1e-12
        )


def test_tents_peaks_and_decay():
    mu = build_example("ex_tent")
    dens = mu.density
    for n in (1, 4, 9):
        assert float(np.abs(dens.evalv(np.array([float(n)])))[0]) == pytest.approx(1.0)
    prof = decay_profile(mu, HAT, [12.5, 25.0], epsilon=0.05, annulus_step=0.01)
    assert prof.verdict == VANISHING


def test_alternating_dyadic_blocks():
    mu = build_example("ex_bf")
    assert variation_on(mu, Window(3.0, 4.0)) == pytest.approx(1.0, abs=1e-12)
    # equal positive and negative parts: the block integrates to zero
    total = complex(convolve(mu, tf_hat(0.5, 0.5, 1.0), 4.0)).real
    assert abs(total) < 1e-9


@pytest.mark.parametrize("hw", [0.125, 0.25, 0.5, 2.0])
def test_alternating_dyadic_levels_past_the_cut_stay_below_the_truncation_bound(monkeypatch, hw):
    # ex_bf drops the levels from 15 on, claiming they add less than
    # Lip(f) * 2^-15 to |mu * f|.  With levels 15 to 18 kept, and x - supp f
    # inside [15, 19], they add 7.6e-6 to 8.6e-6 against bounds of 2.4e-4
    # (hw 0.125) down to 1.5e-5 (hw 2).
    monkeypatch.setattr(constructions, "_BF_MAX_LEVEL", 18)
    f = tf_hat(0.0, hw, 1.0)
    xs = np.arange(15.0 + hw, 19.0 - hw + 2.0**-11, 2.0**-10)  # the one point 17 for hw 2
    got = np.abs(measures.convolve_grid(build_example("ex_bf"), f, xs))
    assert np.max(got) <= f.lipschitz * 2.0**-15
    assert np.max(got) > 1e-6  # the levels are there


def test_tent_cells_and_values_agree_at_the_last_levels():
    # n +- 2^-n rounds to n from level 48 on, so the family ends at 47: up to
    # there a tent has peak 1 and two cells of total mass 2^-n, beyond that
    # neither values nor cells
    density = build_example("ex_tent").density
    piece = TransformedDensity(density, 1, 0.0, 0, 1.0)
    for n in range(46, 51):
        resolved = n <= 47
        w = Window(n - 0.5, n + 0.5)
        a, b, vc, _ = _affine_cells(piece, w)
        assert density.evalv(np.array([float(n)]))[0] == (1.0 if resolved else 0.0)
        assert a.size == (2 if resolved else 0)
        assert np.sum(vc * (b - a)) == (2.0**-n if resolved else 0.0)
        assert variation_on(AbsCont(density), w) == (2.0**-n if resolved else 0.0)


def _outside_and_inside(support, below, above):
    """Dense grids just outside each end of a support (down to ``below``, up
    to ``above``) and the floats just inside them."""
    lo, hi = support.lo, support.hi
    ulps_lo = np.nextafter(lo, -np.inf) - np.arange(2000) * np.spacing(lo)
    ulps_hi = np.nextafter(hi, np.inf) + np.arange(2000) * np.spacing(hi)
    far = np.concatenate((np.linspace(below, lo, 20001)[:-1], np.linspace(hi, above, 20001)[1:]))
    return np.concatenate((ulps_lo, ulps_hi, far)), np.array([np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)])


def test_truncated_densities_vanish_off_their_declared_supports():
    # ex_tent ends with the tent at 47, whose right knot 47 + 2^-47 is a
    # float (2^-47 is one ulp of 47); ex_bf ends with the block [14, 15]
    tent, blocks = build_example("ex_tent").density, build_example("ex_bf").density
    assert tent.support == Window(0.5, 47.0 + 2.0**-47) and tent.support.hi > 47.0
    assert blocks.support == Window(1.0, 15.0)
    for density, below, above in ((tent, -3.0, 60.0), (blocks, -3.0, 40.0)):
        outside, inside = _outside_and_inside(density.support, below, above)
        assert not np.any(density.evalv(outside))
        assert np.all(density.evalv(inside) != 0)


def test_truncated_supports_follow_the_level_caps(monkeypatch):
    monkeypatch.setattr(constructions, "_TENT_CAP", 10)
    monkeypatch.setattr(constructions, "_BF_MAX_LEVEL", 3)
    tent, blocks = build_example("ex_tent").density, build_example("ex_bf").density
    assert tent.support == Window(0.5, 10.0 + 2.0**-10) and blocks.support == Window(1.0, 4.0)
    for density in (tent, blocks):
        outside, inside = _outside_and_inside(density.support, -3.0, 20.0)
        assert not np.any(density.evalv(outside)) and np.all(density.evalv(inside) != 0)


def test_sinc_series_measure_variation():
    mu = build_example("ex_sinc_series", truncation=20)
    got = variation_on(mu, Window(-1.5, 1.5))
    assert got == pytest.approx(6.5 - 2.0 ** -19, abs=1e-9)


def test_j0_radial_local_mass():
    mu = build_example("j0_radial")
    # near the origin the density is 2*pi*J0(2*pi*|x|); tiny hats see 2*pi
    got = complex(convolve(mu, tf_hat(0.0, 0.01, 1.0), 0.0)).real
    assert got == pytest.approx(2.0 * np.pi * 0.01, rel=1e-3)


def test_block_validation_passes_for_shrinking_pairs():
    report = validate_block_sum(ex_a_block_input(6000))
    assert report.overall
    assert report.h_support and report.h_bounded and report.h_vague_null and report.h_udiscrete
    assert report.min_shift_gap == pytest.approx(1.0)
    assert report.worst_pairing <= 1e-3


def test_block_validation_single_part():
    inp = BlockSumInput((BlockPart(PurePoint(FiniteAtoms([(0.0, 1.0)])), 1.0),), Window(-0.5, 0.5))
    rep = validate_block_sum(inp)
    assert rep.h_support and rep.h_udiscrete
    assert rep.worst_pairing == pytest.approx(1.0)
    assert not rep.h_vague_null


# a density piece that adds nothing to a pairing
_NEGLIGIBLE = AbsCont(IndicatorDensity(0.9, 1.0, 1e-300))


def _one_part_pairing(measure, probe):
    inp = BlockSumInput((BlockPart(measure, 0.0),), Window(0.0, 1.0))
    return validate_block_sum(inp, [probe]).worst_pairing


def test_block_pairing_integrates_the_conjugate_probe():
    # g(0.2) = 1 and g(0.3) = i: the pairing is 1 * 1 + i * conj(i) = 2,
    # with or without a density piece in the part
    samples = np.zeros(11, dtype=np.complex128)
    samples[2], samples[3] = 1.0, 1.0j
    g = testfunctions.TestFunction.from_samples(0.0, 0.1, samples)
    atoms = PurePoint(FiniteAtoms([(0.2, 1.0), (0.3, 1.0j)]))
    for part in (atoms, Sum((atoms, _NEGLIGIBLE))):
        assert _one_part_pairing(part, g) == pytest.approx(2.0, abs=1e-12)


def test_block_pairing_reaches_past_the_window():
    # an atom at 1.2 is off the window [0, 1] but inside the probe's support
    atom = PurePoint(FiniteAtoms([(1.2, 1.0)]))
    for part in (atom, Sum((atom, _NEGLIGIBLE))):
        assert _one_part_pairing(part, tf_hat(1.0, 0.5)) == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize(
    "inp, n_exprs", [(ex_b_block_input(6), 13), (nu_block_input(8), 0)], ids=["mixed", "pure_point"]
)
def test_block_validation_resolves_each_part_once(monkeypatch, inp, n_exprs):
    # one resolve_window per part expression, in part order, and none when
    # every part is atom columns only
    calls = []
    resolve = measures.resolve_window

    def counted(mu, w):
        calls.append(id(mu))
        return resolve(mu, w)

    def forbidden(*args, **kwargs):
        raise AssertionError("block validation called a whole-measure convolution")

    for module in (measures, constructions):
        monkeypatch.setattr(module, "resolve_window", counted)
        for name in ("convolve", "convolve_grid"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    validate_block_sum(inp)
    exprs = [id(e) for e in inp.exprs if e is not None]
    assert len(exprs) == n_exprs
    assert calls == exprs


def _recipe_parts_by_loop(recipe, n_max):
    """The recipe's parts built one FiniteAtoms per part, by the loop the
    atom columns replaced."""
    if recipe == "ex_a":
        return [
            BlockPart(PurePoint(FiniteAtoms(atoms)), float(s * n), f"{'+' if s > 0 else '-'}{n}")
            for n in range(1, n_max + 1)
            for s, atoms in ((1, [(0.0, -1.0), (1.0 / n, 1.0)]), (-1, [(-1.0 / n, 1.0), (0.0, -1.0)]))
        ]
    if recipe == "ex_nu":
        return [
            BlockPart(PurePoint(FiniteAtoms([(k / n, 1.0 / n) for k in range(n)])), float(n), f"n={n}")
            for n in range(1, n_max + 1)
        ]
    parts = [BlockPart(AbsCont(IndicatorDensity(-1.0, 1.0)), 0.0, "middle")]
    for n in range(1, n_max + 1):
        comb = FiniteAtoms([(k / n, 1.0 / n) for k in range(1, n + 1)])
        comb_neg = FiniteAtoms([(-k / n, 1.0 / n) for k in range(n, 0, -1)])
        parts.append(BlockPart(Sum((AbsCont(IndicatorDensity(0.0, 1.0)), Scale(-1.0, PurePoint(comb)))), float(n), f"+{n}"))
        parts.append(BlockPart(Sum((AbsCont(IndicatorDensity(-1.0, 0.0)), Scale(-1.0, PurePoint(comb_neg)))), float(-n), f"-{n}"))
    return parts


@pytest.mark.parametrize("recipe, build", [("ex_a", ex_a_block_input), ("ex_nu", nu_block_input), ("ex_b", ex_b_block_input)])
def test_recipe_columns_match_the_per_part_atoms(recipe, build):
    for n_max in (1, 2, 37):
        inp = build(n_max)
        want = _recipe_parts_by_loop(recipe, n_max)
        resolved = [measures.resolve_window(p.measure, Window(-2.0, 2.0)) for p in want]
        for got, arrays in ((inp.positions, [r.positions for r in resolved]), (inp.weights, [r.weights for r in resolved])):
            want_col = np.concatenate(arrays)
            assert got.dtype == want_col.dtype and got.tobytes() == want_col.tobytes()
        assert inp.counts.tolist() == [r.positions.size for r in resolved]
        assert inp.shifts.tolist() == [p.shift for p in want]
        assert inp.labels.tolist() == [p.label for p in want]
        assert inp.window == (Window(0.0, 1.0) if recipe == "ex_nu" else Window(-1.0, 1.0))
        # what is not an atom list stays expression: ex_b's indicator densities
        for expr, r in zip(inp.exprs, resolved):
            if expr is None:
                assert not r.pieces
            else:
                (piece,) = measures.resolve_window(expr, Window(-2.0, 2.0)).pieces
                assert [(p.support, p.scale) for p in r.pieces] == [(piece.support, piece.scale)]


def test_offset_pair_input_is_built_and_validated_as_columns(monkeypatch):
    # no FiniteAtoms per part is built, and no part is resolved as a tree
    built, resolved = [], []
    init = FiniteAtoms.__init__
    resolve = measures.resolve_window

    def counted_init(self, atoms):
        built.append(len(atoms))
        init(self, atoms)

    def counted_resolve(mu, w):
        resolved.append(mu)
        return resolve(mu, w)

    monkeypatch.setattr(FiniteAtoms, "__init__", counted_init)
    inp = ex_a_block_input(8000)
    assert built == [] and inp.counts.size == 16000 and inp.positions.size == 32000
    for module in (measures, constructions):
        monkeypatch.setattr(module, "resolve_window", counted_resolve)
    assert validate_block_sum(inp).overall
    assert built == [] and resolved == []


_COLUMNS = dict(positions=[0.0, 0.5, 0.25], weights=[1.0, -1.0, 2.0j], counts=[2, 1], shifts=[0.0, 2.0])


@pytest.mark.parametrize(
    "bad",
    [
        {"positions": [0.0, np.nan, 0.25]},
        {"positions": [0.0, np.inf, 0.25]},
        {"positions": [0.0, 0.5j, 0.25]},
        {"positions": [0.0, "a", 0.25]},
        {"positions": [[0.0, 0.5, 0.25]]},
        {"weights": [1.0, np.inf, 2.0j]},
        {"weights": [1.0, complex(0.0, np.nan), 2.0j]},
        {"weights": [1.0, -1.0]},
        {"counts": [2, 2]},
        {"counts": [3, 0, 0]},
        {"counts": [4, -1]},
        {"counts": [1.5, 1.5]},
        {"shifts": [0.0, np.nan]},
        {"shifts": [0.0, -np.inf]},
        {"shifts": [0.0, 1.0j]},
        {"shifts": [], "counts": []},
        {"pairing_tol": -1.0},
        {"pairing_tol": np.nan},
    ],
)
def test_block_columns_reject_malformed_input(bad):
    with pytest.raises(InvalidArgument):
        BlockSumInput.from_columns(Window(0.0, 1.0), **{**_COLUMNS, **bad})


@pytest.mark.parametrize("w", [Window(-3.2, 4.7), Window(0.0, 0.0), Window(2.5, 9.0), Window(-9.0, -2.5)])
def test_comb_enumerations_count_their_candidates_before_allocating(monkeypatch, w):
    # each comb counts, in closed form, the candidates its arrays hold: a
    # limit of that count enumerates, one less refuses before any array
    # (a Riemann comb block n: the closed-form range of k, widened by one)
    lo, hi = math.floor(w.lo), math.floor(w.hi)
    riemann = sum(
        len(range(max(0, math.ceil((w.lo - n) * n) - 1), min(n - 1, math.floor((w.hi - n) * n) + 1) + 1))
        for n in range(max(1, lo - 1), hi + 2)
    )
    combs = [
        (constructions.OffsetPairComb(), 2 * len(range(lo - 2, math.ceil(w.hi) + 3))),
        (constructions.RiemannComb(), riemann),
        (measures.LatticeComb(0.3, 0.05), len([n for n in range(-100, 100) if w.lo <= 0.05 + 0.3 * n <= w.hi])),
    ]
    fulls = [comb.enumerate_window(w) for comb, _ in combs]
    for (comb, count), full in zip(combs, fulls):
        assert full[0].size <= count
        monkeypatch.setattr(measures, "_MAX_ATOMS", count)
        for got, want in zip(comb.enumerate_window(w), full):
            assert got.tobytes() == want.tobytes()
        monkeypatch.setattr(measures, "_MAX_ATOMS", count - 1)
        with pytest.raises(InvalidArgument, match="atoms"):
            comb.enumerate_window(w)


def test_block_columns_view_as_parts():
    inp = BlockSumInput.from_columns(Window(0.0, 1.0), **_COLUMNS, labels=["a", "b"], exprs=[None, _NEGLIGIBLE])
    first, second = inp.parts
    assert (first.shift, first.label, second.shift, second.label) == (0.0, "a", 2.0, "b")
    assert atoms_in(first.measure, Window(-1.0, 1.0)) == [(0.0, 1.0 + 0.0j), (0.5, -1.0 + 0.0j)]
    assert isinstance(second.measure, Sum) and second.measure.children[1] is _NEGLIGIBLE
    assert atoms_in(second.measure, Window(-1.0, 1.0)) == [(0.25, 2.0j)]
    assert inp.parts is inp.parts  # built once


@pytest.mark.parametrize("build", [ex_a_block_input, nu_block_input, ex_b_block_input])
def test_recipe_size_is_checked_before_any_column_exists(build, monkeypatch):
    # n = 10**8 would mean 4e8 to 1e16 atoms; the count is checked first
    def forbidden(*args, **kwargs):
        raise AssertionError("the recipe allocated before checking its size")

    monkeypatch.setattr(constructions.np, "arange", forbidden)
    with pytest.raises(InvalidArgument, match="atoms"):
        build(10**8)
    with pytest.raises(InvalidArgument):
        build(0)


def test_block_validation_calls_the_cell_kernel_once_per_probe(monkeypatch):
    # the cells of all 13 density pieces meet each probe in one kernel call
    calls = []
    kernel = measures._cell_pairs

    def counted(*args):
        calls.append(args[1])  # the probe
        return kernel(*args)

    for module in (measures, constructions):
        monkeypatch.setattr(module, "_cell_pairs", counted)
    inp = ex_b_block_input(6)
    probes = constructions.default_probes(inp.window)
    validate_block_sum(inp, probes)
    assert len(calls) == len(probes) == 15
    assert len(set(map(id, calls))) == 15  # one call per probe


@pytest.mark.parametrize("inp", [ex_b_block_input(6), nu_block_input(40)], ids=["mixed", "pure_point"])
def test_block_validation_evaluates_each_probe_once(monkeypatch, inp):
    # one evaluation of each probe over the atoms of every part at once
    calls = []
    values = testfunctions.TestFunction.values

    def counted(self, xs):
        calls.append(self)
        return values(self, xs)

    probes = constructions.default_probes(inp.window)
    monkeypatch.setattr(testfunctions.TestFunction, "values", counted)
    validate_block_sum(inp, probes)
    assert len(calls) == len(probes)


def _validate_by_part(inp, probes):
    """The per-part block validation that the flat pass replaced: each part
    resolved on its own, each density piece scattered once per probe."""
    k = inp.window
    pad = 10.0 * max(1.0, k.width)
    span = Window(min(k.lo - pad, *(g.lo for g in probes)), max(k.hi + pad, *(g.hi for g in probes)))
    resolved = [measures.resolve_window(p.measure, span) for p in inp.parts]
    n = len(resolved)
    counts = np.array([rw.positions.size for rw in resolved])
    part = np.repeat(np.arange(n), counts)
    pos = np.concatenate([rw.positions for rw in resolved])
    wts = np.concatenate([rw.weights for rw in resolved])
    inside = (pos >= k.lo) & (pos <= k.hi)
    offends = np.zeros(n, dtype=bool)
    offends[part[~inside]] = True
    reflected = [testfunctions.tf_reflect_conj(g) for g in probes]
    segment_sums = constructions._segment_sums
    pairs = np.array([segment_sums(g.values(-pos) * wts, counts) for g in reflected])
    variations = np.array([variation_on(p.measure, k) for p in inp.parts])  # atoms and pieces
    origin = np.zeros(1)
    for i, rw in enumerate(resolved):
        for piece in rw.pieces:
            sup = piece.support
            offends[i] |= sup is None or sup.lo < k.lo - 1e-12 or sup.hi > k.hi + 1e-12
            cells = _affine_cells(piece, span if sup is None else span.intersect(sup))
            for j, g in enumerate(reflected):
                if cells is None:
                    measures._smooth_into_grid(piece, g, origin, pairs[j, i : i + 1], 1e-8)
                else:
                    measures._scatter_cells(cells, g, origin, pairs[j, i : i + 1])
    return offends, variations, np.max(np.abs(pairs), axis=0), pos[inside], wts[inside], part[inside]


def _oracle_parts():
    """Parts that mix every shape the flat pass lays out."""
    ex_tent = build_example("ex_tent")
    return [
        # reflected, scaled and translated atoms, complex weights
        Translate(0.25, ReflectConj(Scale(0.5 - 2.0j, PurePoint(FiniteAtoms([(0.1, 1.0), (0.3, 2.0 - 1.0j), (0.45, 1.0j)]))))),
        # several atom leaves: coincident atoms add, and 0.5 cancels to nothing
        Sum((
            PurePoint(FiniteAtoms([(0.0, 1.0), (0.5, 1.0)])),
            PurePoint(FiniteAtoms([(0.25, 3.0j), (0.5, -1.0)])),
            Scale(2.0, PurePoint(FiniteAtoms([(0.0, 0.5)]))),
        )),
        PurePoint(FiniteAtoms([])),  # empty
        PurePoint(FiniteAtoms([(1e6, 1.0)])),  # nothing inside the span
        # a leaf and its reflection: out of order within the part
        Sum((PurePoint(FiniteAtoms([(0.1, 1.0), (0.2, 1.0j)])), ReflectConj(PurePoint(FiniteAtoms([(0.1, 2.0), (0.3, -1.0)]))))),
        # tents shifted so a steep narrow one (level 20) sits on the origin
        Translate(-20.0, ex_tent),
        Sum((Translate(-12.0, ex_tent), PurePoint(FiniteAtoms([(0.0, -1.0)])))),
        # a smooth piece, bounded, beside a complex triangle and an atom
        Sum((
            AbsCont(FunctionDensity(lambda x: np.exp(-x * x) * (1.0 + 0.5j), Window(-0.5, 0.7), "gauss")),
            Scale(1.0j, AbsCont(TriangleDensity(0.2, 0.5, 1.0 - 1.0j))),
            PurePoint(FiniteAtoms([(0.2, 1.0 + 1.0j)])),
        )),
        AbsCont(FunctionDensity(np.cos, None, "cos")),  # smooth, unbounded
        ReflectConj(Sum((AbsCont(IndicatorDensity(0.0, 0.6, 2.0j)), PurePoint(FiniteAtoms([(0.2, 1.0), (0.4, 1.0j)]))))),
        Translate(-100.0, build_example("ex_a")),
        Scale(0.5, Translate(7.5, build_example("ex_b"))),
        Translate(3.0, Sum((build_example("ex_nu"), Scale(-1.0, build_example("ex_nu"))))),  # cancels
    ]


@pytest.mark.parametrize("probes", ["default", "complex"])
def test_flat_block_validation_against_the_per_part_loop(probes):
    parts = tuple(BlockPart(mu, float(3 * i)) for i, mu in enumerate(_oracle_parts()))
    inp = BlockSumInput(parts, Window(-1.0, 1.0))
    if probes == "default":
        probes = constructions.default_probes(inp.window)
    else:
        probes = [tf_hat(0.1, 0.3, 1.0 - 0.5j, step=0.003), tf_hat(-0.4, 0.125, 2.0j), tf_hat(0.0, 2.0, 1.0)]
    offends, variations, trace, want_pos, want_wts, want_part = _validate_by_part(inp, probes)
    # the parts' FiniteAtoms leaves are columns: 5 parts have atoms there and
    # 11 keep an expression; parts 2 (empty) and 3 (off the span) are columns
    # only.  The same parts all kept as expressions give the same report.
    assert np.count_nonzero(inp.counts) == 5
    assert [i for i, e in enumerate(inp.exprs) if e is None] == [2, 3]
    n = len(parts)
    exprs = BlockSumInput.from_columns(inp.window, [], [], [0] * n, inp.shifts, exprs=[p.measure for p in parts])
    half = n // 2
    for layout in (inp, exprs):
        report, pos, wts, part = constructions._validate(layout, probes)
        for got, want in ((pos, want_pos), (wts, want_wts), (part, want_part)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert report.h_support == (not offends.any())
        assert report.support_offender == (None if report.h_support else int(np.argmax(offends)))
        assert report.sup_variation == pytest.approx(float(np.max(variations)), rel=1e-12)
        assert np.all(np.abs(np.array(report.pairing_trace) - trace) <= 1e-12 * trace)
        assert report.worst_pairing == float(np.max(report.pairing_trace[n - n // 4 :]))
        assert report.h_bounded == (float(np.max(variations[half:])) <= 1.05 * float(np.max(variations[:half])) + 1e-9)
        assert report.min_shift_gap == 3.0 and report.h_udiscrete
    # the pure-point parts 0 to 4 generate one atom list, the same bytes
    # from both layouts
    point = BlockSumInput(parts[:5], inp.window)
    point_exprs = BlockSumInput.from_columns(inp.window, [], [], [0] * 5, point.shifts, exprs=[p.measure for p in parts[:5]])
    gen = [generate_block_sum(layout, probes, override=True).measure.source for layout in (point_exprs, point)]
    for g, r in ((gen[1].positions, gen[0].positions), (gen[1].weights, gen[0].weights)):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
    # all 13 generate one measure: the same atoms on a window that sees every
    # part and the infinite sources, added in another order where three or
    # more coincide, and the same convolution
    gen = [generate_block_sum(layout, probes, override=True).measure for layout in (exprs, inp)]
    got, want = (measures.resolve_window(mu, Window(-60.0, 60.0)) for mu in gen)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-15
    for x in (-7.3, 0.0, 3.1, 33.0):
        assert convolve(gen[1], HAT, x) == pytest.approx(convolve(gen[0], HAT, x), rel=1e-12, abs=1e-12)
    # the mix reaches every path: empty parts, steep cells, smooth pieces
    assert np.count_nonzero(trace == 0.0) == 3 and np.all(trace[[5, 6, 7, 8]] > 0.0)
    tent = TransformedDensity(build_example("ex_tent").density, 1, -20.0, 0, 1.0)
    cells = _affine_cells(tent, Window(-0.01, 0.01))
    assert all(np.all(measures._steep_cells(cells, testfunctions.tf_reflect_conj(g))) for g in probes)


def _count_affine_cells(monkeypatch) -> list:
    calls = []
    cells = measures._affine_cells

    def counted(piece, clip):
        calls.append(piece)
        return cells(piece, clip)

    monkeypatch.setattr(measures, "_affine_cells", counted)
    return calls


def test_block_validation_builds_cells_once_per_density_piece(monkeypatch):
    # the cells built for every probe's pairing also give the variation, and
    # parts that repeat one density and transform share its cells
    calls = _count_affine_cells(monkeypatch)
    inp = ex_b_block_input(6)
    validate_block_sum(inp)
    assert len(inp.parts) == 13  # one density piece per part
    assert len(calls) == 3  # [-1, 1], [0, 1] and [-1, 0]


def test_shared_cells_give_the_report_of_cells_built_per_piece(monkeypatch):
    # ex_b's 401 pieces repeat 3 densities; copies of those densities, one
    # per part, are not shared and build their cells 401 times
    shared = ex_b_block_input(200)
    copies = BlockSumInput.from_columns(
        shared.window, shared.positions, shared.weights, shared.counts, shared.shifts, shared.labels,
        [AbsCont(IndicatorDensity(e.density.support.lo, e.density.support.hi, e.density.value)) for e in shared.exprs],
    )
    calls = _count_affine_cells(monkeypatch)
    report = validate_block_sum(shared)
    assert len(calls) == 3
    assert repr(validate_block_sum(copies)) == repr(report)
    assert len(calls) == 3 + 401


_ATOM_OFF = PurePoint(FiniteAtoms([(0.5, 1.0), (1.5, 1.0)]))
_PIECE_OFF = AbsCont(IndicatorDensity(-1.0, 0.5))


@pytest.mark.parametrize(
    "bad, later",
    [
        (_ATOM_OFF, _PIECE_OFF),
        (AbsCont(IndicatorDensity(0.5, 1.2)), _PIECE_OFF),
        (AbsCont(ConstantDensity(1.0)), _PIECE_OFF),
        (AbsCont(IndicatorDensity(0.5, 1.2)), _ATOM_OFF),
        (Sum((_ATOM_OFF, AbsCont(IndicatorDensity(0.0, 1.0)))), _PIECE_OFF),
    ],
    ids=["atom", "density", "unbounded_density", "piece_then_atom", "atom_then_piece"],
)
def test_block_validation_names_the_first_part_off_the_window(bad, later):
    parts = (
        BlockPart(PurePoint(FiniteAtoms([(0.5, 1.0)])), 0.0),
        BlockPart(bad, 2.0),
        BlockPart(later, 4.0),
    )
    report = validate_block_sum(BlockSumInput(parts, Window(0.0, 1.0)))
    assert not report.h_support and report.support_offender == 1


def test_block_validation_riemann_comb_fails_only_vague_null():
    report = validate_block_sum(nu_block_input(60))
    assert report.h_support and report.h_bounded and report.h_udiscrete
    assert not report.h_vague_null
    assert not report.overall
    with pytest.raises(HypothesesNotSatisfied) as exc:
        generate_block_sum(nu_block_input(60))
    assert exc.value.report.h_vague_null is False


def test_block_validation_fixed_part_fails_vague_null():
    # identical unit atoms never go to zero vaguely: pairing locks at g(0) = 1
    parts = tuple(
        BlockPart(PurePoint(FiniteAtoms([(0.0, 1.0)])), float(n))
        for n in range(1, 41)
    )
    inp = BlockSumInput(parts=parts, window=Window(-0.5, 0.5))
    report = validate_block_sum(inp)
    assert not report.h_vague_null
    assert report.worst_pairing == pytest.approx(1.0)
    assert report.h_support and report.h_bounded and report.h_udiscrete


def test_block_generation_matches_direct_builder():
    # small truncation fails the vague-null rate, so bypass validation here;
    # the full validate-then-generate path runs in the acceptance suite
    gen = generate_block_sum(ex_a_block_input(200), override=True)
    builder = build_example("ex_a")
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = float(rng.uniform(-150.0, 140.0))
        w = Window(a, a + float(rng.uniform(0.5, 10.0)))
        assert atoms_in(gen.measure, w) == atoms_in(builder, w)
    assert gen.covered.covers(Window(-150.0, 150.0))


def test_block_generation_override_for_riemann_comb():
    gen = generate_block_sum(nu_block_input(30), override=True)
    builder = build_example("ex_nu")
    for w in (Window(0.0, 5.0), Window(7.3, 12.9), Window(25.0, 29.0)):
        assert atoms_in(gen.measure, w) == atoms_in(builder, w)


def test_block_generation_keeps_only_the_atoms_inside_the_window():
    # part 0's atom at 1.5 lies off the window [0, 1]: validation names it,
    # and the generated sum leaves it out
    parts = (
        BlockPart(_ATOM_OFF, 0.0),
        BlockPart(PurePoint(FiniteAtoms([(0.5, 1.0)])), 10.0),
    )
    gen = generate_block_sum(BlockSumInput(parts, Window(0.0, 1.0)), override=True)
    assert gen.report.support_offender == 0
    assert atoms_in(gen.measure, Window(-100.0, 100.0)) == [(0.5, 1.0 + 0.0j), (10.5, 1.0 + 0.0j)]


def test_block_generation_mixed_parts_match_builder():
    gen = generate_block_sum(ex_b_block_input(12), override=True)
    builder = build_example("ex_b")
    f = tf_hat(0.0, 0.4, 1.0)
    for x in (-9.3, -4.0, 0.0, 2.2, 7.7, 9.9):
        assert convolve(gen.measure, f, x) == pytest.approx(
            convolve(builder, f, x), abs=1e-9
        )


def test_block_validation_passes_for_thinning_riemann_blocks():
    report = validate_block_sum(ex_b_block_input(800))
    assert report.overall


def test_generated_measure_decays():
    gen = generate_block_sum(ex_a_block_input(6000))
    prof = decay_profile(gen.measure, HAT, [500.0, 1000.0, 2000.0], epsilon=0.05, annulus_step=0.5)
    assert prof.verdict == VANISHING
    assert prof.sups[-1] <= 4.0 / 2000.0 + 1e-12
