"""Decay profiles, coefficient verdicts, cross-checks, and interval means."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vanishkit import analysis, measures, testfunctions
from vanishkit.analysis import (
    NOT_VANISHING,
    VANISHING,
    coefficients_vanishing,
    decay_profile,
    discrete_support_crosscheck,
    mean_abs,
    min_gap,
    vanishing_verdict,
)
from vanishkit.constructions import build_example
from vanishkit.errors import InvalidArgument
from vanishkit.measures import (
    AbsCont,
    FiniteAtoms,
    IndicatorDensity,
    LatticeComb,
    PurePoint,
    Scale,
    Sum,
    TriangleDensity,
    convolve_grid,
    variation_on,
)
from vanishkit.testfunctions import Window, tf_convolve, tf_hat, tf_reflect_conj


HAT = tf_hat(0.0, 0.25, 1.0)


def _harmonic(n):
    return (1.0 / (1.0 + np.abs(n))).astype(np.complex128)


def test_decay_profile_offset_pairs():
    mu = build_example("ex_a")
    prof = decay_profile(mu, HAT, [10.0, 100.0], epsilon=0.05, annulus_step=0.002)
    assert prof.sups[0] == pytest.approx(0.4, abs=1e-9)
    assert prof.sups[1] == pytest.approx(0.04, abs=1e-9)
    assert prof.verdict == VANISHING
    assert prof.k_eps_estimate == 100.0


def test_decay_profile_finite_measure_vanishes():
    mu = PurePoint(FiniteAtoms([(0.0, 1.0), (2.0, -3.0)]))
    prof = decay_profile(mu, HAT, [4.0, 8.0], epsilon=0.05, annulus_step=0.01)
    assert prof.sups == (0.0, 0.0)
    assert prof.verdict == VANISHING
    assert prof.k_eps_estimate == 4.0


def test_decay_profile_comb_plateau():
    comb = PurePoint(LatticeComb(1.0, 0.0, None))
    prof = decay_profile(comb, HAT, [8.0, 16.0], epsilon=0.05, annulus_step=0.01)
    assert prof.sups[0] == pytest.approx(1.0, abs=1e-9)
    assert prof.verdict == NOT_VANISHING
    assert prof.k_eps_estimate is None


def test_lip_margin_covers_points_between_queries():
    # The mass bound behind lip_margin is queried at points one apart; the
    # windows [x - 0.25, x + 0.25] around integers miss every atom of a
    # half-integer comb.  The true margin is 0.5 * 0.3 * Lip(f) 4 * mass 1.
    comb = PurePoint(LatticeComb(1.0, 0.5))
    prof = decay_profile(comb, HAT, [1.0, 2.0], epsilon=0.05, annulus_step=0.3)
    assert prof.lip_margin >= 0.6
    # off-center f: the slope of mu*f at x depends on |mu|(x - supp f)
    atom = PurePoint(FiniteAtoms([(-3.0, 1.0)]))
    prof = decay_profile(atom, tf_hat(5.0, 0.25, 1.0), [1.0, 2.0], epsilon=0.05, annulus_step=0.3)
    assert prof.lip_margin >= 0.6


def test_lip_margin_bounds_the_gap_past_each_annulus_s_last_point():
    # Grid points 1, 1.3, 1.6, 1.9 all miss the atom at 2.15, but
    # |mu*f|(2.15) = 1 lies in [1, 2.19): the gap from 1.9 to the outer
    # radius takes a full step, 0.3 * Lip(f) 4 * mass 1.
    atom = PurePoint(FiniteAtoms([(2.15, 1.0)]))
    prof = decay_profile(atom, HAT, [1.0, 2.19], epsilon=0.05, annulus_step=0.3)
    assert prof.sups[0] == 0.0
    assert prof.lip_margin == pytest.approx(1.2)
    assert abs(convolve_grid(atom, HAT, np.array([2.15]))[0]) <= prof.sups[0] + prof.lip_margin


@pytest.mark.parametrize(
    "radii, epsilon",
    [
        ([float("nan"), 10.0], 0.05),
        ([5.0, float("inf")], 0.05),
        ([5.0, 10.0], float("inf")),
        ([5.0, 10.0], float("nan")),
    ],
)
def test_decay_profile_rejects_non_finite_inputs(radii, epsilon):
    with pytest.raises(InvalidArgument):
        decay_profile(PurePoint(LatticeComb(1.0)), HAT, radii, epsilon=epsilon)


def test_coefficients_rejects_non_finite_epsilon():
    with pytest.raises(InvalidArgument):
        coefficients_vanishing(LatticeComb(1.0), float("inf"))


def test_decay_profile_scans_negative_axis():
    # all the action sits on the negative half line
    mu = PurePoint(FiniteAtoms([(-12.0, 5.0)]))
    prof = decay_profile(mu, HAT, [10.0, 20.0], epsilon=0.05, annulus_step=0.01)
    assert prof.sups[0] == pytest.approx(5.0, abs=1e-9)


def test_riemann_comb_plateau_not_vanishing():
    mu = build_example("ex_nu")
    f = tf_hat(0.5, 0.5, 1.0)
    prof = decay_profile(mu, f, [50.0, 100.0], epsilon=0.1, annulus_step=0.01)
    assert prof.verdict == NOT_VANISHING
    assert prof.sups[-1] == pytest.approx(0.5, abs=1e-3)


def test_coefficients_harmonic_comb():
    cv = coefficients_vanishing(LatticeComb(1.0, 0.0, _harmonic), 0.05, r_max=200.0)
    assert cv.verdict == VANISHING
    assert cv.radius == pytest.approx(19.0)
    assert cv.scanned == 401


def test_coefficients_unit_comb():
    cv = coefficients_vanishing(LatticeComb(1.0, 0.0, None), 0.05, r_max=200.0)
    assert cv.verdict == NOT_VANISHING
    assert cv.radius == pytest.approx(200.0)


def test_coefficients_finite_list_all_small():
    cv = coefficients_vanishing(FiniteAtoms([(0.0, 1.0), (3.0, 0.2)]), 0.3, r_max=100.0)
    # the large weight sits at the origin, radius 0; nothing violates farther out
    assert cv.verdict == VANISHING
    assert cv.radius == 0.0


def test_coefficients_riemann_comb_radius():
    mu = build_example("ex_nu")
    cv = coefficients_vanishing(mu.source, 0.01, r_max=1000.0)
    assert cv.verdict == VANISHING
    # last atom of the n = 100 block is the outermost weight >= 0.01
    assert cv.radius == pytest.approx(100.99, abs=1e-9)


def test_min_gap_riemann_comb():
    mu = build_example("ex_nu")
    assert min_gap(mu.source, Window(0.0, 101.0)) == pytest.approx(0.01, abs=1e-12)


def test_min_gap_few_atoms_infinite():
    assert min_gap(FiniteAtoms([(0.0, 1.0)]), Window(-1.0, 1.0)) == np.inf


def test_crosscheck_agreement_both_ways():
    f = tf_hat(0.0, 0.2, 1.0, step=0.002)
    rep_v = discrete_support_crosscheck(
        LatticeComb(1.0, 0.0, _harmonic), f, epsilon=0.05, r_max=120.0,
        gap_floor=0.5, annulus_step=0.01,
    )
    assert rep_v.applicable and rep_v.agree
    assert rep_v.coefficient_verdict == VANISHING and rep_v.decay_verdict == VANISHING
    rep_n = discrete_support_crosscheck(
        LatticeComb(1.0, 0.0, None), f, epsilon=0.05, r_max=120.0,
        gap_floor=0.5, annulus_step=0.01,
    )
    assert rep_n.applicable and rep_n.agree
    assert rep_n.coefficient_verdict == NOT_VANISHING
    assert rep_n.decay_verdict == NOT_VANISHING


def test_crosscheck_dense_support_not_applicable():
    rep = discrete_support_crosscheck(
        LatticeComb(0.3, 0.0, None), tf_hat(0.0, 0.2, 1.0), epsilon=0.05,
        r_max=60.0, gap_floor=0.5, annulus_step=0.01,
    )
    assert not rep.applicable
    assert rep.coefficient_verdict is None


def test_mean_abs_unit_comb_exact():
    comb = PurePoint(LatticeComb(1.0, 0.0, None))
    trace = mean_abs(comb, HAT, [10, 50])
    # |comb * hat| integrates to the hat mass once per unit cell
    for _, avg in trace.entries:
        assert avg == pytest.approx(0.25, abs=1e-12)


def test_mean_abs_rejects_horizon_beyond_index_range():
    with pytest.raises(InvalidArgument):
        mean_abs(PurePoint(LatticeComb(1.0)), HAT, [10, 10**30])


def test_mean_abs_offset_pairs_shrinks():
    mu = build_example("ex_a")
    tracemalloc.start()
    try:
        trace = mean_abs(mu, HAT, [100, 1000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2,048,001 grid points at the hat's step, scanned in blocks of 65,536:
    # one block's convolution and prefix sums set the peak (52 MB when the
    # whole grid was held at once)
    assert peak <= 8_000_000
    m100 = trace.entries[0][1]
    m1000 = trace.entries[1][1]
    assert m100 == pytest.approx(0.0709, abs=2e-3)
    assert m1000 < m100
    assert m1000 <= 0.05


def test_vanishing_verdict_finite_vs_comb():
    fin = PurePoint(FiniteAtoms([(0.0, 2.0)]))
    rep = vanishing_verdict(fin, epsilon=0.05, r_max=64.0)
    assert rep.verdict == VANISHING
    comb = PurePoint(LatticeComb(1.0, 0.0, None))
    rep2 = vanishing_verdict(comb, epsilon=0.05, r_max=64.0)
    assert rep2.verdict == NOT_VANISHING
    assert rep2.worst_sup >= 0.05


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(0.1, 5.0))
def test_decay_sups_scale_equivariant(scale):
    mu = build_example("ex_a")
    base = decay_profile(mu, HAT, [10.0], epsilon=0.05, annulus_step=0.02)
    scaled = decay_profile(Scale(scale, mu), HAT, [10.0], epsilon=0.05, annulus_step=0.02)
    assert scaled.sups[0] == pytest.approx(scale * base.sups[0], rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(r_extra=st.floats(1.0, 4.0))
def test_coefficient_radius_stable_under_longer_scan(r_extra):
    src = LatticeComb(1.0, 0.0, _harmonic)
    small = coefficients_vanishing(src, 0.05, r_max=100.0)
    large = coefficients_vanishing(src, 0.05, r_max=100.0 * r_extra)
    assert small.verdict == large.verdict == VANISHING
    assert small.radius == large.radius


def test_decay_profile_memory_stays_flat_with_the_horizon():
    mu = build_example("ex_a")
    tracemalloc.start()
    try:
        profile = decay_profile(mu, tf_hat(0.0, 0.125), [125, 250, 500, 1000], 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2 x 2,048,000 points in the outer annulus at step 2**-11, scanned in
    # blocks of 65,536 (83 MB when each annulus was held at once)
    assert peak <= 16_000_000
    assert profile.verdict == VANISHING


# Block-scan consistency: a scan in blocks equals one convolve_grid call over
# the whole grid, exactly where that value is a sum of atom pairs.

MU_ATOMS = [
    build_example("ex_a"),
    PurePoint(FiniteAtoms([(-2.93, 1.0 - 0.5j), (-1.1, 0.75), (0.4, -2.0j), (1.6, 0.3), (2.95, -1.0)])),
]
F_COARSE = tf_hat(0.1, 0.25, 1.0, step=0.05)


def _mean_one_shot(mu, f, ns):
    """mean_abs over one grid: the prefix sums of the whole interval at once."""
    big, h = ns[-1], f.step
    vals = np.abs(convolve_grid(mu, f, -big + h * np.arange(int(round(2 * big / h)) + 1)))
    cum = np.concatenate(([0.0], np.cumsum((vals[:-1] + vals[1:]) * 0.5 * h)))
    return [(n, float((cum[round((big + n) / h)] - cum[round((big - n) / h)]) / (2.0 * n))) for n in ns]


def _sups_one_shot(mu, f, bounds, step):
    """Annulus sups over one grid per annulus and sign."""
    sups = []
    for lo, hi in bounds:
        xs = lo + step * np.arange(int(np.ceil((hi - lo) / step)))
        xs = xs[xs < hi]
        pos, neg = convolve_grid(mu, f, xs), convolve_grid(mu, f, np.sort(-xs))
        sups.append(max(float(np.max(np.abs(pos))), float(np.max(np.abs(neg)))))
    return sups


# the grid of [-4, 4] at step 0.05 has 161 points and marks at 0, 40, 60,
# 100, 120 and 160: chunks of 20 put four marks on a block edge and leave one
# point past the last block; 23 divides 161; 161 is one block; 7 is many
@pytest.mark.parametrize("chunk", [7, 20, 23, 161, 1 << 16])
@pytest.mark.parametrize("mu", MU_ATOMS)
def test_mean_abs_in_blocks_equals_one_grid(monkeypatch, mu, chunk):
    # on the dense path: corner runs sum in closed form, equal only to rounding
    monkeypatch.setattr(measures, "_SCAN_CHUNK", chunk)
    monkeypatch.setattr(measures._Block, "corners", lambda *args, **kwargs: None)
    ns = [1, 2, 4]
    assert mean_abs(mu, F_COARSE, ns).entries == tuple(_mean_one_shot(mu, F_COARSE, ns))


def _pair_margin(mu, f, bounds, step):
    """0.5 * step * Lip(f) * the largest |mu|([x - f.hi, x' - f.lo]) over the
    neighbours x < x' of the annulus grids, each annulus's last point paired
    with the next point out: the least margin the Lipschitz argument gives."""
    mass = 0.0
    for lo, hi in bounds:
        xs = lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)
        xs = xs[: np.searchsorted(xs, hi, side="left") + 1]
        for x0, x1 in zip(xs[:-1], xs[1:]):
            for w in (Window(x0 - f.hi, x1 - f.lo), Window(-x1 - f.hi, -x0 - f.lo)):
                mass = max(mass, variation_on(mu, w))
    return 0.5 * step * f.lipschitz * mass


@pytest.mark.parametrize("chunk", [40, 41, 1 << 16])
@pytest.mark.parametrize("mu", MU_ATOMS)
def test_decay_profile_in_blocks_equals_one_grid(monkeypatch, mu, chunk):
    # 100 points in each annulus at step 0.01: three blocks on each sign
    monkeypatch.setattr(measures, "_SCAN_CHUNK", chunk)
    profile = decay_profile(mu, F_COARSE, [1.0, 2.0], 0.05, annulus_step=0.01)
    bounds = [(1.0, 2.0), (2.0, 3.0)]
    assert list(profile.sups) == _sups_one_shot(mu, F_COARSE, bounds, 0.01)
    # the margin's windows, cut at block edges, still hold every pair
    assert profile.lip_margin >= _pair_margin(mu, F_COARSE, bounds, 0.01)


def test_annulus_grid_in_blocks_stops_below_its_outer_radius():
    # (0.4 - 0.1) / 0.1 rounds above 3, so a fourth point lands on 0.4, where
    # the atom at 0.3 puts the peak of mu*f; it belongs to the next annulus
    mu = PurePoint(FiniteAtoms([(0.3, 1.0)]))
    profile = decay_profile(mu, F_COARSE, [0.1, 0.4], 0.05, annulus_step=0.1)
    assert list(profile.sups) == _sups_one_shot(mu, F_COARSE, [(0.1, 0.4), (0.4, 0.7)], 0.1)
    assert profile.sups[0] == pytest.approx(0.6)


def test_annulus_grid_reaches_within_a_step_of_its_outer_radius():
    # (hi - lo) / 0.01 rounds to 286 here, yet lo + 0.01 * 286 lies below hi:
    # that point belongs to the annulus, and without it the gap the margin
    # bounds from the last point would be wider than a step
    lo, hi, step = 0.27334664675546183, 3.133346646755462, 0.01
    n = analysis._annulus_count(lo, hi, step)
    assert lo + step * (n - 1) < hi <= lo + step * n


def test_scans_in_blocks_match_one_grid_on_affine_cells(monkeypatch):
    # cells are summed as ramps anchored at each call's first cell, so the
    # values agree to rounding rather than bit for bit
    mu = build_example("ex_bf")
    f = tf_hat(0.0, 0.25, 1.0, step=0.01)
    monkeypatch.setattr(measures, "_SCAN_CHUNK", 64)
    sups = decay_profile(mu, f, [1.0, 3.0], 0.05, annulus_step=0.01).sups
    assert sups == pytest.approx(_sups_one_shot(mu, f, [(1.0, 3.0), (3.0, 5.0)], 0.01), rel=1e-12)
    means = [avg for _, avg in mean_abs(mu, f, [1, 3]).entries]
    assert means == pytest.approx([avg for _, avg in _mean_one_shot(mu, f, [1, 3])], rel=1e-12)


@pytest.mark.parametrize("chunk", [7, 20, 23, 40, 41, 64])
def test_block_edges_cut_hull_cells_and_margin_windows(monkeypatch, chunk):
    # ex_bf's cells are built once on the scan's hull and cut at every block
    # edge; the values agree with one grid to rounding (ramps are anchored
    # at each block's first cell).  The density is +-1 on [1, 15), so the
    # mass bound is the longest margin window: min(chunk, r) steps between
    # its ends, r = 99 points 1 // 0.01 apart, plus the 0.5 reach of f.
    # Each annulus's outer gap, one step from its last point 2.99 or 4.99 to
    # its outer radius, plus the reach, takes a full step: it sets the margin
    # unless half a step of the longest window is more (chunk >= 53).
    mu = build_example("ex_bf")
    f = tf_hat(0.0, 0.25, 1.0, step=0.01)
    monkeypatch.setattr(measures, "_SCAN_CHUNK", chunk)
    bounds = [(1.0, 3.0), (3.0, 5.0)]
    profile = decay_profile(mu, f, [1.0, 3.0], 0.05, annulus_step=0.01)
    assert profile.sups == pytest.approx(_sups_one_shot(mu, f, bounds, 0.01), rel=1e-12)
    pair_mass, gap_mass = min(chunk, 99) * 0.01 + 0.5, 0.01 + 0.5
    assert profile.lip_margin == pytest.approx(0.01 * 4.0 * max(0.5 * pair_mass, gap_mass), rel=1e-12)
    assert profile.lip_margin >= _pair_margin(mu, f, bounds, 0.01)
    means = [avg for _, avg in mean_abs(mu, f, [1, 3, 5]).entries]
    assert means == pytest.approx([avg for _, avg in _mean_one_shot(mu, f, [1, 3, 5])], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.floats(-5.5, 5.5), st.complex_numbers(max_magnitude=3.0)), min_size=1, max_size=6
    ),
    tent=st.booleans(),
    center=st.floats(-5.0, 5.0),
    halfwidth=st.floats(0.05, 2.0),
    height=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0),
    step=st.sampled_from([0.05, 0.13, 0.3, 1.25]),
)
# a complex tent whose cells, cut at block edges, hold the zero of a density
# of phase within 1e-302 of one: its cell mass overflowed a divide
@example(atoms=[(0.0, 0j)], tent=True, center=0.0, halfwidth=1.0, height=1.7361395981947791e-302 + 1j, step=0.05)
def test_lip_margin_bounds_the_sup_between_grid_points(atoms, tent, center, halfwidth, height, step):
    # Between two neighbouring grid points, |mu*f| exceeds the larger of its
    # two grid values by at most lip_margin, and past an annulus's last grid
    # point, up to its outer radius, it exceeds that point's value by at most
    # lip_margin: checked on a grid 64 times finer, in every annulus, the
    # last included.  Atoms and cells have exact masses, so the bound holds
    # up to rounding (1e-12).
    density = TriangleDensity(center, halfwidth, height) if tent else IndicatorDensity(
        center - halfwidth, center + halfwidth, height)
    mu = Sum((PurePoint(FiniteAtoms(atoms)), AbsCont(density)))
    f = tf_hat(0.2, 0.4, 1.0 - 0.5j)
    radii = [0.5, 2.0, 3.5]
    profile = decay_profile(mu, f, radii, 1.0, annulus_step=step)
    sups, margin = profile.sups, profile.lip_margin
    bounds = list(zip(radii, radii[1:] + [5.0]))
    for i, (lo, hi) in enumerate(bounds):
        n = analysis._annulus_count(lo, hi, step)
        fine = lo + step / 64.0 * np.arange(64 * (n - 1) + 1)
        gap = np.linspace(lo + step * (n - 1), hi, 65)[1:-1]  # up to the outer radius
        for xs in (fine, gap):
            got = max(np.max(np.abs(convolve_grid(mu, f, xs))), np.max(np.abs(convolve_grid(mu, f, -xs[::-1]))))
            assert got <= sups[i] + margin + 1e-12


def test_decay_profile_resolves_each_block_once_within_its_reach(monkeypatch, record):
    # 100, 250 and 250 points per annulus and sign, in blocks of 40: 3 + 7 +
    # 7 blocks a sign, as annuli longer than a block are not packed.  Each
    # block is resolved once, on its reach widened by one step (the next
    # point out), and the margin reads that resolution.
    monkeypatch.setattr(measures, "_SCAN_CHUNK", 40)
    calls = record(measures, "resolve_window")
    f, step = F_COARSE, 0.01
    decay_profile(build_example("ex_a"), f, [1.0, 2.0, 4.5], 0.05, annulus_step=step)
    windows = [w for _, w in calls]
    assert len(windows) == 2 * (3 + 7 + 7)
    reach = f.hi - f.lo
    assert all(w.width <= reach + 40 * step + 1e-9 for w in windows)
    assert max(w.width for w in windows) >= reach + 40 * step - 1e-9


def test_decay_profile_packs_short_annuli_into_one_block(record):
    # criterion 6's combs at r_max 240: annuli of 6,000, 12,000 and 12,000
    # points at step 0.01 fit one 65,536-point block a sign, resolved once
    # each (6 blocks when each annulus and sign was one)
    src = LatticeComb(1.1, 0.3, lambda n: (1.0 / (1.0 + np.abs(n))).astype(np.complex128))
    calls = record(measures, "resolve_window")
    profile = decay_profile(PurePoint(src), tf_hat(0.0, 0.2, 1.0, step=0.002), [60.0, 120.0, 240.0], 0.05, 0.01)
    assert len(calls) == 2
    # 60 to the next point out, 360, and the reach of f
    assert [w.width for _, w in calls] == pytest.approx([300.0 + 0.4] * 2)
    assert profile.verdict == VANISHING


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    r0=st.floats(0.0, 4.0),
    unit=st.floats(0.3, 2.0),
    widths=st.lists(st.floats(1.0, 1.9), min_size=2, max_size=4),
    step=st.sampled_from([0.01, 0.037, 0.25]),
    density=st.sampled_from([None, "tent", "indicator"]),
)
def test_packed_annuli_scan_as_blocks_of_their_own(data, r0, unit, widths, step, density):
    # A chunk as long as the longest annulus holds each annulus alone and no
    # two (widths within a factor of two); a chunk of 65,536 points holds
    # them all.  Sups and margin agree to rounding: ramps are anchored at each
    # block's first source, and |mu| sums from each block's first atom.
    radii = (r0 + unit * np.concatenate(([0.0], np.cumsum(widths[:-1])))).tolist()
    bounds = analysis._annulus_bounds(radii)
    counts = [analysis._annulus_count(lo, hi, step) for lo, hi in bounds]
    assume(all(a + b > max(counts) for a, b in zip(counts, counts[1:])))
    outer = bounds[-1][1]
    weight = st.complex_numbers(max_magnitude=3.0)
    atoms = data.draw(st.lists(st.tuples(st.floats(-outer - 1.0, outer + 1.0), weight), min_size=1, max_size=200))
    mu = PurePoint(FiniteAtoms(atoms))
    if density is not None:
        c, w, h = data.draw(st.floats(-outer, outer)), data.draw(st.floats(0.1, 3.0)), data.draw(weight)
        mu = Sum((mu, AbsCont(TriangleDensity(c, w, h) if density == "tent" else IndicatorDensity(c - w, c + w, h))))
    f = tf_hat(data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(0.05, 1.0)), data.draw(weight))
    with pytest.MonkeyPatch.context() as mp:
        packed = decay_profile(mu, f, radii, 0.05, annulus_step=step)
        mp.setattr(measures, "_SCAN_CHUNK", max(counts))
        alone = decay_profile(mu, f, radii, 0.05, annulus_step=step)
    scale = 1e-12 * (sum(abs(w) for _, w in atoms) + 20.0) * f.sup_norm
    assert packed.sups == pytest.approx(alone.sups, rel=1e-12, abs=scale)
    assert packed.lip_margin == pytest.approx(alone.lip_margin, rel=1e-12)


def test_scans_build_cells_once(monkeypatch, record):
    # mean_abs(ex_bf, ...) cut ex_bf's cells once per 65,536-point block, 32
    # times; one plan builds them once on the scan's hull, as decay_profile's
    # does for all its annuli and both signs
    calls = record(measures, "_affine_cells")
    mu = build_example("ex_bf")
    mean_abs(mu, tf_hat(0.0, 0.25), [10, 100, 1000])
    assert len(calls) == 1
    monkeypatch.setattr(measures, "_SCAN_CHUNK", 64)
    decay_profile(mu, tf_hat(0.0, 0.25, 1.0, step=0.01), [1.0, 3.0, 9.0], 0.05, annulus_step=0.01)
    assert len(calls) == 2


def test_decay_margin_resolves_no_more_than_a_block(monkeypatch):
    # The margin's mass bound once resolved the whole hull [-750, 750] of
    # ex_nu at once, about 560,000 atoms (27.7 MB traced); read from the
    # scanned blocks of 1,000 points (50 units) it stays near one block's.
    monkeypatch.setattr(measures, "_SCAN_CHUNK", 1000)
    tracemalloc.start()
    try:
        profile = decay_profile(build_example("ex_nu"), tf_hat(0.0, 0.5, 1.0), [250.0, 500.0], 0.05, annulus_step=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12_000_000
    assert profile.verdict == NOT_VANISHING and profile.lip_margin > 0.0


# Corner scans: a block of atoms only is read at the grid points next to each
# atom + knot of f and at its ends; the sups, the margin and (to rounding)
# the means are those of every grid point.


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    step=st.floats(0.003, 0.05),
    chunk=st.sampled_from([5, 17, 64, 1 << 16]),
    polygon=st.booleans(),
)
def test_corner_sups_and_margin_equal_the_dense_scan(data, step, chunk, polygon):
    if polygon:
        values = data.draw(st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=6))
        f = testfunctions.TestFunction.from_samples(
            data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(0.02, 0.3)), np.array([0.0, *values, 0.0]))
    else:
        f = tf_hat(data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(0.02, 0.6)),
                   data.draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0)))
    weight = st.one_of(st.floats(-3.0, 3.0), st.complex_numbers(max_magnitude=3.0))
    free = st.tuples(st.floats(-2.5, 2.5), weight)
    on_grid = st.tuples(st.integers(-400, 400).map(lambda k: 0.5 + step * k), weight)
    atoms = data.draw(st.lists(st.one_of(free, on_grid), min_size=1, max_size=8))
    atoms += data.draw(st.lists(st.sampled_from(atoms), max_size=2))  # coincident atoms merge
    mu = PurePoint(FiniteAtoms(atoms))
    radii = [0.5, 1.0, 1.7]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_SCAN_CHUNK", chunk)
        got = decay_profile(mu, f, radii, 0.05, annulus_step=step)
        sup = measures.seminorm_pg(mu, f, Window(-1.0, 1.0), step=step)
        mp.setattr(measures._Block, "corners", lambda *args, **kwargs: None)
        want = decay_profile(mu, f, radii, 0.05, annulus_step=step)
        want_sup = measures.seminorm_pg(mu, f, Window(-1.0, 1.0), step=step)
    scale = 1e-13 * sum(abs(complex(w)) for _, w in atoms) * f.sup_norm
    assert got.sups == pytest.approx(want.sups, rel=0.0, abs=scale)
    assert sup == pytest.approx(want_sup, rel=0.0, abs=scale)
    assert got.lip_margin == want.lip_margin


def _exact_mean(atoms, center, halfwidth, height, h, ns):
    """The trapezoid averages of mean_abs in rational arithmetic."""
    big = ns[-1]
    grid = [Fraction(-big) + h * k for k in range(int(2 * big / h) + 1)]

    def f(u):
        return max(Fraction(0), 1 - abs(u - center) / halfwidth) * height

    vals = [abs(sum(w * f(x - p) for p, w in atoms)) for x in grid]
    cum = [Fraction(0)]
    for a, b in zip(vals, vals[1:]):
        cum.append(cum[-1] + (a + b) * h / 2)
    return [(cum[round((big + n) / h)] - cum[round((big - n) / h)]) / (2 * n) for n in ns]


def test_closed_form_means_equal_the_rational_trapezoid(monkeypatch):
    # hat(1/8, 1, 3/2) at step 1/64 on the grid -4 + k/64: each atom puts its
    # breakpoints 64 points apart, so the runs between corners are long.  mu*f
    # changes sign inside the grid intervals 233 .. 234 (of the run 218 ..
    # 255) and 334 .. 335 (of the run 320 .. 343, which starts at the mark of
    # n = 1).  The linear stretch 346 .. 375 crosses the block edge at 352.
    # The marks 64, 320, 384 and 448 have no breakpoint near; 128 and 192 are
    # breakpoints of the atom at -9/8.
    atoms = [(Fraction(-9, 8), Fraction(1)), (Fraction(1, 4), Fraction(-5, 4)), (Fraction(7, 4), Fraction(1, 2))]
    center, halfwidth, height, h = Fraction(1, 8), Fraction(1), Fraction(3, 2), Fraction(1, 64)
    f = tf_hat(float(center), float(halfwidth), float(height), step=float(h))
    assert f.step == float(h)
    mu = PurePoint(FiniteAtoms([(float(p), float(w)) for p, w in atoms]))
    ns = [1, 2, 3, 4]
    monkeypatch.setattr(measures, "_SCAN_CHUNK", 352)
    sent = []
    convolve = measures._Block.convolve
    monkeypatch.setattr(measures._Block, "convolve", lambda self, f, grid, tol: sent.append(grid) or convolve(self, f, grid, tol))
    got = [avg for _, avg in mean_abs(mu, f, ns).entries]
    assert sum(g.size for g in sent) < 0.5 * (2 * 4 * 64 + 1)  # the corner path ran
    corners = np.round((np.concatenate(sent) + 4.0) * 64.0)
    assert {64, 192, 320, 351, 352} <= set(corners.tolist())
    assert not {233, 234, 334, 335, 360} & set(corners.tolist())
    want = _exact_mean(atoms, center, halfwidth, height, h, ns)
    assert got == pytest.approx([float(w) for w in want], rel=1e-13)


def _points_sent(calls):
    """Grid points sent to _Block.convolve, from its recorded calls."""
    return sum(grid.size for _, _, grid, _ in calls)


def test_corner_scans_evaluate_few_points(record):
    # ex_a's pairs are about one per unit: 11,264,000 grid points of the
    # hat(0, 0.125) decay to r 1000 and 2,048,001 of the hat(0, 0.25) mean
    # to n 1000 hold a few breakpoints per unit each
    mu = build_example("ex_a")
    calls = record(measures._Block, "convolve")
    decay_profile(mu, tf_hat(0.0, 0.125), [125, 250, 500, 1000], 0.05)
    assert _points_sent(calls) <= 0.01 * 11_264_000
    calls.clear()
    mean_abs(mu, tf_hat(0.0, 0.25), [100, 1000])
    assert _points_sent(calls) <= 0.025 * 2_048_001


def test_declined_blocks_send_the_full_grid(record):
    # ex_bf's cells are densities: mu*f is not piecewise linear at atoms +
    # knots.  An autocorrelation has a kink at about every point of its grid,
    # so the corners would be every point that an atom of ex_a reaches.
    calls = record(measures._Block, "convolve")
    mean_abs(build_example("ex_bf"), tf_hat(0.0, 0.25, 1.0, step=0.01), [1, 3])
    assert _points_sent(calls) == 601
    calls.clear()
    hat = tf_hat(0.0, 0.125, 1.0)
    g = tf_convolve(hat, tf_reflect_conj(hat))
    mean_abs(build_example("ex_a"), g, [1, 2])
    assert _points_sent(calls) == round(4 / g.step) + 1
