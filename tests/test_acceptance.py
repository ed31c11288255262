"""The ten acceptance criteria, one test each.

The suite runs once per session; every test prints its criterion's
pass/fail line so a verbose run shows the whole scoreboard.  Criterion
10's first clause asserts a window mass the tent family does not have
(each stated window also contains the halves of the two neighboring
tents), so that check is expected to fail; it is kept as a strict xfail
with the faithful computation left in place, and the clauses of the
criterion that do hold are asserted separately below.
"""

import time

import numpy as np
import pytest

from vanishkit import constructions
from vanishkit.acceptance import run_all
from vanishkit.analysis import VANISHING, decay_profile
from vanishkit.constructions import build_example
from vanishkit.measures import variation_on
from vanishkit.testfunctions import Window, tf_hat


@pytest.fixture(scope="module")
def results():
    t0 = time.perf_counter()
    res = {r.index: r for r in run_all()}
    res["elapsed"] = time.perf_counter() - t0
    return res


def _report(r):
    print(f"{'PASS' if r.passed else 'FAIL'}  {r.index:2d}. {r.name}: {r.detail}")


def test_criterion_1_sinc_closed_form(results):
    r = results[1]
    _report(r)
    assert r.passed
    assert r.seconds < 5.0


def test_criterion_2_direct_vs_spectral(results):
    r = results[2]
    _report(r)
    assert r.passed
    assert r.seconds < 60.0


def test_criterion_3_bessel_identity(results):
    r = results[3]
    _report(r)
    assert r.passed
    assert r.seconds < 1.0


def test_criterion_4_annulus_bound(results):
    r = results[4]
    _report(r)
    assert r.passed
    assert r.seconds < 10.0


def test_criterion_5_plateau_and_verdict(results):
    r = results[5]
    _report(r)
    assert r.passed
    assert r.seconds < 10.0


def test_criterion_6_coefficient_decay_agreement(results):
    r = results[6]
    _report(r)
    assert r.passed
    assert "50/50" in r.detail
    assert r.seconds < 60.0


def test_criterion_7_means_shrink(results):
    r = results[7]
    _report(r)
    assert r.passed
    assert r.seconds < 30.0


def test_criterion_8_block_sum_machinery(results):
    r = results[8]
    _report(r)
    assert r.passed
    assert "20/20" in r.detail
    assert r.seconds < 30.0


def test_criterion_8_validates_each_input_once(record):
    # validate_block_sum and generate_block_sum both validate through it
    calls = record(constructions, "_validate")
    (result,) = run_all(only=[8])
    assert result.passed
    # the 16,000-part offset-pair input and the 400-part Riemann-comb input
    assert sorted(len(inp.parts) for inp, *_ in calls) == [400, 16000]


def test_criterion_9_autocorrelation_verdicts(results):
    r = results[9]
    _report(r)
    assert r.passed
    assert r.seconds < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="the [n-1, n+1] windows hold the neighboring tents' inner halves "
    "as well, so their mass is (9/4)*2^-n for n >= 2 and 5/8 at n = 1, "
    "not 2^-n; the faithful computation therefore cannot meet the stated "
    "identity",
)
def test_criterion_10_stated_window_mass(results):
    r = results[10]
    _report(r)
    assert r.passed


def test_criterion_10_companion_clauses(results):
    # what the tent family actually satisfies, at the stated tolerances
    r = results[10]
    assert r.seconds < 10.0
    mu = build_example("ex_tent")
    for n in range(1, 11):
        half = 2.0 ** -n
        assert variation_on(mu, Window(n - half, n + half)) == pytest.approx(half, abs=1e-9)
        assert variation_on(mu, Window(n - 1.0, n + 1.0)) == pytest.approx(
            2.25 * half if n >= 2 else 0.625, abs=1e-9
        )
        xs = np.linspace(n - half, n + half, 257)
        assert float(np.max(np.abs(mu.density.evalv(xs)))) == pytest.approx(1.0, abs=1e-12)
    prof = decay_profile(
        mu, tf_hat(0.0, 0.25, 1.0), [12.5, 25.0, 50.0], epsilon=0.05, annulus_step=0.01
    )
    assert prof.verdict == VANISHING


def test_whole_suite_wall_clock(results):
    assert results["elapsed"] < 120.0
