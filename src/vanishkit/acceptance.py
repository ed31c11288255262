"""The acceptance suite: ten numbered checks over the whole library.

Each criterion returns a CriterionResult with a pass flag and a one-line
detail.  Criterion 10's first clause states a window mass that the tent
family provably does not have (the stated window also catches the
neighboring tents' halves); it is computed faithfully and reported as a
failure, with the isolating-window companion value shown alongside.
Everything else is expected green.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import (
    NOT_VANISHING,
    VANISHING,
    decay_profile,
    discrete_support_crosscheck,
    mean_abs,
)
from .constructions import (
    build_example,
    ex_a_block_input,
    generate_block_sum,
    nu_block_input,
    validate_block_sum,
)
from .fourier import (
    bessel_j0_check,
    rajchman_check,
    rl_crosscheck,
    sinc,
    sinc_autocorr_density,
    spectral_series,
)
from .measures import LatticeComb, PurePoint, atoms_in, convolve, variation_on
from .testfunctions import Window, tf_hat

__all__ = ["CriterionResult", "DEFAULT_SEED", "run_all", "format_results"]

DEFAULT_SEED = 20260815


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _criterion_1() -> tuple[bool, str]:
    xs = -5.0 + 1e-3 * np.arange(10001)
    worst = 0.0
    for n in (0, 1, 2, 5):
        closed = sinc_autocorr_density(n, xs)
        direct = np.abs(1.0 + np.exp(-1j * np.pi * xs * (2 * n + 1)) * sinc(np.pi * xs)) ** 2
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    return worst <= 1e-12, f"max closed-form deviation {worst:.3e} (tol 1e-12)"


def _criterion_2() -> tuple[bool, str]:
    mu = build_example("ex_sinc_series", truncation=20)
    report = rl_crosscheck(
        mu,
        spectral_series(20),
        tf_hat(0.0, 0.5, 1.0),
        np.linspace(-3.0, 3.0, 241),
        tolerance=1e-4,
    )
    ok = report.max_deviation <= 1e-4
    return ok, (
        f"direct vs spectral max deviation {report.max_deviation:.3e} "
        f"(tol 1e-4, K={report.k_window:g}, tail {report.tail_estimate:.2e})"
    )


def _criterion_3() -> tuple[bool, str]:
    lhs, rhs = bessel_j0_check(np.arange(101) / 10.0)
    worst = float(np.abs(lhs - rhs).max())
    return worst <= 1e-8, f"max circle-identity deviation {worst:.3e} (tol 1e-8)"


def _criterion_4() -> tuple[bool, str]:
    mu = build_example("ex_a")
    f = tf_hat(0.0, 0.25, 1.0)
    details = []
    ok = True
    for r, astep in ((10.0, 0.002), (100.0, 0.005), (1000.0, 0.02)):
        prof = decay_profile(mu, f, [r], epsilon=0.05, annulus_step=astep)
        sup = prof.entries[0][1]
        ok = ok and sup <= 8.0 / r
        details.append(f"sup[{r:g},{2 * r:g})={sup:.4g} (bound {8.0 / r:.4g})")
    return ok, "; ".join(details)


def _criterion_5() -> tuple[bool, str]:
    mu = build_example("ex_nu")
    f = tf_hat(0.5, 0.5, 1.0)
    devs = [abs(complex(convolve(mu, f, x)).real - 0.5) for x in (100.0, 200.0, 400.0)]
    plateau_ok = max(devs) <= 0.02
    prof = decay_profile(mu, f, [50.0, 100.0, 200.0], epsilon=0.1, annulus_step=0.01)
    verdict_ok = prof.verdict == NOT_VANISHING
    return plateau_ok and verdict_ok, (
        f"plateau deviation {max(devs):.2e} (tol 0.02); verdict {prof.verdict}"
    )


def _criterion_6(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    f = tf_hat(0.0, 0.2, 1.0, step=0.002)
    r_max = 240.0
    agreements = 0
    for _ in range(50):
        spacing = float(rng.uniform(0.6, 1.6))
        offset = float(rng.uniform(0.0, spacing))
        vanishing_weights = bool(rng.integers(0, 2))
        if vanishing_weights:
            weight_fn: Callable[[np.ndarray], np.ndarray] = lambda n: (
                1.0 / (1.0 + np.abs(n))
            ).astype(np.complex128)
        else:
            n_cap = int(np.ceil((2.0 * r_max + 2.0) / spacing)) + 4
            signs = rng.integers(0, 2, size=2 * n_cap + 1) * 2.0 - 1.0

            def weight_fn(n: np.ndarray, signs=signs, n_cap=n_cap) -> np.ndarray:
                return signs[np.clip(n + n_cap, 0, 2 * n_cap)].astype(np.complex128)

        src = LatticeComb(spacing, offset, weight_fn)
        rep = discrete_support_crosscheck(
            src, f, epsilon=0.05, r_max=r_max, gap_floor=0.5, annulus_step=0.01
        )
        if rep.applicable and rep.agree:
            agreements += 1
    return agreements == 50, f"{agreements}/50 seeded combs agree (seed {seed})"


def _criterion_7() -> tuple[bool, str]:
    mu = build_example("ex_a")
    trace = mean_abs(mu, tf_hat(0.0, 0.25, 1.0), [100, 1000])
    m100 = trace.entries[0][1]
    m1000 = trace.entries[1][1]
    ok = m1000 <= 0.05 and m1000 < m100
    return ok, f"mean@100={m100:.4g}, mean@1000={m1000:.4g} (need <=0.05 and decreasing)"


def _criterion_8(seed: int) -> tuple[bool, str]:
    gen = generate_block_sum(ex_a_block_input(8000), override=True)
    all_pass = gen.report.overall
    rep_nu = validate_block_sum(nu_block_input(400))
    nu_exact_iii = (
        rep_nu.h_support and rep_nu.h_bounded and rep_nu.h_udiscrete and not rep_nu.h_vague_null
    )
    builder = build_example("ex_a")
    rng = np.random.default_rng(seed)
    matched = 0
    for _ in range(20):
        a = float(rng.uniform(-100.0, 99.0))
        w = Window(a, min(100.0, a + float(rng.uniform(0.5, 10.0))))
        if atoms_in(gen.measure, w) == atoms_in(builder, w):
            matched += 1
    ok = all_pass and nu_exact_iii and matched == 20
    return ok, (
        f"offset-pair input: all hypotheses {'pass' if all_pass else 'FAIL'}; "
        f"Riemann-comb input fails exactly (iii): {nu_exact_iii}; "
        f"{matched}/20 windows atom-for-atom (seed {seed})"
    )


def _criterion_9() -> tuple[bool, str]:
    f = tf_hat(0.0, 0.25, 1.0)
    prof_s = rajchman_check(
        build_example("ex_sinc_series", truncation=20),
        f,
        [6.0, 12.0, 24.0, 48.0],
        epsilon=0.05,
        annulus_step=0.01,
    )
    comb = PurePoint(LatticeComb(1.0, 0.0, None))
    prof_z = rajchman_check(comb, f, [6.0, 12.0, 24.0, 48.0], epsilon=0.05, annulus_step=0.01)
    ok = prof_s.verdict == VANISHING and prof_z.verdict == NOT_VANISHING
    return ok, f"series verdict {prof_s.verdict}; integer comb verdict {prof_z.verdict}"


def _criterion_10() -> tuple[bool, str]:
    mu = build_example("ex_tent")
    worst_literal = 0.0
    worst_isolating = 0.0
    for n in range(1, 11):
        target = 2.0**-n
        literal = variation_on(mu, Window(n - 1.0, n + 1.0))
        worst_literal = max(worst_literal, abs(literal - target))
        isolating = variation_on(mu, Window(n - target, n + target))
        worst_isolating = max(worst_isolating, abs(isolating - target))
    literal_ok = worst_literal <= 1e-9
    isolating_ok = worst_isolating <= 1e-9

    prof = decay_profile(
        mu, tf_hat(0.0, 0.25, 1.0), [12.5, 25.0, 50.0, 100.0], epsilon=0.05, annulus_step=0.01
    )
    decay_ok = prof.verdict == VANISHING
    density = mu.density
    sup_ok = True
    for n in range(1, 11):
        xs = np.linspace(n - 2.0**-n, n + 2.0**-n, 257)
        sup_ok = sup_ok and abs(float(np.max(np.abs(density.evalv(xs)))) - 1.0) <= 1e-12
    ok = literal_ok and isolating_ok and decay_ok and sup_ok
    return ok, (
        f"[n-1,n+1] mass deviates from 2^-n by up to {worst_literal:.3e} "
        f"(the window also holds the neighbor tents' halves: 9/4 * 2^-n for n >= 2); "
        f"isolating windows exact to {worst_isolating:.1e}; "
        f"decay {prof.verdict}; per-block density sup 1: {sup_ok}"
    )


_CRITERIA: tuple[tuple[int, str, Callable[..., tuple[bool, str]], bool], ...] = (
    (1, "sinc autocorrelation closed form", _criterion_1, False),
    (2, "direct vs spectral reconstruction", _criterion_2, False),
    (3, "Bessel circle identity", _criterion_3, False),
    (4, "offset-pair comb annulus bound", _criterion_4, False),
    (5, "Riemann comb plateau and verdict", _criterion_5, False),
    (6, "coefficient vs decay agreement", _criterion_6, True),
    (7, "interval means shrink", _criterion_7, False),
    (8, "block-sum validator and generator", _criterion_8, True),
    (9, "autocorrelation decay consistency", _criterion_9, False),
    (10, "shrinking tents window masses", _criterion_10, False),
)


def run_all(seed: int | None = None, only: Sequence[int] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria and return their results.

    ``seed`` defaults to the VANISHKIT_SEED environment variable, then to
    DEFAULT_SEED; it feeds the randomized criteria (6 and 8).
    """
    if seed is None:
        seed = int(os.environ.get("VANISHKIT_SEED", DEFAULT_SEED))
    wanted = set(only) if only is not None else None
    results: list[CriterionResult] = []
    for index, name, fn, takes_seed in _CRITERIA:
        if wanted is not None and index not in wanted:
            continue
        t0 = time.perf_counter()
        passed, detail = fn(seed) if takes_seed else fn()
        results.append(CriterionResult(index, name, passed, detail, time.perf_counter() - t0))
    return results


def format_results(results: Sequence[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.index:2d}. {r.name}: {r.detail}  [{r.seconds:.1f}s]")
    return "\n".join(lines)
