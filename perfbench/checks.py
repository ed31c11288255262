"""Output checks for benchmark tasks.

Every task is checked for its exit code and, field by field, against a
reference recorded at the default seed (``reference/<workload>.json``,
written by ``record_reference.py``).  Tasks whose command line depends on
the seed (the ``convolve`` grids, whose start offsets are drawn) or whose
output does (``suite``, criteria 6 and 8) are checked in a seed-independent
way, and convolve values at seed-drawn grid points are compared against
oracles that share no code with vanishkit: a direct numpy sum over the
atoms, closed-form hat integrals over dyadic cells, and scipy ``quad`` of
J0 when scipy is installed.

Tolerances, with the reason for each:

* ``REL`` 1e-9 (relative, with an absolute floor of ``ABS`` 1e-12) on
  report values that come from exact or fixed-rule arithmetic: sups, means,
  variations, pairings, tail bounds.  A kernel that sums in another order
  moves them by ~1e-15; any change of method, grid or verdict logic moves
  them by far more.
* ``GRID_ABS`` 1e-9 (absolute) on O(1) sampled values (convolve rows,
  transforms, autocorrelation rows), for the same reason.
* ``QUAD_ABS`` 1e-7 (absolute) for scipy quad against the smooth-density
  path, whose refinement stops once successive levels agree to 1e-8.
* Exact: verdicts, exit codes, radii, counts, booleans, and suite lines
  with their ``[N.Ns]`` timing suffix removed.  Convolve x columns must
  match the requested grid to 1e-12 (another way of forming the grid may
  move the last bit).
* ``lip_margin`` is only required to be finite and >= 0, because its value
  is due to be corrected; extra report keys are allowed for the same kind of
  reason (a ``certified`` flag is planned).
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import numpy as np

import workloads

REF_DIR = Path(__file__).resolve().parent / "reference"

REL = 1e-9
ABS = 1e-12
GRID_ABS = 1e-9
QUAD_ABS = 1e-7
SAMPLE_ROWS = 64  # rows of each CSV output kept in the reference
ORACLE_POINTS = 16  # seed-drawn grid points checked against an oracle

_SUITE_TIMING = re.compile(r"  \[\d+(\.\d+)?s\]$", re.MULTILINE)
_SEEDED_CRITERIA = (6, 8)


def normalize(task_name: str, text: str) -> str:
    return _SUITE_TIMING.sub("", text) if task_name == "suite" else text


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _csv(text: str) -> tuple[str, np.ndarray]:
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0], np.array(rows, dtype=float)


def extract(task: workloads.Task, text: str):
    """The checked content of one output, as plain JSON data."""
    if task.name == "suite":
        return normalize(task.name, text).splitlines()
    if "--format" in task.argv and task.argv[task.argv.index("--format") + 1] == "json":
        return json.loads(text)
    header, rows = _csv(text)
    idx = sorted(set(np.linspace(0, len(rows) - 1, SAMPLE_ROWS).round().astype(int).tolist()))
    return {
        "header": header,
        "n_rows": len(rows),
        "sample": {str(i): rows[i].tolist() for i in idx},
    }


# ---------------------------------------------------------------------------
# Comparison against the reference
# ---------------------------------------------------------------------------


def _close(a, b, rel=REL, abs_=ABS) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


class _Problems(list):
    def need(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def _cmp_numbers(p: _Problems, got, ref, where: str, rel=REL, abs_=ABS) -> None:
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            p.append(f"{where}: shape differs from reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _cmp_numbers(p, g, r, f"{where}[{i}]", rel, abs_)
    elif ref is None or isinstance(ref, (bool, str)):
        p.need(got == ref, f"{where}: {got!r} != reference {ref!r}")
    else:
        p.need(_close(got, ref, rel, abs_), f"{where}: {got!r} != reference {ref!r}")


def _keys(p: _Problems, got: dict, ref: dict) -> bool:
    missing = sorted(set(ref) - set(got)) if isinstance(got, dict) else sorted(ref)
    p.need(not missing, f"missing report keys {missing}")
    return not missing


def _check_profile(p: _Problems, got: dict, ref: dict) -> None:
    if not _keys(p, got, ref):
        return
    p.need(got["verdict"] == ref["verdict"], f"verdict {got['verdict']!r} != {ref['verdict']!r}")
    p.need(got["epsilon"] == ref["epsilon"], "epsilon differs")
    p.need(got["K_eps_estimate"] == ref["K_eps_estimate"], "K_eps_estimate differs")
    radii = [e[0] for e in got["entries"]]
    p.need(radii == [e[0] for e in ref["entries"]], "annulus radii differ")
    if len(got["entries"]) == len(ref["entries"]):
        _cmp_numbers(p, [e[1] for e in got["entries"]], [e[1] for e in ref["entries"]], "sups")
    lip = got["lip_margin"]
    p.need(isinstance(lip, (int, float)) and math.isfinite(lip) and lip >= 0,
           f"lip_margin {lip!r} is not finite and >= 0")


def _check_csv(p: _Problems, got: dict, ref: dict) -> None:
    p.need(got["header"] == ref["header"], "CSV header differs")
    p.need(got["n_rows"] == ref["n_rows"], f"{got['n_rows']} rows, reference {ref['n_rows']}")
    for i, row in ref["sample"].items():
        if i in got["sample"]:
            _cmp_numbers(p, got["sample"][i], row, f"row {i}", rel=0.0, abs_=GRID_ABS)


def _check_rlcheck(p: _Problems, got: dict, ref: dict) -> None:
    if not _keys(p, got, ref):
        return
    p.need(got["k_window"] == ref["k_window"], "k_window differs")
    p.need(got["max_deviation"] <= 1e-4, "max_deviation above the command tolerance 1e-4")
    p.need(abs(got["max_deviation"] - ref["max_deviation"]) <= GRID_ABS, "max_deviation differs")
    p.need(got["quad_estimate"] <= 1e-5, "quad_estimate above tolerance/10")
    _cmp_numbers(p, got["tail_estimate"], ref["tail_estimate"], "tail_estimate")
    if len(got["rows"]) != len(ref["rows"]):
        p.append("rlcheck row count differs")
        return
    for i, (g, r) in enumerate(zip(got["rows"], ref["rows"])):
        p.need(g["x"] == r["x"], f"rows[{i}].x differs")
        for key in ("direct_re", "direct_im", "spectral_re", "spectral_im", "deviation"):
            p.need(abs(g[key] - r[key]) <= GRID_ABS, f"rows[{i}].{key} differs")


def _check_suite(p: _Problems, got: list, ref: list, seed: int) -> None:
    if len(got) != len(ref):
        p.append(f"{len(got)} suite lines, reference {len(ref)}")
        return
    for g, r in zip(got, ref):
        m = re.match(r"(PASS|FAIL)\s+(\d+)\.", r)
        if m and int(m.group(2)) in _SEEDED_CRITERIA and seed != workloads.DEFAULT_SEED:
            p.need(g.split()[:2] == r.split()[:2], f"suite line status differs: {g!r}")
            p.need(f"(seed {seed})" in g, f"suite line does not name seed {seed}: {g!r}")
        else:
            p.need(g == r, f"suite line differs: {g!r} != {r!r}")


def check_against_reference(task: workloads.Task, got, ref, seed: int, shifted: bool) -> list[str]:
    """Compare one output with its reference; ``shifted`` marks a command line
    that differs from the reference's because the seed moved its grid."""
    p = _Problems()
    cmd = task.command
    if cmd == "suite":
        _check_suite(p, got, ref, seed)
    elif cmd in ("decay", "rajchman"):
        _check_profile(p, got, ref)
    elif cmd == "rlcheck":
        _check_rlcheck(p, got, ref)
    elif isinstance(ref, dict) and "sample" in ref:
        if shifted:  # only the shape is comparable; values go to the oracle
            p.need(got["header"] == ref["header"], "CSV header differs")
            p.need(got["n_rows"] == ref["n_rows"], f"{got['n_rows']} rows, reference {ref['n_rows']}")
        else:
            _check_csv(p, got, ref)
    elif isinstance(ref, dict):
        if _keys(p, got, ref):
            for key in sorted(ref):
                _cmp_numbers(p, got[key], ref[key], key)
    else:
        p.append("unknown reference format")
    return p


# ---------------------------------------------------------------------------
# Oracles (no vanishkit code)
# ---------------------------------------------------------------------------

_HAT = 0.25  # half-width of the default hat f on convolve


def _hat(u: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(u) / _HAT)


def _hat_cdf(u: np.ndarray) -> np.ndarray:
    """Integral of the hat over (-inf, u]."""
    u = np.clip(u, -_HAT, _HAT)
    left = (u + _HAT) ** 2 / (2.0 * _HAT)
    right = _HAT - (_HAT - u) ** 2 / (2.0 * _HAT)
    return np.where(u <= 0.0, left, right)


def _oracle_ex_b(x: float) -> complex:
    # Lebesgue (mass of f) minus 1/n atoms at +-(n + k/n), k = 1..n.
    total = _HAT
    for n in range(max(1, int(abs(x)) - 2), int(abs(x)) + 2):
        k = np.arange(1, n + 1)
        p = n + k / n
        total -= float(np.sum(_hat(x - p) + _hat(x + p))) / n
    return complex(total)


def _oracle_ex_bf(x: float) -> complex:
    # Density (-1)^k on [n + k/2^n, n + (k+1)/2^n), levels n = 1..14.
    total = 0.0
    for n in range(max(1, math.floor(x - _HAT)), min(14, math.floor(x + _HAT)) + 1):
        k = np.arange(2**n)
        a = n + k / 2.0**n
        b = n + (k + 1) / 2.0**n
        sign = np.where(k % 2 == 0, 1.0, -1.0)
        total += float(np.sum(sign * (_hat_cdf(x - a) - _hat_cdf(x - b))))
    return complex(total)


def _oracle_j0_radial(x: float) -> complex | None:
    try:
        from scipy import integrate, special
    except ImportError:
        return None

    def integrand(s: float) -> float:
        return max(0.0, 1.0 - abs(x - s) / _HAT) * 2.0 * math.pi * special.j0(2.0 * math.pi * abs(s))

    pts = [p for p in (x, 0.0) if x - _HAT < p < x + _HAT]
    val, _ = integrate.quad(integrand, x - _HAT, x + _HAT, points=pts or None,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    return complex(val)


_ORACLES = {
    "convolve_ex_b": (_oracle_ex_b, GRID_ABS),
    "convolve_ex_bf": (_oracle_ex_bf, GRID_ABS),
    "convolve_j0_radial": (_oracle_j0_radial, QUAD_ABS),
}


def _grid_of(task: workloads.Task) -> np.ndarray:
    lo, hi, step = (float(v) for v in task.argv[task.argv.index("--grid") + 1].split(":"))
    n = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(n + 1)


def check_oracle(task: workloads.Task, text: str, seed: int) -> list[str]:
    p = _Problems()
    if task.name in _ORACLES:
        oracle, tol = _ORACLES[task.name]
        _, rows = _csv(text)
        xs = _grid_of(task)
        if rows.shape != (xs.size, 3):
            return [f"convolve output has shape {rows.shape}, grid has {xs.size} points"]
        p.need(bool(np.allclose(rows[:, 0], xs, rtol=1e-12, atol=1e-12)),
               "convolve x column is not the requested grid")
        rng = random.Random(seed ^ 0x5EED)
        for i in sorted(rng.sample(range(xs.size), ORACLE_POINTS)):
            want = oracle(float(xs[i]))
            if want is None:
                break
            got = complex(rows[i, 1], rows[i, 2])
            p.need(abs(got - want) <= tol, f"x={float(xs[i])!r}: {got} vs oracle {want} (tol {tol})")
    elif task.name == "fourier_triangle":
        _, rows = _csv(text)
        want = np.sinc(rows[:, 0]) ** 2  # unit triangle: transform sinc^2(k)
        err = float(np.max(np.abs(rows[:, 1] - want) + np.abs(rows[:, 2])))
        p.need(err <= GRID_ABS, f"triangle transform off the closed form by {err:.3e}")
    elif task.name == "bessel":
        _, rows = _csv(text)
        p.need(bool(np.all(rows[:, 3] <= 1e-8)), "circle identity deviation above 1e-8")
        try:
            from scipy import special
        except ImportError:
            return p
        err = float(np.max(np.abs(rows[:, 1] - 2.0 * np.pi * special.j0(2.0 * np.pi * rows[:, 0]))))
        p.need(err <= 1e-9, f"bessel lhs off scipy J0 by {err:.3e}")
    return p


def load_reference(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def check_task(
    task: workloads.Task, exit_code, text: str, ref: dict, seed: int, shifted: bool
) -> list[str]:
    """Problems with one task's output; empty when it passes."""
    problems = []
    if exit_code != task.expect_exit:
        problems.append(f"exit {exit_code}, expected {task.expect_exit}")
    try:
        got = extract(task, text)
    except (ValueError, IndexError) as exc:
        return problems + [f"unparseable output: {exc}"]
    if task.name not in ref:
        return problems + ["no reference recorded"]
    problems += check_against_reference(task, got, ref[task.name]["output"], seed, shifted)
    problems += check_oracle(task, text, seed)
    return problems
