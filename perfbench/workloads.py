"""Task lists of the three benchmark workloads.

Each task is one ``vanishkit`` command line, written the way the README
writes it, with the exit code the command gives by design.  Stdlib only:
the worker imports this module before it starts timing the library's own
import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 20260815  # vanishkit.acceptance.DEFAULT_SEED; references are recorded at it

# The command each task's time is summed into; rlcheck, fourier and bessel
# form the "spectral" group, coeffs counts only toward the pass total.
GROUPS = ("decay", "mean", "convolve", "rajchman", "blocks", "suite", "spectral")
_GROUP_OF = {"rlcheck": "spectral", "fourier": "spectral", "bessel": "spectral"}


@dataclass(frozen=True)
class Task:
    name: str  # unique within the workload; also the reference key
    argv: tuple[str, ...]
    expect_exit: int

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def group(self) -> str | None:
        group = _GROUP_OF.get(self.command, self.command)
        return group if group in GROUPS else None


def _example(name: str) -> str:
    return json.dumps({"expr": {"kind": "example", "name": name}})


def grid_offsets(seed: int) -> dict[str, float]:
    """Start offsets, as a fraction of the grid step, of the convolve grids."""
    rng = random.Random(seed)
    return {key: rng.random() for key in ("ex_b", "ex_bf", "j0_radial")}


def _grid(lo: float, hi: float, step: float, frac: float) -> str:
    off = frac * step
    return f"{lo + off!r}:{hi + off!r}:{step!r}"


def _catalog(seed: int) -> list[Task]:
    off = grid_offsets(seed)
    tasks = []
    not_vanishing = {"ex_nu"}
    for name in ("ex_a", "ex_nu", "ex_b", "ex_tent", "ex_bf", "ex_sinc_series"):
        tasks.append(Task(
            f"decay_{name}",
            ("decay", "--spec", _example(name), "--radii", "50,100,200",
             "--epsilon", "0.05", "--format", "json"),
            2 if name in not_vanishing else 0,
        ))
    for name in ("ex_a", "ex_tent", "ex_bf"):
        tasks.append(Task(
            f"mean_{name}",
            ("mean", "--spec", _example(name), "--nlist", "10,100,1000", "--format", "json"),
            0,
        ))
    tasks.append(Task(
        "convolve_ex_b",
        ("convolve", "--spec", _example("ex_b"), "--grid", _grid(-300.0, 300.0, 0.01, off["ex_b"])),
        0,
    ))
    tasks.append(Task(
        "convolve_ex_bf",
        ("convolve", "--spec", _example("ex_bf"), "--grid", _grid(0.0, 16.0, 0.001, off["ex_bf"])),
        0,
    ))
    for name in ("ex_sinc_series", "ex_tent"):
        tasks.append(Task(
            f"rajchman_{name}", ("rajchman", "--spec", _example(name), "--format", "json"), 0
        ))
    triangle = json.dumps(
        {"expr": {"kind": "ac", "builder": "triangle", "center": 0.0, "halfwidth": 1.0, "height": 1.0}}
    )
    harmonic = json.dumps({"expr": {"kind": "pp", "builder": "lattice", "weights": "harmonic"}})
    tasks += [
        Task("rlcheck", ("rlcheck", "--format", "json"), 0),
        Task("fourier_triangle", ("fourier", "--spec", triangle, "--grid", "-5:5:0.01"), 0),
        Task("fourier_series", ("fourier", "--grid", "-4:4:0.01", "--truncation", "20"), 0),
        Task("bessel", ("bessel",), 0),
        Task("coeffs_harmonic", ("coeffs", "--spec", harmonic, "--epsilon", "0.05",
                                 "--rmax", "200", "--format", "json"), 0),
    ]
    return tasks


def _blocks(seed: int) -> list[Task]:
    # Criterion 10 fails by design and both recipes fail a hypothesis by
    # design, so every task here exits 2.
    return [
        Task("suite", ("suite",), 2),
        Task("blocks_ex_nu", ("blocks", "--spec", json.dumps({"recipe": "ex_nu", "n": 400}),
                              "--format", "json"), 2),
        Task("blocks_ex_b", ("blocks", "--spec", json.dumps({"recipe": "ex_b", "n": 200}),
                             "--format", "json"), 2),
    ]


def _smooth(seed: int) -> list[Task]:
    off = grid_offsets(seed)
    j0 = _example("j0_radial")
    # The README radii 50,100,200 take minutes on j0_radial; small radii keep
    # the same code path in a run of seconds.
    return [
        Task("convolve_j0_radial",
             ("convolve", "--spec", j0, "--grid", _grid(-50.0, 50.0, 0.05, off["j0_radial"])), 0),
        Task("decay_j0_radial",
             ("decay", "--spec", j0, "--radii", "0.5,1", "--epsilon", "0.05", "--format", "json"), 2),
        Task("mean_j0_radial", ("mean", "--spec", j0, "--nlist", "1,2", "--format", "json"), 0),
    ]


WORKLOADS = {"catalog": _catalog, "blocks": _blocks, "smooth": _smooth}


def tasks(workload: str, seed: int) -> list[Task]:
    return WORKLOADS[workload](seed)
