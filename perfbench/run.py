"""Outside-in benchmark of the vanishkit command line.

    python3 perfbench/run.py --workload {catalog,blocks,smooth} --seed N
        --seconds S --trace {0,1}

Run from the root of a source checkout; vanishkit is imported from ./src.
Each workload is a fixed list of ``vanishkit`` command lines (see
workloads.py) driven in-process through ``vanishkit.cli.main`` by a fresh
worker process: a closed loop with one client, tasks in a fixed order,
whole passes repeated until S seconds have passed.  The seed sets
VANISHKIT_SEED and draws the start offsets of the convolve grids.

--trace 0 prints the end-to-end metrics: setup_s (median over several
fresh workers of importing vanishkit and building the CLI parser); wall_s
and cpu_s, the time to finish the task list, summed over tasks from each
task's fastest repeat in the run; and the worker's peak_rss_mb.
--trace 1 runs one untraced worker and then one traced pass in another
fresh worker, and prints the per-layer metrics named in BENCHMARK.json.

Every task's exit code and output are checked (checks.py).  Lines before
the last record the environment and per-command times; the last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_WORKERS = 10
RUN_TIMEOUT_S = 170  # all workers of one run together, under a 180 s limit per run
# Pin every BLAS/OpenMP pool to one thread so that a worker has one thread
# of control; numpy's OpenBLAS would otherwise start one per core for the
# matrix products in the Fourier layer.
ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn_worker(
    workload: str, seed: int, mode: str, seconds: float, out: str | None, deadline: float
) -> dict:
    """Run one worker to completion, killing it at ``deadline`` (time.monotonic)."""
    env = dict(os.environ, VANISHKIT_SEED=str(seed), **ONE_THREAD)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
    ]
    if out:
        cmd += ["--out", out]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the run's {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_revision": _git_revision(),
        "seed": seed,
    }


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _check_outputs(workload: str, seed: int, run: dict, out: str, ref: dict) -> tuple[int, int, dict]:
    """Check every task of every pass; return (attempted, failed, texts)."""
    tasks = workloads.tasks(workload, seed)
    ref_argv = {t.name: t.argv for t in workloads.tasks(workload, workloads.DEFAULT_SEED)}
    texts = {}
    attempted = failed = 0
    first = {r["name"]: r for r in run["passes"][0]["tasks"]}
    for task in tasks:
        with open(os.path.join(out, f"{task.name}.out"), newline="") as fh:
            texts[task.name] = fh.read()
        rec = first[task.name]
        problems = [rec["error"]] if rec["error"] else []
        problems += checks.check_task(
            task, rec["exit"], texts[task.name], ref, seed, task.argv != ref_argv[task.name]
        )
        attempted += 1
        if problems:
            failed += 1
            _note(f"FAIL {workload}/{task.name}: " + "; ".join(problems[:5]))
    for i, p in enumerate(run["passes"][1:], start=2):
        for rec in p["tasks"]:
            attempted += 1
            same = rec["sha256"] == first[rec["name"]]["sha256"] and rec["exit"] == first[rec["name"]]["exit"]
            if not same or rec["error"]:
                failed += 1
                _note(f"FAIL {workload}/{rec['name']} pass {i}: output differs from pass 1")
    return attempted, failed, texts


def _best_of_passes(run: dict, key: str) -> dict[str, float]:
    """Per task, the fastest of its repeats over the run's passes.

    Slowdowns from other tenants of a shared machine only ever add time, so
    the fastest repeat is the steadiest estimate of each task's own cost.
    """
    best: dict[str, float] = {}
    for p in run["passes"]:
        for rec in p["tasks"]:
            best[rec["name"]] = min(best.get(rec["name"], float("inf")), rec[key])
    return best


def _command_times(best: dict[str, float], tasks: list[workloads.Task]) -> dict[str, float]:
    """Summed best-of-passes seconds of each command group."""
    sums: dict[str, float] = {}
    for task in tasks:
        if task.group:
            sums[task.group] = sums.get(task.group, 0.0) + best[task.name]
    return sums


def _note(line: str) -> None:
    print("# " + line, flush=True)


# Exercise/bypass assertions on traced counts: zero versus nonzero only, so
# that an optimisation changing sizes does not trip them.
EXPECT = {
    "smooth": {
        "measures.resolve_window.atoms": "zero",
        "testfunctions.integral_to.calls": "zero",
        "constructions.validate_block_sum.calls": "zero",
    },
    "catalog": {
        "fourier.bessel_j0_vec.points": "zero",
        "constructions.validate_block_sum.calls": "zero",
    },
    "blocks": {
        "constructions.validate_block_sum.calls": "nonzero",
        "fourier.bessel_j0_vec.points": "zero",
    },
}


def _bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _end_to_end(workload: str, seed: int, main: dict, deadline: float) -> dict[str, float]:
    setups = [main["setup_s"]]
    for _ in range(SETUP_WORKERS):
        setups.append(spawn_worker(workload, seed, "setup", 0.0, None, deadline)["setup_s"])
    _note(f"setup_s samples {[round(v, 4) for v in setups]}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(_best_of_passes(main, "seconds").values()),
        "cpu_s": sum(_best_of_passes(main, "cpu_s").values()),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "vanishkit" / "cli.py").is_file():
        raise BenchError(f"no vanishkit sources under {ROOT / 'src'}")
    spec = _bench_spec()
    ref = checks.load_reference(workload)
    _note("env " + json.dumps(_environment(seed), sort_keys=True))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    _note(f"workload {workload}: {why.get(workload, '')}")
    (HERE / "out").mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "out")
    correct = True
    try:
        main = spawn_worker(workload, seed, "run", seconds, out, deadline)
        attempted, failed, texts = _check_outputs(workload, seed, main, out, ref)
        walls = [p["wall_s"] for p in main["passes"]]
        best = _best_of_passes(main, "seconds")
        cmd_times = _command_times(best, workloads.tasks(workload, seed))
        _note(f"passes {len(walls)}, wall_s per pass {[round(w, 3) for w in walls]}")
        _note("command seconds (best of passes) " + json.dumps({k: round(v, 4) for k, v in cmd_times.items()}))
        if not trace:
            values = _end_to_end(workload, seed, main, deadline)
            wanted = spec["end_to_end"]
        else:
            shutil.rmtree(out)
            os.mkdir(out)
            traced = spawn_worker(workload, seed, "trace", 0.0, out, deadline)
            t_att, t_failed, t_texts = _check_outputs(workload, seed, traced, out, ref)
            attempted += t_att
            failed += t_failed
            for name, text in texts.items():
                if checks.normalize(name, t_texts[name]) != checks.normalize(name, text):
                    correct = False
                    _note(f"FAIL {workload}/{name}: traced output differs from untraced output")
            shutil.copy(os.path.join(out, "spans.npz"), HERE / "out" / f"spans-{workload}.npz")
            values = dict(traced["layers"])
            values["trace.overhead_s"] = sum(_best_of_passes(traced, "seconds").values()) - sum(best.values())
            for group in workloads.GROUPS:
                values[f"cmd.{group}_s"] = cmd_times.get(group, 0.0)
            for metric, want in EXPECT[workload].items():
                got = values.get(metric, 0.0)
                if (got == 0) != (want == "zero"):
                    correct = False
                    _note(f"FAIL {workload}: {metric} = {got}, expected {want}")
            wanted = spec["per_layer"]
            _note("all layer figures " + json.dumps({k: round(v, 6) for k, v in sorted(values.items())}))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    return {"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
