"""One benchmark worker: a fresh process with one thread of control.

    python3 perfbench/worker.py --workload W --seed N --mode M --seconds S
        --out DIR

vanishkit is imported from src/ next to the perfbench directory.

Modes:
  setup   import vanishkit and build the CLI parser, report the time, exit.
  run     set up, then run whole passes over the workload's task list until
          S seconds have passed (at least one pass), untraced.
  trace   set up, install the span tracer, run one pass, write the spans.

The first pass's outputs go to DIR/<task>.out for the parent to check; the
last line of stdout is a JSON record of the timings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _run_task(cli, task, tracer, normalize) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.command = task.command
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(task.argv))
        except Exception as exc:  # a raising task is a failed task, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    text = out.getvalue()
    if tracer is not None:
        tracer.command = None
        tracer.counts["specio.emit.bytes"] += len(text)
    record = {
        "name": task.name,
        "exit": code,
        "seconds": seconds,
        "cpu_s": cpu_s,
        "stderr": err.getvalue()[-500:],
        "error": error,
        "sha256": hashlib.sha256(normalize(task.name, text).encode()).hexdigest(),
    }
    return record, text


def _run_pass(cli, tasks, tracer, normalize) -> tuple[dict, dict[str, str]]:
    c0 = time.process_time()
    t0 = time.perf_counter()
    records, texts = [], {}
    for task in tasks:
        rec, text = _run_task(cli, task, tracer, normalize)
        records.append(rec)
        texts[task.name] = text
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "tasks": records,
    }, texts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, here)
    import workloads

    tasks = workloads.tasks(args.workload, args.seed)

    t0 = time.perf_counter()
    import vanishkit.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    src = os.path.realpath(src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"vanishkit was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    from checks import normalize

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    passes = []
    first_texts: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        record, texts = _run_pass(cli, tasks, tracer, normalize)
        passes.append(record)
        if not first_texts:
            first_texts = texts
            # Peak memory of one pass; later passes would only add allocator
            # growth, and their number varies with the machine's speed.
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.mode == "trace" or time.perf_counter() - start >= args.seconds:
            break
    result["passes"] = passes

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        import numpy as np

        np.savez_compressed(
            os.path.join(args.out, "spans.npz"), names=np.array(tracer.names), **tracer.spans()
        )
    if args.out:
        for name, text in first_texts.items():
            with open(os.path.join(args.out, f"{name}.out"), "w", newline="") as fh:
                fh.write(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
