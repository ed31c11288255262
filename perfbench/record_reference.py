"""Record the reference outputs that checks.py compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs one untraced pass of each workload at the default seed and writes
reference/<workload>.json: per task, its command line, exit code and the
extracted output fields.  Re-record only when a change of output is
intended, and say in the change why the old values were wrong.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

import checks
import run
import workloads


def record(workload: str) -> None:
    seed = workloads.DEFAULT_SEED
    (run.HERE / "out").mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix="reference-", dir=run.HERE / "out")
    try:
        result = run.spawn_worker(workload, seed, "run", 0.0, out, time.monotonic() + run.RUN_TIMEOUT_S)
        ref = {}
        for task, rec in zip(workloads.tasks(workload, seed), result["passes"][0]["tasks"]):
            if rec["error"] or rec["exit"] != task.expect_exit:
                raise SystemExit(f"{task.name}: exit {rec['exit']} {rec['error'] or ''}")
            with open(f"{out}/{task.name}.out", newline="") as fh:
                text = fh.read()
            ref[task.name] = {
                "argv": list(task.argv),
                "exit": rec["exit"],
                "output": checks.extract(task, text),
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)
    checks.REF_DIR.mkdir(exist_ok=True)
    with open(checks.REF_DIR / f"{workload}.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REF_DIR / f'{workload}.json'}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
