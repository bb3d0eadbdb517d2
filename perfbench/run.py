"""windlayout benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Each run starts its child processes
one after another, never more than one at a time:

1. with ``--trace 0``, several set-up probes, each a fresh process that times
   building the workload's grid, scenario and one ``FarmEvaluator`` after
   imports; ``setup_s`` is their median (see hostspeed.py for its unit);
2. one worker process that runs the workload's CLI ops in a closed loop for
   ``--seconds`` seconds of op time and checks every op against the oracle.

Children run with ``src`` on the import path and the BLAS/OpenMP thread
counts pinned to 1. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the worker's environment and per-op records (seed, best_eta, output digest).
Exit code 0 means a result was printed; anything else means the run itself
broke (no sources, a crashed or hung child) and no result was printed.
"""

import argparse
import contextlib
import json
import os
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

from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = HERE / ".work"
RUN_BUDGET_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunBroken(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args, work, deadline):
    """Run one worker process to completion; return its stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work-dir", str(work), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunBroken(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise RunBroken(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise RunBroken(f"worker printed nothing: {' '.join(args)}")
    return lines


def run(args):
    if not (ROOT / "src" / "windlayout" / "cli.py").is_file():
        raise RunBroken(f"no windlayout sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    wkl = WORKLOADS[args.workload]
    common = ["--workload", wkl.name, *(["--toy"] if args.toy else [])]
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wkl.name}-", dir=WORK_ROOT)
    try:
        setup = []
        if not args.trace:
            for _ in range(1 if args.toy else wkl.setup_probes):
                line = run_child([*common, "--probe"], work, deadline)[-1]
                setup.append(json.loads(line)["setup_s"])
        lines = run_child([*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace), *(["--tamper"] if args.tamper else [])],
                          work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main():
    parser = argparse.ArgumentParser(description="windlayout benchmark, one workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="run the workload at toy size")
    parser.add_argument("--tamper", action="store_true",
                        help="move one turbine of every op's result before it is checked")
    args = parser.parse_args()
    try:
        run(args)
    except RunBroken as exc:
        print(f"benchmark broken: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
