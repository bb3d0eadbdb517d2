"""Benchmark worker: runs one workload's ops in this process through
``windlayout.cli.main`` and checks every op against the independent oracle.

Started by run.py with the thread-count variables pinned and ``src`` on the
import path. Two modes:

* ``--probe``: time one set-up (grid, scenario, one ``FarmEvaluator``) after
  imports and print ``{"setup_s": ...}``.
* default: a closed loop, one op at a time, until the ops have taken
  ``--seconds`` seconds of wall time. Prints an ``env`` record, one record
  per op (seed, best_eta, digest of the op's outputs) and, as its last line,
  ``{"attempted", "failed", "metrics"}``. With ``--trace 1`` every second op
  runs under the tracer and the metrics are the per-layer ones.

Every set-up and every op is timed between two passes of a fixed kernel
(hostspeed.py). For a workload marked ``rescaled`` the times are reported in
reference seconds, rescaled by the kernel's speed so that the host's slow and
fast spells cancel out; other workloads report wall time. Records keep the
raw wall time as ``wall_s`` and the kernel time as ``kernel_s``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import windlayout  # noqa: E402
import windlayout.cli  # noqa: E402
from hostspeed import kernel_s, reference_s  # noqa: E402
from tracer import Tracer, rebind  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An op's outputs disagree with the oracle or with each other."""


def op_seeds(seed: int, count: int) -> list:
    """The first ``count`` per-op chaos seeds derived from the workload seed;
    a longer list extends a shorter one."""
    base = 0.05 + 0.9 * ((seed * 0.7548776662466927 + 0.1357) % 1.0)
    return windlayout.study.repeat_seeds(base, count)


class Capture:
    """Keeps what each ``run_aga`` call returns, so a sweep op's inner runs
    can be checked; wraps the function without timing anything."""

    def __init__(self):
        self.runs = []  # (grid, best layout, trace)
        self._undo = []

    def install(self):
        original = windlayout.optimizer.run_aga
        runs = self.runs

        def run_aga(params, grid, *args, **kwargs):
            best, trace = original(params, grid, *args, **kwargs)
            runs.append((grid, best, trace))
            return best, trace

        self._undo = [(mod, name, original) for mod, name in rebind(original, run_aga)]

    def uninstall(self):
        for mod, name, original in self._undo:
            setattr(mod, name, original)


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Reference:
    """Inputs rebuilt from the workload definition for the oracle."""

    def __init__(self, wkl):
        self.wkl = wkl
        self.spec = windlayout.TurbineSpec()
        self.scenario = windlayout.case_scenario(wkl.case)
        self.grid = windlayout.build_grid(wkl.side, wkl.cells)

    def check_layout(self, indices, grid):
        n = self.wkl.turbines
        require(len(indices) == n, f"layout has {len(indices)} turbines, expected {n}")
        require(len(set(indices)) == n, "layout indices are not distinct")
        require(all(0 <= i < grid.count for i in indices), "layout index out of range")

    def oracle(self, indices, grid):
        return windlayout.straight_line_eval(grid.points[list(indices)], self.scenario, self.spec)

    def check_trace(self, etas, generations_ranked):
        require(generations_ranked == self.wkl.generations + 1,
                f"{generations_ranked} generations ranked, expected {self.wkl.generations + 1}")
        require(all(b >= a for a, b in zip(etas, etas[1:])), "trace best_eta decreased")


def read_layout_csv(path, grid):
    rows = [ln.strip() for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    require(rows and rows[0] == "index,x,y", "layout.csv lacks its header")
    indices = []
    for row in rows[1:]:
        i, x, y = row.split(",")
        i = int(i)
        require(0 <= i < grid.count, "layout index out of range")
        require((float(x), float(y)) == tuple(grid.points[i]), f"layout row {row!r} is off the grid")
        indices.append(i)
    return indices


def read_trace_jsonl(path):
    records = [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]
    return [r for r in records if "generation" in r]


def check_optimize(ref, out: Path):
    """Oracle check of one optimize op; returns (best_eta, layouts ranked, digest)."""
    layout_csv, trace_jsonl = out / "layout.csv", out / "trace.jsonl"
    indices = read_layout_csv(layout_csv, ref.grid)
    ref.check_layout(indices, ref.grid)
    summary = json.loads((out / "summary.json").read_text())
    truth = ref.oracle(indices, ref.grid)
    require(rel_dev(summary["efficiency"], truth.efficiency) <= REL_TOL,
            f"summary efficiency {summary['efficiency']!r} != oracle {truth.efficiency!r}")
    require(rel_dev(summary["total_power_kw"], truth.total_power) <= REL_TOL,
            "summary total power disagrees with the oracle")
    trace = read_trace_jsonl(trace_jsonl)
    ref.check_trace([r["best_eta"] for r in trace], len(trace))
    require(sorted(trace[-1]["best_layout"]) == sorted(indices), "layout.csv is not the trace's best layout")
    require(rel_dev(trace[-1]["best_eta"], truth.efficiency) <= REL_TOL, "trace best_eta disagrees with the oracle")
    require(summary["generations"] == trace[-1]["generation"], "summary generations disagree with the trace")
    digest = hashlib.sha256(layout_csv.read_bytes() + trace_jsonl.read_bytes()).hexdigest()
    return truth.efficiency, len(trace) * ref.wkl.population, digest


def check_sweep(ref, out: Path, runs):
    """Oracle check of one sweep op and the inner runs it made."""
    wkl = ref.wkl
    sweep_csv = out / "sweep.csv"
    rows = [ln.split(",") for ln in sweep_csv.read_text().splitlines() if ln and not ln.startswith("#")]
    require(rows and rows[0] == ["edge", "area_fraction", "power_fraction", "n_runs", "stderr"],
            "sweep.csv lacks its header")
    rows = [[float(v) for v in row] for row in rows[1:]]
    require(len(rows) == len(wkl.edges), f"sweep.csv has {len(rows)} rows for {len(wkl.edges)} edges")
    require(rows[0][2] == 1.0, "first power_fraction is not 1")
    require(len(runs) == len(wkl.edges), f"{len(runs)} optimizer runs for {len(wkl.edges)} edges")
    etas, powers, ranked, blob = [], [], 0, [sweep_csv.read_bytes()]
    for edge, row, (grid, best, trace) in zip(wkl.edges, rows, runs):
        require(row[0] == edge, f"sweep.csv edge {row[0]!r} != {edge!r}")
        require(np.array_equal(grid.points, windlayout.build_grid(edge * wkl.cells, wkl.cells).points),
                f"edge {edge}: optimizer ran on another grid")
        indices = list(best.occupied)
        ref.check_layout(indices, grid)
        ref.check_trace([t.best_eta for t in trace], len(trace))
        require(indices == list(trace[-1].best_layout.occupied), "best layout is not the trace's")
        truth = ref.oracle(indices, grid)
        require(rel_dev(trace[-1].best_eta, truth.efficiency) <= REL_TOL,
                f"edge {edge}: best_eta disagrees with the oracle")
        etas.append(truth.efficiency)
        powers.append(truth.total_power)
        ranked += len(trace) * wkl.population
        blob.append(json.dumps([[t.generation, t.best_eta, t.mean_eta, list(t.best_layout.occupied)]
                                for t in trace]).encode())
    for row, power in zip(rows, powers):
        require(rel_dev(row[2], power / powers[0]) <= REL_TOL, "power_fraction disagrees with the oracle")
        require(rel_dev(row[1], (row[0] / rows[0][0]) ** 2) <= REL_TOL, "area_fraction is wrong")
    return statistics.fmean(etas), ranked, hashlib.sha256(b"".join(blob)).hexdigest()


def tamper(wkl, out: Path, grid, runs):
    """Move one turbine of the op's result to a free neighbouring cell."""
    if wkl.command == "sweep":
        grid, best, trace = runs[0]
        occupied = list(best.occupied)
    else:
        rows = (out / "layout.csv").read_text().splitlines()
        occupied = [int(r.split(",")[0]) for r in rows[2:]]
    moved = next(i for i in (occupied[0] + 1, occupied[0] - 1, *range(grid.count))
                 if 0 <= i < grid.count and i not in occupied)
    occupied[0] = moved
    if wkl.command == "sweep":
        runs[0] = (grid, windlayout.Layout(tuple(occupied), grid.count), trace)
        return
    x, y = (float(c) for c in grid.points[moved])
    rows[2] = f"{moved},{x!r},{y!r}"
    (out / "layout.csv").write_text("\n".join(rows) + "\n")


def run_op(wkl, config, seed, out: Path):
    argv = [wkl.command, "--config", str(config), "--seed", repr(seed), "--out", str(out)]
    sink = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = windlayout.cli.main(argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        traceback.print_exc()
        code = -1
    return time.perf_counter() - t0, time.process_time() - c0, code


def probe(wkl):
    spec = windlayout.TurbineSpec()
    kernel_s()  # first pass faults in the kernel's arrays; not used
    before = kernel_s()
    t0 = time.perf_counter()
    grid = windlayout.build_grid(wkl.side, wkl.cells)
    scenario = windlayout.case_scenario(wkl.case)
    evaluator = windlayout.FarmEvaluator(grid.points, scenario, spec)
    elapsed = time.perf_counter() - t0
    kernel = (before + kernel_s()) / 2.0
    if not evaluator.unit_power > 0.0:
        sys.exit("set-up probe: evaluator has no wake-free power")
    setup_s = reference_s(elapsed, kernel) if wkl.rescaled else elapsed
    print(json.dumps({"setup_s": setup_s, "wall_s": elapsed, "kernel_s": kernel}))


def environment():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_ops(wkl, args, work: Path):
    config = work / "run.ini"
    config.write_text(wkl.config_text())
    ref = Reference(wkl)

    # one small op first, so imports and first-call costs stay out of the timings
    toy = wkl.toy()
    (work / "toy.ini").write_text(toy.config_text())
    run_op(toy, work / "toy.ini", 0.1357, work / "warmup")
    kernel_s()

    capture = Capture()
    capture.install()
    tracer = Tracer() if args.trace else None
    seeds = op_seeds(args.seed, 64)
    min_ops = max(wkl.eta_ops, 2 if args.trace else 1)
    records = []
    measured = 0.0
    while len(records) < min_ops or measured < args.seconds:
        k = len(records)
        if k == len(seeds):
            seeds = op_seeds(args.seed, 2 * k)
        traced = tracer is not None and k % 2 == 1
        out = work / f"op{k}"
        capture.runs.clear()
        if traced:
            tracer.op = k
            tracer.install(windlayout)
        before = kernel_s()
        wall, cpu, code = run_op(wkl, config, seeds[k], out)
        kernel = (before + kernel_s()) / 2.0
        if traced:
            tracer.uninstall()
        measured += wall

        t0 = time.perf_counter()
        op_s = reference_s(wall, kernel) if wkl.rescaled else wall
        record = {"op": k, "seed": seeds[k], "exit_code": code, "op_s": op_s,
                  "wall_s": wall, "cpu_s": cpu, "kernel_s": kernel, "traced": traced}
        try:
            require(code == 0, f"exit code {code}")
            if args.tamper:
                tamper(wkl, out, ref.grid, capture.runs)
            if wkl.command == "sweep":
                eta, ranked, digest = check_sweep(ref, out, capture.runs)
            else:
                eta, ranked, digest = check_optimize(ref, out)
            record.update(ok=True, best_eta=eta, layouts=ranked, digest=digest)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            record.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
        record["check_s"] = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps(record), flush=True)
        records.append(record)
    capture.uninstall()
    return records, tracer


def end_to_end(wkl, records):
    good = [r for r in records if r["ok"]]
    first = records[: wkl.eta_ops]
    return {
        "op_s": (statistics.fmean(r["op_s"] for r in records), "s"),
        "layouts_per_s": (sum(r["layouts"] for r in good) / sum(r["op_s"] for r in records), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "best_eta": (statistics.fmean(r.get("best_eta", 0.0) for r in first), "fraction"),
        "success_rate": (len(good) / len(records), "fraction"),
    }


def per_layer(records, tracer):
    metrics = tracer.layer_metrics(sum(r["traced"] for r in records))
    traced = [r["op_s"] for r in records if r["traced"]]
    plain = [r["op_s"] for r in records if not r["traced"]]
    metrics["oracle.check_s"] = (statistics.median(r["check_s"] for r in records), "s/op")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="time one set-up and exit")
    parser.add_argument("--toy", action="store_true", help="run the workload at toy size")
    parser.add_argument("--tamper", action="store_true", help="move one turbine before each check")
    parser.add_argument("--work-dir", required=True, help="scratch directory for configs and outputs")
    args = parser.parse_args()
    wkl = WORKLOADS[args.workload]
    if args.toy:
        wkl = wkl.toy()
    if args.probe:
        probe(wkl)
        return

    print(json.dumps({"env": environment(), "workload": wkl.name}), flush=True)
    records, tracer = run_ops(wkl, args, Path(args.work_dir))
    metrics = per_layer(records, tracer) if tracer else end_to_end(wkl, records)
    print(json.dumps({
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
