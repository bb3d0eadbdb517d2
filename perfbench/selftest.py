"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

* an untraced and a traced run print a result whose metrics are exactly the
  benchmark's end-to-end and per-layer metrics, with their units, and no op
  fails;
* a run whose results are tampered with (one turbine moved before the check)
  counts every op as failed.

It also checks that the benchmark refuses to run, with a non-zero exit code
and no result, in a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits 0 when every check passes.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--seed", "7", "--seconds", "0.3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        return None
    line = proc.stdout.splitlines()[-1]
    return json.loads(line)


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    return ok


def main():
    passed = True
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(bench("--workload", name, "--trace", str(trace), "--toy"))
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()} if res else None
            passed &= check(f"{name} trace={trace} result", res is not None
                            and set(res) == {"correct", "attempted", "failed", "metrics"}
                            and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1)
            passed &= check(f"{name} trace={trace} metric names and units", got == want,
                            f"expected {want}, got {got}")
        res = result_of(bench("--workload", name, "--trace", "0", "--toy", "--tamper"))
        passed &= check(f"{name} tampered layout counts as a failed op",
                        res is not None and not res["correct"] and res["failed"] == res["attempted"] >= 1)

    (HERE / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=bare)
        passed &= check("refuses to run without the sources",
                        proc.returncode != 0 and '"metrics"' not in proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
