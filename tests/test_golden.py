"""Golden outputs: SHA-256 digests of the files the CLI writes for fixed
configs and of the ``verify`` report it prints, and the case-4 bytes rerun
with numpy's wider SIMD paths disabled.

The digests were recorded under numpy ``GOLDEN_NUMPY``; under another
version their test skips. A change meant to move these bytes updates the
digests and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from windlayout.cli import main

GOLDEN_NUMPY = "2.4.6"

COMPARE = "[ga]\nmax_generations = 40\n[compare]\nseeds = 2\n"
RUNS = {  # run name -> (command, config text)
    "optimize": ("optimize", ""),
    "optimize_case4": ("optimize", "[scenario]\ncase = case4\n"),
    "compare": ("compare", COMPARE),
    "compare_case4": ("compare", "[scenario]\ncase = case4\n" + COMPARE),
    "sweep_case3": ("sweep", "[scenario]\ncase = case3\n[grid]\ncells = 5\n"
                             "[sweep]\nedges = 200 180 160 140\nrepeats = 2\n"
                             "[ga]\nmax_generations = 20\n"),
    "verify": ("verify", ""),
}

GOLDEN = {
    ("optimize", "layout.csv"):
        "0ba641e3b48e30e1bf1ef753aed9e9893997b30199d3d7fd4a9fcc63552b7412",
    ("optimize", "trace.jsonl"):
        "18fa9b3abf4fed45aaf968103080875a2bda9960bbb4a27f99db3306b9bcc145",
    ("optimize_case4", "layout.csv"):
        "eae93b7d86246608e767a51fb82ab71a31963e50e1b96c0d17b0edff4a33f861",
    ("optimize_case4", "trace.jsonl"):
        "d10e924662ba4cd69c120eb3ad64ba183cdb9d6ff84e2e3734f8c1009375550f",
    ("compare", "aga_trace.jsonl"):
        "f46c34ff33f3f88cd81d65511084e4d120db3c76513a532a77c65cf7521e918a",
    ("compare", "conventional_trace.jsonl"):
        "2dc1204855e46dbaf27ec2dffef38c96a06a94443bcf111acf398ffee0066992",
    ("compare", "comparison.json"):
        "e99c3bea0c518f7a5cd53871aa17ac7bb1b8c6f6f43245a680655cf711eb98f2",
    ("compare_case4", "aga_trace.jsonl"):
        "4844ba90bf5f4a04a867f0373c17cf4d0b0cb5ceb8d5e1ff58900bd54c3a8524",
    ("compare_case4", "conventional_trace.jsonl"):
        "bdc406f3e01e605a722fb12f7706d8afbbf5bd23587a71161a5e2bd6ad3c25ae",
    ("compare_case4", "comparison.json"):
        "83e1a4954754ceafa811f7c856b3210ea9e45ffc2fc8713df87588cf15139e54",
    ("sweep_case3", "sweep.csv"):
        "d1f3ed4c03d5756e4086145b6a7c3baf20ac685b8ce0c8c59960094ccd553d10",
    ("sweep_case3", "sweep_summary.json"):
        "83beabdc2057d08460573858c95d9f8ab23ba8ffab437a685c068b16f68ac8fc",
    ("verify", "stdout"):
        "0a99e646a471cf8b00a921ce57abca8b630bfaeee32a90d09efb22cd9d0b4ce7",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Directory holding each run's config (``<run>.ini``) and outputs, its
    stdout included."""
    root = tmp_path_factory.mktemp("golden")
    for run, (command, text) in RUNS.items():
        config = root / f"{run}.ini"
        config.write_text(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([command, "--config", str(config), "--out", str(root / run)]) == 0
        (root / run).mkdir(exist_ok=True)  # verify writes no files
        (root / run / "stdout").write_text(stdout.getvalue())
    return root


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"digests recorded under numpy {GOLDEN_NUMPY}, "
                           f"this is numpy {np.__version__}")
def test_output_digests(outputs):
    digests = {(run, name): hashlib.sha256((outputs / run / name).read_bytes()).hexdigest()
               for run, name in GOLDEN}
    assert digests == GOLDEN


def test_case4_bytes_do_not_depend_on_simd_dispatch(outputs, tmp_path):
    # numpy ignores the names of features the host lacks; X86_V2 is its
    # baseline and cannot be disabled
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "windlayout.cli", "optimize",
                    "--config", str(outputs / "optimize_case4.ini"), "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    for name in ("layout.csv", "trace.jsonl"):
        assert (tmp_path / name).read_bytes() == (outputs / "optimize_case4" / name).read_bytes()
