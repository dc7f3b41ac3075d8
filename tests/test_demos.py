"""The demos run end to end and print what they printed when recorded.

Each demo runs in a fresh interpreter from the repository root with
PYTHONPATH=src, as its docstring tells a reader to run it; the digest is
the sha256 of its stdout.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, digest",
    [
        (
            "catalog_periods.py",
            "a4ac311f3977dc4a5eb6553be8ac477b791f49227b31a640e7a6d2d5bdf5cff2",
        ),
        (
            "grassmannian_chart.py",
            "9e74494b1cf77b18ff32a38105f5815c97060ee02523e3e15a25459329b2af5b",
        ),
        (
            "structure_constants.py",
            "dded79d85bbed851d178f3185110b74bc658bab12efe17c25131320a246e6059",
        ),
    ],
    ids=["catalog_periods", "grassmannian_chart", "structure_constants"],
)
def test_demo_output_is_frozen(demo, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == digest
