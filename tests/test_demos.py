"""The demos run end to end and print what they printed when recorded.

Each demo runs in a fresh interpreter from the repository root with
PYTHONPATH=src, as its docstring tells a reader to run it; the digest is
the sha256 of its stdout.  The README's Python API example runs too, and
gives the values its comments state.
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
            "327e58fc325498f20819ab0336afeac4a5f803d674ddfcbfe5962a3a4035f8af",
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


def _readme_python_api() -> str:
    """The python block under the README's "Python API" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_api_gives_the_values_it_states():
    scope: dict = {}
    exec(_readme_python_api(), scope)
    periods = [str(c) for c in scope["periods"]]
    assert (periods[3], periods[6], periods[9]) == ("6", "90", "1680")
    chart = [str(c) for c in scope["w"].terms.values()]
    assert len(chart) == 6 and chart.count("q") == 1
    assert scope["lattice_point_count"](scope["system"], 2) == 825
    head = [str(c) for c in scope["grass_periods"](scope["ctx"], 8)]
    assert head == ["1", "0", "0", "0", "48q", "0", "0", "0", "15120q^2"]
    assert len(scope["p21"].terms) == 2
    assert str(scope["table"].entry(1, 2, 0)) == "6q"
    assert scope["associativity_check"](scope["table"]) == []
