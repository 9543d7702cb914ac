"""The product runs without networkx: it is a test-only dependency.

A child interpreter blocks the import outright
(``sys.modules["networkx"] = None`` makes ``import networkx`` raise
``ImportError``), then imports the package and the CLI, executes a tiny
workload program on the centralized baseline (routing, graph centre,
diameter) and on FSF with compiled placement (tree paths), and prints
Figure 3's walkthrough.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
sys.modules["networkx"] = None

import repro
import repro.experiments.cli as cli
from dataclasses import replace
from repro.workload.program import execute_program
from repro.workload.scenarios import PLACEMENT

deployment = PLACEMENT.deployment()
for approach, placement in (("centralized", "paper"), ("fsf", "compiled")):
    program = replace(PLACEMENT, placement=placement).program(3)
    execution = execute_program(program.compile(deployment), approach)
    assert len(execution.handles) == 3, approach
    assert execution.final.event_units > 0, approach
assert cli.main(["fig3"]) == 0
"""


def test_src_runs_with_networkx_blocked():
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Figure 3 walkthrough" in done.stdout
