"""tools/cell_footprint.py at smoke size: both reports run and parse.

The tool traces one benchmark cell's allocations by source line
(default) or counts the registrations the ingest index scans per
arrival (``--scan``).  The full-size runs are for the person asking;
here one smoke-size cell checks the two reports' shape.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cell_footprint.py"


def run(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(TOOL), "small_static", "multijoin", "--smoke", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_footprint_lists_the_top_sites():
    lines = run("--top", "5")
    assert lines[0] == "small_static / multijoin (smoke)"
    assert re.fullmatch(r"[\d.]+ MB traced .* \d+ blocks", lines[1])
    rows = lines[3:]
    assert len(rows) == 5
    sizes = [float(row.split("MB")[0]) for row in rows]
    assert sizes == sorted(sizes, reverse=True)
    assert any("repro/matching/engine.py:" in row for row in rows)


def test_scan_reports_registrations_per_arrival():
    lines = run("--scan")
    assert re.fullmatch(r"\d+ arrivals scanned a registration list", lines[1])
    assert lines[2].startswith("registrations per scan: mean ")
    assert re.fullmatch(r"accepting: \d+% of registrations scanned", lines[3])
