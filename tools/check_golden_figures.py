#!/usr/bin/env python
"""Check the smoke figure suite's printed output against its golden copy.

Runs ``repro-experiments all --family beyond --scale smoke`` (the CLI
module, with ``src/`` on the path) and compares its stdout, byte for
byte, with ``tests/golden_figures_smoke.txt``.  A difference exits 1
and prints a unified diff; ``--update`` writes the new output instead.
A change meant to move a figure regenerates the file, so the moved
values show in the diff under review.

The worker count is the caller's ``REPRO_WORKERS``: a sharded run must
print the same bytes as a serial one.

    python tools/check_golden_figures.py [--update]
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_figures_smoke.txt"
COMMAND = [
    sys.executable, "-m", "repro.experiments.cli",
    "all", "--family", "beyond", "--scale", "smoke",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the golden file"
    )
    args = parser.parse_args(argv)
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    run = subprocess.run(
        COMMAND,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        print(f"figure suite exited {run.returncode}", file=sys.stderr)
        return run.returncode
    name = GOLDEN.relative_to(ROOT)
    if args.update:
        GOLDEN.write_text(run.stdout)
        print(f"wrote {name} ({len(run.stdout.splitlines())} lines)")
        return 0
    expected = GOLDEN.read_text()
    if run.stdout == expected:
        print(f"{name}: identical ({len(expected.splitlines())} lines)")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            run.stdout.splitlines(keepends=True),
            fromfile=f"{name} (golden)",
            tofile="repro-experiments all --family beyond --scale smoke",
        )
    )
    print(
        "figure output differs from the golden copy; if the change is meant "
        "to move it, rerun with --update",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
