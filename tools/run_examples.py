#!/usr/bin/env python
"""Execute every script under ``examples/`` as a smoke test.

Used by the ``examples-smoke`` CI job: each example runs in-process
(sharing one interpreter keeps the job fast) with every
``DeprecationWarning`` raised from a ``repro.*`` module escalated to an
error — an example reaching deprecated code inside the package fails
the build, third-party deprecations do not.  Scripts run in sorted
order, each under its own ``__main__`` namespace, with argv reset so
argument-reading examples use their defaults.

Run:  PYTHONPATH=src python tools/run_examples.py [examples_dir]
"""

from __future__ import annotations

import runpy
import sys
import time
import warnings
from pathlib import Path


def main(argv: list[str]) -> int:
    examples = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "examples"
    scripts = sorted(p for p in examples.glob("*.py") if not p.name.startswith("_"))
    if not scripts:
        print(f"no example scripts found under {examples}", file=sys.stderr)
        return 2
    failures = []
    for script in scripts:
        print(f"=== {script.name} ===", flush=True)
        started = time.perf_counter()
        saved_argv = sys.argv
        sys.argv = [str(script)]
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "error", category=DeprecationWarning, module=r"repro(\.|$)"
                )
                runpy.run_path(str(script), run_name="__main__")
        except DeprecationWarning as warning:
            failures.append((script.name, f"deprecated repro API: {warning}"))
            print(f"FAILED {script.name}: deprecated repro API: {warning}", file=sys.stderr)
        except SystemExit as exit_:  # examples may sys.exit(0)
            if exit_.code not in (None, 0):
                failures.append((script.name, f"exit code {exit_.code}"))
                print(f"FAILED {script.name}: exit code {exit_.code}", file=sys.stderr)
        except Exception as error:  # noqa: BLE001 - report and continue
            failures.append((script.name, repr(error)))
            print(f"FAILED {script.name}: {error!r}", file=sys.stderr)
        finally:
            sys.argv = saved_argv
        print(f"--- {script.name}: {time.perf_counter() - started:.1f}s", flush=True)
    if failures:
        print(f"\n{len(failures)} example(s) failed:", file=sys.stderr)
        for name, reason in failures:
            print(f"  {name}: {reason}", file=sys.stderr)
        return 1
    print(f"\nall {len(scripts)} examples passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
