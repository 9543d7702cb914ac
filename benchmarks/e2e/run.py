"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N | --seeds A-B]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE | --baseline FILE]

Each workload runs in its own child process, one after the other:
pinned to one CPU, ``PYTHONHASHSEED`` fixed, so a workload's peak RSS
and set-up time are its own.  Per workload the command prints every
metric with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace`` the per-layer ones.
It exits non-zero when a correctness check fails.

The benchmark measures the source tree it sits in (``../../src``) and
refuses to run without it; an installed copy of the package is never
used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 170  # the driver allows one run 180 s


def load_contract() -> dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# child: measure one workload in this process
# ---------------------------------------------------------------------------
def run_child(args: argparse.Namespace) -> int:
    """Measure ``args.workload``; print the result as the last line."""
    if args.cpu >= 0:
        try:
            os.sched_setaffinity(0, {args.cpu})
        except OSError:
            args.cpu = -1  # not allowed here: run unpinned, and say so
    from e2e import layers, measure, workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = layers.run_traced(workload, args.seed, args.smoke, OUT_DIR)
    else:
        result = measure.run_end_to_end(workload, args.seed, args.seconds, args.smoke)
    result["cpu"] = args.cpu
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def spawn_child(
    args: argparse.Namespace, workload: str, seed: int
) -> dict[str, Any] | None:
    """Run one workload in a pinned child; None when it produced nothing."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    cpu = cpus[-1] if cpus else -1
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)),
        "--cpu", str(cpu),
    ] + (["--smoke"] if args.smoke else [])
    started = time.perf_counter()
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s and was stopped")
        return None
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload}: child exited {child.returncode} without a result")
        print(stdout)
        return None
    result["child_wall_s"] = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# parent: print, collect, write
# ---------------------------------------------------------------------------
def _fmt(entry: dict[str, Any] | float | None, unit: str) -> str:
    if not isinstance(entry, dict):
        entry = {"value": entry}
    if entry["value"] is None:
        return "null"
    text = f"{entry['value']:.6g} {unit}"
    if entry.get("q1") is not None:
        text += f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
    elif entry.get("n", 1) > 1:
        text += f"  [n={entry['n']}]"
    return text


def report(result: dict[str, Any], contract: dict[str, Any], trace: bool) -> bool:
    """Print one workload's block and its contract line; True if correct."""
    name = result["workload"]
    print(
        f"== {name}  seed={result['seed']} cells={','.join(result['cells'])} "
        f"readings={result['readings']} cpu={result['cpu']}"
    )
    for failure in result["failures"]:
        print(f"   CHECK FAILED  {failure}")
    declared = contract["per_layer" if trace else "end_to_end"]
    values = result.get("layers" if trace else "metrics")
    if values is None:
        return False
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"   CHECK FAILED  metrics not measured: {', '.join(missing)}")
        return False
    for metric in declared:
        line = f"   {metric['name']:<42} {_fmt(values[metric['name']], metric['unit'])}"
        reason = result.get("unavailable", {}).get(metric["name"])
        print(line + (f"  ({reason})" if reason else ""))
    if trace:
        shares = "  ".join(f"{k} {v:.1%}" for k, v in result["replay_shares"].items())
        print(f"   self time / traced replay wall: {shares}")
        print(f"   spans written to {result['trace_file']}")
    else:
        print(
            f"   {result['rounds']} timed rounds; times are CPU seconds x {result['speed']:.2f} "
            f"(box speed vs reference), wall/CPU {result['wall_over_cpu']:.2f}; "
            f"child took {result['child_wall_s']:.1f} s wall"
        )
        print(
            f"   answers: {result['answers_expected']} oracle-true instances, "
            f"{result['answers_missed']} not delivered"
        )

    def number(metric: dict[str, Any]) -> float:
        entry = values[metric["name"]]
        value = entry["value"] if isinstance(entry, dict) else entry
        # The contract line carries numbers only: a per-layer metric
        # whose target is gone reads 0 there (its reason is printed
        # above and kept in the result file).
        return 0.0 if value is None else value

    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["ops_attempted"],
                "failed": result["ops_failed"],
                "metrics": {
                    m["name"]: {"value": number(m), "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return bool(result["correct"])


def provenance() -> dict[str, Any]:
    """Where and on what the numbers were taken."""

    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def version(module: str) -> str | None:
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "platform": platform.platform(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", metavar="A-B",
                        help="one run per seed A..B (a set for compare.py)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="per-layer run with the tracer installed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition: a harness self-test")
    parser.add_argument("--out", type=Path, help="write the results as JSON")
    parser.add_argument("--baseline", type=Path,
                        help="like --out, but refuses a dirty or unknown tree")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, default=-1, help=argparse.SUPPRESS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no source tree at {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.child:
        return run_child(args)
    seeds = [args.seed]
    if args.seeds is not None:
        first, _, last = args.seeds.partition("-")
        seeds = list(range(int(first), int(last or first) + 1))

    target = args.baseline or args.out
    stamp = provenance() if target is not None else None
    if args.baseline is not None and stamp["dirty"] is not False:
        print("refusing to write a baseline: the tree is dirty or not a git "
              "checkout (use --out for a scratch result)", file=sys.stderr)
        return 2
    runs: list[dict[str, Any]] = []
    correct = True
    for seed in seeds:
        results: dict[str, Any] = {}
        for name in [args.workload] if args.workload else names:
            result = spawn_child(args, name, seed)
            if result is None:
                correct = False
                continue
            correct &= report(result, contract, bool(args.trace))
            results[name] = result
        runs.append({"seed": seed, "workloads": results})
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as handle:
            json.dump(
                {
                    "provenance": stamp,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "trace": bool(args.trace),
                    "runs": runs,
                },
                handle,
                indent=1,
            )
    return 0 if correct else 1


if __name__ == "__main__":
    # Run as a script: import the siblings as the package ``e2e`` (so
    # that ``trace.py`` never shadows the standard library's ``trace``)
    # and the checkout's own ``src``.
    sys.path[0:1] = [str(ROOT / "src"), str(HERE.parent)]
    raise SystemExit(main())
