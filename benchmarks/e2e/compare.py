"""Compare two result files of ``run.py --out``: the trajectory gate.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (or the previous baseline), ``B`` the change.  One
row per (workload, end-to-end metric): both medians with their
quartiles, how much worse ``B`` is as a share of ``A``'s median, the
bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — ``B``'s median is worse than ``A``'s by more than the bound;
* ``unresolved`` — it is not, but the spread between runs is wider than
  the bound, so a regression of that size could hide in it;
* ``improved``   — ``B`` is better by more than the spread;
* ``unchanged``  — anything else.

With several runs per file (``run.py --seeds``) the median and
quartiles are taken over the runs; a single-run file falls back to the
quartiles the run took over its own repetitions.  The simulated metrics
(``"exact"`` in the result file) repeat exactly for a seed, so when
both files cover the same seeds they are held to a bound of 0: a
speed-only change must leave them identical.

Exits 1 on a regression, or when a larger share of operations failed
(or, for equal seeds, a larger share of oracle-true answers was
missed); 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parents[2]


def _spread(values: list[float], fallback: dict[str, Any]) -> tuple[float, float, float]:
    """(median, q1, q3) over runs; one run falls back to its own quartiles."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    value = values[0]
    if fallback.get("q1") is not None:
        return value, fallback["q1"], fallback["q3"]
    return value, value, value


def _entries(document: dict[str, Any], workload: str, metric: str) -> list[dict[str, Any]]:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in document["runs"]
        if "metrics" in run["workloads"].get(workload, {})
    ]


def _share(document: dict[str, Any], failed: str, attempted: str) -> float:
    results = [w for run in document["runs"] for w in run["workloads"].values()]
    total = sum(w.get(attempted, 0) for w in results)
    return sum(w.get(failed, 0) for w in results) / total if total else 0.0


def compare(a: dict[str, Any], b: dict[str, Any], contract: dict[str, Any]) -> tuple[list[str], bool]:
    """The report lines, and whether ``b`` passes."""
    same_seeds = [r["seed"] for r in a["runs"]] == [r["seed"] for r in b["runs"]]
    lines = [
        f"{'workload':<17}{'metric':<23}{'A median [q1, q3]':<34}"
        f"{'B median [q1, q3]':<34}{'worse by':>9}{'bound':>7}  verdict"
    ]
    passed = True
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            ea = _entries(a, workload, metric["name"])
            eb = _entries(b, workload, metric["name"])
            if not ea or not eb:
                lines.append(f"{workload:<17}{metric['name']:<23}not in both files")
                continue
            am, aq1, aq3 = _spread([e["value"] for e in ea], ea[0])
            bm, bq1, bq3 = _spread([e["value"] for e in eb], eb[0])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (bm - am) / abs(am)
            noise = max(aq3 - aq1, bq3 - bq1) / abs(am)
            bound = metric["bound"]
            if same_seeds and ea[0].get("exact"):
                # Seed by seed: the median could hide one worse seed.
                worse = max(
                    sign * (y["value"] - x["value"]) / abs(x["value"])
                    for x, y in zip(ea, eb)
                )
                bound, noise = 0.0, 0.0
            if worse > bound:
                verdict, passed = "regressed", False
            elif noise > bound:
                verdict = "unresolved"
            elif worse < 0 and -worse > noise:
                verdict = "improved"
            else:
                verdict = "unchanged"
            lines.append(
                f"{workload:<17}{metric['name']:<23}"
                f"{f'{am:.6g} [{aq1:.6g}, {aq3:.6g}]':<34}"
                f"{f'{bm:.6g} [{bq1:.6g}, {bq3:.6g}]':<34}"
                f"{worse:>+9.2%}{bound:>7.2f}  {verdict}"
            )
    shares = [("ops_failed", "ops_attempted")]
    if same_seeds:
        shares.append(("answers_missed", "answers_expected"))
    for failed, attempted in shares:
        share_a, share_b = _share(a, failed, attempted), _share(b, failed, attempted)
        verdict = "ok"
        if share_b > share_a:
            verdict, passed = "LARGER", False
        lines.append(f"{failed} / {attempted}: A {share_a:.6f}  B {share_b:.6f}  {verdict}")
    return lines, passed


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    documents = []
    for name in argv:
        with open(name) as handle:
            documents.append(json.load(handle))
    with (ROOT / "BENCHMARK.json").open() as handle:
        contract = json.load(handle)
    lines, passed = compare(documents[0], documents[1], contract)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
