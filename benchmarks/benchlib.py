"""Shared benchmark helpers, importable by name (not via ``conftest``).

Living in a uniquely named module keeps imports unambiguous when the
benchmark suite is collected together with ``tests/`` (both directories
carry a ``conftest.py``; importing either *as* ``conftest`` is a
collision waiting to happen).
"""

from __future__ import annotations

from repro.network.topology import build_deployment
from repro.workload.scenarios import Scenario


def tiny_bench_deployment(seed: int):
    """Module-level factory so benchmark scenarios pickle into the
    series runner's worker processes."""
    return build_deployment(24, 3, seed=seed)


def tiny_series_scenario() -> Scenario:
    """A small but complete scenario for in-process-vs-pooled series
    fences: 2 measurement points x 4 distributed approaches."""
    return Scenario(
        key="tiny-bench",
        title="tiny bench scenario",
        deployment_factory=tiny_bench_deployment,
        paper_subscription_counts=(60, 120),
        attrs_min=3,
        attrs_max=5,
    )


def render_and_record(benchmark, figure) -> None:
    """Attach the reproduced series to the benchmark record and print it."""
    text = figure.render()
    print("\n" + text)
    benchmark.extra_info["figure"] = figure.figure_id
    benchmark.extra_info["xs"] = list(figure.xs)
    benchmark.extra_info["series"] = {k: list(v) for k, v in figure.series.items()}
