"""Tables I and II plus the Figure 3 walkthrough."""

from repro.experiments.tables import (
    render_table_2,
    render_table_i,
    run_fig3_walkthrough,
)


def test_table1(benchmark):
    """Table I: the subsumption example, checked end to end — s3 is
    jointly subsumed and generates zero subscription traffic."""
    walkthrough = benchmark.pedantic(
        run_fig3_walkthrough, rounds=1, iterations=1
    )
    print("\n" + render_table_i())
    print(walkthrough.render())
    assert walkthrough.covered["n6"] == ["s3[a,b,c]"]
    assert walkthrough.subscription_units == 8
    benchmark.extra_info["subscription_units"] = walkthrough.subscription_units


def test_table2(benchmark):
    """Table II: the approach feature matrix, generated from code."""
    text = benchmark.pedantic(render_table_2, rounds=1, iterations=1)
    print("\n" + text)
    for fragment in (
        "Centralized",
        "Naive approach",
        "Distributed operator placement",
        "Distributed multi-join",
        "Filter-Split-Forward",
        "Set filtering",
        "Binary joins",
        "Per neighbor",
        "Full result sets",
    ):
        assert fragment in text
