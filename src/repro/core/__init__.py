"""The paper's primary contribution: Filter-Split-Forward processing.

Algorithms 1-5 of Section V, built on the shared network substrate and
the per-slot set filter.  The four comparison systems live in
``repro.baselines``.
"""

from .filter_split_forward import (
    FSFConfig,
    FilterSplitForwardNode,
    filter_split_forward_approach,
)

__all__ = [
    "FSFConfig",
    "FilterSplitForwardNode",
    "filter_split_forward_approach",
]
