"""Mergeable summaries: the q-digest quantile summary.

:class:`QDigest` is the q-digest of Shrivastava et al., *Medians and
Beyond* (PAPERS.md): a dyadic tree over a quantized value domain with
compression parameter ``k`` and the deterministic rank-error bound
``eps = log2(sigma) / k``; frozen, picklable and mergeable.  Nothing in
the pipeline reads it yet: it is kept, with its property suite, to
summarise distributions such as detection latencies.
"""

from .qdigest import QDigest

__all__ = ["QDigest"]
