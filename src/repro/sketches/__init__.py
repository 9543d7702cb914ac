"""Approximate answer lane: broker-resident mergeable summaries.

The exact pipeline ships raw events toward subscribers; at scale the
traffic bill is the product.  This subsystem gives the brokers a
cheaper, bounded-error alternative for *sketch-eligible* subscriptions
(single-slot range filters over advertised sensors): each broker folds
the readings of its locally attached sensors into a mergeable summary,
summaries combine losslessly along arbitrary tree paths, and the
subscription's home node answers range-count queries from the merged
summary with a deterministic error certificate instead of receiving
raw events.

The summary is :class:`QDigest`, the q-digest quantile summary of
Shrivastava et al., *Medians and Beyond* (PAPERS.md): a dyadic tree
over a quantized value domain with compression parameter ``k`` and the
deterministic rank-error bound ``eps = log2(sigma) / k``; frozen,
picklable and mergeable.

:class:`SketchLane` is the broker-side state machine the network layer
drives behind ``Network(sketch=SketchConfig(...))``; a network without
a sketch config constructs nothing (the null-fence pattern) and is
machine-checked bit-identical to the historical pipeline.
"""

from .lane import ApproxAnswer, SketchConfig, SketchLane
from .messages import SketchPushMessage, SketchSubscribeMessage
from .qdigest import QDigest

__all__ = [
    "ApproxAnswer",
    "QDigest",
    "SketchConfig",
    "SketchLane",
    "SketchPushMessage",
    "SketchSubscribeMessage",
]
