"""Approach descriptors and the Table II registry.

The registry (:mod:`repro.protocols.registry`) imports the concrete
approach modules, which in turn import :mod:`repro.protocols.base`; to
keep that import graph acyclic it is imported by its own name, never
through this package.
"""

from .base import Approach, NodeFactory

__all__ = ["Approach", "NodeFactory"]
