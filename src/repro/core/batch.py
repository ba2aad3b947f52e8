"""Vectorised batch reachability queries over any index with label arrays.

Analytics workloads (the paper's 100k-query loops, XML join evaluation,
all-pairs sampling) ask millions of reachability questions at once.
Schemes whose labels live in dense arrays answer whole batches with a
handful of numpy gathers — no Python-level loop, an order of magnitude
faster than calling ``reachable`` per pair.

:func:`reachable_batch` answers one-off batches through the public
:meth:`~repro.core.base.ReachabilityIndex.label_arrays` kernel of *any*
scheme that provides one (Dual-I, Dual-II, the closure matrix, interval
sets) and transparently falls back to the scalar loop for schemes
without a kernel.  For repeated batches with metrics, the cross-product
matrix form, and the binary-frame path, see
:class:`repro.core.service.QueryService`.
"""

from __future__ import annotations

from repro.core.base import ReachabilityIndex
from repro.graph.digraph import Node

__all__ = ["reachable_batch"]


def reachable_batch(index: ReachabilityIndex,
                    pairs: list[tuple[Node, Node]]) -> list[bool]:
    """One-shot vectorised batch query.

    Falls back to the scalar ``reachable`` loop for schemes without a
    vectorised kernel, so it is safe to call on any index.
    """
    arrays = index.label_arrays()
    if arrays is None:
        return index.reachable_many(pairs)
    return arrays.query_pairs(pairs).tolist()
