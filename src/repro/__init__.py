"""repro — dual labeling for constant-time graph reachability queries.

A from-scratch Python reproduction of:

    Haixun Wang, Hao He, Jun Yang, Philip S. Yu, Jeffrey Xu Yu.
    "Dual Labeling: Answering Graph Reachability Queries in Constant
    Time."  ICDE 2006.

Quickstart
----------
>>> from repro import DiGraph, build_index
>>> g = DiGraph([("fiction", "chapter"), ("chapter", "author")])
>>> index = build_index(g, scheme="dual-i")
>>> index.reachable("fiction", "author")
True
>>> index.reachable("author", "fiction")
False

Schemes (see :func:`repro.available_schemes`):

===========  ===============================  ==========  ================
name         structure                        query       space
===========  ===============================  ==========  ================
dual-i       intervals + ⟨x,y,z⟩ + TLC matrix  O(1)        O(n + t²)
dual-ii      intervals + TLC search tree       O(log t)    O(n + t²) worst
dual-rt      intervals + range-temporal tree   O(log² t)   O(n + |T|·log)
interval     Agrawal 1989 interval sets        O(log n)*   O(n)…O(n²)
2hop         Cohen 2002 greedy hop cover       O(|label|)  O(n·m^1/2)
closure      transitive-closure bit matrix     O(1)        O(n²)
online-bfs   none (search per query)           O(n + m)    O(n + m)
grail        randomised intervals + DFS        O(k)…O(m)   O(k·n)
===========  ===============================  ==========  ================

(*) per containment probe; worst-case O(label length).
"""

from repro._version import __version__
from repro.core.base import (
    IndexStats,
    LabelArrays,
    ReachabilityIndex,
    available_schemes,
    build_index,
    get_scheme,
)
from repro.core.batch import reachable_batch
from repro.core.service import QueryService, ServiceMetrics
# Importing the scheme modules registers them with the scheme registry.
from repro.core.dual_i import DualIIndex
from repro.core.dual_ii import DualIIIndex
from repro.core.tlc_rangetree import DualRangeTreeIndex
from repro.baselines.chain_cover import ChainCoverIndex
from repro.baselines.closure_index import TransitiveClosureIndex
from repro.baselines.grail import GrailIndex
from repro.baselines.interval_index import IntervalSetIndex
from repro.baselines.online import OnlineSearchIndex
from repro.baselines.two_hop import TwoHopIndex
from repro.exceptions import (
    CorruptIndexError,
    DatasetError,
    GraphError,
    IndexBuildError,
    NotADAGError,
    QueryError,
    ReproError,
)
from repro.graph.digraph import DiGraph

__all__ = [
    "__version__",
    "DiGraph",
    "build_index",
    "available_schemes",
    "get_scheme",
    "ReachabilityIndex",
    "IndexStats",
    "LabelArrays",
    "reachable_batch",
    "QueryService",
    "ServiceMetrics",
    "DualIIndex",
    "DualIIIndex",
    "DualRangeTreeIndex",
    "IntervalSetIndex",
    "TwoHopIndex",
    "TransitiveClosureIndex",
    "ChainCoverIndex",
    "OnlineSearchIndex",
    "GrailIndex",
    "ReproError",
    "GraphError",
    "NotADAGError",
    "IndexBuildError",
    "CorruptIndexError",
    "QueryError",
    "DatasetError",
]
