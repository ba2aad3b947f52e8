"""Common reachability-index API, statistics, and the scheme registry.

Every index in this package — Dual-I, Dual-II, the interval and 2-hop
baselines, the transitive-closure matrix, and the online search —
implements the same small surface:

* ``Index.build(graph, **options)`` — classmethod constructor; accepts any
  directed graph (cyclic inputs are condensed internally);
* ``index.reachable(u, v)`` — the reachability test on *original* nodes;
* ``index.stats()`` — an :class:`IndexStats` with build timings and a
  logical space breakdown.

Space accounting convention
---------------------------
The paper reports label sizes of a C++ implementation.  To make our
Figures 12/14 comparable in *shape*, :class:`IndexStats` counts logical
bytes — 4 bytes per stored integer label component and the native byte
size of matrix/array payloads — rather than Python object overhead, which
would drown every scheme in interpreter constants.  The convention is
applied uniformly across schemes, so relative comparisons are fair.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence, Type

import numpy as np

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph, Node

__all__ = [
    "INT_BYTES",
    "DenseComponentMap",
    "IndexStats",
    "LabelArrays",
    "ReachabilityIndex",
    "register_scheme",
    "available_schemes",
    "get_scheme",
    "build_index",
]

#: Logical size of one stored integer label component (see module docs).
INT_BYTES = 4


@dataclass
class IndexStats:
    """Build-time and space statistics of a reachability index.

    Attributes
    ----------
    scheme:
        Registry name of the scheme.
    num_nodes / num_edges:
        Size of the *original* input graph.
    dag_nodes / dag_edges:
        Size after SCC condensation (equal to the input for DAGs).
    meg_edges:
        Edge count after minimal-equivalent-graph reduction; ``None`` when
        MEG was not run.
    t:
        Number of retained non-tree edges (dual schemes only).
    transitive_links:
        Size of the transitive link table (dual schemes only).
    build_seconds:
        Total wall-clock build time.
    phase_seconds:
        Per-phase timings (condense, meg, spanning, labeling, ...).
    space_bytes:
        Logical space per component (see module docstring).
    """

    scheme: str
    num_nodes: int
    num_edges: int
    dag_nodes: int
    dag_edges: int
    meg_edges: int | None = None
    t: int | None = None
    transitive_links: int | None = None
    build_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    space_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def total_space_bytes(self) -> int:
        """Sum of all space components."""
        return sum(self.space_bytes.values())

    def as_dict(self) -> dict[str, Any]:
        """Flat dictionary view for CSV/markdown reporting."""
        row: dict[str, Any] = {
            "scheme": self.scheme,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "dag_nodes": self.dag_nodes,
            "dag_edges": self.dag_edges,
            "meg_edges": self.meg_edges,
            "t": self.t,
            "transitive_links": self.transitive_links,
            "build_seconds": self.build_seconds,
            "total_space_bytes": self.total_space_bytes,
        }
        for phase, seconds in self.phase_seconds.items():
            row[f"seconds_{phase}"] = seconds
        for component, nbytes in self.space_bytes.items():
            row[f"bytes_{component}"] = nbytes
        return row


class DenseComponentMap(Mapping):
    """``node -> component id`` read from a dense array (``-1``: no such
    node) — a loaded index's node table for small non-negative ints."""

    def __init__(self, lookup: np.ndarray) -> None:
        self.lookup = lookup

    def __getitem__(self, node: Node) -> int:
        cid = -1
        if isinstance(node, int) and 0 <= node < len(self.lookup):
            cid = int(self.lookup[node])
        if cid < 0:
            raise KeyError(node)
        return cid

    def __iter__(self):
        return iter(np.flatnonzero(self.lookup >= 0).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.lookup >= 0))


class LabelArrays(abc.ABC):
    """Public vectorised view of an index's label arrays.

    A kernel answers reachability for whole *vectors* of dense component
    ids in one shot — the batch counterpart of
    :meth:`ReachabilityIndex.reachable`.  Schemes whose labels live in
    dense per-component arrays (Dual-I's intervals + TLC matrix, Dual-II's
    intervals + search tree, the closure bit matrix, interval sets) expose
    one via :meth:`ReachabilityIndex.label_arrays`; schemes with no dense
    representation return ``None`` and callers fall back to the scalar
    loop.

    Subclasses implement :meth:`query_components`; the node-level helpers
    (:meth:`components_of`, :meth:`query_pairs`) are shared.  ``u == v``
    and same-component pairs must answer ``True`` (reflexive reachability,
    matching the scalar convention).
    """

    def __init__(self, component_of: Mapping[Node, int]) -> None:
        #: Mapping from original nodes to the dense ids the arrays are
        #: indexed by (SCC component ids for condensation-based schemes).
        self.component_of = component_of
        # Lazily-built dense int lookup (``False`` = not attempted yet).
        self._dense_lookup: np.ndarray | None | bool = False
        # True when the lookup table has no holes, so mapped ids never
        # need the per-element missing check.
        self._lookup_complete = False

    # -- abstract kernel ------------------------------------------------
    @abc.abstractmethod
    def query_components(self, cu: np.ndarray,
                         cv: np.ndarray) -> np.ndarray:
        """Boolean reachability for aligned component-id vectors."""

    # -- shared node-level helpers --------------------------------------
    def _build_dense_lookup(self) -> np.ndarray | None:
        """Dense ``node id -> component id`` table for int node spaces.

        Generated graphs label nodes ``0..n-1``; for those the per-node
        dict probe is the batch bottleneck, so we flatten the mapping
        into one gather.  Non-int or very sparse node ids keep the dict.
        A :class:`DenseComponentMap` already is such a table.
        """
        mapping = self.component_of
        if isinstance(mapping, DenseComponentMap):
            lookup = mapping.lookup.astype(np.int64)
        elif not mapping:
            return None
        else:
            max_key = -1
            for node in mapping:
                if not isinstance(node, int) or isinstance(node, bool) \
                        or node < 0:
                    return None
                if node > max_key:
                    max_key = node
            if max_key >= 4 * len(mapping) + 1024:
                return None
            lookup = np.full(max_key + 1, -1, dtype=np.int64)
            for node, cid in mapping.items():
                lookup[node] = cid
        self._lookup_complete = bool((lookup >= 0).all())
        return lookup

    def _map_dense(self, arr: np.ndarray, node_at) -> np.ndarray:
        """Gather component ids through the dense lookup table.

        ``node_at(i)`` recovers the offending original node for the
        :class:`QueryError` message; bounds are validated with two scalar
        reductions so the happy path never materialises boolean masks.
        """
        lookup = self._dense_lookup
        size = lookup.shape[0]
        if arr.size:
            if int(arr.min()) < 0 or int(arr.max()) >= size:
                bad = (arr < 0) | (arr >= size)
                raise QueryError(node_at(int(np.argmax(bad))))
        cids = lookup[arr]
        if not self._lookup_complete and cids.size \
                and int(cids.min()) < 0:
            raise QueryError(node_at(int(np.argmax(cids < 0))))
        return cids

    def dense_lookup(self) -> np.ndarray | None:
        """The ``node id -> component id`` gather table, or ``None``.

        Public face of the lazily-built dense map: ``None`` when the
        node space is not small non-negative integers (the dict path
        stays authoritative there).  Entries are ``-1`` for uncovered
        ids unless :attr:`lookup_complete`.  This is the table the
        buffer-reusing :class:`~repro.core.fastkernel.FastKernel` (and
        through it the binary wire protocol) gathers through, so u32
        node ids on the wire resolve without any per-node Python.
        """
        if self._dense_lookup is False:
            self._dense_lookup = self._build_dense_lookup()
        return self._dense_lookup

    @property
    def lookup_complete(self) -> bool:
        """Whether :meth:`dense_lookup` has no ``-1`` holes (valid only
        after the lookup has been built)."""
        return self._lookup_complete

    def components_of(self, nodes: Sequence[Node]) -> np.ndarray:
        """Map original nodes to dense component ids (vector form).

        Raises
        ------
        QueryError
            On the first node the index does not cover.
        """
        if not isinstance(nodes, list):
            nodes = list(nodes)
        if not nodes:
            return np.zeros(0, dtype=np.int64)
        if self._dense_lookup is False:
            self._dense_lookup = self._build_dense_lookup()
        if self._dense_lookup is not None:
            arr = np.asarray(nodes)
            # Integer dtype only: float/object columns (mixed or unknown
            # node types) resolve through the dict so e.g. 2.5 raises
            # QueryError instead of silently truncating to node 2.
            if arr.ndim == 1 and arr.dtype.kind in "iu":
                return self._map_dense(arr, lambda i: nodes[i])
        component_of = self.component_of
        out = np.empty(len(nodes), dtype=np.int64)
        node = None
        try:
            for i, node in enumerate(nodes):
                out[i] = component_of[node]
        except KeyError:
            raise QueryError(node) from None
        return out

    def pair_components(self, pairs: Sequence[tuple[Node, Node]]
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``(cu, cv)`` component-id vectors for a pair list.

        The batch hot path: one column extraction per side, validated by
        two scalar bounds reductions — the Python → numpy conversion is
        the dominant cost of a served batch on fast kernels.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        if not pairs:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return (self.components_of([u for u, _ in pairs]),
                self.components_of([v for _, v in pairs]))

    def query_pairs(self, pairs: Sequence[tuple[Node, Node]]) -> np.ndarray:
        """Boolean answers for a list of (source, target) node pairs."""
        if not isinstance(pairs, list):
            pairs = list(pairs)
        if not pairs:
            return np.zeros(0, dtype=bool)
        cu, cv = self.pair_components(pairs)
        return self.query_components(cu, cv)


class ReachabilityIndex(abc.ABC):
    """Abstract base class of every reachability index."""

    #: Registry name; subclasses must override.
    scheme_name: ClassVar[str] = ""
    #: The image bytes a loaded index's columns view; ``None`` if built.
    image: bytes | None = None

    @classmethod
    @abc.abstractmethod
    def build(cls, graph: DiGraph, **options: Any) -> "ReachabilityIndex":
        """Construct the index for ``graph`` (cyclic inputs allowed)."""

    @abc.abstractmethod
    def reachable(self, u: Node, v: Node) -> bool:
        """``True`` iff a (possibly empty) path leads from ``u`` to ``v``.

        Raises
        ------
        QueryError
            If either vertex was not part of the indexed graph.
        """

    @abc.abstractmethod
    def stats(self) -> IndexStats:
        """Build/space statistics (see :class:`IndexStats`)."""

    # Convenience shared by all implementations -------------------------
    def label_arrays(self) -> LabelArrays | None:
        """Vectorised query kernel over this index's label arrays.

        Returns ``None`` when the scheme has no dense-array
        representation (per-node search structures, online search);
        callers then fall back to the scalar :meth:`reachable` loop.
        Implementations cache the kernel, so repeated calls are cheap.
        """
        return None

    def reachable_many(self,
                       pairs: list[tuple[Node, Node]]) -> list[bool]:
        """Vector form of :meth:`reachable`.

        Routes through :meth:`label_arrays` when the scheme exposes a
        vectorised kernel, otherwise loops over :meth:`reachable`.
        Either way, answers are exactly those of the scalar method.
        """
        arrays = self.label_arrays()
        if arrays is not None:
            return arrays.query_pairs(pairs).tolist()
        reach = self.reachable
        return [reach(u, v) for u, v in pairs]

    def __contains__(self, node: Node) -> bool:
        """``True`` iff queries about ``node`` are answerable.

        Subclasses with a node map get this for free by defining
        ``_covers(node)``; the default delegates to a probe query.
        """
        try:
            self.reachable(node, node)
        except QueryError:
            return False
        return True


_REGISTRY: dict[str, Type[ReachabilityIndex]] = {}


def register_scheme(cls: Type[ReachabilityIndex]) -> Type[ReachabilityIndex]:
    """Class decorator: add an index class to the scheme registry."""
    name = cls.scheme_name
    if not name:
        raise ValueError(f"{cls.__name__} must define scheme_name")
    if name in _REGISTRY:
        raise ValueError(f"scheme {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def available_schemes() -> list[str]:
    """Names of all registered schemes, sorted."""
    return sorted(_REGISTRY)


def get_scheme(name: str) -> Type[ReachabilityIndex]:
    """Look up a scheme class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scheme {name!r}; available: {known}") from None


def build_index(graph: DiGraph, scheme: str = "dual-i",
                **options: Any) -> ReachabilityIndex:
    """Build a reachability index for ``graph`` using ``scheme``.

    The one-stop entry point of the library:

    >>> from repro.graph import gnm_random_digraph
    >>> g = gnm_random_digraph(50, 75, seed=1)
    >>> idx = build_index(g, scheme="dual-i")
    >>> idx.reachable(0, 0)
    True
    """
    return get_scheme(scheme).build(graph, **options)
