"""Shared dual-labeling build pipeline — paper Sections 3 and 5 composed.

Both dual schemes run the same preprocessing on an arbitrary directed
graph:

1. **Condense** strongly connected components (Section 3 intro) — the
   result is a DAG; original-node queries are answered through the
   component map.
2. Optionally reduce to the **minimal equivalent graph** (Section 5) —
   removes superfluous edges so the spanning step leaves fewer non-tree
   edges.
3. Extract a **spanning forest** and classify non-tree edges
   (Section 3.1), dropping superfluous ones.
4. Assign **interval labels** (Section 3.1).
5. Build the **link table** and close it into the **transitive link
   table** (Section 3.1).

Two interchangeable construction backends run these phases:

* ``backend="fast"`` (default) — one :class:`~repro.graph.csr.CSRGraph`
  snapshot of the input, then array-based reimplementations of every
  phase (:func:`~repro.graph.condensation.condense_csr`,
  :func:`~repro.graph.meg.minimal_equivalent_graph_csr`,
  :func:`~repro.graph.spanning.spanning_forest_csr`, and the shared
  memoized link closure).  Dict-shaped artefacts (``forest``,
  ``labeling``, the link tables, the post-MEG ``dag``) materialise
  lazily on first attribute access, so a build that only needs the label
  arrays never pays for them.
* ``backend="python"`` — the original dict-based reference
  implementation, kept as the equivalence oracle.

Both produce bit-for-bit identical artefacts (asserted by the
differential tests); they differ only in construction speed.

The :class:`DualPipeline` result carries every intermediate artefact plus
per-phase wall-clock timings, which the benchmark harness surfaces in the
Figure 8/9/11 indexing-time series, the MEG ablation, and the
repository benchmark's traced ``pipeline.*`` layers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import PhaseProfiler

import numpy as np

from repro.core.intervals import (
    Interval,
    IntervalLabeling,
    assign_intervals,
    labeling_from_arrays,
)
from repro.core.linktable import (
    LinkTable,
    build_link_table,
    close_link_arrays,
    table_from_arrays,
    transitive_link_table,
)
from repro.exceptions import QueryError
from repro.graph.condensation import Condensation, condense, condense_csr
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, Node
from repro.graph.meg import minimal_equivalent_graph, minimal_equivalent_graph_csr
from repro.graph.spanning import SpanningForest, spanning_forest, spanning_forest_csr

__all__ = ["DualPipeline", "run_pipeline", "PIPELINE_BACKENDS"]

#: Valid values for :func:`run_pipeline`'s ``backend`` parameter.
PIPELINE_BACKENDS = ("fast", "python")


class DualPipeline:
    """All intermediate artefacts of the dual-labeling preprocessing.

    Attributes
    ----------
    condensation:
        SCC condensation of the input (maps original nodes to DAG nodes).
    dag:
        The DAG the labels are computed on (the condensation's DAG, or its
        MEG when ``use_meg`` was set).
    meg_edges:
        Edge count after MEG, or ``None`` when MEG was skipped.
    forest / labeling:
        Spanning forest and its interval labels.
    base_table / transitive_table:
        Link table before and after transitive closure.
    interval_starts / interval_ends:
        The interval labels as dense lists indexed by component id —
        ``labeling.interval[cid] == [interval_starts[cid],
        interval_ends[cid])``.  The index builders read these instead of
        the :class:`~repro.core.intervals.Interval` dict.
    phase_seconds:
        Wall-clock seconds per pipeline phase.
    backend:
        Which construction backend produced this pipeline
        (``"fast"`` or ``"python"``).

    The fast backend passes thunks for the dict-shaped artefacts; each
    materialises on first access and is cached.  Either way every
    attribute above is always available — laziness is invisible apart
    from where the materialisation cost lands.
    """

    def __init__(self, condensation: Condensation,
                 dag: Optional[DiGraph] = None,
                 meg_edges: Optional[int] = None,
                 forest: Optional[SpanningForest] = None,
                 labeling: Optional[IntervalLabeling] = None,
                 base_table: Optional[LinkTable] = None,
                 transitive_table: Optional[LinkTable] = None,
                 phase_seconds: Optional[dict[str, float]] = None,
                 *,
                 backend: str = "python",
                 lazy: Optional[dict[str, Callable[[], object]]] = None,
                 t: Optional[int] = None,
                 transitive_links: Optional[int] = None,
                 interval_starts: Optional[list[int]] = None,
                 interval_ends: Optional[list[int]] = None) -> None:
        self.condensation = condensation
        self.meg_edges = meg_edges
        self.phase_seconds: dict[str, float] = (
            {} if phase_seconds is None else phase_seconds)
        self.backend = backend
        self._dag = dag
        self._forest = forest
        self._labeling = labeling
        self._base_table = base_table
        self._transitive_table = transitive_table
        self._lazy: dict[str, Callable[[], object]] = dict(lazy or {})
        self._t = t
        self._transitive_links = transitive_links
        self._interval_starts = interval_starts
        self._interval_ends = interval_ends

    # -- lazily materialised artefacts ---------------------------------
    def _materialize(self, name: str):
        value = self._lazy.pop(name)()
        setattr(self, "_" + name, value)
        return value

    @property
    def dag(self) -> DiGraph:
        if self._dag is None:
            return self._materialize("dag")
        return self._dag

    @property
    def forest(self) -> SpanningForest:
        if self._forest is None:
            return self._materialize("forest")
        return self._forest

    @property
    def labeling(self) -> IntervalLabeling:
        if self._labeling is None:
            return self._materialize("labeling")
        return self._labeling

    @property
    def base_table(self) -> LinkTable:
        if self._base_table is None:
            return self._materialize("base_table")
        return self._base_table

    @property
    def transitive_table(self) -> LinkTable:
        if self._transitive_table is None:
            return self._materialize("transitive_table")
        return self._transitive_table

    # -- derived views --------------------------------------------------
    @property
    def t(self) -> int:
        """Number of retained non-tree edges."""
        if self._t is not None:
            return self._t
        return len(self.base_table)

    @property
    def num_transitive_links(self) -> int:
        """Size of the transitive link table."""
        if self._transitive_links is not None:
            return self._transitive_links
        return len(self.transitive_table)

    @property
    def interval_starts(self) -> list[int]:
        """``start`` labels indexed by component id."""
        if self._interval_starts is None:
            labeling = self.labeling
            self._interval_starts = [
                labeling.interval[cid].start
                for cid in range(self.condensation.num_components)]
        return self._interval_starts

    @property
    def interval_ends(self) -> list[int]:
        """``end`` labels indexed by component id."""
        if self._interval_ends is None:
            labeling = self.labeling
            self._interval_ends = [
                labeling.interval[cid].end
                for cid in range(self.condensation.num_components)]
        return self._interval_ends

    def component_interval(self, node: Node) -> Interval:
        """Interval label of the component containing an original node.

        Raises
        ------
        QueryError
            If the node was not part of the indexed graph.
        """
        try:
            cid = self.condensation.component_of[node]
        except KeyError:
            raise QueryError(node) from None
        if self._labeling is None and self._interval_starts is not None:
            return Interval(self._interval_starts[cid],
                            self._interval_ends[cid])
        return self.labeling.interval[cid]


def run_pipeline(graph: DiGraph, use_meg: bool = True,
                 backend: str = "fast",
                 registry: MetricsRegistry | None = None
                 ) -> DualPipeline:
    """Run the full preprocessing pipeline on ``graph``.

    Parameters
    ----------
    graph:
        Any directed graph; cycles are condensed away.
    use_meg:
        Run the optional minimal-equivalent-graph reduction (Section 5).
        On by default — it only ever shrinks ``t``.
    backend:
        ``"fast"`` (default) for the CSR/array construction backend,
        ``"python"`` for the dict-based reference implementation.  Both
        produce identical artefacts.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: phase
        durations are then also observed into the
        ``reach_build_phase_seconds{phase=...}`` histogram family, so
        repeated builds (hot reloads, benchmark sweeps) accumulate
        per-phase distributions.
    """
    if backend not in PIPELINE_BACKENDS:
        raise ValueError(
            f"backend must be one of {PIPELINE_BACKENDS}, got {backend!r}")
    profiler = PhaseProfiler(registry)
    if backend == "fast":
        return _run_fast(graph, use_meg, profiler)
    return _run_python(graph, use_meg, profiler)


def _run_python(graph: DiGraph, use_meg: bool,
                profiler: PhaseProfiler | None = None) -> DualPipeline:
    """The dict-based reference pipeline (``backend="python"``)."""
    profiler = profiler if profiler is not None else PhaseProfiler()

    with profiler.phase("condense"):
        cond = condense(graph)

    dag = cond.dag
    meg_edges: int | None = None
    if use_meg:
        with profiler.phase("meg"):
            dag = minimal_equivalent_graph(dag).graph
        meg_edges = dag.num_edges

    with profiler.phase("spanning"):
        forest = spanning_forest(dag)

    with profiler.phase("intervals"):
        labeling = assign_intervals(forest)

    with profiler.phase("link_table"):
        base_table = build_link_table(forest.nontree_edges, labeling)

    with profiler.phase("transitive_closure_of_links"):
        transitive = transitive_link_table(base_table)

    return DualPipeline(
        condensation=cond,
        dag=dag,
        meg_edges=meg_edges,
        forest=forest,
        labeling=labeling,
        base_table=base_table,
        transitive_table=transitive,
        phase_seconds=profiler.seconds,
        backend="python",
    )


def _run_fast(graph: DiGraph, use_meg: bool,
              profiler: PhaseProfiler | None = None) -> DualPipeline:
    """The CSR/array pipeline (``backend="fast"``).

    Phase keys match the reference path so timing series stay
    comparable.  Two bookkeeping differences, both deliberate:

    * the ``condense`` phase includes taking the CSR snapshot of the
      input (the reference's dict reads are likewise charged there);
    * interval labels fall out of the spanning DFS for free, so the
      ``intervals`` phase records only the (near-zero) finalisation —
      its work is fused into ``spanning``.
    """
    profiler = profiler if profiler is not None else PhaseProfiler()
    lazy: dict[str, Callable[[], object]] = {}

    with profiler.phase("condense"):
        csr = CSRGraph.from_digraph(graph)
        cond, cond_csr = condense_csr(csr)

    dag_csr = cond_csr
    meg_edges: int | None = None
    if use_meg:
        with profiler.phase("meg"):
            dag_csr = minimal_equivalent_graph_csr(cond_csr)
        meg_edges = dag_csr.num_edges
        lazy["dag"] = dag_csr.to_digraph
    else:
        lazy["dag"] = lambda: cond.dag

    with profiler.phase("spanning"):
        cf = spanning_forest_csr(dag_csr)
    lazy["forest"] = cf.materialize

    with profiler.phase("intervals"):
        starts, ends = cf.start, cf.end
        nodes = dag_csr.nodes
        lazy["labeling"] = lambda: labeling_from_arrays(nodes, starts,
                                                        ends)

    with profiler.phase("link_table"):
        sa = np.asarray(starts, dtype=np.int64)
        ea = np.asarray(ends, dtype=np.int64)
        bt = sa[cf.nontree_u]
        bs = sa[cf.nontree_v]
        be = ea[cf.nontree_v]
        # Canonical link order: sort by (tail, head_start, head_end),
        # then drop duplicate triples — same normal form as
        # linktable._make_table.
        order = np.lexsort((be, bs, bt))
        bt, bs, be = bt[order], bs[order], be[order]
        if bt.size:
            keep = np.empty(bt.size, dtype=bool)
            keep[0] = True
            keep[1:] = ((bt[1:] != bt[:-1]) | (bs[1:] != bs[:-1])
                        | (be[1:] != be[:-1]))
            bt, bs, be = bt[keep], bs[keep], be[keep]
        lazy["base_table"] = lambda: table_from_arrays(
            bt.tolist(), bs.tolist(), be.tolist())

    with profiler.phase("transitive_closure_of_links"):
        closed_tails, closed_hs, closed_he = close_link_arrays(bt, bs, be)
        lazy["transitive_table"] = lambda: table_from_arrays(
            closed_tails, closed_hs, closed_he)

    return DualPipeline(
        condensation=cond,
        meg_edges=meg_edges,
        phase_seconds=profiler.seconds,
        backend="fast",
        lazy=lazy,
        t=int(bt.size),
        transitive_links=len(closed_tails),
        interval_starts=starts,
        interval_ends=ends,
    )
