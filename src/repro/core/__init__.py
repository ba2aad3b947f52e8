"""Dual labeling core: the paper's primary contribution.

Public entry points:

* :func:`repro.core.base.build_index` — build any registered scheme;
* :class:`repro.core.dual_i.DualIIndex` — constant-time queries (Dual-I);
* :class:`repro.core.dual_ii.DualIIIndex` — ``O(log t)`` queries, smaller
  space (Dual-II);
* :class:`repro.core.tlc_rangetree.DualRangeTreeIndex` — the
  range-temporal-aggregation backend (Section 4's alternative).
"""

from repro.core.base import (
    INT_BYTES,
    IndexStats,
    LabelArrays,
    ReachabilityIndex,
    available_schemes,
    build_index,
    get_scheme,
    register_scheme,
)
from repro.core.dual_i import DualIIndex, DualILabelArrays
from repro.core.dual_ii import DualIILabelArrays, DualIIIndex
from repro.core.batch import reachable_batch
from repro.core.service import QueryService, ServiceMetrics
from repro.core.dynamic import DynamicDualIndex
from repro.core.intervals import Interval, IntervalLabeling, assign_intervals
from repro.core.linktable import (
    Link,
    LinkTable,
    build_link_table,
    transitive_link_table,
)
from repro.core.nontree_labels import NonTreeLabels, assign_nontree_labels
from repro.core.pipeline import DualPipeline, run_pipeline
from repro.core.serialize import load_dual_index, save_dual_index
from repro.core.tlc_bitpacked import BitPackedTLCMatrix, bitpack_tlc_matrix
from repro.core.validation import ValidationReport, validate_index
from repro.core.witness import (
    Explanation,
    expand_witness,
    explain_query,
    verify_witness,
    witness_path,
)
from repro.core.tlc_matrix import (
    TLCMatrix,
    build_tlc_matrix,
    pack_tlc_matrix,
    tlc_function,
)
from repro.core.tlc_rangetree import DualRangeTreeIndex, RangeTemporalCounter
from repro.core.tlc_searchtree import TLCSearchTree, build_tlc_search_tree

__all__ = [
    "INT_BYTES",
    "IndexStats",
    "ReachabilityIndex",
    "available_schemes",
    "build_index",
    "get_scheme",
    "register_scheme",
    "DualIIndex",
    "DualIIIndex",
    "DualRangeTreeIndex",
    "DynamicDualIndex",
    "save_dual_index",
    "load_dual_index",
    "pack_tlc_matrix",
    "BitPackedTLCMatrix",
    "bitpack_tlc_matrix",
    "LabelArrays",
    "DualILabelArrays",
    "DualIILabelArrays",
    "reachable_batch",
    "QueryService",
    "ServiceMetrics",
    "ValidationReport",
    "validate_index",
    "witness_path",
    "expand_witness",
    "verify_witness",
    "Explanation",
    "explain_query",
    "Interval",
    "IntervalLabeling",
    "assign_intervals",
    "Link",
    "LinkTable",
    "build_link_table",
    "transitive_link_table",
    "NonTreeLabels",
    "assign_nontree_labels",
    "DualPipeline",
    "run_pipeline",
    "TLCMatrix",
    "build_tlc_matrix",
    "tlc_function",
    "TLCSearchTree",
    "build_tlc_search_tree",
    "RangeTemporalCounter",
]
