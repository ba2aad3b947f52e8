"""Unit tests for the TLC search tree (Dual-II's lookup structure)."""

from __future__ import annotations

import pytest

from repro.core.intervals import assign_intervals
from repro.core.linktable import build_link_table, transitive_link_table
from repro.core.tlc_matrix import tlc_function
from repro.core.tlc_searchtree import TLCSearchTree, build_tlc_search_tree
from repro.graph.generators import random_dag
from repro.graph.spanning import spanning_forest


def _closed_table(graph):
    forest = spanning_forest(graph)
    labeling = assign_intervals(forest)
    return transitive_link_table(
        build_link_table(forest.nontree_edges, labeling))


class TestConstruction:
    def test_empty_table(self, chain10):
        tree = build_tlc_search_tree(_closed_table(chain10))
        assert tree.num_rows == 0
        assert tree.count(0, 0) == 0
        assert tree.nbytes == 0

    def test_paper_rows(self, paper_graph):
        tree = build_tlc_search_tree(_closed_table(paper_graph))
        # Transitive links: 9->[6,9), 7->[1,5), 9->[1,5).
        # Endpoints: {1, 5, 6, 9}; at y=5 the alive set becomes empty,
        # at y=9 it becomes empty again.
        assert tree.row_ys.tolist() == [1, 5, 6, 9]
        assert tree.rows == [[7, 9], [], [9], []]
        # Stored CSR, as the index image holds it.
        assert tree.row_offsets.tolist() == [0, 2, 2, 3, 3]
        assert tree.row_tails.tolist() == [7, 9, 9]

    def test_row_count_bounded_by_2t(self):
        g = random_dag(50, 130, seed=1)
        table = _closed_table(g)
        tree = build_tlc_search_tree(table)
        base_t = len({(lk.tail, lk.head_start, lk.head_end)
                      for lk in table.links})
        assert tree.num_rows <= 2 * base_t

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TLCSearchTree([1, 2], [0, 1], [1])  # two rows, one offset pair

    def test_collapsing_identical_rows(self):
        """Rows whose alive multiset does not change are not duplicated."""
        from repro.core.linktable import Link, LinkTable
        # Two links with the same tail: one dies at 5 exactly where the
        # other is born, leaving the alive multiset unchanged.
        links = (Link(4, 1, 5), Link(4, 5, 9))
        table = LinkTable(links=links, xs=(4,), ys=(1, 5))
        tree = build_tlc_search_tree(table)
        assert tree.row_ys.tolist() == [1, 9]
        assert tree.rows == [[4], []]

    def test_repr(self, paper_graph):
        tree = build_tlc_search_tree(_closed_table(paper_graph))
        assert "rows=4" in repr(tree)


class TestCounts:
    def test_paper_values(self, paper_graph):
        tree = build_tlc_search_tree(_closed_table(paper_graph))
        assert tree.count(9, 3) == 1
        assert tree.count(11, 3) == 0
        assert tree.count(7, 1) == 2
        assert tree.count(0, 0) == 0  # below the first row

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_everywhere(self, seed):
        """N(x, y) from the tree equals Definition 1 at *arbitrary*
        coordinates, not only grid points."""
        g = random_dag(35, 90, seed=seed)
        table = _closed_table(g)
        if not table.links:
            pytest.skip("no non-tree edges")
        tree = build_tlc_search_tree(table)
        N = tlc_function(table)
        max_x = max(table.xs) + 2
        max_y = max(lk.head_end for lk in table.links) + 2
        for x in range(0, max_x, 1):
            for y in range(0, max_y, 1):
                assert tree.count(x, y) == N(x, y), (x, y)

    def test_entries_counted(self, paper_graph):
        tree = build_tlc_search_tree(_closed_table(paper_graph))
        assert tree.num_entries == sum(len(r) for r in tree.rows) == 3
        assert tree.nbytes == 4 * (4 + 3)
