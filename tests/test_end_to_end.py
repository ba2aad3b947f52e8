"""End-to-end scenario tests: full user workflows through the public
surface only — generate, persist, reload, query, validate, benchmark,
compare — the paths a downstream adopter actually walks."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_result_files
from repro.bench.runner import main as bench_main
from repro.cli import main as cli_main


class TestIndexLifecycleWorkflow:
    def test_generate_build_save_reload_query_validate(self, tmp_path,
                                                       capsys):
        """The full CLI lifecycle on one graph."""
        graph_file = tmp_path / "pipeline.txt"
        index_file = tmp_path / "pipeline-index.json"

        # 1. generate a sparse DAG
        assert cli_main(["generate", "dag", "--nodes", "500", "--edges",
                         "650", "--seed", "5",
                         "--out", str(graph_file)]) == 0
        # 2. inspect it
        assert cli_main(["stats", str(graph_file)]) == 0
        # 3. build + persist the index
        assert cli_main(["build", str(graph_file), "--scheme", "dual-i",
                         "--save", str(index_file)]) == 0
        # 4. the saved document is valid JSON with our format marker
        document = json.loads(index_file.read_text())
        assert document["format"] == "repro-dual-i"
        # 5. reload and query without the graph
        capsys.readouterr()
        assert cli_main(["query", "--index", str(index_file),
                         "--pairs", "0:250", "250:0"]) == 0
        out = capsys.readouterr().out
        assert "0 -> 250" in out
        # 6. validate the freshly built index against ground truth
        assert cli_main(["validate", str(graph_file), "--sample",
                         "400"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_dataset_workflow(self, tmp_path, capsys):
        """Dataset stand-in → file → every-scheme CLI query agreement."""
        graph_file = tmp_path / "xmark.txt"
        assert cli_main(["generate", "dataset", "--dataset", "XMark",
                         "--out", str(graph_file)]) == 0
        answers = {}
        for scheme in ("dual-i", "dual-ii", "interval"):
            capsys.readouterr()
            assert cli_main(["query", str(graph_file), "--scheme",
                             scheme, "--pairs", "0:5000",
                             "5000:0"]) == 0
            answers[scheme] = capsys.readouterr().out
        assert answers["dual-i"] == answers["dual-ii"] == \
            answers["interval"]


class TestBenchmarkRegressionWorkflow:
    def test_run_twice_and_compare(self, tmp_path):
        """Two runner invocations produce CSVs the comparison tool can
        diff; identical parameters should not flag regressions beyond a
        generous timing tolerance."""
        out_a = tmp_path / "run-a"
        out_b = tmp_path / "run-b"
        assert bench_main(["run", "ablation_meg", "--scale", "quick",
                           "--out", str(out_a)]) == 0
        assert bench_main(["run", "ablation_meg", "--scale", "quick",
                           "--out", str(out_b)]) == 0
        report = compare_result_files(out_a / "ablation_meg.csv",
                                      out_b / "ablation_meg.csv",
                                      tolerance=20.0)
        # Space columns are deterministic; only timing wobbles, and the
        # 20x tolerance absorbs CI noise.
        assert report.ok, report.summary()
        space_deltas = [d for d in report.deltas
                        if d.column.endswith("_bytes")]
        assert all(d.ratio == 1.0 for d in space_deltas)


class TestLibraryWorkflow:
    def test_explain_and_witness_round_trip(self):
        """Library-level flow: build, query, explain, verify evidence."""
        from repro.core import (
            DualIIndex,
            expand_witness,
            explain_query,
            verify_witness,
        )
        from repro.graph.generators import single_rooted_dag
        from repro.graph.traversal import reachable_set

        graph = single_rooted_dag(300, 400, max_fanout=4, seed=6)
        index = DualIIndex.build(graph, use_meg=False)
        source = 2
        targets = sorted(reachable_set(graph, source) - {source})
        assert targets, "generator should give node 2 descendants"
        for target in targets[:10]:
            explanation = explain_query(index, source, target)
            assert explanation.reachable
            if explanation.kind == "non-tree":
                full = expand_witness(graph, explanation.witness)
                assert verify_witness(graph, full)

    def test_batch_and_analytics_agree(self):
        """Batch answers, analytics counts, and scalar queries line up."""
        from repro.analysis.reachability import descendant_counts
        from repro.core import DualIIndex
        from repro.core.batch import reachable_batch
        from repro.graph.generators import gnm_random_digraph

        graph = gnm_random_digraph(80, 200, seed=7)
        index = DualIIndex.build(graph)
        nodes = list(graph.nodes())
        answers = reachable_batch(index,
                                  [(u, v) for u in nodes for v in nodes])
        counts = descendant_counts(graph)
        for i, node in enumerate(nodes):
            row = answers[i * len(nodes):(i + 1) * len(nodes)]
            assert sum(row) == counts[node]
