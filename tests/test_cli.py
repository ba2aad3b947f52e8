"""Integration tests for the CLI entry points (repro-reach / python -m)."""

from __future__ import annotations

import pytest

from repro.bench.runner import main as bench_main
from repro.bench.runner import run_experiment, scaled_overrides
from repro.cli import main as cli_main


class TestCLISchemes:
    def test_schemes_listed(self, capsys):
        assert cli_main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "dual-i" in out
        assert "2hop" in out


class TestCLIGenerateStatsBuildQuery:
    def test_generate_and_stats(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        assert cli_main(["generate", "dag", "--nodes", "80", "--edges",
                         "110", "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert cli_main(["stats", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "num_nodes" in out
        assert "80" in out

    def test_generate_gnm_and_build(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        cli_main(["generate", "gnm", "--nodes", "60", "--edges", "130",
                  "--seed", "3", "--out", str(out_file)])
        assert cli_main(["build", str(out_file), "--scheme",
                         "dual-ii"]) == 0
        out = capsys.readouterr().out
        assert "dual-ii" in out
        assert "build_seconds" in out

    def test_generate_tree(self, tmp_path):
        out_file = tmp_path / "t.txt"
        assert cli_main(["generate", "tree", "--nodes", "30",
                         "--out", str(out_file)]) == 0

    def test_generate_random_dag(self, tmp_path):
        out_file = tmp_path / "d.txt"
        assert cli_main(["generate", "random-dag", "--nodes", "30",
                         "--edges", "50", "--out", str(out_file)]) == 0

    def test_query_explicit_pairs(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        cli_main(["generate", "dag", "--nodes", "50", "--edges", "70",
                  "--seed", "1", "--out", str(out_file)])
        assert cli_main(["query", str(out_file), "--pairs", "0:10",
                         "10:0"]) == 0
        out = capsys.readouterr().out
        assert "0 -> 10: reachable" in out
        assert "10 -> 0: unreachable" in out

    def test_query_random_workload(self, tmp_path, capsys):
        out_file = tmp_path / "g.txt"
        cli_main(["generate", "dag", "--nodes", "50", "--edges", "70",
                  "--out", str(out_file)])
        assert cli_main(["query", str(out_file), "--random", "200"]) == 0
        out = capsys.readouterr().out
        assert "queries          200" in out
        assert "us_per_query" in out

    def test_bad_pair_syntax(self, tmp_path):
        out_file = tmp_path / "g.txt"
        cli_main(["generate", "tree", "--nodes", "5",
                  "--out", str(out_file)])
        with pytest.raises(SystemExit):
            cli_main(["query", str(out_file), "--pairs", "banana"])

    def test_generate_dataset_requires_name(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["generate", "dataset",
                      "--out", str(tmp_path / "d.txt")])


class TestQueryPairsFile:
    def test_pairs_file_batch_path(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        pairs_file = tmp_path / "pairs.txt"
        cli_main(["generate", "dag", "--nodes", "50", "--edges", "70",
                  "--seed", "1", "--out", str(graph_file)])
        pairs_file.write_text(
            "# workload comment\n"
            "0,10\n"
            "\n"
            "10 , 0  # trailing comment\n"
            "3,3\n")
        capsys.readouterr()
        assert cli_main(["query", str(graph_file), "--pairs-file",
                         str(pairs_file)]) == 0
        out = capsys.readouterr().out
        assert "0 -> 10: reachable" in out
        assert "10 -> 0: unreachable" in out
        assert "3 -> 3: reachable" in out  # reflexive
        assert "# 3 queries," in out

    def test_pairs_file_against_saved_index(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        index_file = tmp_path / "index.idx"
        pairs_file = tmp_path / "pairs.txt"
        cli_main(["generate", "dag", "--nodes", "40", "--edges", "60",
                  "--seed", "4", "--out", str(graph_file)])
        cli_main(["build", str(graph_file), "--scheme", "dual-ii",
                  "--save", str(index_file)])
        pairs_file.write_text("0,20\n20,0\n")
        capsys.readouterr()
        assert cli_main(["query", "--index", str(index_file),
                         "--pairs-file", str(pairs_file)]) == 0
        assert "# 2 queries," in capsys.readouterr().out

    def test_malformed_pairs_file(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        pairs_file = tmp_path / "pairs.txt"
        cli_main(["generate", "tree", "--nodes", "10",
                  "--out", str(graph_file)])
        pairs_file.write_text("0,1\nbanana\n")
        capsys.readouterr()
        assert cli_main(["query", str(graph_file), "--pairs-file",
                         str(pairs_file)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "pairs.txt:2" in err


class TestServeLoadgenCLI:
    def test_loadgen_against_gateway(self, tmp_path, capsys):
        """The loadgen command end-to-end against a live gateway."""
        from repro.core.base import build_index
        from repro.core.service import QueryService
        from repro.graph.io import read_edge_list
        from repro.server.server import (
            ReachServer,
            ServerConfig,
            ServerThread,
        )

        graph_file = tmp_path / "g.txt"
        cli_main(["generate", "dag", "--nodes", "60", "--edges", "90",
                  "--seed", "2", "--out", str(graph_file)])
        capsys.readouterr()
        index = build_index(read_edge_list(graph_file), scheme="dual-i")
        server = ReachServer(QueryService(index), config=ServerConfig())
        with ServerThread(server) as handle:
            assert cli_main(["loadgen", "--port", str(handle.port),
                             "--graph", str(graph_file),
                             "--random", "500", "--connections", "2",
                             "--duration", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "loadgen —" in out
        assert "queries/second" in out

    def test_loadgen_requires_a_pair_source(self, capsys):
        assert cli_main(["loadgen", "--port", "1"]) == 2
        assert "loadgen needs" in capsys.readouterr().err


class TestBenchRunner:
    def test_list_command(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table2" in out

    def test_run_quick_fig11(self, capsys, tmp_path):
        assert bench_main(["run", "fig11", "--scale", "quick",
                           "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert (tmp_path / "fig11.md").exists()
        assert (tmp_path / "fig11.csv").exists()

    def test_cli_forwards_to_bench(self, capsys):
        assert cli_main(["bench", "list"]) == 0
        assert "fig8" in capsys.readouterr().out

    def test_run_experiment_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_scaled_overrides(self):
        assert scaled_overrides("fig8", "paper") == {}
        assert "n" in scaled_overrides("fig8", "quick")
        with pytest.raises(ValueError):
            scaled_overrides("fig8", "jumbo")


class TestSmokeCLI:
    def test_choices_are_the_scenario_list(self, capsys):
        from repro.testing.smoke import SCENARIOS

        with pytest.raises(SystemExit):
            cli_main(["smoke", "--help"])
        assert "{" + ",".join(SCENARIOS) + "}" in capsys.readouterr().out

    def test_scenario_report_and_failure_exit(self, monkeypatch, capsys):
        from repro.testing import smoke

        monkeypatch.setitem(smoke.SCENARIOS, "serve",
                            lambda: {"multi_query_flushes": 3})
        assert cli_main(["smoke", "serve"]) == 0
        out = capsys.readouterr().out
        assert '"multi_query_flushes": 3' in out
        assert "smoke serve: ok" in out

        def broken():
            raise AssertionError("2 wrong answers")

        monkeypatch.setitem(smoke.SCENARIOS, "fleet", broken)
        assert cli_main(["smoke", "fleet"]) == 1
        assert "smoke fleet: FAILED: 2 wrong answers" in \
            capsys.readouterr().err


class TestIndexPersistence:
    def test_build_save_then_query_index(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        index_file = tmp_path / "index.idx"
        cli_main(["generate", "dag", "--nodes", "60", "--edges", "80",
                  "--seed", "2", "--out", str(graph_file)])
        assert cli_main(["build", str(graph_file), "--scheme", "dual-i",
                         "--save", str(index_file)]) == 0
        assert index_file.exists()
        capsys.readouterr()
        assert cli_main(["query", "--index", str(index_file),
                         "--pairs", "0:30", "30:0"]) == 0
        out = capsys.readouterr().out
        assert "0 -> 30" in out

    def test_query_index_without_pairs_errors(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        index_file = tmp_path / "index.idx"
        cli_main(["generate", "tree", "--nodes", "10",
                  "--out", str(graph_file)])
        cli_main(["build", str(graph_file), "--save", str(index_file)])
        assert cli_main(["query", "--index", str(index_file)]) == 2

    def test_query_without_graph_or_index_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["query"])

    def test_bench_chart_flag(self, capsys):
        assert bench_main(["run", "fig11", "--scale", "quick",
                           "--chart"]) == 0
        out = capsys.readouterr().out
        assert "scale]" in out  # chart header printed


class TestGoldenCLI:
    def test_create_and_check(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        golden_file = tmp_path / "golden.json"
        cli_main(["generate", "dag", "--nodes", "80", "--edges", "110",
                  "--out", str(graph_file)])
        assert cli_main(["golden", "create", str(graph_file),
                         "--queries", "300",
                         "--out", str(golden_file)]) == 0
        assert golden_file.exists()
        capsys.readouterr()
        for scheme in ("dual-i", "interval"):
            assert cli_main(["golden", "check", str(graph_file),
                             str(golden_file), "--scheme", scheme]) == 0
            assert "OK" in capsys.readouterr().out

    def test_check_detects_stale_golden(self, tmp_path, capsys):
        """A golden from one graph fails against a different graph."""
        graph_a = tmp_path / "a.txt"
        graph_b = tmp_path / "b.txt"
        golden_file = tmp_path / "golden.json"
        cli_main(["generate", "dag", "--nodes", "80", "--edges", "110",
                  "--seed", "1", "--out", str(graph_a)])
        cli_main(["generate", "dag", "--nodes", "80", "--edges", "110",
                  "--seed", "2", "--out", str(graph_b)])
        cli_main(["golden", "create", str(graph_a), "--queries", "400",
                  "--out", str(golden_file)])
        capsys.readouterr()
        rc = cli_main(["golden", "check", str(graph_b),
                       str(golden_file)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out


class TestCLIErrorHandling:
    def test_missing_graph_file(self, capsys):
        assert cli_main(["stats", "/nonexistent/graph.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n")
        assert cli_main(["build", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_query_node(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        cli_main(["generate", "tree", "--nodes", "10",
                  "--out", str(graph_file)])
        capsys.readouterr()
        assert cli_main(["query", str(graph_file), "--pairs",
                         "0:999"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_index_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli_main(["query", "--index", str(bad), "--pairs",
                         "0:1"]) == 2
        assert "error:" in capsys.readouterr().err
