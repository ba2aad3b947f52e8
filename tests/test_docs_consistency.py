"""Documentation consistency: the docs only reference things that exist.

Docs drift is the classic failure mode of a repo this size; these tests
parse the markdown files and verify that every ``repro.*`` dotted path
imports, every scheme name in the README table is registered, every
experiment named in DESIGN.md's index exists, and every example/bench
file the docs point at is on disk.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.core.base import available_schemes
from repro.core.fastkernel import compiled_available

ROOT = Path(__file__).resolve().parent.parent

_MODULE_RE = re.compile(r"`(repro(?:\.[a-z_]+)+)")

#: Optional compiled modules the docs may name; they import only once
#: built, so they are checked by their own skippable test below.
COMPILED_MODULES = {"repro.core._fastkernel"}

needs_extension = pytest.mark.skipif(
    not compiled_available(),
    reason="repro.core._fastkernel is not built (REPRO_FAST_KERNEL=1 "
           "python setup.py build_ext --inplace)")


def _doc_text(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


ALL_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
            "docs/THEORY.md", "docs/API.md", "docs/TUTORIAL.md",
            "docs/DATASETS.md", "docs/RUNBOOK.md"]


@pytest.mark.parametrize("doc", ALL_DOCS)
def test_referenced_modules_import(doc):
    text = _doc_text(doc)
    for dotted in sorted(set(_MODULE_RE.findall(text)) - COMPILED_MODULES):
        # Trim attribute tails: import the longest importable prefix and
        # resolve the rest as attributes.
        parts = dotted.split(".")
        module = None
        for cut in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                continue
        assert module is not None, f"{doc}: {dotted} does not import"
        obj = module
        for attribute in parts[cut:]:
            assert hasattr(obj, attribute), \
                f"{doc}: {dotted} missing attribute {attribute!r}"
            obj = getattr(obj, attribute)


@needs_extension
@pytest.mark.parametrize("dotted", sorted(COMPILED_MODULES))
def test_compiled_modules_import(dotted):
    assert any(f"`{dotted}" in _doc_text(doc) for doc in ALL_DOCS), \
        f"no doc names {dotted}; drop it from COMPILED_MODULES"
    importlib.import_module(dotted)


def test_readme_scheme_table_matches_registry():
    text = _doc_text("README.md")
    documented = set(re.findall(r"^\| `([a-z0-9-]+)`", text,
                                flags=re.MULTILINE))
    assert documented == set(available_schemes())


def test_design_experiment_index_names_real_targets():
    text = _doc_text("DESIGN.md")
    for bench in re.findall(r"benchmarks/(bench_\w+\.py)", text):
        assert (ROOT / "benchmarks" / bench).exists(), bench
    for experiment in re.findall(r"repro\.bench run (\w+)", text):
        assert experiment in EXPERIMENTS, experiment


def test_readme_examples_exist():
    text = _doc_text("README.md")
    for example in re.findall(r"examples/(\w+\.py)", text):
        assert (ROOT / "examples" / example).exists(), example


def test_experiments_md_references_result_files():
    text = _doc_text("EXPERIMENTS.md")
    for result in re.findall(r"results/(\w+\.(?:md|csv))", text):
        assert (ROOT / "results" / result).exists(), result


def test_theory_names_real_test_files():
    text = _doc_text("docs/THEORY.md")
    for test_file in set(re.findall(r"test_\w+\.py", text)):
        assert (ROOT / "tests" / test_file).exists(), test_file


def test_every_registered_metric_family_is_documented(tmp_path):
    """The metrics-docs lint: every ``reach_*`` family a fully-enabled
    server actually exposes must appear in docs/OBSERVABILITY.md.

    A family that ships without docs is invisible to operators; this
    test makes adding the doc row part of adding the metric.  The
    server runs with the SLO engine and flight recorder on so the
    operations-plane families are registered too.
    """
    from repro.core.base import build_index
    from repro.graph.generators import single_rooted_dag
    from repro.core.service import QueryService
    from repro.obs.prometheus import parse_exposition
    from repro.server.client import ReachClient
    from repro.server.server import (ReachServer, ServerConfig,
                                     ServerThread)

    graph = single_rooted_dag(60, 120, seed=11)
    index = build_index(graph, scheme="dual-i")
    config = ServerConfig(slo_defaults={"availability": 0.999,
                                        "latency_ms": 50.0},
                          flight_dir=tmp_path / "flightrec")
    server = ReachServer(QueryService(index), scheme="dual-i",
                         config=config)
    handle = ServerThread(server).start()
    try:
        with ReachClient(port=handle.port) as client:
            nodes = sorted(graph.nodes())
            client.query_batch([(nodes[0], nodes[-1]),
                                (nodes[-1], nodes[0])])
            exposition = client.metrics()["exposition"]
    finally:
        handle.stop()

    families = {name for name in parse_exposition(exposition)
                if name.startswith("reach_")}
    assert families, "server exposed no reach_* families"
    documented = set(re.findall(r"`(reach_[a-z0-9_]+)`",
                                _doc_text("docs/OBSERVABILITY.md")))
    undocumented = sorted(families - documented)
    assert not undocumented, (
        "families missing from docs/OBSERVABILITY.md: "
        f"{undocumented}")
