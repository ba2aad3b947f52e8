"""One catalog-mutation script, four targets, one set of replies.

The single server and the worker fleet share one mutation path
(:class:`~repro.server.tenancy.CatalogMutator`), so the same request
script must get the same reply codes, the same result keys and the same
``health`` after every step from a :class:`ServerThread` and from a
1-worker :class:`WorkerFleet`, each with and without a durable state
dir.  The fleet's install replies may add a ``workers`` count; nothing
else may differ.  A scheme no index image holds (``interval``) is a
``bad_request`` everywhere: every target serves images only.
"""

from __future__ import annotations

import pytest

from repro.core.base import build_index
from repro.core.serialize import save_dual_index
from repro.core.service import QueryService
from repro.graph.generators import gnm_random_digraph
from repro.graph.io import write_edge_list
from repro.server.client import ReachClient, ServerReplyError
from repro.server.durability import DurableState
from repro.server.router import WorkerFleet
from repro.server.server import ReachServer, ServerConfig, ServerThread

pytestmark = pytest.mark.slow

TARGETS = ("server", "server-durable", "fleet", "fleet-durable")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog-diff")
    graph = gnm_random_digraph(40, 90, seed=61)
    tenant = gnm_random_digraph(30, 70, seed=62)
    paths = {"graph": root / "main.edges", "tenant": root / "t.edges",
             "saved": root / "t.idx", "missing": root / "missing.idx"}
    write_edge_list(graph, paths["graph"])
    write_edge_list(tenant, paths["tenant"])
    save_dual_index(build_index(tenant, scheme="dual-ii"), paths["saved"])
    files = {name: str(path) for name, path in paths.items()}
    files["index"] = build_index(graph, scheme="dual-i")
    return files


def _script(files) -> list[tuple[str, str, dict]]:
    """``(label, verb, fields)`` steps: the five rows where the fleet
    once drifted, then a tenant's whole life, then entry 0's
    degrade-and-recover cycle."""
    graph, tenant = files["graph"], files["tenant"]
    return [
        ("reload no source", "reload", {}),
        ("reload unknown name", "reload",
         {"name": "ghost", "graph": graph}),
        ("reload scheme not a string", "reload",
         {"graph": graph, "scheme": 7}),
        ("reload unknown scheme", "reload",
         {"graph": graph, "scheme": "nope"}),
        ("reload scheme=interval", "reload",
         {"graph": graph, "scheme": "interval"}),
        ("create t", "catalog", {"op": "create", "name": "t"}),
        ("reload t missing graph", "reload",
         {"name": "t", "graph": files["missing"]}),
        ("create unknown scheme", "catalog",
         {"op": "create", "name": "u", "scheme": "nope"}),
        ("build t", "catalog", {"op": "build", "name": "t",
                                "graph": tenant, "scheme": "dual-ii"}),
        ("build t unknown scheme", "catalog",
         {"op": "build", "name": "t", "graph": tenant,
          "scheme": "nope"}),
        ("build t scheme=interval", "catalog",
         {"op": "build", "name": "t", "graph": tenant,
          "scheme": "interval"}),
        ("load t", "catalog", {"op": "load", "name": "t",
                               "index": files["saved"]}),
        ("load t missing file", "catalog",
         {"op": "load", "name": "t", "index": files["missing"]}),
        ("quota t", "catalog", {"op": "quota", "name": "t",
                                "quota": {"max_label_bytes": 8}}),
        ("load t over budget", "catalog",
         {"op": "load", "name": "t", "index": files["saved"]}),
        ("drop t", "catalog", {"op": "drop", "name": "t"}),
        ("drop t again", "catalog", {"op": "drop", "name": "t"}),
        ("reload missing index", "reload", {"index": files["missing"]}),
        ("reload graph", "reload", {"graph": graph}),
    ]


def _observe(port: int, files) -> list[tuple]:
    """Run the script; one ``(label, code, keys, values, health)`` per
    step."""
    seen = []
    with ReachClient(port=port, timeout=60.0) as client:
        for label, verb, fields in _script(files):
            try:
                doc = client.call(verb, **fields)
            except ServerReplyError as exc:
                code, keys, values = exc.code, (), ()
            else:
                code = "ok"
                doc.pop("workers", None)
                keys = tuple(sorted(doc))
                values = tuple((key, doc[key]) for key in (
                    "created", "updated", "dropped", "index_name",
                    "index_id", "generation", "scheme", "source")
                    if key in doc)
            seen.append((label, code, keys, values,
                         client.health()["status"]))
    return seen


def _run(target: str, files, tmp_path) -> list[tuple]:
    state = None
    if target.endswith("-durable"):
        state = DurableState(tmp_path / "state")
        state.recover()
    try:
        if target.startswith("fleet"):
            with WorkerFleet(files["index"], workers=1, state=state,
                             probe_interval=None) as fleet:
                return _observe(fleet.port, files)
        server = ReachServer(QueryService(files["index"]),
                             config=ServerConfig(state=state))
        with ServerThread(server) as handle:
            return _observe(handle.port, files)
    finally:
        if state is not None:
            state.close()


@pytest.fixture(scope="module")
def single_server(files, tmp_path_factory):
    return _run("server", files, tmp_path_factory.mktemp("server"))


def test_single_server_reference(single_server):
    """The reference replies themselves: the error taxonomy the other
    targets must match."""
    codes = {label: code for label, code, *_ in single_server}
    assert codes == {
        "reload no source": "bad_request",
        "reload unknown name": "unknown_index",
        "reload scheme not a string": "bad_request",
        "reload unknown scheme": "bad_request",
        "reload scheme=interval": "bad_request",
        "create t": "ok",
        "reload t missing graph": "reload_failed",
        "create unknown scheme": "bad_request",
        "build t": "ok",
        "build t unknown scheme": "bad_request",
        "build t scheme=interval": "bad_request",
        "load t": "ok",
        "load t missing file": "reload_failed",
        "quota t": "ok",
        "load t over budget": "reload_failed",
        "drop t": "ok",
        "drop t again": "unknown_index",
        "reload missing index": "reload_failed",
        "reload graph": "ok",
    }
    health = {label: status for label, *_, status in single_server}
    assert health["reload t missing graph"] == "ok"
    assert health["reload missing index"] == "degraded"
    assert health["reload graph"] == "ok"


@pytest.mark.parametrize("target", TARGETS[1:])
def test_every_target_answers_like_the_single_server(
        target, files, single_server, tmp_path):
    got = _run(target, files, tmp_path)
    for want, have in zip(single_server, got):
        assert have == want, f"{target} diverged at {want[0]!r}"
    assert len(got) == len(single_server)
