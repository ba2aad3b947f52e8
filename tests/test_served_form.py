"""One served form: every install serves, saves and publishes its image.

The server and the fleet turn every index they install into its binary
image (:func:`repro.core.serialize.as_image`) before the install acks:
the built object, its pipeline and its graph are let go, and the bytes
served are the bytes saved and published, so an install serialises at
most once.  Also here: a ``drop`` that lands while the same entry's
build runs wins on every target and across a restart, and the fleet
boots degraded wherever the single server does.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro
from repro.core import serialize
from repro.core.base import build_index
from repro.core.service import QueryService
from repro.exceptions import IndexBuildError
from repro.graph.generators import gnm_random_digraph
from repro.graph.io import read_edge_list, write_edge_list
from repro.server import tenancy
from repro.server.client import ReachClient, ServerReplyError
from repro.server.durability import restore_catalog
from repro.server.router import WorkerFleet
from repro.server.server import ReachServer, ServerConfig, ServerThread
from repro.server.tenancy import DEFAULT_INDEX, DEFAULT_INDEX_ID, EntryRow
from tests.test_durability import _fresh as _fresh_state


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("served") / "g.edges"
    write_edge_list(gnm_random_digraph(40, 90, seed=5), path)
    return str(path)


@pytest.fixture
def built(monkeypatch):
    """Weak references to every index the catalog path builds."""
    refs = []
    real = tenancy.build_index

    def tracked(*args, **kwargs):
        index = real(*args, **kwargs)
        refs.append(weakref.ref(index))
        return index

    monkeypatch.setattr(tenancy, "build_index", tracked)
    return refs


def _assert_image(index) -> None:
    assert index.image is not None
    with pytest.raises(IndexBuildError):
        index.pipeline  # noqa: B018 - the property raises


def _assert_freed(refs) -> None:
    gc.collect()
    assert refs and all(ref() is None for ref in refs), \
        "a built index outlived its install"


class TestOnlyImagesAreServed:
    def test_catalog_build_and_reload_free_the_built_index(
            self, graph_file, built, tmp_path):
        saved = tmp_path / "t.idx"
        serialize.save_dual_index(
            build_index(gnm_random_digraph(30, 60, seed=6),
                        scheme="dual-ii"), saved)
        server = ReachServer(QueryService(
            build_index(gnm_random_digraph(20, 40, seed=7))))
        with ServerThread(server) as handle, \
                ReachClient(port=handle.port) as client:
            client.catalog("create", name="t", scheme="dual-ii")
            reply = client.catalog("build", name="t", graph=graph_file)
            _assert_freed(built)
            _assert_image(server.catalog.lookup("t").service.index)
            # The image keeps no phase times; the reply keeps the build's.
            assert {"meg", "tlc_search_tree"} <= set(reply["phase_seconds"])
            client.reload(graph=graph_file)
            _assert_freed(built)
            _assert_image(server.catalog.default.service.index)
            client.catalog("load", name="t", index=str(saved))
            _assert_image(server.catalog.lookup("t").service.index)

    def test_boot_rows_serve_images(self, tmp_path):
        """``serve GRAPH`` and ``serve --tenant`` (``ReachServer.adopt``)
        and boot's fresh durable default serve images, not the built
        indexes they were handed."""
        graph = gnm_random_digraph(30, 60, seed=8)
        server = ReachServer(None)
        rows = [EntryRow(DEFAULT_INDEX, DEFAULT_INDEX_ID,
                         index=build_index(graph)),
                EntryRow("t", scheme="dual-ii",
                         index=build_index(graph, scheme="dual-ii"))]
        refs = [weakref.ref(row.index) for row in rows]
        for row in rows:
            server.adopt(row)
        _assert_freed(refs)
        for name in (DEFAULT_INDEX, "t"):
            _assert_image(server.catalog.lookup(name).service.index)

        state = _fresh_state(tmp_path / "state")
        boot = restore_catalog(state, default_factory=lambda: (
            build_index(graph), "dual-i"))
        _assert_image(boot.default.index)
        state.close()

    def test_fleet_startup_rows_and_swaps_free_the_built_index(
            self, graph_file, built):
        graph = gnm_random_digraph(30, 60, seed=9)
        default = build_index(graph)
        tenant = EntryRow("t", scheme="dual-ii",
                          index=build_index(graph, scheme="dual-ii"))
        refs = [weakref.ref(default), weakref.ref(tenant.index)]
        with WorkerFleet(default, workers=1, tenants=[tenant],
                         probe_interval=None) as fleet:
            del default, tenant
            _assert_freed(refs)
            fleet.reload(graph=graph_file)
            fleet.reload(graph=graph_file, name="t")
            _assert_freed(built)
            truth = build_index(read_edge_list(graph_file))
            pairs = [(u, v) for u in range(0, 40, 3) for v in range(40)]
            with ReachClient(port=fleet.port) as client:
                for name in (None, "t"):
                    assert client.query_batch(pairs, index=name) == \
                        truth.reachable_many(pairs)


class TestSerialisesOnce:
    @pytest.fixture
    def sections(self, monkeypatch):
        """Count real serialisations (image layouts computed)."""
        calls = []
        real = serialize._sections

        def counted(index):
            calls.append(type(index).__name__)
            return real(index)

        monkeypatch.setattr(serialize, "_sections", counted)
        return calls

    def test_durable_fleet_build_serialises_once(
            self, graph_file, sections, tmp_path):
        state = _fresh_state(tmp_path / "state")
        default = build_index(gnm_random_digraph(20, 40, seed=10))
        try:
            with WorkerFleet(default, workers=1, state=state,
                             probe_interval=None) as fleet, \
                    ReachClient(port=fleet.port, timeout=60.0) as client:
                client.catalog("create", name="t")
                sections.clear()
                client.catalog("build", name="t", graph=graph_file)
                assert len(sections) == 1, sections
        finally:
            state.close()

    def test_durable_load_does_not_serialise(self, sections, tmp_path):
        saved = tmp_path / "t.idx"
        serialize.save_dual_index(
            build_index(gnm_random_digraph(30, 60, seed=11)), saved)
        state = _fresh_state(tmp_path / "state")
        server = ReachServer(
            QueryService(build_index(gnm_random_digraph(20, 40, seed=12))),
            config=ServerConfig(state=state))
        try:
            with ServerThread(server) as handle, \
                    ReachClient(port=handle.port) as client:
                client.catalog("create", name="t")
                sections.clear()
                client.catalog("load", name="t", index=str(saved))
                assert sections == []
            artifact = state.entry("t").artifact
            assert (tmp_path / "state" / artifact).read_bytes() == \
                saved.read_bytes()
        finally:
            state.close()


@pytest.mark.parametrize("durable", [False, True],
                         ids=["memory", "durable"])
def test_drop_during_build_wins(durable, graph_file, monkeypatch,
                                tmp_path):
    """A ``drop`` acked while the same entry's build runs: the build
    fails ``reload_failed``, ``catalog list`` lacks the entry, and a
    restart does not bring it back."""
    entered, release = threading.Event(), threading.Event()
    real = tenancy.build_index

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(30.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(tenancy, "build_index", gated)
    state = _fresh_state(tmp_path / "state") if durable else None
    server = ReachServer(
        QueryService(build_index(gnm_random_digraph(20, 40, seed=13))),
        config=ServerConfig(state=state))
    outcome = {}

    def build() -> None:
        with ReachClient(port=handle.port, timeout=60.0) as installer:
            try:
                outcome["reply"] = installer.catalog("build", name="t",
                                                   graph=graph_file)
            except ServerReplyError as exc:
                outcome["code"] = exc.code

    with ServerThread(server) as handle, \
            ReachClient(port=handle.port) as client:
        client.catalog("create", name="t")
        worker = threading.Thread(target=build)
        worker.start()
        assert entered.wait(30.0)
        assert client.catalog("drop", name="t")["dropped"] == "t"
        release.set()
        worker.join(60.0)
        assert not worker.is_alive()
        assert outcome.get("code") == "reload_failed", outcome
        assert "t" not in {row["name"] for row in client.catalog_list()}
    if durable:
        state.close()
        reopened = _fresh_state(tmp_path / "state")
        boot = restore_catalog(reopened, default_factory=lambda: (
            build_index(gnm_random_digraph(20, 40, seed=13)), "dual-i"))
        assert reopened.entry("t") is None
        assert "t" not in {row.name for row in boot.tenants}
        reopened.close()


def _serve(args, env) -> subprocess.Popen:
    """``repro-reach serve`` in a subprocess, past its banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    banner = proc.stdout.readline()
    match = re.search(r" on \S+:(\d+)", banner)
    if match is None:
        _stop(proc)
        raise RuntimeError(f"serve failed to start: {banner!r}")
    proc.port = int(match.group(1))
    return proc


def _stop(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - hung child
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()


@pytest.mark.slow
def test_fleet_boots_degraded_like_the_single_server(graph_file, tmp_path):
    """One state dir with a corrupted tenant artifact boots the same
    ``health`` with one worker (the single server) and with two."""
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    state_dir, pristine = tmp_path / "state", tmp_path / "corrupted"
    args = [graph_file, "--state-dir", str(state_dir)]
    _stop(_serve([*args, "--tenant", f"t={graph_file}"], env))
    artifact = state_dir / "indexes" / "t-g1.idx"
    blob = bytearray(artifact.read_bytes())
    blob[len(blob) // 2] ^= 0x55
    artifact.write_bytes(bytes(blob))
    shutil.copytree(state_dir, pristine)

    health = {}
    for workers in (1, 2):
        shutil.rmtree(state_dir)
        shutil.copytree(pristine, state_dir)
        proc = _serve([*args, "--workers", str(workers)], env)
        try:
            with ReachClient(port=proc.port, timeout=30.0) as client:
                doc = client.health()
            health[workers] = (doc["status"], doc["reason"])
        finally:
            _stop(proc)
    assert health[1][0] == "degraded", health
    assert health[2] == health[1]
