"""Multi-tenant catalog: quotas, lifecycle, races, and isolation.

The unit half pins the :mod:`repro.server.tenancy` contracts —
:class:`TenantQuota` payload validation, the admission counters and
token bucket, catalog name/id resolution, and the label-size budget.
The integration half drives a live gateway through the catalog verbs
over both wire protocols and proves the lifecycle races are safe:
dropping an index while its queries are in flight, reloading tenant A
mid-flush of tenant B, binary-frame index dispatch, and the
``unknown_index`` error taxonomy a client must be able to rely on.
"""

from __future__ import annotations

import time

import pytest

from repro.core.base import build_index
from repro.core.serialize import save_dual_index
from repro.core.service import QueryService
from repro.exceptions import IndexBudgetExceeded
from repro.graph.generators import random_dag
from repro.graph.io import write_edge_list
from repro.server.batcher import OverloadedError
from repro.server.client import (
    BinaryReachClient,
    ReachClient,
    ServerReplyError,
)
from repro.server.loadgen import run_loadgen, run_loadgen_mix
from repro.server.protocol import ProtocolError
from repro.server.tenancy import (
    DEFAULT_INDEX,
    DEFAULT_INDEX_ID,
    CatalogService,
    TenantQuota,
)
from tests.test_server import raw_exchange, serve


# ---------------------------------------------------------------------
# unit: quota validation and admission counters
# ---------------------------------------------------------------------

class TestTenantQuota:
    def test_from_payload_none_is_unlimited(self):
        quota = TenantQuota.from_payload(None)
        assert quota == TenantQuota()
        assert all(v is None for v in quota.as_dict().values())

    def test_from_payload_coerces_types(self):
        quota = TenantQuota.from_payload(
            {"max_inflight": 4, "max_pending": 100.0, "rate": 7,
             "burst": 3, "max_label_bytes": 1 << 20})
        assert quota.max_inflight == 4
        assert quota.max_pending == 100
        assert quota.rate == 7.0 and isinstance(quota.rate, float)
        assert quota.burst == 3
        assert quota.max_label_bytes == 1 << 20

    @pytest.mark.parametrize("payload", [
        "not a dict",
        ["max_inflight", 4],
        {"max_inflight": 4, "bogus": 1},
        {"max_inflight": 0},
        {"max_pending": -5},
        {"rate": True},
        {"max_label_bytes": "1MB"},
    ])
    def test_from_payload_rejects_bad_payloads(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            TenantQuota.from_payload(payload)
        assert excinfo.value.code == "bad_request"


class TestAdmission:
    def _entry(self, **quota):
        return CatalogService(None).create("t", quota=TenantQuota(**quota))

    def test_inflight_quota_sheds_and_releases(self):
        entry = self._entry(max_inflight=2)
        entry.admit(1)
        entry.admit(1)
        with pytest.raises(OverloadedError, match="inflight quota"):
            entry.admit(1)
        assert (entry.admitted, entry.shed, entry.inflight) == (2, 1, 2)
        entry.release(1)
        entry.admit(1)  # the freed slot is reusable
        assert entry.shed == 1

    def test_pending_pairs_quota_counts_pairs_not_requests(self):
        entry = self._entry(max_pending=100)
        entry.admit(60)
        with pytest.raises(OverloadedError, match="pending-pairs"):
            entry.admit(41)
        entry.admit(40)  # exactly at the bound is admitted
        assert entry.pending_pairs == 100
        entry.release(60)
        assert entry.pending_pairs == 40

    def test_rate_quota_is_a_token_bucket(self):
        # rate so low no token regenerates inside the test; the burst
        # is the whole budget.
        entry = self._entry(rate=0.001, burst=2)
        entry.admit(1)
        entry.admit(1)
        with pytest.raises(OverloadedError, match="rate quota"):
            entry.admit(1)
        assert entry.shed == 1

    def test_unlimited_quota_never_sheds(self):
        entry = self._entry()
        for _ in range(1000):
            entry.admit(50)
        assert entry.shed == 0 and entry.admitted == 1000


class TestCatalogService:
    def test_default_entry_and_alias_resolution(self):
        graph = random_dag(20, 30, seed=0)
        service = QueryService(build_index(graph, scheme="dual-i"))
        catalog = CatalogService(service, scheme="dual-i")
        assert catalog.default.index_id == DEFAULT_INDEX_ID
        assert catalog.lookup(None) is catalog.default
        assert catalog.lookup(DEFAULT_INDEX) is catalog.default
        assert catalog.default.label_bytes > 0
        service.close()

    def test_create_allocates_sequential_ids(self):
        catalog = CatalogService(None)
        assert [catalog.create(f"t{i}").index_id
                for i in range(3)] == [1, 2, 3]
        assert catalog.names() == ["default", "t0", "t1", "t2"]

    @pytest.mark.parametrize("name", [
        None, 7, "", "-leading-dash", "has space", "x" * 65])
    def test_create_rejects_bad_names(self, name):
        with pytest.raises(ProtocolError) as excinfo:
            CatalogService(None).create(name)
        assert excinfo.value.code == "bad_request"

    def test_create_rejects_duplicates(self):
        catalog = CatalogService(None)
        catalog.create("t1")
        with pytest.raises(ProtocolError, match="already exists"):
            catalog.create("t1")
        with pytest.raises(ProtocolError, match="already taken"):
            catalog.create("t2", index_id=1)

    def test_unknown_and_unloaded_names_are_unknown_index(self):
        catalog = CatalogService(None)
        catalog.create("empty")
        for fail in (lambda: catalog.lookup("nope"),
                     lambda: catalog.resolve("empty"),
                     lambda: catalog.lookup_id(99),
                     lambda: catalog.resolve_id(1)):
            with pytest.raises(ProtocolError) as excinfo:
                fail()
            assert excinfo.value.code == "unknown_index"

    def test_drop_protects_the_default(self):
        catalog = CatalogService(None)
        with pytest.raises(ProtocolError, match="cannot be dropped"):
            catalog.drop(DEFAULT_INDEX)
        entry = catalog.create("t1")
        assert catalog.drop("t1") is entry
        with pytest.raises(ProtocolError):
            catalog.lookup("t1")

    def test_check_budget_enforces_label_bytes(self):
        catalog = CatalogService(None)
        index = build_index(random_dag(50, 80, seed=1), scheme="dual-i")
        roomy = catalog.create("roomy", quota=TenantQuota(
            max_label_bytes=1 << 30))
        assert catalog.check_budget(roomy, index) > 0
        tiny = catalog.create("tiny", quota=TenantQuota(
            max_label_bytes=8))
        with pytest.raises(IndexBudgetExceeded) as excinfo:
            catalog.check_budget(tiny, index)
        assert excinfo.value.index_name == "tiny"
        assert excinfo.value.budget_bytes == 8
        assert excinfo.value.label_bytes > 8

    def test_install_swaps_generations(self):
        catalog = CatalogService(None)
        entry = catalog.create("t1")
        index = build_index(random_dag(20, 30, seed=2), scheme="dual-i")
        first = QueryService(index)
        assert catalog.install(entry, first) is None
        assert entry.generation == 1 and entry.label_bytes > 0
        second = QueryService(index)
        assert catalog.install(entry, second) is first
        assert entry.generation == 2
        first.close()
        second.close()

    def test_collect_emits_per_tenant_families(self):
        catalog = CatalogService(None)
        entry = catalog.create("t1")
        entry.admit(5)
        families = {f["name"]: f for f in catalog.collect()}
        assert set(families) == {
            "reach_tenant_requests_total", "reach_tenant_shed_total",
            "reach_tenant_inflight", "reach_tenant_pending_pairs",
            "reach_tenant_label_bytes", "reach_tenant_generation"}
        samples = dict()
        for labels, value in families[
                "reach_tenant_pending_pairs"]["samples"]:
            samples[labels["index"]] = value
        assert samples == {"default": 0, "t1": 5}


# ---------------------------------------------------------------------
# integration: catalog verbs over a live gateway
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    """Default graph plus two tenant graphs (files + direct indexes)."""
    base = tmp_path_factory.mktemp("tenancy")
    out = {}
    for name, seed, n, m in (("main", 1, 60, 120), ("t1", 2, 50, 100),
                             ("t2", 3, 40, 80)):
        graph = random_dag(n, m, seed=seed)
        path = base / f"{name}.edges"
        write_edge_list(graph, path)
        out[name] = (graph, str(path))
    return out


def _pairs(graph, count=40, seed=9):
    import random as _random
    rng = _random.Random(seed)
    nodes = list(graph.nodes())
    return [(rng.choice(nodes), rng.choice(nodes))
            for _ in range(count)]


class TestCatalogVerbs:
    def test_full_lifecycle_and_default_alias(self, graphs):
        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        t1_index = build_index(t1_graph, scheme="dual-ii")
        pairs = _pairs(t1_graph)
        expected = t1_index.reachable_many(pairs)
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            created = client.catalog("create", name="t1",
                                     scheme="dual-ii",
                                     quota={"max_inflight": 64})
            assert created["created"] == "t1"
            assert created["index_id"] == 1
            assert created["quota"]["max_inflight"] == 64
            # Registered but empty: resolvable in list, not in query.
            rows = {r["name"]: r for r in client.catalog_list()}
            assert rows["t1"]["loaded"] is False
            with pytest.raises(ServerReplyError) as excinfo:
                client.query(0, 1, index="t1")
            assert excinfo.value.code == "unknown_index"

            built = client.catalog("build", name="t1", graph=t1_path)
            assert built["swapped"] and built["index_name"] == "t1"
            assert built["scheme"] == "dual-ii"
            assert client.query_batch(pairs, index="t1") == expected

            # The default-tenant alias: all three spellings answer
            # from the same entry.
            main_pairs = _pairs(graph)
            default_answers = client.query_batch(main_pairs)
            assert client.query_batch(
                main_pairs, index="default") == default_answers
            for u, v in main_pairs[:5]:
                assert client.query(u, v, index="default") == \
                    client.query(u, v)

            # Named reload re-indexes the tenant in place.
            swapped = client.reload(graph=t1_path, name="t1",
                                    scheme="dual-i")
            assert swapped["index_name"] == "t1"
            assert swapped["generation"] == 2
            assert swapped["scheme"] == "dual-i"
            assert client.query_batch(pairs, index="t1") == expected

            dropped = client.catalog("drop", name="t1")
            assert dropped == {"dropped": "t1", "index_id": 1}
            with pytest.raises(ServerReplyError) as excinfo:
                client.query_batch(pairs, index="t1")
            assert excinfo.value.code == "unknown_index"
            # The default index never noticed any of it.
            assert client.query_batch(main_pairs) == default_answers
            assert client.health()["status"] == "ok"

    def test_catalog_error_taxonomy(self, graphs):
        graph, _ = graphs["main"]
        index = build_index(graph, scheme="dual-i")
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            cases = [
                (dict(op="nope"), "bad_request"),
                (dict(op="create", name="bad name!"), "bad_request"),
                (dict(op="create", name="t", quota={"rate": -1}),
                 "bad_request"),
                (dict(op="drop", name="default"), "bad_request"),
                (dict(op="drop", name="ghost"), "unknown_index"),
                (dict(op="build", name="ghost", graph="g"),
                 "unknown_index"),
                (dict(op="build", name="default", graph="g"),
                 "bad_request"),
                (dict(op="load", name="default", index="f"),
                 "bad_request"),
                # Scheme names are checked against the registry where
                # the mutation is parsed, not deep inside a build.
                (dict(op="create", name="t", scheme="nope"),
                 "bad_request"),
            ]
            for fields, code in cases:
                with pytest.raises(ServerReplyError) as excinfo:
                    client.catalog(**fields)
                assert excinfo.value.code == code, fields
            # A build pointing at a missing file fails cleanly...
            client.catalog("create", name="t")
            for fields in (dict(op="build", name="t", graph="g",
                                scheme="nope"),
                           dict(op="load", name="t", index="f",
                                scheme="nope")):
                with pytest.raises(ServerReplyError) as excinfo:
                    client.catalog(**fields)
                assert excinfo.value.code == "bad_request", fields
            with pytest.raises(ServerReplyError) as excinfo:
                client.reload(graph="g", scheme="nope")
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServerReplyError) as excinfo:
                client.catalog("build", name="t", graph="/nope/missing")
            assert excinfo.value.code == "reload_failed"
            # ...and the error is in-band: the connection still works
            # and the server is NOT degraded (tenant trouble is the
            # tenant's alone).
            assert client.ping()
            assert client.health()["status"] == "ok"

    def test_label_budget_rejects_oversized_index(self, graphs):
        graph, _ = graphs["main"]
        _, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            client.catalog("create", name="tiny",
                           quota={"max_label_bytes": 8})
            with pytest.raises(ServerReplyError) as excinfo:
                client.catalog("build", name="tiny", graph=t1_path)
            assert excinfo.value.code == "reload_failed"
            assert "budget" in str(excinfo.value)
            # The rejected index was never installed.
            rows = {r["name"]: r for r in client.catalog_list()}
            assert rows["tiny"]["loaded"] is False
            assert client.health()["status"] == "ok"

    def test_load_saved_index_into_tenant(self, graphs, tmp_path):
        graph, _ = graphs["main"]
        t2_graph, _ = graphs["t2"]
        index = build_index(graph, scheme="dual-i")
        t2_index = build_index(t2_graph, scheme="dual-ii")
        saved = tmp_path / "t2.dual-ii.idx"
        save_dual_index(t2_index, saved)
        pairs = _pairs(t2_graph)
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            client.catalog("create", name="t2")
            loaded = client.catalog("load", name="t2",
                                    index=str(saved))
            assert loaded["source"] == "index"
            assert loaded["scheme"] == "dual-ii"
            assert client.query_batch(pairs, index="t2") == \
                t2_index.reachable_many(pairs)

    def test_per_tenant_quota_sheds_only_that_tenant(self, graphs):
        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            client.catalog("create", name="t1",
                           quota={"rate": 0.001, "burst": 2})
            client.catalog("build", name="t1", graph=t1_path)
            assert client.query(0, 1, index="t1") in (True, False)
            assert client.query(0, 1, index="t1") in (True, False)
            with pytest.raises(ServerReplyError) as excinfo:
                client.query(0, 1, index="t1")
            assert excinfo.value.code == "overloaded"
            # The default tenant has no quota and is untouched.
            for _ in range(10):
                client.query(0, 1)
            rows = {r["name"]: r for r in client.catalog_list()}
            assert rows["t1"]["shed"] == 1
            assert rows["default"]["shed"] == 0

    def test_stats_and_metrics_carry_tenant_series(self, graphs):
        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            client.catalog("create", name="t1")
            client.catalog("build", name="t1", graph=t1_path)
            client.query_batch(_pairs(t1_graph), index="t1")
            rows = {r["name"]: r for r in
                    client.stats()["catalog"]}
            assert rows["t1"]["admitted"] >= 1
            assert rows["t1"]["label_bytes"] > 0
            exposition = client.metrics()["exposition"]
            tenant_lines = [line for line in exposition.splitlines()
                            if line.startswith(
                                "reach_tenant_requests_total{")]
            assert any('index="t1"' in line for line in tenant_lines)
            assert any('index="default"' in line
                       for line in tenant_lines)


# ---------------------------------------------------------------------
# integration: binary-frame index dispatch
# ---------------------------------------------------------------------

class TestBinaryDispatch:
    def test_index_id_routes_to_the_named_entry(self, graphs):
        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        t1_index = build_index(t1_graph, scheme="dual-ii")
        pairs = _pairs(t1_graph)
        with serve(index) as handle:
            with ReachClient(port=handle.port) as client:
                client.catalog("create", name="t1", scheme="dual-ii")
                client.catalog("build", name="t1", graph=t1_path)
                t1_id = {r["name"]: r["index_id"]
                         for r in client.catalog_list()}["t1"]
            with BinaryReachClient(port=handle.port,
                                   index_id=t1_id) as binary:
                assert binary.query_batch(pairs) == \
                    t1_index.reachable_many(pairs)
                # Per-call override beats the connection default.
                main_pairs = _pairs(graph)
                assert binary.query_batch(main_pairs, index_id=0) == \
                    index.reachable_many(main_pairs)

    def test_unknown_id_is_in_sync_and_recoverable(self, graphs):
        """A bad index id must answer ``unknown_index`` as a framed
        error — the connection stays usable, unlike a desync."""
        graph, _ = graphs["main"]
        index = build_index(graph, scheme="dual-i")
        pairs = _pairs(graph)
        with serve(index) as handle, \
                BinaryReachClient(port=handle.port) as binary:
            with pytest.raises(ServerReplyError) as excinfo:
                binary.query_batch(pairs, index_id=999)
            assert excinfo.value.code == "unknown_index"
            assert binary.query_batch(pairs) == \
                index.reachable_many(pairs)

    def test_empty_entry_id_is_unknown_index(self, graphs):
        graph, _ = graphs["main"]
        index = build_index(graph, scheme="dual-i")
        with serve(index) as handle:
            with ReachClient(port=handle.port) as client:
                created = client.catalog("create", name="hollow")
            with BinaryReachClient(port=handle.port) as binary:
                with pytest.raises(ServerReplyError) as excinfo:
                    binary.query_batch([(0, 1)],
                                       index_id=created["index_id"])
                assert excinfo.value.code == "unknown_index"


# ---------------------------------------------------------------------
# integration: lifecycle races
# ---------------------------------------------------------------------

class TestLifecycleRaces:
    def test_drop_while_queries_inflight(self, graphs):
        """Queries buffered in the tenant's lane when the drop lands
        must complete correctly (the retiring flush snapshots the
        service); queries after the drop answer ``unknown_index``."""
        import json as _json

        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        t1_index = build_index(t1_graph, scheme="dual-ii")
        pairs = _pairs(t1_graph, count=16)
        expected = t1_index.reachable_many(pairs)
        # A wide flush window keeps the batch buffered while the drop
        # races in behind it.
        with serve(index, max_delay=0.25, max_batch=4096) as handle:
            with ReachClient(port=handle.port) as client:
                client.catalog("create", name="t1", scheme="dual-ii")
                client.catalog("build", name="t1", graph=t1_path)
                line = _json.dumps(
                    {"id": 1, "verb": "batch", "index": "t1",
                     "pairs": [list(p) for p in pairs]}).encode() + b"\n"
                import socket as _socket
                with _socket.create_connection(
                        ("127.0.0.1", handle.port),
                        timeout=30.0) as sock:
                    sock.sendall(line)
                    # Let the batch reach the tenant's lane before the
                    # drop races in behind it (well inside the 0.25s
                    # flush window).
                    time.sleep(0.08)
                    assert client.catalog("drop", name="t1") == \
                        {"dropped": "t1", "index_id": 1}
                    reader = sock.makefile("rb")
                    reply = _json.loads(reader.readline())
                assert reply["ok"], reply
                assert reply["result"] == expected
                with pytest.raises(ServerReplyError) as excinfo:
                    client.query(0, 1, index="t1")
                assert excinfo.value.code == "unknown_index"

    def test_reload_tenant_a_during_tenant_b_flush(self, graphs):
        """Tenant B's buffered batch must be answered from B's own
        pre-flush snapshot even while tenant A swaps generations."""
        import json as _json

        graph, _ = graphs["main"]
        a_graph, a_path = graphs["t1"]
        b_graph, b_path = graphs["t2"]
        index = build_index(graph, scheme="dual-i")
        b_index = build_index(b_graph, scheme="dual-i")
        pairs = _pairs(b_graph, count=16)
        expected = b_index.reachable_many(pairs)
        with serve(index, max_delay=0.25, max_batch=4096) as handle:
            with ReachClient(port=handle.port) as client:
                client.catalog("create", name="a")
                client.catalog("build", name="a", graph=a_path)
                client.catalog("create", name="b")
                client.catalog("build", name="b", graph=b_path)
                line = _json.dumps(
                    {"id": 7, "verb": "batch", "index": "b",
                     "pairs": [list(p) for p in pairs]}).encode() + b"\n"
                import socket as _socket
                with _socket.create_connection(
                        ("127.0.0.1", handle.port),
                        timeout=30.0) as sock:
                    sock.sendall(line)
                    time.sleep(0.08)
                    swap = client.reload(graph=a_path, name="a",
                                         scheme="dual-ii")
                    assert swap["index_name"] == "a"
                    reader = sock.makefile("rb")
                    reply = _json.loads(reader.readline())
                assert reply["ok"], reply
                assert reply["result"] == expected

    def test_queries_span_tenants_on_one_connection(self, graphs):
        """Interleaved per-tenant requests pipelined on a single
        connection all answer from their own index."""
        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        t1_index = build_index(t1_graph, scheme="dual-ii")
        import json as _json

        with serve(index) as handle:
            with ReachClient(port=handle.port) as client:
                client.catalog("create", name="t1", scheme="dual-ii")
                client.catalog("build", name="t1", graph=t1_path)
            main_pairs = _pairs(graph, count=8)
            t1_pairs = _pairs(t1_graph, count=8)
            lines = []
            for i, (mp, tp) in enumerate(zip(main_pairs, t1_pairs)):
                lines.append(_json.dumps(
                    {"id": 2 * i, "verb": "query",
                     "u": mp[0], "v": mp[1]}).encode() + b"\n")
                lines.append(_json.dumps(
                    {"id": 2 * i + 1, "verb": "query", "index": "t1",
                     "u": tp[0], "v": tp[1]}).encode() + b"\n")
            replies = {r["id"]: r for r in raw_exchange(
                handle.port, lines, len(lines))}
            for i, (mp, tp) in enumerate(zip(main_pairs, t1_pairs)):
                assert replies[2 * i]["result"] == \
                    index.reachable(*mp)
                assert replies[2 * i + 1]["result"] == \
                    t1_index.reachable(*tp)

    def test_retired_services_are_freed(self, graphs):
        """A dropped tenant's service and a reloaded default's service
        are let go: once their in-flight flushes have drained, nothing
        in the gateway keeps either alive."""
        import gc
        import weakref

        graph, main_path = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        main_pairs = _pairs(graph)
        with serve(index) as handle:
            catalog = handle.server.catalog
            with ReachClient(port=handle.port) as client:
                client.catalog("create", name="t1")
                client.catalog("build", name="t1", graph=t1_path)
                # Serve both entries over both lanes first, so every
                # per-service structure (kernel, buffers) exists.
                client.query_batch(_pairs(t1_graph), index="t1")
                client.query_batch(main_pairs)
                with BinaryReachClient(port=handle.port) as binary:
                    binary.query_batch(_pairs(t1_graph), index_id=1)
                    binary.query_batch(main_pairs)
                tenant = weakref.ref(catalog.lookup("t1").service)
                default = weakref.ref(catalog.default.service)
                client.catalog("drop", name="t1")
                client.reload(graph=main_path)
                assert client.query_batch(main_pairs) == \
                    index.reachable_many(main_pairs)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline \
                    and (tenant() is not None or default() is not None):
                gc.collect()
                time.sleep(0.01)
            assert tenant() is None, "dropped tenant's service leaked"
            assert default() is None, "reloaded default's service leaked"


# ---------------------------------------------------------------------
# loadgen: per-tenant targeting and the concurrent mix
# ---------------------------------------------------------------------

class TestLoadgenTenancy:
    def test_single_stream_validation(self):
        with pytest.raises(ValueError, match="numeric id"):
            run_loadgen("h", 1, [(0, 1)], protocol="binary",
                        index="name")
        with pytest.raises(ValueError, match="by name"):
            run_loadgen("h", 1, [(0, 1)], protocol="json", index=3)
        with pytest.raises(ValueError, match="at least one"):
            run_loadgen_mix("h", 1, [])

    def test_mix_drives_tenants_concurrently(self, graphs):
        graph, _ = graphs["main"]
        t1_graph, t1_path = graphs["t1"]
        index = build_index(graph, scheme="dual-i")
        t1_index = build_index(t1_graph, scheme="dual-ii")
        pool_main = _pairs(graph, count=64)
        pool_t1 = _pairs(t1_graph, count=64)
        with serve(index) as handle:
            with ReachClient(port=handle.port) as client:
                client.catalog("create", name="t1", scheme="dual-ii")
                client.catalog("build", name="t1", graph=t1_path)
                t1_id = {r["name"]: r["index_id"]
                         for r in client.catalog_list()}["t1"]
            results = run_loadgen_mix("127.0.0.1", handle.port, [
                {"pairs": pool_main, "connections": 2,
                 "batch_size": 4,
                 "expected": index.reachable_many(pool_main)},
                {"pairs": pool_t1, "connections": 2, "batch_size": 4,
                 "index": "t1",
                 "expected": t1_index.reachable_many(pool_t1)},
                {"pairs": pool_t1, "connections": 2, "batch_size": 4,
                 "index": t1_id, "protocol": "binary",
                 "expected": t1_index.reachable_many(pool_t1)},
            ], duration=0.5)
            assert [r.index for r in results] == [None, "t1", t1_id]
            for result in results:
                assert result.ok > 0, result.as_dict()
                assert result.wrong_answers == 0, \
                    result.mismatch_samples
            assert results[0].as_dict()["index"] == "default"
