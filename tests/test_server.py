"""Integration tests for the asyncio serving gateway.

The differential harness mirrors ``tests/test_differential.py``: the
same seeded graph families, served through a real TCP gateway, must
answer every pair exactly as a direct ``QueryService`` does — including
across hot index swaps mid-run.  The remaining tests pin the protocol
behaviours the clients rely on: explicit ``overloaded`` replies under
the shed policy, per-request size caps, unknown-node isolation inside
shared flushes, and the ``stats``/``reload`` verbs.
"""

from __future__ import annotations

import json
import socket
from contextlib import contextmanager

import pytest

from repro.core.base import build_index
from repro.core.serialize import save_dual_index
from repro.core.service import QueryService
from repro.graph.generators import random_dag
from repro.graph.io import write_edge_list
from repro.server.client import ReachClient, ServerReplyError
from repro.server.server import ReachServer, ServerConfig, ServerThread
from tests.test_differential import FAMILIES, SEEDS


@contextmanager
def serve(index, scheme: str = "dual-i", **config_kwargs):
    """A gateway over ``index`` on a background thread."""
    server = ReachServer(QueryService(index), scheme=scheme,
                         config=ServerConfig(**config_kwargs))
    handle = ServerThread(server).start()
    try:
        yield handle
    finally:
        handle.stop()


def raw_exchange(port: int, lines: list[bytes],
                 expected_replies: int) -> list[dict]:
    """Pipeline raw protocol lines and collect the replies."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30.0) as sock:
        sock.sendall(b"".join(lines))
        reader = sock.makefile("rb")
        return [json.loads(reader.readline())
                for _ in range(expected_replies)]


# ---------------------------------------------------------------------
# differential: served answers == direct QueryService answers
# ---------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_served_answers_match_direct_service(self, family, tmp_path):
        """Every seed of the family, served through one gateway whose
        index is hot-swapped between seeds — so the sweep also proves
        answers stay exact across ``reload`` swaps mid-run."""
        first = FAMILIES[family](0)
        with serve(build_index(first, scheme="dual-i")) as handle, \
                ReachClient(port=handle.port) as client:
            for seed in SEEDS:
                graph = FAMILIES[family](seed)
                if seed:  # hot swap the gateway onto this seed's graph
                    graph_file = tmp_path / f"{family}-{seed}.txt"
                    write_edge_list(graph, graph_file)
                    swap = client.reload(graph=graph_file)
                    assert swap["swapped"]
                    assert swap["nodes"] == graph.num_nodes
                nodes = list(graph.nodes())
                pairs = [(u, v) for u in nodes for v in nodes]
                with QueryService(build_index(graph,
                                              scheme="dual-i")) as direct:
                    expected = direct.query_batch(pairs)
                assert client.query_batch(pairs) == expected, \
                    (family, seed)

    def test_scalar_query_verb_matches_batch(self):
        graph = FAMILIES["sparse-dag"](1)
        index = build_index(graph, scheme="dual-i")
        nodes = list(graph.nodes())[:12]
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            for u in nodes:
                for v in nodes:
                    assert client.query(u, v) == index.reachable(u, v)


class TestHotSwap:
    def test_reload_from_saved_index_warm_start(self, tmp_path):
        """Swap from a Dual-I over graph A to a saved Dual-II over
        graph B without a rebuild; answers and the advertised scheme
        must follow the swap."""
        graph_a = random_dag(30, 45, seed=5)
        graph_b = random_dag(34, 50, seed=6)
        index_file = tmp_path / "b.dual-ii.idx"
        save_dual_index(build_index(graph_b, scheme="dual-ii"),
                        index_file)
        index_a = build_index(graph_a, scheme="dual-i")
        index_b = build_index(graph_b, scheme="dual-ii")
        pairs_a = [(u, v) for u in graph_a.nodes()
                   for v in graph_a.nodes()]
        pairs_b = [(u, v) for u in graph_b.nodes()
                   for v in graph_b.nodes()]
        with serve(index_a) as handle, \
                ReachClient(port=handle.port) as client:
            assert client.stats()["scheme"] == "dual-i"
            assert client.query_batch(pairs_a) == \
                index_a.reachable_many(pairs_a)
            swap = client.reload(index=index_file)
            assert swap["swapped"]
            assert swap["source"] == "index"
            assert swap["scheme"] == "dual-ii"
            assert client.stats()["scheme"] == "dual-ii"
            assert client.query_batch(pairs_b) == \
                index_b.reachable_many(pairs_b)

    def test_reload_validation(self, tmp_path, diamond):
        with serve(build_index(diamond, scheme="dual-i")) as handle, \
                ReachClient(port=handle.port) as client:
            with pytest.raises(ServerReplyError) as info:
                client.call("reload")  # neither graph nor index
            assert info.value.code == "bad_request"
            with pytest.raises(ServerReplyError) as info:
                client.reload(graph=tmp_path / "missing.txt")
            assert info.value.code == "reload_failed"
            assert client.ping() == "pong"  # connection survived


# ---------------------------------------------------------------------
# backpressure and failure isolation
# ---------------------------------------------------------------------

class TestBackpressure:
    def test_shed_policy_replies_overloaded(self, diamond):
        """With a tiny admission queue and a long flush deadline, a
        pipelined burst must get explicit ``overloaded`` errors — not
        stalls, not dropped connections."""
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_batch=100_000, max_delay=0.05,
                   max_pending=8, policy="shed",
                   max_conn_inflight=128) as handle:
            lines = [
                b'{"id":%d,"verb":"query","u":"a","v":"d"}\n' % i
                for i in range(64)]
            replies = raw_exchange(handle.port, lines, 64)
        by_status: dict[str, int] = {}
        for reply in replies:
            key = "ok" if reply["ok"] else reply["error"]
            by_status[key] = by_status.get(key, 0) + 1
        assert by_status.get("ok", 0) >= 8  # the admitted window
        assert by_status.get("overloaded", 0) >= 1
        assert by_status.get("ok", 0) + by_status["overloaded"] == 64
        for reply in replies:
            if reply["ok"]:
                assert reply["result"] is True  # a -> d in the diamond

    def test_block_policy_answers_everything(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_batch=2, max_delay=0.001, max_pending=4,
                   policy="block", max_conn_inflight=128) as handle:
            lines = [
                b'{"id":%d,"verb":"query","u":"a","v":"d"}\n' % i
                for i in range(50)]
            replies = raw_exchange(handle.port, lines, 50)
        assert all(reply["ok"] for reply in replies)
        assert sorted(reply["id"] for reply in replies) == list(range(50))

    def test_per_request_pair_cap(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_request_pairs=4) as handle, \
                ReachClient(port=handle.port) as client:
            assert client.query_batch([("a", "d")] * 4) == [True] * 4
            with pytest.raises(ServerReplyError) as info:
                client.query_batch([("a", "d")] * 5)
            assert info.value.code == "too_large"
            assert client.ping() == "pong"  # connection survived

    def test_unknown_node_isolated_within_shared_flush(self, diamond):
        """A ghost-node query sharing a flush with a good one must fail
        alone: the good request still gets its answer."""
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_batch=100_000, max_delay=0.05) as handle:
            lines = [
                b'{"id":1,"verb":"query","u":"a","v":"ghost"}\n',
                b'{"id":2,"verb":"query","u":"a","v":"d"}\n',
            ]
            replies = {reply["id"]: reply
                       for reply in raw_exchange(handle.port, lines, 2)}
            with ReachClient(port=handle.port) as client:
                stats = client.stats()
        assert replies[1]["ok"] is False
        assert replies[1]["error"] == "unknown_node"
        assert replies[2]["ok"] is True
        assert replies[2]["result"] is True
        assert stats["batcher"]["isolation_reruns"] >= 1


# ---------------------------------------------------------------------
# protocol surface over a live socket
# ---------------------------------------------------------------------

class TestProtocolSurface:
    def test_bad_and_unknown_requests_keep_the_connection(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index) as handle:
            replies = raw_exchange(handle.port, [
                b"{broken json\n",
                b"\n",  # blank lines are skipped, not answered
                b'{"id":1,"verb":"teleport"}\n',
                b'{"id":2,"verb":"query","u":"a"}\n',
                b'{"id":3,"verb":"ping"}\n',
            ], 4)
        assert replies[0]["error"] == "bad_request"
        assert replies[1]["id"] == 1
        assert replies[1]["error"] == "unknown_verb"
        assert replies[2]["id"] == 2
        assert replies[2]["error"] == "bad_request"
        assert replies[3] == {"id": 3, "ok": True, "result": "pong"}

    def test_stats_verb_document(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            client.query("a", "d")
            stats = client.stats()
            assert stats["scheme"] == "dual-i"
            assert stats["server"]["requests_total"] >= 1
            assert stats["server"]["connections_open"] == 1
            assert stats["server"]["uptime_seconds"] > 0
            assert stats["batcher"]["flushes"] >= 1
            assert stats["service"]["queries"] >= 1
            assert stats["service"]["uptime_seconds"] > 0
            # reset=True zeroes the *service* metrics for interval
            # measurement; server counters keep accumulating.
            client.stats(reset=True)
            after = client.stats()
            assert after["service"]["queries"] == 0
            assert after["server"]["requests_total"] >= 3

    def test_access_log_records_requests(self, tmp_path, diamond):
        log_file = tmp_path / "access.jsonl"
        index = build_index(diamond, scheme="dual-i")
        with serve(index, access_log=log_file) as handle, \
                ReachClient(port=handle.port) as client:
            client.query("a", "d")
            with pytest.raises(ServerReplyError):
                client.query("a", "ghost")
        records = [json.loads(line)
                   for line in log_file.read_text().splitlines()]
        assert {record["verb"] for record in records} == {"query"}
        assert {record["status"] for record in records} == \
            {"ok", "unknown_node"}
        assert all(record["pairs"] == 1 and record["ms"] >= 0
                   for record in records)

    def test_oversized_line_rejected(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_line_bytes=1024) as handle:
            giant = b'{"id":1,"verb":"query","u":"' + b"x" * 4096 + \
                b'","v":"d"}\n'
            replies = raw_exchange(handle.port, [giant], 1)
        assert replies[0]["error"] == "too_large"


# ---------------------------------------------------------------------
# resilience: probes, degraded mode, drain, oversized-line recovery
# ---------------------------------------------------------------------

class TestProbeVerbs:
    def test_health_and_ready_documents(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            health = client.call("health")
            assert health["status"] == "ok"
            assert health["reason"] is None
            assert health["uptime_seconds"] >= 0
            assert health["connections_open"] >= 1
            ready = client.call("ready")
            assert ready == {"ready": True, "degraded": False,
                             "scheme": "dual-i"}


class TestDegradedMode:
    def test_failed_reload_degrades_and_good_reload_clears(
            self, tmp_path, diamond):
        """A failed swap keeps the last good index serving, flips the
        server to ``degraded`` (visible in health/ready/stats), and a
        later successful swap clears the flag."""
        index = build_index(diamond, scheme="dual-i")
        good_file = tmp_path / "good.idx"
        save_dual_index(index, good_file)
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            with pytest.raises(ServerReplyError) as info:
                client.reload(index=tmp_path / "missing.idx")
            assert info.value.code == "reload_failed"
            health = client.call("health")
            assert health["status"] == "degraded"
            assert "reason" in health and health["reason"]
            assert client.call("ready")["degraded"] is True
            assert client.stats()["degraded"]
            # Still answering — on the last good index.
            assert client.query("a", "d") is True
            # A good swap clears degraded mode.
            swap = client.reload(index=good_file)
            assert swap["swapped"]
            assert client.call("health")["status"] == "ok"
            assert client.call("ready")["degraded"] is False
            assert client.stats()["degraded"] is None

    def test_corrupt_index_file_degrades_not_crashes(self, tmp_path,
                                                     diamond):
        index = build_index(diamond, scheme="dual-i")
        corrupt_file = tmp_path / "corrupt.idx"
        save_dual_index(index, corrupt_file)
        blob = bytearray(corrupt_file.read_bytes())
        # Flip a byte of the last section: the header still parses, so
        # the load fails specifically on the sha256 checksum.
        blob[-1] ^= 0x01
        corrupt_file.write_bytes(bytes(blob))
        with serve(index) as handle, \
                ReachClient(port=handle.port) as client:
            with pytest.raises(ServerReplyError) as info:
                client.reload(index=corrupt_file)
            assert info.value.code == "reload_failed"
            assert "checksum" in info.value.message
            assert client.call("health")["status"] == "degraded"
            assert client.query("a", "d") is True


class TestOversizedLineRecovery:
    def test_connection_survives_a_giant_line(self, diamond):
        """One oversized request gets one ``too_large`` reply and the
        connection keeps serving subsequent requests."""
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_line_bytes=1024) as handle:
            giant = b'{"id":1,"verb":"query","u":"' + b"x" * 8192 + \
                b'","v":"d"}\n'
            follow_up = b'{"id":2,"verb":"ping"}\n'
            replies = raw_exchange(handle.port, [giant, follow_up], 2)
        assert replies[0]["error"] == "too_large"
        assert replies[1] == {"id": 2, "ok": True, "result": "pong"}

    def test_giant_line_without_newline_then_more_requests(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        with serve(index, max_line_bytes=512) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=30.0) as sock:
                reader = sock.makefile("rb")
                # Dribble an over-limit line in pieces, then finish it.
                sock.sendall(b'{"id":1,"verb":"query","u":"' + b"y" * 700)
                first = json.loads(reader.readline())
                assert first["error"] == "too_large"
                sock.sendall(b'","v":"d"}\n')  # tail of the giant
                sock.sendall(b'{"id":2,"verb":"ping"}\n')
                second = json.loads(reader.readline())
                assert second == {"id": 2, "ok": True, "result": "pong"}


class TestGracefulShutdown:
    def test_stop_drains_inflight_replies(self, diamond):
        """Requests in flight when ``stop`` begins still get their
        replies before the connection closes."""
        index = build_index(diamond, scheme="dual-i")
        server = ReachServer(
            QueryService(index), scheme="dual-i",
            config=ServerConfig(max_batch=100_000, max_delay=0.2,
                                drain_timeout=5.0))
        handle = ServerThread(server).start()
        try:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=30.0) as sock:
                reader = sock.makefile("rb")
                # Buffered behind the 200ms flush deadline...
                sock.sendall(b'{"id":1,"verb":"query","u":"a","v":"d"}\n')
                # ...wait until the server has it in flight, then stop
                # while the reply is still pending in the batcher.
                import time
                deadline = time.monotonic() + 10.0
                while not any(conn.inflight
                              for conn in server._connections):
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                handle.stop()
                reply = json.loads(reader.readline())
                assert reply == {"id": 1, "ok": True, "result": True}
                assert reader.readline() == b""  # then EOF
        finally:
            handle.stop()

    def test_stop_force_closes_after_drain_timeout(self, diamond):
        index = build_index(diamond, scheme="dual-i")
        server = ReachServer(
            QueryService(index), scheme="dual-i",
            config=ServerConfig(drain_timeout=0.0))
        handle = ServerThread(server).start()
        try:
            import time
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=30.0) as sock:
                deadline = time.monotonic() + 10.0
                while not server._connections:  # registered server-side
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                started = time.monotonic()
                handle.stop()
                assert time.monotonic() - started < 5.0
                assert sock.makefile("rb").readline() == b""
        finally:
            handle.stop()


# ---------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------

class TestSupervisor:
    def test_restarts_crashing_task_with_backoff(self):
        import asyncio

        from repro.server.server import Supervisor

        runs: list[int] = []
        delays: list[float] = []

        async def factory():
            runs.append(len(runs))
            if len(runs) < 4:
                raise RuntimeError("boom")

        supervisor = Supervisor(factory, max_restarts=8,
                                base_delay=0.01, max_delay=0.05,
                                jitter=0.0, seed=0,
                                on_restart=lambda exc, d, n:
                                delays.append(d))
        asyncio.run(supervisor.run())
        assert len(runs) == 4  # 3 crashes, then the clean exit
        assert supervisor.restarts == 3
        assert delays == [0.01, 0.02, 0.04]  # doubling, no jitter
        assert [kind for kind, _ in supervisor.crashes] == \
            [repr(RuntimeError("boom"))] * 3

    def test_gives_up_after_max_restarts(self):
        import asyncio

        from repro.server.server import Supervisor

        async def factory():
            raise RuntimeError("always down")

        supervisor = Supervisor(factory, max_restarts=2,
                                base_delay=0.005, jitter=0.0)
        with pytest.raises(RuntimeError, match="always down"):
            asyncio.run(supervisor.run())
        assert supervisor.restarts == 2

    def test_cancellation_passes_through(self):
        import asyncio

        from repro.server.server import Supervisor

        async def factory():
            await asyncio.sleep(3600)

        async def main():
            supervisor = Supervisor(factory, base_delay=0.01)
            task = asyncio.ensure_future(supervisor.run())
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert supervisor.restarts == 0

        asyncio.run(main())

    def test_supervised_server_serves_after_crash_restart(self, diamond):
        """End to end: a supervised serving task crashes, the
        supervisor restarts it, and clients reach the new generation."""
        import asyncio
        import threading

        from repro.server.server import Supervisor

        index = build_index(diamond, scheme="dual-i")
        ports: list[int] = []
        crashed = threading.Event()
        serving = threading.Event()

        async def generation():
            server = ReachServer(QueryService(index), scheme="dual-i",
                                 config=ServerConfig())
            await server.start()
            ports.append(server.port)
            serving.set()
            try:
                if len(ports) == 1:
                    crashed.wait  # first generation dies young
                    await asyncio.sleep(0.05)
                    raise RuntimeError("simulated crash")
                while True:
                    await asyncio.sleep(3600)
            finally:
                crashed.set()
                await server.stop()

        supervisor = Supervisor(generation, max_restarts=3,
                                base_delay=0.01, jitter=0.0, seed=0)

        def run():
            try:
                asyncio.run(supervisor.run())
            except asyncio.CancelledError:
                pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            assert serving.wait(10.0)
            crashed.wait(10.0)
            serving.clear()
            assert serving.wait(10.0)  # the restarted generation
            assert supervisor.restarts == 1
            with ReachClient(port=ports[-1]) as client:
                assert client.query("a", "d") is True
                assert client.call("health")["status"] == "ok"
        finally:
            # The generation task never exits on its own; drop the
            # daemon thread (asyncio.run cleans up at interpreter exit).
            pass
