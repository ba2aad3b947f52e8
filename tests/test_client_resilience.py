"""Client-side resilience: reconnect, retry, breaker, error taxonomy.

Every test runs against a real gateway on a background thread, with a
:class:`~repro.testing.faults.ChaosProxy` in between when the network
itself must fail.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.base import build_index
from repro.core.service import QueryService
from repro.graph.digraph import DiGraph
from repro.server.client import (
    IDEMPOTENT_VERBS,
    CircuitOpenError,
    ReachClient,
    RetryPolicy,
    ServerReplyError,
)
from repro.server.server import ReachServer, ServerConfig, ServerThread
from repro.testing.faults import ChaosProxy


def _make_server(**config_kwargs) -> ServerThread:
    graph = DiGraph([("a", "b"), ("b", "c"), ("d", "c")])
    index = build_index(graph, scheme="dual-i")
    config = ServerConfig(max_delay=0.0, **config_kwargs)
    server = ReachServer(QueryService(index), scheme="dual-i",
                         config=config)
    return ServerThread(server).start()


@pytest.fixture
def server():
    thread = _make_server()
    try:
        yield thread
    finally:
        thread.stop()


RETRY = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05,
                    attempt_timeout=2.0, breaker_threshold=0, seed=0)


class TestReconnect:
    def test_queries_survive_a_severed_connection(self, server):
        with ChaosProxy("127.0.0.1", server.port) as proxy:
            client = ReachClient("127.0.0.1", proxy.port, retry=RETRY)
            try:
                assert client.query("a", "c") is True
                proxy.sever_all()
                # The next call reconnects and retries transparently.
                assert client.query("a", "c") is True
                report = client.error_report()
                assert report["reconnects"] >= 1
                assert report["resets"] + report["timeouts"] >= 1
                assert report["retries"] >= 1
            finally:
                client.close()

    def test_garbled_reply_counts_as_transport_failure(self, server):
        with ChaosProxy("127.0.0.1", server.port) as proxy:
            client = ReachClient("127.0.0.1", proxy.port, retry=RETRY)
            try:
                assert client.ping() == "pong"
                proxy.garble_next(1)
                assert client.query("a", "c") is True
                assert client.error_report()["resets"] \
                    + client.error_report()["timeouts"] >= 1
            finally:
                client.close()

    def test_deferred_connect_with_policy(self, server):
        # Nothing listens yet on a fresh port: with a policy the
        # constructor defers; the first call connects.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead_port = sock.getsockname()[1]
        sock.close()
        client = ReachClient("127.0.0.1", dead_port,
                             retry=RetryPolicy(max_attempts=1,
                                               attempt_timeout=0.2,
                                               breaker_threshold=0))
        try:
            assert client.error_report()["connect_failures"] >= 1
        finally:
            client.close()

    def test_without_policy_connect_failure_raises(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead_port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(OSError):
            ReachClient("127.0.0.1", dead_port, timeout=0.2)


class TestRetryDiscrimination:
    def test_reload_is_never_retried(self, server):
        client = ReachClient("127.0.0.1", server.port, retry=RETRY)
        try:
            assert "reload" not in IDEMPOTENT_VERBS
            with pytest.raises(ServerReplyError) as excinfo:
                client.reload(index="/nonexistent/index.idx")
            assert excinfo.value.code == "reload_failed"
            # One reply error, zero retries spent on it.
            assert client.error_report()["retries"] == 0
        finally:
            client.close()

    def test_exhausted_retries_surface_the_failure(self, server):
        with ChaosProxy("127.0.0.1", server.port) as proxy:
            policy = RetryPolicy(max_attempts=2, base_delay=0.01,
                                 attempt_timeout=0.3,
                                 breaker_threshold=0, seed=0)
            client = ReachClient("127.0.0.1", proxy.port, retry=policy)
            try:
                assert client.ping() == "pong"
                proxy.stop()  # no route at all now
                with pytest.raises((ConnectionError, OSError)):
                    client.query("a", "c")
                assert client.error_report()["retries"] >= 1
            finally:
                client.close()


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_then_recovers(self, server):
        with ChaosProxy("127.0.0.1", server.port) as proxy:
            policy = RetryPolicy(max_attempts=1, base_delay=0.01,
                                 attempt_timeout=0.2,
                                 breaker_threshold=2,
                                 breaker_cooldown=0.2, seed=0)
            client = ReachClient("127.0.0.1", proxy.port, retry=policy)
            try:
                assert client.ping() == "pong"
                proxy.blackhole(60.0)  # every attempt now times out
                for _ in range(2):
                    with pytest.raises(ConnectionError):
                        client.ping()
                # Threshold reached: the breaker fails fast.
                with pytest.raises(CircuitOpenError):
                    client.ping()
                assert client.error_report()["circuit_open"] >= 1
                # After the cooldown a half-open probe goes through.
                proxy.blackhole(0.0)
                time.sleep(0.25)
                assert client.ping() == "pong"
            finally:
                client.close()


class TestProbeVerbs:
    def test_health_and_ready(self, server):
        with ReachClient("127.0.0.1", server.port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["reason"] is None
            assert health["uptime_seconds"] >= 0
            ready = client.ready()
            assert ready["ready"] is True
            assert ready["degraded"] is False

    def test_degraded_health_is_tallied(self, server):
        with ReachClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServerReplyError):
                client.reload(index="/nonexistent/index.idx")
            health = client.health()
            assert health["status"] == "degraded"
            assert "reason" in health and health["reason"]
            assert client.error_report()["degraded"] == 1


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestRestartGrace:
    """``RetryPolicy.restart_grace``: refused connections during a
    full-server restart are ridden out, not breaker-tripped."""

    def test_query_spans_a_full_server_restart(self):
        import threading

        port = _free_port()
        first = _make_server(host="127.0.0.1", port=port)
        policy = RetryPolicy(max_attempts=3, base_delay=0.01,
                             attempt_timeout=2.0, breaker_threshold=2,
                             breaker_cooldown=30.0, restart_grace=10.0,
                             seed=0)
        client = ReachClient("127.0.0.1", port, retry=policy)
        second: list = []

        def restart() -> None:
            first.stop()
            time.sleep(0.3)  # the refused-connection window
            second.append(_make_server(host="127.0.0.1", port=port))

        try:
            assert client.query("a", "c") is True
            restarter = threading.Thread(target=restart)
            restarter.start()
            try:
                # Issued while the listener is down: the grace window
                # absorbs every refusal until the new server binds.
                assert client.query("a", "c") is True
                assert client.query("d", "a") is False
            finally:
                restarter.join()
            report = client.error_report()
            assert report["server_restarting"] >= 1
            # The restart never opened the breaker, even though the
            # threshold (2) is below the number of refused connects.
            assert report["circuit_open"] == 0
        finally:
            client.close()
            for thread in second:
                thread.stop()

    def test_refused_beyond_grace_surfaces_failure(self):
        port = _free_port()  # nothing ever listens here
        policy = RetryPolicy(max_attempts=1, base_delay=0.01,
                             breaker_threshold=0, restart_grace=0.2,
                             seed=0)
        client = ReachClient("127.0.0.1", port, retry=policy)
        try:
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                client.ping()
            assert time.monotonic() - started >= 0.2
            report = client.error_report()
            assert report["server_restarting"] >= 1
            assert report["connect_failures"] >= 1
        finally:
            client.close()

    def test_zero_grace_keeps_the_old_behaviour(self):
        port = _free_port()
        client = ReachClient("127.0.0.1", port,
                             retry=RetryPolicy(max_attempts=1,
                                               breaker_threshold=0))
        try:
            with pytest.raises(ConnectionError):
                client.ping()
            assert client.error_report()["server_restarting"] == 0
        finally:
            client.close()

    def test_loadgen_stream_spans_a_restart(self):
        import threading

        from repro.server.loadgen import run_loadgen

        port = _free_port()
        first = _make_server(host="127.0.0.1", port=port)
        pairs = [("a", "c"), ("c", "a"), ("b", "c"), ("d", "c"),
                 ("a", "d")]
        expected = [True, False, True, True, False]
        second: list = []

        def restart() -> None:
            time.sleep(0.5)
            first.stop()
            time.sleep(0.3)
            second.append(_make_server(host="127.0.0.1", port=port))

        restarter = threading.Thread(target=restart)
        restarter.start()
        try:
            result = run_loadgen("127.0.0.1", port, pairs,
                                 connections=2, duration=2.0,
                                 pipeline=2, expected=expected)
        finally:
            restarter.join()
            for thread in second:
                thread.stop()
        # The stream rode through the restart: answers kept verifying
        # differentially on both sides of it, and not one was wrong.
        assert result.wrong_answers == 0
        assert result.ok > 0
        assert result.reconnects >= 1 \
            or result.errors.get("connect_failed", 0) >= 1


class TestErrorTaxonomy:
    def test_shed_replies_are_counted_separately(self):
        thread = _make_server(max_pending=1, policy="shed",
                              max_request_pairs=4096)
        try:
            policy = RetryPolicy(max_attempts=1, breaker_threshold=0)
            with ReachClient("127.0.0.1", thread.port,
                             retry=policy) as client:
                shed = 0
                for _ in range(20):
                    try:
                        client.query_batch(
                            [("a", "c")] * 64)
                    except ServerReplyError as exc:
                        assert exc.code == "overloaded"
                        shed += 1
                report = client.error_report()
                assert report["shed"] == shed
                assert shed > 0
                assert report["reply_errors"].get("overloaded") == shed
                # Transport counters stayed clean: shed is not a fault.
                assert report["resets"] == 0
                assert report["timeouts"] == 0
        finally:
            thread.stop()
