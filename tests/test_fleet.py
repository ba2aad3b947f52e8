"""The multi-process worker fleet: differential answers, swaps, and
supervision.

One two-worker :class:`~repro.server.router.WorkerFleet` is stood up
per module (spawning interpreters is the expensive part) and driven
through the same seeded graph families as the differential harness
(:mod:`tests.test_differential`): every graph is hot-swapped into the
fleet and answered through real TCP connections, and every reply must
be bit-identical to a direct in-process index.  On top of that ride
the fleet-specific invariants: a mid-traffic generation swap never
yields a blended batch (every reply matches exactly one generation's
truth), a SIGKILLed worker is respawned onto the current generation by
the pool supervisor, a failed reload degrades only until the next
good swap, and a stopped fleet leaves no shared-memory segment behind.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.core.base import build_index
from repro.core.shm import list_segments
from repro.graph.generators import gnm_random_digraph
from repro.graph.io import write_edge_list
from repro.server.client import ReachClient, RetryPolicy, ServerReplyError
from repro.server.router import WorkerFleet
from tests.test_differential import FAMILIES, SEEDS

pytestmark = pytest.mark.slow

#: Queries per graph; well under the server's max_batch so one request
#: is always answered out of a single-generation flush.
PAIRS_PER_GRAPH = 96


def _pairs(graph, count=PAIRS_PER_GRAPH, seed=13):
    rng = random.Random(seed)
    n = graph.num_nodes
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fleet")


@pytest.fixture(scope="module")
def fleet(workdir):
    graph = FAMILIES["sparse-dag"](0)
    index = build_index(graph, scheme="dual-i")
    before = set(list_segments())
    handle = WorkerFleet(
        index, scheme="dual-i", workers=2,
        server_options=dict(max_delay=0.001, request_timeout=10.0,
                            drain_timeout=2.0),
        # Fast enough that the kill/hang tests finish promptly, slow
        # enough that a busy CI box never false-kills a healthy worker.
        probe_interval=0.5, probe_timeout=8.0)
    handle.start()
    yield handle
    handle.stop()
    assert not handle.pids(), "workers survived fleet.stop()"
    leaked = set(list_segments()) - before
    assert not leaked, f"fleet.stop() leaked segments: {leaked}"


def _swap_in(fleet, workdir, graph, scheme, name):
    path = workdir / f"{name}.edges"
    write_edge_list(graph, path)
    summary = fleet.reload(graph=str(path), scheme=scheme)
    assert summary["swapped"], summary
    assert summary["scheme"] == scheme, summary
    return summary


class TestFleetDifferential:
    """Satellite 1: the 51-graph harness through the fleet, each graph
    arriving via a hot swap, half under each scheme."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_bit_identical_through_fleet(self, fleet, workdir,
                                                family):
        for seed in SEEDS:
            graph = FAMILIES[family](seed)
            scheme = "dual-i" if seed % 2 == 0 else "dual-ii"
            summary = _swap_in(fleet, workdir, graph, scheme,
                               f"{family}-{seed}")
            assert summary["nodes"] == graph.num_nodes
            pairs = _pairs(graph, seed=seed)
            expected = build_index(graph, scheme=scheme) \
                .reachable_many(pairs)
            with ReachClient(port=fleet.port) as client:
                got = client.query_batch([list(p) for p in pairs])
                worker = client.stats()["worker"]
            assert got == expected, (
                f"fleet diverged from the direct index on "
                f"{family} seed={seed} scheme={scheme} "
                f"(answered by worker {worker})")

    def test_generation_advances_once_per_swap(self, fleet, workdir):
        graph = FAMILIES["cyclic-gnm"](3)
        start = fleet.generation
        _swap_in(fleet, workdir, graph, "dual-ii", "gen-probe")
        assert fleet.generation == start + 1
        assert fleet.segment.endswith(f"-g{fleet.generation}")
        # Exactly one generation lives in /dev/shm afterwards.
        ours = [s for s in list_segments()
                if s.startswith(fleet.segment[:-3])]
        assert ours == [fleet.segment]


class TestSwapAtomicity:
    """Satellite 1: a reload mid-traffic moves the whole fleet with no
    wrong answer in flight and no mixed-generation batch."""

    def test_no_blended_batches_across_swaps(self, fleet, workdir):
        graph_a = gnm_random_digraph(48, 150, seed=21)
        graph_b = gnm_random_digraph(48, 20, seed=22)  # much sparser
        pairs = _pairs(graph_a, seed=23)
        truth = {
            "a": build_index(graph_a, scheme="dual-i")
            .reachable_many(pairs),
            "b": build_index(graph_b, scheme="dual-i")
            .reachable_many(pairs),
        }
        assert truth["a"] != truth["b"], "families must disagree"
        _swap_in(fleet, workdir, graph_a, "dual-i", "atomic-a")

        replies: list[list[bool]] = []
        stop = threading.Event()

        def hammer() -> None:
            retry = RetryPolicy(max_attempts=4, attempt_timeout=5.0,
                                breaker_threshold=0, seed=0)
            with ReachClient(port=fleet.port, retry=retry) as client:
                while not stop.is_set():
                    replies.append(
                        client.query_batch([list(p) for p in pairs]))

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            for name, graph in (("b", graph_b), ("a", graph_a),
                                ("b", graph_b)):
                _swap_in(fleet, workdir, graph, "dual-i",
                         f"atomic-{name}2")
        finally:
            stop.set()
            thread.join(timeout=30)
        assert len(replies) > 3
        for reply in replies:
            assert reply == truth["a"] or reply == truth["b"], (
                "a reply matches neither generation — a batch blended "
                "two indexes mid-swap")
        # Traffic genuinely straddled the swaps: both truths observed.
        assert any(r == truth["b"] for r in replies)
        assert any(r == truth["a"] for r in replies)


class TestSupervision:
    """Satellite: the worker-pool supervisor and the reload error
    path."""

    def test_workers_carry_distinct_labels(self, fleet):
        seen = {}
        deadline = time.monotonic() + 30
        while len(seen) < 2 and time.monotonic() < deadline:
            with ReachClient(port=fleet.port) as client:
                stats = client.stats()
                seen[stats["worker"]] = stats
                text = client.metrics()["exposition"]
            assert f'worker="{stats["worker"]}"' in text
        assert sorted(seen) == ["0", "1"], (
            f"accept sharding never reached both workers: {sorted(seen)}")

    def test_sigkilled_worker_is_respawned(self, fleet, workdir):
        # Pin down the current truth so the respawned worker can be
        # checked against it after re-attaching the live generation.
        graph = FAMILIES["sparse-dag"](1)
        _swap_in(fleet, workdir, graph, "dual-i", "respawn")
        pairs = _pairs(graph, seed=31)
        expected = build_index(graph, scheme="dual-i") \
            .reachable_many(pairs)

        before_pids = set(fleet.pids())
        restarts_before = fleet.restarts
        victim = sorted(before_pids)[0]
        os.kill(victim, signal.SIGKILL)

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            pids = set(fleet.pids())
            if len(pids) == 2 and victim not in pids:
                break
            time.sleep(0.05)
        pids = set(fleet.pids())
        assert len(pids) == 2 and victim not in pids, (
            f"supervisor never replaced worker {victim}: {pids}")
        assert fleet.restarts > restarts_before
        assert any(reason == "worker process died"
                   for _, reason, _ in fleet.crashes)

        # The replacement attached the current generation and serves
        # correct answers; sample fresh connections until both workers
        # (including the newcomer) have answered.
        seen = set()
        deadline = time.monotonic() + 30
        while len(seen) < 2 and time.monotonic() < deadline:
            with ReachClient(port=fleet.port) as client:
                assert client.query_batch(
                    [list(p) for p in pairs]) == expected
                seen.add(client.stats()["worker"])
        assert sorted(seen) == ["0", "1"]

    def test_failed_reload_degrades_until_next_good_swap(
            self, fleet, workdir):
        graph = FAMILIES["fanout9-tree"](2)
        _swap_in(fleet, workdir, graph, "dual-ii", "degrade-base")
        with ReachClient(port=fleet.port, timeout=60.0) as client:
            with pytest.raises(ServerReplyError) as excinfo:
                client.reload(index=str(workdir / "no-such-index.json"))
            assert excinfo.value.code == "reload_failed"
            # Same connection == same worker: it must report degraded
            # while still answering from its last good generation.
            assert client.health()["status"] == "degraded"
            pairs = _pairs(graph, seed=37)
            expected = build_index(graph, scheme="dual-ii") \
                .reachable_many(pairs)
            assert client.query_batch(
                [list(p) for p in pairs]) == expected
            path = workdir / "degrade-good.edges"
            write_edge_list(graph, path)
            swap = client.reload(graph=str(path), scheme="dual-ii")
            assert swap["swapped"]
            assert client.health()["status"] == "ok"

    def test_reload_rejects_ambiguous_source(self, fleet, workdir):
        with ReachClient(port=fleet.port, timeout=60.0) as client:
            with pytest.raises(ServerReplyError) as excinfo:
                client.reload()
            assert excinfo.value.code == "reload_failed"


class TestFleetTenancy:
    """Multi-tenant catalog through the fleet: a mutation sent to any
    worker must move every worker's catalog together."""

    def _await_both_workers(self, fleet, check):
        """Open fresh connections until both workers passed ``check``
        (generous deadline: a respawning worker may still be attaching
        its manifest when the first connections land)."""
        seen = set()
        deadline = time.monotonic() + 60
        while len(seen) < 2 and time.monotonic() < deadline:
            with ReachClient(port=fleet.port, timeout=60.0) as client:
                check(client)
                seen.add(client.stats()["worker"])
        assert sorted(seen) == ["0", "1"], (
            f"accept sharding never reached both workers: {sorted(seen)}")

    def test_catalog_lifecycle_spans_all_workers(self, fleet, workdir):
        graph = gnm_random_digraph(40, 90, seed=41)
        path = workdir / "tenant-ft1.edges"
        write_edge_list(graph, path)
        pairs = _pairs(graph, seed=43)
        expected = build_index(graph, scheme="dual-ii") \
            .reachable_many(pairs)

        with ReachClient(port=fleet.port, timeout=60.0) as client:
            created = client.catalog("create", name="ft1",
                                     scheme="dual-ii")
            built = client.catalog("build", name="ft1",
                                   graph=str(path))
            assert built["swapped"] and built["index_name"] == "ft1"
            ft1_id = created["index_id"]

        # Every worker (not just the one that took the build) serves
        # the tenant — by name over JSON and by id over binary frames.
        def serves_tenant(client):
            assert client.query_batch([list(p) for p in pairs],
                                      index="ft1") == expected

        self._await_both_workers(fleet, serves_tenant)
        from repro.server.client import BinaryReachClient
        with BinaryReachClient(port=fleet.port,
                               index_id=ft1_id) as binary:
            assert binary.query_batch(pairs) == expected

        # The drop broadcast lands on every worker before the reply.
        with ReachClient(port=fleet.port, timeout=60.0) as client:
            assert client.catalog("drop", name="ft1")["dropped"] == "ft1"

        def gone(client):
            with pytest.raises(ServerReplyError) as excinfo:
                client.query(0, 1, index="ft1")
            assert excinfo.value.code == "unknown_index"

        self._await_both_workers(fleet, gone)

    def test_respawned_worker_inherits_the_catalog(self, fleet,
                                                   workdir):
        graph = gnm_random_digraph(40, 60, seed=47)
        path = workdir / "tenant-ft2.edges"
        write_edge_list(graph, path)
        pairs = _pairs(graph, seed=48)
        expected = build_index(graph, scheme="dual-i") \
            .reachable_many(pairs)
        with ReachClient(port=fleet.port, timeout=60.0) as client:
            client.catalog("create", name="ft2")
            client.catalog("build", name="ft2", graph=str(path))

        victim = sorted(fleet.pids())[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            pids = set(fleet.pids())
            if len(pids) == 2 and victim not in pids:
                break
            time.sleep(0.05)
        assert victim not in set(fleet.pids())

        # The replacement's spawn manifest carried the tenant entry and
        # its live segment: both workers answer the tenant correctly.
        def serves_tenant(client):
            assert client.query_batch([list(p) for p in pairs],
                                      index="ft2") == expected

        self._await_both_workers(fleet, serves_tenant)
        with ReachClient(port=fleet.port, timeout=60.0) as client:
            client.catalog("drop", name="ft2")


class TestStartup:
    def test_start_drains_ready_deferred_by_an_early_reload(self):
        """A ``reload`` that reaches ``start()`` before every worker is
        ready parks the late ``ready`` in ``_deferred``
        (``_collect_swap_acks``); ``start()`` must still see it
        instead of timing out."""
        index = build_index(FAMILIES["sparse-dag"](0), scheme="dual-i")
        fleet = WorkerFleet(index, scheme="dual-i", workers=2,
                            start_timeout=30.0, probe_interval=None)
        poll = fleet._poll_control
        parked = []

        def poll_parking_one_ready(timeout):
            events = []
            for event in poll(timeout):
                if not parked and event[0] == "msg" \
                        and event[2][0] == "ready":
                    parked.append(event)
                    fleet._deferred.append(event)
                else:
                    events.append(event)
            return events

        fleet._poll_control = poll_parking_one_ready
        try:
            fleet.start()
            assert parked, "no ready event was parked"
            assert all(handle.ready for handle in fleet._handles)
        finally:
            fleet.stop()
