"""Named CI gates: ``repro-reach smoke <scenario>``.

Each scenario boots a real gateway, drives it with the load generator,
and raises :class:`AssertionError` on the first broken invariant.
:data:`SCENARIOS` maps the names the CLI accepts to their runners.
Sizes, durations and connection counts are fixed, so a scenario is the
same gate on every machine; the repository benchmark (``reachbench/``)
is where throughput is measured.

* ``serve`` — one in-process gateway: zero protocol errors, at least
  one multi-query flush (proof that cross-connection coalescing
  happened), ``kernel`` and ``queue_wait`` stage percentiles, and one
  hot ``reload`` whose answers match the direct index.
* ``protocols`` — JSON vs binary framing through one subprocess
  gateway: binary frames must serve at least the JSON throughput.
* ``fleet`` — a 1-worker and a 2-worker ``serve --workers`` fleet
  (:func:`run_fleet_smoke`): every answer differentially verified,
  more than one worker served, a fleet-wide hot swap, the core-aware
  throughput floor (:func:`expected_scaling`), and a ``/dev/shm`` scan
  for leaked index segments after shutdown.
* ``tenants`` — a 2-worker fleet carrying two startup tenants
  (:func:`run_tenant_smoke`).
* ``metrics`` — :func:`repro.obs.smoke.run_metrics_smoke`.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import repro
from repro.bench.workloads import random_query_pairs
from repro.core.base import build_index
from repro.core.service import QueryService
from repro.core.shm import list_segments
from repro.graph.generators import single_rooted_dag
from repro.graph.io import write_edge_list
from repro.obs.smoke import run_metrics_smoke
from repro.server.client import ReachClient, ServerReplyError
from repro.server.loadgen import run_loadgen
from repro.server.server import ReachServer, ServerConfig, ServerThread

__all__ = ["SCENARIOS", "run_serve_smoke", "run_protocol_smoke",
           "run_fleet_smoke", "run_tenant_smoke", "expected_scaling"]

SCHEME = "dual-i"
#: In-flight requests per load-generator connection.
PIPELINE = 16


def _make_graph(nodes: int, seed: int | None = None):
    """The Figure 11 convention: edges = 1.5x nodes, seed = nodes."""
    seed = nodes if seed is None else seed
    return single_rooted_dag(nodes, int(nodes * 1.5), max_fanout=5,
                             seed=seed), seed


def _start_server(index) -> ServerThread:
    config = ServerConfig(max_batch=512, max_delay=0.002,
                          policy="block", max_pending=65536)
    server = ReachServer(QueryService(index), scheme=SCHEME,
                         config=config)
    return ServerThread(server).start()


@contextmanager
def _server_process(graph_file: Path, *, workers: int = 1,
                    tenants: "Sequence[tuple[str, Path]] | None" = None,
                    ) -> Iterator[int]:
    """``repro-reach serve`` in a subprocess, yielding its bound port.

    The gateway runs in a *separate* interpreter so the load generator
    and the server do not share one GIL — in-process the two fight for
    the same core and a measured ratio is mostly scheduler noise.
    ``workers > 1`` serves through the multi-process fleet instead of
    the single in-process server.  ``tenants`` adds ``--tenant
    NAME=GRAPH`` catalog entries (ids 1, 2, ... in order).
    """
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, "-m", "repro.cli", "serve", str(graph_file),
        "--scheme", SCHEME, "--port", "0",
        "--workers", str(workers),
        "--max-batch", "512",
        "--max-delay-ms", "2.0",
        "--max-pending", "65536",
        # Headroom over the generator's total in-flight window.
        "--max-conn-inflight", str(max(64, 2 * PIPELINE)),
        "--max-request-pairs", "65536"]
    for name, tenant_graph in (tenants or ()):
        command += ["--tenant", f"{name}={tenant_graph}"]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        assert proc.stdout is not None
        banner = proc.stdout.readline()  # blocks until the bind print
        match = re.search(r" on \S+:(\d+)", banner)
        if match is None:
            proc.kill()
            rest = proc.stdout.read()
            raise RuntimeError(
                f"server subprocess failed to start: {banner}{rest}")
        yield int(match.group(1))
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_protocol_smoke() -> dict[str, Any]:
    """The ``protocols`` scenario: JSON vs. binary wire framing through
    one server process.

    Both drives hit the *same* subprocess gateway (binary is negotiated
    per connection, so one server speaks both), with the same pair
    pool, 32 connections, pipeline depth, and 16 pairs per request —
    the measured ratio isolates the wire protocol + kernel path: JSON
    parse/serialize plus the allocating batch kernel against
    ``np.frombuffer`` framing plus the buffer-reusing
    :class:`~repro.core.fastkernel.FastKernel`.  Each protocol gets an
    unrecorded half-second warmup so the first-measured protocol does
    not pay the server's cold start.

    Raises
    ------
    AssertionError
        When binary frames serve fewer queries per second than JSON.
    """
    graph, seed = _make_graph(600)
    pairs = random_query_pairs(graph, 20_000, seed=seed + 1)
    qps: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = Path(tmp) / "graph.txt"
        write_edge_list(graph, graph_file)
        with _server_process(graph_file) as port:
            for protocol in ("json", "binary"):
                run_loadgen("127.0.0.1", port, pairs,
                            connections=4, duration=0.5,
                            pipeline=PIPELINE, batch_size=16,
                            latency_sample=4, protocol=protocol)
                result = run_loadgen(
                    "127.0.0.1", port, pairs,
                    connections=32, duration=2.0,
                    pipeline=PIPELINE, batch_size=16,
                    latency_sample=4, protocol=protocol)
                qps[protocol] = result.queries_per_second

    json_qps, binary_qps = qps["json"], qps["binary"]
    speedup = binary_qps / json_qps if json_qps > 0 else float("inf")
    if speedup < 1.0:
        raise AssertionError(
            f"binary frames served only {speedup:.2f}x the JSON "
            f"throughput ({binary_qps:,.0f} vs {json_qps:,.0f} "
            f"queries/s); the floor is 1.00x")
    return {"json_qps": json_qps, "binary_qps": binary_qps,
            "speedup": speedup}


def run_serve_smoke() -> dict[str, Any]:
    """The ``serve`` scenario: serve, load, assert health, hot-reload
    once.

    Raises
    ------
    AssertionError
        On any protocol error, on zero multi-query flushes (no
        cross-connection coalescing happened), on missing server-side
        stage percentiles, or on a failed reload.
    """
    graph, seed = _make_graph(400)
    index = build_index(graph, scheme=SCHEME)
    pairs = random_query_pairs(graph, 5000, seed=seed + 1)
    handle = _start_server(index)
    try:
        result = run_loadgen("127.0.0.1", handle.port, pairs,
                             connections=4, duration=2.0,
                             pipeline=PIPELINE, batch_size=1)
        assert result.completed > 0, "loadgen completed no requests"
        assert not result.errors, (
            f"protocol errors during smoke run: {result.errors}")
        with ReachClient(port=handle.port) as client:
            stats = client.stats()
            flushes = stats["batcher"]["multi_query_flushes"]
            assert flushes >= 1, (
                "no multi-query flush happened — cross-connection "
                "batching is not coalescing")
            stages = stats["stages"]
            assert "kernel" in stages and "queue_wait" in stages, (
                f"server-side stage percentiles missing from the stats "
                f"verb; got stages: {sorted(stages)}")
            assert all("p99_ms" in block for block in stages.values()), (
                "stage percentile blocks are missing p99_ms")
            with tempfile.TemporaryDirectory() as tmp:
                graph_file = Path(tmp) / "graph.txt"
                write_edge_list(graph, graph_file)
                swap = client.reload(graph=graph_file)
            assert swap["swapped"] and swap["nodes"] == graph.num_nodes
            probe = client.query_batch(pairs[:32])
            assert probe == index.reachable_many(pairs[:32]), (
                "post-reload answers diverge from the direct index")
        return {
            "completed": result.completed,
            "queries": result.queries,
            "queries_per_second": result.queries_per_second,
            "multi_query_flushes": flushes,
            "server_stages": stages,
            "reload": swap,
        }
    finally:
        handle.stop()


def expected_scaling(workers: int, cpu_count: "int | None") -> float:
    """The core-aware throughput floor for a fleet of ``workers``.

    Fleet scaling is capacity-bound by physical cores: N workers on a
    single-core box time-slice one CPU and can only match (not beat)
    one worker, while N workers on >= N cores should approach Nx.  The
    floor is ``0.625 * usable_cores`` (4 usable cores -> the 2.5x
    acceptance bar; 2 -> 1.25x) and never below ``0.65`` — a fleet may
    not *lose* meaningful throughput to its own process overhead even
    with nothing to parallelise onto.
    """
    usable = min(workers, cpu_count or 1)
    return max(0.65, 0.625 * usable) if usable > 1 else 0.65


def run_fleet_smoke() -> dict[str, Any]:
    """The ``fleet`` scenario: a 2-worker fleet against a 1-worker one.

    Asserts, in order: the fleet's differential correctness (every
    loadgen reply checked against the direct index), that more than
    one worker actually served traffic, a fleet-wide hot swap, the
    core-aware throughput floor against a single-worker drive of the
    same load, and — after both servers are down — that no shared-
    memory segment leaked.

    Raises
    ------
    AssertionError
        On any violated invariant (the CI step fails).
    """
    workers = 2
    graph, seed = _make_graph(400)
    index = build_index(graph, scheme=SCHEME)
    pairs = random_query_pairs(graph, 5000, seed=seed + 1)
    expected = index.reachable_many(pairs)
    qps: dict[int, float] = {}
    report: dict[str, Any] = {"workers": workers,
                              "cpu_count": os.cpu_count()}
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = Path(tmp) / "graph.txt"
        write_edge_list(graph, graph_file)
        for size in (1, workers):
            with _server_process(graph_file, workers=size) as port:
                result = run_loadgen(
                    "127.0.0.1", port, pairs,
                    connections=4, duration=2.0,
                    pipeline=PIPELINE, batch_size=1,
                    expected=expected, latency_sample=4)
                assert result.completed > 0, (
                    f"{size}-worker loadgen completed no requests")
                assert not result.errors, (
                    f"protocol errors against the {size}-worker "
                    f"server: {result.errors}")
                assert result.wrong_answers == 0, (
                    f"{result.wrong_answers} wrong answers from the "
                    f"{size}-worker server — first mismatches: "
                    f"{result.mismatch_samples[:3]}")
                qps[size] = result.queries_per_second
                if size == 1:
                    continue
                # SO_REUSEPORT hashes per connection; a dozen fresh
                # connections must reach more than one worker.
                served_by = set()
                for _ in range(12):
                    with ReachClient(port=port) as client:
                        served_by.add(client.stats()["worker"])
                    if len(served_by) > 1:
                        break
                assert len(served_by) > 1, (
                    f"12 fresh connections all landed on worker "
                    f"{served_by} — accept sharding is not spreading")
                with ReachClient(port=port, timeout=60.0) as client:
                    swap = client.reload(graph=graph_file)
                    assert swap["swapped"], f"fleet reload failed: {swap}"
                    assert swap["workers"] == workers, (
                        f"swap covered {swap['workers']} of "
                        f"{workers} workers")
                    assert swap["generation"] == 1, (
                        f"expected generation 1 after one reload, got "
                        f"{swap['generation']}")
                    probe = client.query_batch(pairs[:32])
                    assert probe == expected[:32], (
                        "post-swap answers diverge from the direct "
                        "index")
                report["served_by"] = sorted(served_by)
                report["reload"] = swap
    leaked = list_segments()
    assert not leaked, (
        f"shared-memory segments leaked after shutdown: {leaked}")
    floor = expected_scaling(workers, os.cpu_count())
    ratio = qps[workers] / qps[1] if qps[1] > 0 else float("inf")
    assert ratio >= floor, (
        f"{workers}-worker fleet served only {ratio:.2f}x the "
        f"single-worker throughput ({qps[workers]:,.0f} vs "
        f"{qps[1]:,.0f} queries/s) — core-aware floor is "
        f"{floor:.2f}x on {os.cpu_count()} cores")
    report.update({
        "single_worker_qps": qps[1],
        "fleet_qps": qps[workers],
        "scaling": ratio,
        "expected_scaling": floor,
    })
    return report


def _tenant_fixtures(tmp: str, *, tenants: int, nodes: int,
                     num_pairs: int):
    """Default + N tenant graphs on disk, with verified query pools.

    Returns ``(graph_file, tenant_specs, streams)`` where
    ``tenant_specs`` feeds ``--tenant`` flags and ``streams`` is one
    differentially-verified :func:`run_loadgen_mix` stream per index
    (default first, then tenants 1..N in catalog-id order).
    """
    graph, seed = _make_graph(nodes)
    graph_file = Path(tmp) / "graph.txt"
    write_edge_list(graph, graph_file)
    pairs = random_query_pairs(graph, num_pairs, seed=seed + 1)
    streams = [{"pairs": pairs,
                "expected": build_index(graph, scheme=SCHEME)
                .reachable_many(pairs)}]
    tenant_specs: list[tuple[str, Path]] = []
    for i in range(1, tenants + 1):
        # Distinct seeds give every tenant its own truth, so a query
        # routed to the wrong index is caught as a wrong answer.
        tenant_graph, tenant_seed = _make_graph(nodes, seed + i)
        tenant_file = Path(tmp) / f"tenant-{i}.txt"
        write_edge_list(tenant_graph, tenant_file)
        tenant_specs.append((f"tenant-{i}", tenant_file))
        tenant_pairs = random_query_pairs(tenant_graph, num_pairs,
                                          seed=tenant_seed + 1)
        streams.append({
            "pairs": tenant_pairs, "index": f"tenant-{i}",
            "expected": build_index(tenant_graph, scheme=SCHEME)
            .reachable_many(tenant_pairs)})
    return graph_file, tenant_specs, streams


def run_tenant_smoke() -> dict[str, Any]:
    """The ``tenants`` scenario: multi-tenant serving on a fleet.

    Drives a 2-worker fleet carrying two startup catalog entries with
    one verified stream per index (JSON by name and, for tenant 1,
    binary frames by catalog id), exercises the full runtime catalog
    lifecycle (create → build → query → drop), and — after shutdown —
    asserts no per-index shared-memory segment leaked.

    Raises
    ------
    AssertionError
        On any wrong answer, any protocol error, a catalog op that
        does not take effect on every index, or a leaked segment.
    """
    from repro.server.loadgen import run_loadgen_mix

    tenants, workers, nodes = 2, 2, 300
    before = set(list_segments())
    report: dict[str, Any] = {"tenants": tenants, "workers": workers}
    with tempfile.TemporaryDirectory() as tmp:
        graph_file, tenant_specs, streams = _tenant_fixtures(
            tmp, tenants=tenants, nodes=nodes, num_pairs=4000)
        for stream in streams:
            stream.update(connections=2, pipeline=PIPELINE,
                          batch_size=4, latency_sample=4)
        # Tenant 1 additionally drives binary frames by catalog id —
        # startup tenants get ids 1..N in --tenant flag order.
        streams.append(dict(streams[1], index=1, protocol="binary"))
        with _server_process(graph_file, workers=workers,
                             tenants=tenant_specs) as port:
            with ReachClient(port=port) as client:
                names = [row["name"] for row in client.catalog_list()]
                assert names == ["default"] + [
                    name for name, _ in tenant_specs], (
                    f"startup catalog mismatch: {names}")
            results = run_loadgen_mix("127.0.0.1", port, streams,
                                      duration=1.5)
            for result in results:
                row = result.as_dict()
                assert result.completed > 0, (
                    f"stream {row['index']} completed no requests")
                assert not result.errors, (
                    f"protocol errors on stream {row['index']}: "
                    f"{result.errors}")
                assert result.wrong_answers == 0, (
                    f"{result.wrong_answers} wrong answers on stream "
                    f"{row['index']} — cross-tenant leakage? first: "
                    f"{result.mismatch_samples[:3]}")
            report["streams"] = [r.as_dict() for r in results]
            # Runtime lifecycle: a tenant created, built, queried, and
            # dropped while the fleet serves.
            with ReachClient(port=port, timeout=60.0) as client:
                created = client.catalog("create", name="smoke-extra",
                                         scheme=SCHEME)
                built = client.catalog("build", name="smoke-extra",
                                       graph=str(graph_file))
                assert built["swapped"], f"runtime build failed: {built}"
                probe_pairs = streams[0]["pairs"][:32]
                probe = client.query_batch(
                    [list(p) for p in probe_pairs],
                    index="smoke-extra")
                assert probe == streams[0]["expected"][:32], (
                    "runtime tenant answers diverge from the direct "
                    "index")
                client.catalog("drop", name="smoke-extra")
                try:
                    client.query(0, 1, index="smoke-extra")
                except ServerReplyError as exc:
                    assert exc.code == "unknown_index", exc
                else:
                    raise AssertionError(
                        "dropped tenant still answers queries")
                report["runtime_tenant"] = {
                    "index_id": created["index_id"],
                    "generation": built["generation"]}
            # Per-tenant admission counters carried traffic.  Counters
            # are per worker process and fresh connections land on an
            # arbitrary worker, so accumulate across a few samples.
            admitted: dict[str, int] = {}
            for _ in range(12):
                with ReachClient(port=port) as client:
                    for row in client.stats()["catalog"]:
                        admitted[row["name"]] = max(
                            admitted.get(row["name"], 0),
                            row["admitted"])
                if all(admitted.get(name, 0) > 0
                       for name, _ in tenant_specs):
                    break
            assert all(admitted.get(name, 0) > 0
                       for name, _ in tenant_specs), (
                f"per-tenant admission counters missing traffic: "
                f"{admitted}")
    leaked = set(list_segments()) - before
    assert not leaked, (
        f"per-index shared-memory segments leaked after shutdown: "
        f"{sorted(leaked)}")
    report["aggregate_qps"] = sum(
        row["queries_per_second"] for row in report["streams"])
    return report


def _run_metrics() -> dict[str, Any]:
    report = run_metrics_smoke()
    if not report.ok:
        raise AssertionError("\n".join(report.summary_lines()))
    return {name: detail for name, _, detail in report.checks}


#: Scenario name -> runner; each returns a JSON-able report or raises
#: :class:`AssertionError`.
SCENARIOS: dict[str, Callable[[], dict[str, Any]]] = {
    "serve": run_serve_smoke,
    "protocols": run_protocol_smoke,
    "fleet": run_fleet_smoke,
    "tenants": run_tenant_smoke,
    "metrics": _run_metrics,
}
