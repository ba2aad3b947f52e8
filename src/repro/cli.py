"""Command-line interface: ``repro-reach`` / ``python -m repro``.

Subcommands
-----------
* ``schemes``  — list available index schemes;
* ``generate`` — write a synthetic graph to an edge-list file;
* ``stats``    — print summary statistics of a graph file;
* ``build``    — build an index over a graph file and print its stats;
* ``query``    — build an index and answer reachability queries;
* ``serve``    — run the :mod:`repro.server` TCP gateway in the
  foreground (newline-delimited JSON protocol, cross-connection
  micro-batching, hot index swap via the ``reload`` verb);
* ``loadgen``  — drive a running gateway with open-loop
  multi-connection load and print client-side latency percentiles and
  an error breakdown (``--verify`` differentially checks every reply
  against a locally built index and exits 3 on any wrong answer);
* ``top``      — live stats view of a running gateway: request and
  error counters, per-stage latency percentiles, batcher occupancy,
  and the slowest traced requests with their span breakdowns
  (``--fleet`` samples every worker behind a shared port and renders
  one section per worker);
* ``slo``      — report (and optionally declare) per-tenant service
  level objectives on a running gateway: error-budget remaining,
  multi-window burn rates, and active page/ticket alerts;
* ``doctor``   — one-shot triage bundle against a running gateway
  (ping, health, readiness, stats, SLO alerts, flight-recorder tail,
  catalog, metrics families) with a pass/fail verdict per check;
* ``smoke``    — run one named CI gate from
  :data:`repro.testing.smoke.SCENARIOS` (``serve``, ``protocols``,
  ``fleet``, ``tenants``, ``metrics``) against a live gateway, exiting
  nonzero with the failed assertion's message;
* ``chaos``    — run the fault-injection soak
  (:func:`repro.testing.chaos.run_chaos_soak`): a live server plus
  verified load under a seeded schedule of network/kernel/persistence
  faults, exiting nonzero unless every fault recovered and zero wrong
  answers were observed;
* ``bench``    — forward to the paper-figure runner (``repro.bench``:
  ``run``, ``list``, ``claims``).

Examples
--------
::

    repro-reach generate dag --nodes 2000 --edges 3000 --out g.txt
    repro-reach stats g.txt
    repro-reach build g.txt --scheme dual-ii --save g.dual-ii.idx
    repro-reach query g.txt --scheme dual-i --pairs 17:1805 3:42
    repro-reach query g.txt --pairs-file queries.csv
    repro-reach query g.txt --random 1000 --scheme dual-ii
    repro-reach serve g.txt --port 7421 --max-batch 512
    repro-reach serve g.txt --port 7421 --tenant teamA=a.txt --workers 4
    repro-reach loadgen --port 7421 --graph g.txt --connections 32
    repro-reach loadgen --port 7421 --graph a.txt --index teamA --verify
    repro-reach chaos --isolation --workers 2
    repro-reach loadgen --port 7421 --graph g.txt --verify
    repro-reach serve g.txt --port 7421 --metrics-port 9109
    repro-reach serve g.txt --port 7421 --slo-availability 0.999
    repro-reach top --port 7421 --once
    repro-reach top --port 7421 --fleet --once
    repro-reach slo --port 7421
    repro-reach slo --port 7421 --index teamA --availability 0.995
    repro-reach doctor --port 7421
    repro-reach doctor --port 7421 --out /tmp/triage
    repro-reach smoke metrics
    repro-reach chaos --smoke
    repro-reach chaos --seed 7 --duration 10 --nodes 200
    repro-reach bench run table2 --scale quick
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.bench.runner import main as bench_main
from repro.bench.timing import measure_build_time, measure_query_time
from repro.bench.workloads import random_query_pairs
from repro.core.base import available_schemes, build_index
from repro.core.serialize import IMAGE_SCHEMES
from repro.exceptions import ReproError
from repro.datasets import dataset_names, load_dataset
from repro.graph.generators import (
    gnm_random_digraph,
    random_dag,
    random_tree,
    single_rooted_dag,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import graph_stats

__all__ = ["main"]


def _cmd_schemes(_args: argparse.Namespace) -> int:
    for name in available_schemes():
        print(name)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "gnm":
        graph = gnm_random_digraph(args.nodes, args.edges, seed=args.seed)
    elif kind == "dag":
        graph = single_rooted_dag(args.nodes, args.edges,
                                  max_fanout=args.fanout, seed=args.seed)
    elif kind == "random-dag":
        graph = random_dag(args.nodes, args.edges, seed=args.seed)
    elif kind == "tree":
        graph = random_tree(args.nodes, max_fanout=args.fanout,
                            seed=args.seed)
    else:  # dataset
        graph = load_dataset(args.dataset, seed=args.seed)
    write_edge_list(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges "
          f"to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    for key, value in graph_stats(graph).as_dict().items():
        print(f"{key:16s} {value}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    measured = measure_build_time(graph, args.scheme)
    stats = measured.index.stats()
    print(f"scheme           {stats.scheme}")
    print(f"build_seconds    {measured.seconds:.4f}")
    for key, value in stats.as_dict().items():
        if key == "scheme" or key.startswith("seconds_"):
            continue
        print(f"{key:16s} {value}")
    if stats.phase_seconds:
        profiled = sum(stats.phase_seconds.values())
        print("\nphase breakdown")
        for phase, seconds in stats.phase_seconds.items():
            share = 100.0 * seconds / profiled if profiled else 0.0
            print(f"  {phase:28s} {seconds * 1000.0:10.2f} ms"
                  f"  {share:5.1f}%")
    if args.save is not None:
        from repro.core.serialize import save_dual_index

        save_dual_index(measured.index, args.save)
        print(f"saved index to {args.save}")
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        left, right = text.split(":", 1)
        return int(left), int(right)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"pair must look like 'u:v', got {text!r}") from None


def _cmd_query(args: argparse.Namespace) -> int:
    if args.index is not None:
        from repro.core.serialize import load_dual_index

        index = load_dual_index(args.index)
        graph = None
    else:
        graph = read_edge_list(args.graph)
        index = build_index(graph, scheme=args.scheme)
    if args.pairs_file is not None:
        # The production batch path: the whole file is answered by one
        # QueryService.query_batch() call (vectorised kernel).
        from repro.bench.workloads import read_pairs_file
        from repro.core.service import QueryService

        pairs = read_pairs_file(args.pairs_file)
        with QueryService(index) as service:
            answers = service.query_batch(pairs)
        for (u, v), answer in zip(pairs, answers):
            print(f"{u} -> {v}: "
                  f"{'reachable' if answer else 'unreachable'}")
        print(f"# {len(pairs)} queries, {sum(answers)} reachable")
        return 0
    if args.pairs:
        for u, v in args.pairs:
            answer = index.reachable(u, v)
            print(f"{u} -> {v}: {'reachable' if answer else 'unreachable'}")
        return 0
    if graph is None:
        # Random workloads need the graph's node set.
        print("--index requires --pairs or --pairs-file queries",
              file=sys.stderr)
        return 2
    pairs = random_query_pairs(graph, args.random, seed=args.seed)
    measured = measure_query_time(index, pairs)
    print(f"queries          {measured.num_queries}")
    print(f"positives        {measured.positives}")
    print(f"net_seconds      {measured.seconds:.4f}")
    print(f"us_per_query     {measured.microseconds_per_query:.3f}")
    return 0


def _parse_tenant(text: str) -> tuple[str, str]:
    name, sep, source = text.partition("=")
    if not sep or not name or not source:
        raise argparse.ArgumentTypeError(
            f"tenant must look like 'NAME=GRAPH_FILE', got {text!r}")
    return name, source


def _tenant_rows(args: argparse.Namespace, restored=()) -> list:
    """Build the new startup tenants of ``serve --tenant`` as entry
    rows; names already ``restored`` from durable state are skipped."""
    from repro.server.tenancy import EntryRow

    rows = []
    for name, source in args.tenant or ():
        if name in restored:
            print(f"state-dir: tenant {name!r} restored from durable "
                  f"state; --tenant flag ignored", file=sys.stderr,
                  flush=True)
            continue
        rows.append(EntryRow(name, scheme=args.scheme,
                             index=build_index(read_edge_list(source),
                                               scheme=args.scheme)))
    return rows


def _default_index(args: argparse.Namespace) -> tuple:
    """``serve``'s default index and scheme, loaded from ``--index``
    or built from the graph file."""
    if args.index is not None:
        from repro.core.serialize import load_dual_index

        index = load_dual_index(args.index)
        return index, index.stats().scheme
    return (build_index(read_edge_list(args.graph), scheme=args.scheme),
            args.scheme)


def _boot(args: argparse.Namespace):
    """``serve``'s catalog at start: ``(state, rows)``, one entry row
    per catalog entry, entry 0 first (``state`` is ``None`` without
    ``--state-dir``).

    A state dir is recovered first: the default index and every tenant
    come from the last durable generation when one exists; the CLI
    graph/--index arguments are only the *fallback* for a fresh state
    dir (or a quarantined default artifact).  New ``--tenant`` flags
    whose names are not yet durable become new rows, which the server
    or fleet creates and journals so the next start restores them too.
    """
    if args.state_dir is None:
        from repro.server.tenancy import (DEFAULT_INDEX, DEFAULT_INDEX_ID,
                                          EntryRow)

        index, scheme = _default_index(args)
        return None, [EntryRow(DEFAULT_INDEX, DEFAULT_INDEX_ID, scheme,
                               index=index), *_tenant_rows(args)]
    from repro.server.durability import DurableState, restore_catalog

    state = DurableState(
        args.state_dir,
        checkpoint_interval=args.state_checkpoint_interval,
        retain_generations=args.state_retain)
    report = state.recover()
    for note in report.notes:
        print(f"state-dir: {note}", file=sys.stderr, flush=True)

    boot = restore_catalog(state,
                           default_factory=lambda: _default_index(args))
    for note in boot.notes:
        print(f"state-dir: {note}", file=sys.stderr, flush=True)
    for reason in boot.degraded:
        print(f"state-dir: DEGRADED: {reason}", file=sys.stderr,
              flush=True)
    rows = [boot.default, *boot.tenants]
    rows += _tenant_rows(args, {row.name for row in boot.tenants})
    return state, rows


def _server_options(args: argparse.Namespace) -> dict:
    """``serve``: the :class:`ServerConfig` keywords the single server
    and every fleet worker share.

    The flight directory defaults to ``<state-dir>/flightrec`` so crash
    dumps live next to the journal they explain; stale
    ``*-current.jsonl`` files from the previous incarnation are
    archived (not clobbered) before the new recorder starts.
    """
    slo_defaults = None
    if args.slo_availability is not None \
            or args.slo_latency_ms is not None:
        slo_defaults = {}
        if args.slo_availability is not None:
            slo_defaults["availability"] = args.slo_availability
        if args.slo_latency_ms is not None:
            slo_defaults["latency_ms"] = args.slo_latency_ms
    flight_dir = args.flight_dir
    if flight_dir is None and args.state_dir is not None:
        flight_dir = args.state_dir / "flightrec"
    if flight_dir is not None:
        from repro.obs.flight import archive_current_dumps

        flight_dir = Path(flight_dir)
        flight_dir.mkdir(parents=True, exist_ok=True)
        for path in archive_current_dumps(str(flight_dir)):
            print(f"flightrec: archived prior dump {path}",
                  file=sys.stderr, flush=True)
        flight_dir = str(flight_dir)  # fleet workers share it
    return dict(
        max_batch=args.max_batch, max_delay=args.max_delay_ms / 1000.0,
        max_pending=args.max_pending, policy=args.policy,
        max_request_pairs=args.max_request_pairs,
        max_conn_inflight=args.max_conn_inflight,
        request_timeout=args.request_timeout,
        slow_log_size=args.slow_log_size, span_sample=args.span_sample,
        executor_workers=args.executor_threads,
        slo_defaults=slo_defaults, flight_dir=flight_dir)


def _cmd_serve(args: argparse.Namespace) -> int:
    state, rows = _boot(args)
    try:
        if args.workers > 1:
            return _serve_fleet(args, rows, state)
        return _serve_single(args, rows, state)
    finally:
        if state is not None:
            # Fold the journal into a checkpoint so the next boot
            # replays nothing (crashes skip this and replay instead).
            state.checkpoint()
            state.close()


def _serve_single(args: argparse.Namespace, rows: list, state) -> int:
    """``serve``: one in-process gateway over the boot ``rows``."""
    import asyncio

    from repro.server.server import ReachServer, ServerConfig

    config = ServerConfig(
        host=args.host, port=args.port, access_log=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        metrics_port=args.metrics_port, state=state,
        **_server_options(args))
    scheme, tenants = rows[0].scheme, [row.name for row in rows[1:]]
    server = ReachServer(None, scheme=scheme, config=config)
    # Pre-start registration: the event loop is not running yet, so
    # adopting the boot rows here is safe.  Each row's index becomes
    # the image the server serves; the built ones are freed here.
    for row in rows:
        server.adopt(row)
    stats = rows[0].index.stats()

    async def _serve() -> None:
        await server.start()
        print(f"serving {scheme} ({stats.num_nodes} nodes, "
              f"{stats.num_edges} edges) on {config.host}:{server.port}"
              f" — max_batch={config.max_batch}, "
              f"max_delay={config.max_delay * 1000:.1f}ms, "
              f"policy={config.policy}  (ctrl-c to stop)", flush=True)
        if tenants:
            print("tenants: " + ", ".join(tenants), flush=True)
        if config.metrics_port is not None:
            print(f"Prometheus scrape endpoint on "
                  f"http://{config.host}:{server.metrics_port}/metrics",
                  flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped")
    return 0


def _serve_fleet(args: argparse.Namespace, rows: list, state) -> int:
    """``serve --workers N``: the SO_REUSEPORT worker fleet over the
    boot ``rows`` (entry 0 first), which it empties: the fleet parent
    keeps no index once it has published them."""
    import signal
    import threading

    from repro.server.router import WorkerFleet

    if args.access_log is not None:
        # One shared file across N processes would interleave; fleet
        # access logging goes through the per-worker `stats` verb
        # (worker-labelled) instead.
        print("note: --access-log is ignored with --workers > 1",
              file=sys.stderr)
    options = _server_options(args)
    scheme, stats = rows[0].scheme, rows[0].index.stats()
    tenants = [row.name for row in rows[1:]]
    fleet = WorkerFleet(rows[0].index, scheme=scheme, workers=args.workers,
                        host=args.host, port=args.port,
                        server_options=options, tenants=rows[1:],
                        state=state, metrics_port=args.metrics_port,
                        flight_dir=options["flight_dir"])
    rows.clear()  # the built entry 0 goes; the fleet holds its image
    # A SIGTERM (systemd stop, `timeout`, docker stop) must run the
    # same clean shutdown as ctrl-c, or the published shared-memory
    # generation leaks in /dev/shm.
    done = threading.Event()
    previous = signal.signal(signal.SIGTERM,
                             lambda signum, frame: done.set())
    fleet.start()
    try:
        print(f"serving {scheme} ({stats.num_nodes} nodes, "
              f"{stats.num_edges} edges) on {args.host}:{fleet.port}"
              f" — workers={fleet.workers}, "
              f"max_batch={args.max_batch}, "
              f"max_delay={args.max_delay_ms:.1f}ms, "
              f"policy={args.policy}  (ctrl-c to stop)", flush=True)
        print(f"shared-memory index segment {fleet.segment} "
              f"(pids {fleet.pids()})", flush=True)
        if args.metrics_port is not None:
            print(f"fleet-wide Prometheus scrape endpoint on "
                  f"http://{args.host}:{fleet.metrics_port}/metrics",
                  flush=True)
        if tenants:
            print("tenants: " + ", ".join(tenants), flush=True)
        done.wait()
        print("\nfleet stopped")
    except KeyboardInterrupt:
        print("\nfleet stopped")
    finally:
        fleet.stop()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_kv_table
    from repro.server.loadgen import run_loadgen

    if args.pairs_file is not None:
        from repro.bench.workloads import read_pairs_file

        pairs = read_pairs_file(args.pairs_file)
        graph = None
    elif args.graph is not None:
        graph = read_edge_list(args.graph)
        pairs = random_query_pairs(graph, args.random, seed=args.seed)
    else:
        print("loadgen needs --pairs-file or --graph", file=sys.stderr)
        return 2
    expected = None
    if args.verify:
        # Differential mode: build the same index locally and check
        # every gateway reply against the direct answers.
        if graph is None:
            print("--verify requires --graph (it rebuilds the index "
                  "locally for ground truth)", file=sys.stderr)
            return 2
        from repro.core.service import QueryService

        with QueryService(build_index(graph,
                                      scheme=args.scheme)) as service:
            expected = [bool(a) for a in service.query_batch(pairs)]
    index_target: "str | int | None" = args.index
    if index_target is not None and args.protocol == "binary":
        # Binary frames address catalog entries by numeric id; resolve
        # the name with one management-plane round trip.
        from repro.server.client import ReachClient

        with ReachClient(args.host, args.port) as client:
            rows = {row["name"]: row["index_id"]
                    for row in client.catalog_list()}
        if index_target not in rows:
            print(f"unknown index {index_target!r}; server has: "
                  f"{', '.join(sorted(rows))}", file=sys.stderr)
            return 2
        index_target = rows[index_target]
    result = run_loadgen(args.host, args.port, pairs,
                         connections=args.connections,
                         duration=args.duration,
                         pipeline=args.pipeline,
                         batch_size=args.batch_size, rate=args.rate,
                         latency_sample=args.latency_sample,
                         expected=expected, protocol=args.protocol,
                         index=index_target, trace=args.trace)
    print(format_kv_table(
        result.as_dict(),
        title=f"loadgen — {args.host}:{args.port}, "
              f"{args.connections} connections"))
    print(format_kv_table(result.error_breakdown(),
                          title="error breakdown"))
    if result.mismatch_samples:
        print("\nwrong-answer samples (u, v, got, want):")
        for sample in result.mismatch_samples:
            print(f"  {sample}")
    print(f"\n[{result.queries_per_second:,.0f} queries/second "
          f"end-to-end through the gateway]")
    if result.wrong_answers:
        # Wrong answers are a correctness failure, ranked above (and
        # distinguished from) transport/overload errors.
        return 3
    return 1 if result.error_total else 0


def _format_top(doc: dict, slow: int) -> list[str]:
    """Render one ``stats`` snapshot as the ``top`` screen's lines."""
    server = doc.get("server", {})
    service = doc.get("service", {})
    batcher = doc.get("batcher", {})
    lines = [
        f"scheme={doc.get('scheme')}  "
        f"degraded={doc.get('degraded') or 'no'}  "
        f"uptime={server.get('uptime_seconds', 0.0):.0f}s  "
        f"conns={server.get('connections_open', 0)}"
        f"/{server.get('connections_total', 0)}  "
        f"swaps={server.get('index_swaps', 0)}",
        f"requests={server.get('requests_total', 0)}  "
        f"errors={server.get('errors_total', 0)}  "
        f"p50={server.get('p50_ms', 0.0):.2f}ms  "
        f"p99={server.get('p99_ms', 0.0):.2f}ms  "
        f"qps={service.get('queries_per_second', 0.0):,.0f}",
        f"batcher: in_flight={batcher.get('in_flight_pairs', 0)}  "
        f"flushes={batcher.get('flushes', 0)}  "
        f"mean_pairs={batcher.get('mean_flush_pairs', 0.0):.1f}  "
        f"shed={batcher.get('shed_requests', 0)}",
    ]
    catalog = doc.get("catalog", [])
    if len(catalog) > 1:
        # Only worth screen space once named tenants exist; the lone
        # default entry is already summarised by the lines above.
        lines.append("tenant       id  gen  admitted      shed  "
                     "inflight  label_mb")
        for entry in catalog:
            label_mb = (entry.get("label_bytes") or 0) / 1e6
            lines.append(
                f"  {entry.get('name', '?'):10s}"
                f" {entry.get('index_id', 0):3d}"
                f" {entry.get('generation', 0):4d}"
                f" {entry.get('admitted', 0):9d}"
                f" {entry.get('shed', 0):9d}"
                f" {entry.get('inflight', 0):9d}"
                f" {label_mb:9.2f}"
                + ("" if entry.get("loaded") else "  (empty)"))
    stages = doc.get("stages", {})
    if stages:
        lines.append("stage        p50_ms    p95_ms    p99_ms    max_ms")
        for stage, pcts in stages.items():
            lines.append(f"  {stage:10s}"
                         f" {pcts.get('p50_ms', 0.0):8.3f}"
                         f"  {pcts.get('p95_ms', 0.0):8.3f}"
                         f"  {pcts.get('p99_ms', 0.0):8.3f}"
                         f"  {pcts.get('max_ms', 0.0):8.3f}")
    slow_queries = doc.get("slow_queries", [])[:slow]
    if slow_queries:
        lines.append("slowest requests (trace, verb, pairs, ms, stages):")
        for entry in slow_queries:
            stages_ms = entry.get("stages_ms", {})
            breakdown = " ".join(f"{k}={v:.2f}"
                                 for k, v in stages_ms.items())
            lines.append(f"  {entry.get('trace', '-'): <14}"
                         f" {entry.get('verb', '?'):6s}"
                         f" {entry.get('pairs', 0):5d}"
                         f" {entry.get('ms', 0.0):9.2f}  {breakdown}")
    return lines


def _fleet_snapshots(host: str, port: int,
                     timeout: float) -> dict[str, dict]:
    """One ``stats`` snapshot per fleet worker behind a shared port.

    SO_REUSEPORT hashes each fresh connection to a worker, so repeated
    one-shot connections eventually sample every process; stop after a
    run of connections that land on already-seen workers.
    """
    from repro.server.client import ReachClient

    seen: dict[str, dict] = {}
    attempts, misses = 0, 0
    while attempts < 64 and misses < 10:
        attempts += 1
        with ReachClient(host, port, timeout=timeout) as client:
            doc = client.stats()
        label = doc.get("worker") or "srv"
        if label in seen:
            misses += 1
        else:
            seen[label] = doc
            misses = 0
    return seen


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.server.client import ReachClient

    if args.fleet:
        if args.reset:
            print("note: --reset is ignored with --fleet (sampling "
                  "connections land on arbitrary workers)",
                  file=sys.stderr)
        try:
            while True:
                snapshots = _fleet_snapshots(args.host, args.port,
                                             args.timeout)
                for label in sorted(snapshots):
                    print(f"=== worker {label} ===", flush=True)
                    print("\n".join(_format_top(snapshots[label],
                                                args.slow)), flush=True)
                if args.once:
                    return 0
                print(f"-- {len(snapshots)} workers sampled; refresh "
                      f"in {args.interval:.0f}s (ctrl-c to stop) --",
                      flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
        return 0
    with ReachClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            while True:
                doc = client.stats(reset=args.reset)
                print("\n".join(_format_top(doc, args.slow)), flush=True)
                if args.once:
                    return 0
                print(f"-- refresh in {args.interval:.0f}s "
                      f"(ctrl-c to stop) --", flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
    return 0


def _format_slo(doc: dict) -> list[str]:
    """Render the ``slo`` verb's report document for the terminal."""
    if not doc.get("enabled"):
        return ["slo tracking disabled — declare an objective with "
                "`repro-reach slo --availability/--latency-ms` or "
                "start the server with --slo-availability"]
    lines = []
    default = doc.get("default_objective")
    if default:
        lines.append(f"default objective: "
                     f"availability={default['availability']:g}, "
                     f"latency_ms={default['latency_ms']:g}")
    for name, entry in doc.get("entries", {}).items():
        objective = entry["objective"]
        alerts = [severity for severity, active
                  in entry.get("alerts", {}).items() if active]
        lifetime = entry.get("lifetime", {})
        lines.append(
            f"{name}: target={objective['availability']:g} "
            f"latency<{objective['latency_ms']:g}ms  "
            f"budget_remaining={entry['error_budget_remaining']:.1%}  "
            f"alerts={','.join(alerts) or 'none'}  "
            f"lifetime={lifetime.get('bad', 0)}"
            f"/{lifetime.get('total', 0)} bad")
        windows = entry.get("windows", {})
        if windows:
            lines.append("  window    total      bad  burn_rate")
            for label, win in windows.items():
                lines.append(f"  {label:6s} {win['total']:8d} "
                             f"{win['bad']:8d} {win['burn_rate']:10.2f}")
    return lines


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.server.client import ReachClient

    objective = None
    if args.availability is not None or args.latency_ms is not None:
        objective = {}
        if args.availability is not None:
            objective["availability"] = args.availability
        if args.latency_ms is not None:
            objective["latency_ms"] = args.latency_ms
    with ReachClient(args.host, args.port,
                     timeout=args.timeout) as client:
        doc = client.slo(index=args.index, objective=objective)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(_format_slo(doc)))
    # Scripting contract: nonzero when any burn-rate alert is firing,
    # so `repro-reach slo` can gate a deploy step directly.
    for entry in doc.get("entries", {}).values():
        if any(entry.get("alerts", {}).values()):
            return 1
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """One-shot triage bundle: every read-only observability surface
    of a running gateway, each reduced to a pass/fail line."""
    import json
    import time

    from repro.server.client import ReachClient

    checks: list[tuple[str, bool, str]] = []
    docs: dict[str, object] = {}
    with ReachClient(args.host, args.port,
                     timeout=args.timeout) as client:
        started = time.monotonic()
        client.ping()
        rtt_ms = (time.monotonic() - started) * 1000.0
        checks.append(("ping", True, f"pong in {rtt_ms:.1f}ms"))

        health = client.health()
        docs["health"] = health
        worker = health.get("worker")
        detail = f"status={health.get('status')}"
        if health.get("reason"):
            detail += f" ({health['reason']})"
        if worker is not None:
            detail += f"  worker={worker}"
        checks.append(("health", health.get("status") == "ok", detail))

        ready = client.ready()
        docs["ready"] = ready
        durable = ready.get("durable")
        detail = f"ready={ready.get('ready')}"
        if durable:
            detail += (f"  journal_seq={durable.get('seq')}"
                       f"  recovered={durable.get('recovered')}")
        checks.append(("ready", bool(ready.get("ready")), detail))

        stats = client.stats()
        docs["stats"] = stats
        server = stats.get("server", {})
        requests = server.get("requests_total", 0)
        errors = server.get("errors_total", 0)
        checks.append((
            "traffic", True,
            f"requests={requests}  errors={errors}  "
            f"p50={server.get('p50_ms', 0.0):.2f}ms  "
            f"p99={server.get('p99_ms', 0.0):.2f}ms"))
        shed = stats.get("batcher", {}).get("shed_requests", 0)
        checks.append(("admission", not shed,
                       f"shed_requests={shed}"))

        slo = client.slo()
        docs["slo"] = slo
        if not slo.get("enabled"):
            checks.append(("slo", True, "no objectives declared"))
        else:
            firing = sorted(
                f"{name}:{severity}"
                for name, entry in slo.get("entries", {}).items()
                for severity, active in entry.get("alerts", {}).items()
                if active)
            checks.append((
                "slo", not firing,
                f"alerts={','.join(firing) or 'none'}  "
                f"tracked={len(slo.get('entries', {}))}"))

        flight = client.flight()
        docs["flight"] = flight
        events = flight.get("events", [])
        tail = events[-args.events:]
        checks.append((
            "flight", True,
            f"{len(events)} ring events, {flight.get('dumps', 0)} "
            f"dumps written"))
        catalog = client.catalog_list()
        docs["catalog"] = catalog
        empty = [row["name"] for row in catalog
                 if not row.get("loaded")]
        checks.append((
            "catalog", not empty,
            f"{len(catalog)} entries"
            + (f", empty: {', '.join(empty)}" if empty else "")))

        metrics = client.metrics()
        docs["metrics"] = metrics
        families = sum(
            1 for line in metrics.get("exposition", "").splitlines()
            if line.startswith("# TYPE "))
        checks.append(("metrics", families > 0,
                       f"{families} metric families"))

    print(f"doctor — {args.host}:{args.port}")
    failed = 0
    for name, ok, detail in checks:
        failed += 0 if ok else 1
        print(f"  [{'ok' if ok else 'FAIL':4s}] {name:10s} {detail}")
    if tail:
        print(f"  last {len(tail)} flight events:")
        for event in tail:
            extras = {k: v for k, v in event.items()
                      if k not in ("ts", "seq", "kind")}
            print(f"    seq={event.get('seq')} {event.get('kind')} "
                  + " ".join(f"{k}={v}" for k, v in extras.items()))
    slow = stats.get("slow_queries", [])[:3]
    if slow:
        print("  slowest traces:")
        for entry in slow:
            print(f"    {entry.get('trace', '-')} "
                  f"{entry.get('verb', '?')} "
                  f"{entry.get('ms', 0.0):.2f}ms "
                  + " ".join(f"{k}={v:.2f}" for k, v in
                             entry.get("stages_ms", {}).items()))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            path = args.out / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True,
                                       default=str) + "\n",
                            encoding="utf-8")
        print(f"  raw documents written to {args.out}/")
    print("doctor: all checks passed" if not failed
          else f"doctor: {failed} check(s) FAILED")
    return 1 if failed else 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    import json

    from repro.testing.smoke import SCENARIOS

    try:
        report = SCENARIOS[args.scenario]()
    except AssertionError as exc:
        print(f"smoke {args.scenario}: FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    print(f"smoke {args.scenario}: ok")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.testing.chaos import (
        run_chaos_soak,
        run_crash_restart_soak,
        run_tenant_isolation_soak,
    )

    if args.smoke:
        # CI-sized soak: short, small graph, but still every fault kind.
        args.duration = min(args.duration, 6.0)
        args.nodes = min(args.nodes, 100)
    if args.crash_restart:
        cycles = min(args.cycles, 5) if args.smoke else args.cycles
        with tempfile.TemporaryDirectory(
                prefix="repro-crash-") as workdir:
            report = run_crash_restart_soak(
                seed=args.seed, cycles=cycles, nodes=args.nodes,
                scheme=args.scheme, workers=args.workers,
                # Subprocess restarts pay interpreter startup on top
                # of journal replay; the 5s network-fault default
                # would time out on a healthy recovery.
                recovery_timeout=max(args.recovery_timeout, 20.0),
                workdir=workdir)
        print("\n".join(report.summary_lines()))
        return 0 if report.ok() else 1
    if args.isolation:
        report = run_tenant_isolation_soak(
            seed=args.seed, duration=args.duration, nodes=args.nodes,
            scheme=args.scheme, workers=max(args.workers, 2),
            p99_limit=args.p99_limit)
        print("\n".join(report.summary_lines()))
        return 0 if report.ok() else 1
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        report = run_chaos_soak(
            seed=args.seed, duration=args.duration, nodes=args.nodes,
            scheme=args.scheme, recovery_timeout=args.recovery_timeout,
            connections=args.connections, workdir=workdir,
            workers=args.workers, protocol=args.protocol)
    print("\n".join(report.summary_lines()))
    return 0 if report.ok() else 1


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro.bench.goldens import (
        check_against_golden,
        create_golden,
        load_golden,
        save_golden,
    )

    graph = read_edge_list(args.graph)
    if args.golden_command == "create":
        golden = create_golden(graph, args.queries, seed=args.seed)
        save_golden(golden, args.out)
        print(f"wrote golden with {len(golden)} queries "
              f"({golden.positives} positive) to {args.out}")
        return 0
    golden = load_golden(args.golden)
    index = build_index(graph, scheme=args.scheme)
    mismatches = check_against_golden(index, golden)
    if not mismatches:
        print(f"{args.scheme}: OK — agrees with the golden on all "
              f"{len(golden)} queries")
        return 0
    print(f"{args.scheme}: FAILED — {len(mismatches)} disagreements")
    for u, v, actual, expected in mismatches:
        print(f"  MISMATCH {u} -> {v}: index={actual} "
              f"golden={expected}")
    return 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    """Cross-scheme agreement battery over several graph families."""
    from repro.core.validation import validate_index
    from repro.graph.generators import (
        citation_dag,
        gnm_random_digraph,
        random_tree,
        single_rooted_dag,
    )

    families = {
        "tree": random_tree(150, max_fanout=4, seed=args.seed),
        "rooted-dag": single_rooted_dag(150, 200, max_fanout=5,
                                        seed=args.seed),
        "random-cyclic": gnm_random_digraph(120, 300, seed=args.seed),
        "citation": citation_dag(150, refs_per_node=2, seed=args.seed),
    }
    failures = 0
    for family, graph in families.items():
        for scheme in available_schemes():
            index = build_index(graph, scheme=scheme)
            report = validate_index(index, graph, sample=args.sample,
                                    seed=args.seed)
            verdict = "ok" if report.ok else "FAILED"
            if not report.ok:
                failures += 1
            print(f"  {family:14s} {scheme:12s} {verdict} "
                  f"({report.num_checked} pairs)")
    if failures:
        print(f"selftest: {failures} scheme/family combinations FAILED")
        return 1
    print("selftest: every scheme agrees with ground truth "
          "on every family ✔")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_index

    graph = read_edge_list(args.graph)
    index = build_index(graph, scheme=args.scheme)
    report = validate_index(index, graph, sample=args.sample,
                            seed=args.seed)
    print(report.summary())
    for u, v, answer, truth in report.mismatches:
        print(f"  MISMATCH {u} -> {v}: index={answer} truth={truth}")
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-reach",
        description=("Dual labeling — constant-time graph reachability "
                     "(ICDE 2006 reproduction)"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list index schemes")

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("kind",
                     choices=("gnm", "dag", "random-dag", "tree", "dataset"))
    gen.add_argument("--nodes", type=int, default=2000)
    gen.add_argument("--edges", type=int, default=3000)
    gen.add_argument("--fanout", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dataset", choices=dataset_names(),
                     help="dataset name (kind=dataset)")
    gen.add_argument("--out", type=Path, required=True)

    stats = sub.add_parser("stats", help="summarise a graph file")
    stats.add_argument("graph", type=Path)

    build = sub.add_parser("build", help="build an index, print stats")
    build.add_argument("graph", type=Path)
    build.add_argument("--scheme", choices=available_schemes(),
                       default="dual-i")
    build.add_argument("--save", type=Path, default=None,
                       help="persist the index (dual-i or dual-ii) as "
                            "a binary image (INDEX.idx)")

    query = sub.add_parser("query", help="answer reachability queries")
    query.add_argument("graph", type=Path, nargs="?", default=None)
    query.add_argument("--index", type=Path, default=None,
                       help="load a saved dual-i/dual-ii index instead "
                            "of building from the graph file")
    query.add_argument("--scheme", choices=available_schemes(),
                       default="dual-i")
    query.add_argument("--pairs", type=_parse_pair, nargs="+",
                       help="explicit queries as u:v tokens")
    query.add_argument("--pairs-file", type=Path, default=None,
                       help="file of 'u,v' lines, answered in one "
                            "QueryService.query_batch() call")
    query.add_argument("--random", type=int, default=10_000,
                       help="number of random queries when --pairs absent")
    query.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="serve reachability over TCP (newline-delimited JSON, "
             "cross-connection micro-batching)")
    serve.add_argument("graph", type=Path, nargs="?", default=None)
    serve.add_argument("--index", type=Path, default=None,
                       help="warm-start from a saved index instead of "
                            "building from the graph file")
    serve.add_argument("--scheme", choices=IMAGE_SCHEMES,
                       default="dual-i",
                       help="index scheme served (the schemes an index "
                            "image holds)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="listening port (0 = ephemeral)")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="flush the micro-batch at this many pairs")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="flush the micro-batch after this many ms")
    serve.add_argument("--max-pending", type=int, default=8192,
                       help="admission bound on in-flight pairs")
    serve.add_argument("--policy", choices=("block", "shed"),
                       default="block",
                       help="over capacity: block the sender or shed "
                            "with an 'overloaded' error reply")
    serve.add_argument("--max-request-pairs", type=int, default=4096,
                       help="per-request pair cap ('too_large' beyond)")
    serve.add_argument("--max-conn-inflight", type=int, default=64,
                       help="per-connection in-flight request cap")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="seconds before a request times out")
    serve.add_argument("--tenant", type=_parse_tenant,
                       action="append", metavar="NAME=GRAPH",
                       help="also serve GRAPH as the named catalog "
                            "entry (repeatable; built with --scheme; "
                            "manage at runtime via the catalog verb)")
    serve.add_argument("--state-dir", type=Path, default=None,
                       help="durable state directory: journal every "
                            "catalog mutation (fsynced before the "
                            "client ack), checkpoint periodically, "
                            "and recover the whole catalog — default "
                            "index, tenants, quotas, generations — "
                            "on restart; the graph/--index arguments "
                            "become the fallback for a fresh dir")
    serve.add_argument("--state-checkpoint-interval", type=int,
                       default=64, metavar="N",
                       help="fold the journal into the manifest "
                            "checkpoint every N records (bounds "
                            "journal growth and replay time)")
    serve.add_argument("--state-retain", type=int, default=2,
                       metavar="N",
                       help="saved index generations kept per tenant "
                            "before GC removes the older artifacts")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes sharing the port via "
                            "SO_REUSEPORT, each attaching the index "
                            "from shared memory (1 = single-process)")
    serve.add_argument("--executor-threads", type=int, default=1,
                       help="kernel executor threads per process")
    serve.add_argument("--access-log", default=None,
                       help="structured JSON access-log file "
                            "('-' for stderr)")
    serve.add_argument("--access-log-max-bytes", type=int, default=None,
                       help="rotate the access log once it exceeds this "
                            "many bytes (one .1 generation kept)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also expose GET /metrics (Prometheus text "
                            "format) on this HTTP port (0 = ephemeral)")
    serve.add_argument("--slow-log-size", type=int, default=32,
                       help="slowest requests retained by the "
                            "slow-query log")
    serve.add_argument("--span-sample", type=int, default=8,
                       help="record per-stage span histograms for 1 in "
                            "this many requests (the slow-query log "
                            "still sees every request; 1 = all)")
    serve.add_argument("--slo-availability", type=float, default=None,
                       metavar="FRACTION",
                       help="track every catalog entry against this "
                            "availability objective (e.g. 0.999); "
                            "enables the per-tenant SLO engine, burn-"
                            "rate alerts, and the reach_slo_* metric "
                            "families")
    serve.add_argument("--slo-latency-ms", type=float, default=None,
                       help="requests slower than this count against "
                            "the error budget (default 50ms when only "
                            "--slo-availability is given)")
    serve.add_argument("--flight-dir", type=Path, default=None,
                       help="spill the crash flight recorder to this "
                            "directory (defaults to <state-dir>/"
                            "flightrec when --state-dir is set; dumps "
                            "are written on degraded entry, worker "
                            "respawn, fatal signals, and via the "
                            "'flight' verb)")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running gateway with open-loop load")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--pairs-file", type=Path, default=None,
                         help="query pool: file of 'u,v' lines")
    loadgen.add_argument("--graph", type=Path, default=None,
                         help="query pool: --random pairs drawn from "
                              "this graph file")
    loadgen.add_argument("--random", type=int, default=10_000,
                         help="pool size when drawing from --graph")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--connections", type=int, default=8,
                         help="concurrent TCP connections")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="seconds to keep sending")
    loadgen.add_argument("--pipeline", type=int, default=4,
                         help="in-flight requests per connection")
    loadgen.add_argument("--batch-size", type=int, default=1,
                         help="pairs per request (1 = 'query' verb)")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="aggregate requests/second pacing target")
    loadgen.add_argument("--latency-sample", type=int, default=1,
                         help="record the latency of every Nth request "
                              "(1 = all; >1 trades tail-percentile "
                              "fidelity for loadgen overhead)")
    loadgen.add_argument("--protocol", choices=("json", "binary"),
                         default="json",
                         help="wire protocol: newline-JSON verbs or "
                              "length-prefixed binary frames "
                              "(struct-packed pairs in, answer "
                              "bitmaps out)")
    loadgen.add_argument("--index", default=None,
                         help="target a named catalog entry instead of "
                              "the default index (binary protocol "
                              "resolves the name to its numeric id "
                              "first)")
    loadgen.add_argument("--trace", action="store_true",
                         help="stamp every JSON request with a client-"
                              "minted trace id (echoed in replies; "
                              "lands in the server's slow-query log, "
                              "stage exemplars, and flight recorder)")
    loadgen.add_argument("--verify", action="store_true",
                         help="differentially check every reply against "
                              "a locally built index (needs --graph); "
                              "exit 3 on any wrong answer")
    loadgen.add_argument("--scheme", choices=available_schemes(),
                         default="dual-i",
                         help="scheme for the --verify ground-truth "
                              "index")

    top = sub.add_parser(
        "top",
        help="live stats view of a running gateway (requests, stage "
             "percentiles, batcher occupancy, slowest queries)")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit")
    top.add_argument("--slow", type=int, default=5,
                     help="slowest requests shown per refresh")
    top.add_argument("--reset", action="store_true",
                     help="drain the service window and slow-query log "
                          "on every poll, so each refresh shows that "
                          "interval only")
    top.add_argument("--fleet", action="store_true",
                     help="sample every worker behind the shared port "
                          "(repeated fresh connections, keyed by the "
                          "stats worker label) and render one section "
                          "per worker")
    top.add_argument("--timeout", type=float, default=10.0)

    slo = sub.add_parser(
        "slo",
        help="report (and optionally declare) per-tenant SLOs on a "
             "running gateway; exits 1 while any burn-rate alert "
             "fires")
    slo.add_argument("--host", default="127.0.0.1")
    slo.add_argument("--port", type=int, required=True)
    slo.add_argument("--index", default=None,
                     help="declare the objective for this catalog "
                          "entry (default: the default index)")
    slo.add_argument("--availability", type=float, default=None,
                     metavar="FRACTION",
                     help="declare this availability target (0..1) "
                          "before reporting")
    slo.add_argument("--latency-ms", type=float, default=None,
                     help="declare this latency threshold before "
                          "reporting")
    slo.add_argument("--json", action="store_true",
                     help="print the raw report document instead of "
                          "the table")
    slo.add_argument("--timeout", type=float, default=10.0)

    doctor = sub.add_parser(
        "doctor",
        help="one-shot triage bundle: ping, health, readiness, "
             "traffic, SLO alerts, flight-recorder tail, catalog, and "
             "metrics families, each with a pass/fail verdict")
    doctor.add_argument("--host", default="127.0.0.1")
    doctor.add_argument("--port", type=int, required=True)
    doctor.add_argument("--events", type=int, default=5,
                        help="flight-recorder events shown")
    doctor.add_argument("--out", type=Path, default=None,
                        help="also write every raw document (health, "
                             "stats, slo, flight, catalog, metrics) "
                             "as JSON files into this directory")
    doctor.add_argument("--timeout", type=float, default=10.0)

    smoke = sub.add_parser(
        "smoke",
        help="run one named CI gate against a live gateway")
    smoke.add_argument("scenario",
                       choices=("serve", "protocols", "fleet", "tenants",
                                "metrics"))

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection soak: server + verified load under a "
             "seeded fault schedule")
    chaos.add_argument("--seed", type=int, default=0,
                       help="replays the whole run: graph, pool, and "
                            "fault schedule")
    chaos.add_argument("--duration", type=float, default=8.0,
                       help="seconds of sustained load")
    chaos.add_argument("--nodes", type=int, default=150,
                       help="graph size (edges = 2x)")
    chaos.add_argument("--scheme", choices=IMAGE_SCHEMES,
                       default="dual-ii")
    chaos.add_argument("--recovery-timeout", type=float, default=5.0,
                       help="per-fault bound on seeing correct answers "
                            "again")
    chaos.add_argument("--connections", type=int, default=4)
    chaos.add_argument("--workers", type=int, default=0,
                       help="soak a multi-process worker fleet of this "
                            "size instead of the in-process server "
                            "(adds worker_kill/worker_hang faults)")
    chaos.add_argument("--protocol", choices=("json", "binary"),
                       default="json",
                       help="wire protocol the verified load speaks; "
                            "binary exercises frame resync under "
                            "garble/truncation faults")
    chaos.add_argument("--crash-restart", action="store_true",
                       help="run the power-loss prover instead: "
                            "SIGKILL a real `serve --state-dir` "
                            "subprocess mid-mutation, restart onto "
                            "the same state dir, and verify atomic "
                            "recovery with zero wrong answers")
    chaos.add_argument("--cycles", type=int, default=20,
                       help="crash-restart soak: kill/restart cycles "
                            "(--smoke caps this at 5)")
    chaos.add_argument("--isolation", action="store_true",
                       help="run the cross-tenant isolation soak "
                            "instead: tenant A floods past its quota "
                            "while workers are killed; tenant B must "
                            "stay correct and fast")
    chaos.add_argument("--p99-limit", type=float, default=2.0,
                       help="isolation soak: multiple of the quiet "
                            "baseline p99 the victim tenant may reach")
    chaos.add_argument("--smoke", action="store_true",
                       help="CI-sized run (caps duration and nodes)")

    golden = sub.add_parser(
        "golden",
        help="create / check ground-truth query workload files")
    golden_sub = golden.add_subparsers(dest="golden_command",
                                       required=True)
    golden_create = golden_sub.add_parser(
        "create", help="generate a golden for a graph")
    golden_create.add_argument("graph", type=Path)
    golden_create.add_argument("--queries", type=int, default=1000)
    golden_create.add_argument("--seed", type=int, default=0)
    golden_create.add_argument("--out", type=Path, required=True)
    golden_check = golden_sub.add_parser(
        "check", help="verify an index against a golden")
    golden_check.add_argument("graph", type=Path)
    golden_check.add_argument("golden", type=Path)
    golden_check.add_argument("--scheme", choices=available_schemes(),
                              default="dual-i")

    selftest = sub.add_parser(
        "selftest",
        help="cross-scheme agreement battery over several graph families")
    selftest.add_argument("--sample", type=int, default=400)
    selftest.add_argument("--seed", type=int, default=0)

    validate = sub.add_parser(
        "validate", help="cross-check an index against BFS ground truth")
    validate.add_argument("graph", type=Path)
    validate.add_argument("--scheme", choices=available_schemes(),
                          default="dual-i")
    validate.add_argument("--sample", type=int, default=None,
                          help="number of random pairs (default: "
                               "exhaustive up to 300 nodes)")
    validate.add_argument("--seed", type=int, default=0)

    # `bench ...` forwards everything after it to the experiment runner.
    bench = sub.add_parser("bench", help="run paper experiments",
                           add_help=False)
    bench.add_argument("rest", nargs=argparse.REMAINDER)

    args = parser.parse_args(argv)
    if args.command == "bench":
        return bench_main(args.rest)
    if args.command == "generate" and args.kind == "dataset" \
            and not args.dataset:
        parser.error("generate dataset requires --dataset NAME")
    if args.command in ("query", "serve") and args.graph is None \
            and args.index is None:
        parser.error(f"{args.command} needs a graph file or --index FILE")
    if args.command == "serve" and args.graph is not None \
            and args.index is not None:
        parser.error("serve takes a graph file or --index, not both")
    handlers = {
        "schemes": _cmd_schemes,
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "build": _cmd_build,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "top": _cmd_top,
        "slo": _cmd_slo,
        "doctor": _cmd_doctor,
        "smoke": _cmd_smoke,
        "chaos": _cmd_chaos,
        "validate": _cmd_validate,
        "selftest": _cmd_selftest,
        "golden": _cmd_golden,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        # User-facing failures (missing/malformed files, unknown nodes)
        # become one-line errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
