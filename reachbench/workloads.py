"""The three workloads, their passes and the metrics they report.

A *pass* launches one server and drives every phase of a workload
against it.  An untraced run (``--trace 0``) makes one pass and
reports the end-to-end metrics.  A traced run (``--trace 1``) makes an
untraced pass, a pass through ``launcher.py`` (spans on) and a pass
against the runtime floor, and reports the per-layer metrics.
README.md in this directory says why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness as H
from inputs import mixed_pairs, single_rooted_dag

HERE = Path(__file__).resolve().parent

# -- workload constants (README.md records why) -----------------------------
FANOUT = 5
POINT_GRAPH = (600, 900)          # the Figure-11 quick graph
BULK_GRAPH = (100_000, 102_000)   # labels and TLC far exceed L2
TENANT_GRAPH = (10_000, 11_000)   # churn-durable's installed index
POINT_POOL = 4096                 # distinct point pairs, cycled
FRAME_PAIRS = 4096                # = the server's default max pairs
BULK_FRAMES = 16                  # distinct frames, cycled
BULK_SOURCES = 4096
BUSY_CONNS, BUSY_DEPTH = 2, 64    # 64 = the default per-conn cap
BULK_DEPTH = 8
TENANT_BATCH = 64
SETUP_LAUNCHES = 3
ROUNDS = {"point-json": 8, "bulk-binary": 8}
POINT_CYCLES = 64                 # install cycles (load/build alternate)
POINT_INSTALLS = 8                # distinct 600-node graphs installed
BULK_CYCLES = 4
CHURN_CYCLE_S = 0.7               # rough length of one churn cycle
LONE_WARMUP = 0.1
MAIN_WARMUP = 0.25
GAP = 0.25                        # quiet seconds between phases

END_TO_END = (
    ("setup_s", "s"), ("p50_ms", "ms"), ("rps", "1/s"),
    ("pairs_per_s", "1/s"), ("cpu_ns_per_pair", "ns"),
    ("swap_load_ms", "ms"), ("swap_build_ms", "ms"),
    ("rss_mb", "MB"), ("artifact_mb", "MB"),
)

PER_LAYER = (
    ("server.lone_cpu_us_per_req", "us"),
    ("server.ctxsw_per_req", "count"),
    ("server.ctxsw_per_req.busy", "count"),
    ("server.sys_share", "share"),
    ("server.residual_us_per_req", "us"),
    ("server.reader_stall_ms", "ms"),
    ("protocol.parse_us_per_req", "us"),
    ("protocol.encode_us_per_req", "us"),
    ("binproto.encode_us_per_frame", "us"),
    ("batcher.requests_per_flush", "count"),
    ("batcher.pairs_per_flush", "count"),
    ("batcher.queue_wait_us", "us"),
    ("service.us_per_call", "us"),
    ("service.ns_per_pair", "ns"),
    ("service.init_s", "s"),
    ("fastkernel.ns_per_pair", "ns"),
    ("fastkernel.mode", "compiled"),
    ("graph.read_s", "s"),
    ("pipeline.condense_s", "s"),
    ("pipeline.meg_s", "s"),
    ("pipeline.spanning_s", "s"),
    ("pipeline.tlc_matrix_s", "s"),
    ("pipeline.nontree_labels_s", "s"),
    ("serialize.load_s", "s"),
    ("serialize.save_s", "s"),
    ("durability.journal_ms", "ms"),
    ("durability.ack_ms", "ms"),
    ("durability.recovery_s", "s"),
    *((f"obs.trace_overhead_pct.{name}", "%") for name, _ in END_TO_END),
    ("driver.p99_ms", "ms"),
    ("driver.p99_samples", "count"),
    ("driver.cpu_share", "share"),
    ("host.steal_share", "share"),
    ("host.calib_ns", "ns"),
    ("floor.p50_ms", "ms"),
    ("floor.rps", "1/s"),
    ("floor.cpu_ns_per_req", "ns"),
)

WORKLOADS = ("point-json", "bulk-binary", "churn-durable")

# ``repro-reach build --save`` for each (graph, artifact) argument pair,
# in one interpreter: start-up costs more than a 600-node build.
SAVE_ALL = """\
import sys
from repro.cli import main
for graph, out in zip(sys.argv[1::2], sys.argv[2::2]):
    if main(["build", graph, "--save", out]) != 0:
        sys.exit(1)
"""


@dataclass
class Inputs:
    graph_path: Path
    pairs: list
    truth: list
    artifacts: list         # what ``catalog load`` installs, in turn
    swap_graphs: list       # what ``catalog build`` installs, in turn
    swap_pairs: list        # per installed graph: verified batch pairs
    swap_truth: list
    frames: list = field(default_factory=list)
    describe: dict = field(default_factory=dict)


@dataclass
class Pass:
    """Everything one pass measured."""

    setups: list = field(default_factory=list)
    lone: H.PhaseResult | None = None
    main: H.PhaseResult | None = None     # busy / bulk / churn reader
    setup_window: tuple = (0.0, 0.0)
    cycles: list = field(default_factory=list)     # (start, end)
    loads: list = field(default_factory=list)
    builds: list = field(default_factory=list)
    acks: list = field(default_factory=list)
    installs: list = field(default_factory=list)   # load/build windows
    batch_pairs: int = 0
    rss_mb: float = 0.0
    flush: dict = field(default_factory=dict)
    recovery_s: float = 0.0
    spans: dict | None = None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: float, corrupt: bool) -> None:
        if workload not in WORKLOADS:
            raise H.BenchError(f"unknown workload {workload!r}")
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.corrupt = corrupt
        self.work = (root / ".reachbench-work"
                     / f"{workload}-{seed}-{os.getpid()}")
        self.env = H.python_env(self.src)
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            self.driver_cpu, self.server_cpu = cpus[0], cpus[-1]
            os.sched_setaffinity(0, {self.driver_cpu})
        else:
            self.driver_cpu = self.server_cpu = None
        self.tally = H.Tally()
        from repro.server.client import ReachClient
        self.client_cls = ReachClient

    # -- inputs -------------------------------------------------------------
    def make_inputs(self) -> Inputs:
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.workload}/{self.seed}")
        if self.workload == "bulk-binary":
            graph = single_rooted_dag(*BULK_GRAPH, FANOUT, rng)
            qs = mixed_pairs(graph, BULK_FRAMES * FRAME_PAIRS, rng,
                             sources=BULK_SOURCES)
            installed = [graph]
        elif self.workload == "churn-durable":
            graph = single_rooted_dag(*POINT_GRAPH, FANOUT, rng)
            qs = mixed_pairs(graph, POINT_POOL, rng, sources=graph.n)
            installed = [single_rooted_dag(*TENANT_GRAPH, FANOUT, rng)]
        else:
            # Several install graphs, so that a run's swap medians and
            # artifact size average over graph shapes: at 600 nodes
            # one graph's shape moves its load time by ~10%.
            graph = single_rooted_dag(*POINT_GRAPH, FANOUT, rng)
            qs = mixed_pairs(graph, POINT_POOL, rng, sources=graph.n)
            installed = [single_rooted_dag(*POINT_GRAPH, FANOUT, rng)
                         for _ in range(POINT_INSTALLS)]
        path = self.work / "served.txt"
        graph.write_edge_list(path)
        truth = qs.truth
        if self.corrupt:
            # Smoke check: one wrong expectation must fail the run.
            truth = list(truth)
            truth[1] = not truth[1]
        inputs = Inputs(graph_path=path, pairs=qs.pairs, truth=truth,
                        artifacts=[], swap_graphs=[], swap_pairs=[],
                        swap_truth=[])
        for k, g in enumerate(installed):
            g_path = path
            if g is not graph:
                g_path = self.work / f"installed-{k}.txt"
                g.write_edge_list(g_path)
            swap_qs = mixed_pairs(g, 8 * TENANT_BATCH, rng, sources=256)
            inputs.artifacts.append(self.work / f"installed-{k}.idx")
            inputs.swap_graphs.append(g_path)
            inputs.swap_pairs.append(swap_qs.pairs)
            inputs.swap_truth.append(swap_qs.truth)
        self.save_artifacts(inputs.swap_graphs, inputs.artifacts)
        if self.workload == "bulk-binary":
            inputs.frames = H.bulk_frames(qs.pairs, truth, FRAME_PAIRS)
        inputs.describe = {
            "served": {"n": graph.n, "m": graph.m, "t": graph.t},
            "installed": {"count": len(installed), "n": installed[0].n,
                          "m": installed[0].m, "t": installed[0].t},
            "positive_share": round(qs.positive_share, 4),
        }
        return inputs

    def save_artifacts(self, graphs: list, outs: list) -> None:
        """The saved indexes ``catalog load`` installs, made by the
        program's own ``build --save``."""
        argv = [sys.executable, "-c", SAVE_ALL]
        for graph, out in zip(graphs, outs):
            argv += [str(graph), str(out)]
        proc = subprocess.run(argv, env=self.env, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode != 0 or not all(out.is_file() for out in outs):
            raise H.BenchError(f"build --save failed: {proc.stderr[-500:]}")

    # -- servers ------------------------------------------------------------
    def launch(self, inputs: Inputs, *, spans_out: Path | None = None,
               floor: bool = False) -> H.Server:
        if floor:
            argv = [sys.executable, str(HERE / "floor_server.py")]
        else:
            argv = [sys.executable]
            argv += ([str(HERE / "launcher.py"), str(spans_out)]
                     if spans_out else ["-m", "repro.cli"])
            argv += ["serve", str(inputs.graph_path), "--port", "0"]
            if self.workload == "churn-durable":
                state = self.work / f"state-{time.monotonic_ns()}"
                argv += ["--state-dir", str(state)]
        t0 = time.perf_counter()
        srv = H.Server(argv, env=self.env, log=self.work / "server.log",
                       cpu=self.server_cpu)
        if not floor:
            try:
                H.first_reply(srv.port, *inputs.pairs[0], inputs.truth[0])
            except BaseException:
                srv.stop()
                raise
        srv.setup_window = (t0, time.perf_counter())
        return srv

    # -- one pass -----------------------------------------------------------
    def run_pass(self, inputs: Inputs, *, launches: int,
                 spans_out: Path | None = None, floor: bool = False,
                 tally: H.Tally | None = None) -> Pass:
        tally = tally or self.tally
        out = Pass()
        srv = None
        try:
            for k in range(launches):
                srv = self.launch(inputs, spans_out=spans_out, floor=floor)
                out.setup_window = srv.setup_window
                out.setups.append(srv.setup_window[1] - srv.setup_window[0])
                if k < launches - 1:
                    srv.stop()
                    srv = None
            time.sleep(GAP)
            if self.workload == "churn-durable":
                self.churn_pass(srv, inputs, out, tally, floor)
            else:
                self.rounds_pass(srv, inputs, out, tally, floor)
            out.rss_mb = H.proc_hwm_mb(srv.pid)
        finally:
            if srv is not None:
                srv.stop()
        if spans_out is not None:
            out.spans = json.loads(spans_out.read_text())
        return out

    def rounds_pass(self, srv, inputs: Inputs, out: Pass, tally: H.Tally,
                    floor: bool) -> None:
        """point-json and bulk-binary: ``ROUNDS`` rounds of lone phase,
        main phase and install cycles, so every metric samples the
        whole pass rather than one stretch of host weather."""
        point = self.workload == "point-json"
        rounds = ROUNDS[self.workload]
        lone_s = (0.4 if point else 0.2) * self.seconds / rounds
        main_s = (0.4 if point else 0.6) * self.seconds / rounds
        cycles = POINT_CYCLES if point else BULK_CYCLES
        lane = "batcher" if point else "binary_lane"
        kw = dict(pid=srv.pid, tally=tally, check=not floor)
        lones, mains = [], []
        client = None if floor else self.client_cls(port=srv.port,
                                                    timeout=170)
        try:
            for r in range(rounds):
                lones.append(H.drive_lone(
                    self.client_cls, srv.port, inputs.pairs, inputs.truth,
                    warmup=LONE_WARMUP, seconds=lone_s,
                    first=r * len(inputs.pairs) // rounds, **kw))
                time.sleep(GAP)
                before = client.stats()[lane] if client else None
                if point:
                    mains.append(H.drive_json_busy(
                        srv.port, inputs.pairs, inputs.truth,
                        conns=BUSY_CONNS, depth=BUSY_DEPTH,
                        warmup=MAIN_WARMUP, seconds=main_s,
                        first=r * len(inputs.pairs) // rounds, **kw))
                else:
                    mains.append(H.drive_binary_bulk(
                        srv.port, inputs.frames, depth=BULK_DEPTH,
                        warmup=MAIN_WARMUP, seconds=main_s,
                        first=r * len(inputs.frames) // rounds, **kw))
                time.sleep(GAP)
                if client:
                    _add_flushes(out.flush, before, client.stats()[lane])
                    for i in range(cycles):
                        if i * rounds // cycles == r:
                            self.install_cycle(client, inputs, out, i,
                                               tally)
                    time.sleep(GAP)
        finally:
            if client:
                client.close()
        out.lone = H.combine(lones)
        out.main = H.combine(mains)

    def churn_pass(self, srv, inputs: Inputs, out: Pass, tally: H.Tally,
                   floor: bool) -> None:
        """churn-durable: an idle lone reader, then the same reader
        while a writer cycles tenant installs."""
        out.lone = H.drive_lone(
            self.client_cls, srv.port, inputs.pairs, inputs.truth,
            warmup=LONE_WARMUP, seconds=0.15 * self.seconds, pid=srv.pid,
            tally=tally, check=not floor)
        if floor:
            return
        time.sleep(GAP)
        with self.client_cls(port=srv.port) as client:
            before = client.stats()["batcher"]
            self.churn(srv, inputs, out, tally)
            _add_flushes(out.flush, before, client.stats()["batcher"])
            durable = client.ready().get("durable") or {}
        out.recovery_s = float(durable.get("recovery_seconds", 0.0))

    def install_cycle(self, client, inputs: Inputs, out: Pass, i: int,
                      tally: H.Tally) -> None:
        """create → load or build (alternating) → verified batch → drop.

        Each installed graph is loaded, then built, before the next
        one's turn.  A failed step is tallied by its error code; the
        cycle still drops the entry so the next one starts clean.
        """
        name = "swap"
        k = i // 2 % len(inputs.artifacts)
        t0 = time.perf_counter()
        ack = _timed_op(tally, client.catalog, "create", name=name)
        if ack is None:
            return
        out.acks.append(ack)
        t1 = time.perf_counter()
        if i % 2 == 0:
            took = _timed_op(tally, client.catalog, "load", name=name,
                             index=str(inputs.artifacts[k]))
            if took is not None:
                out.loads.append(took)
        else:
            took = _timed_op(tally, client.catalog, "build", name=name,
                             graph=str(inputs.swap_graphs[k]))
            if took is not None:
                out.builds.append(took)
        out.installs.append((t1, time.perf_counter()))
        if took is not None:
            lo = (i % 8) * TENANT_BATCH
            pairs = inputs.swap_pairs[k][lo:lo + TENANT_BATCH]
            expected = inputs.swap_truth[k][lo:lo + TENANT_BATCH]
            answers = []
            if _timed_op(tally, lambda: answers.extend(
                    client.query_batch(pairs, index=name))) is not None:
                if answers != expected:
                    tally.fail("wrong", f"tenant batch {i} differs")
                else:
                    out.batch_pairs += len(pairs)
        ack = _timed_op(tally, client.catalog, "drop", name=name)
        if ack is not None:
            out.acks.append(ack)
        out.cycles.append((t0, time.perf_counter()))

    def churn(self, srv, inputs: Inputs, out: Pass,
              tally: H.Tally) -> None:
        """A lone reader on the default index while a writer runs a
        fixed number of install cycles (as many loads as builds), so
        each run does the same install work."""
        cycles = 2 * max(1, round(0.85 * self.seconds / CHURN_CYCLE_S / 2))
        done = threading.Event()
        errors: list = []
        writer_tally = H.Tally()

        def writer() -> None:
            try:
                with self.client_cls(port=srv.port, timeout=170) as client:
                    for i in range(cycles):
                        self.install_cycle(client, inputs, out, i,
                                           writer_tally)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer, name="churn-writer")
        thread.start()
        try:
            out.main = H.drive_lone(
                self.client_cls, srv.port, inputs.pairs, inputs.truth,
                warmup=0.0, seconds=0.0, pid=srv.pid, tally=tally,
                stop=done.is_set)
        finally:
            done.wait(180)
            thread.join(180)
        tally.merge(writer_tally)
        if errors:
            raise H.BenchError(f"churn writer failed: {errors[0]!r}")

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, p: Pass, inputs: Inputs) -> dict:
        lone_lat = [lat for _, lat in
                    (p.main if self.workload == "churn-durable"
                     else p.lone).latencies]
        main = p.main
        if self.workload == "churn-durable":
            pairs = main.pairs + p.batch_pairs
            rps = main.completed / main.window.wall
            pairs_per_s = pairs / main.window.wall
        else:
            pairs = main.pairs
            per_request = main.pairs / main.completed
            rps = statistics.median(n / t for t, n, _ in main.slices)
            pairs_per_s = rps * per_request
        return {
            "setup_s": statistics.median(p.setups),
            "p50_ms": statistics.median(lone_lat) * 1e3,
            "rps": rps,
            "pairs_per_s": pairs_per_s,
            "cpu_ns_per_pair": main.window.cpu / pairs * 1e9,
            "swap_load_ms": statistics.median(p.loads) * 1e3,
            "swap_build_ms": statistics.median(p.builds) * 1e3,
            "rss_mb": p.rss_mb,
            "artifact_mb": statistics.fmean(
                a.stat().st_size for a in inputs.artifacts) / 1e6,
        }

    def per_layer(self, plain: Pass, traced: Pass, floor: Pass,
                  e2e_plain: dict, e2e_traced: dict, calib: float) -> dict:
        spans = traced.spans
        lone_win, main_win = plain.lone.window, plain.main.window
        # Span windows: where each layer's figure is read.
        lone_phase = traced.lone.phases
        main_phase = traced.main.phases
        json_phase = (lone_phase if self.workload == "bulk-binary"
                      else main_phase)
        wait_phase = (lone_phase if self.workload == "point-json"
                      else main_phase)
        setup = [traced.setup_window]
        installs = traced.cycles

        def span(name, windows):
            return _span_sum(spans, name, windows)

        def self_per(name, windows, scale, by="count"):
            agg = span(name, windows)
            denom = agg[by]
            return agg["self"] / denom / scale if denom else 0.0

        def total_per(name, windows, scale):
            agg = span(name, windows)
            return agg["total"] / agg["count"] / scale if agg["count"] \
                else 0.0

        m = {}
        m["server.lone_cpu_us_per_req"] = \
            lone_win.cpu / plain.lone.completed * 1e6
        m["server.ctxsw_per_req"] = lone_win.ctxsw / plain.lone.completed
        m["server.ctxsw_per_req.busy"] = \
            main_win.ctxsw / max(1, plain.main.completed)
        m["server.sys_share"] = main_win.sys / main_win.cpu \
            if main_win.cpu else 0.0
        m["protocol.parse_us_per_req"] = self_per(
            "protocol.parse", json_phase, 1e3)
        m["protocol.encode_us_per_req"] = self_per(
            "protocol.encode", json_phase, 1e3)
        m["binproto.encode_us_per_frame"] = self_per(
            "binproto.encode", main_phase, 1e3)
        flushes = plain.flush.get("flushes", 0)
        m["batcher.requests_per_flush"] = \
            plain.flush["flushed_requests"] / flushes if flushes else 0.0
        m["batcher.pairs_per_flush"] = \
            plain.flush["flushed_pairs"] / flushes if flushes else 0.0
        m["batcher.queue_wait_us"] = total_per(
            "batcher.queue_wait", wait_phase, 1e3)
        m["service.us_per_call"] = self_per("service.call", main_phase, 1e3)
        m["service.ns_per_pair"] = self_per("service.call", main_phase, 1,
                                            by="items")
        m["service.init_s"] = span("service.init", setup)["total"] / 1e9
        m["fastkernel.ns_per_pair"] = self_per(
            "fastkernel.run_frames", main_phase, 1, by="items")
        m["fastkernel.mode"] = float(
            spans["labels"].get("fastkernel.mode") == "compiled")
        m["graph.read_s"] = span("graph.read", setup)["total"] / 1e9
        build_window = (installs if self.workload == "churn-durable"
                        else setup)
        for phase in ("condense", "meg", "spanning", "tlc_matrix",
                      "nontree_labels"):
            m[f"pipeline.{phase}_s"] = total_per(
                f"pipeline.{phase}", build_window, 1e9)
        m["serialize.load_s"] = total_per("serialize.load", installs, 1e9)
        m["serialize.save_s"] = total_per("serialize.save", installs, 1e9)
        m["durability.journal_ms"] = total_per(
            "durability.journal", installs, 1e6)
        m["durability.ack_ms"] = statistics.median(plain.acks) * 1e3
        m["durability.recovery_s"] = plain.recovery_s
        # Residual: the client's mean latency on the main phase minus
        # the traced spans on a request's blocking path there.
        main_lat = [lat for _, lat in traced.main.latencies]
        path_us = (self_per("protocol.parse", main_phase, 1e3)
                   + total_per("batcher.queue_wait", main_phase, 1e3)
                   + total_per("service.call", main_phase, 1e3)
                   + self_per("protocol.encode", main_phase, 1e3)
                   + self_per("binproto.encode", main_phase, 1e3))
        m["server.residual_us_per_req"] = \
            statistics.fmean(main_lat) * 1e6 - path_us
        m["server.reader_stall_ms"] = 0.0
        if self.workload == "churn-durable":
            inside, outside = _split_by_windows(plain.main.latencies,
                                                plain.installs)
            if inside and outside:
                m["server.reader_stall_ms"] = (
                    statistics.median(inside)
                    - statistics.median(outside)) * 1e3
        for name, _ in END_TO_END:
            base = e2e_plain[name]
            m[f"obs.trace_overhead_pct.{name}"] = \
                (e2e_traced[name] - base) / base * 100.0 if base else 0.0
        lat = [x for _, x in (plain.main if self.workload == "churn-durable"
                              else plain.lone).latencies]
        m["driver.p99_ms"] = H.percentile(lat, 99) * 1e3
        m["driver.p99_samples"] = float(len(lat))
        m["driver.cpu_share"] = main_win.driver_cpu / main_win.wall
        m["host.steal_share"] = statistics.fmean(
            [lone_win.steal_share, main_win.steal_share])
        m["host.calib_ns"] = calib
        floor_lat = [x for _, x in floor.lone.latencies]
        m["floor.p50_ms"] = statistics.median(floor_lat) * 1e3
        fmain = floor.main or floor.lone
        m["floor.rps"] = (
            statistics.median(n / t for t, n, _ in fmain.slices)
            if fmain.slices else fmain.completed / fmain.window.wall)
        m["floor.cpu_ns_per_req"] = \
            fmain.window.cpu / fmain.completed * 1e9
        return m

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def _add_flushes(total: dict, before: dict, after: dict) -> None:
    for key in ("flushes", "flushed_requests", "flushed_pairs"):
        total[key] = total.get(key, 0) + after[key] - before[key]


def _timed_op(tally: H.Tally, fn, *args, **kwargs) -> float | None:
    """Seconds ``fn`` took, or ``None`` after tallying its failure."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        fn(*args, **kwargs)
    except OSError as exc:
        tally.fail("transport", str(exc))
        return None
    except Exception as exc:  # ServerReplyError carries .code
        tally.fail(getattr(exc, "code", type(exc).__name__), str(exc))
        return None
    return time.perf_counter() - t0


def _span_sum(spans: dict, name: str, windows: list) -> dict:
    """Sums of the ``name`` span buckets that start inside ``windows``
    (the bucket holding a window's start counts; the phases are spaced
    further apart than one bucket)."""
    bucket_s = spans["bucket_ns"] / 1e9
    out = {"count": 0, "total": 0, "self": 0, "items": 0}
    for sname, bucket, count, total, self_ns, items in spans["buckets"]:
        start = bucket * bucket_s
        if sname == name and any(lo - bucket_s < start < hi
                                 for lo, hi in windows):
            out["count"] += count
            out["total"] += total
            out["self"] += self_ns
            out["items"] += items
    return out


def _split_by_windows(samples: list, windows: list) -> tuple:
    inside, outside = [], []
    for start, lat in samples:
        hit = any(lo <= start < hi for lo, hi in windows)
        (inside if hit else outside).append(lat)
    return inside, outside
