"""The end-to-end chaos soak: serving stack vs. fault schedule.

:func:`run_chaos_soak` stands up the whole serving pipeline for real —
a built index behind a :class:`~repro.core.service.QueryService`
(wrapped in a :class:`~repro.testing.faults.FlakyService`), a
:class:`~repro.server.server.ReachServer` on its own thread, a
:class:`~repro.testing.faults.ChaosProxy` in front of it, and the load
generator driving differential-verified traffic *through* the proxy —
then replays a seeded :class:`~repro.testing.faults.FaultPlan` against
it: connection severs, latency spikes, garbled bytes, blackholes,
injected kernel exceptions, reloads of missing and corrupted index
files, and SIGKILLs of a saver subprocess mid-write.

With ``workers=N`` the soak targets a multi-process
:class:`~repro.server.router.WorkerFleet` instead of the in-process
server: the same network faults apply at the proxy, reloads exercise
the fleet-wide generation swap, and two process-level fault kinds join
the schedule — ``worker_kill`` (SIGKILL a live worker; the supervisor
respawns it onto the current shared-memory generation) and
``worker_hang`` (SIGSTOP a worker; its kernel listen queue keeps
accepting and blackholing connections until the fleet's liveness probe
declares it dead and replaces it).  ``flush_error`` is unavailable in
fleet mode — the injection wrapper cannot reach into worker processes.

Two invariants gate the run (:meth:`ChaosReport.ok`):

1. **Zero wrong answers.**  Every reply that arrives is checked
   against the direct in-process answers; faults may fail requests,
   never falsify them.
2. **Bounded recovery.**  After each fault a probe client (with the
   resilient retry policy) must observe a fully correct batch within
   ``recovery_timeout`` seconds.

The same seed replays the same fault schedule, so a soak failure in CI
reproduces locally with one number.

:func:`run_crash_restart_soak` is the power-loss prover for the
durable state directory (``serve --state-dir``): it runs the server as
a real subprocess, SIGKILLs the whole process group at randomized
points — mid-mutation, mid-checkpoint, mid-manifest-swap — restarts
onto the same state dir, and asserts that every catalog mutation is
atomic (the recovered catalog converges to exactly the pre- or
post-mutation state, and an *acknowledged* mutation is always
post-state), that a differential query stream riding through the
restarts sees zero wrong answers, and that every recovery lands inside
a hard time bound (client-observed restart-to-ready recorded into a
``reach_recovery_seconds`` histogram; the server's own boot recovery
is exported by :mod:`repro.obs` under the same name).  A final hygiene
pass replays the state dir offline: checkpoint compaction must have
bounded journal growth and generation GC must have left no orphan
artifacts.

:func:`run_tenant_isolation_soak` is the multi-tenant variant: a
worker fleet serves two named catalog entries, tenant A is driven far
past its admission quota (so the per-tenant shed path fires
continuously) while workers are SIGKILLed underneath, and tenant B's
differentially-verified traffic must stay *both* correct (zero wrong
answers) and fast (p99 within a bounded multiple of its quiet
baseline).  That is the isolation contract: one tenant's overload or
infrastructure trouble may slow or fail that tenant, never its
neighbours.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.base import build_index
from repro.core.serialize import load_dual_index, save_dual_index
from repro.core.service import QueryService
from repro.exceptions import ReproError
from repro.graph.generators import gnm_random_digraph
from repro.obs.metrics import RECOVERY_BUCKETS, MetricsRegistry
from repro.server.client import ReachClient, RetryPolicy, ServerReplyError
from repro.server.loadgen import run_loadgen, run_loadgen_mix
from repro.server.router import WorkerFleet
from repro.server.server import ReachServer, ServerConfig, ServerThread
from repro.server.tenancy import EntryRow
from repro.testing.faults import (
    ChaosProxy,
    FaultPlan,
    FlakyService,
    run_kill_during_save,
)

__all__ = [
    "ChaosReport",
    "CrashRestartReport",
    "DEFAULT_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "IsolationReport",
    "run_chaos_soak",
    "run_crash_restart_soak",
    "run_tenant_isolation_soak",
]

#: The fault vocabulary the soak understands.  ``sever``/``delay``/
#: ``garble``/``blackhole`` are network faults applied at the proxy;
#: ``flush_error`` raises inside the MicroBatcher's kernel call;
#: ``reload_missing``/``reload_corrupt`` drive the degraded-mode path;
#: ``kill_save`` SIGKILLs a saver subprocess and hot-swaps onto the
#: surviving file.
DEFAULT_FAULT_KINDS = (
    "sever",
    "delay",
    "garble",
    "blackhole",
    "flush_error",
    "reload_missing",
    "reload_corrupt",
    "kill_save",
)

#: The vocabulary in fleet mode (``workers >= 1``): ``flush_error``
#: needs the in-process injection wrapper and is replaced by the two
#: process-level faults ``worker_kill`` / ``worker_hang``.
FLEET_FAULT_KINDS = (
    "sever",
    "delay",
    "garble",
    "blackhole",
    "reload_missing",
    "reload_corrupt",
    "kill_save",
    "worker_kill",
    "worker_hang",
)


@dataclass
class ChaosReport:
    """Everything one soak observed, plus the pass/fail verdict."""

    seed: int
    scheme: str
    duration_seconds: float
    recovery_timeout: float
    #: ``[{"kind", "at", "recovery_seconds"}, ...]`` in firing order;
    #: ``recovery_seconds`` is ``None`` when recovery timed out.
    faults: list[dict] = field(default_factory=list)
    #: per-fault-kind recovery-time distribution, from the
    #: ``reach_chaos_recovery_seconds{kind=...}`` histogram family
    #: (:data:`repro.obs.metrics.RECOVERY_BUCKETS`):
    #: ``{kind: {"count", "mean_seconds", "p95_seconds",
    #: "max_seconds", "buckets"}}``
    recovery: dict = field(default_factory=dict)
    #: replies (loadgen or probe) contradicting the direct answers
    wrong_answers: int = 0
    mismatch_samples: list = field(default_factory=list)
    #: ``LoadgenResult.as_dict()`` of the traffic that ran underneath
    loadgen: dict = field(default_factory=dict)
    #: proxy counters proving the network faults actually happened
    proxy: dict = field(default_factory=dict)
    #: kernel exceptions FlakyService actually raised
    injected_kernel_faults: int = 0
    #: the server reported ``status: degraded`` at least once
    degraded_observed: bool = False
    #: driver-level failures (fault could not even be applied)
    driver_errors: list = field(default_factory=list)
    #: worker processes (0 = the in-process single server was soaked)
    workers: int = 0
    #: wire protocol the verified load spoke (``json`` or ``binary``)
    protocol: str = "json"
    #: :meth:`WorkerFleet.describe` snapshot (fleet mode only)
    fleet: dict = field(default_factory=dict)

    @property
    def unrecovered(self) -> list[str]:
        """Kinds whose post-fault probe never saw a correct batch."""
        return [f["kind"] for f in self.faults
                if f["recovery_seconds"] is None]

    def ok(self) -> bool:
        """The soak verdict: correct answers, full recovery, and the
        traffic actually flowed."""
        return (self.wrong_answers == 0
                and not self.unrecovered
                and not self.driver_errors
                and self.loadgen.get("ok", 0) > 0)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok(),
            "seed": self.seed,
            "scheme": self.scheme,
            "duration_seconds": self.duration_seconds,
            "recovery_timeout": self.recovery_timeout,
            "faults": list(self.faults),
            "recovery": dict(self.recovery),
            "unrecovered": self.unrecovered,
            "wrong_answers": self.wrong_answers,
            "mismatch_samples": list(self.mismatch_samples),
            "injected_kernel_faults": self.injected_kernel_faults,
            "degraded_observed": self.degraded_observed,
            "driver_errors": list(self.driver_errors),
            "loadgen": dict(self.loadgen),
            "proxy": dict(self.proxy),
            "workers": self.workers,
            "protocol": self.protocol,
            "fleet": dict(self.fleet),
        }

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the CLI."""
        target = (f"fleet of {self.workers} workers" if self.workers
                  else "in-process server")
        lines = [
            f"chaos soak seed={self.seed} scheme={self.scheme} "
            f"protocol={self.protocol} "
            f"duration={self.duration_seconds:.1f}s "
            f"({target}): "
            f"{'PASS' if self.ok() else 'FAIL'}",
            f"  faults injected: {len(self.faults)} "
            f"({', '.join(f['kind'] for f in self.faults) or 'none'})",
        ]
        for fault in self.faults:
            rec = fault["recovery_seconds"]
            lines.append(
                f"    {fault['kind']:<14} at t={fault['at']:.2f}s  "
                + (f"recovered in {rec:.2f}s" if rec is not None
                   else "NOT RECOVERED"))
        recovered = [block for block in self.recovery.values()
                     if block["count"]]
        if recovered:
            total = sum(block["count"] for block in recovered)
            worst = max(block["max_seconds"] for block in recovered)
            lines.append(
                f"  recovery: {total} measured, worst {worst:.2f}s "
                f"(per-kind histograms in the report dict)")
        lines.append(
            f"  wrong answers: {self.wrong_answers}"
            + (f"  samples: {self.mismatch_samples[:3]}"
               if self.mismatch_samples else ""))
        lines.append(
            f"  kernel faults raised: {self.injected_kernel_faults}  "
            f"degraded observed: {self.degraded_observed}")
        if self.driver_errors:
            lines.append(f"  driver errors: {self.driver_errors}")
        lg = self.loadgen
        lines.append(
            f"  loadgen: {lg.get('ok', 0)} ok / "
            f"{lg.get('errors', 0)} errors / "
            f"{lg.get('reconnects', 0)} reconnects "
            f"(codes: {lg.get('error_codes', {})})")
        px = self.proxy
        lines.append(
            f"  proxy: {px.get('severed', 0)} severed, "
            f"{px.get('garbled_chunks', 0)} garbled, "
            f"{px.get('delayed_chunks', 0)} delayed chunks")
        if self.fleet:
            lines.append(
                f"  fleet: {self.fleet.get('workers', 0)} workers, "
                f"{self.fleet.get('restarts', 0)} restarts, "
                f"{self.fleet.get('swaps', 0)} swaps, "
                f"generation {self.fleet.get('generation', 0)}")
        return lines


def _corrupt_copy(good: Path, target: Path) -> None:
    """Write a bit-flipped copy of ``good`` (fails the checksum)."""
    blob = bytearray(good.read_bytes())
    middle = len(blob) // 2
    blob[middle] ^= 0x55
    target.write_bytes(bytes(blob))


class _Prober:
    """Recovery measurement: a resilient client through the proxy that
    reports when a fully correct probe batch comes back."""

    def __init__(self, host: str, port: int, probe_pairs: list,
                 expected: list, report: ChaosReport) -> None:
        self._pairs = [list(pair) for pair in probe_pairs]
        self._expected = [bool(x) for x in expected]
        self._report = report
        self._client = ReachClient(
            host, port,
            retry=RetryPolicy(max_attempts=2, attempt_timeout=1.0,
                              base_delay=0.02, max_delay=0.2,
                              breaker_threshold=0, seed=0))

    def await_recovery(self, timeout: float) -> "float | None":
        """Seconds until a correct probe batch, or ``None`` on
        timeout.  A batch that *arrives* but is wrong is counted as a
        wrong answer — faults must fail loudly, never falsify."""
        started = time.monotonic()
        while time.monotonic() - started < timeout:
            try:
                answers = self._client.query_batch(self._pairs)
            except (ReproError, ConnectionError, OSError):
                time.sleep(0.02)
                continue
            if answers == self._expected:
                return time.monotonic() - started
            self._report.wrong_answers += 1
            if len(self._report.mismatch_samples) < 10:
                self._report.mismatch_samples.append(
                    ("probe", answers, self._expected))
            time.sleep(0.02)
        return None

    def close(self) -> None:
        self._client.close()


def run_chaos_soak(*, seed: int = 0, duration: float = 6.0,
                   nodes: int = 120, scheme: str = "dual-ii",
                   recovery_timeout: float = 5.0,
                   connections: int = 4, pipeline: int = 4,
                   kinds: Sequence[str] = DEFAULT_FAULT_KINDS,
                   faults_per_kind: int = 1,
                   workdir: "Path | str | None" = None,
                   pool_size: int = 192,
                   workers: int = 0,
                   protocol: str = "json") -> ChaosReport:
    """Run the serving stack under a seeded fault schedule.

    Parameters
    ----------
    seed:
        Drives the graph, the pair pool, *and* the fault schedule —
        one number replays the whole run.
    duration:
        Seconds of sustained load; faults are scheduled inside the
        first ~70% so each has room to recover before the bell.
    nodes:
        Graph size (edges are ``2 * nodes``); also the size of the
        index the kill-during-save subprocess rebuilds, so a
        ``kill_save`` swap is answer-preserving.
    scheme:
        Index scheme served (``dual-i`` or ``dual-ii``).
    recovery_timeout:
        Per-fault bound on the probe seeing a correct batch again.
    kinds / faults_per_kind:
        The fault vocabulary (each kind fires ``faults_per_kind``
        times, deterministically scheduled).
    workdir:
        Where the good/corrupt/killed index files live (a temporary
        directory in tests); defaults to the current directory.
    workers:
        ``0`` (default) soaks the in-process
        :class:`~repro.server.server.ReachServer`; ``>= 1`` soaks a
        :class:`~repro.server.router.WorkerFleet` of that many worker
        processes and, when ``kinds`` is the default vocabulary,
        switches it to :data:`FLEET_FAULT_KINDS`.
    protocol:
        Wire protocol the verified load generator speaks (``json`` or
        ``binary``).  Binary mode puts the frame-resync contract under
        the fault schedule: a ``garble``/truncation fault must surface
        as a transport error and a reconnect, never as a wrong answer.
        The recovery probe and the management connections stay JSON
        either way.

    Returns the populated :class:`ChaosReport`; callers gate on
    :meth:`ChaosReport.ok`.
    """
    kinds = tuple(kinds)
    if workers:
        if kinds == DEFAULT_FAULT_KINDS:
            kinds = FLEET_FAULT_KINDS
        if "flush_error" in kinds:
            raise ValueError(
                "flush_error needs the in-process injection wrapper "
                "and cannot run in fleet mode (workers >= 1)")
    elif any(k in ("worker_kill", "worker_hang") for k in kinds):
        raise ValueError(
            "worker_kill/worker_hang need a worker fleet — pass "
            "workers >= 1")
    edges = 2 * nodes
    base = Path(workdir) if workdir is not None else Path(".")
    graph = gnm_random_digraph(nodes, edges, seed=seed)
    index = build_index(graph, scheme=scheme)

    rng = random.Random(seed + 1)
    pool = [(rng.randrange(nodes), rng.randrange(nodes))
            for _ in range(pool_size)]
    with QueryService(index) as direct:
        expected = [bool(a) for a in direct.query_batch(pool)]
    probe_pairs = pool[:8]
    probe_expected = expected[:8]

    good_path = base / "chaos-good-index.idx"
    save_dual_index(index, good_path)

    report = ChaosReport(seed=seed, scheme=scheme,
                         duration_seconds=duration,
                         recovery_timeout=recovery_timeout,
                         workers=workers, protocol=protocol)
    registry = MetricsRegistry()
    recovery_hist = registry.histogram(
        "reach_chaos_recovery_seconds",
        "Seconds from fault injection to a correct probe batch",
        labels=("kind",), buckets=RECOVERY_BUCKETS)

    flaky: "FlakyService | None" = None
    thread: "ServerThread | None" = None
    fleet: "WorkerFleet | None" = None
    if workers:
        # Tight liveness probing so a SIGSTOPped worker is declared
        # dead and replaced well inside ``recovery_timeout``.
        fleet = WorkerFleet(
            index, scheme=scheme, workers=workers,
            server_options=dict(max_delay=0.001, policy="shed",
                                request_timeout=5.0,
                                drain_timeout=2.0),
            probe_interval=0.25,
            probe_timeout=min(1.5, recovery_timeout / 2))
        fleet.start()
        backend_port = fleet.port
    else:
        flaky = FlakyService(QueryService(index))
        config = ServerConfig(max_delay=0.001, policy="shed",
                              request_timeout=5.0, drain_timeout=2.0,
                              service_wrapper=flaky.rewrap)
        server = ReachServer(flaky, scheme=scheme, config=config)
        thread = ServerThread(server).start()
        backend_port = thread.port
    proxy = ChaosProxy("127.0.0.1", backend_port).start()
    prober = _Prober("127.0.0.1", proxy.port, probe_pairs,
                     probe_expected, report)

    def mgmt_client() -> ReachClient:
        """Management-plane connection, bypassing the proxy.  Fresh
        per fault: in fleet mode the worker holding a long-lived
        connection may legitimately have been killed by an earlier
        fault, and reload + health must share one connection so the
        degraded status is read from the worker that owns it."""
        return ReachClient("127.0.0.1", backend_port, timeout=30.0)

    plan = FaultPlan.random(
        seed=seed, duration=duration * 0.7,
        kinds=list(kinds), count=faults_per_kind * len(kinds),
        start=min(0.4, duration * 0.1))

    loadgen_box: dict[str, Any] = {}

    def drive() -> None:
        try:
            loadgen_box["result"] = run_loadgen(
                "127.0.0.1", proxy.port, pool,
                connections=connections, duration=duration,
                pipeline=pipeline, batch_size=1, expected=expected,
                protocol=protocol)
        except Exception as exc:  # surfaced via driver_errors
            loadgen_box["error"] = f"{type(exc).__name__}: {exc}"

    traffic = threading.Thread(target=drive, name="chaos-loadgen",
                               daemon=True)

    fault_rng = random.Random(seed + 2)
    hung_pids: list[int] = []

    def reload_bad_then_recover(bad_path: Path) -> None:
        """Drive the degraded-mode round trip on one connection."""
        with mgmt_client() as mgmt:
            try:
                mgmt.reload(index=str(bad_path))
            except ServerReplyError as exc:
                if exc.code != "reload_failed":
                    raise
            if mgmt.health().get("status") == "degraded":
                report.degraded_observed = True
            mgmt.reload(index=str(good_path))  # degraded -> ok

    def pick_worker() -> int:
        pids = fleet.pids()
        if not pids:
            raise RuntimeError("no live worker to fault")
        return fault_rng.choice(pids)

    def apply_fault(kind: str) -> None:
        if kind == "sever":
            proxy.sever_all()
        elif kind == "delay":
            proxy.spike_delay(0.05, 0.4)
        elif kind == "garble":
            proxy.garble_next(2)
        elif kind == "blackhole":
            proxy.blackhole(0.3)
        elif kind == "flush_error":
            flaky.fail_next(3)
        elif kind == "reload_missing":
            reload_bad_then_recover(base / "chaos-missing.idx")
        elif kind == "reload_corrupt":
            corrupt_path = base / "chaos-corrupt-index.idx"
            _corrupt_copy(good_path, corrupt_path)
            reload_bad_then_recover(corrupt_path)
        elif kind == "kill_save":
            kill_path = base / "chaos-killed-index.idx"
            save_dual_index(index, kill_path)  # survives kill #1
            run_kill_during_save(kill_path, nodes=nodes, edges=edges,
                                 seed=seed, kills=1,
                                 delay_range=(0.01, 0.06))
            load_dual_index(kill_path)  # must still be whole
            with mgmt_client() as mgmt:
                mgmt.reload(index=str(kill_path))
        elif kind == "worker_kill":
            os.kill(pick_worker(), signal.SIGKILL)
        elif kind == "worker_hang":
            # The stopped worker's listen queue keeps accepting and
            # blackholing connections; the fleet's liveness probe must
            # declare it dead and respawn a replacement.  SIGKILL works
            # on stopped processes, so no SIGCONT is needed first.
            victim = pick_worker()
            os.kill(victim, signal.SIGSTOP)
            hung_pids.append(victim)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    traffic.start()
    started = time.monotonic()
    try:
        while True:
            # Inject BEFORE the duration check: a slow recovery wait
            # can push `elapsed` past `duration`, and every event is
            # scheduled inside 0.7 x duration — so draining the due
            # events first guarantees the whole plan fires even when
            # the box is too loaded to keep the nominal schedule.
            elapsed = time.monotonic() - started
            for event in plan.pop_due(elapsed):
                try:
                    apply_fault(event.kind)
                except Exception as exc:
                    report.driver_errors.append(
                        f"{event.kind}: {type(exc).__name__}: {exc}")
                    continue
                recovery = prober.await_recovery(recovery_timeout)
                if recovery is not None:
                    recovery_hist.labels(event.kind).observe(recovery)
                report.faults.append({
                    "kind": event.kind,
                    "at": round(event.at, 3),
                    "recovery_seconds": (round(recovery, 3)
                                         if recovery is not None
                                         else None),
                })
            if elapsed >= duration:
                break
            time.sleep(0.02)
        traffic.join(timeout=duration + 30.0)
    finally:
        prober.close()
        for pid in hung_pids:
            # Belt and suspenders: normally the fleet probe has long
            # since killed the stopped worker and this is a no-op.
            try:
                os.kill(pid, signal.SIGCONT)
            except (ProcessLookupError, PermissionError):
                pass
        proxy.stop()
        if fleet is not None:
            report.fleet = fleet.describe()
            fleet.stop()
        if thread is not None:
            thread.stop()

    if "error" in loadgen_box:
        report.driver_errors.append(f"loadgen: {loadgen_box['error']}")
    result = loadgen_box.get("result")
    if result is not None:
        report.loadgen = result.as_dict()
        report.wrong_answers += result.wrong_answers
        report.mismatch_samples.extend(result.mismatch_samples[:10])
    report.proxy = {
        "connections_accepted": proxy.connections_accepted,
        "severed": proxy.severed,
        "garbled_chunks": proxy.garbled_chunks,
        "delayed_chunks": proxy.delayed_chunks,
        "bytes_forwarded": proxy.bytes_forwarded,
    }
    report.injected_kernel_faults = (flaky.injected_failures
                                     if flaky is not None else 0)
    for values, child in recovery_hist.series():
        snap = child.snapshot()
        report.recovery[values[0]] = {
            "count": snap["count"],
            "mean_seconds": (snap["sum"] / snap["count"]
                             if snap["count"] else 0.0),
            "p95_seconds": child.percentile(0.95),
            "max_seconds": snap["max"],
            "buckets": snap["buckets"],
        }
    return report


@dataclass
class IsolationReport:
    """Outcome of one cross-tenant isolation soak."""

    seed: int
    scheme: str
    duration_seconds: float
    workers: int
    #: multiple of the quiet baseline p99 tenant B may reach
    p99_limit: float
    #: absolute p99 floor (ms) that absorbs scheduler noise when the
    #: quiet baseline is sub-millisecond
    p99_floor_ms: float
    #: tenant B alone on a quiet fleet (``LoadgenResult.as_dict()``)
    baseline: dict = field(default_factory=dict)
    #: tenant B while A floods and workers die
    victim: dict = field(default_factory=dict)
    #: tenant A driven far past its admission quota
    aggressor: dict = field(default_factory=dict)
    #: ``[{"kind", "at"}, ...]`` process faults applied mid-soak
    faults: list[dict] = field(default_factory=list)
    driver_errors: list = field(default_factory=list)
    #: :meth:`WorkerFleet.describe` snapshot at the end
    fleet: dict = field(default_factory=dict)

    @property
    def victim_p99_bound_ms(self) -> float:
        """What tenant B's contended p99 must stay under."""
        base = self.baseline.get("latency_p99_ms", 0.0)
        return max(self.p99_limit * base, self.p99_floor_ms)

    @property
    def overload_observed(self) -> bool:
        """Tenant A's traffic actually tripped per-tenant admission."""
        codes = self.aggressor.get("error_codes", {})
        return codes.get("overloaded", 0) > 0

    def ok(self) -> bool:
        """The isolation verdict: B correct and fast, A actually shed,
        and nothing broke at the driver level."""
        return (not self.driver_errors
                and self.baseline.get("ok", 0) > 0
                and self.victim.get("ok", 0) > 0
                and self.victim.get("wrong_answers", 1) == 0
                and self.overload_observed
                and (self.victim.get("latency_p99_ms", float("inf"))
                     <= self.victim_p99_bound_ms))

    def as_dict(self) -> dict:
        return {
            "ok": self.ok(),
            "seed": self.seed,
            "scheme": self.scheme,
            "duration_seconds": self.duration_seconds,
            "workers": self.workers,
            "p99_limit": self.p99_limit,
            "p99_floor_ms": self.p99_floor_ms,
            "victim_p99_bound_ms": self.victim_p99_bound_ms,
            "overload_observed": self.overload_observed,
            "baseline": dict(self.baseline),
            "victim": dict(self.victim),
            "aggressor": dict(self.aggressor),
            "faults": list(self.faults),
            "driver_errors": list(self.driver_errors),
            "fleet": dict(self.fleet),
        }

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the CLI."""
        lines = [
            f"tenant isolation soak seed={self.seed} "
            f"scheme={self.scheme} workers={self.workers} "
            f"duration={self.duration_seconds:.1f}s: "
            f"{'PASS' if self.ok() else 'FAIL'}",
            f"  baseline (B quiet): {self.baseline.get('ok', 0)} ok, "
            f"p99 {self.baseline.get('latency_p99_ms', 0.0):.2f}ms",
            f"  victim   (B loud):  {self.victim.get('ok', 0)} ok, "
            f"p99 {self.victim.get('latency_p99_ms', 0.0):.2f}ms "
            f"(bound {self.victim_p99_bound_ms:.2f}ms), "
            f"wrong answers: {self.victim.get('wrong_answers', 0)}",
            f"  aggressor (A):      {self.aggressor.get('ok', 0)} ok, "
            f"{self.aggressor.get('error_codes', {}).get('overloaded', 0)}"
            f" shed by per-tenant admission",
            f"  faults: "
            f"{', '.join(f['kind'] for f in self.faults) or 'none'}",
        ]
        if self.fleet:
            lines.append(
                f"  fleet: {self.fleet.get('workers', 0)} workers, "
                f"{self.fleet.get('restarts', 0)} restarts")
        if self.driver_errors:
            lines.append(f"  driver errors: {self.driver_errors}")
        return lines


def run_tenant_isolation_soak(*, seed: int = 0, duration: float = 4.0,
                              nodes: int = 150,
                              scheme: str = "dual-ii",
                              workers: int = 2,
                              baseline_duration: float = 1.5,
                              victim_connections: int = 4,
                              aggressor_connections: int = 12,
                              pool_size: int = 192,
                              p99_limit: float = 2.0,
                              p99_floor_ms: float = 25.0,
                              worker_kills: int = 2) -> IsolationReport:
    """Prove one tenant's trouble cannot leak into another's answers.

    A :class:`~repro.server.router.WorkerFleet` serves the default
    index plus two named tenants.  ``tenant-a`` gets a deliberately
    tiny admission quota and is then flooded far past it (every shed
    request is an ``overloaded`` error *for A only*); ``tenant-b``
    runs differentially-verified traffic at a gentle rate.  Midway,
    ``worker_kills`` workers are SIGKILLed so B's correctness also
    survives respawn/re-attach churn.  The verdict
    (:meth:`IsolationReport.ok`) requires: A's overload actually
    tripped per-tenant admission, B answered with **zero** wrong
    answers, and B's contended p99 stayed within ``p99_limit`` × its
    quiet baseline (or ``p99_floor_ms``, whichever is larger — the
    floor absorbs scheduler noise when the quiet baseline is
    sub-millisecond).
    """
    edges = 2 * nodes
    graph_default = gnm_random_digraph(nodes, edges, seed=seed)
    graph_a = gnm_random_digraph(nodes, edges, seed=seed + 10)
    graph_b = gnm_random_digraph(nodes, edges, seed=seed + 20)
    index_default = build_index(graph_default, scheme=scheme)
    index_a = build_index(graph_a, scheme=scheme)
    index_b = build_index(graph_b, scheme=scheme)

    rng = random.Random(seed + 1)
    pool_a = [(rng.randrange(nodes), rng.randrange(nodes))
              for _ in range(pool_size)]
    pool_b = [(rng.randrange(nodes), rng.randrange(nodes))
              for _ in range(pool_size)]
    with QueryService(index_a) as direct:
        expected_a = [bool(x) for x in direct.query_batch(pool_a)]
    with QueryService(index_b) as direct:
        expected_b = [bool(x) for x in direct.query_batch(pool_b)]

    report = IsolationReport(seed=seed, scheme=scheme,
                             duration_seconds=duration,
                             workers=workers, p99_limit=p99_limit,
                             p99_floor_ms=p99_floor_ms)
    fleet = WorkerFleet(
        index_default, scheme=scheme, workers=workers,
        server_options=dict(max_delay=0.001, policy="shed",
                            request_timeout=5.0, drain_timeout=2.0),
        tenants=[
            # A's quota is far below what the aggressor sends, so the
            # per-tenant gate (not the shared batcher) does the
            # shedding.  The rate quota (tokens are per worker) makes
            # the overload deterministic even when the kernel drains
            # pending pairs instantly.
            EntryRow("tenant-a", scheme=scheme, index=index_a,
                     quota={"rate": 150.0, "burst": 50,
                            "max_pending": 256}),
            EntryRow("tenant-b", scheme=scheme, index=index_b),
        ],
        probe_interval=0.25, probe_timeout=1.5)
    fleet.start()
    fault_rng = random.Random(seed + 2)
    try:
        port = fleet.port
        baseline = run_loadgen(
            "127.0.0.1", port, pool_b,
            connections=victim_connections,
            duration=baseline_duration, pipeline=4, batch_size=4,
            expected=expected_b, index="tenant-b")
        report.baseline = baseline.as_dict()

        mix_box: dict[str, Any] = {}

        def drive() -> None:
            try:
                mix_box["results"] = run_loadgen_mix(
                    "127.0.0.1", port, [
                        # Paced several-fold past A's admission rate:
                        # the quota sheds most of it, proving per-
                        # tenant overload, without the open-loop
                        # hot-spin (instant shed reply -> instant
                        # resend) that would measure host CPU
                        # saturation instead of admission isolation.
                        {"pairs": pool_a, "expected": expected_a,
                         "index": "tenant-a",
                         "connections": aggressor_connections,
                         "pipeline": 8, "batch_size": 16,
                         "rate": 1200.0},
                        {"pairs": pool_b, "expected": expected_b,
                         "index": "tenant-b",
                         "connections": victim_connections,
                         "pipeline": 4, "batch_size": 4},
                    ], duration=duration)
            except Exception as exc:
                mix_box["error"] = f"{type(exc).__name__}: {exc}"

        traffic = threading.Thread(target=drive,
                                   name="isolation-loadgen",
                                   daemon=True)
        traffic.start()
        # SIGKILL workers at evenly spaced points inside the first
        # ~70% of the window, leaving room for the respawn to land.
        kill_at = [duration * 0.7 * (i + 1) / (worker_kills + 1)
                   for i in range(worker_kills)]
        started = time.monotonic()
        for at in kill_at:
            delay = at - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
            try:
                pids = fleet.pids()
                if not pids:
                    raise RuntimeError("no live worker to kill")
                os.kill(fault_rng.choice(pids), signal.SIGKILL)
                report.faults.append({"kind": "worker_kill",
                                      "at": round(at, 3)})
            except Exception as exc:
                report.driver_errors.append(
                    f"worker_kill: {type(exc).__name__}: {exc}")
        traffic.join(timeout=duration + 30.0)
        if traffic.is_alive():
            report.driver_errors.append("loadgen mix did not finish")
        if "error" in mix_box:
            report.driver_errors.append(f"loadgen: {mix_box['error']}")
        results = mix_box.get("results")
        if results is not None:
            report.aggressor = results[0].as_dict()
            report.victim = results[1].as_dict()
    finally:
        report.fleet = fleet.describe()
        fleet.stop()
    return report


@dataclass
class CrashRestartReport:
    """Outcome of one crash-restart soak (the power-loss prover)."""

    seed: int
    cycles: int
    workers: int
    recovery_timeout: float
    checkpoint_interval: int
    #: one row per kill/restart cycle: ``{"cycle", "mutation",
    #: "acked", "outcome" ("pre"/"post"), "recovery_seconds",
    #: "durable_recovery_seconds"}``
    restarts: list = field(default_factory=list)
    #: differential mismatches (prober stream + per-cycle batches)
    wrong_answers: int = 0
    mismatch_samples: list = field(default_factory=list)
    #: cycles whose recovered catalog matched *neither* the pre- nor
    #: the post-mutation state (the atomicity contract broke)
    atomicity_violations: list = field(default_factory=list)
    #: acknowledged mutations that were not durable after the restart
    lost_acks: list = field(default_factory=list)
    driver_errors: list = field(default_factory=list)
    #: restart-grace prober stream totals: ``{"checked", "wrong"}``
    prober: dict = field(default_factory=dict)
    #: client-observed restart-to-ready distribution, from a local
    #: ``reach_recovery_seconds`` histogram
    #: (:data:`repro.obs.metrics.RECOVERY_BUCKETS`)
    recovery: dict = field(default_factory=dict)
    #: offline state-dir replay after the final shutdown:
    #: ``{"journal_records", "journal_bytes", "entries",
    #: "artifacts", "orphan_artifacts", "model_matches"}``
    hygiene: dict = field(default_factory=dict)
    #: the server's ``reach_recovery_seconds`` metric was observed in
    #: its exposition after a restart
    server_metric_seen: bool = False
    #: flight-recorder dumps left under ``<state-dir>/flightrec``:
    #: ``{"dumps", "events", "unparseable", "prior_dumps",
    #: "covering", "tail"}`` — ``prior_dumps`` are the archived
    #: current-files of SIGKILLed incarnations, ``covering`` means at
    #: least one of them captured its incarnation's boot (the pre-kill
    #: window survived the power loss), ``tail`` is the newest such
    #: dump's last events
    flight: dict = field(default_factory=dict)

    @property
    def unrecovered(self) -> list[int]:
        """Cycles whose restart never reached ``ready`` in bound."""
        return [r["cycle"] for r in self.restarts
                if r["recovery_seconds"] is None]

    def ok(self) -> bool:
        """The soak verdict: every restart recovered in bound, every
        mutation was atomic, no acknowledged mutation was lost, zero
        wrong answers, and the state dir ended hygienic."""
        return (len(self.restarts) >= self.cycles
                and not self.unrecovered
                and not self.atomicity_violations
                and not self.lost_acks
                and not self.driver_errors
                and self.wrong_answers == 0
                and self.server_metric_seen
                and self.hygiene.get("orphan_artifacts", [None]) == []
                and self.hygiene.get("model_matches") is True
                and self.hygiene.get("journal_records",
                                     self.checkpoint_interval + 1)
                <= self.checkpoint_interval
                # Empty dict = a synthetic report (unit tests);
                # the real soak always populates `flight`.
                and not self.flight.get("unparseable")
                and self.flight.get("covering", True))

    def as_dict(self) -> dict:
        return {
            "ok": self.ok(),
            "seed": self.seed,
            "cycles": self.cycles,
            "workers": self.workers,
            "recovery_timeout": self.recovery_timeout,
            "checkpoint_interval": self.checkpoint_interval,
            "restarts": list(self.restarts),
            "unrecovered": self.unrecovered,
            "wrong_answers": self.wrong_answers,
            "mismatch_samples": list(self.mismatch_samples),
            "atomicity_violations": list(self.atomicity_violations),
            "lost_acks": list(self.lost_acks),
            "driver_errors": list(self.driver_errors),
            "prober": dict(self.prober),
            "recovery": dict(self.recovery),
            "hygiene": dict(self.hygiene),
            "server_metric_seen": self.server_metric_seen,
            "flight": dict(self.flight),
        }

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the CLI."""
        target = (f"fleet of {self.workers} workers" if self.workers
                  else "single server")
        lines = [
            f"crash-restart soak seed={self.seed} "
            f"cycles={len(self.restarts)}/{self.cycles} ({target}): "
            f"{'PASS' if self.ok() else 'FAIL'}",
        ]
        acked = sum(1 for r in self.restarts if r["acked"])
        post = sum(1 for r in self.restarts
                   if r["outcome"] == "post")
        lines.append(
            f"  mutations: {len(self.restarts)} killed mid-flight "
            f"({acked} acked, {post} recovered post-state, "
            f"{len(self.restarts) - post} rolled back to pre-state)")
        if self.atomicity_violations:
            lines.append(
                f"  ATOMICITY VIOLATIONS: {self.atomicity_violations}")
        if self.lost_acks:
            lines.append(f"  LOST ACKS: {self.lost_acks}")
        rec = [r["recovery_seconds"] for r in self.restarts
               if r["recovery_seconds"] is not None]
        if rec:
            lines.append(
                f"  recovery: worst {max(rec):.2f}s, mean "
                f"{sum(rec) / len(rec):.2f}s over {len(rec)} restarts "
                f"(bound {self.recovery_timeout:.0f}s; "
                f"reach_recovery_seconds histogram in the report)")
        if self.unrecovered:
            lines.append(f"  NOT RECOVERED: cycles {self.unrecovered}")
        lines.append(
            f"  wrong answers: {self.wrong_answers} "
            f"(prober checked {self.prober.get('checked', 0)} batches "
            f"across restarts)"
            + (f"  samples: {self.mismatch_samples[:3]}"
               if self.mismatch_samples else ""))
        hygiene = self.hygiene
        if hygiene:
            lines.append(
                f"  hygiene: {hygiene.get('journal_records')} journal "
                f"records ({hygiene.get('journal_bytes')} bytes), "
                f"{hygiene.get('artifacts')} artifacts, "
                f"{len(hygiene.get('orphan_artifacts', []))} orphans, "
                f"catalog matches model: "
                f"{hygiene.get('model_matches')}")
        flight = self.flight
        if flight:
            lines.append(
                f"  flight recorder: {flight.get('dumps', 0)} dumps "
                f"on disk ({flight.get('events', 0)} events, "
                f"{flight.get('prior_dumps', 0)} from killed "
                f"incarnations), pre-kill window covered: "
                f"{flight.get('covering')}"
                + (f", UNPARSEABLE: {flight['unparseable']}"
                   if flight.get("unparseable") else ""))
            for event in flight.get("tail", []):
                detail = " ".join(
                    f"{k}={v}" for k, v in event.items()
                    if k not in ("seq", "ts", "kind"))
                lines.append(f"    pre-kill seq={event.get('seq')} "
                             f"{event.get('kind')}"
                             + (f" {detail}" if detail else ""))
        if self.driver_errors:
            lines.append(f"  driver errors: {self.driver_errors}")
        return lines


class _RestartProber:
    """Background differential stream that rides through restarts.

    A restart-grace client keeps querying the default index across
    kill/recover cycles; transport errors are expected (lost is not
    wrong), but every answer that *arrives* must match the direct
    in-process truth.
    """

    def __init__(self, host: str, port: int, pairs: list,
                 expected: list, report: CrashRestartReport,
                 grace: float) -> None:
        self._pairs = [list(p) for p in pairs]
        self._expected = [bool(x) for x in expected]
        self._report = report
        self._client = ReachClient(
            host, port,
            retry=RetryPolicy(max_attempts=2, attempt_timeout=2.0,
                              base_delay=0.02, max_delay=0.2,
                              breaker_threshold=0,
                              restart_grace=grace, seed=0))
        self.checked = 0
        self.wrong = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="crash-prober",
                                        daemon=True)

    def start(self) -> "_RestartProber":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                answers = self._client.query_batch(self._pairs)
            except (ReproError, ConnectionError, OSError):
                time.sleep(0.05)
                continue
            self.checked += 1
            if answers != self._expected:
                self.wrong += 1
                if len(self._report.mismatch_samples) < 10:
                    self._report.mismatch_samples.append(
                        ("prober", answers, self._expected))
            time.sleep(0.02)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._client.close()


def run_crash_restart_soak(*, seed: int = 0, cycles: int = 20,
                           nodes: int = 100, scheme: str = "dual-i",
                           workers: int = 0,
                           recovery_timeout: float = 30.0,
                           checkpoint_interval: int = 4,
                           retain_generations: int = 2,
                           kill_window: float = 0.25,
                           workdir: "Path | str | None" = None,
                           ) -> CrashRestartReport:
    """SIGKILL ``serve --state-dir`` mid-mutation, restart, verify.

    Each cycle issues one randomized catalog mutation (default
    ``reload``, tenant ``create``/``build``/``drop``) against a *real*
    server subprocess, SIGKILLs its whole process group at a random
    point inside ``kill_window`` seconds — which lands kills
    mid-mutation, mid-journal-append, mid-checkpoint, and
    mid-manifest-swap across a run — restarts onto the same state dir,
    and checks the recovered catalog against the bookkeeping model:

    * **Atomicity** — the catalog matches exactly the pre- or the
      post-mutation state, never a torn hybrid.
    * **No lost acks** — a mutation the client saw acknowledged is
      always post-state (the journal fsync precedes the ack).
    * **Zero wrong answers** — a restart-grace differential stream
      (:class:`_RestartProber`) and a per-cycle verification batch
      must agree with the direct in-process answers on both sides of
      every restart.
    * **Bounded recovery** — every restart reaches ``ready`` within
      ``recovery_timeout`` seconds; client-observed restart-to-ready
      times land in a ``reach_recovery_seconds`` histogram, and the
      server's own exposition must carry its boot-recovery observation
      under the same metric name.

    After the final cycle the server is shut down gracefully and the
    state dir is replayed offline: the journal must be bounded by
    ``checkpoint_interval`` records, every artifact must belong to a
    live entry's retained generation window, and the recovered entries
    must equal the converged model.  ``<state-dir>/flightrec`` is then
    scanned: every flight-recorder dump the killed incarnations left
    behind must parse with ordered sequences, and at least one
    archived pre-kill window must cover its incarnation's boot.

    ``workers >= 1`` runs the same soak against a ``--workers`` fleet
    (the parent recovers once and republishes ``/dev/shm`` segments;
    SIGKILLing the process group takes down parent and workers
    together, exactly like a machine power loss).
    """
    import socket as socket_mod
    import subprocess
    import sys
    import tempfile

    from repro.graph.io import write_edge_list
    from repro.server.durability import (DurableState, INDEX_DIR,
                                         parse_artifact_name)

    base = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-crash-"))
    base.mkdir(parents=True, exist_ok=True)
    state_dir = base / "state"
    graph_path = base / "default.edges"
    tenant_graph_path = base / "tenant.edges"

    edges = 2 * nodes
    graph = gnm_random_digraph(nodes, edges, seed=seed)
    tenant_graph = gnm_random_digraph(nodes, edges, seed=seed + 10)
    write_edge_list(graph, graph_path)
    write_edge_list(tenant_graph, tenant_graph_path)

    index = build_index(graph, scheme=scheme)
    tenant_index = build_index(tenant_graph, scheme=scheme)
    rng = random.Random(seed + 1)
    pool = [(rng.randrange(nodes), rng.randrange(nodes))
            for _ in range(64)]
    with QueryService(index) as direct:
        expected = [bool(a) for a in direct.query_batch(pool)]
    with QueryService(tenant_index) as direct:
        tenant_expected = [bool(a) for a in direct.query_batch(pool)]

    probe = socket_mod.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    report = CrashRestartReport(seed=seed, cycles=cycles,
                                workers=workers,
                                recovery_timeout=recovery_timeout,
                                checkpoint_interval=checkpoint_interval)
    registry = MetricsRegistry()
    recovery_hist = registry.histogram(
        "reach_recovery_seconds",
        "Client-observed seconds from restart launch to ready",
        buckets=RECOVERY_BUCKETS)

    argv = [sys.executable, "-m", "repro.cli", "serve",
            str(graph_path), "--host", "127.0.0.1",
            "--port", str(port), "--scheme", scheme,
            "--state-dir", str(state_dir),
            "--state-checkpoint-interval", str(checkpoint_interval),
            "--state-retain", str(retain_generations)]
    if workers:
        argv += ["--workers", str(workers)]
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    log_path = base / "server.log"

    def launch() -> subprocess.Popen:
        # A fresh session/process group so one killpg() takes down the
        # server *and* (in fleet mode) every worker — daemonized
        # multiprocessing children survive a plain parent SIGKILL.
        with open(log_path, "ab") as log:
            return subprocess.Popen(argv, env=env,
                                    start_new_session=True,
                                    stdout=log, stderr=log)

    def kill(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def wait_ready() -> "tuple[float | None, dict | None]":
        """Client-observed seconds until ``ready``, plus the durable
        block of the ready snapshot (``None, None`` on timeout)."""
        started = time.monotonic()
        deadline = started + recovery_timeout
        client = ReachClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=1, attempt_timeout=2.0,
                              breaker_threshold=0, seed=0))
        try:
            while time.monotonic() < deadline:
                try:
                    doc = client.ready()
                except (ReproError, ConnectionError, OSError):
                    time.sleep(0.1)
                    continue
                if doc.get("ready"):
                    return time.monotonic() - started, \
                        doc.get("durable")
                time.sleep(0.05)
        finally:
            client.close()
        return None, None

    def rows() -> dict:
        """Actual catalog as ``{name: (generation, loaded)}``."""
        with ReachClient("127.0.0.1", port, timeout=30.0) as client:
            table = client.catalog_list()
        return {row["name"]: (row["generation"], row["loaded"])
                for row in table}

    mut_rng = random.Random(seed + 2)
    proc = launch()
    prober: "_RestartProber | None" = None
    churn_counter = 0
    try:
        elapsed, _ = wait_ready()
        if elapsed is None:
            report.driver_errors.append("initial boot never ready")
            return report
        model = rows()  # {"default": (1, True)} on a fresh state dir
        prober = _RestartProber(
            "127.0.0.1", port, pool[:16], expected[:16], report,
            grace=recovery_timeout + kill_window + 5.0).start()

        for cycle in range(cycles):
            tenants = sorted(n for n in model if n != "default")
            kinds = ["reload", "create"]
            if tenants:
                kinds += ["build", "drop"]
            kind = mut_rng.choice(kinds)
            post = dict(model)
            if kind == "reload":
                fields = {"verb": "reload", "graph": str(graph_path)}
                post["default"] = (model["default"][0] + 1, True)
            elif kind == "create":
                churn_counter += 1
                name = f"churn{churn_counter}"
                fields = {"verb": "catalog", "op": "create",
                          "name": name, "scheme": scheme}
                post[name] = (0, False)
            elif kind == "build":
                name = mut_rng.choice(tenants)
                fields = {"verb": "catalog", "op": "build",
                          "name": name,
                          "graph": str(tenant_graph_path)}
                post[name] = (model[name][0] + 1, True)
            else:
                name = mut_rng.choice(tenants)
                fields = {"verb": "catalog", "op": "drop",
                          "name": name}
                post.pop(name)

            box: dict[str, Any] = {}

            def mutate() -> None:
                try:
                    with ReachClient("127.0.0.1", port,
                                     timeout=20.0) as client:
                        verb = fields.pop("verb")
                        box["reply"] = client.call(verb, **fields)
                except Exception as exc:
                    box["error"] = f"{type(exc).__name__}: {exc}"

            mutator = threading.Thread(target=mutate, daemon=True)
            mutator.start()
            # Squared-uniform delay: biased toward early kills, which
            # land mid-mutation (journal append, artifact save,
            # checkpoint) instead of after the ack.
            time.sleep(kill_window * mut_rng.random() ** 2)
            kill(proc)
            mutator.join(timeout=30.0)
            acked = "reply" in box

            proc = launch()
            elapsed, durable = wait_ready()
            if elapsed is None:
                report.driver_errors.append(
                    f"cycle {cycle}: not ready within "
                    f"{recovery_timeout}s after restart")
                report.restarts.append({
                    "cycle": cycle, "mutation": kind, "acked": acked,
                    "outcome": "unrecovered",
                    "recovery_seconds": None,
                    "durable_recovery_seconds": None})
                break
            recovery_hist.observe(elapsed)
            actual = rows()
            if actual == post:
                outcome = "post"
            elif actual == model:
                outcome = "pre"
            else:
                outcome = "torn"
                report.atomicity_violations.append(
                    {"cycle": cycle, "mutation": kind,
                     "pre": model, "post": post, "actual": actual})
            if acked and outcome != "post":
                report.lost_acks.append(
                    {"cycle": cycle, "mutation": kind,
                     "outcome": outcome})
            report.restarts.append({
                "cycle": cycle, "mutation": kind, "acked": acked,
                "outcome": outcome,
                "recovery_seconds": round(elapsed, 3),
                "durable_recovery_seconds": (
                    durable or {}).get("recovery_seconds")})
            model = actual

            # Differential verification on both planes of the restart:
            # the default index always, plus one loaded tenant if any.
            with ReachClient("127.0.0.1", port, timeout=30.0) as c:
                answers = c.query_batch(pool)
                if answers != expected:
                    report.wrong_answers += 1
                    if len(report.mismatch_samples) < 10:
                        report.mismatch_samples.append(
                            ("default", cycle, answers))
                loaded = [n for n, (_, ok_) in model.items()
                          if ok_ and n != "default"]
                if loaded:
                    t_answers = c.query_batch(
                        pool, index=mut_rng.choice(loaded))
                    if t_answers != tenant_expected:
                        report.wrong_answers += 1
                        if len(report.mismatch_samples) < 10:
                            report.mismatch_samples.append(
                                ("tenant", cycle, t_answers))
                if not report.server_metric_seen:
                    exposition = c.metrics().get("exposition", "")
                    report.server_metric_seen = \
                        "reach_recovery_seconds" in exposition
    finally:
        if prober is not None:
            prober.stop()
            report.prober = {"checked": prober.checked,
                             "wrong": prober.wrong}
            report.wrong_answers += prober.wrong
        # Graceful shutdown (SIGINT = ctrl-c): the serve loop's
        # finally block checkpoints and closes the journal.
        try:
            os.killpg(proc.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            kill(proc)

    snap = recovery_hist.snapshot()
    report.recovery["restart_to_ready"] = {
        "count": snap["count"],
        "mean_seconds": (snap["sum"] / snap["count"]
                         if snap["count"] else 0.0),
        "p95_seconds": recovery_hist.percentile(0.95),
        "max_seconds": snap["max"],
        "buckets": snap["buckets"],
    }

    # Offline hygiene replay: bounded journal, no orphan artifacts,
    # and the durable catalog equals the converged model.
    try:
        state = DurableState(state_dir,
                             checkpoint_interval=checkpoint_interval,
                             retain_generations=retain_generations)
        state.recover()
        status = state.status()
        entries = {e.name: e for e in state.entries()}
        orphans = []
        for child in sorted((state_dir / INDEX_DIR).iterdir()):
            if ".corrupt" in child.name or child.is_dir():
                continue
            name, gen = parse_artifact_name(child.name) or ("", -1)
            entry = entries.get(name)
            if entry is None or not (entry.generation - retain_generations
                                     < gen <= entry.generation):
                orphans.append(child.name)
        durable_rows = {e.name: e.generation for e in entries.values()}
        model_rows = {n: g for n, (g, _) in model.items()}
        report.hygiene = {
            "journal_records": status["journal_records"],
            "journal_bytes": status["journal_bytes"],
            "entries": status["entries"],
            "artifacts": status["artifacts"],
            "orphan_artifacts": orphans,
            "model_matches": durable_rows == model_rows,
        }
        state.close()
    except Exception as exc:
        report.driver_errors.append(
            f"hygiene: {type(exc).__name__}: {exc}")

    # Flight-recorder forensics: the spiller keeps each incarnation's
    # current dump at most one interval stale, and every restart
    # archives the SIGKILLed incarnation's file to `-prior-N` — so
    # after the soak the pre-kill windows must be on disk, parseable,
    # and sequence-ordered (load_dump rejects disorder).
    try:
        from repro.obs.flight import scan_dumps

        dumps = scan_dumps(str(state_dir / "flightrec"))
        unparseable = [d["path"] for d in dumps if d.get("error")]
        prior = [d for d in dumps
                 if "-prior-" in os.path.basename(d["path"])]
        booted = ("server_start", "fleet_start")
        covering = any(
            any(e.get("kind") in booted for e in d["events"])
            for d in prior)
        tail = prior[-1]["events"][-3:] if prior else []
        report.flight = {
            "dumps": len(dumps),
            "events": sum(len(d["events"]) for d in dumps),
            "unparseable": unparseable,
            "prior_dumps": len(prior),
            "covering": covering,
            "tail": tail,
        }
    except Exception as exc:
        report.driver_errors.append(
            f"flight: {type(exc).__name__}: {exc}")
    return report
