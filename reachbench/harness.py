"""Process handling, ``/proc`` probes and the closed-loop drivers.

The drivers speak the gateway's wire protocols directly (newline
JSON and the length-prefixed binary frames documented in the
program's ``binproto`` module) so the benchmark checks every reply
against its own oracle.  The lone caller goes through the program's
``ReachClient``, because that is how a synchronous user calls it.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import struct
import subprocess
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

TICK = os.sysconf("SC_CLK_TCK")
SLICE_S = 0.25          # throughput and CPU are also read per slice

# Binary framing (see the program's binproto module docstring).
MAGIC_LINE = b"REPRO-BINARY/1\n"
HEADER = struct.Struct("<BBHIII")
FRAME_MAGIC = 0xB7
OP_BATCH = 0x01
OP_HELLO = 0x7E
OP_ANSWERS = 0x81


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


# -- /proc probes ---------------------------------------------------------

def proc_cpu(pid: int) -> tuple[float, float]:
    """(user, system) CPU seconds of every thread of ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / TICK, int(fields[12]) / TICK


def proc_ctxsw(pid: int) -> int:
    """Voluntary plus involuntary switches summed over live threads."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/status",
                      encoding="ascii") as fh:
                for line in fh:
                    if "ctxt_switches" in line:
                        total += int(line.split()[-1])
        except FileNotFoundError:
            continue
    return total


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def host_cpu() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        values = [int(x) for x in fh.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


@dataclass
class Window:
    """Server CPU, switches, host steal and driver CPU over one phase."""

    pid: int
    wall: float = 0.0
    user: float = 0.0
    sys: float = 0.0
    ctxsw: int = 0
    steal_share: float = 0.0
    driver_cpu: float = 0.0
    start: float = 0.0
    end: float = 0.0
    _open: tuple = ()

    def __enter__(self) -> "Window":
        self._open = (time.perf_counter(), proc_cpu(self.pid),
                      proc_ctxsw(self.pid), host_cpu(), time.process_time())
        self.start = self._open[0]
        return self

    def __exit__(self, *exc) -> None:
        t0, (u0, s0), c0, (st0, tot0), d0 = self._open
        self.end = time.perf_counter()
        u1, s1 = proc_cpu(self.pid)
        st1, tot1 = host_cpu()
        self.wall = self.end - t0
        self.user = u1 - u0
        self.sys = s1 - s0
        self.ctxsw = proc_ctxsw(self.pid) - c0
        self.steal_share = (st1 - st0) / max(1, tot1 - tot0)
        self.driver_cpu = time.process_time() - d0

    @property
    def cpu(self) -> float:
        return self.user + self.sys


# -- server processes -----------------------------------------------------

class Server:
    """One server subprocess; its port comes from the first stdout line
    that reads ``... on HOST:PORT ...`` (the serve banner).

    ``cpu`` pins the process (every thread it later starts inherits
    the mask) so the driver and the server do not share a core.
    """

    def __init__(self, argv: list, *, env: dict, log: Path,
                 cpu: int | None) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.pid = self.proc.pid
        self.setup_window = (0.0, 0.0)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        while True:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise BenchError(f"server exited with {self.proc.wait()} "
                                 f"before printing its port; see "
                                 f"{self._log.name}")
            if " on " in line and ":" in line:
                addr = line.split(" on ", 1)[1].split()[0]
                return int(addr.rsplit(":", 1)[1])

    def stop(self, timeout: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def python_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("REPRO_FAST_KERNEL", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def first_reply(port: int, u: int, v: int, expected: bool,
                timeout: float = 120.0) -> None:
    """Block until the server answers one query correctly."""
    deadline = time.monotonic() + timeout
    line = json.dumps({"id": 1, "verb": "query", "u": u, "v": v})
    while True:
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=timeout) as sock:
                sock.sendall(line.encode() + b"\n")
                reply = json.loads(sock.makefile("rb").readline())
            if reply.get("ok"):
                if reply["result"] is not expected:
                    raise WrongAnswer(f"setup probe {u}->{v} answered "
                                      f"{reply['result']}")
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise BenchError("server never answered its first query")
        time.sleep(0.005)


class WrongAnswer(Exception):
    """A reply disagreed with the benchmark's oracle."""


# -- tallies ----------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, by failure kind."""

    attempted: int = 0
    failed: int = 0
    kinds: dict = field(default_factory=dict)
    wrong: list = field(default_factory=list)

    def fail(self, kind: str, detail: str = "") -> None:
        self.failed += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind == "wrong" and len(self.wrong) < 5:
            self.wrong.append(detail)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for kind, n in other.kinds.items():
            self.kinds[kind] = self.kinds.get(kind, 0) + n
        self.wrong.extend(other.wrong[:5 - len(self.wrong)])


@dataclass
class PhaseResult:
    """What one driven phase measured."""

    completed: int = 0          # requests answered inside the window
    pairs: int = 0              # pairs answered inside the window
    latencies: list = field(default_factory=list)   # (start, seconds)
    slices: list = field(default_factory=list)      # (seconds, requests,
                                                    # server CPU seconds)
    window: Window | None = None
    phases: list = field(default_factory=list)      # (start, end), warm-up
                                                    # included


def combine(results: list) -> PhaseResult:
    """One result for a phase driven in several rounds."""
    out = PhaseResult(window=Window(results[0].window.pid))
    win = out.window
    for res in results:
        out.completed += res.completed
        out.pairs += res.pairs
        out.latencies += res.latencies
        out.slices += res.slices
        out.phases += res.phases
        w = res.window
        win.steal_share += w.steal_share * w.wall
        win.wall += w.wall
        win.user += w.user
        win.sys += w.sys
        win.ctxsw += w.ctxsw
        win.driver_cpu += w.driver_cpu
    win.steal_share /= win.wall or 1.0
    return out


# -- lone synchronous caller ------------------------------------------------

def drive_lone(client_cls, port: int, pairs: list, truth: list, *,
               warmup: float, seconds: float, pid: int, tally: Tally,
               check: bool = True, first: int = 0,
               stop=None) -> PhaseResult:
    """One caller, one request in flight, through ``ReachClient.query``.

    Runs ``warmup`` then measures for ``seconds`` (or, with ``stop``,
    until ``stop()`` turns true), walking the pair pool from index
    ``first``.  Latency samples carry their start time so a caller can
    split them by what else was happening.
    """
    res = PhaseResult()
    phase_start = time.perf_counter()
    n = len(pairs)
    i = first
    with client_cls(port=port, timeout=30.0) as client:
        end_warm = time.perf_counter() + warmup
        while time.perf_counter() < end_warm:
            _lone_call(client, pairs[i % n], truth[i % n], check, tally)
            i += 1
        with Window(pid) as win:
            deadline = win.start + seconds
            while True:
                now = time.perf_counter()
                if (stop() if stop is not None else now >= deadline):
                    break
                if _lone_call(client, pairs[i % n], truth[i % n], check,
                              tally):
                    res.latencies.append((now, time.perf_counter() - now))
                i += 1
        res.window = win
    res.completed = res.pairs = len(res.latencies)
    res.phases = [(phase_start, time.perf_counter())]
    return res


def _lone_call(client, pair, expected, check, tally) -> bool:
    tally.attempted += 1
    try:
        answer = client.query(*pair)
    except OSError as exc:
        tally.fail("transport", str(exc))
        return False
    except Exception as exc:  # ServerReplyError and friends
        tally.fail(getattr(exc, "code", type(exc).__name__), str(exc))
        return False
    if check and answer is not expected:
        tally.fail("wrong", f"query {pair} answered {answer}")
        return False
    return True


class _Clock:
    """Warm-up, then a measured window whose end stops new sends.

    Inside the window it samples the server's CPU every ``SLICE_S``
    seconds, so a result can be read per slice as well as in total.
    """

    def __init__(self, pid: int, warmup: float, seconds: float) -> None:
        self.pid = pid
        self.phase_start = time.perf_counter()
        self.start = self.phase_start + warmup
        self.stop_at = self.start + seconds
        self.win = Window(pid)
        self.count = 0
        self._marks: list = []      # (time, requests, server CPU)

    def tick(self) -> bool:
        """Open, sample or close the window as due; True while sending."""
        now = time.perf_counter()
        if not self.win.start:
            if now >= self.start:
                self.win.__enter__()
                self._mark(self.win.start)
        elif not self.win.end:
            if now >= self.stop_at:
                self.win.__exit__()
                self._mark(self.win.end)
            elif now >= self._marks[-1][0] + SLICE_S:
                self._mark(now)
        return now < self.stop_at

    def _mark(self, now: float) -> None:
        self._marks.append((now, self.count, sum(proc_cpu(self.pid))))

    @property
    def measuring(self) -> bool:
        return bool(self.win.start and not self.win.end)

    def result(self, res: PhaseResult, pairs_per_request: int) -> None:
        if not self.win.end:
            raise BenchError("driver: measurement window never closed")
        res.window = self.win
        res.completed = self.count
        res.pairs = res.completed * pairs_per_request
        res.slices = [(t1 - t0, n1 - n0, c1 - c0) for (t0, n0, c0), (t1, n1, c1)
                      in zip(self._marks, self._marks[1:]) if t1 - t0 > 0.05]
        res.phases = [(self.phase_start, time.perf_counter())]


# -- pipelined JSON point driver --------------------------------------------

def drive_json_busy(port: int, pairs: list, truth: list, *, conns: int,
                    depth: int, warmup: float, seconds: float, pid: int,
                    tally: Tally, check: bool = True,
                    first: int = 0) -> PhaseResult:
    """``conns`` connections each keeping ``depth`` queries in flight.

    A closed loop: each answer releases the next request on its
    connection.  Replies are matched by id, so out-of-order answers
    are fine.
    """
    n = len(pairs)
    sel = selectors.DefaultSelector()
    sent_at: dict[int, float] = {}
    buffers = {}
    next_id = first
    res = PhaseResult()

    def request(k: int) -> bytes:
        u, v = pairs[k % n]
        return b'{"id":%d,"verb":"query","u":%d,"v":%d}\n' % (k, u, v)

    clock = _Clock(pid, warmup, seconds)
    socks = []
    try:
        for _ in range(conns):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
            buffers[sock] = b""
            sel.register(sock, selectors.EVENT_READ)
            now = time.perf_counter()
            burst = []
            for _ in range(depth):
                sent_at[next_id] = now
                burst.append(request(next_id))
                next_id += 1
            tally.attempted += depth
            sock.sendall(b"".join(burst))
        while sent_at:
            sending = clock.tick()
            events = sel.select(timeout=5.0)
            if not events:
                raise BenchError("busy driver: no reply for 5 s")
            for key, _ in events:
                sock = key.fileobj
                data = sock.recv(1 << 18)
                if not data:
                    raise BenchError("busy driver: server closed")
                lines = (buffers[sock] + data).split(b"\n")
                buffers[sock] = lines.pop()
                done = time.perf_counter()
                measuring = clock.measuring
                burst = []
                for line in lines:
                    reply = json.loads(line)
                    rid = reply["id"]
                    t0 = sent_at.pop(rid)
                    if not reply.get("ok"):
                        tally.fail(reply.get("error", "error"))
                    elif check and reply["result"] is not truth[rid % n]:
                        tally.fail("wrong", f"query {pairs[rid % n]} "
                                            f"answered {reply['result']}")
                    elif measuring:
                        clock.count += 1
                        res.latencies.append((t0, done - t0))
                    if sending:
                        sent_at[next_id] = done
                        burst.append(request(next_id))
                        next_id += 1
                if burst:
                    tally.attempted += len(burst)
                    sock.sendall(b"".join(burst))
    finally:
        for sock in socks:
            sel.unregister(sock)
            sock.close()
        sel.close()
    clock.result(res, 1)
    return res


# -- pipelined binary bulk driver -------------------------------------------

def bulk_frames(pairs: list, truth: list, frame_pairs: int) -> list:
    """Pre-encoded ``(payload, crc, expected ANSWERS payload)`` triples."""
    out = []
    for lo in range(0, len(pairs) - frame_pairs + 1, frame_pairs):
        chunk = pairs[lo:lo + frame_pairs]
        payload = b"".join(struct.pack("<II", u, v) for u, v in chunk)
        bits = bytearray((frame_pairs + 7) // 8)
        for i, ok in enumerate(truth[lo:lo + frame_pairs]):
            if ok:
                bits[i >> 3] |= 1 << (i & 7)
        expected = struct.pack("<I", frame_pairs) + bytes(bits)
        out.append((payload, zlib.crc32(payload), expected))
    return out


def _read_exactly(stream, n: int) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise BenchError("binary driver: connection closed mid-frame")
    return data


def drive_binary_bulk(port: int, frames: list, *, depth: int,
                      warmup: float, seconds: float, pid: int,
                      tally: Tally, check: bool = True,
                      first: int = 0) -> PhaseResult:
    """One binary connection keeping ``depth`` BATCH frames in flight."""
    nf = len(frames)
    sent_at: dict[int, float] = {}
    res = PhaseResult()
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stream = sock.makefile("rb", buffering=1 << 16)

    def send(k: int) -> None:
        payload, crc, _ = frames[k % nf]
        sock.sendall(HEADER.pack(FRAME_MAGIC, OP_BATCH, 0, k, len(payload),
                                 crc) + payload)
        sent_at[k] = time.perf_counter()
        tally.attempted += 1

    try:
        sock.sendall(MAGIC_LINE)
        magic, op, _, _, length, _ = HEADER.unpack(
            _read_exactly(stream, HEADER.size))
        if magic != FRAME_MAGIC or op != OP_HELLO:
            raise BenchError(f"binary negotiation failed (op {op:#x})")
        _read_exactly(stream, length)
        clock = _Clock(pid, warmup, seconds)
        for k in range(first, first + depth):
            send(k)
        next_id = first + depth
        while sent_at:
            sending = clock.tick()
            magic, op, _, rid, length, crc = HEADER.unpack(
                _read_exactly(stream, HEADER.size))
            body = _read_exactly(stream, length)
            done = time.perf_counter()
            t0 = sent_at.pop(rid)
            if magic != FRAME_MAGIC or zlib.crc32(body) != crc:
                tally.fail("transport", "bad frame")
            elif op != OP_ANSWERS:
                tally.fail("error", body[1:].decode("utf-8", "replace"))
            elif check and body != frames[rid % nf][2]:
                tally.fail("wrong", f"frame {rid % nf} bitmap differs")
            elif clock.measuring:
                clock.count += 1
                res.latencies.append((t0, done - t0))
            if sending:
                send(next_id)
                next_id += 1
    finally:
        stream.close()
        sock.close()
    clock.result(res, struct.unpack_from("<I", frames[0][2])[0])
    return res


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1,
                   int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[k]


def calibrate() -> float:
    """ns per iteration of a fixed CPU loop owned by the benchmark.

    Recorded next to every row so drift between sets of runs shows;
    never used to rescale a metric.  Best of five short rounds.
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, (time.perf_counter_ns() - t0) / 200_000)
    return best


def git_sha(root: Path) -> str:
    """The checkout's commit, or a content hash of its sources."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]
