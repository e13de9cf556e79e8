"""``players`` and ``edge``: open-loop traffic into a ``repro-abr serve`` process.

Both workloads replay the same kind of pre-generated, trace-driven player
requests (FCC, HSDPA and synthetic traces; RobustMPC ``past_errors`` on
every request) into a freshly launched server with a warm 100x100x5
FastMPC table and the default 5 ms lookup budget:

* ``players`` sends one JSON decision per HTTP/1.1 exchange, each
  carrying ``family`` = its dataset, at 1000 decisions/s;
* ``edge`` packs the same traffic, minus ``family`` (binary frames cannot
  carry it), into 64-record binary frames at 50 frames/s — 64 records is
  the size at which the server switches to its vectorised batch path.

Arrivals are a seeded Poisson process conditioned on its count (sorted
uniform times), so every seed offers exactly ``rate * seconds`` units in
``seconds``.  Every request is encoded before the clock starts; one
thread paces sends by busy-polling the clock over two pipelined
keep-alive connections, so the generator never sleeps through a due time.
The server is launched through :mod:`perfbench.serve`, which runs the
normal ``serve`` command and keeps the server's own ``/v1/decide``
exchange spans request by request; ``p50_ms`` is read from those, so
neither the generator's CPU nor the loopback wire moves it.  The
client-side latency from each unit's due time is printed as a diagnostic.

After the clock stops, every answer is checked against an in-process
:class:`~repro.service.server.DecisionService` holding an independently
built table of the same configuration, and the server's shared prior is
checked against histograms rebuilt from the requests it was sent.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import host
from perfbench.spans import REFERENCE_LAYER, per_decision, setup_metrics

#: Ready line printed by ``repro-abr serve`` once the table is built and bound.
READY_PREFIX = b"decision service on "
SERVER_START_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 5.0
#: Width of the slices a timed window is summarised over.
SLICE_S = 1.0
CONNECTIONS = 2
SETUP_SAMPLES = 3
WARMUP_UNITS = {"players": 200, "edge": 10}


@dataclass(frozen=True)
class Spec:
    rate: float  # units (requests or frames) per second
    records: int  # decisions per unit
    binary: bool


SPECS = {
    "players": Spec(rate=1000.0, records=1, binary=False),
    "edge": Spec(rate=50.0, records=64, binary=True),
}

_DATASETS = ("fcc", "hsdpa", "synthetic")


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


def player_requests(seed: int, count: int, family: bool) -> list:
    """``count`` trace-driven decision requests, interleaved across players.

    Each player streams Envivio over one trace and carries a harmonic-mean
    prediction plus its last five signed prediction errors (RobustMPC's
    ``past_errors``).  The player advances by the rate-based rule on its
    own side, so the request stream never depends on a server answer.
    """
    from repro.service.protocol import DecisionRequest
    from repro.traces import make_generator
    from repro.video import envivio

    manifest = envivio()
    ladder = manifest.ladder.levels_kbps
    chunk_s = manifest.chunk_duration_s
    bmax = 30.0
    players_needed = -(-count // manifest.num_chunks)
    generators = {name: make_generator(name, seed=seed) for name in _DATASETS}
    streams = []
    for p in range(players_needed):
        dataset = _DATASETS[p % len(_DATASETS)]
        trace = generators[dataset].generate(manifest.total_duration_s + 120.0)
        stream = []
        t = buffer_s = 0.0
        prev = None
        measured: deque = deque(maxlen=5)
        errors: deque = deque(maxlen=5)
        for _ in range(manifest.num_chunks):
            if measured:
                predicted = len(measured) / sum(1.0 / c for c in measured)
            else:
                predicted = max(trace.bandwidth_at(0.0), 1.0)
            stream.append(
                DecisionRequest(
                    session_id=f"s{seed}-{p}",
                    buffer_s=buffer_s,
                    predicted_kbps=predicted,
                    prev_level=prev,
                    past_errors=tuple(errors),
                    family=dataset if family else None,
                )
            )
            level = max(i for i, r in enumerate(ladder) if r <= predicted or i == 0)
            size = chunk_s * ladder[level]
            download_s, _ = trace.download_time_and_stall(t, size)
            download_s = max(download_s, 1e-6)
            actual = max(size / download_s, 1.0)
            errors.append((predicted - actual) / actual)
            measured.append(actual)
            buffer_s = min(max(buffer_s - download_s, 0.0) + chunk_s, bmax)
            t += download_s
            prev = level
        streams.append(stream)
    # Interleave players the way concurrent viewers' chunk requests mix.
    out = []
    active = 32
    queue = deque(iter(s) for s in streams)
    live: deque = deque()
    while len(out) < count and (queue or live):
        while queue and len(live) < active:
            live.append(queue.popleft())
        stream = live.popleft()
        request = next(stream, None)
        if request is not None:
            out.append(request)
            live.append(stream)
    return out


def arrival_times(seed: int, units: int, seconds: float) -> List[float]:
    """A Poisson process conditioned on ``units`` arrivals in ``seconds``."""
    rng = random.Random(seed * 7919 + 17)
    return sorted(rng.uniform(0.0, seconds) for _ in range(units))


@dataclass
class Traffic:
    units: List[list]  # requests per unit
    wire: List[bytes]  # the pre-encoded HTTP exchange per unit


def build_traffic(spec: Spec, requests: list) -> Traffic:
    from repro.service.protocol import CONTENT_TYPE_BINARY, encode_request_batch

    units = [requests[i : i + spec.records] for i in range(0, len(requests), spec.records)]
    wire = []
    for unit in units:
        if spec.binary:
            body = encode_request_batch(unit)
            ctype = CONTENT_TYPE_BINARY.encode()
        else:
            body = unit[0].to_json()
            ctype = b"application/json"
        wire.append(
            b"POST /v1/decide HTTP/1.1\r\nHost: bench\r\nContent-Type: "
            + ctype
            + b"\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body
        )
    return Traffic(units, wire)


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """One server launched through :mod:`perfbench.serve`.

    ``setup_s`` is spawn -> ready line.  With ``layers`` the layer
    wrappers are installed; :meth:`stop` returns what the server wrote
    out at exit (layer totals, window marks, exchange spans).
    """

    def __init__(self, cpu: Optional[int], out_path: str, layers: bool = False) -> None:
        self.out_path = out_path
        argv = [sys.executable, "-m", "perfbench.serve", out_path]
        argv += ["--layers"] if layers else []
        argv += ["serve", "--port", "0"]
        host.RUN_DIR.mkdir(exist_ok=True)
        if os.path.exists(out_path):
            os.unlink(out_path)
        self.log = open(host.RUN_DIR / "server.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(host.ROOT),
            env=host.python_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=(lambda: host.pin(0, cpu)) if cpu is not None else None,
        )
        try:
            line = self._ready_line()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = int(line.split(b":")[1].split()[0])

    def _ready_line(self) -> bytes:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not become ready in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.wait()} before ready")
            if line.startswith(READY_PREFIX):
                return line[len(READY_PREFIX):]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def mark(self) -> None:
        """Ask the server to record a window mark (see :mod:`perfbench.serve`)."""
        os.kill(self.proc.pid, signal.SIGUSR1)

    def stop(self) -> Optional[dict]:
        """SIGINT (the serve command's clean shutdown), wait, read the dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()
        try:
            with open(self.out_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@dataclass
class Exchange:
    """What the generator saw for one unit."""

    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""


class _Conn:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.pending: deque = deque()
        self.closed = False
        self.bytes_in = 0

    def parse(self, exchanges: List[Exchange], now: float) -> int:
        """Complete every buffered response; returns how many finished."""
        done = 0
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return done
            head = bytes(buf[:end])
            length = 0
            at = head.lower().find(b"content-length:")
            if at >= 0:
                eol = head.find(b"\r\n", at)
                length = int(head[at + 15 : eol if eol >= 0 else len(head)])
            if len(buf) < end + 4 + length:
                return done
            ex = exchanges[self.pending.popleft()]
            ex.status = int(head[9:12])
            ex.body = bytes(buf[end + 4 : end + 4 + length])
            ex.done = now
            del buf[: end + 4 + length]
            done += 1


@dataclass
class Drive:
    """What one timed window observed."""

    exchanges: List[Exchange]
    t0: float  # start of the timed window
    t_end: float  # arrival of its last answer
    wire_bytes: int
    #: ``(time, server CPU seconds, steal jiffies on the two CPUs)`` at
    #: every slice boundary of the window
    marks: List[Tuple[float, float, int]]


def drive(server: Server, traffic: Traffic, arrivals: Sequence[float],
          warmup: int, cpus: Sequence[Optional[int]]) -> Drive:
    """Warm up closed-loop, then send every unit at its due time.

    Exchanges are indexed like ``traffic.units`` (warm-up units first).
    The server's CPU time and the steal on both CPUs are sampled at each
    :data:`SLICE_S` boundary of the timed window, between sends, and the
    server is asked to mark the window's start and end.
    """

    def mark(now: float) -> Tuple[float, float, int]:
        return now, host.cpu_runtime_s(server.pid), host.cpu_steal_jiffies(cpus)

    conns = [_Conn(server.port) for _ in range(CONNECTIONS)]
    poller = select.poll()
    by_fd = {}
    for c in conns:
        poller.register(c.sock.fileno(), select.POLLIN)
        by_fd[c.sock.fileno()] = c
    exchanges = [Exchange() for _ in traffic.wire]
    bytes_out = 0
    try:
        # Closed-loop warm-up: one unit at a time, alternating connections.
        for i in range(warmup):
            c = conns[i % CONNECTIONS]
            ex = exchanges[i]
            ex.due = ex.sent = time.perf_counter()
            c.pending.append(i)
            c.sock.sendall(traffic.wire[i])
            bytes_out += len(traffic.wire[i])
            while not ex.done:
                _receive(c, exchanges)
        t0 = time.perf_counter() + 0.05
        total = len(traffic.wire)
        dues = [t0 + a for a in arrivals]
        for k, due in enumerate(dues):
            exchanges[warmup + k].due = due
        i = warmup
        answered = warmup
        deadline = dues[-1] + DRAIN_TIMEOUT_S if dues else t0
        wire = traffic.wire
        clock = time.perf_counter
        poll = poller.poll
        marks = []
        next_mark = t0
        while answered < total:
            now = clock()
            if now >= next_mark and i < total:
                marks.append(mark(now))
                if len(marks) == 1:
                    server.mark()
                next_mark += SLICE_S
            while i < total and exchanges[i].due <= now:
                c = conns[i % CONNECTIONS]
                if not c.closed:
                    try:
                        c.sock.sendall(wire[i])
                    except OSError:
                        _close(c, poller)
                    else:
                        c.pending.append(i)
                        bytes_out += len(wire[i])
                        exchanges[i].sent = clock()
                i += 1
            for fd, _ in poll(0):
                c = by_fd[fd]
                try:
                    answered += _receive(c, exchanges)
                except OSError:
                    _close(c, poller)
            if now > deadline:
                break
        t_end = max((ex.done for ex in exchanges[warmup:]), default=t0)
        marks.append(mark(clock()))
        server.mark()
        bytes_in = sum(c.bytes_in for c in conns)
    finally:
        for c in conns:
            c.sock.close()
    return Drive(exchanges, t0, t_end, bytes_out + bytes_in, marks)


def _receive(c: _Conn, exchanges: List[Exchange]) -> int:
    data = c.sock.recv(1 << 16)
    if not data:
        raise ConnectionError("server closed a keep-alive connection")
    c.bytes_in += len(data)
    c.buf += data
    try:
        return c.parse(exchanges, time.perf_counter())
    except (IndexError, ValueError):
        raise ConnectionError("unparseable or unsolicited response") from None


def _close(c: _Conn, poller) -> None:
    """A transport error: the connection's unanswered units stay failed."""
    if not c.closed:
        c.closed = True
        poller.unregister(c.sock.fileno())


# ---------------------------------------------------------------------------
# Reference check
# ---------------------------------------------------------------------------


def reference_table():
    """An independently built table of the server's configuration."""
    from repro.core.fastmpc import FastMPCConfig, build_decision_table
    from repro.core.qoe import QoEWeights
    from repro.video import envivio

    manifest = envivio()
    return build_decision_table(
        manifest.ladder.levels_kbps,
        manifest.chunk_duration_s,
        30.0,
        QoEWeights.preset("balanced"),
        config=FastMPCConfig(buffer_bins=100, throughput_bins=100, horizon=5),
    )


def reference_service(table):
    """A fresh in-process DecisionService over ``table``.

    Its lookup budget is unbounded, so its answers are always the table's.
    """
    from repro.service.server import DecisionService, ServiceConfig
    from repro.video import envivio

    return DecisionService(
        envivio().ladder.levels_kbps,
        table=table,
        config=ServiceConfig(lookup_budget_s=1e9),
    )


def decode_answers(spec: Spec, body: bytes) -> List[dict]:
    """The answer records of one response body, as plain dicts."""
    if spec.binary:
        from repro.service.protocol import decode_response_batch

        return [
            {
                "session_id": r.session_id,
                "level_index": r.level_index,
                "source": r.source,
                "degraded": r.degraded,
                "reason": r.reason,
            }
            for r in decode_response_batch(body)
        ]
    return [json.loads(body)]


def check_answers(spec: Spec, units: Sequence[list], exchanges: Sequence[Exchange],
                  service) -> Tuple[int, int, Dict[str, int], int]:
    """Compare every answer with ``service``'s answer to the same request.

    Returns ``(attempted, failed, degraded_by_reason, digest)``, counted
    in decisions.  A decision fails when its exchange had a transport
    error, a non-200 status or no answer, or when a non-degraded answer
    differs from the reference (session, level or source).  A degraded
    answer is a valid outcome, counted by reason, as long as its level is
    the fallback rule's level for that request.
    """
    attempted = failed = digest = 0
    degraded: Dict[str, int] = {}
    for unit, ex in zip(units, exchanges):
        attempted += len(unit)
        reference = (
            service.decide_batch(unit) if len(unit) > 1 else (service.decide(unit[0]),)
        )
        digest += sum(r.level_index for r in reference)
        if ex.status != 200:
            failed += len(unit)
            continue
        try:
            answers = decode_answers(spec, ex.body)
        except (ValueError, KeyError):
            failed += len(unit)
            continue
        if len(answers) != len(unit):
            failed += len(unit)
            continue
        for request, answer, ref in zip(unit, answers, reference):
            if answer.get("session_id") != request.session_id:
                failed += 1
            elif answer.get("degraded"):
                reason = answer.get("reason") or "unknown"
                expected = service.fallback_response(
                    request.session_id, request.predicted_kbps, reason
                ).level_index
                if answer.get("level_index") != expected:
                    failed += 1
                else:
                    degraded[reason] = degraded.get(reason, 0) + 1
            elif (
                answer.get("level_index") != ref.level_index
                or answer.get("source") != ref.source
            ):
                failed += 1
    return attempted, failed, degraded, digest


def check_priors(served: dict, units: Sequence[list]) -> bool:
    """Whether the server's ``/metrics`` ``priors`` section pools exactly
    the ``predicted_kbps`` of the family-keyed requests it was sent.

    The expected per-family histograms are rebuilt from the requests
    with the prior's histogram type directly, not through
    ``SharedPriorStore``, so the store's own routing, observe and
    estimate logic is checked rather than reused.  Bucket counts are
    order-independent and compared exactly, with the sample counts, the
    maximum and the served median; the float sum depends on the order
    the two connections' requests were served in, so it is compared to a
    relative 1e-9.
    """
    from repro.service.prior import PRIOR_QUANTILE, ThroughputHistogram

    expected: Dict[str, ThroughputHistogram] = {}
    for unit in units:
        for request in unit:
            if request.family is not None:
                expected.setdefault(request.family, ThroughputHistogram()).observe(
                    request.predicted_kbps
                )
    families = served.get("families", {})
    if set(families) != set(expected):
        return False
    if served.get("samples_total") != sum(h.count for h in expected.values()):
        return False
    for name, histogram in expected.items():
        got = families[name]
        if got.get("estimate_kbps") != histogram.quantile(PRIOR_QUANTILE):
            return False
        for key, value in histogram.to_dict().items():
            if key.startswith(("sum", "mean")):
                if not math.isclose(got.get(key, math.nan), value, rel_tol=1e-9):
                    return False
            elif got.get(key) != value:
                return False
    return True


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


class IdleSpinner:
    """Keeps the server's CPU from idling while the clock runs.

    A lowest-priority (``SCHED_IDLE``) busy loop pinned to the server's
    CPU: the server preempts it on every wake-up, so it takes no CPU the
    server wants, but the CPU never halts between requests.  On a virtual
    machine, waking a halted vCPU goes through the hypervisor, and that
    wake-up latency tracks neighbour load rather than the server's code.
    """

    def __init__(self, cpu: Optional[int]) -> None:
        self.proc = None
        if cpu is None or not hasattr(os, "SCHED_IDLE"):
            return

        def idle_on_cpu() -> None:
            os.sched_setaffinity(0, {cpu})
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))

        self.proc = subprocess.Popen(
            [sys.executable, "-c", "while True: pass"], preexec_fn=idle_on_cpu
        )

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


@dataclass
class Phase:
    """One server's timed window and what it measured."""

    units: List[list]
    drive: Drive
    warmup: int
    decisions: int
    metrics: dict  # the server's /metrics document after the window
    rss_mb: float
    steal: float
    dump: Optional[dict] = None  # what the server wrote out at exit

    @property
    def timed(self) -> List[Exchange]:
        return self.drive.exchanges[self.warmup :]


def run_phase(server: Server, traffic: Traffic, arrivals: Sequence[float],
              warmup: int, cpus: Tuple[Optional[int], Optional[int]]) -> Phase:
    spinner = IdleSpinner(cpus[0])
    try:
        ticks0 = host.host_cpu_ticks()
        result = drive(server, traffic, arrivals, warmup, cpus)
    finally:
        spinner.stop()
    steal = host.steal_share(ticks0, host.host_cpu_ticks())
    decisions = sum(
        len(u) for u, ex in zip(traffic.units[warmup:], result.exchanges[warmup:])
        if ex.status == 200
    )
    return Phase(traffic.units, result, warmup, decisions, server.metrics(),
                 host.peak_rss_mb(server.pid), steal)


def slices(phase: Phase) -> Tuple[List[float], List[float], List[int], List[float]]:
    """Per :data:`SLICE_S` slice of the timed window: the median server
    exchange time (ms) of the exchanges that ended in it, the server CPU
    microseconds per decision answered (without the speed-reference
    calls), the steal jiffies on the server's and the generator's CPUs,
    and the server's slowdown from its reference calls.  Slices without
    answers or without reference calls are left out."""
    marks = phase.drive.marks
    n = len(marks) - 1
    bounds = [m[0] for m in marks]
    exchange_ms: List[List[float]] = [[] for _ in range(n)]
    for end, latency_us in phase.dump["exchanges"]:
        j = bisect.bisect_right(bounds, end) - 1
        if 0 <= j < n:
            exchange_ms[j].append(latency_us / 1e3)
    answered = [0] * n
    for unit, ex in zip(phase.units[phase.warmup :], phase.timed):
        j = bisect.bisect_right(bounds, ex.done) - 1
        if ex.done and 0 <= j < n:
            answered[j] += len(unit)
    references = host.window_references(phase.dump["references"], bounds)
    kept = [j for j in range(n) if exchange_ms[j] and answered[j] and references[j][1]]
    return (
        [statistics.median(exchange_ms[j]) for j in kept],
        [(marks[j + 1][1] - marks[j][1] - references[j][0]) * 1e6 / answered[j]
         for j in kept],
        [marks[j + 1][2] - marks[j][2] for j in kept],
        [host.slowdown(*references[j]) for j in kept],
    )


def normalised(phase: Phase) -> Tuple[float, float]:
    """``(p50 ms, CPU us per decision)``: each slice's median exchange
    time and CPU cost divided by the server CPU's slowdown in it, and the
    median over the slices of each.  The exchange is the server's CPU
    work, so it follows the vCPU's speed slice by slice as the CPU cost
    does."""
    p50s, cpu, _, slow = slices(phase)
    return (
        statistics.median(p / f for p, f in zip(p50s, slow)),
        statistics.median(c / f for c, f in zip(cpu, slow)),
    )


def end_to_end(phase: Phase) -> host.Metrics:
    p50_ms, cpu_us = normalised(phase)
    m = host.Metrics()
    span = phase.drive.t_end - phase.drive.t0
    m.add("decisions_per_s", phase.decisions / span if span > 0 else 0.0, "decisions/s")
    m.add("p50_ms", p50_ms, "ms")
    m.add("cpu_us_per_decision", cpu_us, "us")
    m.add("peak_rss_mb", phase.rss_mb, "MB")
    return m


def window(dump: dict) -> Tuple[dict, List[float]]:
    """Layer totals and server CPU seconds between the server's two window
    marks, and the exchange spans (us) that ended between them."""
    first, last = dump["marks"][0], dump["marks"][-1]
    totals = {
        key: {k: v - first[key].get(k, 0) for k, v in last[key].items()}
        for key in ("self_ns", "calls", "items")
    }
    totals["cpu_s"] = last["cpu_s"] - first["cpu_s"]
    exchanges = [us for end, us in dump["exchanges"] if first["t"] <= end <= last["t"]]
    return totals, exchanges


def client_metrics(phase: Phase, server_exchange_us: float) -> host.Metrics:
    timed = [ex for ex in phase.timed if ex.done]
    latencies = sorted((ex.done - ex.due) * 1e3 for ex in timed)
    lateness = sorted((ex.sent - ex.due) * 1e3 for ex in timed)
    client_us = sum((ex.done - ex.sent) * 1e6 for ex in timed) / max(len(timed), 1)
    m = host.Metrics()
    m.add("service.client.wait_us", client_us - server_exchange_us, "us")
    m.add("service.client.late_ms", host.percentile(lateness, 0.99), "ms")
    m.add("service.client.p90_ms", host.percentile(latencies, 0.90), "ms")
    m.add("service.client.p99_ms", host.percentile(latencies, 0.99), "ms")
    m.add("service.client.p99_n", len(latencies), "count")
    m.add("service.client.bytes_per_decision",
          phase.drive.wire_bytes / max(phase.decisions, 1), "B")
    return m


#: Server layers below the event loop, per decision.
SERVICE_LAYERS = {
    "service.protocol.decode_us": ("service.protocol.decode", "us"),
    "service.protocol.encode_us": ("service.protocol.encode", "us"),
    "service.server.decide_us": ("service.server.decide", "us"),
    "service.prior.update_us": ("service.prior.update", "us"),
    "core.table.lookup_us": ("core.table.lookup", "us"),
    "core.table.lookups": ("core.table.lookup", "items"),
}


def server_layers(phase: Phase) -> Tuple[host.Metrics, float, float]:
    """Per-decision server layers over the traced window.

    ``service.server.http_us`` is the event loop's self time: each
    iteration's bookkeeping and its callbacks (transport reads, head
    parse, body read, response write, the micro-batch flush) and the
    CPU time of its poll for I/O, less the named layers below them.
    Returns the metrics, the traced time (the server's CPU seconds in the
    window) and the share of it spent inside named layers.  The spans
    are wall time, so on a host that steals CPU the share can read a
    little above 1.
    """
    dump, doc = phase.dump, phase.metrics
    totals, exchanges = window(dump)
    per = 1.0 / max(phase.decisions, 1)
    m = host.Metrics()
    m.add("service.server.exchange_us", sum(exchanges) * per, "us")
    m.add("service.server.http_us",
          totals["self_ns"].get("service.server.http", 0) / 1e3 * per, "us")
    for name, value, unit in per_decision(totals, phase.decisions, SERVICE_LAYERS):
        m.add(name, value, unit)
    for name, (value, unit) in setup_metrics(dump).items():
        m.add(name, value, unit)
    reasons = doc.get("fallback_reasons", {})
    for reason in ("over-budget", "no-table", "malformed"):
        m.add(f"service.server.degraded.{reason}", reasons.get(reason, 0), "count")
    served = sum(doc["decisions"].get(k, 0) for k in ("table", "fallback", "controller"))
    m.add("service.server.table_ratio", doc["decisions"].get("table", 0) / max(served, 1),
          "ratio")
    occupancy = doc.get("batch_occupancy", {})
    flushes = sum(occupancy.values())
    m.add("service.server.batch_size",
          sum(int(k) * v for k, v in occupancy.items()) / max(flushes, 1), "count")
    m.update(client_metrics(phase, sum(exchanges) / max(len(exchanges), 1)))
    # The speed-reference calls are the benchmark's measuring, not the
    # server's work: they are left out of the traced time.
    reference_s = totals["self_ns"].get(REFERENCE_LAYER, 0) / 1e9
    traced_s = totals["cpu_s"] - reference_s
    named_s = sum(totals["self_ns"].values()) / 1e9 - reference_s
    attributed = named_s / traced_s if traced_s > 0 else 0.0
    return m, traced_s, attributed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one serving workload; returns the result record for run.py."""
    spec = SPECS[workload]
    warmup = WARMUP_UNITS[workload]
    server_cpu, client_cpu = host.cpu_plan()
    host.pin(0, client_cpu)
    calib_before = host.calibration_ms()

    units = int(round(spec.rate * seconds))
    servers = 2 if trace else 1
    requests = player_requests(
        seed, (units + servers * warmup) * spec.records, family=not spec.binary
    )
    traffic = build_traffic(spec, requests)
    if trace:
        # Half the window untraced, half traced: the overhead comparison.
        cut = warmup + units // 2
        halves = [
            (Traffic(traffic.units[:cut], traffic.wire[:cut]),
             arrival_times(seed, units // 2, seconds / 2)),
            (Traffic(traffic.units[cut:], traffic.wire[cut:]),
             arrival_times(seed + 1, units - units // 2, seconds / 2)),
        ]
    else:
        halves = [(traffic, arrival_times(seed, units, seconds))]

    phases = []
    setups = []
    for index, (part, arrivals) in enumerate(halves):
        traced = trace and index == 1
        out_path = str(host.RUN_DIR / f"server-{workload}-{index}.json")
        spawns = SETUP_SAMPLES if not trace else 1
        server = None
        try:
            for attempt in range(spawns):
                server = Server(server_cpu, out_path, layers=traced)
                setups.append(server.setup_s)
                if attempt < spawns - 1:
                    server.stop()
                    server = None
            phase = run_phase(server, part, arrivals, warmup, (server_cpu, client_cpu))
        finally:
            dump = server.stop() if server is not None else None
        if dump is None or len(dump.get("marks", ())) < 2:
            raise RuntimeError(f"server {index} wrote no window marks to {out_path}")
        phase.dump = dump
        phases.append(phase)

    table = reference_table()
    attempted = failed = digest = 0
    degraded: Dict[str, int] = {}
    for (part, _), phase in zip(halves, phases):
        a, f, d, g = check_answers(spec, part.units, phase.drive.exchanges,
                                   reference_service(table))
        attempted += a + 1  # every answer, and the server's shared prior
        failed += f + (not check_priors(phase.metrics.get("priors", {}), part.units))
        digest += g
        for k, v in d.items():
            degraded[k] = degraded.get(k, 0) + v
    calib_after = host.calibration_ms()

    metrics = host.Metrics()
    diag = {"degraded": degraded, "setup_samples_s": setups, "digest": digest}
    first = phases[0]
    if not trace:
        metrics.update(end_to_end(first))
        metrics.add("setup_s", statistics.median(setups), "s")
    else:
        layers, traced_s, attributed = server_layers(phases[1])
        metrics.update(layers)
        overhead = normalised(phases[1])[1] / normalised(phases[0])[1] - 1.0
        metrics.add("bench.trace_overhead", overhead, "ratio")
        metrics.add("bench.traced_s", traced_s, "s")
        metrics.add("bench.attributed_share", attributed, "ratio")
        metrics.add("bench.steal_share", phases[1].steal, "ratio")
        metrics.add("bench.calib_ms", calib_before, "ms")
        metrics.add("bench.calib_after_ms", calib_after, "ms")
        metrics.add("bench.digest", digest, "count")
    diag["steal_share"] = first.steal
    diag["calib_ms"] = (calib_before, calib_after)
    p50s, cpu, steal, slow = slices(first)
    diag["slices"] = {"p50_ms": [round(v, 4) for v in p50s],
                      "cpu_us": [round(v, 2) for v in cpu], "steal": steal,
                      "slowdown": [round(v, 4) for v in slow]}
    diag["raw_figures"] = (statistics.median(p50s), statistics.median(cpu))
    timed = [ex for ex in first.timed if ex.done]
    latencies = sorted((ex.done - ex.due) * 1e3 for ex in timed)
    q = host.tail_percentile(len(latencies))
    diag["client_latency_ms"] = {
        "n": len(latencies),
        "p50": host.percentile(latencies, 0.5),
        "p90": host.percentile(latencies, 0.9),
        "p99": host.percentile(latencies, 0.99),
        f"p{q * 100:g}": host.percentile(latencies, q),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": diag,
    }
