"""Closed-loop, trace-driven load generation for the decision service.

Each virtual session plays one throughput trace with the simulator's
own player step (:class:`~repro.sim.session.PlayerState`: Eqs. 1–4,
the Eq. 4 wait at a full buffer, the startup delay, trace binding and
predictor feedback).  Per chunk it predicts (the paper's harmonic mean
of the last 5 chunks unless ``predictors`` routes otherwise), asks the
server for a level, downloads the chunk at the trace's bandwidth, and
only then issues the next request — closed-loop, so offered load tracks
service capacity instead of overrunning it.  ``concurrency`` session
workers drain sessions from a shared queue, which is exactly the
many-players / one-backend shape the multiplayer follow-up paper
measures.

Sessions in flight and connections on the wire are independent knobs:
the ``connections`` pool bounds how many TCP connections the generator
holds (``concurrency`` workers lease a pooled keep-alive client per
request), so driving 64 concurrent sessions no longer implies 64
connections — raising session concurrency used to silently raise the
connection fan-out with it, which both overstated the per-connection
capacity of a sharded server and made the offered rate depend on the
session count.  With ``connections=c`` against a server whose per-request
service time is ``s``, the closed loop's offered rate is ``c / s`` —
the invariant the cluster scale tests pin down.

The report carries client-observed latency (histogram + quantiles),
decision-source and degradation breakdowns, throughput in decisions per
second, each completed session's Eq. 5 QoE (``SessionResult.qoe()``),
and a hard error count — the acceptance bar for a cold server is *zero*
errors with every decision served by the fallback.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Awaitable,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..abr.base import ABRAlgorithm, DownloadResult, PlayerObservation, SessionConfig
from ..prediction.base import OBSERVATION_FLOOR_KBPS, ThroughputPredictor, TraceAware
from ..prediction.errors import percentage_error
from ..prediction.harmonic import HarmonicMeanPredictor
from ..prediction.registry import make_predictor
from ..sim.session import PlayerState
from ..traces.trace import Trace
from ..video.manifest import BitrateLadder, VideoManifest
from ..video.presets import (
    DEFAULT_BUFFER_CAPACITY_S,
    ENVIVIO_CHUNK_SECONDS,
    ENVIVIO_LADDER_KBPS,
)
from .client import RetryPolicy, ServiceClient, ServiceUnavailable
from .metrics import LatencyHistogram
from .protocol import MAX_BATCH_RECORDS, DecisionRequest

__all__ = [
    "LoadTestConfig",
    "LoadTestReport",
    "open_loop_arrivals",
    "run_loadtest",
    "run_loadtest_sync",
]

#: Past prediction errors each request carries: RobustMPC's window of
#: the last 5 chunks (Section 7.1.2).
_ERROR_WINDOW = 5


@dataclass(frozen=True)
class LoadTestConfig:
    """Shape of one load test run."""

    sessions: int = 32
    chunks_per_session: int = 65
    concurrency: int = 8
    #: TCP connections the generator keeps open (the client pool size);
    #: ``None`` means one per session worker, the historical behaviour.
    connections: Optional[int] = None
    dataset: str = "fcc"
    seed: int = 0
    trace_duration_s: float = 320.0
    deadline_s: float = 2.0
    ladder_kbps: Tuple[float, ...] = ENVIVIO_LADDER_KBPS
    chunk_duration_s: float = ENVIVIO_CHUNK_SECONDS
    buffer_capacity_s: float = DEFAULT_BUFFER_CAPACITY_S
    #: Wire encoding: ``"json"`` (one request per HTTP exchange) or
    #: ``"binary"`` (compact frames; concurrent workers' requests are
    #: coalesced into multi-record frames, which the server answers
    #: with one batch decision per frame).
    protocol: str = "json"
    #: Client-side retry policy (None = single attempt per decision).
    retry: Optional[RetryPolicy] = None
    #: Serve a decision locally (rate-based rule) when the server cannot
    #: — sessions then always run to completion, the availability story
    #: a real player needs when the decision backend dies mid-stream.
    local_fallback: bool = True
    #: Predictor registry names routed round-robin over sessions (see
    #: :mod:`repro.prediction.registry`); session ``i`` predicts with
    #: ``predictors[i % len]``, trace-aware ones bound to its trace, and
    #: gets the player's feedback (download, idle and stall times), so
    #: gap-corrected predictors engage.  Empty = the paper's harmonic
    #: mean for every session, not broken out in ``report.predictors``.
    predictors: Tuple[str, ...] = ()
    #: Trace-family key stamped on every request (JSON protocol only);
    #: the server pools the sessions' samples into one shared prior and
    #: answers with ``prior_kbps``.
    family: Optional[str] = None
    #: Open-loop mode: sessions *arrive* on a deterministic wall-clock
    #: schedule instead of being drained from a fixed queue — offered
    #: load no longer tracks service capacity, which is the regime that
    #: exposes overload behaviour.  The arrival rate follows a diurnal
    #: sinusoid, optionally with a step burst (a flash crowd).
    open_loop: bool = False
    arrival_rate_hz: float = 16.0
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 10.0
    burst_at_s: Optional[float] = None
    burst_sessions: int = 0

    def __post_init__(self) -> None:
        if self.sessions < 1 or self.chunks_per_session < 1:
            raise ValueError("need at least one session and one chunk")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.connections is not None and self.connections < 1:
            raise ValueError("connections must be >= 1")
        if not self.ladder_kbps:
            raise ValueError("ladder must be non-empty")
        if self.protocol not in ("json", "binary"):
            raise ValueError("protocol must be 'json' or 'binary'")
        if self.family is not None and self.protocol != "json":
            raise ValueError("family-keyed sessions require the json protocol")
        # ``0 < x < inf`` also refuses NaN, which passes an ``x <= 0``
        # test and leaves the open-loop arrival schedule spinning.
        for name in (
            "arrival_rate_hz",
            "diurnal_period_s",
            "trace_duration_s",
            "deadline_s",
            "chunk_duration_s",
            "buffer_capacity_s",
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number > 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.burst_sessions < 0:
            raise ValueError("burst_sessions must be >= 0")
        if self.burst_at_s is not None and not 0.0 <= self.burst_at_s < math.inf:
            raise ValueError("burst_at_s must be a finite number >= 0")


@dataclass
class LoadTestReport:
    """Aggregated outcome of a load test."""

    decisions: int = 0
    errors: int = 0
    degraded: int = 0
    sessions_completed: int = 0
    #: Decisions the client had to serve itself (server unreachable /
    #: exhausted retries); also counted in ``decisions`` under the
    #: ``local`` source.
    local_fallbacks: int = 0
    wall_s: float = 0.0
    sources: Dict[str, int] = field(default_factory=dict)
    reasons: Dict[str, int] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    qoe_sum: float = 0.0
    qoe_count: int = 0
    #: Per-experiment-arm outcomes (decisions, degraded, sessions, QoE),
    #: keyed by the arm names the server stamps on responses.  Empty when
    #: the server runs no experiment.
    arms: Dict[str, dict] = field(default_factory=dict)
    #: Per-predictor outcomes when ``config.predictors`` routes sessions
    #: across the predictor registry; empty when it does not.
    predictors: Dict[str, dict] = field(default_factory=dict)
    #: Responses that carried a shared-prior estimate (family-keyed runs).
    prior_hits: int = 0

    def arm_stats(self, name: str) -> dict:
        stats = self.arms.get(name)
        if stats is None:
            stats = self.arms[name] = {
                "decisions": 0,
                "degraded": 0,
                "sessions": 0,
                "qoe_sum": 0.0,
                "qoe_count": 0,
            }
        return stats

    def predictor_stats(self, name: str) -> dict:
        stats = self.predictors.get(name)
        if stats is None:
            stats = self.predictors[name] = {
                "decisions": 0,
                "sessions": 0,
                "qoe_sum": 0.0,
                "qoe_count": 0,
            }
        return stats

    @property
    def throughput_dps(self) -> float:
        """Completed decisions per second of wall time."""
        return self.decisions / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def p50_us(self) -> float:
        return self.latency.quantile(0.50)

    @property
    def p95_us(self) -> float:
        return self.latency.quantile(0.95)

    @property
    def p99_us(self) -> float:
        return self.latency.quantile(0.99)

    @property
    def qoe_mean(self) -> float:
        """Mean Eq. 5 QoE over completed sessions (0 when none)."""
        return _qoe_mean(self.qoe_sum, self.qoe_count)

    def to_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "errors": self.errors,
            "degraded": self.degraded,
            "sessions_completed": self.sessions_completed,
            "local_fallbacks": self.local_fallbacks,
            "wall_s": self.wall_s,
            "throughput_dps": self.throughput_dps,
            "sources": dict(self.sources),
            "reasons": dict(self.reasons),
            "latency_us": self.latency.to_dict(),
            "qoe_mean": self.qoe_mean,
            "prior_hits": self.prior_hits,
            "predictors": _with_qoe_means(self.predictors),
            "arms": _with_qoe_means(self.arms),
        }

    def describe(self) -> str:
        lines = [
            f"decisions {self.decisions} in {self.wall_s:.2f}s"
            f" -> {self.throughput_dps:,.0f} decisions/s",
            f"latency p50 {self.p50_us:,.0f} us | p95 {self.p95_us:,.0f} us"
            f" | p99 {self.p99_us:,.0f} us",
            f"sources {self.sources} | degraded {self.degraded}"
            f" | errors {self.errors}",
            f"sessions completed {self.sessions_completed}"
            f" | mean QoE {self.qoe_mean:.1f}",
        ]
        if self.local_fallbacks:
            lines.append(f"local fallbacks {self.local_fallbacks}")
        if self.reasons:
            lines.append(f"degradation reasons {self.reasons}")
        if self.prior_hits:
            lines.append(f"prior-carrying responses {self.prior_hits}")
        for name, stats in _with_qoe_means(self.predictors).items():
            lines.append(
                f"predictor {name}: {stats['decisions']} decisions"
                f" | {stats['sessions']} sessions"
                f" | mean QoE {stats['qoe_mean']:.1f}"
            )
        for name, stats in _with_qoe_means(self.arms).items():
            lines.append(
                f"arm {name}: {stats['decisions']} decisions"
                f" | {stats['sessions']} sessions"
                f" | degraded {stats['degraded']}"
                f" | mean QoE {stats['qoe_mean']:.1f}"
            )
        return "\n".join(lines)


def _qoe_mean(qoe_sum: float, qoe_count: int) -> float:
    return qoe_sum / qoe_count if qoe_count else 0.0


def _with_qoe_means(groups: Dict[str, dict]) -> Dict[str, dict]:
    """Per-arm or per-predictor stats, sorted by name, each with its
    ``qoe_mean``."""
    return {
        name: {**stats, "qoe_mean": _qoe_mean(stats["qoe_sum"], stats["qoe_count"])}
        for name, stats in sorted(groups.items())
    }


class _ServedLevel(ABRAlgorithm):
    """A load-generator session's side of each chunk, behind the
    interface :class:`PlayerState` consumes: the level the server
    answered (or the local rule chose), the session's predictor, and
    the past prediction errors its requests carry."""

    name = "loadgen"

    def __init__(self, predictor: ThroughputPredictor, first_kbps: float) -> None:
        self.predictor = predictor
        self.level = 0
        #: The pending request's prediction.  The first request carries
        #: the trace's first sample, not the predictor's cold-start rate.
        self.predicted_kbps = first_kbps
        self.past_errors: Deque[float] = deque(maxlen=_ERROR_WINDOW)

    def predictors(self) -> Tuple[ThroughputPredictor, ...]:
        return (self.predictor,)

    def predict(self, t: float) -> float:
        """The next request's prediction, made at request time ``t``
        (which a trace-aware predictor is told first)."""
        predictor = self.predictor
        if isinstance(predictor, TraceAware):
            predictor.set_wall_time(t)
        self.predicted_kbps = max(predictor.predict(1)[0], OBSERVATION_FLOOR_KBPS)
        return self.predicted_kbps

    def select_bitrate(self, observation: PlayerObservation) -> int:
        return self.level

    def on_download_complete(self, result: DownloadResult) -> None:
        super().on_download_complete(result)
        self.past_errors.append(
            percentage_error(self.predicted_kbps, result.throughput_kbps)
        )


def _make_traces(config: LoadTestConfig) -> List[Trace]:
    # Imported here so the service package keeps no hard dependency on
    # the trace generators when callers supply their own traces.
    from ..traces import make_generator

    generator = make_generator(config.dataset, seed=config.seed)
    return generator.generate_many(config.sessions, config.trace_duration_s)


class _ClientPool:
    """A fixed-size pool of keep-alive clients leased one request at a
    time, so connection fan-out is bounded independently of how many
    sessions are in flight.

    In binary mode the pool also coalesces: session workers that ask
    for a decision in the same event-loop tick are merged into one
    multi-record frame sent over a single leased connection (the only
    place batches are built; the server answers each frame as one
    batch), so ``n`` concurrent sessions cost one HTTP exchange per
    tick instead of ``n``.
    """

    def __init__(self, host: str, port: int, size: int, config: LoadTestConfig) -> None:
        self.size = size
        self._clients = [
            ServiceClient(
                host,
                port,
                deadline_s=config.deadline_s,
                retry=config.retry,
                protocol=config.protocol,
            )
            for _ in range(size)
        ]
        self._free: "asyncio.Queue[ServiceClient]" = asyncio.Queue()
        for client in self._clients:
            self._free.put_nowait(client)
        self._coalesce = config.protocol == "binary"
        self._pending: List[Tuple[DecisionRequest, "asyncio.Future"]] = []
        self._flush_scheduled = False

    async def decide(self, request: DecisionRequest):
        if not self._coalesce:
            client = await self._free.get()
            try:
                return await client.decide(request)
            finally:
                self._free.put_nowait(client)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((request, future))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._spawn_flush)
        return await future

    def _spawn_flush(self) -> None:
        self._flush_scheduled = False
        asyncio.ensure_future(self._flush())

    async def _flush(self) -> None:
        pending, self._pending = self._pending, []
        if not pending:
            return
        # A frame carries at most MAX_BATCH_RECORDS records; overflow
        # (only possible with thousands of workers) ships separately.
        for start in range(0, len(pending), MAX_BATCH_RECORDS):
            chunk = pending[start : start + MAX_BATCH_RECORDS]
            client = await self._free.get()
            try:
                responses = await client.decide_many([r for r, _ in chunk])
            except BaseException as exc:
                for _, future in chunk:
                    if not future.done():
                        future.set_exception(exc)
                continue
            finally:
                self._free.put_nowait(client)
            for (_, future), response in zip(chunk, responses):
                if not future.done():
                    future.set_result(response)

    async def close(self) -> None:
        for client in self._clients:
            await client.close()


async def _drive_session(
    pool: _ClientPool,
    manifest: VideoManifest,
    config: LoadTestConfig,
    report: LoadTestReport,
    index: int,
    trace: Trace,
) -> None:
    """Play session ``index`` over ``trace`` to completion against the
    service.

    Each chunk is one :class:`PlayerState` step: the request carries the
    state's buffer and previous level, the session's prediction and its
    past errors; the answered level goes through ``decide``, the trace
    inversion gives the download, and ``settle`` accounts it (Eq. 3 and
    the Eq. 4 wait) and sets the next request time.

    The pooled clients never dial eagerly: a connection is established
    (and re-established) inside each request, so a server that is down
    when the run starts — or dies mid-run — costs decisions, not the
    whole session.  With ``config.local_fallback`` on, every decision
    the service cannot serve is answered locally with the rate-based
    rule and the session runs to completion regardless.  Reported
    latency is client-observed end to end — a lease that waits on a
    saturated pool is real queueing delay, so it counts.
    """
    session_id = f"session-{index:05d}"
    names = config.predictors
    served = _ServedLevel(
        make_predictor(names[index % len(names)]) if names else HarmonicMeanPredictor(),
        max(trace.bandwidth_at(0.0), OBSERVATION_FLOOR_KBPS),
    )
    pred_stats = report.predictor_stats(served.predictor.name) if names else None
    player = PlayerState(
        served,
        trace,
        manifest,
        SessionConfig(buffer_capacity_s=config.buffer_capacity_s),
        session_id=session_id,
    )
    ladder = manifest.ladder
    # A session's requests all hash to one arm, so the first armed
    # response labels the whole session for the per-arm QoE rollup.
    session_arm: Optional[str] = None
    for k in range(config.chunks_per_session):
        t = player.wall_time_s
        request = DecisionRequest(
            session_id=session_id,
            buffer_s=player.buffer_s,
            predicted_kbps=served.predict(t) if k else served.predicted_kbps,
            prev_level=player.prev_level,
            past_errors=tuple(served.past_errors),
            family=config.family,
        )
        started = time.perf_counter()
        try:
            response = await pool.decide(request)
        except ServiceUnavailable:
            report.errors += 1
            if not config.local_fallback:
                return
            report.local_fallbacks += 1
            source = "local"
            # The same decision the server's fallback path would make.
            served.level = ladder.highest_at_most(request.predicted_kbps)
        else:
            report.latency.observe((time.perf_counter() - started) * 1e6)
            source = response.source
            if response.degraded:
                report.degraded += 1
                key = response.reason or "unknown"
                report.reasons[key] = report.reasons.get(key, 0) + 1
            if response.prior_kbps is not None:
                report.prior_hits += 1
            if response.arm is not None:
                session_arm = response.arm
                arm_stats = report.arm_stats(response.arm)
                arm_stats["decisions"] += 1
                if response.degraded:
                    arm_stats["degraded"] += 1
            # The answer comes from outside the program: clamp it.
            served.level = min(max(response.level_index, 0), len(ladder) - 1)
        report.decisions += 1
        report.sources[source] = report.sources.get(source, 0) + 1
        if pred_stats is not None:
            pred_stats["decisions"] += 1
        level = player.decide(t)
        download_s, stall_s = trace.download_time_and_stall(
            t, manifest.chunk_size_kilobits(k, level)
        )
        player.settle(download_s, stall_s, t + download_s)
    qoe = player.finish().qoe().total
    report.sessions_completed += 1
    report.qoe_sum += qoe
    report.qoe_count += 1
    if session_arm is not None:
        _count_session(report.arm_stats(session_arm), qoe)
    if pred_stats is not None:
        _count_session(pred_stats, qoe)


def _count_session(stats: dict, qoe: float) -> None:
    stats["sessions"] += 1
    stats["qoe_sum"] += qoe
    stats["qoe_count"] += 1


async def _session_worker(
    pool: _ClientPool,
    manifest: VideoManifest,
    config: LoadTestConfig,
    report: LoadTestReport,
    queue: Iterator[Tuple[int, Trace]],
) -> None:
    """One closed-loop worker playing sessions from the shared ``queue``
    (one iterator for every worker) until it runs out."""
    for index, trace in queue:
        await _drive_session(pool, manifest, config, report, index, trace)


async def _arriving_session(
    pool: _ClientPool,
    manifest: VideoManifest,
    config: LoadTestConfig,
    report: LoadTestReport,
    index: int,
    trace: Trace,
    arrival_s: float,
    started: float,
) -> None:
    """One open-loop session: sleep until its arrival instant, then run."""
    delay = arrival_s - (time.perf_counter() - started)
    if delay > 0:
        await asyncio.sleep(delay)
    await _drive_session(pool, manifest, config, report, index, trace)


def open_loop_arrivals(config: LoadTestConfig) -> List[float]:
    """Deterministic arrival instants (seconds) for the open-loop mode.

    The instantaneous arrival rate is the diurnal sinusoid
    ``rate * (1 + amplitude * sin(2*pi*t / period))``, integrated with a
    credit accumulator (one arrival per accumulated unit) — no random
    draws, so the same config always produces the same schedule.  A
    configured burst injects ``burst_sessions`` arrivals at the burst
    instant, on top of the sinusoid.  Exactly ``config.sessions``
    instants are returned, in non-decreasing order.
    """
    times: List[float] = []
    dt = 0.005
    credit = 0.0
    t = 0.0
    burst_pending = (
        config.burst_sessions if config.burst_at_s is not None else 0
    )
    while len(times) < config.sessions:
        if burst_pending and config.burst_at_s is not None and t >= config.burst_at_s:
            while burst_pending and len(times) < config.sessions:
                times.append(config.burst_at_s)
                burst_pending -= 1
        rate = config.arrival_rate_hz * (
            1.0
            + config.diurnal_amplitude
            * math.sin(2.0 * math.pi * t / config.diurnal_period_s)
        )
        credit += max(rate, 0.0) * dt
        while credit >= 1.0 and len(times) < config.sessions:
            times.append(t)
            credit -= 1.0
        t += dt
    return times


async def run_loadtest(
    host: str,
    port: int,
    config: Optional[LoadTestConfig] = None,
    traces: Optional[Sequence[Trace]] = None,
) -> LoadTestReport:
    """Drive the full closed loop against a running server.

    ``traces`` defaults to ``config.sessions`` generated traces from
    ``config.dataset``; when supplied explicitly, one session is run per
    trace (cycling the config's session count is the caller's business).
    Every session plays the same CBR video: ``chunks_per_session`` chunks
    of ``chunk_duration_s`` at ``ladder_kbps``.
    """
    config = config if config is not None else LoadTestConfig()
    trace_list = list(traces) if traces is not None else _make_traces(config)
    if not trace_list:
        raise ValueError("need at least one trace")
    manifest = VideoManifest.cbr(
        config.chunk_duration_s,
        BitrateLadder(config.ladder_kbps),
        config.chunks_per_session,
    )
    report = LoadTestReport()
    if config.open_loop:
        # Open loop: every session gets its own task, gated only by its
        # arrival instant — in-flight sessions are unbounded by design
        # (connections stay pooled, so the wire fan-out is still capped).
        schedule_config = (
            config
            if len(trace_list) == config.sessions
            else replace(config, sessions=len(trace_list))
        )
        arrivals = open_loop_arrivals(schedule_config)
        pool_size = config.concurrency

        def sessions(pool: _ClientPool, started: float) -> Iterable[Awaitable[None]]:
            return (
                _arriving_session(
                    pool, manifest, config, report, index, trace, arrival, started
                )
                for (index, trace), arrival in zip(enumerate(trace_list), arrivals)
            )

    else:
        queue = enumerate(trace_list)
        pool_size = workers = min(config.concurrency, len(trace_list))

        def sessions(pool: _ClientPool, started: float) -> Iterable[Awaitable[None]]:
            return (
                _session_worker(pool, manifest, config, report, queue)
                for _ in range(workers)
            )

    if config.connections is not None:
        pool_size = config.connections
    await _run_sessions(host, port, pool_size, config, report, sessions)
    return report


async def _run_sessions(
    host: str,
    port: int,
    pool_size: int,
    config: LoadTestConfig,
    report: LoadTestReport,
    sessions: Callable[[_ClientPool, float], Iterable[Awaitable[None]]],
) -> None:
    """Run the coroutines ``sessions(pool, started)`` makes on one pool of
    ``pool_size`` clients, ``started`` being the run's start on the
    ``perf_counter`` clock; records the wall time and counts sessions
    that escaped with :class:`ServiceUnavailable` as errors."""
    pool = _ClientPool(host, port, pool_size, config)
    started = time.perf_counter()
    try:
        results = await asyncio.gather(
            *sessions(pool, started), return_exceptions=True
        )
    finally:
        report.wall_s = time.perf_counter() - started
        await pool.close()
    for outcome in results:
        if isinstance(outcome, ServiceUnavailable):
            report.errors += 1
        elif isinstance(outcome, BaseException):
            raise outcome


def run_loadtest_sync(
    host: str,
    port: int,
    config: Optional[LoadTestConfig] = None,
    traces: Optional[Sequence[Trace]] = None,
) -> LoadTestReport:
    """Blocking wrapper for CLI use."""
    return asyncio.run(run_loadtest(host, port, config, traces))
