"""The chunk-level trace-driven simulator (Section 7.3's framework).

*"The simulation takes as input a throughput trace and models the video
download/playback process and the buffer dynamics.  At time t_k when the
bitrate of chunk k is needed, the simulation calls the bitrate controller
embedded with different algorithms to get R_k."*

The engine implements Eqs. (1)–(4) exactly:

* download time of chunk ``k`` is obtained by inverting the trace
  integral (Eq. 1/2) — no per-chunk constant-throughput approximation;
* the buffer drains in real time while downloading, gains ``L`` per
  completed chunk, and rebuffering accrues whenever a download outlasts
  the buffer (Eq. 3);
* a full buffer forces the Eq. (4) pause before the next request;
* playback start is governed by a :class:`StartupPolicy` — immediately
  after the first chunk (real players; the default), at a fixed delay
  (the Figure 11d experiment), or extended by the algorithm's own
  ``f_stmpc`` startup decision.

Every decision flows through the :class:`~repro.abr.base.ABRAlgorithm`
interface, so the simulator runs the paper's algorithms and any
user-supplied one interchangeably.

What one chunk does to a player (the decision, Eq. 3's drain and
rebuffer, the startup wait, Eq. 4's pacing wait, the records and the
trace events) is one :class:`PlayerState` step, which the emulated
client (:mod:`repro.emulation.client`) drives too, around its
byte-level downloads.  One private loop runs that step against the
trace: :func:`simulate_session` on demand, with every chunk available at
``t = 0``; :func:`repro.sim.live.run_live_session` with a publish
schedule, which adds the wait at the live edge, the published prefix
each decision sees, and each chunk's fetch latency.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..abr.base import (
    ABRAlgorithm,
    DownloadResult,
    PlayerObservation,
    SessionConfig,
)
from ..core.qoe import QoEBreakdown, compute_qoe
from ..faults.simlink import SimLinkFaults
from ..obs.events import (
    ChunkDecision,
    ChunkDownload,
    PredictionSpan,
    Rebuffer,
    SessionSummary,
)
from ..obs.tracer import Tracer
from ..prediction.base import (
    OBSERVATION_FLOOR_KBPS,
    ThroughputObservation,
    TraceAware,
)
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .metrics import SessionMetrics

__all__ = ["PlayerState", "StartupPolicy", "SessionResult", "simulate_session"]

_INFINITY = math.inf


class StartupPolicy(enum.Enum):
    """When playback begins relative to downloading."""

    FIRST_CHUNK = "first-chunk"  # play as soon as chunk 1 arrives (+ algo wait)
    FIXED = "fixed"  # play at a fixed wall-clock delay (Figure 11d)


@dataclass(frozen=True)
class SessionResult:
    """Everything observed during one simulated playback session."""

    algorithm_name: str
    trace_name: str
    records: tuple  # DownloadResult per chunk, in order
    startup_delay_s: float
    total_rebuffer_s: float
    total_wall_time_s: float
    config: SessionConfig

    @property
    def bitrates_kbps(self) -> List[float]:
        return [r.bitrate_kbps for r in self.records]

    @property
    def level_indices(self) -> List[int]:
        return [r.level_index for r in self.records]

    def qoe(self, weights=None, include_startup: bool = True) -> QoEBreakdown:
        """Score the session under Eq. 5 (optionally re-weighted)."""
        breakdown = compute_qoe(
            self.bitrates_kbps,
            self.total_rebuffer_s,
            self.startup_delay_s,
            weights if weights is not None else self.config.weights,
            self.config.quality,
        )
        return breakdown if include_startup else breakdown.without_startup()

    def metrics(self) -> SessionMetrics:
        return SessionMetrics.from_session(self)


def simulate_session(
    algorithm: ABRAlgorithm,
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
    fixed_startup_delay_s: float = 0.0,
    tracer: Optional[Tracer] = None,
    session_id: str = "",
    link_faults: Optional[Iterable] = None,
    fault_seed: int = 0,
) -> SessionResult:
    """Play the whole video once and return the session log.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.abr.base.ABRAlgorithm`; it is ``prepare()``-d
        here, so instances may be reused across sessions.
    startup_policy / fixed_startup_delay_s:
        ``FIRST_CHUNK`` starts playback when the first chunk arrives plus
        the algorithm's optional extra wait; ``FIXED`` starts at the given
        wall-clock delay exactly (Section 7.3's startup experiment), which
        must be a finite number >= 0.
    tracer / session_id:
        When a :class:`repro.obs.Tracer` is given, the session emits the
        full per-chunk event timeline (decision, download, rebuffer,
        per-predictor prediction spans) plus a closing summary, and
        attaches itself to the algorithm so solver and table profiling
        hooks fire too.  ``session_id`` defaults to
        ``"<algorithm>:<trace>"``.
    link_faults / fault_seed:
        Per-transfer fault specs (:class:`LatencySpike` /
        :class:`ChunkFailure`) drawn by a seeded
        :class:`~repro.faults.simlink.SimLinkFaults`, the injector the
        emulated client asks too: a failed attempt is retried at the
        decided level (at most 64 failures per chunk), and each chunk's
        fault overhead is dead wall time, counted into both the download
        time and the chunk's ``stalled_s``.  Bandwidth faults belong in
        the trace (:func:`~repro.faults.trace.apply_trace_faults`).
    """
    session, _, _, _ = _play_session(
        algorithm,
        trace,
        manifest,
        config,
        startup_policy,
        fixed_startup_delay_s,
        tracer,
        session_id or f"{algorithm.name}:{trace.name}",
        link_faults,
        fault_seed,
    )
    return session


def _play_session(
    algorithm: ABRAlgorithm,
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig],
    startup_policy: StartupPolicy,
    fixed_startup_delay_s: float,
    tracer: Optional[Tracer],
    session_id: str,
    link_faults: Optional[Iterable],
    fault_seed: int,
    publish_times: Optional[Sequence[float]] = None,
) -> Tuple[SessionResult, List[float], float, float]:
    """The Eq. (1)-(4) loop behind :func:`simulate_session` and
    :func:`~repro.sim.live.run_live_session`.

    Each chunk is one :class:`PlayerState` step: ``decide`` at the
    request instant, the trace inversion (Eq. 1/2) behind any link-fault
    overhead, then ``settle``, which returns the next request time.

    ``publish_times[k]`` is the wall time chunk ``k`` becomes
    downloadable.  A request for an unpublished chunk first waits at the
    live edge, and every decision sees the published prefix as
    ``available_chunks``.  ``None`` is on-demand video: every chunk
    exists at ``t = 0`` and observations carry ``available_chunks=None``.

    Returns the session, each chunk's fetch latency (download end minus
    publish time), the total edge wait, and the rebuffer incurred in it.
    """
    config = config if config is not None else SessionConfig()
    if tracer is not None and tracer.enabled and not tracer.session_id:
        # Attribute solver/table profiling events (which are emitted with
        # an empty session id) to this session.  Reuse a fresh tracer per
        # session, or pre-set ``tracer.session_id``, when that matters.
        tracer.session_id = session_id
    player = PlayerState(
        algorithm,
        trace,
        manifest,
        config,
        startup_policy,
        fixed_startup_delay_s,
        tracer,
        session_id,
    )
    injector = SimLinkFaults(link_faults, fault_seed) if link_faults else None

    num_chunks = manifest.num_chunks
    chunk_size = manifest.chunk_size_kilobits
    decide = player.decide
    settle = player.settle
    t = 0.0
    edge_wait = 0.0
    edge_rebuffer = 0.0
    latencies: List[float] = []
    publish = 0.0  # on demand, every chunk exists at t = 0
    published = 0  # live: chunks 0 .. published-1 exist at wall time t
    available: Optional[int] = None  # what decisions see of that prefix

    for k in range(num_chunks):
        if publish_times is not None:
            publish = publish_times[k]
            if t < publish:
                # Wait at the live edge.  The buffer keeps draining once
                # playback has begun; running dry during the wait is a
                # rebuffer charged to the publish schedule, not the
                # network.
                edge_wait += publish - t
                playback_start_s = player.playback_start_s
                if playback_start_s != _INFINITY and publish > playback_start_s:
                    drain = publish - max(t, playback_start_s)
                    buffer_s = player.buffer_s
                    stall = max(drain - buffer_s, 0.0)
                    player.buffer_s = max(buffer_s - drain, 0.0)
                    player.total_rebuffer_s += stall
                    edge_rebuffer += stall
                t = publish
            # Advance the published prefix by direct comparison against
            # the schedule (no division: float-exact at publish
            # boundaries).
            while published < num_chunks and publish_times[published] <= t:
                published += 1
            available = published

        level = decide(t, available)
        size = chunk_size(k, level)
        # Link-fault overhead is dead time ahead of the first byte; the
        # trace transfer then starts at the delayed instant.  With no
        # injector the arithmetic below is untouched (+0.0 paths), so
        # fault-free sessions reproduce their historical floats exactly.
        overhead = injector.overhead_s(t) if injector is not None else 0.0
        transfer_time, trace_stall = trace.download_time_and_stall(
            t + overhead, size
        )
        download_time = overhead + transfer_time
        t_end = t + download_time
        latencies.append(t_end - publish)
        t = settle(download_time, overhead + trace_stall, t_end)

    return player.finish(), latencies, edge_wait, edge_rebuffer


class PlayerState:
    """What each chunk does to one player: the Eq. (3)-(4) accounting.

    Both scalar backends drive one of these per session: the simulator's
    loop above, and the emulated client
    (:class:`~repro.emulation.client.EmulatedClient`), which obtains each
    download from its byte-level link instead of the trace integral.
    :meth:`decide` runs at chunk ``k``'s request instant, :meth:`settle`
    once its download has finished (and returns when the next request
    goes out), and :meth:`finish` after the last chunk.

    Times are on the backend's clock.  ``start_time_s`` is when the
    session begins (``0`` in the simulator, a player's arrival in an
    emulated arena); the startup delay and wall time count from it.
    Constructing the state ``prepare()``-s the algorithm and binds its
    trace-aware predictors to ``trace``.
    """

    __slots__ = (
        "algorithm", "manifest", "config", "trace_name", "session_id",
        "records", "buffer_s", "playback_start_s", "total_rebuffer_s",
        "prev_level", "wall_time_s", "_start_time_s", "_tracer", "_num_levels",
        "_chunk_s", "_bmax_s", "_threshold_s", "_last_end_s", "_observation",
        "_level", "_predictions",
    )

    def __init__(
        self,
        algorithm: ABRAlgorithm,
        trace: Trace,
        manifest: VideoManifest,
        config: SessionConfig,
        startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
        fixed_startup_delay_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        session_id: str = "",
        start_time_s: float = 0.0,
    ) -> None:
        fixed = startup_policy is StartupPolicy.FIXED
        if fixed and not 0.0 <= fixed_startup_delay_s < _INFINITY:
            raise ValueError("fixed startup delay must be a finite number >= 0")
        if tracer is not None:
            algorithm.tracer = tracer
        algorithm.prepare(manifest, config)
        for predictor in algorithm.predictors():
            if isinstance(predictor, TraceAware):
                predictor.bind_trace(trace, manifest.chunk_duration_s)
        self.algorithm = algorithm
        self.manifest = manifest
        self.config = config
        self.trace_name = trace.name
        self.session_id = session_id
        self.records: List[DownloadResult] = []
        self.buffer_s = 0.0
        self.playback_start_s = (
            start_time_s + fixed_startup_delay_s if fixed else _INFINITY
        )
        self.total_rebuffer_s = 0.0
        self.prev_level: Optional[int] = None
        self.wall_time_s = start_time_s
        self._start_time_s = start_time_s
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._num_levels = len(manifest.ladder)
        self._chunk_s = manifest.chunk_duration_s
        self._bmax_s = config.buffer_capacity_s
        self._threshold_s = config.pacing_threshold_s
        self._last_end_s = start_time_s  # wall time the previous download finished
        self._observation: Optional[PlayerObservation] = None  # pending decision
        self._level = 0  # the level decided for it
        self._predictions: list = []

    def decide(self, t: float, available: Optional[int] = None) -> int:
        """The next chunk's level, decided at request time ``t``.

        ``available`` is the published prefix of a live stream (``None``
        on demand).
        """
        algorithm = self.algorithm
        k = len(self.records)
        for predictor in algorithm.predictors():
            if isinstance(predictor, TraceAware):
                predictor.set_wall_time(t)
        buffer_s = self.buffer_s
        observation = PlayerObservation(
            chunk_index=k,
            buffer_level_s=buffer_s,
            prev_level_index=self.prev_level,
            wall_time_s=t,
            playback_started=t >= self.playback_start_s,
            available_chunks=available,
        )
        tracer = self._tracer
        if tracer is not None:
            decide_t0 = time.perf_counter()
        level = algorithm.select_bitrate(observation)
        if not 0 <= level < self._num_levels:
            raise ValueError(
                f"{algorithm.name} returned invalid level {level} for chunk {k}"
            )
        if tracer is not None:
            tracer.emit(
                ChunkDecision(
                    session_id=self.session_id,
                    t_mono=tracer.now(),
                    chunk_index=k,
                    buffer_s=buffer_s,
                    prev_level=self.prev_level,
                    level=level,
                    bitrate_kbps=self.manifest.ladder[level],
                    wall_time_s=t,
                    decide_wall_s=time.perf_counter() - decide_t0,
                )
            )
            self._predictions = [
                (p.name, p.predict(1)[0]) for p in algorithm.predictors()
            ]
        self._observation = observation
        self._level = level
        return level

    def settle(self, download_time: float, stalled: float, t_end: float) -> float:
        """Account the decided chunk, whose download ended at ``t_end``;
        returns the wall time of the next request.

        ``stalled`` is the dead time inside the download window.
        """
        observation = self._observation
        level = self._level
        k = observation.chunk_index
        t_request = observation.wall_time_s
        idle_before = t_request - self._last_end_s
        buffer_s = self.buffer_s
        playback_start_s = self.playback_start_s
        # Real-time drain over the portion of the download after playback
        # has started (Eq. 3, generalised to mid-download playback start).
        drain = max(0.0, t_end - max(playback_start_s, t_request))
        rebuffer = max(drain - buffer_s, 0.0)
        buffer_s = max(buffer_s - drain, 0.0)
        self.total_rebuffer_s += rebuffer
        t = t_end
        self._last_end_s = t
        buffer_s += self._chunk_s

        if playback_start_s == _INFINITY:
            # FIRST_CHUNK policy: playback begins now, plus any extra wait
            # the algorithm requests (MPC's f_stmpc startup decision).
            extra = self.algorithm.select_startup_wait(
                PlayerObservation(
                    chunk_index=k,
                    buffer_level_s=buffer_s,
                    prev_level_index=level,
                    wall_time_s=t,
                    playback_started=False,
                    available_chunks=observation.available_chunks,
                )
            )
            if not 0.0 <= extra < _INFINITY:
                raise ValueError("startup wait must be a finite number >= 0")
            t += extra
            playback_start_s = self.playback_start_s = t

        # Eq. (4), generalised by request pacing: pause until the buffer
        # drains to the pacing threshold (Bmax by default).  Under a FIXED
        # startup policy the buffer only drains once playback begins, so
        # the wait spans until then too.  Pre-playback, pacing below Bmax
        # does not apply (players build their pre-roll at full speed).
        waited = 0.0
        threshold = self._threshold_s
        if buffer_s > threshold:
            if t >= playback_start_s or buffer_s > self._bmax_s:
                drain_start = max(t, playback_start_s)
                waited = (drain_start - t) + (buffer_s - threshold)
                t = drain_start + (buffer_s - threshold)
                buffer_s = threshold
        self.buffer_s = buffer_s
        self.wall_time_s = t

        manifest = self.manifest
        size = manifest.chunk_size_kilobits(k, level)
        result = DownloadResult(
            chunk_index=k,
            level_index=level,
            bitrate_kbps=manifest.ladder[level],
            size_kilobits=size,
            download_time_s=download_time,
            # Floored: a blackout chunk (download_time = inf) divides to
            # exactly 0.0, which the constructor rejects; sub-floor
            # trickles clamp the same way the predictors already do.
            throughput_kbps=max(
                size / download_time if download_time > 0 else _INFINITY,
                OBSERVATION_FLOOR_KBPS,
            ),
            rebuffer_s=rebuffer,
            buffer_after_s=buffer_s,
            wall_time_end_s=t,
            waited_s=waited,
            buffer_before_s=observation.buffer_level_s,
            stalled_s=stalled,
            idle_before_s=idle_before,
        )
        self.records.append(result)
        if self._tracer is not None:
            self._emit_download(result)
        self.algorithm.on_download_complete(result)
        self.prev_level = level
        return t

    def _emit_download(self, result: DownloadResult) -> None:
        """The chunk's download, rebuffer and prediction-span events."""
        tracer = self._tracer
        session_id = self.session_id
        k = result.chunk_index
        tracer.emit(
            ChunkDownload(
                session_id=session_id,
                t_mono=tracer.now(),
                chunk_index=k,
                level=result.level_index,
                bitrate_kbps=result.bitrate_kbps,
                size_kilobits=result.size_kilobits,
                download_time_s=result.download_time_s,
                throughput_kbps=result.throughput_kbps,
                rebuffer_s=result.rebuffer_s,
                buffer_before_s=result.buffer_before_s,
                buffer_after_s=result.buffer_after_s,
                wall_time_end_s=result.wall_time_end_s,
                waited_s=result.waited_s,
            )
        )
        if result.rebuffer_s > 0:
            tracer.emit(
                Rebuffer(
                    session_id=session_id,
                    t_mono=tracer.now(),
                    chunk_index=k,
                    duration_s=result.rebuffer_s,
                    wall_time_s=result.wall_time_end_s,
                )
            )
        if self._predictions:
            # The active rate is exactly what a gap-corrected
            # predictor will reconstruct from this download.
            active = ThroughputObservation(
                result.throughput_kbps,
                result.download_time_s,
                idle_s=result.idle_before_s,
                stall_s=result.stalled_s,
            ).active_kbps
            for predictor_name, predicted in self._predictions:
                tracer.emit(
                    PredictionSpan(
                        session_id=session_id,
                        t_mono=tracer.now(),
                        chunk_index=k,
                        predictor=predictor_name,
                        predicted_kbps=predicted,
                        actual_kbps=result.throughput_kbps,
                        active_kbps=active,
                        error=(predicted - active) / active,
                        duration_s=result.download_time_s,
                        idle_s=result.idle_before_s,
                        stall_s=result.stalled_s,
                    )
                )

    def finish(self) -> SessionResult:
        """The session so far, as a result (and, traced, its summary)."""
        t = self.wall_time_s
        start = self.playback_start_s
        startup_delay = (start if start != _INFINITY else t) - self._start_time_s
        session = SessionResult(
            algorithm_name=self.algorithm.name,
            trace_name=self.trace_name,
            records=tuple(self.records),
            startup_delay_s=startup_delay,
            total_rebuffer_s=self.total_rebuffer_s,
            total_wall_time_s=t - self._start_time_s,
            config=self.config,
        )
        tracer = self._tracer
        if tracer is not None:
            weights = self.config.weights
            tracer.emit(
                SessionSummary(
                    session_id=self.session_id,
                    t_mono=tracer.now(),
                    algorithm=self.algorithm.name,
                    trace_name=self.trace_name,
                    num_chunks=len(self.records),
                    startup_delay_s=startup_delay,
                    total_rebuffer_s=session.total_rebuffer_s,
                    total_wall_time_s=session.total_wall_time_s,
                    qoe_total=session.qoe().total,
                    weight_switching=weights.switching,
                    weight_rebuffering=weights.rebuffering,
                    weight_startup=weights.startup,
                )
            )
        return session
