"""The emulated DASH client — a dash.js-like player as a state machine.

This client mirrors the paper's modified dash.js player (Section 6):
bitrate decisions happen at chunk boundaries only, and downloads are
strictly sequential.  Unlike the chunk-level simulator, each download is
a byte-level transfer over the shared link with request latency, protocol
overhead, and (optionally) slow-start ramping — so the throughput the
algorithm observes carries the HTTP-level measurement bias of a real
testbed.

The client reports the identical :class:`~repro.sim.session.SessionResult`
the simulator produces, keeping the two backends interchangeable in the
experiment harness.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

from ..abr.base import (
    ABRAlgorithm,
    DownloadResult,
    PlayerObservation,
    SessionConfig,
)
from ..obs.events import ChunkDecision, ChunkDownload, Rebuffer, SessionSummary
from ..obs.tracer import Tracer
from ..prediction.base import OBSERVATION_FLOOR_KBPS, TraceAware
from ..sim.session import SessionResult, StartupPolicy
from ..video.manifest import VideoManifest
from .clock import EventQueue
from .link import SharedTraceLink, Transfer
from .server import ChunkRequest, ChunkServer

__all__ = ["EmulatedClient"]

_INFINITY = math.inf


class EmulatedClient:
    """One player instance driving one algorithm over the emulated network.

    The client schedules itself on the shared :class:`EventQueue`; run the
    queue to completion (or use :func:`repro.emulation.harness.emulate_session`)
    and read :meth:`result`.
    """

    def __init__(
        self,
        client_id: int,
        algorithm: ABRAlgorithm,
        manifest: VideoManifest,
        config: SessionConfig,
        queue: EventQueue,
        link: SharedTraceLink,
        server: ChunkServer,
        rtt_s: float = 0.08,
        startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
        fixed_startup_delay_s: float = 0.0,
        start_time_s: float = 0.0,
        max_chunk_retries: int = 3,
        tracer: Optional[Tracer] = None,
        session_id: str = "",
    ) -> None:
        if rtt_s < 0:
            raise ValueError("RTT must be >= 0")
        if max_chunk_retries < 0:
            raise ValueError("max chunk retries must be >= 0")
        if startup_policy is StartupPolicy.FIXED and not (
            0.0 <= fixed_startup_delay_s < _INFINITY
        ):
            raise ValueError("fixed startup delay must be a finite number >= 0")
        self.client_id = client_id
        self.algorithm = algorithm
        self.manifest = manifest
        self.config = config
        self.queue = queue
        self.link = link
        self.server = server
        self.rtt_s = rtt_s
        self.startup_policy = startup_policy
        self.fixed_startup_delay_s = fixed_startup_delay_s
        self.start_time_s = start_time_s
        self.max_chunk_retries = max_chunk_retries
        #: Failed download attempts over the whole session (fault runs).
        self.download_retries = 0
        #: Chunks that fell back to the local rate-based level after
        #: exhausting their retry budget.
        self.fallback_chunks = 0

        self._buffer_s = 0.0
        self._decision_buffer_s = 0.0  # B_k the pending chunk's decision saw
        self._playback_start_s = (
            start_time_s + fixed_startup_delay_s
            if startup_policy is StartupPolicy.FIXED
            else _INFINITY
        )
        self._total_rebuffer_s = 0.0
        self._prev_level: Optional[int] = None
        self._records: List[DownloadResult] = []
        self._chunk_request_time = 0.0
        self._pending_level = 0
        self._chunk_failures = 0
        self._finished = False
        self._tracing = tracer is not None and tracer.enabled
        self.tracer = tracer
        self.session_id = session_id or (
            f"{algorithm.name}:{link.trace.name}#client{client_id}"
        )
        if self._tracing:
            algorithm.tracer = tracer

        algorithm.prepare(manifest, config)
        for predictor in algorithm.predictors():
            if isinstance(predictor, TraceAware):
                predictor.bind_trace(link.trace, manifest.chunk_duration_s)
        queue.schedule_at(start_time_s, self._request_next_chunk)

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def result(self) -> SessionResult:
        if not self._finished:
            raise RuntimeError("session still in progress — run the event queue")
        return SessionResult(
            algorithm_name=self.algorithm.name,
            trace_name=self.link.trace.name,
            records=tuple(self._records),
            startup_delay_s=self._playback_start_s - self.start_time_s,
            total_rebuffer_s=self._total_rebuffer_s,
            # End of session = last chunk's completion plus its Eq. 4 wait
            # (matching the simulator's clock).
            total_wall_time_s=self._records[-1].wall_time_end_s - self.start_time_s,
            config=self.config,
        )

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _next_chunk_index(self) -> int:
        return len(self._records)

    def _request_next_chunk(self) -> None:
        k = self._next_chunk_index()
        now = self.queue.now
        for predictor in self.algorithm.predictors():
            if isinstance(predictor, TraceAware):
                predictor.set_wall_time(now)
        observation = PlayerObservation(
            chunk_index=k,
            buffer_level_s=self._buffer_s,
            prev_level_index=self._prev_level,
            wall_time_s=now,
            playback_started=now >= self._playback_start_s,
        )
        if self._tracing:
            _decide_t0 = time.perf_counter()
        level = self.algorithm.select_bitrate(observation)
        if not 0 <= level < len(self.manifest.ladder):
            raise ValueError(
                f"{self.algorithm.name} returned invalid level {level}"
            )
        if self._tracing:
            self.tracer.emit(
                ChunkDecision(
                    session_id=self.session_id,
                    t_mono=self.tracer.now(),
                    chunk_index=k,
                    buffer_s=observation.buffer_level_s,
                    prev_level=self._prev_level,
                    level=level,
                    bitrate_kbps=self.manifest.ladder[level],
                    wall_time_s=now,
                    decide_wall_s=time.perf_counter() - _decide_t0,
                )
            )
        self._pending_level = level
        self._decision_buffer_s = observation.buffer_level_s
        self._chunk_request_time = now
        self._chunk_failures = 0
        self._issue_request(level)

    def _issue_request(self, level: int) -> None:
        """Send one GET for the pending chunk at ``level``.

        Request travels one RTT/2, the server processes, the response
        header arrives after another RTT/2; then bytes flow on the link.
        Retries after a failed download come back through here, paying
        the full request latency again.
        """
        k = self._next_chunk_index()
        request = ChunkRequest(self.client_id, k, level, self.queue.now)
        size, processing = self.server.handle_request(request)
        self.queue.schedule_in(
            self.rtt_s + processing,
            lambda: self.link.start_transfer(
                size, self._on_chunk_delivered, on_fail=self._on_chunk_failed
            ),
        )

    def _fallback_level(self) -> int:
        """The local rate-based rule over the last measured throughput —
        the level a degraded chunk retries at (lowest level when no
        measurement exists yet, matching real players' cold start)."""
        if not self._records:
            return 0
        return self.manifest.ladder.highest_at_most(
            self._records[-1].throughput_kbps
        )

    def _on_chunk_failed(self, failure) -> None:
        """A download attempt died (injected chunk failure): retry.

        The chunk is re-requested at the same level up to
        ``max_chunk_retries`` times; after that the client degrades to
        the local rate-based fallback level and keeps retrying there, so
        a session always completes once the fault window passes.  Wall
        time spent on dead attempts stays inside the chunk's download
        interval, so the measured throughput (and with it the predictor
        and the rebuffer accounting) sees the outage honestly.
        """
        self._chunk_failures += 1
        self.download_retries += 1
        level = self._pending_level
        if self._chunk_failures > self.max_chunk_retries:
            fallback = self._fallback_level()
            if fallback != level:
                self.fallback_chunks += 1
                level = fallback
                self._pending_level = level
        self._issue_request(level)

    def _on_chunk_delivered(self, transfer: Transfer) -> None:
        now = self.queue.now
        k = self._next_chunk_index()
        level = self._pending_level
        L = self.manifest.chunk_duration_s
        download_time = now - self._chunk_request_time

        # Buffer drain over the whole request+download interval (Eq. 3).
        drain = max(0.0, now - max(self._playback_start_s, self._chunk_request_time))
        rebuffer = max(drain - self._buffer_s, 0.0)
        self._buffer_s = max(self._buffer_s - drain, 0.0)
        self._total_rebuffer_s += rebuffer
        self._buffer_s += L

        if self._playback_start_s == _INFINITY:
            extra = self.algorithm.select_startup_wait(
                PlayerObservation(
                    chunk_index=k,
                    buffer_level_s=self._buffer_s,
                    prev_level_index=level,
                    wall_time_s=now,
                    playback_started=False,
                )
            )
            if not 0.0 <= extra < _INFINITY:
                raise ValueError("startup wait must be a finite number >= 0")
            self._playback_start_s = now + extra

        waited = 0.0
        threshold = self.config.pacing_threshold_s
        if self._buffer_s > threshold:
            if (
                now >= self._playback_start_s
                or self._buffer_s > self.config.buffer_capacity_s
            ):
                drain_start = max(now, self._playback_start_s)
                waited = (drain_start - now) + (self._buffer_s - threshold)
                self._buffer_s = threshold

        # The throughput the player *measures* includes RTT and headers —
        # the realistic, biased application-level sample.
        size_kilobits = self.manifest.chunk_size_kilobits(k, level)
        result = DownloadResult(
            chunk_index=k,
            level_index=level,
            bitrate_kbps=self.manifest.ladder[level],
            size_kilobits=size_kilobits,
            download_time_s=download_time,
            # Floored like the simulator: a blacked-out transfer measures
            # 0.0 (or sub-floor) throughput, which DownloadResult rejects.
            throughput_kbps=max(
                size_kilobits / download_time
                if download_time > 0
                else _INFINITY,
                OBSERVATION_FLOOR_KBPS,
            ),
            rebuffer_s=rebuffer,
            buffer_after_s=self._buffer_s,
            wall_time_end_s=now + waited,
            waited_s=waited,
            buffer_before_s=self._decision_buffer_s,
        )
        self._records.append(result)
        if self._tracing:
            self.tracer.emit(
                ChunkDownload(
                    session_id=self.session_id,
                    t_mono=self.tracer.now(),
                    chunk_index=k,
                    level=level,
                    bitrate_kbps=result.bitrate_kbps,
                    size_kilobits=size_kilobits,
                    download_time_s=download_time,
                    throughput_kbps=result.throughput_kbps,
                    rebuffer_s=rebuffer,
                    buffer_before_s=result.buffer_before_s,
                    buffer_after_s=self._buffer_s,
                    wall_time_end_s=result.wall_time_end_s,
                    waited_s=waited,
                )
            )
            if rebuffer > 0:
                self.tracer.emit(
                    Rebuffer(
                        session_id=self.session_id,
                        t_mono=self.tracer.now(),
                        chunk_index=k,
                        duration_s=rebuffer,
                        wall_time_s=now,
                    )
                )
        self.algorithm.on_download_complete(result)
        self._prev_level = level

        if len(self._records) >= self.manifest.num_chunks:
            self._finished = True
            if self._tracing:
                session = self.result()
                self.tracer.emit(
                    SessionSummary(
                        session_id=self.session_id,
                        t_mono=self.tracer.now(),
                        algorithm=self.algorithm.name,
                        trace_name=self.link.trace.name,
                        num_chunks=len(self._records),
                        startup_delay_s=session.startup_delay_s,
                        total_rebuffer_s=session.total_rebuffer_s,
                        total_wall_time_s=session.total_wall_time_s,
                        qoe_total=session.qoe().total,
                        weight_switching=self.config.weights.switching,
                        weight_rebuffering=self.config.weights.rebuffering,
                        weight_startup=self.config.weights.startup,
                    )
                )
            return
        self.queue.schedule_at(now + waited, self._request_next_chunk)
