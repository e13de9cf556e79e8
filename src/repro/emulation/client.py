"""The emulated DASH client — a dash.js-like player as a state machine.

This client mirrors the paper's modified dash.js player (Section 6):
bitrate decisions happen at chunk boundaries only, and downloads are
strictly sequential.  Unlike the chunk-level simulator, each download is
a byte-level transfer over the shared link with request latency, protocol
overhead, and (optionally) slow-start ramping — so the throughput the
algorithm observes carries the HTTP-level measurement bias of a real
testbed.

What a chunk does to the player is not reimplemented here: the client
drives the simulator's own :class:`~repro.sim.session.PlayerState`
(decision, Eq. 3 drain and rebuffer, startup wait, Eq. 4 pacing wait,
records, trace events and the :class:`~repro.sim.session.SessionResult`)
and keeps only its requests, retries with their fallback level, and
link events.  Each next request goes out at the time the player's
``settle`` step returns, so on an ideal network the two backends agree.
"""

from __future__ import annotations

import math
from typing import Optional

from ..abr.base import ABRAlgorithm, SessionConfig
from ..obs.tracer import Tracer
from ..sim.session import PlayerState, SessionResult, StartupPolicy
from ..video.manifest import VideoManifest
from .clock import EventQueue
from .link import SharedTraceLink, Transfer
from .server import ChunkRequest, ChunkServer

__all__ = ["EmulatedClient"]


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
        if not 0.0 <= rtt_s < math.inf:
            raise ValueError("RTT must be a finite number >= 0")
        if max_chunk_retries < 0:
            raise ValueError("max chunk retries must be >= 0")
        self.client_id = client_id
        self.algorithm = algorithm
        self.manifest = manifest
        self.config = config
        self.queue = queue
        self.link = link
        self.server = server
        self.rtt_s = rtt_s
        self.max_chunk_retries = max_chunk_retries
        #: Failed download attempts over the whole session (fault runs).
        self.download_retries = 0
        #: Chunks that fell back to the local rate-based level after
        #: exhausting their retry budget.
        self.fallback_chunks = 0
        self._player = PlayerState(
            algorithm,
            link.trace,
            manifest,
            config,
            startup_policy,
            fixed_startup_delay_s,
            tracer,
            session_id or f"{algorithm.name}:{link.trace.name}#client{client_id}",
            start_time_s,
        )
        self._result: Optional[SessionResult] = None
        self._chunk_request_time = start_time_s
        #: When the pending chunk's first attempt reached the link.
        self._link_reached_s = start_time_s
        self._pending_level = 0
        self._chunk_failures = 0
        queue.schedule_at(start_time_s, self._request_next_chunk)

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._result is not None

    def result(self) -> SessionResult:
        if self._result is None:
            raise RuntimeError("session still in progress — run the event queue")
        return self._result

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _request_next_chunk(self) -> None:
        now = self.queue.now
        self._pending_level = self._player.decide(now)
        self._chunk_request_time = now
        self._chunk_failures = 0
        self._issue_request(self._pending_level)

    def _issue_request(self, level: int) -> None:
        """Send one GET for the pending chunk at ``level``.

        Request travels one RTT/2, the server processes, the response
        header arrives after another RTT/2; then bytes flow on the link.
        Retries after a failed download come back through here, paying
        the full request latency again.
        """
        k = len(self._player.records)
        request = ChunkRequest(self.client_id, k, level, self.queue.now)
        size, processing = self.server.handle_request(request)
        self.queue.schedule_in(
            self.rtt_s + processing, lambda: self._reach_link(size)
        )

    def _reach_link(self, size: float) -> None:
        if self._chunk_failures == 0:
            self._link_reached_s = self.queue.now
        self.link.start_transfer(
            size, self._on_chunk_delivered, on_fail=self._on_chunk_failed
        )

    def _fallback_level(self) -> int:
        """The local rate-based rule over the last measured throughput —
        the level a degraded chunk retries at (lowest level when no
        measurement exists yet, matching real players' cold start)."""
        records = self._player.records
        if not records:
            return 0
        return self.manifest.ladder.highest_at_most(records[-1].throughput_kbps)

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
        # The download time the player *measures* spans the request, its
        # retries, RTT and headers — the realistic, biased
        # application-level sample.  Its stalled part is the dead time
        # before the delivering attempt's first byte: failed attempts,
        # their retry requests and latency-spike delays.
        now = self.queue.now
        player = self._player
        next_request = player.settle(
            self._pending_level,
            now - self._chunk_request_time,
            transfer.started_at_s - self._link_reached_s,
            now,
        )
        if len(player.records) >= self.manifest.num_chunks:
            self._result = player.finish()
            return
        self.queue.schedule_at(next_request, self._request_next_chunk)
