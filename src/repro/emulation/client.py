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
and keeps only its requests and link events.  Link faults are the
simulator's too: each time a request reaches the link the client asks
the run's :class:`~repro.faults.simlink.SimLinkFaults` whether the
attempt fails and how long a latency spike holds it, and retries a
failed attempt at the level the player decided.  Each next request goes
out at the time the player's ``settle`` step returns, so on an ideal
network the two backends agree.
"""

from __future__ import annotations

import math
from typing import Optional

from ..abr.base import ABRAlgorithm, SessionConfig
from ..faults.simlink import SimLinkFaults
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
    and read :meth:`result`.  ``faults`` is the link-fault injector every
    client on ``link`` shares (``None`` on a fault-free link).
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
        faults: Optional[SimLinkFaults] = None,
        rtt_s: float = 0.08,
        startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
        fixed_startup_delay_s: float = 0.0,
        start_time_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        session_id: str = "",
    ) -> None:
        if not 0.0 <= rtt_s < math.inf:
            raise ValueError("RTT must be a finite number >= 0")
        self.client_id = client_id
        self.algorithm = algorithm
        self.manifest = manifest
        self.config = config
        self.queue = queue
        self.link = link
        self.server = server
        self.faults = faults
        self.rtt_s = rtt_s
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
        self._issue_request()

    def _issue_request(self) -> None:
        """Send one GET for the pending chunk at the decided level.

        Request travels one RTT/2, the server processes, the response
        header arrives after another RTT/2; then bytes flow on the link.
        Retries after a failed attempt come back through here, paying
        the full request latency again.
        """
        k = len(self._player.records)
        request = ChunkRequest(self.client_id, k, self._pending_level, self.queue.now)
        size, processing = self.server.handle_request(request)
        self.queue.schedule_in(
            self.rtt_s + processing, lambda: self._reach_link(size)
        )

    def _reach_link(self, size: float) -> None:
        """Start the attempt's transfer, subject to the link faults.

        A failed attempt delivers nothing: the failure is detected
        ``detect_delay_s`` later and the chunk is requested again.  A
        surviving one starts after the latency spikes active now.  Wall
        time spent on dead attempts stays inside the chunk's download
        interval, so the measured throughput (and with it the predictor
        and the rebuffer accounting) sees the outage honestly.
        """
        now = self.queue.now
        failures = self._chunk_failures
        if failures == 0:
            self._link_reached_s = now
        faults = self.faults
        if faults is not None:
            failure = faults.draw_failure(now, failures)
            if failure is not None:
                self._chunk_failures = failures + 1
                self.queue.schedule_in(failure.detect_delay_s, self._issue_request)
                return
            spike = faults.spike_delay_s(now)
            if spike > 0:
                self.queue.schedule_in(
                    spike,
                    lambda: self.link.start_transfer(size, self._on_chunk_delivered),
                )
                return
        self.link.start_transfer(size, self._on_chunk_delivered)

    def _on_chunk_delivered(self, transfer: Transfer) -> None:
        # The download time the player *measures* spans the request, its
        # retries, RTT and headers — the realistic, biased
        # application-level sample.  Its stalled part is the dead time
        # before the delivering attempt's first byte: failed attempts,
        # their retry requests and latency-spike delays.
        now = self.queue.now
        player = self._player
        next_request = player.settle(
            now - self._chunk_request_time,
            transfer.started_at_s - self._link_reached_s,
            now,
        )
        if len(player.records) >= self.manifest.num_chunks:
            self._result = player.finish()
            return
        self.queue.schedule_at(next_request, self._request_next_chunk)
