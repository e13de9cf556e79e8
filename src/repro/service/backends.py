"""Stateful controller backends behind the decision service.

The FastMPC table is stateless per request — one lookup, no memory
— so the service can treat every query independently.  Everything else
in the zoo (:mod:`repro.abr.registry`) is a *session*: BOLA carries its
prepared utilities, rate-based controllers carry their predictor
windows, DAS-IP both.  :class:`AlgorithmBackend` owns those per-session
instances, keyed by ``session_id``, with LRU capacity eviction plus
idle-age eviction driven by the server's watchdog timer.

The backend feeds each request's ``predicted_kbps`` to the algorithm's
predictors as a plain throughput observation before deciding, so
controllers that smooth their own estimate (harmonic windows, error
trackers) see the client's measurement stream, one sample per chunk —
the same contract the simulator's ``on_download_complete`` provides.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from ..abr import registry
from ..abr.base import ABRAlgorithm, PlayerObservation, SessionConfig
from ..video.manifest import BitrateLadder, VideoManifest

__all__ = ["AlgorithmBackend", "BackendSession"]

#: Synthetic CBR manifest length the backend cycles chunk indices over.
#: Service requests do not carry a chunk index, so the backend counts
#: decisions per session and wraps — on a CBR manifest every chunk looks
#: identical, making the wrap invisible to the controllers.
_BACKEND_CHUNKS = 256


@dataclass
class BackendSession:
    """One live session's controller instance and bookkeeping."""

    algorithm: ABRAlgorithm
    chunks: int = 0
    last_active: float = 0.0


class AlgorithmBackend:
    """Per-session instances of one registry controller.

    Sessions are created lazily on first sight of a ``session_id`` and
    retired two ways: least-recently-used eviction once ``max_sessions``
    is reached, and idle-age eviction via :meth:`evict_idle` (wired to
    the server's reap watchdog).  Both are safe mid-stream — a returning
    evicted session simply restarts from a fresh controller, exactly
    like a player rebuilding state after a CDN failover.
    """

    def __init__(
        self,
        controller: str,
        ladder_kbps: Sequence[float],
        *,
        chunk_duration_s: float = 4.0,
        buffer_capacity_s: float = 30.0,
        max_sessions: int = 4096,
        idle_timeout_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        # ``0 < t < inf`` also refuses NaN, which would never evict.
        if not 0.0 < idle_timeout_s < math.inf:
            raise ValueError("idle_timeout_s must be a finite number > 0")
        # Fail at construction, not first request, on an unknown name.
        registry.create(controller)
        self.controller = controller
        self.max_sessions = max_sessions
        self.idle_timeout_s = idle_timeout_s
        self._clock = clock
        self._manifest = VideoManifest.cbr(
            chunk_duration_s,
            BitrateLadder(tuple(ladder_kbps)),
            _BACKEND_CHUNKS,
            title=f"service-backend:{controller}",
        )
        self._config = SessionConfig(buffer_capacity_s=buffer_capacity_s)
        self._sessions: "OrderedDict[str, BackendSession]" = OrderedDict()
        self.evictions_lru = 0
        self.evictions_idle = 0

    # ------------------------------------------------------------------

    @property
    def sessions_active(self) -> int:
        return len(self._sessions)

    def decide(
        self,
        session_id: str,
        buffer_s: float,
        prev_level: Optional[int],
        predicted_kbps: float,
    ) -> int:
        """One bitrate decision for this session's controller."""
        session = self._sessions.get(session_id)
        if session is None:
            session = self._create_session()
            while len(self._sessions) >= self.max_sessions:
                self._sessions.popitem(last=False)
                self.evictions_lru += 1
            self._sessions[session_id] = session
        else:
            self._sessions.move_to_end(session_id)
        session.last_active = self._clock()

        # The client's estimate is the controller's throughput sample.
        for predictor in session.algorithm.predictors():
            predictor.observe_kbps(predicted_kbps)
        buffer_s = min(buffer_s, self._config.buffer_capacity_s)
        if prev_level is not None:
            prev_level = min(prev_level, len(self._manifest.ladder) - 1)
        observation = PlayerObservation(
            chunk_index=session.chunks % _BACKEND_CHUNKS,
            buffer_level_s=buffer_s,
            prev_level_index=prev_level,
            wall_time_s=session.chunks * self._manifest.chunk_duration_s,
            playback_started=session.chunks > 0,
        )
        level = session.algorithm.select_bitrate(observation)
        if not 0 <= level < len(self._manifest.ladder):
            raise ValueError(
                f"controller {self.controller!r} returned invalid level {level}"
            )
        session.chunks += 1
        return level

    def evict_idle(self, now: Optional[float] = None) -> int:
        """Drop sessions idle past the timeout; returns how many died."""
        now = self._clock() if now is None else now
        stale = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_active > self.idle_timeout_s
        ]
        for sid in stale:
            del self._sessions[sid]
        self.evictions_idle += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._sessions.clear()

    # ------------------------------------------------------------------

    def _create_session(self) -> BackendSession:
        algorithm = registry.create(self.controller)
        algorithm.prepare(self._manifest, self._config)
        return BackendSession(algorithm=algorithm)
