"""Live-streaming sessions: chunks are published on a wall-clock schedule.

On-demand video hands the whole manifest to the player at ``t = 0``; a
live stream publishes chunk ``k`` only once the encoder has produced it.
That changes three things:

* **bounded lookahead** — the controller cannot plan over chunks that do
  not exist yet, so every decision carries ``available_chunks`` and MPC
  clips its horizon to the published prefix (Section 5's receding
  horizon, truncated at the live edge);
* **edge waits** — a player that drains its backlog must wait, idle, for
  the next chunk to be published.  The wait drains the playback buffer
  and can itself rebuffer; it is also exactly the kind of off time that
  poisons naive throughput predictors, so it is accounted into each
  chunk's ``idle_before_s`` for the gap-corrected ones;
* **latency in the objective** — chunk ``k``'s *fetch latency* is how
  far behind the live edge it was obtained
  (``download end - publish time``); QoE becomes the Eq. 5 total minus
  ``latency_weight`` times the mean latency excess over
  ``latency_target_s``.

The publish schedule is ``publish(k) = (k - backlog + 1) * interval``
for ``k >= backlog`` (the first ``backlog`` chunks pre-exist at ``t=0``
— the DVR window a joining viewer lands in), with ``interval`` equal to
the chunk duration by default: real-time encoding.

The dynamics are not reimplemented here: :func:`run_live_session` runs
the simulator's own Eq. (1)-(4) loop (:mod:`repro.sim.session`) with
this schedule.  With a backlog covering the whole manifest every chunk
exists at ``t = 0``, and the session equals the on-demand one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..abr.base import ABRAlgorithm, SessionConfig
from ..obs.tracer import Tracer
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .session import SessionResult, StartupPolicy, _play_session

__all__ = ["LiveConfig", "LiveSessionResult", "run_live_session"]


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of the live scenario (see the module docstring).

    ``interval_s = None`` publishes at the chunk duration — real-time
    encoding, the live default.
    """

    interval_s: Optional[float] = None
    backlog_chunks: int = 3
    latency_target_s: float = 15.0
    latency_weight: float = 100.0

    def __post_init__(self) -> None:
        if self.interval_s is not None and not 0.0 < self.interval_s < math.inf:
            raise ValueError("publish interval must be a finite number > 0")
        if not isinstance(self.backlog_chunks, numbers.Integral):
            raise ValueError("the backlog must be a whole number of chunks")
        if self.backlog_chunks < 1:
            raise ValueError("a live session needs at least one chunk at t=0")
        if not 0.0 <= self.latency_target_s < math.inf:
            raise ValueError("latency target must be a finite number >= 0")
        if not 0.0 <= self.latency_weight < math.inf:
            raise ValueError("latency weight must be a finite number >= 0")

    def publish_interval_s(self, manifest: VideoManifest) -> float:
        if self.interval_s is not None:
            return self.interval_s
        return manifest.chunk_duration_s

    def publish_time_s(self, chunk_index: int, interval_s: float) -> float:
        """Wall time chunk ``chunk_index`` becomes downloadable."""
        if chunk_index < self.backlog_chunks:
            return 0.0
        return (chunk_index - self.backlog_chunks + 1) * interval_s


@dataclass(frozen=True)
class LiveSessionResult:
    """A live session: the plain session log plus the live accounting."""

    session: SessionResult
    live: LiveConfig
    latencies_s: Tuple[float, ...]  # fetch latency per chunk, in order
    edge_wait_s: float  # total time spent waiting for unpublished chunks
    edge_rebuffer_s: float  # rebuffer incurred during those waits

    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        total = 0.0
        for latency in self.latencies_s:
            total += latency
        return total / len(self.latencies_s)

    def latency_penalty(self) -> float:
        """``latency_weight * mean(max(0, latency - target))``."""
        if not self.latencies_s:
            return 0.0
        excess = 0.0
        for latency in self.latencies_s:
            over = latency - self.live.latency_target_s
            if over > 0.0:
                excess += over
        return self.live.latency_weight * (excess / len(self.latencies_s))

    def qoe_total(self, weights=None) -> float:
        """Eq. 5 total minus the latency penalty — the live objective."""
        return self.session.qoe(weights).total - self.latency_penalty()


def run_live_session(
    algorithm: ABRAlgorithm,
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    live: Optional[LiveConfig] = None,
    tracer: Optional[Tracer] = None,
    session_id: str = "",
    link_faults: Optional[Iterable] = None,
    fault_seed: int = 0,
) -> LiveSessionResult:
    """Play one live session: the simulator's loop under ``live``'s
    publish schedule.

    Eqs. (1)-(4) apply unchanged to each download; on top of them the
    publish schedule gates when a chunk may be requested, and each
    decision sees the published-prefix length via
    ``PlayerObservation.available_chunks``.  Playback uses the
    first-chunk startup policy (a live viewer joins and plays).
    ``session_id`` defaults to ``"live:<algorithm>:<trace>"``; the other
    parameters are :func:`~repro.sim.session.simulate_session`'s.
    """
    live = live if live is not None else LiveConfig()
    interval = live.publish_interval_s(manifest)
    session, latencies, edge_wait, edge_rebuffer = _play_session(
        algorithm,
        trace,
        manifest,
        config,
        StartupPolicy.FIRST_CHUNK,
        0.0,
        tracer,
        session_id or f"live:{algorithm.name}:{trace.name}",
        link_faults,
        fault_seed,
        publish_times=[
            live.publish_time_s(k, interval) for k in range(manifest.num_chunks)
        ],
    )
    return LiveSessionResult(
        session=session,
        live=live,
        latencies_s=tuple(latencies),
        edge_wait_s=edge_wait,
        edge_rebuffer_s=edge_rebuffer,
    )
