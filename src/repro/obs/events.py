"""The structured-event vocabulary of the observability layer.

Every quantity the paper's evaluation accounts per chunk — the bitrate
chosen, the buffer trajectory of Eqs. (1)-(4), rebuffer time, and the
Eq. 5 terms — is carried by one of the typed events below, so a session
timeline is a complete, replayable record of a run:

* :class:`ChunkDecision`   — the controller's choice at a chunk boundary;
* :class:`ChunkDownload`   — the completed transfer and its dynamics;
* :class:`Rebuffer`        — a stall (only emitted when one occurred);
* :class:`SolverCall`      — one horizon-kernel invocation (profiling);
* :class:`TableLookup`     — one FastMPC table query (profiling);
* :class:`RequestSpan`     — one decision-service request span;
* :class:`PredictionSpan`  — one predictor forecast vs its outcome;
* :class:`SessionSummary`  — end-of-session totals and the Eq. 5 score;
* :class:`FleetShard`      — one completed fleet Monte Carlo shard;
* :class:`FleetSummary`    — a whole fleet run's throughput accounting;
* :class:`ArenaWindow`     — one time window of a shared-bottleneck arena;
* :class:`ArenaSummary`    — an arena run's whole-population totals.

Events are frozen dataclasses with only JSON-scalar fields, so the JSONL
encoding (:func:`event_to_json` / :func:`event_from_json`) round-trips
every event losslessly — Python's ``json`` serialises floats via
``repr``, which is exact.  Each event carries the ``session_id`` it
belongs to and a monotonic-clock stamp ``t_mono`` (seconds; comparable
only within one process).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Type

__all__ = [
    "Event",
    "ChunkDecision",
    "ChunkDownload",
    "Rebuffer",
    "SolverCall",
    "TableLookup",
    "RequestSpan",
    "PredictionSpan",
    "SessionSummary",
    "FleetShard",
    "FleetSummary",
    "ArenaWindow",
    "ArenaSummary",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
    "event_to_json",
    "event_from_json",
]


@dataclass(frozen=True)
class Event:
    """Base of all trace events; ``kind`` keys the JSONL encoding."""

    kind = "event"

    session_id: str
    t_mono: float  # monotonic-clock stamp, seconds


@dataclass(frozen=True)
class ChunkDecision(Event):
    """The controller's bitrate choice at the start of chunk ``k``.

    Carries the Section 3.3 decision inputs — buffer occupancy ``B_k``
    and the previous level ``R_{k-1}`` — plus the chosen level and the
    wall time the decision itself took (the Section 7.4 overhead).
    """

    kind = "chunk-decision"

    chunk_index: int
    buffer_s: float  # B_k at the decision instant
    prev_level: Optional[int]  # None at the session's first chunk
    level: int
    bitrate_kbps: float
    wall_time_s: float  # session clock t_k
    decide_wall_s: float  # real time spent inside select_bitrate


@dataclass(frozen=True)
class ChunkDownload(Event):
    """One completed chunk transfer with its Eq. 1-4 dynamics."""

    kind = "chunk-download"

    chunk_index: int
    level: int
    bitrate_kbps: float
    size_kilobits: float  # d_k(R_k)
    download_time_s: float  # d_k(R_k) / C_k (Eq. 1/2)
    throughput_kbps: float  # C_k
    rebuffer_s: float  # (d_k/C_k - B_k)_+ (Eq. 3)
    buffer_before_s: float
    buffer_after_s: float
    wall_time_end_s: float
    waited_s: float  # Delta t_k (Eq. 4)


@dataclass(frozen=True)
class Rebuffer(Event):
    """A playback stall; emitted only when ``duration_s > 0``."""

    kind = "rebuffer"

    chunk_index: int
    duration_s: float
    wall_time_s: float  # chunk's wall_time_end_s (download end plus any wait)


@dataclass(frozen=True)
class SolverCall(Event):
    """One horizon-solver invocation (online MPC or offline table build).

    ``op`` names the code path (``solve-horizon`` / ``solve-startup`` /
    ``table-build``); ``instances`` is the number of problems solved (1
    online, one per table state for a build) and ``plans`` the
    candidate-plan count per problem.
    """

    kind = "solver-call"

    op: str
    instances: int
    plans: int
    wall_s: float


@dataclass(frozen=True)
class TableLookup(Event):
    """One FastMPC decision-table query (the Section 5.2 online step)."""

    kind = "table-lookup"

    buffer_bin: int
    prev_level: int
    throughput_bin: int
    level: int
    num_runs: int  # RLE runs searched over
    depth: int  # binary-search probes taken
    wall_s: float


@dataclass(frozen=True)
class RequestSpan(Event):
    """One decision-service request, measured on the monotonic clock.

    ``status`` is ``ok`` for a served decision, or names the failure;
    ``chaos`` stamps the injected misbehaviour (if any) onto the span so
    chaos runs are attributable request by request.  ``worker`` is the
    cluster worker index that served the request (``None`` outside a
    cluster), so a sharded deployment's spans attribute load and tail
    latency shard by shard.  ``arm`` is the experiment arm the session
    was routed to (``None`` when no A/B experiment is configured).
    """

    kind = "request-span"

    trace_id: str
    name: str  # span name, e.g. "decide" / "table-swap"
    wall_s: float
    status: str = "ok"
    chaos: Optional[str] = None
    worker: Optional[int] = None
    arm: Optional[str] = None


@dataclass(frozen=True)
class PredictionSpan(Event):
    """One throughput forecast paired with the download it predicted.

    Emitted per (chunk, predictor) by the simulator's session loops:
    ``predicted_kbps`` is the first horizon entry the predictor produced
    at decision time, ``actual_kbps`` the wall-clock rate the download
    measured (Eq. 2), and ``active_kbps`` the rate over active-transfer
    time only (stall time divided back out — the Kairos capacity view).
    ``error`` is the signed relative error vs the active rate, exactly
    ``(predicted - active) / active`` of the recorded floats, so replay
    reproduces a session's predicted-vs-actual error sequence bit for
    bit.  ``idle_s``/``stall_s``/``duration_s`` carry the chunk's on/off
    context for stratifying error by gap fraction.
    """

    kind = "prediction-span"

    chunk_index: int
    predictor: str
    predicted_kbps: float
    actual_kbps: float
    active_kbps: float
    error: float
    duration_s: float = 0.0
    idle_s: float = 0.0
    stall_s: float = 0.0


@dataclass(frozen=True)
class SessionSummary(Event):
    """End-of-session totals: the Eq. 5 accounting of the whole run.

    ``qoe_total`` is the live session's Eq. 5 score under the recorded
    weights — the value :func:`repro.obs.replay.replay_session` must
    reproduce exactly from the per-chunk events.
    """

    kind = "session-summary"

    algorithm: str
    trace_name: str
    num_chunks: int
    startup_delay_s: float
    total_rebuffer_s: float
    total_wall_time_s: float
    qoe_total: float
    weight_switching: float
    weight_rebuffering: float
    weight_startup: float


@dataclass(frozen=True)
class FleetShard(Event):
    """One completed shard of a fleet Monte Carlo run."""

    kind = "fleet-shard"

    shard_index: int
    sessions: int
    wall_s: float


@dataclass(frozen=True)
class FleetSummary(Event):
    """End-of-fleet totals: population size and measured throughput."""

    kind = "fleet-summary"

    sessions: int
    shards: int
    workers: int
    wall_s: float
    sessions_per_s: float


@dataclass(frozen=True)
class ArenaWindow(Event):
    """One ``[t0, t1)`` slice of a shared-bottleneck arena run.

    ``utilization``, ``jain``, and ``instability`` are ``None`` for
    windows with no capacity / no present players (see
    ``docs/fairness.md`` for the metric definitions).
    """

    kind = "arena-window"

    index: int
    t0_s: float
    t1_s: float
    active_players: int
    utilization: Optional[float]
    jain: Optional[float]
    switches: int
    instability: Optional[float]


@dataclass(frozen=True)
class ArenaSummary(Event):
    """End-of-arena totals over the whole player population."""

    kind = "arena-summary"

    players: int
    duration_s: float
    utilization: Optional[float]
    jain: Optional[float]
    unfairness: Optional[float]
    switches: int
    cross_kilobits: float


#: kind -> event class, the JSONL decoding registry.
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        ChunkDecision,
        ChunkDownload,
        Rebuffer,
        SolverCall,
        TableLookup,
        RequestSpan,
        PredictionSpan,
        SessionSummary,
        FleetShard,
        FleetSummary,
        ArenaWindow,
        ArenaSummary,
    )
}


def event_to_dict(event: Event) -> dict:
    """Encode as a plain dict with the ``kind`` discriminator first."""
    payload = {"kind": event.kind}
    payload.update(asdict(event))
    return payload


def event_from_dict(payload: dict) -> Event:
    """Inverse of :func:`event_to_dict`; unknown kinds/fields are errors."""
    if not isinstance(payload, dict):
        raise ValueError("event payload must be a JSON object")
    kind = payload.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in payload.items() if k != "kind"}
    unknown = set(kwargs) - names
    if unknown:
        raise ValueError(f"unknown fields for {kind!r}: {sorted(unknown)}")
    return cls(**kwargs)


def event_to_json(event: Event) -> str:
    """One JSONL line (no trailing newline)."""
    return json.dumps(event_to_dict(event), separators=(",", ":"))


def event_from_json(line: str) -> Event:
    """Decode one JSONL line back into its typed event."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"not a valid JSONL event line: {exc}") from None
    return event_from_dict(payload)
