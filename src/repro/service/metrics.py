"""Built-in service telemetry.

Everything a load balancer or dashboard needs to judge the decision
service's health, kept cheap enough to update on every request:

* monotonically increasing counters (requests, decision sources,
  degraded reasons, table swaps);
* a fixed-bucket latency histogram — bounded memory, constant-time
  observation, and quantile estimates good enough for p50/p99 SLOs.

The whole state exports as one JSON document from ``/metrics``; the
schema is documented in ``docs/service.md`` and locked by tests.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..core.histmerge import FixedBucketHistogram, merge_histogram_dicts

__all__ = [
    "LatencyHistogram",
    "ServiceMetrics",
    "merge_metrics_snapshots",
    "DEFAULT_BUCKET_BOUNDS_US",
    "MAX_SESSIONS_SEEN",
]

#: Upper bounds (microseconds) of the default latency buckets.  Spans the
#: table-lookup regime (tens of µs) through badly overloaded (>100 ms);
#: the final bucket is implicit +inf.  A quantile is exact only to within
#: its bucket, so the 2-5 ms range, where a loaded client's round trips
#: fall, is cut at 2.5, 3 and 4 ms.
DEFAULT_BUCKET_BOUNDS_US = (
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
    2_000.0,
    2_500.0,
    3_000.0,
    4_000.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
)

#: Distinct session ids ``sessions_seen`` counts before it stops growing.
MAX_SESSIONS_SEEN = 100_000


class LatencyHistogram(FixedBucketHistogram):
    """Fixed-bucket histogram over microsecond latencies.

    A unit-suffixed specialisation of the shared
    :class:`repro.core.histmerge.FixedBucketHistogram` (the bucketing,
    quantile, merge, and serialization machinery lives there so the
    fleet driver can aggregate without importing the service layer):
    values are non-negative, the serialized keys carry the ``_us``
    suffix the ``/metrics`` schema documents, and quantile interpolation
    floors the first bucket at 0.  A quantile never exceeds the largest
    latency recorded: interpolation inside a bucket would otherwise
    report its upper edge for samples that all sit near its lower one.
    """

    __slots__ = ()

    key_suffix = "_us"
    non_negative = True
    value_name = "latency"
    underflow_lower = 0.0

    def __init__(self, bounds_us: Sequence[float] = DEFAULT_BUCKET_BOUNDS_US) -> None:
        super().__init__(bounds_us)

    def quantile(self, q: float) -> float:
        estimate = super().quantile(q)
        return min(estimate, self._max) if self._count else estimate

    @property
    def mean_us(self) -> float:
        return self.mean

    @property
    def max_us(self) -> float:
        return self.max_value


class ServiceMetrics:
    """Counters + latency histogram for one server instance.

    The decision-source breakdown distinguishes healthy ``table``
    answers, ``fallback`` answers (further split by reason), and hard
    ``error`` responses (protocol/transport failures that could not be
    served at all — the acceptance criterion requires these to stay 0
    under a missing-table loadtest).
    """

    def __init__(self, bounds_us: Sequence[float] = DEFAULT_BUCKET_BOUNDS_US) -> None:
        self.requests_total = 0
        self.decisions_table = 0
        self.decisions_controller = 0
        self.decisions_fallback = 0
        self.errors_total = 0
        self.degraded_total = 0
        self.fallback_reasons: Dict[str, int] = {}
        self.table_swaps_total = 0
        self.connections_opened = 0
        self.connections_active = 0
        self.connections_reset = 0
        self.chaos_injected: Dict[str, int] = {}
        #: Batch occupancy: records per decide call -> number of calls
        #: at that size (keys are strings so the dict round-trips JSON
        #: unchanged).  The server makes one call per /v1/decide exchange,
        #: so sizes above 1 are client-built binary frames.
        self.batch_occupancy: Dict[str, int] = {}
        #: Wire-encoding negotiation outcomes: "json"/"binary" -> number
        #: of /v1/decide exchanges served in that encoding.
        self.protocol_requests: Dict[str, int] = {}
        self.latency = LatencyHistogram(bounds_us)
        #: Per-span-name request-phase histograms (observability layer);
        #: bucket bounds are shared with the request latency histogram.
        self.spans: Dict[str, LatencyHistogram] = {}
        #: Per-experiment-arm breakdowns, keyed by arm name.  Each value
        #: mirrors a slice of the top-level document (decision count,
        #: degraded count, source and reason counters, latency histogram)
        #: so dashboards can diff arms without joining streams.
        self.arms: Dict[str, dict] = {}
        self._bounds_us = tuple(bounds_us)
        self._sessions_seen: set = set()

    # ------------------------------------------------------------------

    def record_decision(
        self,
        source: str,
        latency_us: float,
        degraded: bool,
        reason: Optional[str],
        session_id: Optional[str] = None,
        arm: Optional[str] = None,
    ) -> None:
        self._count(source, latency_us, degraded, reason, arm, 1)
        if session_id is not None and len(self._sessions_seen) < MAX_SESSIONS_SEEN:
            self._sessions_seen.add(session_id)

    def record_decisions(
        self,
        session_ids: Sequence[str],
        sources: Sequence[str],
        reasons: Sequence[Optional[str]],
        arms: Sequence[Optional[str]],
        latency_us: float,
    ) -> None:
        """A batch's decisions, one per row, all of ``latency_us``; a row
        is degraded when it has a reason.

        Leaves the counters, bucket counts and ``sessions_seen`` that one
        :meth:`record_decision` per row would leave.
        """
        groups = Counter(zip(sources, reasons, arms))
        for (source, reason, arm), count in groups.items():
            self._count(source, latency_us, reason is not None, reason, arm, count)
        seen = self._sessions_seen
        if len(seen) + len(session_ids) <= MAX_SESSIONS_SEEN:
            seen.update(session_ids)
            return
        for session_id in session_ids:  # the cap binds within this batch
            if len(seen) >= MAX_SESSIONS_SEEN:
                break
            seen.add(session_id)

    def _count(
        self,
        source: str,
        latency_us: float,
        degraded: bool,
        reason: Optional[str],
        arm: Optional[str],
        count: int,
    ) -> None:
        """``count`` decisions alike in every counted field."""
        self.requests_total += count
        if source == "table":
            self.decisions_table += count
        elif source == "controller":
            self.decisions_controller += count
        else:
            self.decisions_fallback += count
        if degraded:
            self.degraded_total += count
            key = reason or "unknown"
            self.fallback_reasons[key] = self.fallback_reasons.get(key, 0) + count
        if arm is not None:
            stats = self.arms.get(arm)
            if stats is None:
                stats = self.arms[arm] = {
                    "decisions": 0,
                    "degraded": 0,
                    "sources": {},
                    "reasons": {},
                    "latency": LatencyHistogram(self._bounds_us),
                }
            stats["decisions"] += count
            stats["sources"][source] = stats["sources"].get(source, 0) + count
            if degraded:
                stats["degraded"] += count
                key = reason or "unknown"
                stats["reasons"][key] = stats["reasons"].get(key, 0) + count
            stats["latency"].observe(latency_us, count)
        self.latency.observe(latency_us, count)

    def record_error(self) -> None:
        self.requests_total += 1
        self.errors_total += 1

    def record_table_swap(self) -> None:
        self.table_swaps_total += 1

    def record_disconnect(self) -> None:
        """A connection died mid-request (peer reset, chaos abort)."""
        self.connections_reset += 1

    def record_chaos(self, kind: str) -> None:
        """One injected misbehaviour of the given kind (chaos mode)."""
        self.chaos_injected[kind] = self.chaos_injected.get(kind, 0) + 1

    def record_batch(self, size: int) -> None:
        """One decide call that answered ``size`` records (one exchange)."""
        key = str(size)
        self.batch_occupancy[key] = self.batch_occupancy.get(key, 0) + 1

    def record_protocol(self, protocol: str, count: int = 1) -> None:
        """One /v1/decide exchange served in the given wire encoding."""
        self.protocol_requests[protocol] = (
            self.protocol_requests.get(protocol, 0) + count
        )

    def record_span(self, name: str, latency_us: float) -> None:
        """One measured request span (e.g. ``decide``, ``table-swap``)."""
        histogram = self.spans.get(name)
        if histogram is None:
            histogram = self.spans[name] = LatencyHistogram(self._bounds_us)
        histogram.observe(latency_us)

    @property
    def sessions_seen(self) -> int:
        return len(self._sessions_seen)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/metrics`` JSON document."""
        return {
            "requests_total": self.requests_total,
            "decisions": {
                "table": self.decisions_table,
                "controller": self.decisions_controller,
                "fallback": self.decisions_fallback,
                "error": self.errors_total,
            },
            "degraded_total": self.degraded_total,
            "fallback_reasons": dict(self.fallback_reasons),
            "sessions_seen": self.sessions_seen,
            "table_swaps_total": self.table_swaps_total,
            "connections": {
                "opened": self.connections_opened,
                "active": self.connections_active,
                "reset": self.connections_reset,
            },
            "chaos_injected": dict(self.chaos_injected),
            "batch_occupancy": dict(self.batch_occupancy),
            "protocol_requests": dict(self.protocol_requests),
            "latency_us": self.latency.to_dict(),
            "spans_us": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.spans.items())
            },
            "arms": {
                name: {
                    "decisions": stats["decisions"],
                    "degraded": stats["degraded"],
                    "sources": dict(stats["sources"]),
                    "reasons": dict(stats["reasons"]),
                    "latency_us": stats["latency"].to_dict(),
                }
                for name, stats in sorted(self.arms.items())
            },
        }


def _sum_counter_dicts(dicts: List[Dict[str, int]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + int(value)
    return out


def _merge_histogram_dicts(payloads: List[dict]) -> dict:
    return merge_histogram_dicts(payloads, LatencyHistogram)


def merge_metrics_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge per-worker :meth:`ServiceMetrics.snapshot` documents into one
    cluster-wide document with the same schema.

    Counters sum; the latency and per-span histograms merge bucket by
    bucket, which is lossless — the merged counts equal what a single
    shared histogram would have observed, so cluster p50/p99 estimates
    carry exactly the same per-bucket error bound as a single worker's.
    ``sessions_seen`` sums too: a session's requests all ride one
    keep-alive connection, which pins them to one worker, so workers see
    disjoint session sets (a re-dialed session mid-failover may be
    double-counted — an upper bound, never an undercount).

    Raises ``ValueError`` on an empty list or a snapshot whose histogram
    buckets disagree (workers must share one bucket layout to merge
    losslessly).
    """
    if not snapshots:
        raise ValueError("need at least one snapshot to merge")
    merged = {
        "requests_total": sum(int(s["requests_total"]) for s in snapshots),
        "decisions": _sum_counter_dicts([s["decisions"] for s in snapshots]),
        "degraded_total": sum(int(s["degraded_total"]) for s in snapshots),
        "fallback_reasons": _sum_counter_dicts(
            [s["fallback_reasons"] for s in snapshots]
        ),
        "sessions_seen": sum(int(s["sessions_seen"]) for s in snapshots),
        "table_swaps_total": sum(int(s["table_swaps_total"]) for s in snapshots),
        "connections": _sum_counter_dicts([s["connections"] for s in snapshots]),
        "chaos_injected": _sum_counter_dicts(
            [s["chaos_injected"] for s in snapshots]
        ),
        # Per-size batch counts and per-encoding request counts sum
        # losslessly exactly like the other counter dicts (.get: the
        # keys postdate the first snapshot schema).
        "batch_occupancy": _sum_counter_dicts(
            [s.get("batch_occupancy", {}) for s in snapshots]
        ),
        "protocol_requests": _sum_counter_dicts(
            [s.get("protocol_requests", {}) for s in snapshots]
        ),
        "latency_us": _merge_histogram_dicts([s["latency_us"] for s in snapshots]),
    }
    span_names = sorted({name for s in snapshots for name in s.get("spans_us", {})})
    merged["spans_us"] = {
        name: _merge_histogram_dicts(
            [s["spans_us"][name] for s in snapshots if name in s.get("spans_us", {})]
        )
        for name in span_names
    }
    # Per-arm breakdowns merge the same way: counters sum, histograms
    # merge bucket-by-bucket — lossless because assignment is a pure
    # function of the session id, so every worker labels a given session
    # with the same arm.
    arm_names = sorted({name for s in snapshots for name in s.get("arms", {})})
    merged_arms = {}
    for name in arm_names:
        slices = [s["arms"][name] for s in snapshots if name in s.get("arms", {})]
        merged_arms[name] = {
            "decisions": sum(int(a["decisions"]) for a in slices),
            "degraded": sum(int(a["degraded"]) for a in slices),
            "sources": _sum_counter_dicts([a["sources"] for a in slices]),
            "reasons": _sum_counter_dicts([a["reasons"] for a in slices]),
            "latency_us": _merge_histogram_dicts([a["latency_us"] for a in slices]),
        }
    merged["arms"] = merged_arms
    return merged
