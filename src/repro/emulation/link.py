"""A trace-shaped bottleneck link with fair sharing and TCP-like ramping.

This is the emulation counterpart of the paper's ``linux tc`` throttling:
the link's instantaneous capacity follows the throughput trace, active
transfers share it max-min fairly (what TCP flows on a common bottleneck
approximate), and each transfer can optionally start under a slow-start
window ramp — doubling its self-imposed rate cap every RTT from an
initial window until it no longer constrains the transfer.

The ramp reproduces a bias the paper's related work highlights (Huang et
al., "Confused, Timid, and Unstable"): short chunk downloads never reach
link capacity, so HTTP-level throughput samples under-estimate available
bandwidth — one of the reasons robust prediction handling matters.

Everything is event-driven and exact between events: rates are constant
between consecutive (trace boundary | window-doubling | completion |
join/leave) events, so progress integrates in closed form.

Scaling
-------
Re-allocation is *incremental*, not all-pairs.  The link splits flows by
what the fair share can do to them:

* **capped** flows — transfers still inside their slow-start ramp, plus
  cross-traffic flows (:class:`CrossFlow`), whose rate limit can bind.
  There are few of these at a time and they are handled per flow.
* **uncapped** flows — fully-ramped transfers.  Max-min fairness gives
  every one of them the *identical* share rate, so per-event progress is
  one shared, vectorized delta and, because a uniform subtraction
  preserves order under IEEE round-to-nearest, the earliest completion
  is always the head of a sorted pool.

Per event the link does O(capped · log capped) allocation work plus one
elementwise subtraction over the pool, instead of the O(flows) Python
bookkeeping of the historical all-pairs loop — which is preserved
verbatim in ``tests/emulation/all_pairs_link.py`` as the oracle the
equivalence tests pin this implementation against.  Both engines share
:func:`_water_fill`, and the pool's elementwise delta is bit-identical
to the per-flow scalar subtraction, so the two event loops produce
*identical* floats, not merely close ones.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..traces.trace import Trace
from .clock import EventQueue

__all__ = ["Transfer", "CrossFlow", "SharedTraceLink"]

_MTU_KILOBITS = 12.0  # 1500 bytes

#: A transfer with this little left is complete (float-noise guard).
_COMPLETION_EPS_KILOBITS = 1e-9


class Transfer:
    """One in-flight download on the link."""

    __slots__ = (
        "transfer_id",
        "size_kilobits",
        "remaining_kilobits",
        "started_at_s",
        "completed_at_s",
        "on_complete",
        "window_kilobits",
        "next_epoch_s",
        "ramp_done",
        "current_rate_kbps",
        "pool_slot",
    )

    def __init__(
        self,
        transfer_id: int,
        size_kilobits: float,
        started_at_s: float,
        on_complete: Callable[["Transfer"], None],
        initial_window_kilobits: float,
        rtt_s: float,
        ramp: bool,
    ) -> None:
        self.transfer_id = transfer_id
        self.size_kilobits = size_kilobits
        self.remaining_kilobits = size_kilobits
        self.started_at_s = started_at_s
        self.completed_at_s: Optional[float] = None
        self.on_complete = on_complete
        self.window_kilobits = initial_window_kilobits
        self.next_epoch_s = started_at_s + rtt_s
        self.ramp_done = not ramp
        self.current_rate_kbps = 0.0
        #: Index into the uncapped pool while fully ramped, else ``None``.
        self.pool_slot: Optional[int] = None

    @property
    def duration_s(self) -> float:
        if self.completed_at_s is None:
            raise RuntimeError("transfer not complete yet")
        return self.completed_at_s - self.started_at_s

    def throughput_kbps(self) -> float:
        """Application-level average throughput of the finished transfer."""
        d = self.duration_s
        return self.size_kilobits / d if d > 0 else math.inf


class CrossFlow:
    """A rate-limited non-video flow pinned to the bottleneck.

    Cross traffic (a video call, a backup job) competes for capacity in
    the same max-min allocation as the players' transfers: its ``rate_kbps``
    is a cap, so it takes ``min(rate, fair share)`` and the remainder goes
    back to the pool.  It has infinite backlog — it never completes; add
    and remove it explicitly via :meth:`SharedTraceLink.add_cross_flow` /
    :meth:`SharedTraceLink.remove_cross_flow`.  ``delivered_kilobits``
    integrates exactly, for utilization accounting.
    """

    __slots__ = ("flow_id", "rate_kbps", "label", "delivered_kilobits", "current_rate_kbps")

    def __init__(self, flow_id: int, rate_kbps: float, label: str) -> None:
        self.flow_id = flow_id
        self.rate_kbps = rate_kbps
        self.label = label
        self.delivered_kilobits = 0.0
        self.current_rate_kbps = 0.0


def _fill_level(capacity, sorted_caps, extra_uncapped: int) -> Tuple[int, object]:
    """Core of the max-min fill over caps sorted ascending.

    Returns ``(bound, share)``: the first ``bound`` caps bind (each such
    flow is allocated exactly its cap) and every remaining flow — the
    rest of ``sorted_caps`` plus ``extra_uncapped`` implicit flows with
    no cap — gets the single ``share`` value.

    Numeric-generic on purpose: ``Fraction`` inputs stay ``Fraction``
    throughout, which is what lets the property suite assert exact
    conservation instead of an epsilon.
    """
    remaining = capacity
    active = len(sorted_caps) + extra_uncapped
    bound = 0
    for cap in sorted_caps:
        # Once a cap exceeds the running share, so do all larger ones:
        # nothing below the final water level binds past this point.
        if cap > remaining / active:
            break
        remaining = remaining - cap
        active -= 1
        bound += 1
    share = remaining / active if active else remaining * 0
    return bound, share


def _water_fill(capacity_kbps, caps_kbps):
    """Max-min fair allocation of ``capacity`` under per-flow caps.

    Level-based: a flow whose cap is below the final water level gets
    exactly its cap; every other flow gets the *identical* share value
    (bit-identical floats — the incremental link relies on this to apply
    one delta to the whole uncapped pool).  Numeric-generic: ``Fraction``
    inputs produce exact ``Fraction`` allocations.
    """
    n = len(caps_kbps)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: caps_kbps[i])
    sorted_caps = [caps_kbps[i] for i in order]
    bound, share = _fill_level(capacity_kbps, sorted_caps, 0)
    allocation = [share] * n
    for pos in range(bound):
        allocation[order[pos]] = sorted_caps[pos]
    return allocation


class _UncappedPool:
    """The fully-ramped transfers, all moving at one shared rate.

    Remaining sizes live in one NumPy array; progress is a single
    elementwise subtraction, bit-identical to the per-flow scalar
    ``rem -= rate * dt`` of the reference loop.  ``_order`` keeps
    live slots sorted by remaining size: a uniform subtraction cannot
    reorder values under IEEE round-to-nearest (x <= y implies
    fl(x - d) <= fl(y - d)), so completions are always a prefix and the
    earliest completion time is O(1) to find.
    """

    __slots__ = ("_rem", "_transfers", "_order", "_free")

    def __init__(self) -> None:
        size = 16
        self._rem = np.zeros(size, dtype=np.float64)
        self._transfers: List[Optional[Transfer]] = [None] * size
        self._order: List[int] = []  # live slots, ascending remaining
        self._free: List[int] = list(range(size - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._order)

    def add(self, transfer: Transfer) -> None:
        if not self._free:
            old = len(self._transfers)
            grown = np.zeros(2 * old, dtype=np.float64)
            grown[:old] = self._rem
            self._rem = grown
            self._transfers.extend([None] * old)
            self._free.extend(range(2 * old - 1, old - 1, -1))
        slot = self._free.pop()
        rem = transfer.remaining_kilobits
        self._rem[slot] = rem
        self._transfers[slot] = transfer
        transfer.pool_slot = slot
        # Manual bisect: the key= parameter needs 3.10+, the repo runs 3.9.
        lo, hi = 0, len(self._order)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._rem[self._order[mid]] <= rem:
                lo = mid + 1
            else:
                hi = mid
        self._order.insert(lo, slot)

    def apply_delta(self, delta: float) -> None:
        self._rem -= delta  # dead slots drift harmlessly

    def min_remaining(self) -> float:
        return float(self._rem[self._order[0]])

    def pop_completed(self, eps: float) -> List[Transfer]:
        """Remove and return every transfer with ``remaining <= eps``.

        They are a prefix of the sorted order by the invariant above.
        Each returned transfer has its ``remaining_kilobits`` synced back
        from the pool (callers then zero it, as the reference loop does).
        """
        order = self._order
        count = 0
        for slot in order:
            if self._rem[slot] <= eps:
                count += 1
            else:
                break
        if not count:
            return []
        done: List[Transfer] = []
        for slot in order[:count]:
            transfer = self._transfers[slot]
            transfer.remaining_kilobits = float(self._rem[slot])
            transfer.pool_slot = None
            self._transfers[slot] = None
            self._rem[slot] = 0.0
            self._free.append(slot)
            done.append(transfer)
        del order[:count]
        return done


class SharedTraceLink:
    """The bottleneck: trace-shaped capacity, fair-shared, event-driven.

    Parameters
    ----------
    trace:
        Capacity over time (wraps like the simulator's traces).
    queue:
        The emulation's event queue; the link schedules its own progress
        events on it.
    rtt_s:
        Round-trip time used by the slow-start window ramp.
    slow_start:
        Whether new transfers ramp (True reproduces HTTP throughput bias;
        False makes the link behave like the chunk-level simulator).
    initial_window_kilobits:
        Slow-start initial window (default 10 MTUs, RFC 6928).
    """

    def __init__(
        self,
        trace: Trace,
        queue: EventQueue,
        rtt_s: float = 0.08,
        slow_start: bool = True,
        initial_window_kilobits: float = 10 * _MTU_KILOBITS,
    ) -> None:
        if rtt_s <= 0:
            raise ValueError("RTT must be positive")
        if initial_window_kilobits <= 0:
            raise ValueError("initial window must be positive")
        self.trace = trace
        # Segment starts, bound once: ``Trace.timestamps`` copies them.
        self._segment_starts = trace.timestamps
        self.queue = queue
        self.rtt_s = rtt_s
        self.slow_start = slow_start
        self.initial_window_kilobits = initial_window_kilobits
        self._capped: Dict[int, Transfer] = {}  # ramping, insertion-ordered
        self._pool = _UncappedPool()
        self._cross: Dict[int, CrossFlow] = {}
        self._pool_rate_kbps = 0.0
        self._next_id = 0
        self._next_cross_id = 0
        self._generation = 0
        self._last_progress_time = 0.0
        # Once a window exceeds this, the cap can never bind again.
        self._ramp_ceiling_kbps = 4.0 * max(trace.bandwidths_kbps)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def active_transfers(self) -> int:
        return len(self._capped) + len(self._pool)

    @property
    def cross_flows(self) -> int:
        return len(self._cross)

    def start_transfer(
        self, size_kilobits: float, on_complete: Callable[[Transfer], None]
    ) -> Transfer:
        """Begin delivering ``size_kilobits``; ``on_complete`` fires at the
        exact virtual completion time.

        The link itself never fails a transfer: link faults are drawn by
        the client before its request reaches the link (see
        :class:`~repro.faults.simlink.SimLinkFaults`).
        """
        if size_kilobits <= 0:
            raise ValueError("transfer size must be positive")
        self._apply_progress()
        transfer = Transfer(
            self._next_id,
            size_kilobits,
            self.queue.now,
            on_complete,
            self.initial_window_kilobits,
            self.rtt_s,
            ramp=self.slow_start,
        )
        self._next_id += 1
        if transfer.ramp_done:
            self._pool.add(transfer)
        else:
            self._capped[transfer.transfer_id] = transfer
        self._reschedule()
        return transfer

    def add_cross_flow(self, rate_kbps: float, label: str = "cross") -> CrossFlow:
        """Attach a rate-limited cross-traffic flow to the bottleneck."""
        if not rate_kbps > 0 or math.isinf(rate_kbps):
            raise ValueError("cross-traffic rate must be positive and finite")
        self._apply_progress()
        flow = CrossFlow(self._next_cross_id, rate_kbps, label)
        self._next_cross_id += 1
        self._cross[flow.flow_id] = flow
        self._reschedule()
        return flow

    def remove_cross_flow(self, flow: CrossFlow) -> float:
        """Detach ``flow``; returns its exactly-integrated delivered bytes."""
        if self._cross.get(flow.flow_id) is not flow:
            raise ValueError("flow is not attached to this link")
        self._apply_progress()
        del self._cross[flow.flow_id]
        flow.current_rate_kbps = 0.0
        self._reschedule()
        return flow.delivered_kilobits

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _capacity_now(self) -> float:
        return self.trace.bandwidth_at(self.queue.now)

    def _next_trace_boundary(self) -> float:
        """Virtual time of the next capacity change."""
        now = self.queue.now
        duration = self.trace.duration_s
        pos = now % duration
        times = self._segment_starts
        idx = bisect.bisect_right(times, pos) - 1
        seg_end = times[idx + 1] if idx + 1 < len(times) else duration
        return now + (seg_end - pos)

    def _cap_kbps(self, transfer: Transfer) -> float:
        if transfer.ramp_done:
            return math.inf
        return transfer.window_kilobits / self.rtt_s

    def _apply_progress(self) -> None:
        """Integrate byte progress since the last checkpoint.

        Rates were constant over the interval by construction: the link
        reschedules at every trace boundary, window epoch, arrival,
        departure, and completion, and records each flow's rate at that
        point.  Capped flows advance one by one; the whole uncapped pool
        advances by a single shared delta.
        """
        now = self.queue.now
        dt = now - self._last_progress_time
        if dt > 0:
            for transfer in self._capped.values():
                transfer.remaining_kilobits -= transfer.current_rate_kbps * dt
            if len(self._pool):
                delta = self._pool_rate_kbps * dt
                if delta != 0.0:
                    self._pool.apply_delta(delta)
            for flow in self._cross.values():
                flow.delivered_kilobits += flow.current_rate_kbps * dt
        self._last_progress_time = now

    def _advance_windows(self) -> None:
        """Apply window doublings; graduate finished ramps into the pool."""
        now = self.queue.now
        movers: List[Transfer] = []
        for transfer in self._capped.values():
            while not transfer.ramp_done and transfer.next_epoch_s <= now + 1e-12:
                transfer.window_kilobits *= 2
                transfer.next_epoch_s += self.rtt_s
                if transfer.window_kilobits / self.rtt_s >= self._ramp_ceiling_kbps:
                    transfer.ramp_done = True
            if transfer.ramp_done:
                movers.append(transfer)
        for transfer in movers:
            del self._capped[transfer.transfer_id]
            self._pool.add(transfer)

    def _reschedule(self) -> None:
        """Record current rates and schedule the next interesting moment.

        Only the capped flows (ramping transfers + cross traffic) need
        per-flow treatment; the whole pool shares one rate, and its
        earliest completion is the pool head.
        """
        self._generation += 1
        generation = self._generation
        now = self.queue.now
        self._last_progress_time = now
        if not (self._capped or self._cross or len(self._pool)):
            return
        entries = [(self._cap_kbps(t), t, None) for t in self._capped.values()]
        entries.extend((f.rate_kbps, None, f) for f in self._cross.values())
        entries.sort(key=lambda e: e[0])
        bound, share = _fill_level(
            self._capacity_now(), [e[0] for e in entries], len(self._pool)
        )
        horizon = self._next_trace_boundary()
        for pos, (cap, transfer, flow) in enumerate(entries):
            rate = cap if pos < bound else share
            if flow is not None:
                flow.current_rate_kbps = rate
                continue
            transfer.current_rate_kbps = rate
            if not transfer.ramp_done:
                horizon = min(horizon, transfer.next_epoch_s)
            if rate > 0:
                horizon = min(horizon, now + transfer.remaining_kilobits / rate)
        self._pool_rate_kbps = share if len(self._pool) else 0.0
        if len(self._pool) and self._pool_rate_kbps > 0:
            # fl(x/r) is monotone in x, so the pool head bounds them all.
            horizon = min(
                horizon, now + self._pool.min_remaining() / self._pool_rate_kbps
            )
        target = max(horizon, now)
        if target == now:
            # A completion due in less than half an ulp of `now` rounds the
            # horizon back onto `now`; firing there would integrate dt == 0
            # forever.  One ulp of dt at any rate large enough to create
            # this state delivers more than the residual, so bumping to the
            # next representable instant completes it on the next event.
            target = math.nextafter(now, math.inf)
        self.queue.schedule_at(target, lambda: self._on_progress(generation))

    def _on_progress(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a newer reschedule
        self._apply_progress()
        self._advance_windows()
        now = self.queue.now
        completed: List[Transfer] = []
        for tid in list(self._capped):
            transfer = self._capped[tid]
            if transfer.remaining_kilobits <= _COMPLETION_EPS_KILOBITS:
                del self._capped[tid]
                completed.append(transfer)
        completed.extend(self._pool.pop_completed(_COMPLETION_EPS_KILOBITS))
        # Callbacks fire in transfer-id order — the insertion order the
        # all-pairs reference loop completes in.
        completed.sort(key=lambda t: t.transfer_id)
        for transfer in completed:
            transfer.remaining_kilobits = 0.0
            transfer.completed_at_s = now
        self._reschedule()
        for transfer in completed:
            transfer.on_complete(transfer)
