"""The historical all-pairs shared link, kept as a correctness oracle.

This is the original :class:`~repro.emulation.link.SharedTraceLink`
event loop before the incremental rework: every progress event touches
every transfer (per-flow integration, full re-allocation over all caps,
a completion scan over the whole set).  That is O(flows) Python work per
event — unusable for thousand-player arenas, but trivially auditable.

It lives in ``tests/`` for exactly one purpose: the equivalence suite
(``tests/emulation/test_link_incremental.py``) runs identical workloads
through both engines and asserts *float-identical* completion times and
callback order.  Both engines share :func:`repro.emulation.link._water_fill`,
and the incremental pool's uniform delta is bit-identical to this loop's
per-flow scalar subtraction, so the comparison is ``==``, not approx.

Do not use this class in new code; it exists to be compared against.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional

from repro.emulation.clock import EventQueue
from repro.emulation.link import Transfer, _water_fill
from repro.traces.trace import Trace

__all__ = ["AllPairsSharedTraceLink"]

_MTU_KILOBITS = 12.0  # 1500 bytes


class AllPairsSharedTraceLink:
    """The pre-rework link: all-pairs re-allocation at every event.

    Same construction surface and semantics as
    :class:`~repro.emulation.link.SharedTraceLink` (minus cross-traffic,
    which the historical loop never supported).
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
        self.queue = queue
        self.rtt_s = rtt_s
        self.slow_start = slow_start
        self.initial_window_kilobits = initial_window_kilobits
        self._transfers: Dict[int, Transfer] = {}
        self._next_id = 0
        self._generation = 0
        self._last_progress_time = 0.0
        self._ramp_ceiling_kbps = 4.0 * max(trace.bandwidths_kbps)

    @property
    def active_transfers(self) -> int:
        return len(self._transfers)

    def start_transfer(
        self,
        size_kilobits: float,
        on_complete: Callable[[Transfer], None],
        on_fail: Optional[Callable] = None,
    ) -> Transfer:
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
        self._transfers[transfer.transfer_id] = transfer
        self._reschedule()
        return transfer

    def _capacity_now(self) -> float:
        return self.trace.bandwidth_at(self.queue.now)

    def _next_trace_boundary(self) -> float:
        now = self.queue.now
        duration = self.trace.duration_s
        pos = now % duration
        times = self.trace.timestamps
        idx = bisect.bisect_right(times, pos) - 1
        seg_end = times[idx + 1] if idx + 1 < len(times) else duration
        return now + (seg_end - pos)

    def _cap_kbps(self, transfer: Transfer) -> float:
        if transfer.ramp_done:
            return float("inf")
        return transfer.window_kilobits / self.rtt_s

    def _apply_progress(self) -> None:
        now = self.queue.now
        dt = now - self._last_progress_time
        if dt > 0:
            for transfer in self._transfers.values():
                transfer.remaining_kilobits -= transfer.current_rate_kbps * dt
        self._last_progress_time = now

    def _advance_windows(self) -> None:
        now = self.queue.now
        for transfer in self._transfers.values():
            while not transfer.ramp_done and transfer.next_epoch_s <= now + 1e-12:
                transfer.window_kilobits *= 2
                transfer.next_epoch_s += self.rtt_s
                if transfer.window_kilobits / self.rtt_s >= self._ramp_ceiling_kbps:
                    transfer.ramp_done = True

    def _reschedule(self) -> None:
        self._generation += 1
        generation = self._generation
        self._last_progress_time = self.queue.now
        if not self._transfers:
            return
        ids = list(self._transfers)
        caps = [self._cap_kbps(self._transfers[i]) for i in ids]
        rates = _water_fill(self._capacity_now(), caps)
        horizon = self._next_trace_boundary()
        for tid, rate in zip(ids, rates):
            transfer = self._transfers[tid]
            transfer.current_rate_kbps = rate
            if not transfer.ramp_done:
                horizon = min(horizon, transfer.next_epoch_s)
            if rate > 0:
                horizon = min(
                    horizon, self.queue.now + transfer.remaining_kilobits / rate
                )
        target = max(horizon, self.queue.now)
        if target == self.queue.now:
            # Same sub-ulp completion guard as the incremental link; the
            # engines must wedge (or not) in bit-identical lockstep.
            target = math.nextafter(target, math.inf)
        self.queue.schedule_at(target, lambda: self._on_progress(generation))

    def _on_progress(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._apply_progress()
        self._advance_windows()
        now = self.queue.now
        completed: List[Transfer] = []
        for tid in list(self._transfers):
            transfer = self._transfers[tid]
            if transfer.remaining_kilobits <= 1e-9:
                transfer.remaining_kilobits = 0.0
                transfer.completed_at_s = now
                del self._transfers[tid]
                completed.append(transfer)
        self._reschedule()
        for transfer in completed:
            transfer.on_complete(transfer)
