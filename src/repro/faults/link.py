"""Per-transfer fault enforcement around the emulation link.

:class:`FaultyLink` wraps a :class:`~repro.emulation.link.SharedTraceLink`
and applies the link-level fault specs — latency spikes delay a
transfer's first byte, chunk failures abort a transfer outright — while
delegating all byte accounting to the wrapped link, so the exact
integration and fair-sharing semantics are untouched.  The failure
draws, the spike delays and the transfer counters come from a
:class:`~repro.faults.simlink.SimLinkFaults`, the simulator's injector,
so both backends share one seeded draw per at-risk transfer in start
order: the same (faults, seed, workload) triple always reproduces the
same failure sequence.

A failure is reported through the ``on_fail`` callback with a
:class:`FailedTransfer` record.  Callers that pass no ``on_fail`` (a
client that predates the hardening) are never broken: the failure
degrades to a latency spike of ``detect_delay_s`` followed by a normal
delivery, because losing a chunk with nobody to retry it would deadlock
the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..emulation.link import SharedTraceLink, Transfer
from .simlink import SimLinkFaults
from .spec import FaultSpec

__all__ = ["FailedTransfer", "FaultyLink"]


@dataclass(frozen=True)
class FailedTransfer:
    """What the client learns about a transfer that did not complete."""

    size_kilobits: float
    started_at_s: float
    failed_at_s: float

    @property
    def wasted_s(self) -> float:
        return self.failed_at_s - self.started_at_s


class FaultyLink:
    """A :class:`SharedTraceLink` with link-level faults injected.

    Exposes the same surface the emulated client uses (``trace``,
    ``queue``, ``active_transfers``, ``start_transfer``), so it drops in
    wherever the clean link does.  Bandwidth faults belong in the
    wrapped link's trace (see
    :func:`~repro.faults.trace.apply_trace_faults`); this wrapper only
    handles the per-transfer kinds.
    """

    def __init__(
        self,
        inner: SharedTraceLink,
        faults: Iterable[FaultSpec],
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self._faults = SimLinkFaults(faults, seed)

    @property
    def transfers_started(self) -> int:
        return self._faults.transfers_started

    @property
    def transfers_failed(self) -> int:
        return self._faults.transfers_failed

    # ------------------------------------------------------------------
    # SharedTraceLink surface
    # ------------------------------------------------------------------

    @property
    def trace(self):
        return self.inner.trace

    @property
    def queue(self):
        return self.inner.queue

    @property
    def active_transfers(self) -> int:
        return self.inner.active_transfers

    @property
    def cross_flows(self) -> int:
        return self.inner.cross_flows

    def add_cross_flow(self, rate_kbps: float, label: str = "cross"):
        """Cross traffic is not subject to chunk faults — pass through."""
        return self.inner.add_cross_flow(rate_kbps, label)

    def remove_cross_flow(self, flow) -> float:
        return self.inner.remove_cross_flow(flow)

    def start_transfer(
        self,
        size_kilobits: float,
        on_complete: Callable[[Transfer], None],
        on_fail: Optional[Callable[[FailedTransfer], None]] = None,
    ) -> Optional[Transfer]:
        """Begin a transfer, subject to the injected faults.

        Returns the underlying :class:`Transfer` when the transfer
        starts immediately and cleanly; ``None`` when it was delayed or
        failed (the outcome arrives through the callbacks either way).
        """
        now = self.queue.now
        failure = self._faults.draw_failure(now)
        if failure is not None:
            delay = failure.detect_delay_s
            if on_fail is not None:
                started = now
                record = FailedTransfer(
                    size_kilobits, started, started + delay
                )
                self.queue.schedule_in(delay, lambda: on_fail(record))
                return None
            # No failure handler: degrade to a delay so the session
            # cannot deadlock on a lost chunk.
            self.queue.schedule_in(
                delay,
                lambda: self.inner.start_transfer(size_kilobits, on_complete),
            )
            return None

        extra = self._faults.spike_delay_s(now)
        if extra > 0:
            self.queue.schedule_in(
                extra,
                lambda: self.inner.start_transfer(size_kilobits, on_complete),
            )
            return None
        return self.inner.start_transfer(size_kilobits, on_complete)
