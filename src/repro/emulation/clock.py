"""A minimal discrete-event scheduler for the emulation testbed.

The emulator advances virtual time from event to event instead of sleeping
through wall-clock time the way the paper's Emulab testbed did; the
behaviourally relevant sequence (requests, byte deliveries, completions)
is identical and perfectly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

__all__ = ["EventQueue"]

_INFINITY = math.inf


class EventQueue:
    """A time-ordered callback queue with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute virtual time ``when``.

        ``when`` must be finite and not in the past: a NaN or infinite
        time would never come, and the queue would never drain.
        """
        if not self._now - 1e-12 <= when < _INFINITY:
            raise ValueError(
                f"cannot schedule at {when}: in the past (now {self._now})"
                " or not finite"
            )
        heapq.heappush(self._heap, (when, next(self._counter), callback))

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.schedule_at(self._now + delay, callback)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None when idle."""
        return self._heap[0][0] if self._heap else None

    def run_next(self) -> bool:
        """Pop and execute the earliest event; False when none remain."""
        if not self._heap:
            return False
        when, _, callback = heapq.heappop(self._heap)
        self._now = when
        callback()
        return True

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue; returns the number of events executed."""
        executed = 0
        while self.run_next():
            executed += 1
            if executed >= max_events:
                raise RuntimeError(
                    f"event budget of {max_events} exhausted — runaway emulation?"
                )
        return executed
