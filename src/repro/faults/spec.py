"""Fault specifications — the vocabulary of manufactured misbehaviour.

RobustMPC exists because throughput predictions go wrong (Section 4.3),
and the paper's FCC/HSDPA evaluation traces matter precisely because
they contain stalls and outages.  A :class:`FaultSpec` describes one
such event deterministically: *when* it happens (a wall-clock window on
the session timeline) and *what* it does.  Specs are plain frozen
dataclasses, so a fault scenario is data — it can be listed in a test,
named in a profile, or serialised into a report.

Two families exist, distinguished by where they apply:

* **bandwidth faults** (:class:`Blackout`, :class:`ThroughputClamp`) act
  on the capacity function itself and are compiled into an ordinary
  :class:`~repro.traces.trace.Trace` by
  :func:`repro.faults.trace.apply_trace_faults` — exact piecewise
  segment surgery, never numeric approximation;
* **link faults** (:class:`LatencySpike`, :class:`ChunkFailure`) act on
  individual transfers and are drawn by
  :class:`~repro.faults.simlink.SimLinkFaults`, which both session
  backends ask at each transfer start.

Randomised faults (:class:`ChunkFailure`) carry a *rate*, not an
outcome: the seeded RNG lives in the injector, so the same spec + seed
always reproduces the same failure sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FaultSpec",
    "WindowedFault",
    "Blackout",
    "ThroughputClamp",
    "LatencySpike",
    "ChunkFailure",
    "BLACKOUT_FLOOR_KBPS",
    "bandwidth_faults",
    "link_faults",
]

#: Capacity during a :class:`Blackout` window.  Exactly zero: the trace
#: model allows zero-bandwidth segments, and the exact integrator simply
#: delivers no bytes until the window ends.
BLACKOUT_FLOOR_KBPS = 0.0


@dataclass(frozen=True)
class FaultSpec:
    """Marker base class: every fault is one of these."""


@dataclass(frozen=True)
class WindowedFault(FaultSpec):
    """A fault active on the half-open wall-clock window
    ``[start_s, start_s + duration_s)``.

    Windows are expressed on the session timeline, which for traces is
    the trace's own ``[0, duration)`` — a fault window past the trace
    end is clipped away, and (like the trace itself) what remains
    repeats if the session wraps the trace.
    """

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or math.isnan(self.start_s):
            raise ValueError("fault start must be >= 0")
        if self.duration_s <= 0 or math.isinf(self.duration_s):
            raise ValueError("fault duration must be positive and finite")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class Blackout(WindowedFault):
    """Total connectivity loss: capacity pinned to
    :data:`BLACKOUT_FLOOR_KBPS` for the window (a tunnel, a handover
    gap — the HSDPA traces are full of these)."""


@dataclass(frozen=True)
class ThroughputClamp(WindowedFault):
    """Capacity capped at ``cap_kbps`` for the window — the
    contention-induced throughput collapse the multiplayer fairness
    work calls the common case, not the corner case."""

    cap_kbps: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cap_kbps < 0 or math.isnan(self.cap_kbps) or math.isinf(self.cap_kbps):
            raise ValueError("clamp cap must be finite and >= 0")


@dataclass(frozen=True)
class LatencySpike(WindowedFault):
    """Every transfer *starting* inside the window is delayed by
    ``extra_delay_s`` before its first byte flows (bufferbloat, a
    loaded CDN edge).  Overlapping spikes stack."""

    extra_delay_s: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_delay_s <= 0 or math.isinf(self.extra_delay_s):
            raise ValueError("extra delay must be positive and finite")


@dataclass(frozen=True)
class ChunkFailure(FaultSpec):
    """Each transfer fails independently with probability ``rate``.

    A failed transfer delivers nothing; the failure surfaces after
    ``detect_delay_s`` of wasted wall time (a connection timeout, a
    truncated response).  When ``start_s``/``duration_s`` bound a
    window, only transfers starting inside it are at risk; the default
    window is the whole session.  The Bernoulli draw itself is made by
    the injector's seeded RNG, so outcomes are reproducible.
    """

    rate: float = 0.1
    detect_delay_s: float = 0.25
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("failure rate must be in [0, 1]")
        if self.detect_delay_s < 0:
            raise ValueError("detect delay must be >= 0")
        if self.start_s < 0:
            raise ValueError("fault start must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("fault duration must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


def bandwidth_faults(faults) -> list:
    """The subset of ``faults`` that modify the capacity function."""
    return [f for f in faults if isinstance(f, (Blackout, ThroughputClamp))]


def link_faults(faults) -> list:
    """The subset of ``faults`` enforced per-transfer by the link."""
    return [f for f in faults if isinstance(f, (LatencySpike, ChunkFailure))]
