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
    ``[start_s, start_s + duration_s)``; both fields must be finite,
    ``start_s >= 0`` and ``duration_s > 0``.

    Bandwidth-fault windows live on the trace's own ``[0, duration)``:
    the part of a window past the trace end is clipped away, and (like
    the trace itself) what remains repeats if the session wraps the
    trace.  Link-fault windows (:class:`LatencySpike`) are on the
    session clock: they are tested at each transfer's start instant,
    are not clipped at the trace end and do not repeat when the session
    wraps the trace.
    """

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_s < math.inf:
            raise ValueError(f"start_s must be finite and >= 0, got {self.start_s}")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration_s must be finite and > 0, got {self.duration_s}"
            )

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
    ``extra_delay_s`` (finite, > 0) before its first byte flows
    (bufferbloat, a loaded CDN edge).  Overlapping spikes stack.  The
    window is on the session clock, so a session that wraps the trace
    does not meet it again."""

    extra_delay_s: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.extra_delay_s < math.inf:
            raise ValueError(
                f"extra_delay_s must be finite and > 0, got {self.extra_delay_s}"
            )


@dataclass(frozen=True)
class ChunkFailure(FaultSpec):
    """Each transfer fails independently with probability ``rate``.

    A failed transfer delivers nothing; the failure surfaces after
    ``detect_delay_s`` (finite, >= 0) of wasted wall time (a connection
    timeout, a truncated response).  When ``start_s``/``duration_s``
    bound a window, only transfers starting inside it are at risk; the
    default window is the whole session (``duration_s`` is the one field
    that may be infinite).  Like :class:`LatencySpike`'s, the window is
    on the session clock and does not repeat when the session wraps the
    trace.  The Bernoulli draw itself is made by the injector's seeded
    RNG, so outcomes are reproducible.
    """

    rate: float = 0.1
    detect_delay_s: float = 0.25
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if not 0.0 <= self.detect_delay_s < math.inf:
            raise ValueError(
                f"detect_delay_s must be finite and >= 0, got {self.detect_delay_s}"
            )
        if not 0.0 <= self.start_s < math.inf:
            raise ValueError(f"start_s must be finite and >= 0, got {self.start_s}")
        if not self.duration_s > 0.0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")

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
