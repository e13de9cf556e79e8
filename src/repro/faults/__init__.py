"""``repro.faults`` — deterministic, seedable fault injection.

The stack's happy path is exercised everywhere; this package
manufactures the unhappy ones, end to end:

* :mod:`spec` — the fault vocabulary: :class:`Blackout`,
  :class:`ThroughputClamp`, :class:`LatencySpike`, :class:`ChunkFailure`
  as plain frozen dataclasses.
* :mod:`trace` — :func:`apply_trace_faults` compiles bandwidth faults
  into an ordinary :class:`~repro.traces.trace.Trace` by exact segment
  surgery (byte integration outside fault windows is untouched).
* :mod:`simlink` — :class:`SimLinkFaults`, the one injector of
  per-transfer faults (chunk failures, latency spikes): the simulator
  asks it for each download's dead time, the emulated client asks it
  each time a request reaches the link.
* :mod:`chaos` — :class:`ChaosPolicy`, the decision server's injected
  misbehaviour source (5xx, slow-loris, resets, mid-flight table swaps).
* :mod:`profiles` — named scenarios for ``repro-abr chaos`` and tests.

Everything is seeded and replayable: the same faults + seed + workload
produce the same failure sequence, which is what makes chaos runs
assertable in CI.  See ``docs/robustness.md`` for the full fault model
and the matching recovery semantics.
"""

from .spec import (
    BLACKOUT_FLOOR_KBPS,
    Blackout,
    ChunkFailure,
    FaultSpec,
    LatencySpike,
    ThroughputClamp,
    WindowedFault,
    bandwidth_faults,
    link_faults,
)
from .trace import apply_trace_faults
from .simlink import SimLinkFaults
from .chaos import (
    CHAOS_ERROR,
    CHAOS_KILL,
    CHAOS_NONE,
    CHAOS_RESET,
    CHAOS_SLOW,
    CHAOS_TABLE_SWAP,
    ChaosConfig,
    ChaosPolicy,
)
from .profiles import PROFILES, FaultProfile, get_profile, periodic_blackouts

__all__ = [
    "BLACKOUT_FLOOR_KBPS",
    "Blackout",
    "ChunkFailure",
    "FaultSpec",
    "LatencySpike",
    "ThroughputClamp",
    "WindowedFault",
    "bandwidth_faults",
    "link_faults",
    "apply_trace_faults",
    "SimLinkFaults",
    "CHAOS_ERROR",
    "CHAOS_KILL",
    "CHAOS_NONE",
    "CHAOS_RESET",
    "CHAOS_SLOW",
    "CHAOS_TABLE_SWAP",
    "ChaosConfig",
    "ChaosPolicy",
    "PROFILES",
    "FaultProfile",
    "get_profile",
    "periodic_blackouts",
]
