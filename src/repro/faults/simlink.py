"""Per-transfer link-fault draws, shared by both session backends.

:class:`SimLinkFaults` is the one implementation of the link-level
fault semantics.  The chunk-level simulator asks it for each download's
dead time (:meth:`SimLinkFaults.overhead_s`); the emulated client
(:class:`~repro.emulation.client.EmulatedClient`) asks it
:meth:`~SimLinkFaults.draw_failure` and
:meth:`~SimLinkFaults.spike_delay_s` each time one of its requests
reaches the link, and retries a failed attempt at the level it decided.

* each transfer attempt makes one seeded Bernoulli draw per at-risk
  :class:`ChunkFailure` spec, in start order — a failure costs
  ``detect_delay_s`` of dead wall time and the chunk retries from the
  delayed instant (a fresh draw at the new start time);
* a chunk's 65th attempt makes no draw: it always survives, so even a
  ``rate=1.0`` spec ends after 64 failures of each chunk;
* once a start survives the failure draws, every :class:`LatencySpike`
  window active at that start instant delays the first byte by its
  ``extra_delay_s`` (overlapping spikes stack; a spike that begins
  during another's delay does not).

In the simulator the whole overhead is *dead* time: it extends the
download's wall clock without delivering bytes, so the session loop
counts it both into the download time and into the chunk's
``stalled_s`` — which is precisely the on/off signal the gap-corrected
predictors divide back out.

The same (faults, seed) pair always reproduces the same overhead
sequence, keeping sensitivity-experiment results bit-reproducible across
worker counts.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from .spec import ChunkFailure, FaultSpec, LatencySpike, link_faults

__all__ = ["SimLinkFaults"]

#: Failed attempts per chunk before its next attempt is spared the draw:
#: with the profile rates used in this repo (<= 0.25) the probability of
#: reaching it is below 1e-38; it exists so a pathological rate=1.0 spec
#: ends each chunk instead of looping forever.
_MAX_ATTEMPTS = 64


class SimLinkFaults:
    """Deterministic link-fault draws: failures and spike delays."""

    def __init__(self, faults: Iterable[FaultSpec], seed: int = 0) -> None:
        specs = link_faults(faults)
        self._failures: List[ChunkFailure] = [
            s for s in specs if isinstance(s, ChunkFailure)
        ]
        self._spikes: List[LatencySpike] = [
            s for s in specs if isinstance(s, LatencySpike)
        ]
        self._rng = random.Random(seed)

    def __bool__(self) -> bool:
        return bool(self._failures or self._spikes)

    def overhead_s(self, start_s: float) -> float:
        """Dead seconds injected ahead of a transfer starting at ``start_s``.

        Consumes RNG draws exactly as the emulated client does when it
        retries every failure immediately.
        """
        now = start_s
        attempt = 0
        while True:
            spec = self.draw_failure(now, attempt)
            if spec is None:
                break
            now += spec.detect_delay_s
            attempt += 1
        return now + self.spike_delay_s(now) - start_s

    def draw_failure(self, now: float, attempt: int) -> Optional[ChunkFailure]:
        """Start a transfer attempt at ``now``, after ``attempt`` failed
        ones of the same chunk: the spec that fails it, or None.

        One Bernoulli draw per at-risk spec, in spec order; none once
        the chunk has failed :data:`_MAX_ATTEMPTS` times.
        """
        if attempt >= _MAX_ATTEMPTS:
            return None
        for spec in self._failures:
            if spec.rate <= 0 or not spec.active_at(now):
                continue
            if self._rng.random() < spec.rate:
                return spec
        return None

    def spike_delay_s(self, now: float) -> float:
        """First-byte delay of a transfer starting at ``now``: the sum of
        every spike active at that instant."""
        return sum(s.extra_delay_s for s in self._spikes if s.active_at(now))
