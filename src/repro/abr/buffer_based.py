"""BB — the buffer-based algorithm of Huang et al. (SIGCOMM 2014).

Section 7.1.2, item 2: *"We employ the function suggested by Huang et al,
where bitrate R_k is chosen to be the maximum available bitrate which is
less than r_k = f(B_k) with reservoir r = 5s and cushion c = 10s."*

The rate map ``f`` is the BBA-0 piecewise-linear chunk map: below the
reservoir the player pins the minimum rate to refill; across the cushion
the target rate rises linearly from ``Rmin`` to ``Rmax``; above
``reservoir + cushion`` the maximum rate is safe.  Throughput information
is deliberately discarded (Eq. 14) — that is the whole point of the BB
design philosophy the paper examines.
"""

from __future__ import annotations

from .base import ABRAlgorithm, PlayerObservation

__all__ = ["BufferBasedAlgorithm", "BufferBasedChunkMapAlgorithm"]


class BufferBasedAlgorithm(ABRAlgorithm):
    """Huang et al.'s reservoir/cushion linear rate map.

    Parameters
    ----------
    reservoir_s:
        Buffer level below which the minimum rate is forced (paper: 5 s).
    cushion_s:
        Width of the linear ramp from ``Rmin`` to ``Rmax`` (paper: 10 s).
    """

    name = "bb"

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 10.0) -> None:
        if reservoir_s < 0:
            raise ValueError("reservoir must be >= 0")
        if cushion_s <= 0:
            raise ValueError("cushion must be positive")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def rate_map_kbps(self, buffer_level_s: float) -> float:
        """``f(B)`` — the target rate for a given buffer occupancy."""
        self._require_prepared()
        ladder = self.manifest.ladder
        if buffer_level_s <= self.reservoir_s:
            return ladder.min_kbps
        if buffer_level_s >= self.reservoir_s + self.cushion_s:
            return ladder.max_kbps
        frac = (buffer_level_s - self.reservoir_s) / self.cushion_s
        return ladder.min_kbps + frac * (ladder.max_kbps - ladder.min_kbps)

    def select_bitrate(self, observation: PlayerObservation) -> int:
        self._require_prepared()
        return self.manifest.ladder.highest_at_most(
            self.rate_map_kbps(observation.buffer_level_s)
        )


class BufferBasedChunkMapAlgorithm(ABRAlgorithm):
    """BBA-1 — Huang et al.'s chunk-size map refinement of BBA-0.

    Where BBA-0 maps the buffer to a nominal *rate*, BBA-1 maps it to an
    actual *chunk size*: the reservoir/cushion ramp runs from the current
    chunk's smallest to its largest encoding, and the chosen level is the
    highest one whose chunk fits under the mapped size.  On a CBR
    manifest the two coincide; on VBR content BBA-1 reacts to the real
    per-chunk byte counts instead of the ladder's nominal rates.

    Parameters
    ----------
    reservoir_s / cushion_s:
        Same knobs (and defaults) as BBA-0.
    """

    name = "bba-1"

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 10.0) -> None:
        if reservoir_s < 0:
            raise ValueError("reservoir must be >= 0")
        if cushion_s <= 0:
            raise ValueError("cushion must be positive")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def chunk_size_map_kilobits(
        self, chunk_index: int, buffer_level_s: float
    ) -> float:
        """``f(B)`` in chunk-size space for chunk ``chunk_index``."""
        self._require_prepared()
        (sizes,) = self.manifest.chunk_size_rows(chunk_index, 1)
        s_min = sizes[0]
        s_max = sizes[-1]
        if buffer_level_s <= self.reservoir_s:
            return s_min
        if buffer_level_s >= self.reservoir_s + self.cushion_s:
            return s_max
        frac = (buffer_level_s - self.reservoir_s) / self.cushion_s
        return s_min + frac * (s_max - s_min)

    def select_bitrate(self, observation: PlayerObservation) -> int:
        self._require_prepared()
        target = self.chunk_size_map_kilobits(
            observation.chunk_index, observation.buffer_level_s
        )
        # Largest level whose chunk fits under the mapped size (sizes are
        # strictly increasing per chunk); comparisons only, so the fleet
        # batch twin's searchsorted agrees on every input.
        (sizes,) = self.manifest.chunk_size_rows(observation.chunk_index, 1)
        best = 0
        for level in range(1, len(sizes)):
            if sizes[level] <= target:
                best = level
        return best
