"""Video model: chunked manifests with per-level chunk sizes.

Section 3.1 of the paper models a video as ``K`` consecutive chunks of
``L`` seconds, each encoded at every bitrate in a ladder ``R``.  Chunk
``k`` at bitrate ``R_k`` has size ``d_k(R_k)``: in the constant-bitrate
(CBR) case ``d_k(R_k) = L * R_k``; in the variable-bitrate (VBR) case the
relationship differs per chunk.

:class:`VideoManifest` captures both cases as an explicit per-chunk,
per-level size table, which is also the piece of metadata the paper notes
the DASH standard should (but does not) mandate in the MPD.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["BitrateLadder", "VideoManifest"]


class BitrateLadder:
    """An ordered set of available bitrate levels, in kbps."""

    __slots__ = ("_levels",)

    def __init__(self, levels_kbps: Sequence[float]) -> None:
        if not levels_kbps:
            raise ValueError("a ladder needs at least one bitrate level")
        levels = tuple(float(x) for x in levels_kbps)
        if not all(math.isfinite(x) and x > 0 for x in levels):
            raise ValueError("bitrate levels must be finite and positive")
        if list(levels) != sorted(levels):
            raise ValueError("bitrate levels must be sorted ascending")
        if len(set(levels)) != len(levels):
            raise ValueError("bitrate levels must be distinct")
        self._levels = levels

    @property
    def levels_kbps(self) -> Tuple[float, ...]:
        return self._levels

    def __len__(self) -> int:
        return len(self._levels)

    def __getitem__(self, index: int) -> float:
        return self._levels[index]

    def __iter__(self):
        return iter(self._levels)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitrateLadder) and self._levels == other._levels

    def __hash__(self) -> int:
        return hash(self._levels)

    def __repr__(self) -> str:
        return f"BitrateLadder({list(self._levels)})"

    @property
    def min_kbps(self) -> float:
        return self._levels[0]

    @property
    def max_kbps(self) -> float:
        return self._levels[-1]

    def index_of(self, bitrate_kbps: float) -> int:
        """Index of an exact ladder level; raises for unknown rates."""
        for i, level in enumerate(self._levels):
            if math.isclose(level, bitrate_kbps, rel_tol=1e-9, abs_tol=1e-6):
                return i
        raise ValueError(f"{bitrate_kbps} kbps is not a ladder level of {self}")

    def highest_at_most(self, budget_kbps: float) -> int:
        """Index of the highest level <= budget (lowest level if none fit).

        This is the paper's canonical rate-based rule: "choose the maximum
        possible bitrate below the predicted throughput".
        """
        best = 0
        for i, level in enumerate(self._levels):
            if level <= budget_kbps:
                best = i
            else:
                break
        return best

    @staticmethod
    def uniform(min_kbps: float, max_kbps: float, count: int) -> "BitrateLadder":
        """Evenly spaced ladder, used by the bitrate-level sensitivity sweep."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            return BitrateLadder([min_kbps])
        if not (0 < min_kbps < max_kbps):
            raise ValueError("need 0 < min < max")
        step = (max_kbps - min_kbps) / (count - 1)
        return BitrateLadder([min_kbps + i * step for i in range(count)])

    @staticmethod
    def geometric(min_kbps: float, max_kbps: float, count: int) -> "BitrateLadder":
        """Geometrically spaced ladder (how real encoders space levels)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            return BitrateLadder([min_kbps])
        if not (0 < min_kbps < max_kbps):
            raise ValueError("need 0 < min < max")
        ratio = (max_kbps / min_kbps) ** (1.0 / (count - 1))
        return BitrateLadder([min_kbps * ratio**i for i in range(count)])


class VideoManifest:
    """A chunked video: ``K`` chunks of ``L`` seconds at ladder bitrates.

    Parameters
    ----------
    chunk_duration_s:
        ``L``, the play time of each chunk.
    ladder:
        The available bitrate levels ``R``.
    chunk_sizes_kilobits:
        ``chunk_sizes_kilobits[k][i]`` is ``d_k(R_i)`` in kilobits.  Use
        :meth:`cbr` when sizes are exactly ``L * R_i``.
    title:
        Optional label for reports.
    """

    __slots__ = ("_duration", "_ladder", "_sizes", "title")

    def __init__(
        self,
        chunk_duration_s: float,
        ladder: BitrateLadder,
        chunk_sizes_kilobits: Sequence[Sequence[float]],
        title: str = "",
    ) -> None:
        if not (math.isfinite(chunk_duration_s) and chunk_duration_s > 0):
            raise ValueError("chunk duration must be finite and positive")
        if not chunk_sizes_kilobits:
            raise ValueError("a video needs at least one chunk")
        sizes: List[Tuple[float, ...]] = []
        for k, row in enumerate(chunk_sizes_kilobits):
            if len(row) != len(ladder):
                raise ValueError(
                    f"chunk {k} has {len(row)} sizes but the ladder has {len(ladder)} levels"
                )
            row_t = tuple(float(x) for x in row)
            if not all(math.isfinite(x) and x > 0 for x in row_t):
                raise ValueError(f"chunk {k} has a non-finite or non-positive size")
            if list(row_t) != sorted(row_t):
                raise ValueError(f"chunk {k} sizes must increase with bitrate level")
            sizes.append(row_t)
        self._duration = float(chunk_duration_s)
        self._ladder = ladder
        self._sizes = tuple(sizes)
        self.title = title

    # ------------------------------------------------------------------

    @classmethod
    def cbr(
        cls,
        chunk_duration_s: float,
        ladder: BitrateLadder,
        num_chunks: int,
        title: str = "",
    ) -> "VideoManifest":
        """Constant-bitrate video: ``d_k(R) = L * R`` for every chunk."""
        if num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")
        row = tuple(chunk_duration_s * r for r in ladder)
        return cls(chunk_duration_s, ladder, [row] * num_chunks, title=title)

    # ------------------------------------------------------------------

    @property
    def chunk_duration_s(self) -> float:
        return self._duration

    @property
    def ladder(self) -> BitrateLadder:
        return self._ladder

    @property
    def num_chunks(self) -> int:
        return len(self._sizes)

    @property
    def total_duration_s(self) -> float:
        return self.num_chunks * self._duration

    def __repr__(self) -> str:
        label = f" {self.title!r}" if self.title else ""
        return (
            f"<VideoManifest{label} chunks={self.num_chunks} "
            f"L={self._duration:g}s levels={len(self._ladder)}>"
        )

    def chunk_size_kilobits(self, chunk_index: int, level_index: int) -> float:
        """``d_k(R_i)`` — size of chunk ``k`` at ladder level ``i``."""
        if not 0 <= chunk_index < self.num_chunks:
            raise IndexError(f"chunk index {chunk_index} out of range")
        return self._sizes[chunk_index][level_index]

    def chunk_sizes_at_level(self, level_index: int) -> List[float]:
        """Sizes of every chunk at one ladder level."""
        if not 0 <= level_index < len(self._ladder):
            raise IndexError(f"level index {level_index} out of range")
        return [row[level_index] for row in self._sizes]

    def is_cbr(self, rel_tol: float = 1e-9) -> bool:
        """True when every chunk size equals ``L * R`` exactly."""
        for row in self._sizes:
            for size, rate in zip(row, self._ladder):
                if not math.isclose(size, self._duration * rate, rel_tol=rel_tol):
                    return False
        return True

    def effective_bitrate_kbps(self, chunk_index: int, level_index: int) -> float:
        """Actual per-chunk bitrate ``d_k(R_i) / L`` (differs from the
        nominal level for VBR encodes)."""
        return self.chunk_size_kilobits(chunk_index, level_index) / self._duration

    def with_ladder(self, ladder: BitrateLadder, title: str = "") -> "VideoManifest":
        """CBR re-encode of this video at a different ladder (same K, L)."""
        return VideoManifest.cbr(
            self._duration, ladder, self.num_chunks, title=title or self.title
        )

    def truncated(self, num_chunks: int) -> "VideoManifest":
        """The first ``num_chunks`` chunks of this video."""
        if not 1 <= num_chunks <= self.num_chunks:
            raise ValueError("num_chunks out of range")
        return VideoManifest(
            self._duration, self._ladder, self._sizes[:num_chunks], title=self.title
        )
