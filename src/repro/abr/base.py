"""The ABR algorithm interface shared by the simulator and the emulator.

Section 3.3 frames every adaptation algorithm as a function

.. math::  R_k = f(B_k, \\{\\hat C_t, t > t_k\\}, \\{R_i, i < k\\})

— bitrate from buffer occupancy, throughput predictions, and past
decisions.  :class:`ABRAlgorithm` is that ``f`` plus the session-lifecycle
hooks a real player needs: per-session preparation, a feedback call after
every completed chunk, and an optional startup-wait decision.

Both execution backends (:mod:`repro.sim` and :mod:`repro.emulation`)
drive algorithms exclusively through this interface, which is what makes
the paper's algorithm comparison apples-to-apples.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..qoe import QoEWeights
from ..prediction.base import ThroughputPredictor
from ..video.manifest import VideoManifest
from ..video.quality import IdentityQuality, QualityFunction

__all__ = [
    "SessionConfig",
    "PlayerObservation",
    "DownloadResult",
    "ABRAlgorithm",
]


@dataclass(frozen=True)
class SessionConfig:
    """Per-session environment parameters shared with the algorithm.

    ``request_target_buffer_s`` generalises the chunk-scheduling wait
    ``Delta t_k`` of Eq. (4): when set, the player paces its requests so
    the buffer settles at the target rather than filling all the way to
    ``Bmax`` (how production players schedule; the paper's model is the
    default ``None`` = pace only at capacity).
    """

    buffer_capacity_s: float = 30.0  # Bmax (paper default, Section 7.1.1)
    weights: QoEWeights = field(default_factory=QoEWeights.balanced)
    quality: QualityFunction = field(default_factory=IdentityQuality)
    request_target_buffer_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.buffer_capacity_s < math.inf:
            raise ValueError("buffer capacity must be a finite number > 0")
        if self.request_target_buffer_s is not None and not (
            0.0 < self.request_target_buffer_s < math.inf
        ):
            raise ValueError("request target buffer must be a finite number > 0")

    @property
    def pacing_threshold_s(self) -> float:
        """The buffer level above which the player delays its next GET."""
        if self.request_target_buffer_s is None:
            return self.buffer_capacity_s
        return min(self.request_target_buffer_s, self.buffer_capacity_s)


@dataclass(frozen=True)
class PlayerObservation:
    """Player state at a decision instant (start of chunk ``k``).

    ``available_chunks`` is the number of chunks published so far in a
    live session (chunks ``0 .. available_chunks - 1`` exist); ``None``
    — the default, and always the case for on-demand video — means the
    whole manifest is available.  Lookahead controllers clip their
    planning horizon to it.
    """

    chunk_index: int
    buffer_level_s: float  # B_k, known exactly
    prev_level_index: Optional[int]  # None before the first chunk
    wall_time_s: float
    playback_started: bool
    available_chunks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.chunk_index < 0:
            raise ValueError("chunk index must be >= 0")
        if self.buffer_level_s < 0:
            raise ValueError("buffer level must be >= 0")
        if self.wall_time_s < 0:
            raise ValueError("wall time must be >= 0")
        if (
            self.available_chunks is not None
            and self.available_chunks <= self.chunk_index
        ):
            raise ValueError(
                "a decision requires the chunk being decided to be available"
            )


@dataclass(frozen=True)
class DownloadResult:
    """Feedback after chunk ``k`` finished downloading.

    ``stalled_s`` is dead time *inside* the download window — seconds
    spent in zero-bandwidth trace segments or burnt detecting link
    failures — and ``idle_before_s`` is off time between the previous
    transfer's end and this one's start (pacing waits, live-availability
    waits).  Both default to 0 for backends that predate the
    streaming-aware prediction layer; gap-corrected predictors use them
    to reconstruct active-transfer rates.
    """

    chunk_index: int
    level_index: int
    bitrate_kbps: float
    size_kilobits: float
    download_time_s: float
    throughput_kbps: float  # C_k of Eq. 2 — size / download time
    rebuffer_s: float
    buffer_after_s: float
    wall_time_end_s: float
    waited_s: float = 0.0  # Delta t_k, non-zero only at a full buffer
    buffer_before_s: float = 0.0  # B_k at the decision instant
    stalled_s: float = 0.0  # dead time inside the download window
    idle_before_s: float = 0.0  # off time since the previous transfer

    def __post_init__(self) -> None:
        if self.download_time_s < 0 or self.rebuffer_s < 0 or self.waited_s < 0:
            raise ValueError("times must be >= 0")
        if self.throughput_kbps <= 0:
            raise ValueError("measured throughput must be positive")
        if self.stalled_s < 0 or self.idle_before_s < 0:
            raise ValueError("stall/idle times must be >= 0")
        if self.stalled_s > self.download_time_s:
            raise ValueError("stall time cannot exceed the download time")


class ABRAlgorithm(ABC):
    """Base class for all bitrate-adaptation algorithms."""

    name = "base"

    #: Optional :class:`repro.obs.Tracer` for profiling hooks (solver
    #: wall-time, table-lookup depth).  Sessions attach theirs before
    #: driving the algorithm; ``None`` keeps every hook a no-op.
    tracer = None

    def prepare(self, manifest: VideoManifest, config: SessionConfig) -> None:
        """Bind to a video/session; called once before each session.

        Subclasses overriding this must call ``super().prepare(...)``.
        """
        self.manifest = manifest
        self.config = config
        for predictor in self.predictors():
            predictor.reset()

    @abstractmethod
    def select_bitrate(self, observation: PlayerObservation) -> int:
        """Choose the ladder level index for the next chunk."""

    def on_download_complete(self, result: DownloadResult) -> None:
        """Feedback hook; default updates every exposed predictor."""
        for predictor in self.predictors():
            predictor.observe_kbps(
                result.throughput_kbps,
                result.download_time_s,
                idle_s=result.idle_before_s,
                stall_s=result.stalled_s,
            )

    def select_startup_wait(self, observation: PlayerObservation) -> float:
        """Extra seconds to wait after the first chunk before playback.

        Only MPC's startup variant (``f_stmpc``) optimises this; the default
        is to start playback immediately once the first chunk arrives,
        which is how the baseline algorithms behave.
        """
        return 0.0

    def predictors(self) -> Iterable[ThroughputPredictor]:
        """Predictors this algorithm owns (for reset/observe/trace-binding).

        Algorithms without predictors (pure buffer-based) return nothing.
        """
        return ()

    # ------------------------------------------------------------------

    def _require_prepared(self) -> None:
        if not hasattr(self, "manifest"):
            raise RuntimeError(
                f"{type(self).__name__} used before prepare(); run it "
                "through a simulation or emulation session"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
