"""Vectorized batch controllers — one decision call for N sessions.

Each class here is the array-of-sessions twin of one registry algorithm,
and the pairing is *exact*: for every session in the batch, the level
sequence produced through the batch interface is bit-identical to what
the scalar algorithm would have chosen inside
:func:`repro.sim.session.simulate_session` (same arithmetic, same
operation order, same tie-breaks).  That parity is what lets the fleet
stepper claim its results ARE the reference simulator's results, just
computed thousands of sessions at a time.

How exactness is preserved, per mechanism:

* Elementwise float64 NumPy arithmetic (add/sub/mul/div/maximum) is
  IEEE-754 identical to the equivalent Python-float expression, so every
  formula below replicates its scalar twin's operation order literally.
* The harmonic-mean window sums reciprocals with an explicit sequential
  chain of elementwise adds (oldest sample first, zero-padded tail) —
  the same order as Python's ``sum`` over the predictor's deque, without
  relying on NumPy reduction internals.
* Max-of-window reductions (the RobustMPC error bound) are
  order-independent, so ``np.max`` is safe.
* FastMPC decisions go through one :class:`DecisionTableStack` of the
  batch's preset tables — the *same* tables ``FastMPCController.prepare``
  would build, one per distinct weight vector — whose answers are pinned
  equal to each table's ``lookup_batch``, itself pinned scalar-equal to
  ``lookup``.
* BOLA's and DAS-IP's exact first-wins argmax and the ladder's
  ``highest_at_most`` scan are replicated as comparison-only
  loops/searches (no arithmetic, hence no rounding to diverge).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..abr.base import SessionConfig
from ..abr.bola import BolaAlgorithm
from ..abr.buffer_based import BufferBasedAlgorithm, BufferBasedChunkMapAlgorithm
from ..abr.dasip import DasIpAlgorithm
from ..abr.fixed import ConstantLevelAlgorithm
from ..abr.rate_based import RateBasedAlgorithm
from ..core.fastmpc import FastMPCConfig, FastMPCController, build_decision_table
from ..core.table import DecisionTableStack
from ..prediction.base import OBSERVATION_FLOOR_KBPS
from ..prediction.streaming import GapCorrectedHarmonicPredictor
from ..video.manifest import VideoManifest

__all__ = [
    "SUPPORTED_CONTROLLERS",
    "supported_controllers",
    "make_batch_controller",
    "make_scalar_algorithm",
]

#: Registry names with an exact vectorized twin.  The remaining registry
#: algorithms (mpc, robust-mpc, festive, dashjs, mdp) run a per-chunk
#: solver or stateful heuristics that have no array form yet; the fleet
#: driver rejects them up front rather than silently falling back.
SUPPORTED_CONTROLLERS = (
    "lowest",
    "highest",
    "rb",
    "bb",
    "bba-1",
    "bola",
    "das-ip",
    "fastmpc",
    "robust-fastmpc",
    "fastmpc-gap",
)


def supported_controllers() -> tuple:
    """Controller names the batch stepper can run (registry-compatible)."""
    return SUPPORTED_CONTROLLERS


def make_scalar_algorithm(
    name: str,
    cache_dir: Optional[str] = None,
    table_config: Optional[FastMPCConfig] = None,
):
    """The reference (scalar) algorithm a batch controller is pinned to.

    Mirrors the registry factories exactly, with the fleet's ``cache_dir``
    and optional table-discretization override threaded through.
    """
    if name == "lowest":
        return ConstantLevelAlgorithm(0)
    if name == "highest":
        return ConstantLevelAlgorithm(-1)
    if name == "rb":
        return RateBasedAlgorithm()
    if name == "bb":
        return BufferBasedAlgorithm()
    if name == "bba-1":
        return BufferBasedChunkMapAlgorithm()
    if name == "bola":
        return BolaAlgorithm()
    if name == "das-ip":
        return DasIpAlgorithm()
    if name == "fastmpc":
        return FastMPCController(config=table_config, cache_dir=cache_dir)
    if name == "robust-fastmpc":
        return FastMPCController(
            config=table_config, robust=True, cache_dir=cache_dir
        )
    if name == "fastmpc-gap":
        return FastMPCController(
            predictor=GapCorrectedHarmonicPredictor(),
            config=table_config,
            cache_dir=cache_dir,
            name="fastmpc-gap",
        )
    raise ValueError(
        f"unsupported fleet controller {name!r}; expected one of "
        f"{SUPPORTED_CONTROLLERS}"
    )


# ----------------------------------------------------------------------
# Shared vectorized predictor state
# ----------------------------------------------------------------------


class _BatchHarmonic:
    """N independent harmonic-mean windows advancing in lockstep.

    Sessions in a batch observe one throughput per chunk simultaneously,
    so the fill level is a single integer shared by all rows.  Samples
    are stored as reciprocals, oldest first, with a zero tail while the
    window warms up: adding a trailing ``+0.0`` never changes a positive
    partial sum, so the explicit sequential add chain below reproduces
    ``len(samples) / sum(1.0 / s for s in samples)`` exactly.
    """

    __slots__ = ("window", "cold_start_kbps", "_recip", "_filled")

    def __init__(self, n: int, window: int = 5, cold_start_kbps: float = 100.0):
        self.window = window
        self.cold_start_kbps = cold_start_kbps
        self._recip = np.zeros((n, window), dtype=np.float64)
        self._filled = 0

    def estimate(self):
        if self._filled == 0:
            return np.full(self._recip.shape[0], self.cold_start_kbps)
        total = self._recip[:, 0].copy()
        for j in range(1, self.window):
            total += self._recip[:, j]
        return self._filled / total

    def observe(self, throughput_kbps) -> None:
        clamped = np.maximum(throughput_kbps, OBSERVATION_FLOOR_KBPS)
        if self._filled < self.window:
            self._recip[:, self._filled] = 1.0 / clamped
            self._filled += 1
        else:
            self._recip[:, :-1] = self._recip[:, 1:]
            self._recip[:, -1] = 1.0 / clamped


def _batch_active_rates(throughput_kbps, download_time_s, stall_s):
    """Elementwise :attr:`ThroughputObservation.active_kbps` twin.

    Rows with no in-window stall (or a fully stalled transfer) keep the
    clamped wall rate *by selection* — ``np.where`` copies the value, no
    arithmetic touches it — which is what preserves the scalar
    degradation contract bit for bit.
    """
    clamped = np.maximum(throughput_kbps, OBSERVATION_FLOOR_KBPS)
    engaged = (stall_s > 0.0) & (stall_s < download_time_s)
    denom = np.where(engaged, download_time_s - stall_s, 1.0)
    active = np.where(engaged, clamped * (download_time_s / denom), clamped)
    return active, engaged


class _BatchGapHarmonic:
    """N :class:`GapCorrectedHarmonicPredictor` windows in lockstep.

    Stores active rates (oldest first) plus a per-sample corrected flag;
    the estimate replicates the scalar predictor's expression order
    without a robust discount (the fleet's ``fastmpc-gap`` uses none) —
    harmonic mean, then the clamp into the window's [min, max]
    active-rate range, applied only to rows where a correction engaged
    (min/max/comparison selection, no rounding).
    """

    __slots__ = ("window", "cold_start_kbps", "_active", "_corrected", "_filled")

    def __init__(self, n: int, window: int = 5, cold_start_kbps: float = 100.0):
        self.window = window
        self.cold_start_kbps = cold_start_kbps
        self._active = np.zeros((n, window), dtype=np.float64)
        self._corrected = np.zeros((n, window), dtype=bool)
        self._filled = 0

    def estimate(self):
        n = self._active.shape[0]
        if self._filled == 0:
            return np.full(n, self.cold_start_kbps)
        cols = self._active[:, : self._filled]
        recip = 1.0 / cols
        total = recip[:, 0].copy()
        for j in range(1, self._filled):
            total += recip[:, j]
        estimate = self._filled / total
        engaged = self._corrected[:, : self._filled].any(axis=1)
        if not engaged.any():
            return estimate
        lo = np.min(cols, axis=1)
        hi = np.max(cols, axis=1)
        clamped = np.minimum(np.maximum(estimate, lo), hi)
        return np.where(engaged, clamped, estimate)

    def observe(self, throughput_kbps, download_time_s, stall_s) -> None:
        active, engaged = _batch_active_rates(
            throughput_kbps, download_time_s, stall_s
        )
        if self._filled < self.window:
            self._active[:, self._filled] = active
            self._corrected[:, self._filled] = engaged
            self._filled += 1
        else:
            self._active[:, :-1] = self._active[:, 1:]
            self._active[:, -1] = active
            self._corrected[:, :-1] = self._corrected[:, 1:]
            self._corrected[:, -1] = engaged


class _BatchErrorTracker:
    """N :class:`PredictionErrorTracker` windows in lockstep."""

    __slots__ = ("window", "_errors", "_filled")

    def __init__(self, n: int, window: int = 5):
        self.window = window
        self._errors = np.zeros((n, window), dtype=np.float64)
        self._filled = 0

    def record(self, predicted_kbps, actual_kbps) -> None:
        actual = np.maximum(actual_kbps, OBSERVATION_FLOOR_KBPS)
        err = (predicted_kbps - actual) / actual
        if self._filled < self.window:
            self._errors[:, self._filled] = err
            self._filled += 1
        else:
            self._errors[:, :-1] = self._errors[:, 1:]
            self._errors[:, -1] = err

    def max_recent_abs_error(self):
        if self._filled == 0:
            return np.zeros(self._errors.shape[0])
        # max is order-independent, so the reduction is safe to vectorize.
        return np.max(np.abs(self._errors[:, : self._filled]), axis=1)


def _highest_at_most_batch(ladder_array, budgets):
    """Vectorized ``BitrateLadder.highest_at_most``: the largest index
    whose level is <= the budget, or 0 when none fit (comparisons only,
    so batch and scalar agree on every input)."""
    idx = np.searchsorted(ladder_array, budgets, side="right") - 1
    return np.maximum(idx, 0)


# ----------------------------------------------------------------------
# Batch controllers
# ----------------------------------------------------------------------


class _BatchController:
    """Array-of-sessions decision interface driven by the stepper."""

    def prepare(self, manifest: VideoManifest, config, n: int):
        """Set up for ``n`` sessions of ``manifest``.

        ``config`` is one :class:`SessionConfig` for every session, or a
        sequence of ``n`` that differ only in their Eq. 5 weights
        (:func:`~repro.fleet.stepper.run_batch` checks that).
        ``self.config`` is then the first; every field but the weights
        holds for all sessions.
        """
        self.manifest = manifest
        self.configs = [config] * n if isinstance(config, SessionConfig) else list(config)
        self.config = self.configs[0] if self.configs else config
        self.n = n

    def decide(self, chunk_index: int, buffer_s, prev_levels):
        """Level indices (int64 array) for chunk ``chunk_index``.

        ``prev_levels`` holds zeros at the first chunk, matching the
        scalar convention ``prev_level_index None -> 0`` used by the
        algorithms that consult it.
        """
        raise NotImplementedError

    def observe(self, throughput_kbps, download_time_s=None, stall_s=None) -> None:
        """Feedback after the chunk completed (raw ``size / time``).

        The stepper always passes the download times and the stalled
        seconds inside them; only the gap-corrected predictor twin consumes them.
        """


class _BatchConstant(_BatchController):
    def __init__(self, level_index: int):
        self._requested = level_index

    def prepare(self, manifest, config, n):
        super().prepare(manifest, config, n)
        count = len(manifest.ladder)
        level = self._requested
        if level < 0:
            level += count
        if not 0 <= level < count:
            raise ValueError(
                f"level {self._requested} invalid for a {count}-level ladder"
            )
        self._level = level

    def decide(self, chunk_index, buffer_s, prev_levels):
        return np.full(self.n, self._level, dtype=np.int64)


class _BatchRateBased(_BatchController):
    def __init__(self, safety_factor: float = 1.0):
        self.safety_factor = safety_factor

    def prepare(self, manifest, config, n):
        super().prepare(manifest, config, n)
        self._ladder = np.asarray(manifest.ladder.levels_kbps, dtype=np.float64)
        self._predictor = _BatchHarmonic(n)

    def decide(self, chunk_index, buffer_s, prev_levels):
        budget = self.safety_factor * self._predictor.estimate()
        return _highest_at_most_batch(self._ladder, budget)

    def observe(self, throughput_kbps, download_time_s=None, stall_s=None):
        self._predictor.observe(throughput_kbps)


class _BatchBufferBased(_BatchController):
    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 10.0):
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def prepare(self, manifest, config, n):
        super().prepare(manifest, config, n)
        self._ladder = np.asarray(manifest.ladder.levels_kbps, dtype=np.float64)
        self._min = manifest.ladder.min_kbps
        self._max = manifest.ladder.max_kbps

    def decide(self, chunk_index, buffer_s, prev_levels):
        frac = (buffer_s - self.reservoir_s) / self.cushion_s
        linear = self._min + frac * (self._max - self._min)
        target = np.where(
            buffer_s <= self.reservoir_s,
            self._min,
            np.where(
                buffer_s >= self.reservoir_s + self.cushion_s, self._max, linear
            ),
        )
        return _highest_at_most_batch(self._ladder, target)


class _BatchBufferBasedChunkMap(_BatchController):
    """BBA-1's chunk-size map; per-chunk size arrays, comparisons only."""

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 10.0):
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def decide(self, chunk_index, buffer_s, prev_levels):
        (sizes,) = self.manifest.chunk_size_rows(chunk_index, 1)
        s_min = sizes[0]
        s_max = sizes[-1]
        frac = (buffer_s - self.reservoir_s) / self.cushion_s
        linear = s_min + frac * (s_max - s_min)
        target = np.where(
            buffer_s <= self.reservoir_s,
            s_min,
            np.where(
                buffer_s >= self.reservoir_s + self.cushion_s, s_max, linear
            ),
        )
        # Chunk sizes are strictly increasing per level, so searchsorted
        # is the scalar "highest size <= target" scan (comparisons only).
        idx = np.searchsorted(np.asarray(sizes), target, side="right") - 1
        return np.maximum(idx, 0)


class _BatchBola(_BatchController):
    def __init__(self, gamma_p: float = 5.0):
        self.gamma_p = gamma_p

    def prepare(self, manifest, config, n):
        super().prepare(manifest, config, n)
        # Reuse the scalar implementation's prepared constants so the
        # utilities and control parameter are the very same floats.
        reference = BolaAlgorithm(gamma_p=self.gamma_p)
        reference.prepare(manifest, self.config)
        p = manifest.chunk_duration_s
        self._p = p
        self._offsets = [
            reference.control_v * (utility + self.gamma_p)
            for utility in reference._utilities
        ]
        self._sizes = [p * r for r in manifest.ladder]

    def decide(self, chunk_index, buffer_s, prev_levels):
        q_chunks = buffer_s / self._p
        best_score = np.full(self.n, -math.inf)
        best_level = np.zeros(self.n, dtype=np.int64)
        # The scalar loop's exact first-wins argmax, level by level:
        # strict ``>`` only, no epsilon, in lockstep with
        # BolaAlgorithm.select_bitrate (scale-dependent epsilons flip
        # levels on large-magnitude ladders).
        for level, (offset, size) in enumerate(zip(self._offsets, self._sizes)):
            score = (offset - q_chunks) / size
            better = score > best_score
            best_score[better] = score[better]
            best_level[better] = level
        return best_level


class _BatchDasIp(_BatchController):
    """DAS-IP's index policy; shares the exact first-wins argmax idiom."""

    def __init__(self, beta: float = 1.0, gamma: float = 0.05):
        self.beta = beta
        self.gamma = gamma

    def prepare(self, manifest, config, n):
        super().prepare(manifest, config, n)
        # Reuse the scalar implementation's prepared utilities so they
        # are the very same floats.
        reference = DasIpAlgorithm(beta=self.beta, gamma=self.gamma)
        reference.prepare(manifest, self.config)
        self._utilities = list(reference._utilities)
        self._predictor = _BatchHarmonic(n)

    def decide(self, chunk_index, buffer_s, prev_levels):
        c_hat = self._predictor.estimate()
        best_score = np.full(self.n, -math.inf)
        best_level = np.zeros(self.n, dtype=np.int64)
        (sizes,) = self.manifest.chunk_size_rows(chunk_index, 1)
        # The scalar loop's exact first-wins argmax (strict ``>``).
        for level, (utility, size) in enumerate(zip(self._utilities, sizes)):
            deficit = np.maximum(0.0, size / c_hat - buffer_s)
            switch = np.abs(level - prev_levels)
            score = utility - self.beta * deficit - self.gamma * switch
            better = score > best_score
            best_score[better] = score[better]
            best_level[better] = level
        return best_level

    def observe(self, throughput_kbps, download_time_s=None, stall_s=None):
        self._predictor.observe(throughput_kbps)


class _BatchFastMPC(_BatchController):
    def __init__(
        self,
        robust: bool = False,
        gap: bool = False,
        table_config: Optional[FastMPCConfig] = None,
        cache_dir: Optional[str] = None,
    ):
        self.robust = robust
        self.gap = gap
        self.table_config = table_config
        self.cache_dir = cache_dir

    def prepare(self, manifest, config, n):
        super().prepare(manifest, config, n)
        # One table per distinct weight vector (the memo key's), stacked
        # so one lookup answers every session from its own table.
        shared = self.config
        quality_values = tuple(shared.quality(r) for r in manifest.ladder)
        slots = {}
        tables = []
        which = []
        for session in self.configs:
            weights = session.weights
            key = (weights.switching, weights.rebuffering, weights.startup)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(tables)
                tables.append(
                    build_decision_table(
                        manifest.ladder.levels_kbps,
                        manifest.chunk_duration_s,
                        shared.buffer_capacity_s,
                        weights,
                        quality_values=quality_values,
                        config=self.table_config,
                        cache_dir=self.cache_dir,
                    )
                )
            which.append(slot)
        self.tables = DecisionTableStack(tables)
        self._which = np.asarray(which, dtype=np.int64)
        self._predictor = (
            _BatchGapHarmonic(n) if self.gap else _BatchHarmonic(n)
        )
        self._errors = _BatchErrorTracker(n)
        self._pending_raw = None

    def decide(self, chunk_index, buffer_s, prev_levels):
        raw = self._predictor.estimate()
        self._pending_raw = raw
        query = raw
        if self.robust:
            query = raw / (1.0 + self._errors.max_recent_abs_error())
        return self.tables.lookup_batch(self._which, buffer_s, prev_levels, query)

    def observe(self, throughput_kbps, download_time_s=None, stall_s=None):
        if self._pending_raw is not None:
            self._errors.record(self._pending_raw, throughput_kbps)
            self._pending_raw = None
        if self.gap:
            self._predictor.observe(throughput_kbps, download_time_s, stall_s)
        else:
            self._predictor.observe(throughput_kbps)


def make_batch_controller(
    name: str,
    cache_dir: Optional[str] = None,
    table_config: Optional[FastMPCConfig] = None,
) -> _BatchController:
    """Instantiate the vectorized twin of a registry algorithm."""
    if name == "lowest":
        return _BatchConstant(0)
    if name == "highest":
        return _BatchConstant(-1)
    if name == "rb":
        return _BatchRateBased()
    if name == "bb":
        return _BatchBufferBased()
    if name == "bba-1":
        return _BatchBufferBasedChunkMap()
    if name == "bola":
        return _BatchBola()
    if name == "das-ip":
        return _BatchDasIp()
    if name == "fastmpc":
        return _BatchFastMPC(table_config=table_config, cache_dir=cache_dir)
    if name == "robust-fastmpc":
        return _BatchFastMPC(
            robust=True, table_config=table_config, cache_dir=cache_dir
        )
    if name == "fastmpc-gap":
        return _BatchFastMPC(
            gap=True, table_config=table_config, cache_dir=cache_dir
        )
    raise ValueError(
        f"unsupported fleet controller {name!r}; expected one of "
        f"{SUPPORTED_CONTROLLERS}"
    )
