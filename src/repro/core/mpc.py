"""MPC bitrate adaptation — Algorithm 1 of the paper.

At each chunk boundary the controller (1) *predicts* throughput for the
next ``N`` chunks, (2) *optimizes* the QoE of the horizon exactly
(:mod:`repro.core.horizon`), and (3) *applies* only the first bitrate of
the optimal plan before the horizon slides forward.  During the startup
phase the controller solves the ``QOE_MAX`` variant that jointly optimises
the startup delay ``T_s`` (the paper's ``f_stmpc``).

:class:`MPCController` is the basic algorithm ("FastMPC" semantics with an
online solver; the table-driven implementation lives in
:mod:`repro.core.fastmpc`).  ``MPC-OPT`` — exact MPC with perfect
prediction, the paper's simulation upper reference — is this controller
with an :class:`~repro.prediction.oracle.OraclePredictor` plugged in.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Tuple

from ..abr.base import ABRAlgorithm, DownloadResult, PlayerObservation
from ..obs.events import SolverCall
from ..prediction.base import ThroughputPredictor
from ..prediction.errors import PredictionErrorTracker
from ..prediction.harmonic import HarmonicMeanPredictor
from ..prediction.oracle import OraclePredictor
from .horizon import HorizonProblem, HorizonSolution, solve_horizon, solve_startup

__all__ = ["MPCController", "make_mpc_opt", "DEFAULT_HORIZON"]

DEFAULT_HORIZON = 5  # the paper's look-ahead h = 5 (Section 7.1.2)


class MPCController(ABRAlgorithm):
    """Receding-horizon QoE maximisation (the paper's ``f_mpc``).

    Parameters
    ----------
    predictor:
        Throughput predictor; defaults to the paper's harmonic mean of the
        last 5 chunks.
    horizon:
        Look-ahead length ``N`` in chunks (paper default 5; Figure 12b
        studies 2–9).
    optimize_startup:
        When True (default), pre-playback decisions solve the startup
        variant and the controller may ask the player to delay playback.
    error_window:
        Window of the embedded prediction-error tracker (used by the
        RobustMPC subclass and for session statistics).
    """

    name = "mpc"

    def __init__(
        self,
        predictor: Optional[ThroughputPredictor] = None,
        horizon: int = DEFAULT_HORIZON,
        optimize_startup: bool = True,
        error_window: int = 5,
        name: Optional[str] = None,
    ) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.predictor = predictor if predictor is not None else HarmonicMeanPredictor()
        self.horizon = horizon
        self.optimize_startup = optimize_startup
        self.error_tracker = PredictionErrorTracker(window=error_window)
        if name:
            self.name = name
        self._pending_raw_prediction: Optional[float] = None
        self._startup_wait_s = 0.0

    # ------------------------------------------------------------------
    # ABRAlgorithm interface
    # ------------------------------------------------------------------

    def prepare(self, manifest, config) -> None:
        super().prepare(manifest, config)
        self.error_tracker.reset()
        self._pending_raw_prediction = None
        self._startup_wait_s = 0.0
        self._quality_values = tuple(
            config.quality(rate) for rate in manifest.ladder
        )

    def predictors(self) -> Iterable[ThroughputPredictor]:
        return (self.predictor,)

    def select_bitrate(self, observation: PlayerObservation) -> int:
        self._require_prepared()
        solution = self._solve(observation)
        return solution.first_level

    def on_download_complete(self, result: DownloadResult) -> None:
        if self._pending_raw_prediction is not None:
            self.error_tracker.record(
                self._pending_raw_prediction,
                result.throughput_kbps,
                duration_s=result.download_time_s,
                idle_s=result.idle_before_s,
                stall_s=result.stalled_s,
            )
            self._pending_raw_prediction = None
        super().on_download_complete(result)

    def select_startup_wait(self, observation: PlayerObservation) -> float:
        return self._startup_wait_s

    # ------------------------------------------------------------------
    # The Predict / Optimize steps
    # ------------------------------------------------------------------

    def _effective_horizon(
        self, chunk_index: int, available_chunks: Optional[int] = None
    ) -> int:
        """Clip the look-ahead at the end of the video — and, in a live
        session, at the newest chunk published so far (the controller
        cannot plan over chunks that do not exist yet)."""
        last = self.manifest.num_chunks
        if available_chunks is not None:
            last = min(last, available_chunks)
        remaining = last - chunk_index
        return max(1, min(self.horizon, remaining))

    def _transform_predictions(self, raw_kbps: List[float]) -> List[float]:
        """Hook for robustification; the basic MPC uses raw predictions."""
        return raw_kbps

    def _build_problem(
        self, observation: PlayerObservation, predictions_kbps: List[float]
    ) -> HorizonProblem:
        sizes = self.manifest.chunk_size_rows(
            observation.chunk_index, len(predictions_kbps)
        )
        prev_quality = (
            None
            if observation.prev_level_index is None
            else self._quality_values[observation.prev_level_index]
        )
        return HorizonProblem(
            buffer_level_s=observation.buffer_level_s,
            prev_quality=prev_quality,
            chunk_sizes_kilobits=sizes,
            quality_values=self._quality_values,
            predicted_kbps=predictions_kbps,
            chunk_duration_s=self.manifest.chunk_duration_s,
            buffer_capacity_s=self.config.buffer_capacity_s,
            weights=self.config.weights,
        )

    def _solve(self, observation: PlayerObservation) -> HorizonSolution:
        """Predict, then optimise: ``f_stmpc`` before playback, else ``f_mpc``.

        Before playback the startup problem is solved with its wait
        (:func:`~repro.core.horizon.solve_startup`, memoised per process:
        every session on one video and configuration starts from the same
        problem, so only the first one rolls its wait grid out).  After
        it, each chunk solves its steady horizon online.
        """
        n = self._effective_horizon(
            observation.chunk_index, observation.available_chunks
        )
        raw = self.predictor.predict(n)
        self._pending_raw_prediction = raw[0]
        predictions = self._transform_predictions(list(raw))
        problem = self._build_problem(observation, predictions)
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            _t0 = time.perf_counter()
        if self.optimize_startup and not observation.playback_started:
            solution = solve_startup(problem)
            self._startup_wait_s = solution.startup_wait_s
            op = "solve-startup"
        else:
            self._startup_wait_s = 0.0
            solution = solve_horizon(problem)
            op = "solve-horizon"
        if tracing:
            tracer.emit(
                SolverCall(
                    session_id="",
                    t_mono=tracer.now(),
                    op=op,
                    instances=1,
                    plans=len(problem.quality_values) ** len(problem.chunk_sizes_kilobits),
                    wall_s=time.perf_counter() - _t0,
                )
            )
        return solution


def make_mpc_opt(horizon: int = DEFAULT_HORIZON) -> MPCController:
    """MPC-OPT — exact MPC with perfect throughput prediction.

    The paper's simulation-only reference point (Section 7.1.2 item 3 and
    Figure 11b): it bounds what any prediction-driven controller with the
    same horizon could achieve.
    """
    return MPCController(
        predictor=OraclePredictor(), horizon=horizon, name="mpc-opt"
    )
