"""Per-figure reproduction entry points (Figures 7–10, Table 1, §7.4).

Each function regenerates the data behind one exhibit of the paper's
evaluation and returns a structured result; the ``benchmarks/`` tree and
the CLI print them through :mod:`repro.experiments.report`.  The sweeps of
Figures 11/12 live in :mod:`repro.experiments.sensitivity`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..abr.base import ABRAlgorithm, SessionConfig
from ..abr.registry import paper_algorithms
from ..core.fastmpc import FastMPCController
from ..core.table import TableSizeReport
from ..core.fastmpc import table_size_sweep as _table_size_sweep
from ..prediction.errors import PredictionErrorTracker
from ..prediction.harmonic import HarmonicMeanPredictor
from ..qoe import QoEWeights
from ..sim.session import simulate_session
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from ..video.presets import (
    DEFAULT_BUFFER_CAPACITY_S,
    ENVIVIO_CHUNK_SECONDS,
    ENVIVIO_LADDER_KBPS,
)
from .runner import ResultSet, run_matrix

__all__ = [
    "DatasetCharacteristics",
    "prediction_profile",
    "figure7",
    "figure8",
    "DetailSeries",
    "figure9_10",
    "table1",
    "OverheadSample",
    "measure_overhead",
]


# ----------------------------------------------------------------------
# Figure 7 — dataset characteristics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetCharacteristics:
    """Per-trace statistics of one dataset (one panel triple of Fig. 7)."""

    dataset: str
    mean_kbps: tuple
    std_kbps: tuple
    mean_abs_prediction_error: tuple
    mean_signed_prediction_error: tuple
    overestimation_fraction: tuple
    worst_abs_prediction_error: tuple


def prediction_profile(
    trace: Trace,
    chunk_duration_s: float = ENVIVIO_CHUNK_SECONDS,
    num_chunks: int = 65,
    window: int = 5,
) -> PredictionErrorTracker:
    """Harmonic-mean prediction errors over successive chunk-length
    windows of a trace — the algorithm-independent view of Figure 7's
    error panel."""
    predictor = HarmonicMeanPredictor(window=window)
    tracker = PredictionErrorTracker(window=window)
    horizon = min(num_chunks, int(trace.duration_s / chunk_duration_s))
    observed = trace.chunk_throughputs(chunk_duration_s, horizon)
    for i, actual in enumerate(observed):
        if i >= window:  # only score once the predictor has a full window
            tracker.record(predictor.predict(1)[0], actual)
        predictor.observe_kbps(actual)
    return tracker


def figure7(
    datasets: Mapping[str, Sequence[Trace]],
    chunk_duration_s: float = ENVIVIO_CHUNK_SECONDS,
) -> Dict[str, DatasetCharacteristics]:
    """Mean/std/prediction-error distributions per dataset (Figure 7)."""
    out: Dict[str, DatasetCharacteristics] = {}
    for name, traces in datasets.items():
        if not traces:
            raise ValueError(f"dataset {name!r} is empty")
        means, stds = [], []
        mean_abs, mean_signed, over, worst = [], [], [], []
        for trace in traces:
            stats = trace.stats()
            means.append(stats.mean_kbps)
            stds.append(stats.std_kbps)
            tracker = prediction_profile(trace, chunk_duration_s)
            mean_abs.append(tracker.mean_abs_error())
            mean_signed.append(tracker.mean_signed_error())
            over.append(tracker.overestimation_fraction())
            worst.append(tracker.worst_abs_error())
        out[name] = DatasetCharacteristics(
            dataset=name,
            mean_kbps=tuple(means),
            std_kbps=tuple(stds),
            mean_abs_prediction_error=tuple(mean_abs),
            mean_signed_prediction_error=tuple(mean_signed),
            overestimation_fraction=tuple(over),
            worst_abs_prediction_error=tuple(worst),
        )
    return out


# ----------------------------------------------------------------------
# Figure 8 — normalized QoE CDFs per dataset
# ----------------------------------------------------------------------

def figure8(
    datasets: Mapping[str, Sequence[Trace]],
    manifest: VideoManifest,
    algorithms: Optional[Mapping[str, ABRAlgorithm]] = None,
    config: Optional[SessionConfig] = None,
    backend: str = "emulation",
) -> Dict[str, ResultSet]:
    """The main comparison: every algorithm on every dataset (Figure 8).

    Default backend is the byte-level emulator, matching the paper's "real
    player evaluation"; pass ``backend="sim"`` for the faster simulator.
    """
    algorithms = algorithms if algorithms is not None else paper_algorithms()
    config = config if config is not None else SessionConfig()
    return {
        name: run_matrix(
            algorithms, traces, manifest, config, backend=backend, dataset=name
        )
        for name, traces in datasets.items()
    }


# ----------------------------------------------------------------------
# Figures 9 & 10 — per-metric detail CDFs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DetailSeries:
    """Per-algorithm session values for the three detail metrics."""

    dataset: str
    average_bitrate_kbps: Dict[str, tuple]
    average_bitrate_change_kbps: Dict[str, tuple]
    total_rebuffer_s: Dict[str, tuple]


def figure9_10(results: ResultSet) -> DetailSeries:
    """Extract Figure 9/10's three CDF panels from a Figure 8 run."""
    algorithms = results.algorithms()
    return DetailSeries(
        dataset=results.dataset,
        average_bitrate_kbps={
            a: tuple(results.metric_values(a, "average_bitrate_kbps"))
            for a in algorithms
        },
        average_bitrate_change_kbps={
            a: tuple(results.metric_values(a, "average_bitrate_change_kbps"))
            for a in algorithms
        },
        total_rebuffer_s={
            a: tuple(results.metric_values(a, "total_rebuffer_s"))
            for a in algorithms
        },
    )


# ----------------------------------------------------------------------
# Table 1 — FastMPC table sizes
# ----------------------------------------------------------------------

def table1(
    discretization_levels: Sequence[int] = (50, 100, 200, 500),
    ladder_kbps: Sequence[float] = ENVIVIO_LADDER_KBPS,
    chunk_duration_s: float = ENVIVIO_CHUNK_SECONDS,
    buffer_capacity_s: float = DEFAULT_BUFFER_CAPACITY_S,
    weights: Optional[QoEWeights] = None,
    horizon: int = 5,
) -> List[TableSizeReport]:
    """Full vs run-length-coded table size per discretization level."""
    weights = weights if weights is not None else QoEWeights.balanced()
    return _table_size_sweep(
        ladder_kbps,
        chunk_duration_s,
        buffer_capacity_s,
        weights,
        discretization_levels=discretization_levels,
        horizon=horizon,
    )


# ----------------------------------------------------------------------
# Section 7.4 — CPU / memory overhead
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OverheadSample:
    """Per-algorithm decision cost (the §7.4 microbenchmark)."""

    algorithm: str
    mean_decision_us: float
    max_decision_us: float
    decisions: int
    table_bytes: int  # 0 for table-free algorithms

    def describe(self) -> str:
        return (
            f"{self.algorithm:>14} | mean decision {self.mean_decision_us:9.1f} us"
            f" | max {self.max_decision_us:9.1f} us"
            f" | table {self.table_bytes / 1000:7.1f} kB"
        )


def measure_overhead(
    algorithms: Mapping[str, ABRAlgorithm],
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
) -> List[OverheadSample]:
    """Time every bitrate decision an algorithm makes over one session.

    The per-decision timer wraps ``select_bitrate`` only — the quantity
    that sits on the player's critical path before each chunk request.
    """
    config = config if config is not None else SessionConfig()
    samples: List[OverheadSample] = []
    for name, algorithm in algorithms.items():
        timings: List[float] = []
        original = algorithm.select_bitrate

        def timed_select(observation, _original=original, _timings=timings):
            start = time.perf_counter()
            level = _original(observation)
            _timings.append((time.perf_counter() - start) * 1e6)
            return level

        algorithm.select_bitrate = timed_select  # type: ignore[method-assign]
        try:
            simulate_session(algorithm, trace, manifest, config)
        finally:
            algorithm.select_bitrate = original  # type: ignore[method-assign]
        table_bytes = 0
        if isinstance(algorithm, FastMPCController) and algorithm.table is not None:
            table_bytes = algorithm.table.rle.size_bytes()
        samples.append(
            OverheadSample(
                algorithm=name,
                mean_decision_us=sum(timings) / len(timings),
                max_decision_us=max(timings),
                decisions=len(timings),
                table_bytes=table_bytes,
            )
        )
    return samples
