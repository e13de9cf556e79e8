"""Batch experiment runner: algorithms x traces -> scored sessions.

This is the glue of Section 7: it drives every (algorithm, trace) pair
through a backend (trace-driven simulator or byte-level emulator),
computes the offline-optimal bound once per trace, and collects the
normalized-QoE and per-session metrics every figure consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..abr.base import ABRAlgorithm, SessionConfig
from ..core.offline import normalized_qoe
from ..emulation.harness import NetworkProfile, emulate_session
from ..qoe import QoEBreakdown, QoEWeights
from ..sim.metrics import SessionMetrics
from ..sim.session import SessionResult, StartupPolicy, simulate_session
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .cdf import median

__all__ = [
    "ExperimentRecord",
    "ResultSet",
    "bound_weights_for",
    "run_matrix",
    "BACKENDS",
]

BACKENDS = ("sim", "emulation")


@dataclass(frozen=True)
class ExperimentRecord:
    """One scored (algorithm, trace) session."""

    dataset: str
    algorithm: str
    trace_name: str
    metrics: SessionMetrics
    breakdown: QoEBreakdown
    optimal_qoe: float
    n_qoe: float

    @property
    def qoe(self) -> float:
        return self.breakdown.total


class ResultSet:
    """A collection of scored sessions with per-algorithm views."""

    def __init__(self, records: Sequence[ExperimentRecord], dataset: str = "") -> None:
        if not records:
            raise ValueError("a result set needs at least one record")
        self.records = list(records)
        self.dataset = dataset

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.algorithm not in seen:
                seen.append(record.algorithm)
        return seen

    def for_algorithm(self, name: str) -> List[ExperimentRecord]:
        out = [r for r in self.records if r.algorithm == name]
        if not out:
            raise KeyError(f"no records for algorithm {name!r}")
        return out

    # ------------------------------------------------------------------
    # Extracting series (one value per session)
    # ------------------------------------------------------------------

    def n_qoe_values(self, algorithm: str) -> List[float]:
        return [r.n_qoe for r in self.for_algorithm(algorithm)]

    def qoe_values(self, algorithm: str) -> List[float]:
        return [r.qoe for r in self.for_algorithm(algorithm)]

    def metric_values(self, algorithm: str, field: str) -> List[float]:
        """Per-session values of a :class:`SessionMetrics` field."""
        return [
            float(getattr(r.metrics, field)) for r in self.for_algorithm(algorithm)
        ]

    def median_n_qoe(self, algorithm: str) -> float:
        return median(self.n_qoe_values(algorithm))

    def median_improvement(self, algorithm: str, baseline: str) -> float:
        """Relative median n-QoE improvement of ``algorithm`` over
        ``baseline`` — the paper's headline "15% / 10%" statistic."""
        base = self.median_n_qoe(baseline)
        if base == 0:
            raise ValueError(f"baseline {baseline!r} has zero median n-QoE")
        return (self.median_n_qoe(algorithm) - base) / abs(base)

    def merged_with(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.records + other.records, dataset=self.dataset)


def bound_weights_for(
    config: SessionConfig, include_startup_in_qoe: bool
) -> QoEWeights:
    """Weights for the offline-optimal bound of a run.

    When sessions are scored without the startup term (the Figure 11d
    fixed-startup experiment), the bound they are normalised against must
    also pay nothing for startup — otherwise n-QoE compares incompatible
    objectives.  Shared by the serial and parallel runners.
    """
    if include_startup_in_qoe:
        return config.weights
    return QoEWeights(
        config.weights.switching,
        config.weights.rebuffering,
        0.0,
        label=config.weights.label,
    )


def _score_session(
    dataset: str,
    algorithm_name: str,
    session: SessionResult,
    optimal: float,
    include_startup: bool,
) -> ExperimentRecord:
    breakdown = session.qoe(include_startup=include_startup)
    return ExperimentRecord(
        dataset=dataset,
        algorithm=algorithm_name,
        trace_name=session.trace_name,
        metrics=session.metrics(),
        breakdown=breakdown,
        optimal_qoe=optimal,
        n_qoe=normalized_qoe(breakdown.total, optimal),
    )


def run_matrix(
    algorithms: Mapping[str, ABRAlgorithm],
    traces: Sequence[Trace],
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    backend: str = "sim",
    network: Optional[NetworkProfile] = None,
    startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
    fixed_startup_delay_s: float = 0.0,
    include_startup_in_qoe: bool = True,
    dataset: str = "",
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> ResultSet:
    """Run every algorithm over every trace and score the sessions.

    Parameters
    ----------
    algorithms:
        Name -> instance.  Instances are re-``prepare()``-d per session so
        one instance may serve many traces.
    backend:
        ``"sim"`` (chunk-level, Section 7.3) or ``"emulation"``
        (byte-level, Section 7.2).
    include_startup_in_qoe:
        Set False for the fixed-startup experiment (Figure 11d scores QoE
        "except the startup delay term").
    progress:
        Optional callback ``(algorithm, finished, total)`` for long runs.

    The per-trace offline bounds go through the disk cache when
    ``REPRO_CACHE_DIR`` names one.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if not traces:
        raise ValueError("need at least one trace")
    config = config if config is not None else SessionConfig()

    # Imported lazily: persistence imports this module at load time.
    from .persistence import cached_fluid_upper_bound

    bound_weights = bound_weights_for(config, include_startup_in_qoe)
    optimal_by_trace: Dict[int, float] = {}
    for i, trace in enumerate(traces):
        optimal_by_trace[i] = cached_fluid_upper_bound(
            trace,
            manifest,
            weights=bound_weights,
            quality=config.quality,
            buffer_capacity_s=config.buffer_capacity_s,
        )

    records: List[ExperimentRecord] = []
    for name, algorithm in algorithms.items():
        for i, trace in enumerate(traces):
            if backend == "sim":
                session = simulate_session(
                    algorithm,
                    trace,
                    manifest,
                    config,
                    startup_policy=startup_policy,
                    fixed_startup_delay_s=fixed_startup_delay_s,
                )
            else:
                session = emulate_session(
                    algorithm,
                    trace,
                    manifest,
                    config,
                    network=network,
                    startup_policy=startup_policy,
                    fixed_startup_delay_s=fixed_startup_delay_s,
                )
            records.append(
                _score_session(
                    dataset, name, session, optimal_by_trace[i], include_startup_in_qoe
                )
            )
            if progress is not None:
                progress(name, i + 1, len(traces))
    return ResultSet(records, dataset=dataset)
