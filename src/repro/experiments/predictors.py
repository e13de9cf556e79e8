"""Predictor-accuracy race across fault profiles (the §7.3 extension).

The paper's sensitivity analysis (Section 7.3, Figure 11) perturbs the
*magnitude* of prediction error and watches QoE.  This experiment attacks
the error at its source: it races throughput predictors — the paper's
harmonic mean and EWMA, their idle-gap-corrected variants from
:mod:`repro.prediction.streaming`, and the clairvoyant oracle — against
each other under the fault profiles of :mod:`repro.faults.profiles`,
producing a predictor-accuracy-vs-QoE table.

Two accuracy metrics are reported per cell:

* ``active_mae`` — mean ``|predicted - active| / active`` where *active*
  is the rate over active-transfer time only (the Kairos capacity view;
  exactly the :class:`~repro.obs.events.PredictionSpan` ``error`` field).
  This is the metric a predictor should be judged on whenever on/off
  traffic patterns put dead time inside the download window, and the one
  the conformance tests pin: gap-corrected predictors must *strictly*
  reduce it vs their plain counterparts on the ``blackouts`` and
  ``lossy-link`` profiles.
* ``wall_mae`` — mean ``|predicted - actual| / actual`` against the
  wall-clock rate, i.e. the classic RobustMPC tracker error.  The gap
  correction deliberately trades this metric away on stalled chunks (it
  predicts capacity, not the stall), which is why it is reported but not
  gated on.

Determinism contract: results are bit-identical for ``workers=1`` and
``workers=N``.  Work units are fanned out in a fixed job order (profiles
x predictors x traces), ``Pool.map`` returns them in that same order, and
every parent-side aggregate is a sequential sum over cells in row order.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.fastmpc import FastMPCConfig, FastMPCController
from ..faults import apply_trace_faults
from ..faults.profiles import get_profile
from ..faults.spec import bandwidth_faults, link_faults
from ..obs.tracer import RingBufferSink, Tracer
from ..prediction import make_predictor
from ..sim.session import simulate_session
from ..traces.trace import Trace
from ..video.manifest import VideoManifest

__all__ = [
    "PREDICTOR_RACE_PREDICTORS",
    "PREDICTOR_RACE_PROFILES",
    "PredictorCell",
    "PredictorRaceRow",
    "PredictorRaceResult",
    "run_predictor_race",
]

#: Default line-up: the paper's two predictors, their gap-corrected
#: twins, and the clairvoyant anchor.
PREDICTOR_RACE_PREDICTORS: Tuple[str, ...] = (
    "harmonic",
    "ewma",
    "gap-harmonic",
    "gap-ewma",
    "oracle",
)

#: Default fault profiles: the degradation baseline plus the two
#: stall-heavy profiles the gap correction is built for.
PREDICTOR_RACE_PROFILES: Tuple[str, ...] = ("clean", "blackouts", "lossy-link")

#: Fast-but-faithful table for the racing controller; the race compares
#: predictors against each other under one fixed controller, so the
#: discretization only needs to be identical across cells, not deployed-
#: scale.
_RACE_TABLE_CONFIG = FastMPCConfig(buffer_bins=24, throughput_bins=24, horizon=5)


@dataclass(frozen=True)
class PredictorCell:
    """One (profile, predictor, trace) session's accuracy and QoE."""

    profile: str
    predictor: str
    trace_name: str
    chunks: int
    active_abs_error_sum: float
    active_signed_error_sum: float
    worst_abs_error: float
    wall_abs_error_sum: float
    idle_gap_fraction: float
    gapped_chunks: int
    gapped_mae: float
    smooth_chunks: int
    smooth_mae: float
    qoe_total: float
    rebuffer_s: float
    mean_bitrate_kbps: float

    @property
    def active_mae(self) -> float:
        return self.active_abs_error_sum / self.chunks if self.chunks else 0.0

    @property
    def wall_mae(self) -> float:
        return self.wall_abs_error_sum / self.chunks if self.chunks else 0.0

    def to_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        doc["active_mae"] = self.active_mae
        doc["wall_mae"] = self.wall_mae
        return doc


@dataclass(frozen=True)
class PredictorRaceRow:
    """One (profile, predictor) aggregate over every raced trace."""

    profile: str
    predictor: str
    sessions: int
    chunks: int
    active_mae: float
    wall_mae: float
    mean_signed_error: float
    worst_abs_error: float
    idle_gap_fraction: float
    gapped_chunks: int
    smooth_chunks: int
    qoe_mean: float
    rebuffer_mean_s: float
    mean_bitrate_kbps: float

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class PredictorRaceResult:
    """The full race: per-session cells plus per-row aggregates."""

    cells: Tuple[PredictorCell, ...]
    profiles: Tuple[str, ...]
    predictors: Tuple[str, ...]

    def rows(self) -> List[PredictorRaceRow]:
        """Aggregate cells into one row per (profile, predictor).

        All sums run sequentially over cells in their fixed job order, so
        the floats are identical however many workers produced the cells.
        """
        out: List[PredictorRaceRow] = []
        for profile in self.profiles:
            for predictor in self.predictors:
                group = [
                    c
                    for c in self.cells
                    if c.profile == profile and c.predictor == predictor
                ]
                if not group:
                    continue
                chunks = 0
                abs_sum = 0.0
                signed_sum = 0.0
                wall_sum = 0.0
                worst = 0.0
                gap_frac_sum = 0.0
                gapped = 0
                smooth = 0
                qoe_sum = 0.0
                rebuffer_sum = 0.0
                bitrate_sum = 0.0
                for c in group:
                    chunks += c.chunks
                    abs_sum += c.active_abs_error_sum
                    signed_sum += c.active_signed_error_sum
                    wall_sum += c.wall_abs_error_sum
                    if c.worst_abs_error > worst:
                        worst = c.worst_abs_error
                    gap_frac_sum += c.idle_gap_fraction
                    gapped += c.gapped_chunks
                    smooth += c.smooth_chunks
                    qoe_sum += c.qoe_total
                    rebuffer_sum += c.rebuffer_s
                    bitrate_sum += c.mean_bitrate_kbps
                n = len(group)
                out.append(
                    PredictorRaceRow(
                        profile=profile,
                        predictor=predictor,
                        sessions=n,
                        chunks=chunks,
                        active_mae=abs_sum / chunks if chunks else 0.0,
                        wall_mae=wall_sum / chunks if chunks else 0.0,
                        mean_signed_error=signed_sum / chunks if chunks else 0.0,
                        worst_abs_error=worst,
                        idle_gap_fraction=gap_frac_sum / n,
                        gapped_chunks=gapped,
                        smooth_chunks=smooth,
                        qoe_mean=qoe_sum / n,
                        rebuffer_mean_s=rebuffer_sum / n,
                        mean_bitrate_kbps=bitrate_sum / n,
                    )
                )
        return out

    def row(self, profile: str, predictor: str) -> PredictorRaceRow:
        for r in self.rows():
            if r.profile == profile and r.predictor == predictor:
                return r
        raise KeyError(f"no row for profile={profile!r} predictor={predictor!r}")

    def strictly_reduces(
        self, profile: str, corrected: str, baseline: str
    ) -> bool:
        """True when ``corrected`` has strictly lower active-rate MAE
        than ``baseline`` on ``profile`` (the acceptance gate)."""
        return self.row(profile, corrected).active_mae < self.row(
            profile, baseline
        ).active_mae

    def table(self) -> str:
        """The predictor-accuracy-vs-QoE table, formatted for humans."""
        header = (
            f"{'profile':<12} {'predictor':<14} {'chunks':>6} "
            f"{'active_mae':>10} {'wall_mae':>9} {'gapfrac':>8} "
            f"{'rebuf_s':>8} {'qoe_mean':>12}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows():
            lines.append(
                f"{r.profile:<12} {r.predictor:<14} {r.chunks:>6d} "
                f"{r.active_mae:>10.4f} {r.wall_mae:>9.4f} "
                f"{r.idle_gap_fraction:>8.4f} {r.rebuffer_mean_s:>8.2f} "
                f"{r.qoe_mean:>12.1f}"
            )
        return "\n".join(lines)

    def describe(self) -> str:
        return self.table()

    def to_dict(self) -> Dict[str, object]:
        return {
            "profiles": list(self.profiles),
            "predictors": list(self.predictors),
            "rows": [r.to_dict() for r in self.rows()],
            "cells": [c.to_dict() for c in self.cells],
        }


def _race_cell(args) -> PredictorCell:
    """Process-pool work unit: one (profile, predictor, trace) session.

    Bandwidth faults are compiled into the trace; link faults replay
    deterministically from ``fault_seed``.  Prediction accuracy is read
    off the session's :class:`~repro.obs.events.PredictionSpan` stream,
    the wall-rate error off the controller's tracker.
    """
    profile_name, predictor_name, trace, manifest, config, fault_seed = args
    profile = get_profile(profile_name)
    bandwidth = bandwidth_faults(profile.trace_faults)
    links = link_faults(profile.trace_faults)
    faulted = apply_trace_faults(trace, bandwidth) if bandwidth else trace
    algorithm = FastMPCController(
        predictor=make_predictor(predictor_name), config=config
    )
    sink = RingBufferSink(capacity=100_000)
    tracer = Tracer(sinks=[sink], session_id=f"{profile_name}/{predictor_name}")
    session = simulate_session(
        algorithm,
        faulted,
        manifest,
        link_faults=links,
        fault_seed=fault_seed,
        tracer=tracer,
    )
    spans = [
        e
        for e in sink.events()
        if e.kind == "prediction-span" and e.predictor == algorithm.predictor.name
    ]
    abs_sum = 0.0
    signed_sum = 0.0
    worst = 0.0
    for span in spans:
        err = span.error
        abs_err = abs(err)
        abs_sum += abs_err
        signed_sum += err
        if abs_err > worst:
            worst = abs_err
    tracker = algorithm.error_tracker
    wall_sum = 0.0
    for err in tracker.errors:
        wall_sum += abs(err)
    strata = tracker.stratified_mean_abs_error()
    bitrates = session.bitrates_kbps
    return PredictorCell(
        profile=profile_name,
        predictor=predictor_name,
        trace_name=trace.name,
        chunks=len(spans),
        active_abs_error_sum=abs_sum,
        active_signed_error_sum=signed_sum,
        worst_abs_error=worst,
        wall_abs_error_sum=wall_sum,
        idle_gap_fraction=tracker.idle_gap_fraction(),
        gapped_chunks=strata["gapped"]["chunks"],
        gapped_mae=strata["gapped"]["mae"],
        smooth_chunks=strata["smooth"]["chunks"],
        smooth_mae=strata["smooth"]["mae"],
        qoe_total=session.qoe().total,
        rebuffer_s=session.total_rebuffer_s,
        mean_bitrate_kbps=sum(bitrates) / len(bitrates) if bitrates else 0.0,
    )


def run_predictor_race(
    traces: Sequence[Trace],
    manifest: VideoManifest,
    predictors: Sequence[str] = PREDICTOR_RACE_PREDICTORS,
    profiles: Sequence[str] = PREDICTOR_RACE_PROFILES,
    config: Optional[FastMPCConfig] = None,
    workers: int = 1,
    fault_seed_base: int = 100,
    chunksize: int = 2,
) -> PredictorRaceResult:
    """Race ``predictors`` across ``profiles`` over ``traces``.

    Every cell drives the same FastMPC controller (fixed ``config``
    discretization) so the only moving part is the predictor.  Trace
    ``i`` always uses ``fault_seed_base + i`` for its link faults, so
    each predictor faces an identical fault replay on a given trace.

    ``workers=1`` runs serially; larger values fan cells out over a
    process pool.  Either way the result is bit-identical.
    """
    if not traces:
        raise ValueError("need at least one trace")
    if not predictors:
        raise ValueError("need at least one predictor name")
    if not profiles:
        raise ValueError("need at least one fault profile")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    for name in profiles:
        get_profile(name)  # fail fast on typos, before any fan-out
    config = config if config is not None else _RACE_TABLE_CONFIG
    jobs = [
        (profile, predictor, trace, manifest, config, fault_seed_base + i)
        for profile in profiles
        for predictor in predictors
        for i, trace in enumerate(traces)
    ]
    if workers == 1:
        cells = [_race_cell(job) for job in jobs]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            cells = pool.map(_race_cell, jobs, chunksize=chunksize)
    return PredictorRaceResult(
        cells=tuple(cells),
        profiles=tuple(profiles),
        predictors=tuple(predictors),
    )
