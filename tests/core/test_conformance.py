"""Differential conformance: every solver implementation must agree.

Section 5 sells FastMPC as a *faithful* table compilation of the online
MPC optimisation.  This sweep pins that down on shared state: at every
table bin centre, the online :func:`solve_horizon`, a full
:class:`MPCController`, and the :class:`DecisionTable` built from the
same configuration must choose the same bitrate.  Theorem 1's corollary
is checked too: RobustMPC with zero past prediction error *is* plain
MPC.
"""

import itertools
from typing import List

import pytest

from repro.core.fastmpc import FastMPCConfig, build_decision_table
from repro.core.horizon import HorizonProblem, solve_horizon
from repro.core.mpc import MPCController
from repro.core.robust import RobustMPCController
from repro.abr.base import PlayerObservation, SessionConfig
from repro.prediction.base import ThroughputPredictor
from repro.prediction.oracle import OraclePredictor
from repro.qoe import QoEWeights
from repro.sim.session import simulate_session
from repro.video import short_test_video

HORIZON = 3
WEIGHTS = QoEWeights.balanced()


class FixedPredictor(ThroughputPredictor):
    """Predicts one constant rate — pins the MPC input to a bin centre."""

    def __init__(self, kbps: float = 1000.0) -> None:
        self.kbps = kbps

    def reset(self) -> None:
        pass

    def observe(self, observation) -> None:
        pass

    def predict(self, horizon: int) -> List[float]:
        return [self.kbps] * horizon


@pytest.fixture(scope="module")
def setup():
    manifest = short_test_video(num_chunks=8, num_levels=3)
    config = FastMPCConfig(buffer_bins=8, throughput_bins=10, horizon=HORIZON)
    table = build_decision_table(
        manifest.ladder.levels_kbps,
        manifest.chunk_duration_s,
        30.0,
        WEIGHTS,
        config=config,
        use_cache=False,
    )
    return manifest, table


def _states(manifest, table):
    """Every (buffer centre, prev level, throughput centre) of the table."""
    return itertools.product(
        [float(c) for c in table.buffer_bins.centers],
        range(len(manifest.ladder)),
        [float(c) for c in table.throughput_bins.centers],
    )


def _problem(manifest, buffer_s, prev_level, kbps):
    """The exact instance the offline enumeration solves for this bin:
    CBR sizes ``L * R``, flat predictions, identity quality."""
    L = manifest.chunk_duration_s
    ladder = tuple(float(r) for r in manifest.ladder)
    sizes = tuple(tuple(L * r for r in ladder) for _ in range(HORIZON))
    return HorizonProblem(
        buffer_level_s=buffer_s,
        prev_quality=ladder[prev_level],
        chunk_sizes_kilobits=sizes,
        quality_values=ladder,
        predicted_kbps=(kbps,) * HORIZON,
        chunk_duration_s=L,
        buffer_capacity_s=30.0,
        weights=WEIGHTS,
    )


def test_table_scalar_and_batch_agree_on_every_bin(setup):
    manifest, table = setup
    states = list(_states(manifest, table))
    problems = [_problem(manifest, b, p, c) for b, p, c in states]

    scalar_levels = [solve_horizon(pr).first_level for pr in problems]
    table_levels = [table.lookup(b, p, c) for b, p, c in states]

    disagreements = [
        (state, s, t)
        for state, s, t in zip(states, scalar_levels, table_levels)
        if s != t
    ]
    assert disagreements == []


def test_mpc_controller_agrees_with_table_at_bin_centers(setup):
    """The full controller (predictor pinned to the bin centre) picks the
    table's decision at every table state."""
    manifest, table = setup
    predictor = FixedPredictor()
    controller = MPCController(
        predictor=predictor, horizon=HORIZON, optimize_startup=False
    )
    controller.prepare(manifest, SessionConfig(buffer_capacity_s=30.0, weights=WEIGHTS))
    for buffer_s, prev_level, kbps in _states(manifest, table):
        predictor.kbps = kbps
        level = controller.select_bitrate(
            PlayerObservation(
                chunk_index=0,
                buffer_level_s=buffer_s,
                prev_level_index=prev_level,
                wall_time_s=0.0,
                playback_started=True,
            )
        )
        assert level == table.lookup(buffer_s, prev_level, kbps), (
            f"controller {level} != table at "
            f"(B={buffer_s:.2f}, prev={prev_level}, C={kbps:.1f})"
        )


def test_robust_mpc_transform_is_identity_at_zero_error():
    controller = RobustMPCController()
    assert controller.current_error_bound() == 0.0
    raw = [812.5, 1300.0, 2950.75]
    assert controller._transform_predictions(list(raw)) == raw


@pytest.mark.parametrize("trace_fixture", ["constant_trace", "step_trace"])
def test_robust_mpc_with_zero_error_equals_mpc(trace_fixture, request, short_manifest):
    """Theorem 1 corollary: perfect predictions keep the error tracker at
    zero, so RobustMPC's lower bound is the prediction itself and the two
    controllers produce the *same session*, decision for decision."""
    trace = request.getfixturevalue(trace_fixture)
    mpc = simulate_session(
        MPCController(predictor=OraclePredictor()), trace, short_manifest
    )
    robust = simulate_session(
        RobustMPCController(predictor=OraclePredictor()), trace, short_manifest
    )
    assert robust.level_indices == mpc.level_indices
    assert robust.startup_delay_s == mpc.startup_delay_s
    assert robust.total_rebuffer_s == mpc.total_rebuffer_s
    assert robust.qoe().total == mpc.qoe().total


def test_robust_mpc_with_error_floor_diverges_when_constrained(short_manifest, step_trace):
    """Sanity counterpoint: a forced error bound shifts the lower bound,
    so the zero-error equality above is not vacuous."""
    plain = simulate_session(
        MPCController(predictor=OraclePredictor()), step_trace, short_manifest
    )
    padded = simulate_session(
        RobustMPCController(predictor=OraclePredictor(), error_floor=1.5),
        step_trace,
        short_manifest,
    )
    assert padded.level_indices != plain.level_indices
