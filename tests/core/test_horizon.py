"""The exact horizon solvers (enumeration, DP, reference)."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.abr.base import SessionConfig
from repro.core.horizon import (
    _MAX_WAIT_POINTS,
    HorizonProblem,
    solve_horizon,
    solve_horizon_dp,
    solve_horizon_enumerate,
    solve_horizon_reference,
    solve_startup,
)
from repro.core.mpc import MPCController
from repro.qoe import QoEWeights
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import short_test_video

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)


def make_problem(
    buffer_s=10.0,
    prev_quality=1000.0,
    horizon=5,
    predictions=None,
    ladder=LADDER,
    weights=None,
    bmax=30.0,
    chunk_s=4.0,
):
    predictions = predictions if predictions is not None else (1500.0,) * horizon
    return HorizonProblem(
        buffer_level_s=buffer_s,
        prev_quality=prev_quality,
        chunk_sizes_kilobits=tuple(
            tuple(chunk_s * r for r in ladder) for _ in range(horizon)
        ),
        quality_values=tuple(ladder),
        predicted_kbps=tuple(predictions),
        chunk_duration_s=chunk_s,
        buffer_capacity_s=bmax,
        weights=weights if weights is not None else QoEWeights.balanced(),
    )


class TestProblemValidation:
    def test_prediction_length_mismatch(self):
        with pytest.raises(ValueError, match="predictions"):
            make_problem(horizon=3, predictions=(1000.0,) * 2)

    def test_nonpositive_prediction(self):
        with pytest.raises(ValueError, match="positive"):
            make_problem(predictions=(0.0,) * 5)

    def test_negative_buffer(self):
        with pytest.raises(ValueError):
            make_problem(buffer_s=-1.0)

    def test_size_row_mismatch(self):
        with pytest.raises(ValueError, match="ladder"):
            HorizonProblem(
                10.0, None, ((100.0,),), (350.0, 600.0), (1000.0,), 4.0, 30.0,
                QoEWeights.balanced(),
            )


class TestSolveBehaviour:
    def test_abundant_throughput_picks_top_rate(self):
        sol = solve_horizon(make_problem(predictions=(50_000.0,) * 5, prev_quality=3000.0))
        assert sol.plan == (4,) * 5
        assert sol.rebuffer_s == 0.0

    def test_starved_throughput_picks_bottom_rate(self):
        sol = solve_horizon(make_problem(buffer_s=0.0, predictions=(80.0,) * 5,
                                         prev_quality=350.0))
        assert sol.plan == (0,) * 5

    def test_first_chunk_has_no_switch_penalty(self):
        """With prev=None, the solver may jump straight to a high rate."""
        with_prev = solve_horizon(make_problem(prev_quality=350.0,
                                               predictions=(2500.0,) * 5))
        without_prev = solve_horizon(make_problem(prev_quality=None,
                                                  predictions=(2500.0,) * 5))
        assert without_prev.qoe >= with_prev.qoe

    def test_rebuffer_accounting(self):
        # One chunk, zero buffer: download takes size/pred > 0 -> stall.
        problem = make_problem(buffer_s=0.0, horizon=1, predictions=(1000.0,),
                               prev_quality=None)
        sol = solve_horizon(problem)
        level = sol.plan[0]
        expected_stall = 4.0 * LADDER[level] / 1000.0
        assert sol.rebuffer_s == pytest.approx(expected_stall)

    def test_final_buffer_respects_capacity(self):
        sol = solve_horizon(make_problem(buffer_s=29.0, predictions=(50_000.0,) * 5))
        assert sol.final_buffer_s <= 30.0 + 1e-9

    def test_switching_penalty_discourages_oscillation(self):
        """With a huge lambda the plan should be constant."""
        weights = QoEWeights(1e6, 3000.0, 3000.0, label="sticky")
        sol = solve_horizon(make_problem(weights=weights, prev_quality=600.0,
                                         predictions=(1500.0,) * 5))
        assert len(set(sol.plan)) == 1

    def test_horizon_one(self):
        sol = solve_horizon(make_problem(horizon=1, predictions=(1500.0,)))
        assert len(sol.plan) == 1


problem_strategy = st.builds(
    make_problem,
    buffer_s=st.floats(0.0, 30.0),
    prev_quality=st.one_of(st.none(), st.sampled_from(LADDER)),
    horizon=st.integers(1, 4),
    weights=st.builds(
        QoEWeights,
        st.floats(0.0, 5.0),
        st.floats(0.0, 8000.0),
        st.just(3000.0),
    ),
    bmax=st.floats(8.0, 60.0),
).flatmap(
    lambda p: st.lists(
        st.floats(50.0, 6000.0), min_size=p.horizon, max_size=p.horizon
    ).map(
        lambda preds: HorizonProblem(
            p.buffer_level_s,
            p.prev_quality,
            p.chunk_sizes_kilobits,
            p.quality_values,
            tuple(preds),
            p.chunk_duration_s,
            p.buffer_capacity_s,
            p.weights,
        )
    )
)


@given(problem=problem_strategy)
def test_all_three_solvers_agree_on_optimum(problem):
    a = solve_horizon_enumerate(problem)
    b = solve_horizon_dp(problem)
    c = solve_horizon_reference(problem)
    assert a.qoe == pytest.approx(b.qoe, rel=1e-9, abs=1e-6)
    assert a.qoe == pytest.approx(c.qoe, rel=1e-9, abs=1e-6)
    # The enumerating solvers break ties identically.
    assert a.plan == c.plan


@given(problem=problem_strategy, extra=st.floats(0.1, 10.0))
def test_more_buffer_never_hurts(problem, extra):
    """Optimal horizon QoE is monotone in the starting buffer — the
    property that justifies both RobustMPC's conservatism and the DP's
    Pareto pruning."""
    richer = HorizonProblem(
        problem.buffer_level_s + extra,
        problem.prev_quality,
        problem.chunk_sizes_kilobits,
        problem.quality_values,
        problem.predicted_kbps,
        problem.chunk_duration_s,
        problem.buffer_capacity_s,
        problem.weights,
    )
    assert solve_horizon(richer).qoe >= solve_horizon(problem).qoe - 1e-9


@given(problem=problem_strategy)
def test_plan_qoe_is_reachable(problem):
    """The reported QoE equals a direct re-evaluation of the plan."""
    sol = solve_horizon(problem)
    buffer_s = problem.buffer_level_s
    qoe = 0.0
    prev_q = problem.prev_quality
    for i, level in enumerate(sol.plan):
        dt = problem.chunk_sizes_kilobits[i][level] / problem.predicted_kbps[i]
        stall = max(dt - buffer_s, 0.0)
        buffer_s = min(max(buffer_s - dt, 0.0) + problem.chunk_duration_s,
                       problem.buffer_capacity_s)
        q = problem.quality_values[level]
        qoe += q - problem.weights.rebuffering * stall
        if prev_q is not None:
            qoe -= problem.weights.switching * abs(q - prev_q)
        prev_q = q
    assert qoe == pytest.approx(sol.qoe, rel=1e-9, abs=1e-6)


class TestSolveStartup:
    def test_wait_eliminates_rebuffer_when_cheap(self):
        """With mu > mu_s, pre-rolling strictly beats stalling."""
        weights = QoEWeights(1.0, 6000.0, 1000.0, label="preroll")
        problem = make_problem(buffer_s=0.0, predictions=(800.0,) * 5,
                               prev_quality=None, weights=weights)
        sol = solve_startup(problem)
        assert sol.startup_wait_s > 0
        assert sol.rebuffer_s == pytest.approx(0.0, abs=0.3)

    def test_no_wait_when_buffer_is_ample(self):
        problem = make_problem(buffer_s=25.0, predictions=(2000.0,) * 5)
        sol = solve_startup(problem)
        assert sol.startup_wait_s == 0.0

    def test_beats_or_matches_plain_solve(self):
        problem = make_problem(buffer_s=0.0, predictions=(600.0,) * 5,
                               prev_quality=None)
        plain = solve_horizon(problem)
        startup = solve_startup(problem)
        assert startup.qoe >= plain.qoe - 1e-9

    def test_wait_is_grid_bounded(self):
        problem = make_problem(buffer_s=0.0, predictions=(100.0,) * 5,
                               prev_quality=None)
        sol = solve_startup(problem, max_wait_s=6.0, wait_step_s=0.5)
        assert 0.0 <= sol.startup_wait_s <= 6.0

    def test_validation(self):
        problem = make_problem()
        with pytest.raises(ValueError):
            solve_startup(problem, wait_step_s=0.0)
        with pytest.raises(ValueError):
            solve_startup(problem, max_wait_s=-1.0)

    @pytest.mark.parametrize(
        "max_wait_s, wait_step_s",
        [(1e18, 0.25), (float(_MAX_WAIT_POINTS), 1.0)],  # one point past
    )
    def test_refuses_an_oversized_wait_grid(self, max_wait_s, wait_step_s):
        problem = make_problem(buffer_s=0.0, prev_quality=None)
        names = f"max_wait_s={max_wait_s:g} in steps of wait_step_s={wait_step_s:g}"
        with pytest.raises(ValueError, match=re.escape(names)):
            solve_startup(problem, max_wait_s=max_wait_s, wait_step_s=wait_step_s)

    def test_solves_a_grid_at_the_bound(self):
        problem = make_problem(
            buffer_s=0.0, prev_quality=None, horizon=1, ladder=(350.0, 600.0)
        )
        sol = solve_startup(
            problem, max_wait_s=float(_MAX_WAIT_POINTS - 1), wait_step_s=1.0
        )
        assert 0.0 <= sol.startup_wait_s <= _MAX_WAIT_POINTS - 1

    def test_mpc_session_with_unbounded_capacity_is_refused(self):
        with pytest.raises(ValueError, match="max_wait_s"):
            simulate_session(
                MPCController(),
                Trace.constant(1500.0, 60.0),
                short_test_video(),
                SessionConfig(buffer_capacity_s=1e18),
            )
