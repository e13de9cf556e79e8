"""The prefix-tree roll-out: every cell bit-identical to the scalar one.

``_BatchEvaluator.evaluate`` rolls one problem's plan space out over its
prefix tree from several start buffers at once; ``_evaluate_one_py``
(``kernel_reference.py``) rolls one plan out step by step.  Each (start
buffer, plan) QoE cell must carry the same IEEE-754 bit pattern — not an
approximately equal float — across the paper's horizon of 5, with and
without a previous quality.  The roll-out keeps no rebuffer or leaf
buffer; the solvers replay each winning plan (``_replay_plan``) for
them, and those two floats must match the scalar roll-out's bit for bit
too, through ``_solve_rows`` and through ``solve_horizon`` and
``solve_startup``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.horizon import (
    HorizonProblem,
    _plan_matrix,
    solve_horizon,
    solve_startup,
)
from repro.core.kernel import _BatchEvaluator, _replay_plan, _solve_rows
from repro.qoe import QoEWeights

from kernel_reference import _evaluate_one_py

PREV_MODES = ("none", "value")


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def vbr_rows(rng, num_levels, horizon):
    """Ascending per-chunk sizes that differ between horizon chunks."""
    return np.sort(rng.uniform(50.0, 20000.0, (horizon, num_levels)), axis=1)


def make_case(rng, num_levels, horizon, prev_mode, n=3):
    """One problem's sizes, predictions and previous quality, and ``n``
    start buffers (the first one empty)."""
    quality = np.sort(rng.uniform(100.0, 4000.0, size=num_levels))
    chunk_s = float(rng.uniform(1.0, 6.0))
    # CBR rows for even horizons, VBR rows for odd ones.
    if horizon % 2 == 0:
        sizes = np.tile(chunk_s * quality, (horizon, 1))
    else:
        sizes = vbr_rows(rng, num_levels, horizon)
    preds = rng.uniform(200.0, 5000.0, horizon)
    buffer0 = rng.uniform(0.0, 25.0, n)
    buffer0[0] = 0.0
    prev = None if prev_mode == "none" else float(quality[rng.integers(0, num_levels)])
    scalars = dict(
        switching=float(rng.uniform(0.0, 2.0)),
        rebuffering=float(rng.uniform(0.0, 5000.0)),
        chunk_duration_s=chunk_s,
        buffer_capacity_s=float(rng.uniform(10.0, 60.0)),
    )
    return sizes, preds, buffer0, prev, quality, scalars


def instance_rows(row, sizes, preds, buffer0, prev):
    """Start buffer ``row``'s sizes, predictions, buffer and previous quality."""
    return sizes.tolist(), preds.tolist(), float(buffer0[row]), prev


def scalar_cells(num_levels, horizon, sizes, preds, buffer0, prev, quality, scalars):
    """The scalar roll-out's QoE of every (start buffer, plan)."""
    plans = _plan_matrix(num_levels, horizon)
    n = buffer0.shape[0]
    out = np.empty((n, plans.shape[0]))
    quality_list = quality.tolist()
    for row in range(n):
        rows = instance_rows(row, sizes, preds, buffer0, prev)
        for j, plan in enumerate(plans.tolist()):
            out[row, j] = _evaluate_one_py(plan, *rows, quality_list, **scalars)[0]
    return out


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_levels", [1, 2, 3, 4, 5, 6])
def test_every_cell_matches_scalar_rollout(num_levels, horizon):
    rng = np.random.default_rng(1000 * num_levels + horizon)
    # Small plan spaces draw more start buffers; the paper's 5^5 and 6^5
    # still get two rows each.
    n = 3 if num_levels**horizon <= 1296 else 2
    evaluator = _BatchEvaluator()
    for prev_mode in PREV_MODES * 2:
        case = make_case(rng, num_levels, horizon, prev_mode, n)
        sizes, preds, buffer0, prev, quality, scalars = case
        got = evaluator.evaluate(
            num_levels, horizon, sizes, preds, buffer0, prev, quality,
            scalars["switching"], scalars["rebuffering"],
            scalars["chunk_duration_s"], scalars["buffer_capacity_s"],
        )
        expected = scalar_cells(num_levels, horizon, *case)
        assert got.shape == (n, num_levels**horizon)
        assert np.array_equal(bits(got), bits(expected)), prev_mode


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_levels", [1, 2, 3, 4, 5, 6])
def test_replayed_winners_match_scalar_rollout(num_levels, horizon):
    """``_solve_rows``' winner from each start buffer, with and without a
    previous quality, and its replayed rebuffer and final buffer: all
    three floats are the scalar roll-out's for that plan."""
    rng = np.random.default_rng(2000 * num_levels + horizon)
    plans = _plan_matrix(num_levels, horizon)
    for prev_mode in PREV_MODES * 2:
        case = make_case(rng, num_levels, horizon, prev_mode)
        sizes, preds, buffer0, prev, quality, scalars = case
        best, qoe = _solve_rows(plans, sizes, preds, buffer0, prev, quality, **scalars)
        # The winner is the first maximum of the scalar cells.
        assert best.tolist() == np.argmax(scalar_cells(num_levels, horizon, *case), 1).tolist()
        for row in range(buffer0.shape[0]):
            rows = instance_rows(row, sizes, preds, buffer0, prev)
            plan = plans[best[row]].tolist()
            want = _evaluate_one_py(plan, *rows, quality.tolist(), **scalars)
            replayed = _replay_plan(
                plan, rows[0], rows[1], rows[2],
                scalars["chunk_duration_s"], scalars["buffer_capacity_s"],
            )
            got = (qoe[row],) + replayed
            assert np.array_equal(bits(got), bits(want)), (prev_mode, row)


def entry_point_problems(rng, num_levels, horizon, count=4):
    """Problems with VBR rows, their own predictions and start buffers
    (the first one empty), and a previous quality on every other one."""
    _, _, _, _, quality, scalars = make_case(rng, num_levels, horizon, "none")
    weights = QoEWeights(
        switching=scalars["switching"],
        rebuffering=scalars["rebuffering"],
        startup=float(rng.uniform(0.0, 5000.0)),
    )
    return [
        HorizonProblem(
            buffer_level_s=0.0 if k == 0 else float(rng.uniform(0.0, 25.0)),
            prev_quality=None if k % 2 == 0 else float(quality[k % num_levels]),
            chunk_sizes_kilobits=vbr_rows(rng, num_levels, horizon).tolist(),
            quality_values=quality.tolist(),
            predicted_kbps=rng.uniform(200.0, 5000.0, horizon).tolist(),
            chunk_duration_s=scalars["chunk_duration_s"],
            buffer_capacity_s=scalars["buffer_capacity_s"],
            weights=weights,
        )
        for k in range(count)
    ]


def scalar_answer(problem, plan, buffer0):
    """``_evaluate_one_py`` of ``plan`` on ``problem`` from ``buffer0``."""
    return _evaluate_one_py(
        plan, problem.chunk_sizes_kilobits, problem.predicted_kbps, buffer0,
        problem.prev_quality, problem.quality_values, problem.weights.switching,
        problem.weights.rebuffering, problem.chunk_duration_s,
        problem.buffer_capacity_s,
    )


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_levels", [1, 2, 3, 4, 5, 6])
def test_entry_points_answer_their_winners_scalar_floats(num_levels, horizon):
    rng = np.random.default_rng(3000 * num_levels + horizon)
    problems = entry_point_problems(rng, num_levels, horizon)
    for problem in problems:
        solution = solve_horizon(problem)
        want = scalar_answer(problem, solution.plan, problem.buffer_level_s)
        got = (solution.qoe, solution.rebuffer_s, solution.final_buffer_s)
        assert np.array_equal(bits(got), bits(want)), "solve_horizon"
    for problem in problems:
        solution = solve_startup(problem, max_wait_s=2.0, wait_step_s=0.25)
        wait = solution.startup_wait_s
        qoe, rebuffer, final_buffer = scalar_answer(
            problem, solution.plan, problem.buffer_level_s + wait
        )
        got = (solution.qoe, solution.rebuffer_s, solution.final_buffer_s)
        want = (qoe - problem.weights.startup * wait, rebuffer, final_buffer)
        assert np.array_equal(bits(got), bits(want)), "solve_startup"


def test_exact_tie_picks_the_lowest_plan_index():
    # Levels 1 and 2 share a quality, downloads never stall, and the
    # previous chunk played at that quality: every plan over {1, 2} scores
    # exactly 5 * 2.0, so the lexicographically smallest, (1,)*5, wins.
    quality = (1.0, 2.0, 2.0)
    problem = HorizonProblem(
        buffer_level_s=20.0,
        prev_quality=2.0,
        chunk_sizes_kilobits=((10.0, 20.0, 30.0),) * 5,
        quality_values=quality,
        predicted_kbps=(1e6,) * 5,
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        weights=QoEWeights(switching=1.0, rebuffering=100.0, startup=100.0),
    )
    qoe = _BatchEvaluator().evaluate(
        3, 5,
        np.asarray(problem.chunk_sizes_kilobits), np.asarray(problem.predicted_kbps),
        np.asarray([problem.buffer_level_s]), problem.prev_quality,
        np.asarray(quality), 1.0, 100.0, 4.0, 30.0,
    )
    plans = _plan_matrix(3, 5).tolist()
    tied = [j for j, plan in enumerate(plans) if set(plan) <= {1, 2}]
    assert len(tied) == 2**5
    assert {float(qoe[0, j]) for j in tied} == {10.0}
    assert float(qoe[0].max()) == 10.0
    solution = solve_horizon(problem)
    assert solution.plan == (1, 1, 1, 1, 1)
    assert plans.index(list(solution.plan)) == min(tied)
    assert math.isclose(solution.qoe, 10.0)


def test_plans_must_be_the_full_product():
    partial = _plan_matrix(3, 2)[:4]
    with pytest.raises(ValueError, match="full product"):
        _solve_rows(
            partial, np.ones((2, 3)), np.ones(2), np.zeros(1), None,
            np.arange(3.0), 1.0, 1.0, 4.0, 30.0,
        )
