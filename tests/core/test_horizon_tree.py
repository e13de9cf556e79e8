"""The prefix-tree roll-out: every cell bit-identical to the scalar one.

``_BatchEvaluator.evaluate`` rolls the plan space out over its prefix
tree; ``_evaluate_one_py`` (``kernel_reference.py``) rolls one plan out
step by step.  Each (instance, plan) cell of the three outputs must
carry the same IEEE-754 bit pattern — not an approximately equal float
— across the paper's horizon of 5 and every input layout the consumers
pass.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.horizon import HorizonProblem, _plan_matrix
from repro.core.kernel import _BatchEvaluator, solve_horizon_batch
from repro.qoe import QoEWeights

from kernel_reference import _evaluate_one_py

#: (shared sizes, shared predictions) per layout.
LAYOUTS = ((True, True), (True, False), (False, True), (False, False))
PREV_MODES = ("none", "value", "nan-mixed")


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def make_case(rng, num_levels, horizon, layout, prev_mode, n=3):
    shared_sizes, shared_preds = layout
    quality = np.sort(rng.uniform(100.0, 4000.0, size=num_levels))
    chunk_s = float(rng.uniform(1.0, 6.0))
    if shared_sizes:
        # CBR rows for even horizons, VBR rows for odd ones.
        if horizon % 2 == 0:
            sizes = np.tile(chunk_s * quality, (horizon, 1))
        else:
            sizes = np.sort(rng.uniform(50.0, 20000.0, (horizon, num_levels)), axis=1)
    else:
        sizes = np.sort(
            rng.uniform(50.0, 20000.0, (n, horizon, num_levels)), axis=2
        )
    if shared_preds:
        preds = rng.uniform(200.0, 5000.0, horizon)
    else:
        preds = rng.uniform(200.0, 5000.0, (n, horizon))
    buffer0 = rng.uniform(0.0, 25.0, n)
    buffer0[0] = 0.0
    if prev_mode == "none":
        prev = None
    else:
        prev = quality[rng.integers(0, num_levels, n)].astype(np.float64)
        if prev_mode == "nan-mixed":
            prev[1::2] = np.nan
    scalars = dict(
        switching=float(rng.uniform(0.0, 2.0)),
        rebuffering=float(rng.uniform(0.0, 5000.0)),
        chunk_duration_s=chunk_s,
        buffer_capacity_s=float(rng.uniform(10.0, 60.0)),
    )
    return sizes, preds, buffer0, prev, quality, scalars


def scalar_cells(num_levels, horizon, sizes, preds, buffer0, prev, quality, scalars):
    plans = _plan_matrix(num_levels, horizon)
    n = buffer0.shape[0]
    out = np.empty((3, n, plans.shape[0]))
    quality_list = quality.tolist()
    for row in range(n):
        sizes_rows = (sizes if sizes.ndim == 2 else sizes[row]).tolist()
        preds_row = (preds if preds.ndim == 1 else preds[row]).tolist()
        prev_row = None if prev is None else float(prev[row])
        for j, plan in enumerate(plans.tolist()):
            out[:, row, j] = _evaluate_one_py(
                plan, sizes_rows, preds_row, float(buffer0[row]), prev_row,
                quality_list, scalars["switching"], scalars["rebuffering"],
                scalars["chunk_duration_s"], scalars["buffer_capacity_s"],
            )
    return out


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_levels", [1, 2, 3, 4, 5, 6])
def test_every_cell_matches_scalar_rollout(num_levels, horizon):
    rng = np.random.default_rng(1000 * num_levels + horizon)
    # Small plan spaces draw more instances; the paper's 5^5 and 6^5
    # still get two rows each.
    n = 3 if num_levels**horizon <= 1296 else 2
    evaluator = _BatchEvaluator()
    for index, layout in enumerate(LAYOUTS):
        prev_mode = PREV_MODES[(index + horizon) % len(PREV_MODES)]
        case = make_case(rng, num_levels, horizon, layout, prev_mode, n)
        sizes, preds, buffer0, prev, quality, scalars = case
        got = evaluator.evaluate(
            num_levels, horizon, sizes, preds, buffer0, prev, quality,
            scalars["switching"], scalars["rebuffering"],
            scalars["chunk_duration_s"], scalars["buffer_capacity_s"],
        )
        expected = scalar_cells(num_levels, horizon, *case)
        for name, cells, want in zip(("qoe", "rebuffer", "buffer"), got, expected):
            assert cells.shape == (n, num_levels**horizon), name
            assert np.array_equal(bits(cells), bits(want)), (name, layout, prev_mode)


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
    qoe, _, _ = _BatchEvaluator().evaluate(
        3, 5,
        np.asarray(problem.chunk_sizes_kilobits), np.asarray(problem.predicted_kbps),
        np.asarray([problem.buffer_level_s]), np.asarray([problem.prev_quality]),
        np.asarray(quality), 1.0, 100.0, 4.0, 30.0,
    )
    plans = _plan_matrix(3, 5).tolist()
    tied = [j for j, plan in enumerate(plans) if set(plan) <= {1, 2}]
    assert len(tied) == 2**5
    assert {float(qoe[0, j]) for j in tied} == {10.0}
    assert float(qoe[0].max()) == 10.0
    (solution,) = solve_horizon_batch([problem])
    assert solution.plan == (1, 1, 1, 1, 1)
    assert plans.index(list(solution.plan)) == min(tied)
    assert math.isclose(solution.qoe, 10.0)


def test_plans_must_be_the_full_product():
    from repro.core.kernel import _solve_rows

    partial = _plan_matrix(3, 2)[:4]
    with pytest.raises(ValueError, match="full product"):
        _solve_rows(
            partial, np.ones((2, 3)), np.ones(2), np.zeros(1), None,
            np.arange(3.0), 1.0, 1.0, 4.0, 30.0,
        )
