"""Scalar references for the batched kernel of :mod:`repro.core.kernel`.

Each function computes, one plan at a time in plain Python floats, what
the kernel computes in arrays, with the same association of every
operation.  The kernel's tests hold it to these cell for cell and
decision for decision:

* :func:`_evaluate_one_py` — one (instance, plan) roll-out of
  :meth:`~repro.core.kernel._BatchEvaluator.evaluate`
  (``test_horizon_tree.py``);
* :func:`_build_table_decisions_py` — the FastMPC table build of
  :func:`~repro.core.kernel.build_table_decisions`
  (``test_table_build_tree.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple


def _evaluate_one_py(
    plan: Sequence[int],
    sizes_rows: Sequence[Sequence[float]],
    preds_row: Sequence[float],
    buffer0: float,
    prev_quality: Optional[float],
    quality: Sequence[float],
    switching: float,
    rebuffering: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
) -> Tuple[float, float, float]:
    """One (instance, plan) roll-out, replicating the vectorised op order.

    Each line mirrors the corresponding element-wise NumPy op in
    :meth:`_BatchEvaluator.evaluate` (same association, commutative
    reorderings only), so the returned ``(qoe, rebuffer, final_buffer)``
    is bit-identical to the vectorised path's element for this cell.
    """
    buf = buffer0
    qoe = 0.0
    rebuf = 0.0
    for i, level in enumerate(plan):
        dt = sizes_rows[i][level] / preds_row[i]
        stall = dt - buf
        if stall < 0.0:
            stall = 0.0
        rebuf += stall
        q_now = quality[level]
        qoe += q_now - stall * rebuffering
        buf = buf - dt
        if buf < 0.0:
            buf = 0.0
        buf += chunk_duration_s
        if buf > buffer_capacity_s:
            buf = buffer_capacity_s
        if i == 0:
            if prev_quality is not None and not math.isnan(prev_quality):
                qoe -= switching * abs(q_now - prev_quality)
        else:
            qoe -= switching * abs(q_now - quality[plan[i - 1]])
    return qoe, rebuf, buf


def _build_table_decisions_py(
    level_sizes_kilobits: Sequence[float],
    quality_values: Sequence[float],
    buffer_centers: Sequence[float],
    throughput_centers: Sequence[float],
    horizon: int,
    switching: float,
    rebuffering: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
) -> List[List[List[int]]]:
    """The reference :func:`build_table_decisions` is tested against.

    The same static/first-switch/roll-out decomposition, computed cell by
    cell and plan by plan with the exact arithmetic association of the
    vectorised path (sequential sums, ``rebuf * -mu + (static -
    first_switch)``, strict first-maximum argmax over all plans), so the
    decision array is identical.  Meant for small tables: it scores every
    plan of every state one at a time.
    """
    quality = list(quality_values)
    sizes = list(level_sizes_kilobits)
    num_levels = len(quality)
    # Lexicographic order, as in the kernel's plan matrix.
    plans = list(itertools.product(range(num_levels), repeat=horizon))

    static: List[float] = []
    first_switch: List[List[float]] = []  # (plan, prev_level)
    for plan in plans:
        total = 0.0
        for level in plan:
            total += quality[level]
        diff_sum = 0.0
        for i in range(1, horizon):
            diff_sum += abs(quality[plan[i]] - quality[plan[i - 1]])
        if horizon > 1:
            total = total - switching * diff_sum
        static.append(total)
        q_first = quality[plan[0]]
        first_switch.append(
            [switching * abs(q_first - q_prev) for q_prev in quality]
        )

    decisions: List[List[List[int]]] = []
    for b0 in buffer_centers:
        plane: List[List[int]] = [[] for _ in range(num_levels)]
        for c_idx, c_center in enumerate(throughput_centers):
            # Roll the rebuffer dynamics once per plan for this
            # (buffer, throughput) cell; prev_level only shifts the
            # score by a per-plan constant.
            rebuf_scores: List[float] = []
            for plan in plans:
                buf = b0
                rebuf = 0.0
                for i in range(horizon):
                    dt = sizes[plan[i]] / c_center
                    stall = dt - buf
                    if stall < 0.0:
                        stall = 0.0
                    rebuf += stall
                    buf = buf - dt
                    if buf < 0.0:
                        buf = 0.0
                    buf += chunk_duration_s
                    if buf > buffer_capacity_s:
                        buf = buffer_capacity_s
                rebuf_scores.append(rebuf * -rebuffering)
            for prev in range(num_levels):
                best_score = -math.inf
                best_first = 0
                for plan_idx, plan in enumerate(plans):
                    score = rebuf_scores[plan_idx] + (
                        static[plan_idx] - first_switch[plan_idx][prev]
                    )
                    if score > best_score:
                        best_score = score
                        best_first = plan[0]
                plane[prev].append(best_first)
        decisions.append(plane)
    return decisions
