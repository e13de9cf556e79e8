"""Batched horizon-solver kernel — one plan evaluator for every consumer.

Every hot path of the reproduction ultimately evaluates the same
recurrence: roll the buffer dynamics of Eqs. (1)-(4) forward over all
``|R|^N`` candidate plans and take the QoE argmax.  Historically each
consumer re-implemented that roll-out — :func:`~repro.core.horizon.
solve_horizon` per chunk, :func:`~repro.core.horizon.solve_startup` once
per wait-grid point, and the FastMPC table builder in a hand-rolled
double loop over ``(buffer_bin, prev_level)`` states.  This module is the
single implementation they all delegate to:

* :class:`_BatchEvaluator` — the vectorised plan roll-out over the plan
  prefix tree: plans sharing a prefix share every float up to its end,
  so step ``i`` evaluates the ``|R|^(i+1)`` distinct prefixes of all
  instances at once, and the last step yields ``(n_instances, n_plans)``
  in the plan matrix's lexicographic order.  The arithmetic is
  element-wise and associates *exactly* like the scalar reference
  solver, so batched results are bit-identical to
  :func:`~repro.core.horizon.solve_horizon_reference` (same optimal QoE,
  same lexicographic tie-break).  Its per-shape tree arrays are the
  roll-out scratch; each thread owns one evaluator
  (:func:`_thread_evaluator`) that every solve on that thread reuses,
  so no session or controller carries solver scratch of its own.

* :func:`solve_horizon_batch` — solve many :class:`~repro.core.horizon.
  HorizonProblem` instances at once.  Problems sharing structure (ladder,
  weights, horizon, chunk duration, capacity) are stacked into one NumPy
  computation; oversized plan spaces fall back to the exact Pareto DP per
  instance.

* :func:`build_table_decisions` — the FastMPC offline enumeration.  It
  exploits the table's extra structure (CBR sizes, flat predictions): the
  quality/switching part of a plan's QoE is independent of the buffer and
  throughput state, so it is computed once per plan and only the
  rebuffering dynamics are rolled out per state — over the same plan
  prefix tree, in cache-sized blocks of buffer bins.

Instance batches are chunked internally so each roll-out stays bounded
(:data:`MAX_BATCH_ELEMENTS` leaf elements) regardless of batch size.

The scalar references the kernel is tested against, cell for cell and
decision for decision, live in ``tests/core/kernel_reference.py``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.events import SolverCall

from .horizon import (
    _ENUMERATION_LIMIT,
    _plan_matrix,
    HorizonProblem,
    HorizonSolution,
    solve_horizon_dp,
)

__all__ = ["solve_horizon_batch", "build_table_decisions", "MAX_BATCH_ELEMENTS"]

# Upper bound on the (instances x plans) element count of one roll-out's
# last step (~16 MB of float64 per leaf array).  Larger batches are
# rolled out in chunks of instances.
MAX_BATCH_ELEMENTS = 2_000_000

# Leaf states per block of the table build: as many buffer bins as fit
# (plans x throughput bins each), and at least one.  One bin of a
# 5-level, horizon-5, 100-bin table is 312,500 states, 2.5 MB per leaf
# array; blocks of four or more such bins built that table more slowly.
_TABLE_BLOCK_ELEMENTS = 1 << 19

# Bounds of an evaluator's prefix-tree cache: at most this many shapes,
# whose arrays total at most this many bytes.  A tree larger than the
# byte bound is built for its call and not kept.  A RobustMPC session
# uses six shapes (the 121-point startup grid, about 11 MB at 5 levels x
# horizon 5, and steady horizons 5 to 1), so replayed sessions allocate
# no roll-out arrays at all.
_TREE_CACHE_SHAPES = 8
_TREE_CACHE_BYTES = 16 << 20


class _BatchEvaluator:
    """Scratch for the vectorised plan roll-out: prefix trees by shape.

    The evaluator keeps the per-level arrays of the plan prefix tree for
    each roll-out shape it has seen, least recently used first, within
    :data:`_TREE_CACHE_SHAPES` shapes and :data:`_TREE_CACHE_BYTES`
    bytes.  Each thread shares one evaluator among all its solves
    (:func:`_thread_evaluator`), so a controller solving the same-shaped
    problem every chunk, and every later session of that controller,
    reuses the same arrays.

    Not thread-safe: the returned arrays alias the scratch and are only
    valid until the next call on the same evaluator.
    """

    __slots__ = ("_trees",)

    def __init__(self) -> None:
        # shape key -> (tree, bytes held by its arrays)
        self._trees: "OrderedDict[tuple, tuple]" = OrderedDict()

    def _prefix_tree(self, n: int, num_levels: int, horizon: int, dt_rows: int):
        """Scratch for one roll-out shape: a root and one entry per step.

        Step ``i`` holds the ``(qoe, rebuffer, buffer)`` of the
        ``num_levels**(i+1)`` plan prefixes of length ``i + 1``, as
        ``(prefixes, n)`` arrays: prefix ``p`` extended by level ``l`` is
        row ``p * num_levels + l``, so the rows of the last step are
        :func:`~repro.core.horizon._plan_matrix`'s rows in order.  The
        instance axis is innermost, so every element-wise op over a batch
        (a whole startup wait grid, say) runs along contiguous memory.
        Each entry carries ready-made ``(parents, 1, n)`` views of its
        parent step and ``(parents, num_levels, n)`` views of its own
        arrays, so a roll-out of a cached shape creates no arrays at all.
        """
        key = (n, num_levels, horizon, dt_rows)
        cached = self._trees.get(key)
        if cached is not None:
            self._trees.move_to_end(key)
            return cached[0]
        zeros = np.zeros((1, n))  # the root's QoE and rebuffer, read only
        root_buf = np.empty((1, n))
        dt = np.empty((1, num_levels, dt_rows))  # download time per level
        pen = np.empty((num_levels, num_levels, 1))  # switching penalty matrix
        first = np.empty((1, num_levels, n))  # first-step switching penalty
        arrays = [zeros, root_buf, dt, pen, first]
        parent = (zeros, zeros, root_buf)
        steps = []
        for i in range(horizon):
            parents = num_levels**i
            qoe, rebuf, buf = (
                np.empty((parents * num_levels, n)) for _ in range(3)
            )
            arrays += (qoe, rebuf, buf)
            steps.append(
                (
                    tuple(a.reshape(parents, 1, n) for a in parent),
                    tuple(
                        a.reshape(parents, num_levels, n) for a in (qoe, rebuf, buf)
                    ),
                    # (grandparents, previous level, level, n) for the
                    # switching penalty between consecutive steps.
                    qoe.reshape(-1, num_levels, num_levels, n) if i else None,
                )
            )
            parent = (qoe, rebuf, buf)
        tree = (root_buf, dt, pen, first, steps, tuple(a.T for a in parent))
        nbytes = sum(a.nbytes for a in arrays)
        if nbytes <= _TREE_CACHE_BYTES:
            self._trees[key] = (tree, nbytes)
            while (
                len(self._trees) > _TREE_CACHE_SHAPES
                or sum(held for _, held in self._trees.values()) > _TREE_CACHE_BYTES
            ):
                self._trees.popitem(last=False)
        return tree

    def evaluate(
        self,
        num_levels: int,
        horizon: int,
        sizes: np.ndarray,
        preds: np.ndarray,
        buffer0: np.ndarray,
        prev_quality: Optional[np.ndarray],
        quality: np.ndarray,
        switching: float,
        rebuffering: float,
        chunk_duration_s: float,
        buffer_capacity_s: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """QoE, total rebuffer and final buffer of every (instance, plan).

        The plans are the full lexicographic product
        ``_plan_matrix(num_levels, horizon)``, rolled out over their
        prefix tree: step ``i`` evaluates each of the ``num_levels**(i+1)``
        distinct prefixes once, from its parent prefix, instead of once
        per plan sharing it (3,905 prefix-steps for 5 levels x horizon 5
        against 15,625 plan-steps).  Every element goes through the same
        operations in the same order as in the scalar recurrence
        (``_evaluate_one_py`` in ``tests/core/kernel_reference.py``), so
        each cell is bit-identical to it.

        Parameters
        ----------
        sizes:
            ``(n, N, levels)`` per-instance chunk sizes, or ``(N, levels)``
            shared by all instances.
        preds:
            ``(n, N)`` per-instance predictions, or ``(N,)`` shared.
        buffer0:
            ``(n,)`` starting buffer levels.
        prev_quality:
            ``(n,)`` previous-chunk qualities with NaN marking "no
            previous chunk" (no first-step switching penalty), or None
            when no instance has a previous chunk.
        quality:
            ``(levels,)`` the ladder's quality values.

        Returns ``(qoe, rebuffer, final_buffer)``, each an ``(n, M)`` view
        with column ``j`` the plan in row ``j`` of the plan matrix — views
        into this evaluator's scratch, consume before the next call.
        """
        n = buffer0.shape[0]
        shared_sizes = sizes.ndim == 2
        shared_preds = preds.ndim == 1
        root_buf, dt, pen, first, steps, leaves = self._prefix_tree(
            n, num_levels, horizon, 1 if shared_sizes and shared_preds else n
        )
        root_buf[0] = buffer0
        no_prev = None
        if prev_quality is not None:
            mask = np.isnan(prev_quality)
            if mask.any():
                no_prev = mask
        q = quality[None, :, None]
        if horizon > 1:
            # pen[a, b]: the switching penalty from level a to level b.
            pairs = pen[:, :, 0]
            np.subtract(quality[None, :], quality[:, None], out=pairs)
            np.abs(pairs, out=pairs)
            np.multiply(pairs, switching, out=pairs)

        for i, ((qoe_p, rebuf_p, buf_p), (qoe, rebuf, buf), qoe_pairs) in enumerate(
            steps
        ):
            # Download time of each level at this step, per instance.
            if shared_sizes:
                if shared_preds:
                    np.divide(sizes[i], preds[i], out=dt[0, :, 0])
                else:
                    np.divide(sizes[i][:, None], preds[None, :, i], out=dt[0])
            elif shared_preds:
                np.divide(sizes[:, i, :].T, preds[i], out=dt[0])
            else:
                np.divide(sizes[:, i, :].T, preds[None, :, i], out=dt[0])
            # stall = max(dt - buffer, 0), held in ``qoe`` until it is
            # accumulated.
            np.subtract(dt, buf_p, out=qoe)
            np.maximum(qoe, 0.0, out=qoe)
            np.add(rebuf_p, qoe, out=rebuf)
            # qoe += q_now - mu * stall (exact reference association).
            np.multiply(qoe, rebuffering, out=qoe)
            np.subtract(q, qoe, out=qoe)
            np.add(qoe_p, qoe, out=qoe)
            # buffer = min(max(buffer - dt, 0) + L, Bmax)  (Eqs. 1-4).
            np.subtract(buf_p, dt, out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.add(buf, chunk_duration_s, out=buf)
            np.minimum(buf, buffer_capacity_s, out=buf)
            # Switching penalty: per-instance at the first step, shared
            # between steps (the prefix fixes both qualities).
            if i == 0:
                if prev_quality is not None:
                    np.subtract(q, prev_quality[None, None, :], out=first)
                    np.abs(first, out=first)
                    np.multiply(first, switching, out=first)
                    if no_prev is not None:
                        first[:, :, no_prev] = 0.0
                    np.subtract(qoe, first, out=qoe)
            else:
                np.subtract(qoe_pairs, pen, out=qoe_pairs)
        return leaves


_thread_local = threading.local()


def _thread_evaluator() -> _BatchEvaluator:
    """The calling thread's evaluator, created on its first solve."""
    try:
        return _thread_local.evaluator
    except AttributeError:
        evaluator = _thread_local.evaluator = _BatchEvaluator()
        return evaluator


def _solve_rows(
    plans,
    sizes,
    preds,
    buffer0,
    prev_quality,
    quality,
    switching: float,
    rebuffering: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
):
    """Argmax-reduced batch evaluation, chunked to bound scratch size.

    Returns per-instance arrays ``(best_plan_index, qoe, rebuffer,
    final_buffer)``; the argmax takes the first maximum, i.e. the
    lexicographically smallest optimal plan.  The roll-out runs on the
    thread's shared evaluator, and each chunk's views of its scratch are
    consumed here, before the next ``evaluate`` call.
    """
    evaluator = _thread_evaluator()
    n = buffer0.shape[0]
    m, horizon = plans.shape
    num_levels = quality.shape[0]
    if m != num_levels**horizon:
        raise ValueError("the plans must be the full product of the ladder levels")
    step = max(1, MAX_BATCH_ELEMENTS // m)
    best = np.empty(n, dtype=np.int64)
    best_qoe = np.empty(n)
    best_rebuf = np.empty(n)
    best_buf = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        qoe, rebuf, fin = evaluator.evaluate(
            num_levels,
            horizon,
            sizes if sizes.ndim == 2 else sizes[lo:hi],
            preds if preds.ndim == 1 else preds[lo:hi],
            buffer0[lo:hi],
            None if prev_quality is None else prev_quality[lo:hi],
            quality,
            switching,
            rebuffering,
            chunk_duration_s,
            buffer_capacity_s,
        )
        idx = np.argmax(qoe, axis=1)
        rows = np.arange(hi - lo)
        best[lo:hi] = idx
        best_qoe[lo:hi] = qoe[rows, idx]
        best_rebuf[lo:hi] = rebuf[rows, idx]
        best_buf[lo:hi] = fin[rows, idx]
    return best, best_qoe, best_rebuf, best_buf


def solve_horizon_batch(
    problems: Iterable[HorizonProblem],
    tracer=None,
) -> List[HorizonSolution]:
    """Solve many ``QOE_MAX_STEADY`` instances in one vectorised pass.

    Problems are grouped by shared structure (ladder qualities, weights,
    horizon, chunk duration, capacity); each group is stacked into one
    prefix-tree roll-out whose last step scores every ``(instance,
    plan)`` pair.  Per-instance chunk
    sizes (VBR rows) and predictions may differ freely within a group.
    Results are returned in input order and are bit-identical to
    :func:`~repro.core.horizon.solve_horizon` on each instance —
    including the lexicographic tie-break — because the batched
    arithmetic associates exactly like the scalar reference.

    Instances whose plan space exceeds the enumeration limit are solved
    with the exact Pareto DP, matching ``solve_horizon``'s dispatch.

    A :class:`repro.obs.Tracer` records one ``solver-call`` event per
    structural group (batch size, plan count, wall time).
    """
    tracing = tracer is not None and tracer.enabled
    problem_list = list(problems)
    if not problem_list:
        return []
    solutions: List[Optional[HorizonSolution]] = [None] * len(problem_list)

    groups: Dict[tuple, List[int]] = {}
    for idx, problem in enumerate(problem_list):
        if problem.num_levels**problem.horizon > _ENUMERATION_LIMIT:
            solutions[idx] = solve_horizon_dp(problem)
            continue
        key = (
            problem.quality_values,
            problem.horizon,
            problem.num_levels,
            problem.weights.switching,
            problem.weights.rebuffering,
            problem.chunk_duration_s,
            problem.buffer_capacity_s,
        )
        groups.setdefault(key, []).append(idx)

    for key, idxs in groups.items():
        quality_values, horizon, num_levels, lam, mu, duration, capacity = key
        if tracing:
            _t0 = time.perf_counter()
        plans = _plan_matrix(num_levels, horizon)
        members = [problem_list[i] for i in idxs]
        sizes = np.asarray(
            [p.chunk_sizes_kilobits for p in members], dtype=np.float64
        )
        preds = np.asarray([p.predicted_kbps for p in members], dtype=np.float64)
        buffer0 = np.asarray([p.buffer_level_s for p in members], dtype=np.float64)
        if all(p.prev_quality is None for p in members):
            prev = None
        else:
            prev = np.asarray(
                [
                    np.nan if p.prev_quality is None else p.prev_quality
                    for p in members
                ],
                dtype=np.float64,
            )
        quality = np.asarray(quality_values, dtype=np.float64)
        best, qoe, rebuf, fin = _solve_rows(
            plans, sizes, preds, buffer0, prev, quality,
            lam, mu, duration, capacity,
        )
        for row, idx in enumerate(idxs):
            solutions[idx] = HorizonSolution(
                plan=tuple(int(x) for x in plans[best[row]]),
                qoe=float(qoe[row]),
                rebuffer_s=float(rebuf[row]),
                final_buffer_s=float(fin[row]),
            )
        if tracing:
            tracer.emit(
                SolverCall(
                    session_id="",
                    t_mono=tracer.now(),
                    op="solve-horizon-batch",
                    instances=len(idxs),
                    plans=len(plans),
                    wall_s=time.perf_counter() - _t0,
                )
            )
    assert all(s is not None for s in solutions)
    return solutions  # type: ignore[return-value]


def build_table_decisions(
    level_sizes_kilobits: Sequence[float],
    quality_values: Sequence[float],
    buffer_centers: Sequence[float],
    throughput_centers: Sequence[float],
    horizon: int,
    switching: float,
    rebuffering: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
    tracer=None,
):
    """FastMPC's offline enumeration over the whole binned state space.

    Solves every ``(buffer_bin, prev_level, throughput_bin)`` instance —
    CBR sizes, flat predictions — and returns the optimal *first* level
    of each as an ``(buffer_bins, num_levels, throughput_bins)`` int
    array.  Ties pick the lexicographically smallest plan, matching the
    online solver.

    The quality and switching terms of a plan's QoE do not depend on the
    buffer or throughput state, so they are computed once per plan
    (``static``) plus a per-``prev_level`` first-switch column; only the
    rebuffering dynamics are rolled out per state.  The resulting QoE
    sums associate differently from the scalar solver's interleaved
    accumulation — mathematically identical, and at table resolution the
    (sub-ULP) difference cannot flip a decision except on exact ties
    between plans that already share a first level.

    The roll-out runs over the plan prefix tree, in blocks of
    :data:`_TABLE_BLOCK_ELEMENTS` leaf states with the state axis
    innermost: step ``i`` computes the stall, rebuffer and buffer of each
    of the ``L**(i+1)`` prefixes once, from its parent (3,905
    prefix-steps per state at 5 levels x horizon 5, against 15,625
    plan-steps), and the last step computes only the rebuffer.  Per
    ``prev_level``, the score of each block of ``L**(N-1)`` plans sharing
    a first level is reduced to its maximum, and the first of the ``L``
    block maxima to reach the overall maximum gives the decision: plans
    are in lexicographic order, so that is the first level of the first
    maximising plan.  Every float goes through the same operations in
    the same order as in ``_build_table_decisions_py``
    (``tests/core/kernel_reference.py``), the reference this path is
    tested against, so the decision arrays are identical.
    """
    tracing = tracer is not None and tracer.enabled
    if tracing:
        _t0 = time.perf_counter()
    sizes = np.asarray(level_sizes_kilobits, dtype=np.float64)
    quality = np.asarray(quality_values, dtype=np.float64)
    b_centers = np.asarray(buffer_centers, dtype=np.float64)
    c_centers = np.asarray(throughput_centers, dtype=np.float64)
    num_levels = quality.shape[0]

    plans = _plan_matrix(num_levels, horizon)
    m = plans.shape[0]
    share = m // num_levels  # plans per first level
    num_buffer = b_centers.shape[0]
    num_throughput = c_centers.shape[0]

    # State-independent part of every plan's QoE.
    plan_quality = quality[plans]  # (M, N)
    static = plan_quality.sum(axis=1)
    if horizon > 1:
        static = static - switching * np.abs(
            np.diff(plan_quality, axis=1)
        ).sum(axis=1)
    first_switch = switching * np.abs(
        plan_quality[:, 0][:, None] - quality[None, :]
    )  # (M, num_levels)
    # (prev_level, plan): what each plan adds to -mu * rebuffer.
    columns = np.ascontiguousarray((static[:, None] - first_switch).T)

    # CBR sizes and flat predictions make the download time a function of
    # (level, throughput bin) alone, the same at every step and buffer bin.
    dt = (sizes[:, None] / c_centers[None, :]).reshape(
        1, num_levels, 1, num_throughput
    )

    decisions = np.empty(
        (num_buffer, num_levels, num_throughput), dtype=np.int64
    )
    block = max(
        1, min(_TABLE_BLOCK_ELEMENTS // max(m * num_throughput, 1), num_buffer)
    )
    # Flat per-step scratch, so a short last block takes a contiguous head.
    states = block * num_throughput
    rebufs = [np.empty(num_levels ** (i + 1) * states) for i in range(horizon)]
    bufs = [np.empty(num_levels ** (i + 1) * states) for i in range(horizon - 1)]
    score = np.empty(share * states)
    best = np.empty(num_levels * states)
    for lo in range(0, num_buffer, block):
        hi = min(lo + block, num_buffer)
        nb = hi - lo
        n_states = nb * num_throughput
        buf_p = b_centers[lo:hi].reshape(1, 1, nb, 1)
        rebuf_p = None
        for i in range(horizon):
            prefixes = num_levels ** (i + 1)
            shape = (prefixes // num_levels, num_levels, nb, num_throughput)
            # rebuffer += max(dt - buffer, 0).  The first step's rebuffer
            # is its stall; the reference's 0.0 + stall is the same value.
            rebuf = rebufs[i][: prefixes * n_states].reshape(shape)
            np.subtract(dt, buf_p, out=rebuf)
            np.maximum(rebuf, 0.0, out=rebuf)
            if rebuf_p is not None:
                np.add(rebuf_p, rebuf, out=rebuf)
            rebuf_p = rebuf.reshape(prefixes, 1, nb, num_throughput)
            if i + 1 < horizon:
                # buffer = min(max(buffer - dt, 0) + L, Bmax)  (Eqs. 1-4).
                buf = bufs[i][: prefixes * n_states].reshape(shape)
                np.subtract(buf_p, dt, out=buf)
                np.maximum(buf, 0.0, out=buf)
                np.add(buf, chunk_duration_s, out=buf)
                np.minimum(buf, buffer_capacity_s, out=buf)
                buf_p = buf.reshape(prefixes, 1, nb, num_throughput)
        leaves = rebufs[-1][: m * n_states].reshape(m, n_states)
        np.multiply(leaves, -rebuffering, out=leaves)  # -> -mu * rebuffer
        block_score = score[: share * n_states].reshape(share, n_states)
        block_best = best[: num_levels * n_states].reshape(num_levels, n_states)
        for prev in range(num_levels):
            for first in range(num_levels):
                rows = slice(first * share, (first + 1) * share)
                np.add(leaves[rows], columns[prev, rows, None], out=block_score)
                np.max(block_score, axis=0, out=block_best[first])
            decisions[lo:hi, prev, :] = np.argmax(
                block_best, axis=0
            ).reshape(nb, num_throughput)
    if tracing:
        tracer.emit(
            SolverCall(
                session_id="",
                t_mono=tracer.now(),
                op="table-build",
                instances=int(decisions.size),
                plans=m,
                wall_s=time.perf_counter() - _t0,
            )
        )
    return decisions

