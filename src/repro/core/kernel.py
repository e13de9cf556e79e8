"""Horizon-solver kernel — one plan roll-out for every consumer.

Every hot path of the reproduction ultimately evaluates the same
recurrence: roll the buffer dynamics of Eqs. (1)-(4) forward over all
``|R|^N`` candidate plans and take the QoE argmax.  Historically each
consumer re-implemented that roll-out — :func:`~repro.core.horizon.
solve_horizon` per chunk, :func:`~repro.core.horizon.solve_startup` once
per wait-grid point, and the FastMPC table builder in a hand-rolled
double loop over ``(buffer_bin, prev_level)`` states.  This module holds
the two roll-outs they delegate to:

* :class:`_BatchEvaluator` — the vectorised roll-out of one problem's
  plans over the plan prefix tree, from ``n`` starting buffers at once:
  plans sharing a prefix share every float up to its end, so step ``i``
  evaluates the ``|R|^(i+1)`` distinct prefixes for every start buffer,
  and the last step yields the ``(n, n_plans)`` QoE in the plan
  matrix's lexicographic order.  It computes only what the argmax
  reads: the QoE of every prefix and the buffer of every prefix that
  has children.  The arithmetic is element-wise and associates
  *exactly* like the scalar reference solver, so each QoE is
  bit-identical to :func:`~repro.core.horizon.solve_horizon_reference`'s
  recurrence (same optimal QoE, same lexicographic tie-break).  Its
  per-shape tree arrays are the roll-out scratch; each thread owns one
  evaluator (:func:`_thread_evaluator`) that every solve on that thread
  reuses, so no session or controller carries solver scratch of its own.

* :func:`_solve_rows` — the one entry to that roll-out: the first
  maximum of the QoE from each start buffer.  Its callers replay each
  winning plan alone in plain Python (:func:`_replay_plan`, in the
  roll-out's operation order) for the solution's rebuffer and final
  buffer, so those floats are the ones a roll-out of every plan would
  have held.  :func:`~repro.core.horizon.solve_horizon` solves its one
  problem through :func:`_solve_one` (one start buffer), and
  :func:`~repro.core.horizon.solve_startup` passes its wait grid as the
  start buffers of one roll-out and replays only the grid point it
  picks.

* :func:`build_table_decisions` — the FastMPC offline enumeration.  It
  exploits the table's extra structure (CBR sizes, flat predictions): the
  quality/switching part of a plan's QoE is independent of the buffer and
  throughput state, so it is computed once per plan and only the
  rebuffering dynamics are rolled out per state — over the same plan
  prefix tree, in cache-sized blocks of buffer bins.  Each block of
  plans sharing a first level is scored once for every previous level,
  and the near-ties that rounding could order differently are rescored
  exactly, so the decisions stay the scalar reference's.

Long lists of start buffers are rolled out in chunks that keep each
roll-out within :data:`MAX_BATCH_ELEMENTS` leaf elements.

The scalar references the kernel is tested against, cell for cell and
decision for decision, live in ``tests/core/kernel_reference.py``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.events import SolverCall

from .horizon import _plan_matrix, HorizonProblem, HorizonSolution

__all__ = ["build_table_decisions", "MAX_BATCH_ELEMENTS"]

# Upper bound on the (start buffers x plans) element count of one
# roll-out's last step (~16 MB of float64 per leaf array).  Longer lists
# of start buffers are rolled out in chunks.
MAX_BATCH_ELEMENTS = 2_000_000

# Leaf states per block of the table build: as many buffer bins as fit
# (plans x throughput bins each), and at least one.  One bin of a
# 5-level, horizon-5, 100-bin table is 312,500 states, 2.5 MB per leaf
# array; blocks of four or more such bins built that table more slowly.
_TABLE_BLOCK_ELEMENTS = 1 << 19

# The table build rescores a (state, previous level) pair exactly when its
# two best approximate block maxima lie within twice this many error
# bounds of each other (see ``build_table_decisions``).
_TIE_BOUND_SAFETY = 2.0
_EPS = float(np.finfo(np.float64).eps)

# Bounds of an evaluator's prefix-tree cache: at most this many shapes,
# whose arrays total at most this many bytes.  A tree larger than the
# byte bound is built for its call and not kept.  A RobustMPC session
# uses six shapes (the 121-point startup grid, 4.5 MB at 5 levels x
# horizon 5: the QoE of 3,905 prefixes and the buffer of 780 per grid
# point; and steady horizons 5 to 1), so replayed sessions allocate no
# roll-out arrays at all.
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

    def _prefix_tree(self, n: int, num_levels: int, horizon: int):
        """Scratch for one roll-out shape: a root and one entry per step.

        Step ``i`` holds the QoE of the ``num_levels**(i+1)`` plan
        prefixes of length ``i + 1`` and, below the last step, their
        buffer, as ``(prefixes, n)`` arrays: the leaves' buffers are never
        read, and no step keeps a rebuffer total.  Prefix ``p`` extended
        by level ``l`` is row ``p * num_levels + l``, so the rows of the
        last step are :func:`~repro.core.horizon._plan_matrix`'s rows in
        order.  The start-buffer axis is innermost, so every element-wise
        op over a whole startup wait grid runs along contiguous memory.
        Each entry carries ready-made ``(parents, 1, n)`` views of its
        parent step and ``(parents, num_levels, n)`` views of its own
        arrays, so a roll-out of a cached shape creates no arrays at all.
        """
        key = (n, num_levels, horizon)
        cached = self._trees.get(key)
        if cached is not None:
            self._trees.move_to_end(key)
            return cached[0]
        zeros = np.zeros((1, n))  # the root's QoE, read only
        root_buf = np.empty((1, n))
        dt = np.empty((1, num_levels, 1))  # download time per level
        pen = np.empty((num_levels, num_levels, 1))  # switching penalty matrix
        first = np.empty((1, num_levels, 1))  # first-step switching penalty
        arrays = [zeros, root_buf, dt, pen, first]
        parent = (zeros, root_buf)
        steps = []
        for i in range(horizon):
            parents = num_levels**i
            qoe = np.empty((parents * num_levels, n))
            buf = np.empty((parents * num_levels, n)) if i + 1 < horizon else None
            arrays.append(qoe)
            if buf is not None:
                arrays.append(buf)
            steps.append(
                (
                    tuple(a.reshape(parents, 1, n) for a in parent),
                    qoe.reshape(parents, num_levels, n),
                    None if buf is None else buf.reshape(parents, num_levels, n),
                    # (grandparents, previous level, level, n) for the
                    # switching penalty between consecutive steps.
                    qoe.reshape(-1, num_levels, num_levels, n) if i else None,
                )
            )
            parent = (qoe, buf)
        tree = (root_buf, dt, pen, first, steps, parent[0].T)
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
        prev_quality: Optional[float],
        quality: np.ndarray,
        switching: float,
        rebuffering: float,
        chunk_duration_s: float,
        buffer_capacity_s: float,
    ) -> np.ndarray:
        """QoE of every (start buffer, plan): all an argmax over plans reads.

        The plans are the full lexicographic product
        ``_plan_matrix(num_levels, horizon)``, rolled out over their
        prefix tree: step ``i`` evaluates each of the ``num_levels**(i+1)``
        distinct prefixes once, from its parent prefix, instead of once
        per plan sharing it (3,905 prefix-steps for 5 levels x horizon 5
        against 15,625 plan-steps).  A step computes each prefix's QoE
        and, except at the last step, the buffer its children start from;
        it keeps no rebuffer total, and the leaves' buffers are not
        computed.  A caller wanting a plan's rebuffer and final buffer
        replays that one plan with :func:`_replay_plan`.  Every element
        goes through the same operations in the same order as in the
        scalar recurrence (``_evaluate_one_py`` in
        ``tests/core/kernel_reference.py``), so each QoE cell is
        bit-identical to it.

        Parameters
        ----------
        sizes:
            ``(N, levels)`` chunk sizes of the problem's horizon chunks.
        preds:
            ``(N,)`` predicted throughput per horizon chunk.
        buffer0:
            ``(n,)`` starting buffer levels, one roll-out each.
        prev_quality:
            The previous chunk's quality, or None at the session's first
            chunk (no first-step switching penalty).
        quality:
            ``(levels,)`` the ladder's quality values.

        Returns the ``(n, M)`` QoE, column ``j`` the plan in row ``j`` of
        the plan matrix — a view into this evaluator's scratch, consume
        it before the next call.
        """
        root_buf, dt, pen, first, steps, leaves = self._prefix_tree(
            buffer0.shape[0], num_levels, horizon
        )
        root_buf[0] = buffer0
        q = quality[None, :, None]
        if prev_quality is not None:
            # first[0, b]: the switching penalty from the previous chunk.
            np.subtract(q, prev_quality, out=first)
            np.abs(first, out=first)
            np.multiply(first, switching, out=first)
        if horizon > 1:
            # pen[a, b]: the switching penalty from level a to level b.
            pairs = pen[:, :, 0]
            np.subtract(quality[None, :], quality[:, None], out=pairs)
            np.abs(pairs, out=pairs)
            np.multiply(pairs, switching, out=pairs)

        for i, ((qoe_p, buf_p), qoe, buf, qoe_pairs) in enumerate(steps):
            # Download time of each level at this step.
            np.divide(sizes[i], preds[i], out=dt[0, :, 0])
            # stall = max(dt - buffer, 0), held in ``qoe``;
            # qoe += q_now - mu * stall (exact reference association).
            np.subtract(dt, buf_p, out=qoe)
            np.maximum(qoe, 0.0, out=qoe)
            np.multiply(qoe, rebuffering, out=qoe)
            np.subtract(q, qoe, out=qoe)
            np.add(qoe_p, qoe, out=qoe)
            if buf is not None:
                # buffer = min(max(buffer - dt, 0) + L, Bmax)  (Eqs. 1-4).
                np.subtract(buf_p, dt, out=buf)
                np.maximum(buf, 0.0, out=buf)
                np.add(buf, chunk_duration_s, out=buf)
                np.minimum(buf, buffer_capacity_s, out=buf)
            # Switching penalty: from the previous chunk at the first
            # step, between steps after it (the prefix fixes both).
            if i:
                np.subtract(qoe_pairs, pen, out=qoe_pairs)
            elif prev_quality is not None:
                np.subtract(qoe, first, out=qoe)
        return leaves


_thread_local = threading.local()


def _thread_evaluator() -> _BatchEvaluator:
    """The calling thread's evaluator, created on its first solve."""
    try:
        return _thread_local.evaluator
    except AttributeError:
        evaluator = _thread_local.evaluator = _BatchEvaluator()
        return evaluator


def _replay_plan(
    plan: Sequence[int],
    sizes_rows,
    preds_row,
    buffer0: float,
    chunk_duration_s: float,
    buffer_capacity_s: float,
) -> Tuple[float, float]:
    """Total rebuffer and final buffer of one plan, step by step.

    Plain Python floats through the roll-out's operations in its order
    (``_evaluate_one_py``'s), each operand converted to a float as
    ``np.asarray(..., dtype=np.float64)`` converts it, so both values
    are the floats a roll-out computing them for every plan would hold
    in this plan's cell.  ``sizes_rows[i][level]`` and ``preds_row[i]``
    are the instance's chunk sizes and predictions.
    """
    duration = float(chunk_duration_s)
    capacity = float(buffer_capacity_s)
    buf = float(buffer0)
    rebuf = 0.0
    for i, level in enumerate(plan):
        dt = float(sizes_rows[i][level]) / float(preds_row[i])
        stall = dt - buf
        if stall < 0.0:
            stall = 0.0
        rebuf += stall
        buf -= dt
        if buf < 0.0:
            buf = 0.0
        buf += duration
        if buf > capacity:
            buf = capacity
    return rebuf, buf


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
    """The one entry to the roll-out: the best plan from each start buffer.

    ``sizes``, ``preds``, ``prev_quality`` and ``quality`` are one
    problem's, as :meth:`_BatchEvaluator.evaluate` takes them, and
    ``buffer0`` its ``(n,)`` start buffers.  Returns per-start-buffer
    arrays ``(best_plan_index, qoe)``; the argmax takes the first
    maximum, i.e. the lexicographically smallest optimal plan.  Nothing
    else is rolled out: a caller replays the plans it keeps with
    :func:`_replay_plan` for their rebuffer and final buffer.  The
    roll-out runs on the thread's shared evaluator, in chunks of start
    buffers that keep each one within :data:`MAX_BATCH_ELEMENTS` leaf
    cells, and each chunk's view of the scratch is consumed here, before
    the next ``evaluate`` call.  One start buffer (every steady MPC
    solve) takes the argmax of its one contiguous row.
    """
    evaluator = _thread_evaluator()
    n = buffer0.shape[0]
    m, horizon = plans.shape
    num_levels = quality.shape[0]
    if m != num_levels**horizon:
        raise ValueError("the plans must be the full product of the ladder levels")
    best = np.empty(n, dtype=np.int64)
    best_qoe = np.empty(n)
    if n == 1:
        (qoe,) = evaluator.evaluate(
            num_levels, horizon, sizes, preds, buffer0, prev_quality, quality,
            switching, rebuffering, chunk_duration_s, buffer_capacity_s,
        )
        j = qoe.argmax()
        best[0] = j
        best_qoe[0] = qoe[j]
        return best, best_qoe
    step = max(1, MAX_BATCH_ELEMENTS // m)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        qoe = evaluator.evaluate(
            num_levels, horizon, sizes, preds, buffer0[lo:hi], prev_quality,
            quality, switching, rebuffering, chunk_duration_s, buffer_capacity_s,
        )
        idx = np.argmax(qoe, axis=1)
        best[lo:hi] = idx
        best_qoe[lo:hi] = qoe[np.arange(hi - lo), idx]
    return best, best_qoe


def _solve_one(problem: HorizonProblem) -> HorizonSolution:
    """One enumerable ``QOE_MAX_STEADY`` instance: one start buffer.

    The winning plan is replayed for its rebuffer and final buffer.
    """
    plans = _plan_matrix(problem.num_levels, problem.horizon)
    sizes = problem.chunk_sizes_kilobits
    preds = problem.predicted_kbps
    buffer0 = problem.buffer_level_s
    weights = problem.weights
    duration = problem.chunk_duration_s
    capacity = problem.buffer_capacity_s
    best, qoe = _solve_rows(
        plans,
        np.asarray(sizes, dtype=np.float64),
        np.asarray(preds, dtype=np.float64),
        np.array([buffer0], dtype=np.float64),
        problem.prev_quality,
        np.asarray(problem.quality_values, dtype=np.float64),
        weights.switching,
        weights.rebuffering,
        duration,
        capacity,
    )
    plan = tuple(plans[best[0]].tolist())
    rebuffer, final_buffer = _replay_plan(
        plan, sizes, preds, buffer0, duration, capacity
    )
    return HorizonSolution(plan, float(qoe[0]), rebuffer, final_buffer)


def _block_max_error_bound(block_max_abs, static_abs: float, switch_max: float):
    """Bound on how far ``fl(M - c)`` can be from a block's exact maximum.

    ``block_max_abs`` bounds ``|M|`` for the block maxima ``M`` of
    :func:`build_table_decisions`, ``static_abs`` bounds every ``|static|``
    and ``switch_max`` every first-switch penalty ``c``; the derivation
    is in that function's docstring.
    """
    return 2.0 * _EPS * (block_max_abs + static_abs + switch_max)


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
    (``static``) plus a first-switch penalty ``c(prev, first) =
    lambda * |q_first - q_prev|``; only the rebuffering dynamics are
    rolled out per state.  The decisions are those of
    ``_build_table_decisions_py`` (``tests/core/kernel_reference.py``),
    which scores plan ``j`` under ``prev`` as ``x_j + (s_j - c)`` (``x_j``
    its leaf ``-mu * rebuffer``, ``s_j`` its static part, every operation
    rounded) and keeps the first maximum over all plans.  Plans are in
    lexicographic order, so that is the first level of the first block of
    ``L**(N-1)`` plans sharing a first level to reach the overall maximum.

    The roll-out runs over the plan prefix tree, in blocks of
    :data:`_TABLE_BLOCK_ELEMENTS` leaf states with the state axis
    innermost: step ``i`` computes the stall, rebuffer and buffer of each
    of the ``L**(i+1)`` prefixes once, from its parent (3,905
    prefix-steps per state at 5 levels x horizon 5, against 15,625
    plan-steps), and the last step computes only the rebuffer.

    Within a block of plans sharing a first level, ``c`` is one constant,
    so each block is scored once, ``M = max_j fl(x_j + s_j)``, and read
    under every ``prev`` as ``A = fl(M - c)``: ``L`` passes over the
    leaves instead of ``L**2``.  ``A`` is not always the exact block
    maximum ``E = max_j fl(x_j + fl(s_j - c))``, but it is close.  With
    ``u = eps / 2`` the unit roundoff, ``S >= |s_j|`` and ``C >= c``:
    rounding is monotone, so a maximum of rounded values is the rounding
    of the real maximum, ``M = fl(W)`` with ``W = max_j (x_j + s_j)`` and
    ``E = fl(V)`` with ``V = max_j (x_j + fl(s_j - c))``.  Each
    ``fl(s_j - c)`` is within ``u (S + C)`` of ``s_j - c``, so
    ``|V - (W - c)| <= u (S + C)``, and::

        |E - A| <= |fl(V) - V| + |V - (W - c)| + |W - M| + |M - c - fl(M - c)|
                <= u |V| + u (S + C) + u |W| + u |M - c|
                <= u (3 |M| + S + 3 C) + 4 u**2 (|M| + S + C)
                <= 2 eps (|M| + S + C)

    using ``|W| <= |M| (1 + 2u)`` and ``|V| <= |W| + C + u (S + C)``.
    That is :func:`_block_max_error_bound`, ``B``, taken per block of
    buffer bins with the largest ``|M|`` of the block.  (Finite values
    are assumed; an infinite ``M`` makes ``B`` infinite and sends every
    pair to the exact path below.)

    The approximations decide a ``(state, prev)`` pair only when a single
    block's ``A`` lies within ``2 B'`` of the best, ``B' =
    _TIE_BOUND_SAFETY * B``: any other block then has ``E < A_best - B'
    <= E_best``, strictly, so the first maximum of the exact scores is in
    the best block.  The factor covers the rounding of ``B`` and of the
    cut-off ``A_best - 2 B'`` itself (a factor of ``9/8`` would do).
    Every other pair is rescored exactly by
    :func:`_rescore_near_ties`, with the reference's
    ``x_j + (s_j - c)`` and first-maximum rule over its candidate blocks
    (those within ``2 B'`` of the best; the rest are strictly worse), so
    the decision array is the reference's by construction, not by
    matching operation order.  Integer QoE totals, where no plan
    rebuffers, make exact ties common: about 5% of the pairs of the
    benchmark's balanced tables take that path.
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
    # (first_level, prev_level): the first-switch penalty c, one constant
    # per block of plans sharing a first level.
    switch_cost = switching * np.abs(quality[:, None] - quality[None, :])
    # (prev_level, plan): what each plan adds to -mu * rebuffer.
    columns = np.ascontiguousarray((static[:, None] - switch_cost[plans[:, 0]]).T)
    static_abs = float(np.abs(static).max())
    switch_max = float(switch_cost.max())

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
    # Block scores, and the near-tie rescoring's two halves: at least one
    # (plans-per-block) row each.
    score = np.empty(share * max(states, 2))
    maxima = np.empty(num_levels * states)
    # (first, prev * state): fl(M - c), then the rescored maxima.
    approx_scratch = np.empty(num_levels * num_levels * states)
    near_scratch = np.empty(num_levels * num_levels * states, dtype=bool)
    # (prev * state): the best and second-best approximation, a spare row,
    # two masks, and four index rows (all pairs; the rescored pairs, then
    # the choice; their previous levels; their states).  The decision
    # step makes no arrays per block: per-block temporaries (transposed
    # copies, index arrays) raised a cold build's peak resident size by
    # 0.2-0.3 MB.
    top_scratch = np.empty((3, num_levels * states))
    mask_scratch = np.empty((2, num_levels * states), dtype=bool)
    index_scratch = np.empty((4, num_levels * states), dtype=np.intp)
    index_scratch[0] = np.arange(num_levels * states)
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
        block_max = maxima[: num_levels * n_states].reshape(num_levels, n_states)
        for first in range(num_levels):
            rows = slice(first * share, (first + 1) * share)
            np.add(leaves[rows], static[rows, None], out=block_score)
            np.max(block_score, axis=0, out=block_max[first])
        pairs = num_levels * n_states
        approx = approx_scratch[: num_levels * pairs].reshape(num_levels, pairs)
        for first, penalties in enumerate(switch_cost):
            np.subtract(
                block_max[first],
                penalties[:, None],
                out=approx[first].reshape(num_levels, n_states),
            )
        # The best and second-best approximation of every pair.
        top, second, spare = top_scratch[:, :pairs]
        top[...] = approx[0]
        second.fill(-np.inf)
        for row in approx[1:]:
            np.minimum(top, row, out=spare)
            np.maximum(second, spare, out=second)
            np.maximum(top, row, out=top)
        bound = _TIE_BOUND_SAFETY * _block_max_error_bound(
            max(float(block_max.max()), -float(block_max.min())),
            static_abs,
            switch_max,
        )
        cut = np.subtract(top, 2.0 * bound, out=top)
        tied, better = mask_scratch[:, :pairs]
        np.greater_equal(second, cut, out=tied)
        if np.count_nonzero(tied):
            near = near_scratch[: num_levels * pairs].reshape(num_levels, pairs)
            for row, candidate in zip(approx, near):
                np.greater_equal(row, cut, out=candidate)
                np.logical_and(candidate, tied, out=candidate)
                np.copyto(row, -np.inf, where=tied)
            _rescore_near_ties(
                leaves, columns, near, approx, score, index_scratch[:, :pairs], spare
            )
        # The first maximum decides: of a pair's approximations, or of its
        # exact block maxima once rescored.  (``np.argmax`` over axis 0
        # would copy ``approx`` transposed.)
        choice = index_scratch[1, :pairs]
        choice.fill(0)
        top[...] = approx[0]
        for level, row in enumerate(approx[1:], 1):
            np.greater(row, top, out=better)
            np.copyto(choice, level, where=better)
            np.maximum(top, row, out=top)
        decisions[lo:hi] = choice.reshape(num_levels, nb, num_throughput).transpose(
            1, 0, 2
        )
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


def _rescore_near_ties(leaves, columns, near, exact, score, index, values) -> None:
    """Rescore the candidate blocks of near-tied pairs as the reference does.

    ``near[first, prev * states + state]`` marks the blocks to rescore;
    ``leaves`` is the ``(plans, states)`` array of ``-mu * rebuffer`` and
    ``columns`` the ``(prev, plan)`` array of ``static - c``.  Each marked
    block's exact maximum, ``max_j fl(x_j + (s_j - c))``, goes to the
    same place in ``exact``.  ``index`` is ``(4, pairs)`` scratch whose
    first row holds ``0 .. pairs - 1``, ``values`` a float row.

    A block's leaves at one state are a strided column.  For each first
    level, the marked states' columns are gathered side by side into
    ``score``, copied transposed into its other half so that each is a
    contiguous row, and scored there against the matching ``columns``
    rows.  ``np.take`` runs with ``mode="clip"``, which writes straight
    into ``out``: under the default ``"raise"`` it gathers into a
    temporary first.
    """
    num_levels, pairs = near.shape
    n_states = pairs // num_levels
    share = columns.shape[1] // num_levels
    block_columns = columns.reshape(num_levels * num_levels, share)
    step = score.shape[0] // (2 * share)
    every, _, prevs, states = index
    for first, marks in enumerate(near):
        count = int(np.count_nonzero(marks))
        marked = np.compress(marks, every, out=index[1, :count])
        block = leaves[first * share : (first + 1) * share]
        for lo in range(0, count, step):
            pair = marked[lo : lo + step]
            k = pair.shape[0]
            prev, state = np.divmod(pair, n_states, out=(prevs[:k], states[:k]))
            wide = score[: k * share].reshape(share, k)
            np.take(block, state, axis=1, out=wide, mode="clip")
            rows = score[k * share : 2 * k * share].reshape(k, share)
            np.copyto(rows, wide.T)
            addend = score[: k * share].reshape(k, share)  # the gather is spent
            np.multiply(prev, num_levels, out=prev)
            np.add(prev, first, out=prev)
            np.take(block_columns, prev, axis=0, out=addend, mode="clip")
            np.add(rows, addend, out=rows)
            np.put(exact[first], pair, np.max(rows, axis=1, out=values[:k]))
