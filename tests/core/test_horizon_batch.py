"""The horizon kernel: exact equivalence with the reference solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.horizon import (
    _ENUMERATION_LIMIT,
    _plan_matrix,
    HorizonProblem,
    solve_horizon,
    solve_horizon_dp,
    solve_horizon_reference,
    solve_startup,
)
from repro.core.kernel import _thread_evaluator
from repro.core.table import Binning
from repro.qoe import QoEWeights

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)


def random_problem(rng, vbr=False, allow_no_prev=True):
    """A randomized valid instance: random ladder subset, sizes, state."""
    num_levels = int(rng.integers(1, 6))
    horizon = int(rng.integers(1, 5))
    ladder = tuple(sorted(rng.uniform(100.0, 4000.0, size=num_levels)))
    chunk_s = float(rng.uniform(1.0, 6.0))
    if vbr:
        # Per-chunk sizes deviate from CBR but stay ascending per row.
        sizes = tuple(
            tuple(
                float(chunk_s * r * rng.uniform(0.5, 1.5) + i)
                for i, r in enumerate(ladder)
            )
            for _ in range(horizon)
        )
        sizes = tuple(tuple(sorted(row)) for row in sizes)
    else:
        sizes = tuple(tuple(chunk_s * r for r in ladder) for _ in range(horizon))
    prev = None
    if not allow_no_prev or rng.uniform() > 0.3:
        prev = float(ladder[int(rng.integers(0, num_levels))])
    return HorizonProblem(
        buffer_level_s=float(rng.uniform(0.0, 25.0)),
        prev_quality=prev,
        chunk_sizes_kilobits=sizes,
        quality_values=ladder,
        predicted_kbps=tuple(rng.uniform(200.0, 5000.0, size=horizon)),
        chunk_duration_s=chunk_s,
        buffer_capacity_s=float(rng.uniform(15.0, 60.0)),
        weights=QoEWeights(
            switching=float(rng.uniform(0.0, 2.0)),
            rebuffering=float(rng.uniform(0.0, 5000.0)),
            startup=float(rng.uniform(0.0, 5000.0)),
        ),
    )


def scalar_strict_argmax(problem):
    """The documented tie-break, in plain Python: evaluate every plan with
    the reference recurrence and keep the first *exact* maximum — i.e. the
    lexicographically smallest optimal plan.

    (``solve_horizon_reference`` itself breaks ties with a ``1e-12``
    epsilon, which on sub-ULP ties between distinct plans may keep an
    earlier, infinitesimally worse plan; the enumeration solvers have
    always used the strict argmax.)
    """
    import itertools

    lam, mu = problem.weights.switching, problem.weights.rebuffering
    best = None
    for plan in itertools.product(
        range(problem.num_levels), repeat=problem.horizon
    ):
        buffer_s = problem.buffer_level_s
        qoe = 0.0
        rebuf_total = 0.0
        prev_q = problem.prev_quality
        for i, level in enumerate(plan):
            dt = problem.chunk_sizes_kilobits[i][level] / problem.predicted_kbps[i]
            rebuffer = max(dt - buffer_s, 0.0)
            buffer_s = min(
                max(buffer_s - dt, 0.0) + problem.chunk_duration_s,
                problem.buffer_capacity_s,
            )
            q_now = problem.quality_values[level]
            qoe += q_now - mu * rebuffer
            rebuf_total += rebuffer
            if prev_q is not None:
                qoe -= lam * abs(q_now - prev_q)
            prev_q = q_now
        if best is None or qoe > best[0]:
            best = (qoe, plan, rebuf_total, buffer_s)
    return best


def assert_same_solution(solution, problem):
    # Bitwise equality on purpose: the kernel's element-wise arithmetic
    # associates identically to the scalar recurrence, so even the floats
    # must match bit for bit (and with them, every argmax tie-break).
    qoe, plan, rebuf, final_buf = scalar_strict_argmax(problem)
    assert solution.plan == plan
    assert solution.qoe == qoe
    assert solution.rebuffer_s == rebuf
    assert solution.final_buffer_s == final_buf
    # Against the epsilon-tie-break reference: the same optimum up to the
    # solver's own tie tolerance, and the same first decision unless two
    # optimal plans are exactly tied within it.
    reference = solve_horizon_reference(problem)
    assert solution.qoe == pytest.approx(reference.qoe, rel=1e-12, abs=1e-9)
    if abs(solution.qoe - reference.qoe) == 0.0:
        assert solution.plan == reference.plan


class TestBatchVsReference:
    """``solve_horizon`` on the kernel, one problem at a time, against the
    scalar strict argmax."""

    def test_randomized_cbr_and_vbr(self):
        rng = np.random.default_rng(7)
        problems = [
            random_problem(rng, vbr=bool(i % 2)) for i in range(120)
        ]
        for problem in problems:
            assert_same_solution(solve_horizon(problem), problem)

    def test_no_previous_chunk(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = random_problem(rng, allow_no_prev=False)
            problem = HorizonProblem(
                buffer_level_s=p.buffer_level_s,
                prev_quality=None,
                chunk_sizes_kilobits=p.chunk_sizes_kilobits,
                quality_values=p.quality_values,
                predicted_kbps=p.predicted_kbps,
                chunk_duration_s=p.chunk_duration_s,
                buffer_capacity_s=p.buffer_capacity_s,
                weights=p.weights,
            )
            assert_same_solution(solve_horizon(problem), problem)

    def test_dp_crossover_falls_back_consistently(self):
        """Above the enumeration limit solve_horizon is the exact DP."""
        horizon = 8
        assert len(LADDER) ** horizon > _ENUMERATION_LIMIT
        problem = HorizonProblem(
            buffer_level_s=8.0,
            prev_quality=1000.0,
            chunk_sizes_kilobits=tuple(
                tuple(4.0 * r for r in LADDER) for _ in range(horizon)
            ),
            quality_values=LADDER,
            predicted_kbps=(1500.0,) * horizon,
            chunk_duration_s=4.0,
            buffer_capacity_s=30.0,
            weights=QoEWeights.balanced(),
        )
        assert solve_horizon(problem) == solve_horizon_dp(problem)

    def test_evaluator_reuse_across_shapes(self):
        """The thread's one evaluator serves problems of different shapes
        back to back, and a repeated problem reuses its cached tree."""
        rng = np.random.default_rng(17)
        evaluator = _thread_evaluator()
        for _ in range(5):
            problems = [random_problem(rng) for _ in range(int(rng.integers(1, 9)))]
            solutions = [solve_horizon(problem) for problem in problems]
            for problem, solution in zip(problems, solutions):
                assert_same_solution(solution, problem)
        trees = {key: tree for key, (tree, _) in evaluator._trees.items()}
        assert [solve_horizon(problem) for problem in problems] == solutions
        assert _thread_evaluator() is evaluator
        assert all(evaluator._trees[key][0] is tree for key, tree in trees.items())


class TestStartupBatched:
    def make(self, rng):
        p = random_problem(rng, allow_no_prev=False)
        return HorizonProblem(
            buffer_level_s=float(rng.uniform(0.0, 10.0)),
            prev_quality=None,
            chunk_sizes_kilobits=p.chunk_sizes_kilobits,
            quality_values=p.quality_values,
            predicted_kbps=p.predicted_kbps,
            chunk_duration_s=p.chunk_duration_s,
            buffer_capacity_s=p.buffer_capacity_s,
            weights=p.weights,
        )

    def manual_grid(self, problem, max_wait_s, wait_step_s):
        """The old per-grid-point formulation, reproduced literally."""
        mu_s = problem.weights.startup
        steps = int(round(max_wait_s / wait_step_s))
        best = None
        for j in range(steps + 1):
            wait = min(j * wait_step_s, max_wait_s)
            shifted = HorizonProblem(
                buffer_level_s=problem.buffer_level_s + wait,
                prev_quality=problem.prev_quality,
                chunk_sizes_kilobits=problem.chunk_sizes_kilobits,
                quality_values=problem.quality_values,
                predicted_kbps=problem.predicted_kbps,
                chunk_duration_s=problem.chunk_duration_s,
                buffer_capacity_s=problem.buffer_capacity_s,
                weights=problem.weights,
            )
            solution = solve_horizon_reference(shifted)
            adjusted = solution.qoe - mu_s * wait
            if best is None or adjusted > best[0] + 1e-12:
                best = (adjusted, solution.plan, wait)
        return best

    def test_matches_per_point_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            problem = self.make(rng)
            solution = solve_startup(problem)
            max_wait = max(
                problem.buffer_capacity_s - problem.buffer_level_s, 0.0
            )
            qoe, plan, wait = self.manual_grid(problem, max_wait, 0.25)
            assert solution.plan == plan
            assert solution.qoe == qoe
            assert solution.startup_wait_s == wait

    def test_explicit_grid_arguments(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            problem = self.make(rng)
            solution = solve_startup(problem, max_wait_s=3.3, wait_step_s=0.5)
            qoe, plan, wait = self.manual_grid(problem, 3.3, 0.5)
            assert solution.plan == plan
            assert solution.qoe == qoe
            assert solution.startup_wait_s == wait


class TestSharedArraysReadOnly:
    def test_plan_matrix_is_read_only(self):
        plans = _plan_matrix(3, 4)
        assert not plans.flags.writeable
        with pytest.raises(ValueError):
            plans[0, 0] = 99
        # The cached instance is shared — a second call returns it intact.
        assert _plan_matrix(3, 4) is plans

    def test_binning_views_read_only_and_shared(self):
        binning = Binning(0.0, 30.0, 10)
        edges = binning.edges
        centers = binning.centers
        assert not edges.flags.writeable
        assert not centers.flags.writeable
        with pytest.raises(ValueError):
            edges[0] = -1.0
        with pytest.raises(ValueError):
            centers[0] = -1.0
        # Views, not copies: repeated access does not allocate.
        assert binning.edges is edges
        assert binning.centers is centers
