"""The roll-out scratch belongs to the thread, not to a session.

Every solve on a thread runs on that thread's one ``_BatchEvaluator``,
which keeps a prefix tree per roll-out shape in a cache bounded by
``_TREE_CACHE_SHAPES`` shapes and ``_TREE_CACHE_BYTES`` bytes.  Reuse is
checked by the identity of the cached trees, not by timing or page
faults, so these tests are deterministic.
"""

from __future__ import annotations

import sys
import threading

from repro.core import kernel
from repro.core.horizon import HorizonProblem, solve_startup
from repro.core.kernel import (
    _TREE_CACHE_BYTES,
    _TREE_CACHE_SHAPES,
    _BatchEvaluator,
    _thread_evaluator,
)
from repro.core.robust import RobustMPCController
from repro.qoe import QoEWeights
from repro.service.backends import AlgorithmBackend
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import envivio

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)


def startup_problem(horizon: int = 5) -> HorizonProblem:
    return HorizonProblem(
        buffer_level_s=0.0,
        prev_quality=None,
        chunk_sizes_kilobits=tuple(tuple(4.0 * r for r in LADDER) for _ in range(horizon)),
        quality_values=LADDER,
        predicted_kbps=(900.0, 1200.0, 700.0, 1500.0, 1100.0)[:horizon],
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        weights=QoEWeights.balanced(),
    )


def assert_within_bounds(evaluator: _BatchEvaluator) -> None:
    assert len(evaluator._trees) <= _TREE_CACHE_SHAPES
    for key, (tree, nbytes) in evaluator._trees.items():
        # The recorded size is what the tree's arrays really hold.
        root_buf, dt, pen, first, steps, _ = tree
        arrays = [root_buf, dt, pen, first, steps[0][0][0].base]
        arrays += [a.base for _, qoe, buf, _ in steps for a in (qoe, buf) if a is not None]
        assert sum(a.nbytes for a in arrays) == nbytes, key
    assert sum(nbytes for _, nbytes in evaluator._trees.values()) <= _TREE_CACHE_BYTES


def test_replayed_robust_mpc_session_creates_no_new_tree():
    manifest = envivio().truncated(12)
    trace = Trace(
        tuple(2.0 * i for i in range(60)),
        tuple(500.0 + 400.0 * (i % 5) for i in range(60)),
    )
    controller = RobustMPCController()
    first = simulate_session(controller, trace, manifest)
    evaluator = _thread_evaluator()
    trees = {key: tree for key, (tree, _) in evaluator._trees.items()}
    # The startup grid and the steady horizons 5 down to 1.
    shapes = {(key[0], key[2]) for key in trees}
    assert (121, 5) in shapes
    assert {(1, h) for h in range(1, 6)} <= shapes

    again = simulate_session(controller, trace, manifest)

    assert again.level_indices == first.level_indices
    assert set(evaluator._trees) == set(trees)
    assert all(evaluator._trees[key][0] is tree for key, tree in trees.items())
    assert _thread_evaluator() is evaluator


def test_cache_stays_within_bounds_under_many_startup_grids():
    problem = startup_problem()
    evaluator = _thread_evaluator()
    for points in range(1, 41):
        solve_startup(problem, max_wait_s=0.25 * (points - 1))
        assert_within_bounds(evaluator)
    # A grid whose tree alone exceeds the byte bound is solved but not
    # kept: 601 points x (3,905 QoE + 780 buffer prefix rows) x 8 bytes
    # is 22.5 MB.
    solve_startup(problem, wait_step_s=0.05)
    assert all(key[0] != 601 for key in evaluator._trees)
    assert_within_bounds(evaluator)


def test_each_thread_has_its_own_evaluator():
    mine = _thread_evaluator()
    seen = []
    worker = threading.Thread(target=lambda: seen.append(_thread_evaluator()))
    worker.start()
    worker.join()
    assert seen and seen[0] is not mine
    assert _thread_evaluator() is mine


def test_threads_solving_at_once_get_their_own_answers():
    """More threads than cores, switching often, each solving shapes the
    others also use: a scratch array shared across threads would hand
    one thread another's floats."""
    problems = [startup_problem(h) for h in (1, 3, 5)]
    expected = [solve_startup(p) for p in problems]
    results = [[] for _ in range(4)]

    def work(out):
        for round_ in range(6):
            for problem in problems[round_ % 3 :] + problems[: round_ % 3]:
                out.append((problem.horizon, solve_startup(problem)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(out,)) for out in results]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    by_horizon = {p.horizon: want for p, want in zip(problems, expected)}
    for out in results:
        assert len(out) == 18
        assert all(got == by_horizon[horizon] for horizon, got in out)


def test_backend_session_holds_no_solver_scratch():
    backend = AlgorithmBackend("robust-mpc", LADDER)
    for chunk in range(3):
        backend.decide("s1", buffer_s=4.0 * chunk, prev_level=1, predicted_kbps=1500.0)
    (session,) = backend._sessions.values()
    assert not any(
        isinstance(value, _BatchEvaluator) for value in vars(session.algorithm).values()
    )
    assert isinstance(session.algorithm, RobustMPCController)


def test_startup_on_a_fresh_evaluator_matches_the_shared_one():
    problem = startup_problem()
    shared = solve_startup(problem)
    # Drop this thread's evaluator: the next solve builds every tree anew.
    saved = kernel._thread_local.evaluator
    del kernel._thread_local.evaluator
    try:
        assert solve_startup(problem) == shared
        assert _thread_evaluator() is not saved
    finally:
        kernel._thread_local.evaluator = saved
