"""``solve_startup``'s process-wide memo.

Every MPC and RobustMPC session on one video and configuration poses the
same startup problem: buffer 0, no previous level and the predictor's
cold-start estimate.  The memo keeps each answer, keyed on the whole
problem plus the wait grid, so only the first such session rolls its
wait grid out.  These tests pin what it must keep: the answers of the
uncached solver, one answer per distinct key, the inputs the solver
accepted before it (list rows included) and its bound.  Each test starts
with the memo empty (``tests/conftest.py``).  The last two tests repeat
``tests/core/test_roll_out_scratch.py``'s fresh-evaluator and concurrent
121-point cases past the memo, which would otherwise answer their
repeated solves without a roll-out.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import sys
import threading

import pytest

from repro.core import horizon, kernel, mpc
from repro.core.horizon import (
    HorizonProblem,
    solve_horizon,
    solve_horizon_reference,
    solve_startup,
)
from repro.core.mpc import make_mpc_opt
from repro.core.robust import RobustMPCController
from repro.qoe import QoEWeights
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import envivio

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)

_spec = importlib.util.spec_from_file_location(
    "regen_golden",
    os.path.join(os.path.dirname(__file__), "..", "..", "scripts", "regen_golden.py"),
)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)


def startup_problem(**overrides) -> HorizonProblem:
    fields = dict(
        buffer_level_s=0.0,
        prev_quality=None,
        chunk_sizes_kilobits=tuple(tuple(4.0 * r for r in LADDER) for _ in range(3)),
        quality_values=LADDER,
        predicted_kbps=(900.0, 1200.0, 700.0),
        chunk_duration_s=4.0,
        buffer_capacity_s=12.0,
        weights=QoEWeights(1.0, 3000.0, 500.0),
    )
    fields.update(overrides)
    return HorizonProblem(**fields)


def full_grid_problem(chunks: int) -> HorizonProblem:
    """A startup problem whose wait grid has 121 points (Bmax 30 s in the
    default 0.25 s steps)."""
    rows = tuple(tuple(4.0 * r for r in LADDER) for _ in range(chunks))
    return startup_problem(
        chunk_sizes_kilobits=rows,
        predicted_kbps=(900.0, 1200.0, 700.0, 1500.0, 1100.0)[:chunks],
        buffer_capacity_s=30.0,
        weights=QoEWeights.balanced(),
    )


def uncached(problem, max_wait_s=None, wait_step_s=0.25):
    """``solve_startup`` without the memo (its defaults resolved alike)."""
    if max_wait_s is None:
        max_wait_s = max(problem.buffer_capacity_s - problem.buffer_level_s, 0.0)
    return horizon._solve_startup.__wrapped__(problem, max_wait_s, wait_step_s)


def count_roll_outs(monkeypatch) -> list:
    """Record the instance count of every ``_solve_rows`` roll-out."""
    calls = []
    original = kernel._solve_rows

    def counting(plans, sizes, preds, buffer0, *rest):
        calls.append(buffer0.shape[0])
        return original(plans, sizes, preds, buffer0, *rest)

    monkeypatch.setattr(kernel, "_solve_rows", counting)
    return calls


def staircase(offset: float) -> Trace:
    return Trace(
        tuple(2.0 * i for i in range(60)),
        tuple(offset + 400.0 * (i % 5) for i in range(60)),
    )


def test_second_robust_mpc_session_rolls_out_no_startup_grid(monkeypatch):
    manifest = envivio().truncated(12)
    calls = count_roll_outs(monkeypatch)
    first = simulate_session(RobustMPCController(), staircase(500.0), manifest)
    first_calls, calls[:] = list(calls), []
    second = simulate_session(RobustMPCController(), staircase(800.0), manifest)

    steady = [1] * (manifest.num_chunks - 1)
    # The 121-point wait grid (Bmax 30 s in 0.25 s steps), then one
    # single-instance roll-out per steady chunk.
    assert first_calls == [121] + steady
    assert calls == steady
    assert first.records[0].level_index == second.records[0].level_index
    info = horizon._solve_startup.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize(
    "make_controller",
    [mpc.MPCController, RobustMPCController, make_mpc_opt],
    ids=["mpc", "robust-mpc", "mpc-opt"],
)
def test_memoised_answer_equals_the_uncached_one_on_golden_traces(
    make_controller, monkeypatch
):
    posed = []
    original = mpc.solve_startup

    def capture(problem, *args, **kwargs):
        posed.append(problem)
        return original(problem, *args, **kwargs)

    monkeypatch.setattr(mpc, "solve_startup", capture)
    manifest = regen_golden.golden_manifest()
    for trace in regen_golden.golden_traces():
        simulate_session(make_controller(), trace, manifest)
    assert len(posed) == 2

    for problem in posed:
        memoised = solve_startup(problem)
        assert solve_startup(problem) is memoised
        horizon._solve_startup.cache_clear()
        fresh = solve_startup(problem)
        assert fresh is not memoised
        for field in dataclasses.fields(memoised):
            name = field.name
            assert getattr(fresh, name) == getattr(memoised, name), name
        assert fresh == uncached(problem)


#: One change per key field; the memo must answer each with its own solve.
KEY_CHANGES = {
    "buffer": dict(problem=dict(buffer_level_s=1.5)),
    "prev_quality": dict(problem=dict(prev_quality=3000.0)),
    "one size": dict(
        problem=dict(
            chunk_sizes_kilobits=(
                tuple(4.0 * r for r in LADDER),
                (1400.0, 2400.0, 3000.0, 8000.0, 12000.0),
                tuple(4.0 * r for r in LADDER),
            )
        )
    ),
    "one prediction": dict(problem=dict(predicted_kbps=(900.0, 3500.0, 700.0))),
    "one weight": dict(problem=dict(weights=QoEWeights(1.0, 3000.0, 5000.0))),
    "L": dict(problem=dict(chunk_duration_s=2.0)),
    "Bmax": dict(problem=dict(buffer_capacity_s=5.0)),
    "max_wait_s": dict(solve=dict(max_wait_s=0.5)),
    "wait_step_s": dict(solve=dict(wait_step_s=1.5)),
}


@pytest.mark.parametrize("change", sorted(KEY_CHANGES))
def test_changing_one_key_field_gets_its_own_answer(change):
    base = startup_problem()
    base_answer = solve_startup(base)
    overrides = KEY_CHANGES[change]
    problem = startup_problem(**overrides.get("problem", {}))
    kwargs = overrides.get("solve", {})

    answer = solve_startup(problem, **kwargs)

    assert answer == uncached(problem, **kwargs)
    # The change moves the answer, so a collision with the base's entry
    # would have shown.
    assert answer != base_answer
    assert horizon._solve_startup.cache_info().currsize == 2
    assert solve_startup(base) is base_answer


def test_list_rows_and_predictions_solve_like_their_tuple_twin():
    twin = startup_problem()
    listed = startup_problem(
        chunk_sizes_kilobits=[list(row) for row in twin.chunk_sizes_kilobits],
        quality_values=list(LADDER),
        predicted_kbps=list(twin.predicted_kbps),
    )
    assert listed == twin and hash(listed) == hash(twin)
    assert isinstance(listed.chunk_sizes_kilobits[0], tuple)
    assert isinstance(listed.predicted_kbps, tuple)
    assert solve_startup(listed).plan == uncached(twin).plan
    assert solve_horizon(listed) == solve_horizon(twin)
    assert solve_horizon_reference(listed) == solve_horizon_reference(twin)


def test_memo_stays_at_its_bound():
    bound = horizon._STARTUP_MEMO_SIZE
    for i in range(bound + 20):
        problem = startup_problem(
            buffer_level_s=0.01 * i,
            chunk_sizes_kilobits=((1400.0, 2400.0),),
            quality_values=(350.0, 600.0),
            predicted_kbps=(900.0,),
        )
        solve_startup(problem, max_wait_s=0.5)
    info = horizon._solve_startup.cache_info()
    assert info.maxsize == bound
    assert info.currsize == bound
    assert info.misses == bound + 20


def test_threads_sharing_the_memo_get_their_own_answers():
    """Four threads, switching often, each solving steady horizons (the
    per-thread roll-out scratch) and more distinct startup problems than
    the memo holds (the shared memo, evicting while others read): a lost
    or crossed entry would hand one thread another problem's answer."""
    steady = [
        startup_problem(
            buffer_level_s=6.0,
            prev_quality=600.0,
            chunk_sizes_kilobits=tuple(tuple(4.0 * r for r in LADDER) for _ in range(h)),
            predicted_kbps=(900.0, 1200.0, 700.0, 1500.0, 1100.0)[:h],
        )
        for h in (1, 3, 5)
    ]
    startup = [
        startup_problem(
            buffer_level_s=0.01 * i,
            chunk_sizes_kilobits=((1400.0, 2400.0),),
            quality_values=(350.0, 600.0),
            predicted_kbps=(900.0,),
        )
        for i in range(horizon._STARTUP_MEMO_SIZE + 44)
    ]
    expected = {p: solve_horizon(p) for p in steady}
    expected.update((p, uncached(p, max_wait_s=0.5)) for p in startup)
    results = [[] for _ in range(4)]

    def work(index, out):
        for round_ in range(3):
            for problem in steady[round_ % 3 :] + steady[: round_ % 3]:
                out.append((problem, solve_horizon(problem)))
            for problem in startup[index % 2 :: 2]:
                out.append((problem, solve_startup(problem, max_wait_s=0.5)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=work, args=(i, out)) for i, out in enumerate(results)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for out in results:
        assert len(out) == 3 * (len(steady) + len(startup) // 2)
        assert all(got == expected[problem] for problem, got in out)
    assert horizon._solve_startup.cache_info().currsize == horizon._STARTUP_MEMO_SIZE


def test_startup_on_a_fresh_evaluator_builds_its_own_tree():
    """With the memo emptied between them, a second solve on a new
    thread evaluator rolls the whole grid out again, into its own tree,
    and answers what the shared evaluator answered."""
    problem = full_grid_problem(5)
    shared = solve_startup(problem)
    saved = kernel._thread_local.evaluator
    del kernel._thread_local.evaluator
    horizon._solve_startup.cache_clear()
    try:
        fresh = solve_startup(problem)
        evaluator = kernel._thread_evaluator()
        assert evaluator is not saved
        assert (121, 5) in {(key[0], key[2]) for key in evaluator._trees}
        assert fresh == shared and fresh is not shared
    finally:
        kernel._thread_local.evaluator = saved


def test_threads_rolling_out_startup_grids_at_once_get_their_own_answers(monkeypatch):
    """Four threads, switching often, each rolling out 121-point grids at
    horizons 1, 3 and 5 past the memo: a roll-out scratch shared across
    threads would hand one thread another's floats."""
    calls = count_roll_outs(monkeypatch)
    problems = [full_grid_problem(h) for h in (1, 3, 5)]
    expected = {p: uncached(p) for p in problems}
    results = [[] for _ in range(4)]

    def work(out):
        for round_ in range(6):
            for problem in problems[round_ % 3 :] + problems[: round_ % 3]:
                out.append((problem, uncached(problem)))

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
    for out in results:
        assert len(out) == 18
        assert all(got == expected[problem] for problem, got in out)
    # Every solve rolled its grid out: none was answered from the memo.
    assert calls == [121] * (3 + 4 * 18)
    assert horizon._solve_startup.cache_info().currsize == 0
