"""Every field of the horizon solvers' answers, pinned bit for bit.

About 2,100 seeded problems go through the two entry points that roll
plans out on the kernel: ``solve_horizon`` one problem at a time and
``solve_startup`` over its wait grid.  The problems mix CBR and VBR
rows, 1 to 6 levels, horizons 1 to 5, states with and without a
previous level, integer qualities that tie exactly, and zero switching
or rebuffering weights.  Each entry point's answers
hash, through the ``repr`` of every :class:`HorizonSolution` field, to a
digest recorded before the roll-out stopped computing the rebuffer and
final buffer of every plan; ``repr`` round-trips a float exactly, so a
digest holds only while every bit of every field does.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.horizon import HorizonProblem, solve_horizon, solve_startup
from repro.qoe import QoEWeights

#: sha256 of the answers' field reprs, per entry point.
DIGESTS = {
    "solve_horizon": "145105b03604365b5160139e59da2136cbf2d8b3188f747ee8bdb1e67a014ce5",
    "solve_startup": "c92a7d0ff271f71463fa4d2d54ff1e22233f0fd4c470b7ea76dd880b1127169b",
}


def _family(rng):
    """A problem's structure: ladder, weights, L, Bmax, horizon, and
    whether the rows are CBR."""
    num_levels = int(rng.integers(1, 7))
    horizon = int(rng.integers(1, 6))
    if rng.uniform() < 0.3:
        # Integer qualities with repeats: equal-quality levels tie exactly
        # whenever no plan stalls.
        quality = tuple(sorted(float(q) for q in rng.integers(1, 4, num_levels)))
    else:
        quality = tuple(sorted(float(q) for q in rng.uniform(100.0, 4000.0, num_levels)))
    draw = rng.uniform()
    switching = 0.0 if draw < 0.15 else float(rng.uniform(0.0, 2.0))
    rebuffering = 0.0 if 0.15 <= draw < 0.3 else float(rng.uniform(0.0, 5000.0))
    return dict(
        quality=quality,
        horizon=horizon,
        chunk_s=float(rng.uniform(1.0, 6.0)),
        capacity=float(rng.uniform(10.0, 60.0)),
        weights=QoEWeights(switching, rebuffering, float(rng.uniform(0.0, 5000.0))),
        cbr=bool(rng.uniform() < 0.5),
    )


def _member(rng, family, prev=True):
    quality = family["quality"]
    horizon = family["horizon"]
    chunk_s = family["chunk_s"]
    if family["cbr"]:
        rows = (tuple(chunk_s * max(q, 1.0) * 10.0 for q in quality),) * horizon
    else:
        rows = tuple(
            tuple(sorted(float(s) for s in rng.uniform(50.0, 20000.0, len(quality))))
            for _ in range(horizon)
        )
    if rng.uniform() < 0.2:
        # Fast enough that no plan stalls: ties decide.
        predictions = tuple(float(p) for p in rng.uniform(1e6, 2e6, horizon))
    else:
        predictions = tuple(float(p) for p in rng.uniform(200.0, 5000.0, horizon))
    buffer_s = 0.0 if rng.uniform() < 0.15 else float(rng.uniform(0.0, 25.0))
    previous = None
    if prev and rng.uniform() < 0.7:
        previous = quality[int(rng.integers(0, len(quality)))]
    return HorizonProblem(
        buffer_level_s=buffer_s,
        prev_quality=previous,
        chunk_sizes_kilobits=rows,
        quality_values=quality,
        predicted_kbps=predictions,
        chunk_duration_s=chunk_s,
        buffer_capacity_s=family["capacity"],
        weights=family["weights"],
    )


def _digest(solutions) -> str:
    h = hashlib.sha256()
    for solution in solutions:
        fields = tuple(getattr(solution, f.name) for f in dataclasses.fields(solution))
        h.update(repr(fields).encode())
        h.update(b"\n")
    return h.hexdigest()


def one_at_a_time():
    rng = np.random.default_rng(2801)
    problems = [_member(rng, _family(rng)) for _ in range(1800)]
    return [solve_horizon(p) for p in problems]


def startup_grids():
    rng = np.random.default_rng(2803)
    solutions = []
    for _ in range(300):
        family = _family(rng)
        problem = _member(rng, family, prev=bool(rng.uniform() < 0.3))
        step = (0.25, 0.5, 1.0)[int(rng.integers(0, 3))]
        max_wait = None if rng.uniform() < 0.2 else float(rng.uniform(0.0, 8.0))
        solutions.append(solve_startup(problem, max_wait_s=max_wait, wait_step_s=step))
    return solutions


ENTRY_POINTS = {
    "solve_horizon": one_at_a_time,
    "solve_startup": startup_grids,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_answers_hash_to_the_pinned_digest(entry):
    assert _digest(ENTRY_POINTS[entry]()) == DIGESTS[entry]
