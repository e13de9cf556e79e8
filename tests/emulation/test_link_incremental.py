"""The incremental link is float-identical to the all-pairs oracle.

Random workloads (seeded arrivals, sizes, step traces, with and without
slow-start) run through both :class:`SharedTraceLink` and the preserved
:class:`AllPairsSharedTraceLink` (``all_pairs_link.py``); completion
times and callback order must match with ``==`` — both engines share
``_fill_level`` arithmetic and the pool's uniform delta is bit-identical
to per-flow scalar subtraction, so any drift is a bug, not noise.
"""

import random

import pytest

from repro.emulation.clock import EventQueue
from repro.emulation.link import SharedTraceLink
from repro.traces.trace import Trace

from all_pairs_link import AllPairsSharedTraceLink


def _random_workload(seed, n_transfers):
    """(start_time, size_kilobits) pairs, seeded."""
    rng = random.Random(seed)
    jobs = []
    t = 0.0
    for _ in range(n_transfers):
        t += rng.uniform(0.0, 3.0)
        jobs.append((t, rng.uniform(50.0, 8000.0)))
    return jobs


def _run(link_cls, trace, jobs, slow_start):
    queue = EventQueue()
    link = link_cls(trace, queue, rtt_s=0.08, slow_start=slow_start)
    completions = []

    def schedule(when, size, tag):
        queue.schedule_at(
            when,
            lambda: link.start_transfer(
                size, lambda tr: completions.append((tag, queue.now))
            ),
        )

    for tag, (when, size) in enumerate(jobs):
        schedule(when, size, tag)
    queue.run_until_idle()
    return completions


_TRACES = [
    Trace.constant(3000.0, 400.0, name="const"),
    Trace(
        [0.0, 30.0, 60.0, 90.0],
        [5000.0, 800.0, 2500.0, 1200.0],
        duration_s=120.0,
        name="steps",
    ),
    # A dead segment: transfers must stall through it identically.
    Trace(
        [0.0, 20.0, 25.0],
        [4000.0, 0.0, 4000.0],
        duration_s=60.0,
        name="blackout",
    ),
]


@pytest.mark.parametrize("trace", _TRACES, ids=lambda t: t.name)
@pytest.mark.parametrize("slow_start", [False, True], ids=["no-ramp", "ramp"])
@pytest.mark.parametrize("seed", range(6))
def test_incremental_matches_all_pairs_oracle(trace, slow_start, seed):
    jobs = _random_workload(seed, n_transfers=25)
    got = _run(SharedTraceLink, trace, jobs, slow_start)
    want = _run(AllPairsSharedTraceLink, trace, jobs, slow_start)
    assert got == want  # same order, float-identical times


@pytest.mark.parametrize("slow_start", [False, True], ids=["no-ramp", "ramp"])
def test_simultaneous_arrivals_complete_in_id_order(slow_start):
    """Symmetric transfers all land at once; both engines must break the
    tie the same way (transfer-id order)."""
    trace = Trace.constant(2000.0, 400.0, name="const")
    jobs = [(1.0, 640.0)] * 8
    got = _run(SharedTraceLink, trace, jobs, slow_start)
    want = _run(AllPairsSharedTraceLink, trace, jobs, slow_start)
    assert got == want
    assert [tag for tag, _ in got] == sorted(tag for tag, _ in got)


def test_large_population_still_exact():
    trace = Trace(
        [0.0, 40.0], [60_000.0, 20_000.0], duration_s=80.0, name="two-step"
    )
    jobs = _random_workload(99, n_transfers=120)
    got = _run(SharedTraceLink, trace, jobs, slow_start=False)
    want = _run(AllPairsSharedTraceLink, trace, jobs, slow_start=False)
    assert got == want
