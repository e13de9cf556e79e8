"""``sessions``: the per-session cost centre.

The paper's Figure-8 line-up (``paper_algorithms()``: rb, bb, fastmpc,
robust-mpc, dashjs, festive) plays Envivio (65 chunks) through
``simulate_session`` on every trace, followed by one ``run_live_session``
of ``fastmpc-gap`` per trace.  Traces come from the FCC, HSDPA and
synthetic generators, seeded by ``--seed``; sessions run back to back in
one process, one round (seven sessions) per trace, cycling through the
pool until the run's seconds are spent.

Before timing, rb, bb and fastmpc are compared with the fleet's
``run_batch(engine="vector")`` on the same traces, and a sample of
RobustMPC's horizon solves is compared with ``solve_horizon_reference``.
While timing, the pool is small enough to be replayed several times in a
run: the first play of a trace records its QoE per algorithm, and every
replay must reproduce it exactly — the controllers are reused across
sessions, so state leaking from one session into the next shows.  Only
replays count as attempted operations.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Optional, Tuple

from perfbench import single
from perfbench.spans import (
    BUILD_BOUNDARIES,
    CONTROLLER_FAMILIES,
    CONTROLLER_LAYERS,
    SESSION_BOUNDARIES,
    SpanRecorder,
    install,
    per_decision,
    setup_metrics,
)

#: 24 traces in all: a run of about 90 rounds replays each three times.
TRACES_PER_DATASET = 8
GATE_TRACES_PER_DATASET = 2
GATE_CONTROLLERS = ("rb", "bb", "fastmpc")
SOLVE_SAMPLES = 12
#: Sessions in one round: the six paper algorithms and one live session.
ROUND_SESSIONS = 7
#: Speed-reference calls after each round (about 2 ms against a round's
#: 130 ms; see perfbench.host.REFERENCE_DOC).
REFERENCE_CALLS = 4


class State:
    def __init__(self, manifest, traces, algorithms, live_algorithm, setup_layers):
        self.manifest = manifest
        self.traces = traces
        self.algorithms = algorithms
        self.live_algorithm = live_algorithm
        self.setup_layers = setup_layers


def _import_program():
    import repro.abr.registry  # noqa: F401
    import repro.core.fastmpc  # noqa: F401
    import repro.sim.live  # noqa: F401
    import repro.sim.session  # noqa: F401
    import repro.traces  # noqa: F401


def setup(seed: int, recorder: Optional[SpanRecorder]) -> State:
    """Everything before the first timed session: pools and cold tables."""
    _import_program()
    if recorder is not None:
        install(recorder, BUILD_BOUNDARIES)
    from repro.abr.base import SessionConfig
    from repro.abr.registry import create, paper_algorithms
    from repro.traces import standard_datasets
    from repro.video import envivio

    manifest = envivio()
    pools = standard_datasets(
        traces_per_dataset=TRACES_PER_DATASET, duration_s=320.0, seed=seed
    )
    # Interleave datasets so any prefix of the run mixes all three.
    traces = [t for group in zip(*pools.values()) for t in group]
    algorithms = paper_algorithms()
    live_algorithm = create("fastmpc-gap")
    for algorithm in list(algorithms.values()) + [live_algorithm]:
        algorithm.prepare(manifest, SessionConfig())  # builds FastMPC tables
    setup_layers = {}
    if recorder is not None:
        setup_layers = setup_metrics(recorder.snapshot())
        recorder.restore()
        recorder.reset()
    return State(manifest, traces, algorithms, live_algorithm, setup_layers)


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------


def gate_vector_parity(state: State) -> Tuple[int, int, List[float]]:
    """rb, bb and fastmpc through ``simulate_session`` vs the vector engine.

    Returns ``(checked, mismatched, qoe_totals)``; a session mismatches
    unless its per-chunk levels and QoE total are equal (``==``).
    """
    from repro.abr.registry import create
    from repro.fleet import run_batch
    from repro.sim.session import simulate_session

    traces = state.traces[: 3 * GATE_TRACES_PER_DATASET]
    checked = mismatched = 0
    totals = []
    for name in GATE_CONTROLLERS:
        batch = run_batch(name, traces, state.manifest, engine="vector")
        for i, trace in enumerate(traces):
            result = simulate_session(create(name), trace, state.manifest)
            total = result.qoe().total
            totals.append(total)
            checked += 1
            if (
                batch.session_levels(i) != result.level_indices
                or float(batch.qoe_total[i]) != total
            ):
                mismatched += 1
    return checked, mismatched, totals


def gate_robust_solves(state: State) -> Tuple[int, int]:
    """A sample of RobustMPC solves vs ``solve_horizon_reference``."""
    from repro.core import horizon, mpc
    from repro.sim.session import simulate_session

    problems = []
    original = mpc.solve_horizon

    def capture(problem, *args, **kwargs):
        problems.append(problem)
        return original(problem, *args, **kwargs)

    mpc.solve_horizon = capture
    try:
        simulate_session(state.algorithms["robust-mpc"], state.traces[0], state.manifest)
    finally:
        mpc.solve_horizon = original
    stride = max(len(problems) // SOLVE_SAMPLES, 1)
    sample = problems[::stride][:SOLVE_SAMPLES]
    mismatched = 0
    for problem in sample:
        fast = original(problem)
        slow = horizon.solve_horizon_reference(problem)
        if not math.isclose(fast.qoe, slow.qoe, rel_tol=1e-9, abs_tol=1e-6):
            mismatched += 1
    return len(sample), mismatched


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------


def play(state: State, seconds: float, tally: single.Tally,
         seen: Dict[Tuple[str, int], float]) -> float:
    """Rounds of seven sessions, one trace each, until ``seconds`` pass.

    A trace seen again must reproduce its earlier QoE exactly; ``seen``
    carries the first QoE per (algorithm, trace), and each replay is one
    attempted operation.  A slice's work CPU time is the sum of its
    sessions' CPU times; speed-reference calls follow every round.
    """
    from repro.sim import live, session

    manifest = state.manifest
    clock = time.perf_counter
    cpu = time.process_time
    started = clock()
    slice_t, slice_decisions, unit_cpu = started, 0, []

    def record(key, qoe, t0, c0):
        unit_cpu.append(cpu() - c0)
        tally.unit_walls.append(clock() - t0)
        if key not in seen:
            seen[key] = qoe
            return
        tally.attempted += 1
        if seen[key] != qoe:
            tally.failed += 1

    while clock() - started < seconds:
        t_index = tally.rounds % len(state.traces)
        trace = state.traces[t_index]
        for name, algorithm in state.algorithms.items():
            t0, c0 = clock(), cpu()
            qoe = session.simulate_session(algorithm, trace, manifest).qoe().total
            record((name, t_index), qoe, t0, c0)
        t0, c0 = clock(), cpu()
        qoe = live.run_live_session(state.live_algorithm, trace, manifest).qoe_total()
        record(("live", t_index), qoe, t0, c0)
        tally.reference(REFERENCE_CALLS)
        slice_decisions += ROUND_SESSIONS * manifest.num_chunks
        tally.rounds += 1
        now = clock()
        if now - slice_t >= single.SLICE_S or now - started >= seconds:
            tally.add_slice(slice_decisions, now - slice_t, math.fsum(unit_cpu),
                            statistics.median(unit_cpu))
            slice_t, slice_decisions, unit_cpu = now, 0, []
    return clock() - started


def run(state: State, seed: int, seconds: float, recorder: Optional[SpanRecorder]) -> dict:
    def gates():
        checked, mismatched, totals = gate_vector_parity(state)
        solves, solve_mismatches = gate_robust_solves(state)
        diagnostics = {"gates": {"vector_parity": [checked, mismatched],
                                 "robust_solves": [solves, solve_mismatches]}}
        return checked + solves, mismatched + solve_mismatches, math.fsum(totals), diagnostics

    seen: Dict[Tuple[str, int], float] = {}
    return single.run(
        seconds,
        recorder,
        gates,
        lambda s, tally: play(state, s, tally, seen),
        lambda rec: install(rec, SESSION_BOUNDARIES, CONTROLLER_FAMILIES),
        lambda totals, tally: per_decision(totals, tally.decisions, CONTROLLER_LAYERS),
        state.setup_layers,
    )
