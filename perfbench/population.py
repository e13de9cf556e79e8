"""``population``: the per-population cost centre.

Each round runs one ``run_fleet(workers=1)`` batch of sessions sampled
from a ``ScenarioSpace`` (every fleet controller x the three datasets x
the three QoE presets), then one ``run_arena`` shared bottleneck with
Poisson arrivals, churn, pulsed cross traffic and a bola / fair-bola / rb
mix — the multiplayer setting of Yin et al. (arXiv 1608.08469).  Rounds
repeat with fresh seeds derived from ``--seed`` until the run's seconds
are spent.

The fleet's FastMPC tables use a 50x50x5 discretization: three cold
100x100x5 preset tables take about 10 s per set-up, and ``setup_s`` is
sampled in three fresh processes per run.

Before timing, the fleet's vector engine is compared with its scalar
reference for every controller, and a churn-free arena slice is compared
with ``emulate_shared_link`` (both ``==``).  While timing, every fleet
batch must account for each sampled session and every arena run for
each scheduled player.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

from perfbench import single
from perfbench.spans import (
    BUILD_BOUNDARIES,
    CONTROLLER_LAYERS,
    POPULATION_BOUNDARIES,
    POPULATION_FAMILIES,
    SpanRecorder,
    install,
    per_decision,
    setup_metrics,
)

FLEET_SESSIONS = 384
ARENA_PLAYERS = 60
ARENA_CHUNKS = 40
TABLE_BINS = 50
#: Speed-reference calls before and after each round (about 15 ms in all
#: against a round's 1.2 s; see perfbench.host.REFERENCE_DOC).
REFERENCE_CALLS = 15


class State:
    def __init__(self, space, arena_manifest, setup_layers):
        self.space = space
        self.arena_manifest = arena_manifest
        self.setup_layers = setup_layers


def _import_program():
    import repro.arena  # noqa: F401
    import repro.arena.runner  # noqa: F401
    import repro.core.fastmpc  # noqa: F401
    import repro.emulation  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.fleet.driver  # noqa: F401
    import repro.traces  # noqa: F401


def setup(seed: int, recorder: Optional[SpanRecorder]) -> State:
    """Trace pools and the three preset tables, cold."""
    _import_program()
    if recorder is not None:
        install(recorder, BUILD_BOUNDARIES)
    from repro.core.fastmpc import FastMPCConfig
    from repro.fleet import ScenarioSpace
    from repro.fleet.controllers import make_batch_controller
    from repro.fleet.scenarios import manifest_for, session_config_for, trace_pools
    from repro.video import envivio

    space = ScenarioSpace(
        trace_seed=seed,
        table_config=FastMPCConfig(
            buffer_bins=TABLE_BINS, throughput_bins=TABLE_BINS, horizon=5
        ),
    )
    trace_pools(space)
    manifest = manifest_for(space.ladders[0], space.num_chunks)
    for preset in space.presets:
        controller = make_batch_controller("fastmpc", table_config=space.table_config)
        controller.prepare(manifest, session_config_for(preset), 1)
    setup_layers = {}
    if recorder is not None:
        setup_layers = setup_metrics(recorder.snapshot())
        recorder.restore()
        recorder.reset()
    return State(space, envivio().truncated(ARENA_CHUNKS), setup_layers)


def arena_config(seed: int, manifest):
    from repro.arena import ArenaConfig, CrossTrafficSpec, ScheduleConfig
    from repro.emulation.harness import NetworkProfile
    from repro.service.experiment import ExperimentArm, ExperimentConfig
    from repro.traces import Trace

    players = ARENA_PLAYERS
    bandwidth = 1500.0 * players
    mix = ExperimentConfig(
        arms=(
            ExperimentArm(name="bola", controller="bola"),
            ExperimentArm(name="fair-bola", controller="fair-bola"),
            ExperimentArm(name="rb", controller="rb"),
        )
    )
    return ArenaConfig(
        schedule=ScheduleConfig(
            players=players,
            seed=seed,
            mix=mix,
            arrivals="poisson",
            mean_interarrival_s=30.0 / players,
            min_watch_chunks=10,
            max_watch_chunks=manifest.num_chunks,
            cross_traffic=(
                CrossTrafficSpec(
                    label="pulse", rate_kbps=0.1 * bandwidth, period_s=20.0, duty=0.5
                ),
            ),
        ),
        trace=Trace.constant(bandwidth, 900.0, name=f"arena-{players}p"),
        manifest=manifest,
        network=NetworkProfile(slow_start=False),
        window_s=30.0,
    )


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------


def gate_fleet_parity(state: State) -> Tuple[int, int, List[float]]:
    """Vector vs scalar ``run_batch`` for every controller (``==``)."""
    from repro.fleet import SUPPORTED_CONTROLLERS, run_batch
    from repro.fleet.scenarios import manifest_for, trace_pools

    pools = trace_pools(state.space)
    traces = [pools[name][0] for name in state.space.datasets]
    manifest = manifest_for(state.space.ladders[0], state.space.num_chunks)
    checked = mismatched = 0
    totals = []
    for controller in SUPPORTED_CONTROLLERS:
        kwargs = dict(table_config=state.space.table_config)
        vec = run_batch(controller, traces, manifest, engine="vector", **kwargs)
        sca = run_batch(controller, traces, manifest, engine="scalar", **kwargs)
        for i in range(len(traces)):
            checked += 1
            totals.append(float(sca.qoe_total[i]))
            if vec.session_levels(i) != [int(x) for x in sca.levels[i]] or (
                float(vec.qoe_total[i]) != float(sca.qoe_total[i])
            ):
                mismatched += 1
    return checked, mismatched, totals


def gate_arena_parity() -> Tuple[int, int, List[float]]:
    """A churn-free arena slice vs ``emulate_shared_link`` (``==``)."""
    from repro.abr import registry
    from repro.arena import ArenaConfig, ScheduleConfig, run_arena
    from repro.emulation import emulate_shared_link
    from repro.emulation.harness import NetworkProfile
    from repro.service.experiment import ExperimentArm, ExperimentConfig
    from repro.traces import Trace
    from repro.video import envivio

    manifest = envivio().truncated(12)
    trace = Trace.constant(6000.0, 600.0, name="probe")
    network = NetworkProfile(slow_start=False)
    arena = run_arena(
        ArenaConfig(
            schedule=ScheduleConfig(
                players=4,
                mix=ExperimentConfig(arms=(ExperimentArm(name="bola", controller="bola"),)),
                arrivals="stagger",
                stagger_s=3.0,
            ),
            trace=trace,
            manifest=manifest,
            network=network,
        )
    )
    reference = emulate_shared_link(
        [registry.create("bola") for _ in range(4)],
        trace,
        manifest,
        network=network,
        start_stagger_s=3.0,
    )
    mismatched = sum(
        1
        for mine, theirs in zip(arena.sessions, reference)
        if mine.records != theirs.records or mine.qoe().total != theirs.qoe().total
    )
    mismatched += abs(len(arena.sessions) - len(reference))
    return len(reference), mismatched, [s.qoe().total for s in reference]


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------


POPULATION_LAYERS = {
    "fleet.driver_us": ("fleet.driver", "us"),
    "fleet.stepper.invert_us": ("fleet.stepper.invert", "us"),
    "fleet.stepper.step_us": ("fleet.stepper.step", "us"),
    "fleet.controllers.decide_us": ("fleet.controllers.decide", "us"),
    "fleet.aggregate.observe_us": ("fleet.aggregate.observe", "us"),
    "arena.runner_us": ("arena.runner", "us"),
    "emulation.clock.event_us": ("emulation.clock.event", "us"),
    "emulation.clock.events": ("emulation.clock.event", "calls"),
    "emulation.link.transfer_us": ("emulation.link.transfer", "us"),
    **CONTROLLER_LAYERS,
}


def play(state: State, seed: int, seconds: float, tally: single.Tally) -> float:
    """Rounds of one fleet batch and one arena until ``seconds`` pass.

    Each round is one slice, bracketed by speed-reference calls.  Every
    fleet batch must account for each sampled session and every arena
    run for each scheduled player.
    """
    from repro.arena import runner
    from repro.fleet import FleetConfig, driver

    clock = time.perf_counter
    cpu = time.process_time
    started = clock()
    while clock() - started < seconds:
        round_seed = seed * 100_003 + tally.rounds
        tally.reference(REFERENCE_CALLS)
        t0, c0 = clock(), cpu()
        fleet = driver.run_fleet(
            FleetConfig(
                sessions=FLEET_SESSIONS,
                seed=round_seed,
                shard_size=FLEET_SESSIONS,
                space=state.space,
            ),
            workers=1,
        )
        arena = runner.run_arena(arena_config(round_seed, state.arena_manifest))
        wall, used = clock() - t0, cpu() - c0
        tally.reference(REFERENCE_CALLS)
        tally.attempted += 2
        if fleet.sessions != FLEET_SESSIONS or sum(
            a.sessions for a in fleet.arms.values()
        ) != FLEET_SESSIONS:
            tally.failed += 1
        if len(arena.sessions) != ARENA_PLAYERS or any(
            len(s.records) == 0 for s in arena.sessions
        ):
            tally.failed += 1
        decisions = fleet.sessions * state.space.num_chunks
        decisions += sum(len(s.records) for s in arena.sessions)
        tally.unit_walls.append(wall)
        tally.add_slice(decisions, wall, used, used)
        tally.rounds += 1
    return clock() - started


def run(state: State, seed: int, seconds: float, recorder: Optional[SpanRecorder]) -> dict:
    def gates():
        checked, mismatched, totals = gate_fleet_parity(state)
        a_checked, a_mismatched, a_totals = gate_arena_parity()
        diagnostics = {"gates": {"fleet_parity": [checked, mismatched],
                                 "arena_parity": [a_checked, a_mismatched]}}
        return (checked + a_checked, mismatched + a_mismatched,
                math.fsum(totals + a_totals), diagnostics)

    def layers(totals, tally):
        yield from per_decision(totals, tally.decisions, POPULATION_LAYERS)
        arena_ns = totals["self_ns"].get("arena.metrics", 0)
        yield "arena.metrics.s", arena_ns / 1e9 / max(len(tally.slices), 1), "s"

    return single.run(
        seconds,
        recorder,
        gates,
        lambda s, tally: play(state, seed, s, tally),
        lambda rec: install(rec, POPULATION_BOUNDARIES, POPULATION_FAMILIES),
        layers,
        state.setup_layers,
    )
