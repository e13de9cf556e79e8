"""The arena: N players, one bottleneck, churn, cross traffic, faults.

:func:`run_arena` materialises a :class:`~repro.arena.schedule.ScheduleConfig`
into players (each its own :class:`~repro.emulation.client.EmulatedClient`
driving a registry controller), attaches cross-traffic flows to the shared
:class:`~repro.emulation.link.SharedTraceLink`, and drives one event queue
until every player has finished.  The testbed (queue, link, the one
link-fault injector, chunk server) comes from the same builder
:func:`repro.emulation.harness.emulate_shared_link` uses.  Everything is
deterministic in the config: the same :class:`ArenaConfig` always
produces a byte-identical :meth:`ArenaResult.to_json`, in any process,
under any fault profile.

Parity pin: with ``arrivals="stagger"``, no departures
(``max_watch_chunks=None``) and no cross traffic, the arena is — by
construction, same link/server/client objects, same event order — the
*exact* run :func:`repro.emulation.harness.emulate_shared_link` performs,
and the pin test asserts ``==`` on every record.

Departures are chunk-boundary departures: a player scheduled to watch
``w`` chunks plays a ``w``-chunk truncation of the video and leaves when
it ends, so every departed session remains a complete, scoreable
:class:`~repro.sim.session.SessionResult`.

Cross traffic keeps the link's progress loop alive indefinitely (an
infinitely backlogged flow never completes), so the arena drives the
queue itself and stops once every player has finished rather than
waiting for an idle queue — with or without cross traffic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..abr import registry
from ..abr.base import SessionConfig
from ..emulation.clock import EventQueue
from ..emulation.client import EmulatedClient
from ..emulation.harness import NetworkProfile, _Testbed
from ..faults.profiles import get_profile
from ..sim.session import SessionResult
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .metrics import (
    ArenaTotals,
    CohortRollup,
    PlayerOutcome,
    WindowMetrics,
    compute_cohorts,
    compute_totals,
    compute_windows,
    player_outcome,
)
from .schedule import (
    CrossTrafficSpec,
    PlayerSchedule,
    ScheduleConfig,
    build_schedule,
)

__all__ = ["ArenaConfig", "ArenaResult", "run_arena"]

#: Matches :meth:`EventQueue.run_until_idle`'s runaway guard.
_EVENT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ArenaConfig:
    """Everything that determines one arena run.

    Frozen and picklable, so scenario-matrix workers can receive cells
    over ``multiprocessing`` untouched.
    """

    schedule: ScheduleConfig
    trace: Trace
    manifest: VideoManifest
    session: SessionConfig = field(default_factory=SessionConfig)
    network: NetworkProfile = field(default_factory=NetworkProfile)
    #: Named fault profile (:data:`repro.faults.profiles.PROFILES`); only
    #: its trace/link faults apply — there is no decision server here.
    profile: str = "clean"
    fault_seed: int = 0
    #: Width of the time-windowed fairness/efficiency slices.
    window_s: float = 10.0

    def __post_init__(self) -> None:
        get_profile(self.profile)  # validate the name eagerly
        if self.window_s <= 0:
            raise ValueError("window must be positive")


class ArenaResult:
    """One arena run: per-player outcomes, windowed metrics, cohort rollups.

    ``sessions`` keeps the raw per-player :class:`SessionResult` objects
    (in player-id order) for parity tests and ad-hoc analysis; they are
    deliberately *not* part of :meth:`to_dict`, which carries only the
    derived, mergeable summary.
    """

    def __init__(
        self,
        config: ArenaConfig,
        schedule: PlayerSchedule,
        sessions: Tuple[SessionResult, ...],
        outcomes: Tuple[PlayerOutcome, ...],
        windows: List[WindowMetrics],
        cohorts: Dict[str, CohortRollup],
        totals: ArenaTotals,
        cross_kilobits: Dict[str, float],
    ) -> None:
        self.config = config
        self.schedule = schedule
        self.sessions = sessions
        self.outcomes = outcomes
        self.windows = windows
        self.cohorts = cohorts
        self.totals = totals
        self.cross_kilobits = cross_kilobits

    @property
    def num_players(self) -> int:
        return len(self.outcomes)

    def to_dict(self) -> dict:
        """Deterministic summary — no wall-clock, no object identities."""
        return {
            "players": self.num_players,
            "seed": self.config.schedule.seed,
            "arrivals": self.config.schedule.arrivals,
            "profile": self.config.profile,
            "window_s": self.config.window_s,
            "trace": self.config.trace.name,
            "cohort_labels": list(self.schedule.cohorts()),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "windows": [w.to_dict() for w in self.windows],
            "cohorts": {
                arm: self.cohorts[arm].to_dict() for arm in sorted(self.cohorts)
            },
            "totals": self.totals.to_dict(),
            "cross_traffic_kilobits": {
                label: self.cross_kilobits[label]
                for label in sorted(self.cross_kilobits)
            },
        }

    def to_json(self) -> str:
        """Canonical byte-stable encoding (the determinism contract)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class _CrossDriver:
    """Schedules one cross-traffic spec's on/off lifecycle on the queue.

    The on→off→on chain reschedules itself lazily, one cycle at a time,
    so unbounded periodic flows never pre-populate an infinite event
    list; whatever is still on when the supervisor stops is swept up by
    :meth:`shutdown`.
    """

    def __init__(
        self,
        spec: CrossTrafficSpec,
        link,
        queue: EventQueue,
        ledger: Dict[str, float],
    ) -> None:
        self.spec = spec
        self.link = link
        self.queue = queue
        self.ledger = ledger
        self.flow = None
        self._cycle = 0
        self._schedule_next_on()

    def _cycle_start_s(self) -> float:
        if self.spec.period_s is None:
            return self.spec.start_s
        return self.spec.start_s + self._cycle * self.spec.period_s

    def _schedule_next_on(self) -> None:
        start = self._cycle_start_s()
        if self.spec.stop_s is not None and start >= self.spec.stop_s:
            return
        self.queue.schedule_at(start, self._turn_on)

    def _turn_on(self) -> None:
        if self.flow is not None:  # pragma: no cover - defensive
            return
        self.flow = self.link.add_cross_flow(
            self.spec.rate_kbps, label=self.spec.label
        )
        off_at: Optional[float] = self.spec.stop_s
        if self.spec.period_s is not None and self.spec.duty < 1.0:
            burst_end = self._cycle_start_s() + self.spec.on_s
            off_at = burst_end if off_at is None else min(off_at, burst_end)
        if off_at is not None:
            self.queue.schedule_at(off_at, self._turn_off)

    def _turn_off(self) -> None:
        if self.flow is None:
            return
        self._bank(self.link.remove_cross_flow(self.flow))
        self.flow = None
        self._cycle += 1
        if self.spec.period_s is not None:
            self._schedule_next_on()

    def shutdown(self) -> None:
        """Detach a still-on flow at run end, banking its bytes."""
        if self.flow is not None:
            self._bank(self.link.remove_cross_flow(self.flow))
            self.flow = None

    def _bank(self, kilobits: float) -> None:
        label = self.spec.label
        self.ledger[label] = self.ledger.get(label, 0.0) + kilobits


def _drive(queue: EventQueue, clients: List[EmulatedClient]) -> None:
    """Run the queue until every player finishes.

    With cross traffic attached the link never goes idle (an infinitely
    backlogged flow always has a next progress event), so draining the
    queue is not a termination condition — finished players are.  The
    events left over once they have (superseded link progress events,
    say) change no player's result.
    """
    pending = list(clients)
    executed = 0
    while pending:
        # Pop finished players off the tail before touching the queue:
        # the loop stops on the exact event that finishes the last
        # player, so cross-traffic byte accounting never runs past it.
        if pending[-1].finished:
            pending.pop()
            continue
        if not queue.run_next():
            raise RuntimeError(
                "event queue drained with unfinished players — "
                f"{len(pending)} stuck (first: client "
                f"{pending[-1].client_id})"
            )
        executed += 1
        if executed >= _EVENT_BUDGET:
            raise RuntimeError(
                f"event budget of {_EVENT_BUDGET} exhausted — runaway arena?"
            )


def run_arena(config: ArenaConfig, tracer=None) -> ArenaResult:
    """Run one arena to completion; deterministic in ``config``.

    A :class:`repro.obs.Tracer` receives every player's per-chunk event
    timeline (session ids ``"<arm>#p<player_id>"``) plus one
    ``arena_window`` event per metrics window and a final
    ``arena_summary`` (see ``docs/observability.md``).
    """
    manifest = config.manifest
    schedule = build_schedule(config.schedule, manifest.num_chunks)
    testbed = _Testbed(
        config.trace,
        manifest,
        config.network,
        get_profile(config.profile).trace_faults,
        config.fault_seed,
    )
    clients: List[EmulatedClient] = []
    specs = schedule.players
    for spec in specs:
        watched = (
            manifest
            if spec.watch_chunks is None
            else manifest.truncated(spec.watch_chunks)
        )
        clients.append(
            testbed.client(
                spec.player_id,
                registry.create(spec.controller),
                watched,
                config.session,
                start_time_s=spec.arrival_s,
                tracer=tracer,
                session_id=f"{spec.arm}#p{spec.player_id}",
            )
        )
    ledger: Dict[str, float] = {}
    drivers = [
        _CrossDriver(spec, testbed.link, testbed.queue, ledger)
        for spec in schedule.cross_traffic
    ]
    _drive(testbed.queue, clients)
    for driver in drivers:
        driver.shutdown()
    sessions = tuple(client.result() for client in clients)
    outcomes = tuple(
        player_outcome(spec, session, manifest.num_chunks)
        for spec, session in zip(specs, sessions)
    )
    end_s = max(o.end_s for o in outcomes)
    windows = compute_windows(specs, sessions, config.trace, config.window_s, end_s)
    cohorts = compute_cohorts(outcomes)
    totals = compute_totals(
        outcomes, config.trace, math.fsum(ledger.values()), end_s
    )
    result = ArenaResult(
        config=config,
        schedule=schedule,
        sessions=sessions,
        outcomes=outcomes,
        windows=windows,
        cohorts=cohorts,
        totals=totals,
        cross_kilobits=dict(sorted(ledger.items())),
    )
    if tracer is not None and tracer.enabled:
        _emit_arena_events(tracer, result)
    return result


def _emit_arena_events(tracer, result: ArenaResult) -> None:
    from ..obs.events import ArenaSummary, ArenaWindow

    arena_id = (
        f"arena:{result.config.trace.name}"
        f"#seed{result.config.schedule.seed}"
    )
    for w in result.windows:
        tracer.emit(
            ArenaWindow(
                session_id=arena_id,
                t_mono=tracer.now(),
                index=w.index,
                t0_s=w.t0_s,
                t1_s=w.t1_s,
                active_players=w.active_players,
                utilization=w.utilization,
                jain=w.jain,
                switches=w.switches,
                instability=w.instability,
            )
        )
    totals = result.totals
    tracer.emit(
        ArenaSummary(
            session_id=arena_id,
            t_mono=tracer.now(),
            players=result.num_players,
            duration_s=totals.duration_s,
            utilization=totals.utilization,
            jain=totals.jain,
            unfairness=totals.unfairness,
            switches=totals.switches,
            cross_kilobits=totals.cross_kilobits,
        )
    )
