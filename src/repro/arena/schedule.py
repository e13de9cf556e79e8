"""Seeded population schedules for the shared-bottleneck arena.

A :class:`PlayerSchedule` is the fully materialised cast of one arena
run: every player's arrival time, controller assignment, and departure
point (how many chunks they watch before leaving), plus the
cross-traffic flows contending for the same bottleneck.  Building it is
a pure function of :class:`ScheduleConfig` — one ``random.Random(seed)``
drawn in player-id order, and controller arms assigned by the same
salted-BLAKE2b hash the decision service uses for A/B routing — so the
same config always yields the same schedule, in any process.

Arrival models:

* ``stagger``     — player ``i`` arrives at ``i * stagger_s`` (the
  deterministic model; with full watch time and no cross traffic this
  reproduces :func:`repro.emulation.harness.emulate_shared_link`
  exactly — the arena's parity pin).
* ``poisson``     — i.i.d. exponential inter-arrivals with mean
  ``mean_interarrival_s`` (steady churn).
* ``flash-crowd`` — players arrive in ``flash_crowds`` bursts spaced
  ``flash_gap_s`` apart, jittered uniformly over ``flash_spread_s``
  (the thundering-herd shape).

Departures: each player watches a uniform number of chunks in
``[min_watch_chunks, max_watch_chunks]`` (clamped to the video length),
then leaves at that chunk boundary — which is how real sessions end, and
keeps every departed session scoreable.  ``max_watch_chunks=None`` means
everyone watches to the end.

Cross traffic: :class:`CrossTrafficSpec` describes constant-rate flows
(``period_s=None``) or on/off square waves (on for ``duty`` of each
period).  Flows are rate-capped, infinitely backlogged link flows — they
take ``min(rate, fair share)`` of the bottleneck while on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import random
from typing import Optional, Tuple

from ..service.experiment import ExperimentArm, ExperimentConfig

__all__ = [
    "ARRIVAL_MODES",
    "CrossTrafficSpec",
    "PlayerSpec",
    "PlayerSchedule",
    "ScheduleConfig",
    "build_schedule",
]

ARRIVAL_MODES = ("stagger", "poisson", "flash-crowd")


@dataclass(frozen=True)
class PlayerSpec:
    """One scheduled player: who, when, what controller, how long."""

    player_id: int
    arm: str  # cohort label (experiment arm name)
    controller: str  # repro.abr.registry name
    arrival_s: float
    #: Chunks watched before departing; ``None`` = the whole video.
    watch_chunks: Optional[int]


@dataclass(frozen=True)
class CrossTrafficSpec:
    """One cross-traffic flow contending on the bottleneck."""

    label: str
    rate_kbps: float
    start_s: float = 0.0
    #: When the flow leaves for good; ``None`` = stays until the run ends.
    stop_s: Optional[float] = None
    #: On/off cycle length; ``None`` = constant while active.
    period_s: Optional[float] = None
    #: Fraction of each period the flow is on (ignored when constant).
    duty: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate_kbps > 0 or math.isinf(self.rate_kbps):
            raise ValueError("cross-traffic rate must be positive and finite")
        # Finite times only: the event queue refuses NaN and infinity.
        if not 0.0 <= self.start_s < math.inf:
            raise ValueError("start must be a finite number >= 0")
        if self.stop_s is not None and not self.start_s < self.stop_s < math.inf:
            raise ValueError("stop must be finite and after start")
        if self.period_s is not None and not 0.0 < self.period_s < math.inf:
            raise ValueError("period must be a finite number > 0")
        if not 0 < self.duty <= 1:
            raise ValueError("duty must be in (0, 1]")

    @property
    def on_s(self) -> float:
        """Seconds on per cycle (the whole period when constant)."""
        if self.period_s is None or self.duty >= 1.0:
            return math.inf
        return self.period_s * self.duty


@dataclass(frozen=True)
class PlayerSchedule:
    """The materialised cast of one arena run."""

    players: Tuple[PlayerSpec, ...]
    cross_traffic: Tuple[CrossTrafficSpec, ...] = ()

    @property
    def num_players(self) -> int:
        return len(self.players)

    def cohorts(self) -> Tuple[str, ...]:
        """Arm labels present, in first-appearance order."""
        seen = []
        for player in self.players:
            if player.arm not in seen:
                seen.append(player.arm)
        return tuple(seen)


def _default_mix() -> ExperimentConfig:
    return ExperimentConfig(arms=(ExperimentArm(name="bola", controller="bola"),))


@dataclass(frozen=True)
class ScheduleConfig:
    """Everything that determines a :class:`PlayerSchedule`."""

    players: int
    seed: int = 0
    mix: ExperimentConfig = field(default_factory=_default_mix)
    arrivals: str = "poisson"
    mean_interarrival_s: float = 1.0  # poisson
    stagger_s: float = 0.0  # stagger
    flash_crowds: int = 3  # flash-crowd
    flash_gap_s: float = 60.0
    flash_spread_s: float = 2.0
    min_watch_chunks: int = 1
    #: ``None`` = everyone watches the full video (no churn).
    max_watch_chunks: Optional[int] = None
    cross_traffic: Tuple[CrossTrafficSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.players < 1:
            raise ValueError("need at least one player")
        if self.arrivals not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival mode {self.arrivals!r}; pick one of {ARRIVAL_MODES}"
            )
        # Finite times only, as for cross traffic: arrivals are scheduled
        # on the event queue.
        if not 0.0 < self.mean_interarrival_s < math.inf:
            raise ValueError("mean inter-arrival must be a finite number > 0")
        if not 0.0 <= self.stagger_s < math.inf:
            raise ValueError("stagger must be a finite number >= 0")
        if self.flash_crowds < 1:
            raise ValueError("need at least one flash crowd")
        if not (
            0.0 <= self.flash_gap_s < math.inf and 0.0 <= self.flash_spread_s < math.inf
        ):
            raise ValueError("flash gap/spread must be finite numbers >= 0")
        if self.min_watch_chunks < 1:
            raise ValueError("players watch at least one chunk")
        if (
            self.max_watch_chunks is not None
            and self.max_watch_chunks < self.min_watch_chunks
        ):
            raise ValueError("max watch chunks must be >= min")
        object.__setattr__(self, "cross_traffic", tuple(self.cross_traffic))


def build_schedule(config: ScheduleConfig, num_chunks: int) -> PlayerSchedule:
    """Materialise the schedule — deterministic in ``(config, num_chunks)``.

    All randomness comes from one ``random.Random(config.seed)`` consumed
    in player-id order; controller assignment hashes the player id
    through the experiment mix, exactly like service-side A/B routing.
    """
    if num_chunks < 1:
        raise ValueError("video needs at least one chunk")
    rng = random.Random(config.seed)
    players = []
    arrival = 0.0
    for pid in range(config.players):
        if config.arrivals == "stagger":
            arrival_s = pid * config.stagger_s
        elif config.arrivals == "poisson":
            arrival_s = arrival
            arrival += rng.expovariate(1.0 / config.mean_interarrival_s)
        else:  # flash-crowd: contiguous blocks of players per burst
            crowd = pid * config.flash_crowds // config.players
            arrival_s = crowd * config.flash_gap_s + (
                rng.uniform(0.0, config.flash_spread_s)
                if config.flash_spread_s > 0
                else 0.0
            )
        if config.max_watch_chunks is None:
            watch: Optional[int] = None
        else:
            lo = min(config.min_watch_chunks, num_chunks)
            hi = min(config.max_watch_chunks, num_chunks)
            watch = rng.randint(lo, hi)
            if watch >= num_chunks:
                watch = None
        arm = config.mix.assign(f"player-{pid}")
        players.append(
            PlayerSpec(
                player_id=pid,
                arm=arm.name,
                controller=arm.controller,
                arrival_s=arrival_s,
                watch_chunks=watch,
            )
        )
    return PlayerSchedule(
        players=tuple(players), cross_traffic=config.cross_traffic
    )
