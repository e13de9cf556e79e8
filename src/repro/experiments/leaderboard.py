"""Cross-controller leaderboard, served: the zoo behind the service.

``repro-abr leaderboard`` answers the deployment-direction question the
A/B layer exists for: *with every controller behind the same serving
boundary, which arm wins on which network?*  Per dataset it starts one
in-process :class:`~repro.service.server.DecisionServer` configured with
an equal-weight experiment over the requested controllers (the FastMPC
table arm keeps the vectorized lookup; every other arm is a stateful
:mod:`repro.abr.registry` instance behind an
:class:`~repro.service.backends.AlgorithmBackend`), drives it with the
closed-loop trace replayer, and reads the per-arm QoE roll-up off the
load report.

Because arm assignment is a pure hash of ``(salt, session_id)`` and the
load generator names its sessions deterministically, the same
``(sessions, salt)`` pair reproduces the same arm split on every run —
the leaderboard is seeded end to end.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..qoe import QoEWeights
from ..traces import make_generator
from ..video import envivio
from .report import render_table

__all__ = [
    "DEFAULT_LEADERBOARD_CONTROLLERS",
    "LeaderboardCell",
    "LeaderboardConfig",
    "LeaderboardResult",
    "run_leaderboard",
]

#: The default line-up: the served table plus one representative of each
#: controller family in the zoo (buffer-based threshold, chunk-map,
#: Lyapunov, index-policy).
DEFAULT_LEADERBOARD_CONTROLLERS: Tuple[str, ...] = (
    "table",
    "bb",
    "bba-1",
    "bola",
    "das-ip",
)


@dataclass(frozen=True)
class LeaderboardConfig:
    """Shape of one leaderboard run."""

    controllers: Tuple[str, ...] = DEFAULT_LEADERBOARD_CONTROLLERS
    datasets: Tuple[str, ...] = ("fcc", "hsdpa")
    sessions: int = 60
    chunks_per_session: int = 30
    concurrency: int = 8
    seed: int = 0
    trace_duration_s: float = 320.0
    #: Experiment salt: fixed by default so the arm split (and therefore
    #: the whole leaderboard) is reproducible run to run.
    salt: str = "leaderboard"
    #: FastMPC table discretization for the ``table`` arm.
    bins: int = 25
    horizon: int = 5
    deadline_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.controllers:
            raise ValueError("need at least one controller")
        if len(set(self.controllers)) != len(self.controllers):
            raise ValueError(f"duplicate controllers in {self.controllers}")
        if not self.datasets:
            raise ValueError("need at least one dataset")
        if self.sessions < 1 or self.chunks_per_session < 1:
            raise ValueError("need at least one session and one chunk")


@dataclass(frozen=True)
class LeaderboardCell:
    """One (dataset, arm) cell of the leaderboard."""

    dataset: str
    arm: str
    controller: str
    sessions: int
    decisions: int
    degraded: int
    qoe_mean: Optional[float]

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "arm": self.arm,
            "controller": self.controller,
            "sessions": self.sessions,
            "decisions": self.decisions,
            "degraded": self.degraded,
            "qoe_mean": self.qoe_mean,
        }


@dataclass
class LeaderboardResult:
    """All cells plus run-level accounting."""

    config: LeaderboardConfig
    cells: List[LeaderboardCell] = field(default_factory=list)
    errors: int = 0
    wall_s: float = 0.0

    def dataset_cells(self, dataset: str) -> List[LeaderboardCell]:
        return [c for c in self.cells if c.dataset == dataset]

    def render(self) -> str:
        """The per-arm QoE table, one block per dataset, best arm first."""
        blocks = []
        for dataset in self.config.datasets:
            rows = []
            cells = sorted(
                self.dataset_cells(dataset),
                key=lambda c: (c.qoe_mean is None, -(c.qoe_mean or 0.0)),
            )
            for cell in cells:
                rows.append(
                    [
                        cell.arm,
                        cell.controller,
                        cell.sessions,
                        cell.decisions,
                        cell.degraded,
                        "-" if cell.qoe_mean is None else round(cell.qoe_mean, 1),
                    ]
                )
            table = render_table(
                ["arm", "controller", "sessions", "decisions", "degraded", "QoE mean"],
                rows,
            )
            blocks.append(f"=== {dataset} ===\n{table}")
        return "\n\n".join(blocks)

    def to_dict(self) -> dict:
        return {
            "controllers": list(self.config.controllers),
            "datasets": list(self.config.datasets),
            "sessions": self.config.sessions,
            "chunks_per_session": self.config.chunks_per_session,
            "seed": self.config.seed,
            "salt": self.config.salt,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _build_experiment(controllers: Sequence[str], salt: str):
    from ..service import ExperimentArm, ExperimentConfig

    # Equal weights: the leaderboard compares controllers, so every arm
    # deserves the same slice of the session population.  Unknown names
    # fail when the service instantiates the backends (set_experiment),
    # before any traffic is served.
    arms = tuple(
        ExperimentArm(name=name, controller=name, weight=1.0) for name in controllers
    )
    return ExperimentConfig(arms=arms, salt=salt)


async def _run_dataset(
    dataset: str, config: LeaderboardConfig, table, experiment
) -> "tuple":
    from ..service import (
        DecisionServer,
        DecisionService,
        LoadTestConfig,
        run_loadtest,
    )

    manifest = envivio()
    service = DecisionService(
        manifest.ladder.levels_kbps, table=table, experiment=experiment
    )
    server = DecisionServer(service, "127.0.0.1", 0)
    await server.start()
    try:
        load = LoadTestConfig(
            sessions=config.sessions,
            chunks_per_session=config.chunks_per_session,
            concurrency=config.concurrency,
            dataset=dataset,
            seed=config.seed,
            trace_duration_s=config.trace_duration_s,
            deadline_s=config.deadline_s,
        )
        traces = make_generator(dataset, seed=config.seed).generate_many(
            config.sessions, config.trace_duration_s
        )
        report = await run_loadtest(
            "127.0.0.1", server.bound_port, load, traces=traces
        )
        return report, service.metrics.snapshot()
    finally:
        await server.close()


def run_leaderboard(config: LeaderboardConfig) -> LeaderboardResult:
    """Run the full leaderboard and return the per-(dataset, arm) cells."""
    import time

    from ..core.fastmpc import FastMPCConfig, build_decision_table

    experiment = _build_experiment(config.controllers, config.salt)
    controller_of = {arm.name: arm.controller for arm in experiment.arms}

    table = None
    if any(arm.controller == "table" for arm in experiment.arms):
        manifest = envivio()
        table = build_decision_table(
            manifest.ladder.levels_kbps,
            manifest.chunk_duration_s,
            30.0,
            QoEWeights.balanced(),
            config=FastMPCConfig(
                buffer_bins=config.bins,
                throughput_bins=config.bins,
                horizon=config.horizon,
            ),
        )

    result = LeaderboardResult(config=config)
    t0 = time.perf_counter()
    for dataset in config.datasets:
        report, _ = asyncio.run(_run_dataset(dataset, config, table, experiment))
        result.errors += report.errors
        # Every configured arm gets a row, even one the hash left empty at
        # this session count — a zero row is a visible coverage gap, not a
        # silently missing line.
        for arm in experiment.arms:
            stats = report.arms.get(arm.name, {})
            qoe_count = stats.get("qoe_count", 0)
            result.cells.append(
                LeaderboardCell(
                    dataset=dataset,
                    arm=arm.name,
                    controller=controller_of[arm.name],
                    sessions=stats.get("sessions", 0),
                    decisions=stats.get("decisions", 0),
                    degraded=stats.get("degraded", 0),
                    qoe_mean=(
                        stats.get("qoe_sum", 0.0) / qoe_count if qoe_count else None
                    ),
                )
            )
    result.wall_s = time.perf_counter() - t0
    return result
