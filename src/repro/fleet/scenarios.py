"""Seeded scenario sampling — the fleet's population definition.

A *scenario* is one session's full parameterisation: which controller,
which dataset and trace, which QoE preset, which bitrate ladder.  The
sampler draws scenarios from a :class:`ScenarioSpace` with a plain
``random.Random(seed)`` making a **fixed number of draws per scenario**,
which gives two properties the determinism tests pin down:

* the same seed always yields the identical scenario stream, on any
  platform (no hash randomisation, no NumPy RNG dependency);
* the stream has the *prefix property* — sampling ``n`` scenarios yields
  the first ``n`` of any longer sample with the same seed, so growing a
  fleet never reshuffles the sessions already run.

Trace pools come from :func:`repro.traces.datasets.standard_datasets`
(seeded) and are memoized per process, so pool construction is paid once
per worker, not once per shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import random
from typing import Dict, List, Optional, Tuple

from ..abr.base import SessionConfig
from ..core.fastmpc import FastMPCConfig
from ..qoe import QoEWeights
from ..traces.datasets import DATASET_NAMES, standard_datasets
from ..traces.trace import Trace
from ..video.manifest import BitrateLadder, VideoManifest
from ..video.presets import (
    ENVIVIO_CHUNK_SECONDS,
    ENVIVIO_LADDER_KBPS,
    ENVIVIO_NUM_CHUNKS,
)
from .controllers import SUPPORTED_CONTROLLERS

__all__ = [
    "LADDER_NAMES",
    "PRESET_NAMES",
    "Scenario",
    "ScenarioSpace",
    "ladder_by_name",
    "manifest_for",
    "sample_scenarios",
    "session_config_for",
    "trace_pools",
]

#: The QoE preference profiles of Figure 11b.
PRESET_NAMES = ("balanced", "avoid-instability", "avoid-rebuffering")

#: Named bitrate ladders the sampler can draw; "envivio" is the paper's.
_LADDERS = {
    "envivio": BitrateLadder(ENVIVIO_LADDER_KBPS),
    "uniform-6": BitrateLadder.uniform(200.0, 4000.0, 6),
    "geometric-8": BitrateLadder.geometric(100.0, 4300.0, 8),
}
LADDER_NAMES = tuple(sorted(_LADDERS))


def ladder_by_name(name: str) -> BitrateLadder:
    try:
        return _LADDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown ladder {name!r}; expected one of {LADDER_NAMES}"
        ) from None


@dataclass(frozen=True)
class ScenarioSpace:
    """The axes the fleet samples over (all fields picklable primitives,
    so a space travels to pool workers as-is)."""

    controllers: Tuple[str, ...] = SUPPORTED_CONTROLLERS
    datasets: Tuple[str, ...] = DATASET_NAMES
    presets: Tuple[str, ...] = PRESET_NAMES
    ladders: Tuple[str, ...] = ("envivio",)
    num_chunks: int = ENVIVIO_NUM_CHUNKS
    traces_per_dataset: int = 100
    trace_duration_s: float = 320.0
    trace_seed: int = 0
    #: Optional FastMPC table discretization override (smaller tables for
    #: smoke tests and the benchmark).
    table_config: Optional[FastMPCConfig] = None

    def __post_init__(self) -> None:
        if not self.controllers:
            raise ValueError("scenario space needs at least one controller")
        for name in self.controllers:
            if name not in SUPPORTED_CONTROLLERS:
                raise ValueError(
                    f"unsupported fleet controller {name!r}; expected a subset "
                    f"of {SUPPORTED_CONTROLLERS}"
                )
        if not self.datasets:
            raise ValueError("scenario space needs at least one dataset")
        for name in self.datasets:
            if name not in DATASET_NAMES:
                raise ValueError(
                    f"unknown dataset {name!r}; expected a subset of "
                    f"{DATASET_NAMES}"
                )
        for name in self.presets:
            QoEWeights.preset(name)  # raises on unknown
        if not self.presets:
            raise ValueError("scenario space needs at least one QoE preset")
        for name in self.ladders:
            ladder_by_name(name)  # raises on unknown
        if not self.ladders:
            raise ValueError("scenario space needs at least one ladder")
        if self.num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")
        if self.traces_per_dataset < 1:
            raise ValueError("traces_per_dataset must be >= 1")
        if self.trace_duration_s <= 0:
            raise ValueError("trace duration must be positive")


@dataclass(frozen=True)
class Scenario:
    """One sampled session parameterisation."""

    index: int
    controller: str
    dataset: str
    trace_index: int
    preset: str
    ladder: str

    @property
    def arm_key(self) -> str:
        """The aggregation arm this session belongs to."""
        return f"{self.controller}|{self.dataset}|{self.preset}|{self.ladder}"


def sample_scenarios(space: ScenarioSpace, n: int, seed: int) -> List[Scenario]:
    """Draw ``n`` scenarios; deterministic and prefix-stable in ``seed``."""
    if n < 0:
        raise ValueError("cannot sample a negative number of scenarios")
    rng = random.Random(seed)
    controllers = space.controllers
    datasets = space.datasets
    presets = space.presets
    ladders = space.ladders
    out: List[Scenario] = []
    for index in range(n):
        # Exactly five draws per scenario, always, so any prefix of the
        # stream is independent of the total sample size.
        controller = controllers[rng.randrange(len(controllers))]
        dataset = datasets[rng.randrange(len(datasets))]
        trace_index = rng.randrange(space.traces_per_dataset)
        preset = presets[rng.randrange(len(presets))]
        ladder = ladders[rng.randrange(len(ladders))]
        out.append(
            Scenario(
                index=index,
                controller=controller,
                dataset=dataset,
                trace_index=trace_index,
                preset=preset,
                ladder=ladder,
            )
        )
    return out


@lru_cache(maxsize=8)
def _pools_cached(
    traces_per_dataset: int, duration_s: float, seed: int
) -> Dict[str, List[Trace]]:
    return standard_datasets(
        traces_per_dataset=traces_per_dataset,
        duration_s=duration_s,
        seed=seed,
    )


def trace_pools(space: ScenarioSpace) -> Dict[str, List[Trace]]:
    """The per-dataset trace lists for a space (memoized per process)."""
    return _pools_cached(
        space.traces_per_dataset, space.trace_duration_s, space.trace_seed
    )


@lru_cache(maxsize=32)
def manifest_for(ladder_name: str, num_chunks: int) -> VideoManifest:
    """The CBR manifest for a named ladder (memoized per process)."""
    return VideoManifest.cbr(
        ENVIVIO_CHUNK_SECONDS,
        ladder_by_name(ladder_name),
        num_chunks,
        title=f"fleet-{ladder_name}",
    )


def session_config_for(preset: str) -> SessionConfig:
    """The player configuration for a QoE preset."""
    return SessionConfig(weights=QoEWeights.preset(preset))
