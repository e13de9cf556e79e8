"""Name-based construction of adaptation algorithms.

The experiment harness, CLI, and benchmarks refer to algorithms by the
names the paper uses (Section 7.1.2); :func:`create` builds a fresh,
default-configured instance and :func:`paper_algorithms` returns the full
line-up of Figure 8.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.fastmpc import FastMPCController
from ..core.mdp import MDPController
from ..core.mpc import MPCController, make_mpc_opt
from ..core.robust import RobustMPCController
from ..prediction.streaming import GapCorrectedHarmonicPredictor
from .base import ABRAlgorithm
from .bola import BolaAlgorithm
from .buffer_based import BufferBasedAlgorithm, BufferBasedChunkMapAlgorithm
from .dashjs import DashJSRuleBased
from .dasip import DasIpAlgorithm
from .fairshare import FairShareCappedAlgorithm
from .festive import FestiveAlgorithm
from .fixed import ConstantLevelAlgorithm
from .rate_based import RateBasedAlgorithm

__all__ = ["create", "available", "paper_algorithms", "register", "unregister"]

_FACTORIES: Dict[str, Callable[[], ABRAlgorithm]] = {
    "rb": RateBasedAlgorithm,
    "bb": BufferBasedAlgorithm,
    "bba-1": BufferBasedChunkMapAlgorithm,
    "bola": BolaAlgorithm,
    "das-ip": DasIpAlgorithm,
    "festive": FestiveAlgorithm,
    "dashjs": DashJSRuleBased,
    "mpc": MPCController,
    "robust-mpc": RobustMPCController,
    "fastmpc": FastMPCController,
    "robust-fastmpc": lambda: FastMPCController(robust=True),
    # FastMPC fed by the idle-gap-corrected harmonic predictor
    # (docs/prediction.md): identical decisions on gap-free traffic,
    # capacity-recovering ones through blackouts and faulty links.
    "fastmpc-gap": lambda: FastMPCController(
        predictor=GapCorrectedHarmonicPredictor(), name="fastmpc-gap"
    ),
    "mpc-opt": make_mpc_opt,
    "mdp": MDPController,
    "lowest": lambda: ConstantLevelAlgorithm(0),
    "highest": lambda: ConstantLevelAlgorithm(-1),
    # The arena's fairness-aware arm: BOLA clamped to its measured
    # throughput share (docs/fairness.md).
    "fair-bola": lambda: FairShareCappedAlgorithm(BolaAlgorithm()),
}

#: Names shipped with the repo; :func:`register`/:func:`unregister` refuse
#: to touch them so user plugins cannot shadow or strand the paper zoo.
_BUILTIN_NAMES = frozenset(_FACTORIES)


def register(
    name: str, factory: Callable[[], ABRAlgorithm], override: bool = False
) -> None:
    """Add a custom algorithm to the registry (e.g. from user code).

    A duplicate name raises unless ``override=True`` replaces the earlier
    *custom* registration; built-in names can never be replaced.
    """
    if not name:
        raise ValueError("name must be non-empty")
    if name in _BUILTIN_NAMES:
        raise ValueError(f"algorithm {name!r} is built in and cannot be replaced")
    if name in _FACTORIES and not override:
        raise ValueError(
            f"algorithm {name!r} is already registered; "
            "pass override=True to replace it"
        )
    _FACTORIES[name] = factory


def unregister(name: str) -> None:
    """Remove a custom registration; built-in names are protected."""
    if name in _BUILTIN_NAMES:
        raise ValueError(f"algorithm {name!r} is built in and cannot be unregistered")
    if name not in _FACTORIES:
        raise ValueError(f"algorithm {name!r} is not registered")
    del _FACTORIES[name]


def available() -> List[str]:
    """All registered algorithm names, sorted."""
    return sorted(_FACTORIES)


def create(name: str) -> ABRAlgorithm:
    """A fresh instance of a registered algorithm."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {', '.join(available())}"
        ) from None
    return factory()


def paper_algorithms() -> Dict[str, ABRAlgorithm]:
    """The six algorithms of the paper's main comparison (Figure 8)."""
    names = ["rb", "bb", "fastmpc", "robust-mpc", "dashjs", "festive"]
    return {name: create(name) for name in names}
