"""Deterministic weighted A/B assignment of sessions to controller arms.

The service routes each session to one *arm* of a configured experiment
— a named controller plus a traffic weight.  Assignment must be a pure
function of ``(experiment, session_id)``: the same session lands on the
same arm on every request, on every worker of a cluster, and across
worker restarts, without any shared state or coordination.  That rules
out Python's builtin ``hash`` (randomised per process by
``PYTHONHASHSEED``); instead the session id is hashed with BLAKE2b into
a uniform point of ``[0, 1)`` and mapped through the arms' cumulative
weights.  The ``salt`` re-shuffles the whole population — bump it to
re-randomise an experiment without renaming sessions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "CONTROLLER_TABLE",
    "ExperimentArm",
    "ExperimentConfig",
    "parse_arms_spec",
]

#: The reserved controller name for the FastMPC table fast path —
#: arms on this controller keep the vectorized ``decide_batch`` lookup.
CONTROLLER_TABLE = "table"


@dataclass(frozen=True)
class ExperimentArm:
    """One experiment arm: a label, the controller it routes to, and a
    relative traffic weight.

    ``name`` is the label stamped on responses, metrics, and obs events;
    ``controller`` is either :data:`CONTROLLER_TABLE` or a
    :mod:`repro.abr.registry` algorithm name.  Two arms may share a
    controller (an A/A experiment) but never a name.
    """

    name: str
    controller: str = CONTROLLER_TABLE
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("arm name must be non-empty")
        if not self.controller:
            raise ValueError("arm controller must be non-empty")
        if not (self.weight > 0 and self.weight < float("inf")):
            raise ValueError("arm weight must be positive and finite")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "controller": self.controller,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "ExperimentArm":
        if not isinstance(payload, dict):
            raise ValueError("arm must be a JSON object")
        name = payload.get("name")
        if not isinstance(name, str):
            raise ValueError("arm name must be a string")
        controller = payload.get("controller", name)
        if not isinstance(controller, str):
            raise ValueError("arm controller must be a string")
        weight = payload.get("weight", 1.0)
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError("arm weight must be a number")
        return cls(name=name, controller=controller, weight=float(weight))


@dataclass(frozen=True)
class ExperimentConfig:
    """A weighted set of arms plus the hashing salt.

    Assignment depends on the arms' *order* (the cumulative-weight walk
    below), so configs must be shipped whole — which they are: the CLI,
    ``POST /v1/experiment``, and the cluster's pickled worker specs all
    carry the full ordered config.
    """

    arms: Tuple[ExperimentArm, ...]
    salt: str = ""

    def __post_init__(self) -> None:
        arms = tuple(self.arms)
        object.__setattr__(self, "arms", arms)
        if not arms:
            raise ValueError("an experiment needs at least one arm")
        names = [arm.name for arm in arms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate arm names in {names}")

    @property
    def total_weight(self) -> float:
        return sum(arm.weight for arm in self.arms)

    def assign(self, session_id: str) -> ExperimentArm:
        """The arm this session belongs to — deterministic, unweighted by
        any runtime state, identical in every process."""
        point = _unit_point(self.salt, session_id) * self.total_weight
        cumulative = 0.0
        for arm in self.arms:
            cumulative += arm.weight
            if point < cumulative:
                return arm
        return self.arms[-1]  # point == total under float rounding

    def to_dict(self) -> dict:
        return {
            "arms": [arm.to_dict() for arm in self.arms],
            "salt": self.salt,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValueError("experiment must be a JSON object")
        raw_arms = payload.get("arms")
        if not isinstance(raw_arms, list) or not raw_arms:
            raise ValueError("experiment arms must be a non-empty list")
        salt = payload.get("salt", "")
        if not isinstance(salt, str):
            raise ValueError("experiment salt must be a string")
        return cls(
            arms=tuple(ExperimentArm.from_dict(a) for a in raw_arms),
            salt=salt,
        )


def _unit_point(salt: str, session_id: str) -> float:
    """A uniform, process-independent point of ``[0, 1)`` for a session."""
    digest = hashlib.blake2b(
        session_id.encode("utf-8"),
        digest_size=8,
        key=salt.encode("utf-8")[:64],
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def parse_arms_spec(spec: str, salt: str = "") -> ExperimentConfig:
    """Parse the CLI arms syntax into a config.

    ``spec`` is comma-separated ``controller[=weight]`` entries, e.g.
    ``table=2,bola,bb=0.5``; an entry may name its arm separately from
    the controller as ``label:controller[=weight]`` (for A/A arms).
    """
    arms: List[ExperimentArm] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        weight = 1.0
        if "=" in entry:
            entry, raw_weight = entry.rsplit("=", 1)
            try:
                weight = float(raw_weight)
            except ValueError:
                raise ValueError(f"bad arm weight {raw_weight!r}") from None
        if ":" in entry:
            name, controller = entry.split(":", 1)
        else:
            name = controller = entry
        arms.append(
            ExperimentArm(name=name.strip(), controller=controller.strip(), weight=weight)
        )
    if not arms:
        raise ValueError(f"no arms in spec {spec!r}")
    return ExperimentConfig(arms=tuple(arms), salt=salt)
