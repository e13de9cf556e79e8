"""RobustMPC — Section 4.3 and Theorem 1.

RobustMPC maximises the *worst-case* QoE over a throughput uncertainty
interval ``[C_lower, C_upper]`` instead of trusting a point estimate.
Theorem 1 proves the max-min problem collapses: only the rebuffering term
of the QoE depends on throughput, and it worsens monotonically as
throughput falls, so the inner minimum is attained at the lower bound.
Hence

.. math::  f_{robustmpc}(R_{k-1}, B_k, [\\underline{C}, \\bar C])
           = f_{mpc}(R_{k-1}, B_k, \\underline{C})

— regular MPC fed the lower bound.  The paper instantiates the bound from
recent prediction accuracy: ``C_lower = C_hat / (1 + err)`` with ``err``
the maximum absolute percentage error over the past 5 chunks
(Section 7.1.2, item 4).

:class:`RobustMPCController` implements exactly that: it subclasses
:class:`~repro.core.mpc.MPCController` and overrides only the
prediction-transformation hook, which *is* Theorem 1 in code.  Its
solves run on the same roll-out scratch as every other solve on the
thread (the kernel's per-thread evaluator), so replayed RobustMPC
sessions — startup wait grid included — allocate no roll-out arrays.
"""

from __future__ import annotations

from typing import List, Optional

from ..prediction.base import ThroughputPredictor
from .mpc import DEFAULT_HORIZON, MPCController

__all__ = ["RobustMPCController"]


class RobustMPCController(MPCController):
    """MPC on the throughput lower bound ``C_hat / (1 + err)``.

    Parameters
    ----------
    predictor / horizon / optimize_startup:
        As for :class:`MPCController`.
    error_window:
        How many recent chunks the max-error bound considers (paper: 5).
    error_floor:
        A minimum assumed error, useful to keep a safety margin even after
        a run of perfect predictions (0 reproduces the paper exactly).
    """

    name = "robust-mpc"

    def __init__(
        self,
        predictor: Optional[ThroughputPredictor] = None,
        horizon: int = DEFAULT_HORIZON,
        optimize_startup: bool = True,
        error_window: int = 5,
        error_floor: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if error_floor < 0:
            raise ValueError("error floor must be >= 0")
        super().__init__(
            predictor=predictor,
            horizon=horizon,
            optimize_startup=optimize_startup,
            error_window=error_window,
            name=name or self.name,
        )
        self.error_floor = error_floor

    def current_error_bound(self) -> float:
        """The ``err`` used for the next decision."""
        return max(self.error_tracker.max_recent_abs_error(), self.error_floor)

    def _transform_predictions(self, raw_kbps: List[float]) -> List[float]:
        err = self.current_error_bound()
        return [c / (1.0 + err) for c in raw_kbps]
