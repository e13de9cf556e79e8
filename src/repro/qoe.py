"""The QoE model of Section 3.2 (Eq. 5).

QoE of chunks 1..K is a weighted sum of four elements:

.. math::

    QoE = \\sum_k q(R_k)
          - \\lambda \\sum_k |q(R_{k+1}) - q(R_k)|
          - \\mu \\sum_k (d_k(R_k)/C_k - B_k)_+
          - \\mu_s T_s

with non-negative weights: ``lambda`` for quality variation, ``mu`` for
rebuffering time, ``mu_s`` for startup delay.  The paper's default is the
"Balanced" preset (lambda=1, mu=mu_s=3000 with identity ``q``): one second
of rebuffering or startup costs as much as lowering one chunk by 3000 kbps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .video.quality import IdentityQuality, QualityFunction

__all__ = ["QoEWeights", "QoEBreakdown", "compute_qoe"]


@dataclass(frozen=True)
class QoEWeights:
    """The (lambda, mu, mu_s) weight vector of Eq. 5."""

    switching: float = 1.0  # lambda — quality-variation penalty
    rebuffering: float = 3000.0  # mu — per second of stall
    startup: float = 3000.0  # mu_s — per second of startup delay
    label: str = "balanced"

    def __post_init__(self) -> None:
        weights = (self.switching, self.rebuffering, self.startup)
        if not all(math.isfinite(w) for w in weights):
            # A NaN weight would score every plan NaN (an all-zero table,
            # an arbitrary online plan); an infinite one turns 0 * inf
            # into NaN the same way.
            raise ValueError("QoE weights must be finite")
        if min(weights) < 0:
            raise ValueError("QoE weights must be non-negative")

    # The three preference profiles evaluated in Figure 11b.

    @staticmethod
    def balanced() -> "QoEWeights":
        """lambda=1, mu=mu_s=3000 — the paper's default."""
        return QoEWeights(1.0, 3000.0, 3000.0, label="balanced")

    @staticmethod
    def avoid_instability() -> "QoEWeights":
        """lambda=3, mu=mu_s=3000 — smoothness-sensitive users."""
        return QoEWeights(3.0, 3000.0, 3000.0, label="avoid-instability")

    @staticmethod
    def avoid_rebuffering() -> "QoEWeights":
        """lambda=1, mu=mu_s=6000 — stall-sensitive users."""
        return QoEWeights(1.0, 6000.0, 6000.0, label="avoid-rebuffering")

    @staticmethod
    def preset(name: str) -> "QoEWeights":
        presets = {
            "balanced": QoEWeights.balanced,
            "avoid-instability": QoEWeights.avoid_instability,
            "avoid-rebuffering": QoEWeights.avoid_rebuffering,
        }
        try:
            return presets[name]()
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {sorted(presets)}"
            ) from None


@dataclass(frozen=True)
class QoEBreakdown:
    """Eq. 5 evaluated term by term."""

    quality_total: float
    switching_total: float  # sum of |q(R_{k+1}) - q(R_k)|, unweighted
    rebuffer_seconds: float
    startup_seconds: float
    weights: QoEWeights

    @property
    def total(self) -> float:
        w = self.weights
        return (
            self.quality_total
            - w.switching * self.switching_total
            - w.rebuffering * self.rebuffer_seconds
            - w.startup * self.startup_seconds
        )

    def reweighted(self, weights: QoEWeights) -> "QoEBreakdown":
        """The same session scored under different user preferences."""
        return QoEBreakdown(
            self.quality_total,
            self.switching_total,
            self.rebuffer_seconds,
            self.startup_seconds,
            weights,
        )

    def without_startup(self) -> "QoEBreakdown":
        """QoE excluding the startup term (the Figure 11d convention)."""
        return QoEBreakdown(
            self.quality_total,
            self.switching_total,
            self.rebuffer_seconds,
            0.0,
            self.weights,
        )


def compute_qoe(
    bitrates_kbps: Sequence[float],
    rebuffer_seconds: float,
    startup_seconds: float = 0.0,
    weights: Optional[QoEWeights] = None,
    quality: Optional[QualityFunction] = None,
) -> QoEBreakdown:
    """Evaluate Eq. 5 for a completed (or partial) session.

    Parameters
    ----------
    bitrates_kbps:
        Chosen per-chunk bitrates ``R_1..R_K`` in playback order.
    rebuffer_seconds:
        Total stall time ``sum_k (d_k/C_k - B_k)_+``.
    startup_seconds:
        Startup delay ``T_s``.
    """
    if not bitrates_kbps:
        raise ValueError("need at least one chunk")
    if rebuffer_seconds < 0 or startup_seconds < 0:
        raise ValueError("rebuffer and startup times must be >= 0")
    weights = weights if weights is not None else QoEWeights.balanced()
    q = quality if quality is not None else IdentityQuality()
    values = [q(r) for r in bitrates_kbps]
    quality_total = sum(values)
    switching_total = sum(abs(b - a) for a, b in zip(values, values[1:]))
    return QoEBreakdown(
        quality_total=quality_total,
        switching_total=switching_total,
        rebuffer_seconds=rebuffer_seconds,
        startup_seconds=startup_seconds,
        weights=weights,
    )
