"""Perceived-quality functions ``q(.)``.

Section 3.1: ``q : R -> R+`` is a non-decreasing map from selected bitrate
to perceived quality.  The paper's evaluation assumes the identity function
(Section 7.1.1) but motivates device- and content-dependent alternatives
("on a mobile device 3 Mbps and 1 Mbps may look similar").  Each class here
is one such ``q``; all are callable on a bitrate in kbps.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

__all__ = [
    "QualityFunction",
    "IdentityQuality",
    "LogQuality",
    "SaturatingQuality",
    "PiecewiseLinearQuality",
]


class QualityFunction:
    """Base class; subclasses implement :meth:`value`."""

    name = "base"

    def value(self, bitrate_kbps: float) -> float:
        raise NotImplementedError

    def __call__(self, bitrate_kbps: float) -> float:
        if bitrate_kbps < 0:
            raise ValueError("bitrate must be >= 0")
        return self.value(bitrate_kbps)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class IdentityQuality(QualityFunction):
    """``q(R) = R`` — the paper's default (Section 7.1.1).

    With this choice the QoE weights are interpreted in kbps units: the
    default ``mu = 3000`` means one second of rebuffering costs as much as
    lowering one chunk by 3000 kbps.
    """

    name = "identity"

    def value(self, bitrate_kbps: float) -> float:
        return bitrate_kbps


class LogQuality(QualityFunction):
    """``q(R) = scale * log(R / R0)`` — diminishing returns at high rates.

    This is the quality model adopted by the paper's follow-on work
    (Pensieve's ``QoE_log``); ``R0`` is the bitrate at which quality is 0.
    """

    name = "log"

    def __init__(self, reference_kbps: float = 300.0, scale: float = 1000.0) -> None:
        if reference_kbps <= 0:
            raise ValueError("reference bitrate must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.reference_kbps = reference_kbps
        self.scale = scale

    def value(self, bitrate_kbps: float) -> float:
        if bitrate_kbps == 0:
            return -math.inf
        return self.scale * math.log(bitrate_kbps / self.reference_kbps)


class SaturatingQuality(QualityFunction):
    """``q(R) = cap * (1 - exp(-R / knee))`` — a small-screen device model.

    Implements the paper's mobile example: quality saturates, so 1 Mbps and
    3 Mbps are nearly indistinguishable when ``knee`` is small.
    """

    name = "saturating"

    def __init__(self, knee_kbps: float = 800.0, cap: float = 3000.0) -> None:
        if knee_kbps <= 0 or cap <= 0:
            raise ValueError("knee and cap must be positive")
        self.knee_kbps = knee_kbps
        self.cap = cap

    def value(self, bitrate_kbps: float) -> float:
        return self.cap * (1.0 - math.exp(-bitrate_kbps / self.knee_kbps))


class PiecewiseLinearQuality(QualityFunction):
    """Interpolated quality from explicit ``(bitrate, quality)`` anchors.

    Useful for content-dependent curves (the paper's "dynamic" vs "static"
    chunk observation) measured offline, e.g. from SSIM/VMAF tables.
    """

    name = "piecewise"

    def __init__(self, anchors: list) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchors")
        pts = sorted((float(r), float(q)) for r, q in anchors)
        rates = [r for r, _ in pts]
        quals = [q for _, q in pts]
        if len(set(rates)) != len(rates):
            raise ValueError("anchor bitrates must be distinct")
        if quals != sorted(quals):
            raise ValueError("quality must be non-decreasing in bitrate")
        self._rates = rates
        self._quals = quals

    def value(self, bitrate_kbps: float) -> float:
        rates, quals = self._rates, self._quals
        if bitrate_kbps <= rates[0]:
            return quals[0]
        if bitrate_kbps >= rates[-1]:
            return quals[-1]
        for i in range(1, len(rates)):
            if bitrate_kbps <= rates[i]:
                frac = (bitrate_kbps - rates[i - 1]) / (rates[i] - rates[i - 1])
                return quals[i - 1] + frac * (quals[i] - quals[i - 1])
        return quals[-1]  # pragma: no cover - unreachable


def as_quality_function(
    q: Optional[Union[QualityFunction, Callable[[float], float]]],
) -> QualityFunction:
    """Coerce plain callables (or None) to a :class:`QualityFunction`."""
    if q is None:
        return IdentityQuality()
    if isinstance(q, QualityFunction):
        return q

    class _Wrapped(QualityFunction):
        name = "wrapped"

        def value(self, bitrate_kbps: float) -> float:
            return q(bitrate_kbps)

    return _Wrapped()
