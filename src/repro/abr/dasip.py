"""DAS-IP — an index policy for adaptive streaming (extension baseline).

Singh & Kumar (arXiv 1612.05864, listed in PAPERS.md) frame bitrate
adaptation as a restless-bandit scheduling problem and derive an *index
policy*: each quality level gets a scalar index combining its utility
with the rebuffer risk it would incur, and the player simply picks the
level with the largest index.  The attraction is the same as FastMPC's
table — the online step is a constant-time argmax — while still blending
buffer state, throughput prediction, and the previous decision (the full
Section 3.3 input set, unlike BB's buffer-only map).

The deterministic index implemented here, for level ``m`` at chunk ``k``
with buffer ``B``, prediction ``C_hat`` and previous level ``prev``:

    I_m = u_m - beta * max(0, s_m / C_hat - B) - gamma * |m - prev|

where ``u_m = ln(r_m / r_min)`` is the log-rate utility and ``s_m`` the
actual size of chunk ``k`` at level ``m`` (VBR-aware).  The middle term
is the predicted *rebuffer deficit*: the seconds by which the download
would outrun the buffer.  ``beta`` prices a second of predicted stall in
utility units; ``gamma`` is a mild switching tax.  The argmax is the
exact first-wins scan shared with BOLA (strict ``>``, no epsilon), so
the fleet batch twin is bit-identical by construction.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from ..prediction.base import ThroughputPredictor
from ..prediction.harmonic import HarmonicMeanPredictor
from .base import ABRAlgorithm, PlayerObservation

__all__ = ["DasIpAlgorithm"]


class DasIpAlgorithm(ABRAlgorithm):
    """The DAS-IP index policy over the manifest's ladder.

    Parameters
    ----------
    beta:
        Utility cost per second of predicted rebuffer deficit.
    gamma:
        Utility cost per ladder step of switching.
    predictor:
        Defaults to the paper-standard harmonic mean of the last 5 chunks.
    """

    name = "das-ip"

    def __init__(
        self,
        beta: float = 1.0,
        gamma: float = 0.05,
        predictor: Optional[ThroughputPredictor] = None,
    ) -> None:
        if beta < 0 or gamma < 0:
            raise ValueError("beta and gamma must be >= 0")
        self.beta = beta
        self.gamma = gamma
        self.predictor = (
            predictor if predictor is not None else HarmonicMeanPredictor()
        )

    def predictors(self) -> Iterable[ThroughputPredictor]:
        return (self.predictor,)

    def prepare(self, manifest, config) -> None:
        super().prepare(manifest, config)
        r_min = manifest.ladder.min_kbps
        self._utilities = [math.log(r / r_min) for r in manifest.ladder]

    def indices(self, observation: PlayerObservation) -> List[float]:
        """The per-level index values at a decision instant."""
        self._require_prepared()
        c_hat = self.predictor.predict(1)[0]
        buffer_s = observation.buffer_level_s
        prev = observation.prev_level_index
        if prev is None:
            prev = 0
        (sizes,) = self.manifest.chunk_size_rows(observation.chunk_index, 1)
        out = []
        for level, (utility, size) in enumerate(zip(self._utilities, sizes)):
            deficit = max(0.0, size / c_hat - buffer_s)
            switch = abs(level - prev)
            out.append(utility - self.beta * deficit - self.gamma * switch)
        return out

    def select_bitrate(self, observation: PlayerObservation) -> int:
        indices = self.indices(observation)
        best_level = 0
        best_score = -math.inf
        # Exact first-wins argmax, in lockstep with the fleet twin.
        for level, score in enumerate(indices):
            if score > best_score:
                best_score = score
                best_level = level
        return best_level
