"""Lockstep parity: the scalar gap-corrected predictor vs its batch twin.

The fleet's exactness doctrine applies to predictors too: feeding the
same sample stream (throughput, download time, stall) to a scalar
``GapCorrectedHarmonicPredictor`` and to one row of its vectorized twin
must produce bit-identical estimates at every step — ``==`` on floats,
no tolerances.  The twin has no robust discount: ``fastmpc-gap``, the
one fleet controller that builds it, uses none.  Each batch row carries an
independent stream, so the lockstep matrices cannot leak state sideways.
"""

from __future__ import annotations

import random

import numpy as np

from repro.fleet.controllers import _BatchGapHarmonic
from repro.prediction.streaming import GapCorrectedHarmonicPredictor


def make_streams(n_rows, n_steps, seed, stall_every=3):
    """Per-row (throughput, duration, stall) sequences; every
    ``stall_every``-th sample carries an in-window stall, the rest are
    gap-free so both the corrected and the pure path stay exercised."""
    rng = random.Random(seed)
    streams = []
    for _ in range(n_rows):
        rows = []
        for step in range(n_steps):
            duration = rng.uniform(0.5, 6.0)
            if stall_every and step % stall_every == 1:
                stall = rng.uniform(0.05, 0.9) * duration
            else:
                stall = 0.0
            throughput = rng.uniform(80.0, 4000.0)
            rows.append((throughput, duration, stall))
        streams.append(rows)
    return streams


def assert_lockstep(scalar_factory, batch, streams, n_steps):
    """Drive scalars and the batch twin through identical samples and
    compare every row's estimate at every step with ``==``."""
    scalars = [scalar_factory() for _ in streams]
    for step in range(n_steps):
        batch_est = batch.estimate()
        for i, predictor in enumerate(scalars):
            assert float(batch_est[i]) == predictor.current_estimate(), (
                f"row {i} diverged at step {step}"
            )
        column = [stream[step] for stream in streams]
        throughput = np.asarray([c[0] for c in column])
        duration = np.asarray([c[1] for c in column])
        stall = np.asarray([c[2] for c in column])
        batch.observe(throughput, duration, stall)
        for predictor, (x, d, s) in zip(scalars, column):
            predictor.observe_kbps(x, d, stall_s=s)
    final = batch.estimate()
    for i, predictor in enumerate(scalars):
        assert float(final[i]) == predictor.current_estimate()


N_ROWS, N_STEPS = 8, 24


def test_gap_harmonic_twin_lockstep():
    streams = make_streams(N_ROWS, N_STEPS, seed=101)
    assert_lockstep(
        GapCorrectedHarmonicPredictor, _BatchGapHarmonic(N_ROWS), streams, N_STEPS
    )


def test_gap_free_streams_degrade_to_plain_twins():
    """With no stalls anywhere, the gap twins must equal the plain
    harmonic window bit for bit (the batch side of the scalar
    degradation contract)."""
    from repro.fleet.controllers import _BatchHarmonic

    streams = make_streams(N_ROWS, N_STEPS, seed=303, stall_every=0)
    gap = _BatchGapHarmonic(N_ROWS)
    plain = _BatchHarmonic(N_ROWS)
    for step in range(N_STEPS):
        assert list(gap.estimate()) == list(plain.estimate())
        column = [stream[step] for stream in streams]
        throughput = np.asarray([c[0] for c in column])
        duration = np.asarray([c[1] for c in column])
        stall = np.zeros(N_ROWS)
        gap.observe(throughput, duration, stall)
        plain.observe(throughput)
    assert list(gap.estimate()) == list(plain.estimate())


def test_stalled_rows_estimate_above_wall_rate():
    """A row whose downloads always stall half the window must estimate
    double the wall rate; a gap-free row must stay at the wall rate."""
    batch = _BatchGapHarmonic(2)
    for _ in range(5):
        batch.observe(
            np.asarray([1000.0, 1000.0]),
            np.asarray([4.0, 4.0]),
            np.asarray([2.0, 0.0]),
        )
    est = batch.estimate()
    assert float(est[0]) == 2000.0
    assert float(est[1]) == 1000.0
