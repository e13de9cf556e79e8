"""Conformance suite for the streaming-aware (gap-corrected) predictors.

Pins the three exact-equality contracts of
:mod:`repro.prediction.streaming` — degradation, idle invariance,
boundedness — plus scale-equivariance.

Exactness notes: scale-equivariance is tested with power-of-two factors
only.  Multiplying IEEE-754 doubles by ``2**k`` changes just the
exponent, so scaling commutes with every rounding step of the harmonic
and EWMA aggregations and the property holds with ``==`` — which is the
point: the predictors may not contain any expression that breaks it.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.prediction import (
    EWMAPredictor,
    GapCorrectedEWMAPredictor,
    GapCorrectedHarmonicPredictor,
    HarmonicMeanPredictor,
    make_predictor,
)
from repro.prediction.base import ThroughputObservation

GAP_FACTORIES = {
    "gap-harmonic": GapCorrectedHarmonicPredictor,
    "gap-ewma": GapCorrectedEWMAPredictor,
}

# (throughput_kbps, duration_s, stall_fraction) triples; a zero fraction
# is a gap-free sample, anything else stalls that share of the window.
samples_st = st.lists(
    st.tuples(
        st.floats(1.0, 50_000.0),
        st.floats(0.1, 30.0),
        st.one_of(st.just(0.0), st.floats(0.01, 0.95)),
    ),
    min_size=1,
    max_size=20,
)


def observe_stream(predictor, stream, scale=1.0):
    for throughput, duration, stall_fraction in stream:
        predictor.observe_kbps(
            throughput * scale, duration, stall_s=stall_fraction * duration
        )


# ----------------------------------------------------------------------
# Scale-equivariance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GAP_FACTORIES), ids=str)
@pytest.mark.parametrize("robust_discount", (0.0, 0.25))
@given(stream=samples_st, k=st.integers(-8, 8))
def test_scale_equivariance_power_of_two(name, robust_discount, stream, k):
    """Scaling every throughput by 2**k scales the prediction by exactly
    2**k — bit-for-bit, since power-of-two scaling commutes with IEEE
    rounding."""
    factor = 2.0 ** k
    base = GAP_FACTORIES[name](robust_discount=robust_discount)
    scaled = GAP_FACTORIES[name](robust_discount=robust_discount)
    observe_stream(base, stream)
    observe_stream(scaled, stream, scale=factor)
    assert scaled.current_estimate() == base.current_estimate() * factor
    assert scaled.predict(3) == [v * factor for v in base.predict(3)]


# ----------------------------------------------------------------------
# Idle-gap invariance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GAP_FACTORIES), ids=str)
@given(
    stream=samples_st,
    idles=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
)
def test_idle_time_never_changes_predictions(name, stream, idles):
    """Idle time between transfers — zero-length or hours — informs the
    idle_gap_fraction diagnostic only; predictions are untouched."""
    plain = GAP_FACTORIES[name]()
    gapped = GAP_FACTORIES[name]()
    observe_stream(plain, stream)
    for i, (throughput, duration, stall_fraction) in enumerate(stream):
        gapped.observe_idle(idles[i % len(idles)])
        gapped.observe_kbps(
            throughput,
            duration,
            idle_s=idles[(i + 1) % len(idles)],
            stall_s=stall_fraction * duration,
        )
    assert gapped.current_estimate() == plain.current_estimate()


@pytest.mark.parametrize("name", sorted(GAP_FACTORIES), ids=str)
def test_zero_length_idle_gap_is_a_no_op(name):
    """An explicit observe_idle(0.0) is indistinguishable from not
    calling it at all — including in the diagnostic."""
    a = GAP_FACTORIES[name]()
    b = GAP_FACTORIES[name]()
    for step in range(6):
        b.observe_idle(0.0)
        x = 500.0 + 100.0 * step
        a.observe_kbps(x, 2.0, stall_s=0.5 if step % 2 else 0.0)
        b.observe_kbps(x, 2.0, stall_s=0.5 if step % 2 else 0.0)
    assert a.current_estimate() == b.current_estimate()
    assert a.idle_gap_fraction() == b.idle_gap_fraction()


# ----------------------------------------------------------------------
# Boundedness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GAP_FACTORIES), ids=str)
@pytest.mark.parametrize("robust_discount", (0.0, 0.25))
@given(stream=samples_st)
def test_bounded_by_observed_active_rates(name, robust_discount, stream):
    """Whenever a correction engaged (a stall in the window, or any
    robust discount), the estimate sits inside the closed range of
    observed active rates."""
    predictor = GAP_FACTORIES[name](robust_discount=robust_discount)
    active_rates = []
    for throughput, duration, stall_fraction in stream:
        stall = stall_fraction * duration
        predictor.observe_kbps(throughput, duration, stall_s=stall)
        active_rates.append(
            ThroughputObservation(
                throughput, duration, stall_s=stall
            ).active_kbps
        )
    window = getattr(predictor, "window", None)
    windowed = active_rates[-window:] if window else active_rates
    engaged = robust_discount > 0.0 or any(
        0.0 < frac * dur < dur for _, dur, frac in (
            stream[-window:] if window else stream
        )
    )
    if engaged:
        assert min(windowed) <= predictor.current_estimate() <= max(windowed)


def test_stall_recovers_active_rate_exactly():
    """1000 kbps measured over 4 s of which 2 s stalled is a 2000 kbps
    link; a window of such samples must predict exactly that."""
    for predictor in (GapCorrectedHarmonicPredictor(), GapCorrectedEWMAPredictor()):
        for _ in range(5):
            predictor.observe_kbps(1000.0, 4.0, stall_s=2.0)
        assert predictor.current_estimate() == 2000.0


# ----------------------------------------------------------------------
# Exact degradation
# ----------------------------------------------------------------------


@given(stream=samples_st)
def test_gap_free_harmonic_degrades_exactly(stream):
    plain = HarmonicMeanPredictor()
    gap = GapCorrectedHarmonicPredictor()
    for throughput, duration, _ in stream:
        plain.observe_kbps(throughput)
        gap.observe_kbps(throughput, duration)
        assert gap.current_estimate() == plain.current_estimate()
        assert gap.predict(5) == plain.predict(5)


@given(stream=samples_st)
def test_gap_free_ewma_degrades_exactly(stream):
    plain = EWMAPredictor()
    gap = GapCorrectedEWMAPredictor()
    for throughput, duration, _ in stream:
        plain.observe_kbps(throughput)
        gap.observe_kbps(throughput, duration)
        assert gap.predict(1) == plain.predict(1)


@given(stream=samples_st)
def test_full_window_stall_then_degradation_is_not_sticky_harmonic(stream):
    """Once stalled samples age out of the harmonic window, the
    degradation contract re-engages: estimates equal the plain
    predictor's again, bit for bit."""
    plain = HarmonicMeanPredictor()
    gap = GapCorrectedHarmonicPredictor()
    gap.observe_kbps(700.0, 4.0, stall_s=1.0)  # a corrected sample
    for throughput, duration, _ in stream:
        plain.observe_kbps(throughput)
        gap.observe_kbps(throughput, duration)
    if len(stream) >= gap.window:
        assert gap.current_estimate() == plain.current_estimate()


# ----------------------------------------------------------------------
# Diagnostics + registry
# ----------------------------------------------------------------------


def test_idle_gap_fraction_accounting():
    predictor = GapCorrectedHarmonicPredictor()
    assert predictor.idle_gap_fraction() == 0.0
    predictor.observe_kbps(1000.0, 4.0, idle_s=1.0, stall_s=2.0)
    # (idle + stall) / (busy + idle) = (1 + 2) / (4 + 1)
    assert predictor.idle_gap_fraction() == 3.0 / 5.0


def test_reset_clears_correction_state():
    predictor = GapCorrectedEWMAPredictor()
    predictor.observe_kbps(1000.0, 4.0, idle_s=3.0, stall_s=2.0)
    predictor.reset()
    assert predictor.idle_gap_fraction() == 0.0
    assert predictor.predict(1) == [predictor.cold_start_kbps]
    # post-reset gap-free traffic is back on the pure path
    plain = EWMAPredictor()
    plain.observe_kbps(640.0)
    predictor.observe_kbps(640.0, 2.0)
    assert predictor.predict(1) == plain.predict(1)


@pytest.mark.parametrize(
    "name", ("gap-harmonic", "gap-ewma", "gap-harmonic-robust"), ids=str
)
def test_registry_constructs_working_predictor(name):
    predictor = make_predictor(name)
    for step in range(4):
        predictor.observe_kbps(900.0 + step, 3.0, stall_s=0.25)
    forecast = predictor.predict(4)
    assert len(forecast) == 4
    assert all(v > 0 for v in forecast)


@pytest.mark.parametrize("factory", tuple(GAP_FACTORIES.values()))
def test_invalid_parameters_rejected(factory):
    with pytest.raises(ValueError):
        factory(robust_discount=-0.1)
    with pytest.raises(ValueError):
        factory(cold_start_kbps=0.0)

