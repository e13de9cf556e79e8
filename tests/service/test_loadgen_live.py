"""Open-loop (live/low-latency) load generation and predictor routing.

The arrival schedule is a pure function of the config — deterministic by
construction, pinned here with ``==`` — and the driven runs assert the
routing invariants: every configured predictor takes traffic, and
family-keyed sessions hit the server's shared prior.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    DecisionServer,
    DecisionService,
    LoadTestConfig,
    ServiceClient,
    run_loadtest,
)
from repro.service.loadgen import open_loop_arrivals

from .conftest import LADDER, make_test_table


def small_config(**overrides) -> LoadTestConfig:
    fields = dict(
        sessions=6,
        chunks_per_session=8,
        concurrency=3,
        dataset="synthetic",
        seed=7,
        trace_duration_s=60.0,
        ladder_kbps=LADDER,
    )
    fields.update(overrides)
    return LoadTestConfig(**fields)


async def loadtest_against(service, config):
    server = DecisionServer(service, port=0)
    await server.start()
    try:
        return await run_loadtest("127.0.0.1", server.bound_port, config)
    finally:
        await server.close()


class TestOpenLoopArrivals:
    def test_deterministic_and_exact_count(self):
        config = small_config(
            sessions=40, open_loop=True, arrival_rate_hz=50.0
        )
        first = open_loop_arrivals(config)
        assert len(first) == 40
        assert first == open_loop_arrivals(config)  # same config, same schedule
        assert first == sorted(first)

    def test_constant_rate_spacing(self):
        config = small_config(
            sessions=10, open_loop=True, arrival_rate_hz=10.0
        )
        times = open_loop_arrivals(config)
        # 10 arrivals/s -> one per 100 ms of integrated credit
        gaps = [b - a for a, b in zip(times, times[1:])]
        for gap in gaps:
            assert gap == pytest.approx(0.1, abs=0.02)

    def test_diurnal_modulation_shifts_arrivals(self):
        flat = small_config(sessions=30, open_loop=True, arrival_rate_hz=10.0)
        wavy = small_config(
            sessions=30,
            open_loop=True,
            arrival_rate_hz=10.0,
            diurnal_amplitude=0.9,
            diurnal_period_s=4.0,
        )
        flat_times = open_loop_arrivals(flat)
        wavy_times = open_loop_arrivals(wavy)
        assert flat_times != wavy_times
        # the sinusoid's first half-period runs above the base rate, so
        # early arrivals come faster than the flat schedule's
        assert wavy_times[10] < flat_times[10]

    def test_burst_injects_a_flash_crowd(self):
        config = small_config(
            sessions=20,
            open_loop=True,
            arrival_rate_hz=5.0,
            burst_at_s=1.0,
            burst_sessions=8,
        )
        times = open_loop_arrivals(config)
        assert len(times) == 20
        assert sum(1 for t in times if t == 1.0) >= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(arrival_rate_hz=0.0)
        with pytest.raises(ValueError):
            small_config(diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            small_config(diurnal_period_s=0.0)
        with pytest.raises(ValueError):
            small_config(burst_sessions=-1)
        with pytest.raises(ValueError):
            small_config(burst_at_s=-0.5)
        with pytest.raises(ValueError):
            small_config(family="fcc", protocol="binary")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        [
            "arrival_rate_hz",
            "diurnal_period_s",
            "trace_duration_s",
            "deadline_s",
            "chunk_duration_s",
            "buffer_capacity_s",
            "burst_at_s",
        ],
    )
    def test_rejects_non_finite_timings(self, name, bad):
        """Refused at construction: a NaN rate or period would leave
        ``open_loop_arrivals`` spinning forever."""
        with pytest.raises(ValueError, match=name):
            small_config(open_loop=True, **{name: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_client_rejects_bad_deadline(self, bad):
        with pytest.raises(ValueError, match="deadline"):
            ServiceClient("127.0.0.1", 1, deadline_s=bad)


@pytest.mark.slow
class TestOpenLoopRuns:
    def test_open_loop_completes_every_arrived_session(self):
        service = DecisionService(LADDER, table=make_test_table())
        config = small_config(
            open_loop=True, arrival_rate_hz=200.0, concurrency=8
        )
        report = asyncio.run(loadtest_against(service, config))
        assert report.errors == 0
        assert report.sessions_completed == config.sessions
        assert report.decisions == config.sessions * config.chunks_per_session

    def test_burst_mode_still_serves_everything(self):
        service = DecisionService(LADDER, table=make_test_table())
        config = small_config(
            open_loop=True,
            arrival_rate_hz=100.0,
            burst_at_s=0.0,
            burst_sessions=4,
        )
        report = asyncio.run(loadtest_against(service, config))
        assert report.sessions_completed == config.sessions
        assert report.errors == 0


@pytest.mark.slow
class TestPredictorRouting:
    def test_every_predictor_takes_traffic(self):
        service = DecisionService(LADDER, table=make_test_table())
        names = ("harmonic", "gap-harmonic", "ewma")
        config = small_config(sessions=6, predictors=names)
        report = asyncio.run(loadtest_against(service, config))
        assert report.errors == 0
        assert set(report.predictors) == set(names)
        for name in names:
            stats = report.predictors[name]
            assert stats["sessions"] == 2  # 6 sessions round-robin over 3
            assert stats["decisions"] == 2 * config.chunks_per_session
            assert stats["qoe_count"] == stats["sessions"]
        doc = report.to_dict()
        for name in names:
            assert "qoe_mean" in doc["predictors"][name]

    def test_family_keyed_sessions_hit_the_shared_prior(self):
        service = DecisionService(LADDER, table=make_test_table())
        config = small_config(family="fcc")
        report = asyncio.run(loadtest_against(service, config))
        assert report.errors == 0
        assert report.prior_hits > 0
        priors = service.metrics_document()["priors"]
        assert "fcc" in priors["families"]
        assert priors["samples_total"] == config.sessions * config.chunks_per_session

    def test_no_family_means_no_prior_hits(self):
        service = DecisionService(LADDER, table=make_test_table())
        report = asyncio.run(loadtest_against(service, small_config()))
        assert report.prior_hits == 0
        assert service.metrics_document()["priors"]["samples_total"] == 0
