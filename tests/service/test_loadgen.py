"""Closed-loop load generator against an in-process server."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.abr.base import SessionConfig
from repro.abr.fixed import ConstantLevelAlgorithm
from repro.prediction.streaming import GapCorrectedHarmonicPredictor
from repro.service import (
    DecisionServer,
    DecisionService,
    LoadTestConfig,
    LoadTestReport,
    run_loadtest,
)
from repro.service.loadgen import _drive_session
from repro.service.protocol import DecisionResponse
from repro.sim.session import PlayerState, simulate_session
from repro.traces import Trace
from repro.video.manifest import BitrateLadder, VideoManifest

from .conftest import LADDER, make_test_table

# Live-server suites: each load test drives a real socket + event loop.
pytestmark = pytest.mark.slow


def small_config(**overrides) -> LoadTestConfig:
    fields = dict(
        sessions=6,
        chunks_per_session=10,
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


class TestLoadTest:
    def test_warm_server_all_table_decisions(self):
        service = DecisionService(LADDER, table=make_test_table())
        config = small_config()
        report = asyncio.run(loadtest_against(service, config))
        expected = config.sessions * config.chunks_per_session
        assert report.decisions == expected
        assert report.errors == 0
        assert report.sessions_completed == config.sessions
        assert report.sources.get("table", 0) == expected
        assert report.degraded == 0
        assert report.latency.count == expected
        assert report.throughput_dps > 0

    def test_cold_server_degrades_every_decision_without_errors(self):
        """The acceptance scenario: no table -> 100% fallback, 0 errors."""
        service = DecisionService(LADDER)  # no table
        config = small_config()
        report = asyncio.run(loadtest_against(service, config))
        expected = config.sessions * config.chunks_per_session
        assert report.errors == 0
        assert report.decisions == expected
        assert report.sessions_completed == config.sessions
        assert report.sources == {"fallback": expected}
        assert report.degraded == expected
        assert report.reasons == {"no-table": expected}

    def test_unreachable_server_completes_sessions_via_local_fallback(self):
        """The availability acceptance: server down -> every session
        still completes, served by the client-side rate-based rule."""
        config = small_config(sessions=2, chunks_per_session=2, deadline_s=0.2)
        report = asyncio.run(run_loadtest("127.0.0.1", 1, config))
        expected = config.sessions * config.chunks_per_session
        assert report.errors == expected  # every remote attempt failed
        assert report.local_fallbacks == expected
        assert report.decisions == expected
        assert report.sessions_completed == config.sessions
        assert report.sources == {"local": expected}

    def test_unreachable_server_without_fallback_reports_errors(self):
        config = small_config(
            sessions=2, chunks_per_session=2, deadline_s=0.2, local_fallback=False
        )
        report = asyncio.run(run_loadtest("127.0.0.1", 1, config))
        assert report.errors > 0
        assert report.local_fallbacks == 0
        assert report.sessions_completed == 0

    def test_explicit_traces_drive_session_count(self):
        service = DecisionService(LADDER, table=make_test_table())
        traces = [
            Trace([0.0], [1200.0], duration_s=60.0, name=f"t{i}")
            for i in range(4)
        ]
        config = small_config(sessions=6)  # overridden by explicit traces
        report = asyncio.run(loadtest_against_traces(service, config, traces))
        assert report.sessions_completed == len(traces)
        assert report.decisions == len(traces) * config.chunks_per_session

    def test_report_dict_schema(self):
        service = DecisionService(LADDER, table=make_test_table())
        report = asyncio.run(
            loadtest_against(service, small_config(sessions=2, chunks_per_session=3))
        )
        d = report.to_dict()
        assert set(d) == {
            "decisions", "errors", "degraded", "sessions_completed",
            "local_fallbacks", "wall_s", "throughput_dps", "sources",
            "reasons", "latency_us", "qoe_mean", "arms",
            "predictors", "prior_hits",
        }
        assert "decisions/s" in report.describe()
        assert report.qoe_mean != 0.0  # completed sessions were scored
        assert d["arms"] == {}  # no experiment on the server -> no arms

    def test_experiment_arms_rolled_up(self):
        from repro.service import ExperimentArm, ExperimentConfig

        experiment = ExperimentConfig(
            arms=(
                ExperimentArm("control", "table", weight=1.0),
                ExperimentArm("bola", "bola", weight=1.0),
            ),
            salt="loadgen-test",
        )
        service = DecisionService(
            LADDER, table=make_test_table(), experiment=experiment
        )
        config = small_config(sessions=12, chunks_per_session=5)
        report = asyncio.run(loadtest_against(service, config))
        assert report.errors == 0
        assert set(report.arms) <= {"control", "bola"}
        assert len(report.arms) == 2  # 12 hashed sessions cover both arms
        total = config.sessions * config.chunks_per_session
        assert sum(a["decisions"] for a in report.arms.values()) == total
        assert sum(a["sessions"] for a in report.arms.values()) == config.sessions
        for name, stats in report.arms.items():
            assert stats["qoe_count"] == stats["sessions"]
        d = report.to_dict()
        for name, stats in d["arms"].items():
            assert "qoe_mean" in stats
        assert "arm control:" in report.describe()
        assert "arm bola:" in report.describe()


async def loadtest_against_traces(service, config, traces):
    server = DecisionServer(service, port=0)
    await server.start()
    try:
        return await run_loadtest(
            "127.0.0.1", server.bound_port, config, traces=traces
        )
    finally:
        await server.close()


#: 1000 kbps for 30 s, then 2000 kbps: a 4 s chunk of 400 kbps (1600 kb)
#: downloads in 1.6 s at the start.
STEP_TRACE = Trace([0.0, 30.0], [1000.0, 2000.0], duration_s=60.0, name="t")


class ScriptedPool:
    """Stands in for the client pool: answers every request at once with
    one level and keeps the requests."""

    def __init__(self, level: int = 0) -> None:
        self.level = level
        self.requests = []

    async def decide(self, request):
        self.requests.append(request)
        return DecisionResponse(
            session_id=request.session_id,
            level_index=self.level,
            bitrate_kbps=LADDER[min(self.level, len(LADDER) - 1)],
            source="table",
        )


def play(pool, trace=STEP_TRACE, **overrides) -> None:
    """One load-generator session against ``pool``."""
    config = small_config(**overrides)
    manifest = VideoManifest.cbr(
        config.chunk_duration_s,
        BitrateLadder(config.ladder_kbps),
        config.chunks_per_session,
    )
    asyncio.run(
        _drive_session(pool, manifest, config, LoadTestReport(), 0, trace)
    )


@pytest.fixture
def finished(monkeypatch):
    """The SessionResult of every PlayerState that finishes."""
    results = []
    finish = PlayerState.finish

    def capture(self):
        result = finish(self)
        results.append(result)
        return result

    monkeypatch.setattr(PlayerState, "finish", capture)
    return results


class TestVirtualPlayer:
    """One session's requests and player step, against a scripted pool."""

    def test_first_request_uses_trace_start(self):
        pool = ScriptedPool()
        play(pool)
        first = pool.requests[0]
        assert first.predicted_kbps == 1000.0
        assert first.prev_level is None
        assert first.buffer_s == 0.0

    def test_harmonic_mean_prediction(self, finished):
        pool = ScriptedPool(level=2)
        play(pool)
        records = finished[0].records
        for k in range(1, len(records)):
            window = [r.throughput_kbps for r in records[max(0, k - 5) : k]]
            expected = len(window) / sum(1.0 / c for c in window)
            assert pool.requests[k].predicted_kbps == pytest.approx(expected)
        assert len({r.predicted_kbps for r in pool.requests}) > 2

    def test_buffer_dynamics(self, finished):
        pool = ScriptedPool(level=0)
        play(pool, chunks_per_session=2)
        first = finished[0].records[0]
        # 1600 kb at 1000 kbps is a 1.6 s download, counted as startup
        # delay; the buffer gains one chunk duration.
        assert first.wall_time_end_s == pytest.approx(1.6)
        assert first.rebuffer_s == 0.0
        assert finished[0].startup_delay_s == pytest.approx(1.6)
        second = pool.requests[1]
        assert second.buffer_s == pytest.approx(4.0)
        assert second.prev_level == 0

    def test_buffer_respects_capacity(self, finished):
        """A full buffer waits (Eq. 4) instead of dropping content, and
        the wait advances the session's trace clock."""
        pool = ScriptedPool(level=0)
        play(pool, chunks_per_session=20, buffer_capacity_s=10.0)
        assert max(r.buffer_s for r in pool.requests) <= 10.0
        records = finished[0].records
        assert max(r.buffer_after_s for r in records) <= 10.0
        assert sum(r.waited_s for r in records) > 0
        # 20 chunks of 4 s with at most 10 s buffered: the last one
        # cannot finish before 70 s of trace time.
        assert records[-1].wall_time_end_s >= 20 * 4.0 - 10.0

    def test_decision_clamped_to_ladder(self, finished):
        pool = ScriptedPool(level=99)
        play(pool, chunks_per_session=2)
        assert pool.requests[1].prev_level == len(LADDER) - 1
        assert finished[0].level_indices == [len(LADDER) - 1] * 2

    def test_errors_recorded_for_robust_requests(self, finished):
        pool = ScriptedPool(level=1)
        play(pool, chunks_per_session=8)
        requests, records = pool.requests, finished[0].records
        assert requests[0].past_errors == ()
        for k in range(1, len(requests)):
            expected = [
                (requests[j].predicted_kbps - records[j].throughput_kbps)
                / records[j].throughput_kbps
                for j in range(max(0, k - 5), k)
            ]
            assert list(requests[k].past_errors) == pytest.approx(expected)

    def test_oracle_predicts_at_the_request_instant(self, finished):
        pool = ScriptedPool(level=2)
        play(pool, predictors=("oracle",))
        records = finished[0].records
        for k in range(1, len(records)):
            t = records[k - 1].wall_time_end_s
            assert pool.requests[k].predicted_kbps == pytest.approx(
                STEP_TRACE.average_kbps_between(t, t + 4.0)
            )

    def test_gap_corrected_predictor_sees_idle_gaps(self, finished, monkeypatch):
        observed = []
        observe = GapCorrectedHarmonicPredictor.observe

        def capture(self, observation):
            observed.append(observation)
            observe(self, observation)

        monkeypatch.setattr(GapCorrectedHarmonicPredictor, "observe", capture)
        pool = ScriptedPool(level=0)
        play(
            pool,
            chunks_per_session=12,
            buffer_capacity_s=10.0,
            predictors=("gap-harmonic",),
        )
        records = finished[0].records
        assert [o.idle_s for o in observed] == [r.idle_before_s for r in records]
        first_idle = next(k for k, o in enumerate(observed) if o.idle_s > 0)
        # Idle time is the Eq. 4 wait after the buffer filled.
        assert records[first_idle - 1].buffer_after_s == 10.0
        assert records[first_idle - 1].waited_s == observed[first_idle].idle_s


class TestPlayerParity:
    def test_session_matches_the_simulator(self, finished):
        """On a constant 1200 kbps trace a cold server answers level 1
        every chunk; the session is the simulator's, record for record."""
        service = DecisionService(LADDER)  # no table: rate-based fallback
        trace = Trace.constant(1200.0, 60.0, name="flat")
        config = small_config(chunks_per_session=15, buffer_capacity_s=12.0)
        report = asyncio.run(loadtest_against_traces(service, config, [trace]))
        assert report.errors == 0
        assert report.sources == {"fallback": 15}
        (session,) = finished
        expected = simulate_session(
            ConstantLevelAlgorithm(1),
            trace,
            VideoManifest.cbr(4.0, BitrateLadder(LADDER), 15),
            SessionConfig(buffer_capacity_s=12.0),
        )
        assert session.level_indices == [1] * 15
        assert session.records == expected.records
        assert session.startup_delay_s == expected.startup_delay_s
        assert any(r.waited_s > 0 for r in session.records)
        assert report.qoe_mean == expected.qoe().total

    def test_oracle_predictor_runs(self):
        service = DecisionService(LADDER, table=make_test_table())
        config = small_config(predictors=("oracle",))
        report = asyncio.run(loadtest_against(service, config))
        assert report.errors == 0
        assert report.sessions_completed == config.sessions
        assert report.predictors["oracle"]["sessions"] == config.sessions


class TestReportRendering:
    def test_to_dict_and_describe_are_pinned(self):
        report = LoadTestReport(
            decisions=12, errors=1, degraded=3, sessions_completed=2,
            local_fallbacks=1, wall_s=0.5,
            sources={"table": 9, "fallback": 2, "local": 1},
            reasons={"no-table": 3}, qoe_sum=150.5, qoe_count=2, prior_hits=4,
        )
        report.latency.observe(120.0)
        report.latency.observe(480.0)
        report.arm_stats("control").update(
            decisions=7, degraded=1, sessions=2, qoe_sum=150.5, qoe_count=2
        )
        report.arm_stats("bola")["decisions"] = 5
        report.predictor_stats("harmonic").update(
            decisions=8, sessions=2, qoe_sum=150.5, qoe_count=2
        )
        report.predictor_stats("oracle")["decisions"] = 4
        assert json.dumps(report.to_dict()) == (
            '{"decisions": 12, "errors": 1, "degraded": 3, '
            '"sessions_completed": 2, "local_fallbacks": 1, "wall_s": 0.5, '
            '"throughput_dps": 24.0, '
            '"sources": {"table": 9, "fallback": 2, "local": 1}, '
            '"reasons": {"no-table": 3}, '
            '"latency_us": {"bounds_us": [50.0, 100.0, 200.0, 500.0, 1000.0, '
            "2000.0, 2500.0, 3000.0, 4000.0, 5000.0, 10000.0, 25000.0, "
            '50000.0, 100000.0], '
            '"counts": [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
            '"count": 2, '
            '"sum_us": 600.0, "mean_us": 300.0, "max_us": 480.0, '
            '"p50_us": 200.0, "p99_us": 480.0}, '
            '"qoe_mean": 75.25, "prior_hits": 4, '
            '"predictors": {"harmonic": {"decisions": 8, "sessions": 2, '
            '"qoe_sum": 150.5, "qoe_count": 2, "qoe_mean": 75.25}, '
            '"oracle": {"decisions": 4, "sessions": 0, "qoe_sum": 0.0, '
            '"qoe_count": 0, "qoe_mean": 0.0}}, '
            '"arms": {"bola": {"decisions": 5, "degraded": 0, "sessions": 0, '
            '"qoe_sum": 0.0, "qoe_count": 0, "qoe_mean": 0.0}, '
            '"control": {"decisions": 7, "degraded": 1, "sessions": 2, '
            '"qoe_sum": 150.5, "qoe_count": 2, "qoe_mean": 75.25}}}'
        )
        assert report.describe() == "\n".join(
            [
                "decisions 12 in 0.50s -> 24 decisions/s",
                "latency p50 200 us | p95 470 us | p99 480 us",
                "sources {'table': 9, 'fallback': 2, 'local': 1}"
                " | degraded 3 | errors 1",
                "sessions completed 2 | mean QoE 75.2",
                "local fallbacks 1",
                "degradation reasons {'no-table': 3}",
                "prior-carrying responses 4",
                "predictor harmonic: 8 decisions | 2 sessions | mean QoE 75.2",
                "predictor oracle: 4 decisions | 0 sessions | mean QoE 0.0",
                "arm bola: 5 decisions | 0 sessions | degraded 0 | mean QoE 0.0",
                "arm control: 7 decisions | 2 sessions | degraded 1"
                " | mean QoE 75.2",
            ]
        )


class TestLoadTestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadTestConfig(sessions=0)
        with pytest.raises(ValueError):
            LoadTestConfig(concurrency=0)
        with pytest.raises(ValueError):
            LoadTestConfig(ladder_kbps=())
