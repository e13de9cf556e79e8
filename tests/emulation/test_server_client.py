"""The chunk server, the emulated client, and the harness."""

from __future__ import annotations

import math

import pytest

from repro.abr import ConstantLevelAlgorithm, SessionConfig
from repro.core.robust import RobustMPCController
from repro.emulation import (
    ChunkRequest,
    ChunkServer,
    EmulatedClient,
    EventQueue,
    NetworkProfile,
    SharedTraceLink,
    emulate_session,
    emulate_shared_link,
)
from repro.sim import StartupPolicy, simulate_session
from repro.traces import Trace
from repro.video import envivio


class TestChunkServer:
    def test_response_includes_header(self, envivio_manifest):
        server = ChunkServer(envivio_manifest, header_kilobits=4.0)
        assert server.response_kilobits(0, 0) == pytest.approx(4.0 * 350.0 + 4.0)

    def test_handle_request_logs(self, envivio_manifest):
        server = ChunkServer(envivio_manifest)
        size, delay = server.handle_request(ChunkRequest(0, 3, 2, 1.0))
        assert size == server.response_kilobits(3, 2)
        assert delay == server.processing_delay_s
        assert server.requests_served == 1
        assert server.requests_by_client() == {0: 1}

    def test_rejects_unknown_chunk(self, envivio_manifest):
        server = ChunkServer(envivio_manifest)
        with pytest.raises(ValueError):
            server.handle_request(ChunkRequest(0, 999, 0, 0.0))
        with pytest.raises(ValueError):
            server.handle_request(ChunkRequest(0, 0, 99, 0.0))

    def test_validation(self, envivio_manifest):
        with pytest.raises(ValueError):
            ChunkServer(envivio_manifest, header_kilobits=-1.0)
        with pytest.raises(ValueError):
            ChunkServer(envivio_manifest, processing_delay_s=-1.0)


IDEAL = NetworkProfile(
    rtt_s=0.0, header_kilobits=0.0, server_processing_delay_s=0.0, slow_start=False
)


class TestEmulateSession:
    def test_completes_all_chunks(self, envivio_manifest, constant_trace):
        session = emulate_session(
            ConstantLevelAlgorithm(0), constant_trace, envivio_manifest
        )
        assert len(session.records) == 65

    def test_ideal_network_matches_simulator(self, envivio_manifest, step_trace):
        """With zero RTT, zero overhead, and no slow start, the byte-level
        emulator degenerates to the chunk-level simulator exactly."""
        sim = simulate_session(
            ConstantLevelAlgorithm(1), step_trace, envivio_manifest
        )
        emu = emulate_session(
            ConstantLevelAlgorithm(1), step_trace, envivio_manifest,
            network=IDEAL,
        )
        assert emu.total_rebuffer_s == pytest.approx(sim.total_rebuffer_s, abs=1e-6)
        assert emu.startup_delay_s == pytest.approx(sim.startup_delay_s, abs=1e-6)
        assert emu.total_wall_time_s == pytest.approx(sim.total_wall_time_s, abs=1e-6)
        for a, b in zip(emu.records, sim.records):
            assert a.download_time_s == pytest.approx(b.download_time_s, abs=1e-9)

    def test_network_overheads_slow_things_down(self, envivio_manifest, constant_trace):
        ideal = emulate_session(
            ConstantLevelAlgorithm(1), constant_trace, envivio_manifest,
            network=IDEAL,
        )
        lossy = emulate_session(
            ConstantLevelAlgorithm(1), constant_trace, envivio_manifest,
            network=NetworkProfile(rtt_s=0.2, header_kilobits=8.0, slow_start=True),
        )
        assert lossy.total_wall_time_s > ideal.total_wall_time_s
        # Measured throughput carries the HTTP bias: below link capacity.
        measured = [r.throughput_kbps for r in lossy.records]
        assert max(measured) < 1500.0

    def test_fixed_startup_policy(self, envivio_manifest, constant_trace):
        session = emulate_session(
            ConstantLevelAlgorithm(0), constant_trace, envivio_manifest,
            network=IDEAL, startup_policy=StartupPolicy.FIXED,
            fixed_startup_delay_s=5.0,
        )
        assert session.startup_delay_s == pytest.approx(5.0)

    def test_fixed_startup_delay_rejected(self, envivio_manifest, constant_trace):
        """Refused before the first request, not when QoE is scored."""
        for delay in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="fixed startup delay"):
                emulate_session(
                    ConstantLevelAlgorithm(0), constant_trace, envivio_manifest,
                    network=IDEAL, startup_policy=StartupPolicy.FIXED,
                    fixed_startup_delay_s=delay,
                )

    class BadWait(ConstantLevelAlgorithm):
        def __init__(self, wait):
            super().__init__(0)
            self.wait = wait

        def select_startup_wait(self, observation):
            return self.wait

    def test_bad_startup_wait_rejected(self, envivio_manifest, constant_trace):
        for wait in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="startup wait"):
                emulate_session(
                    self.BadWait(wait), constant_trace, envivio_manifest,
                    network=IDEAL,
                )

    def test_mpc_runs_in_emulation(self, envivio_manifest, hsdpa_traces):
        session = emulate_session(
            RobustMPCController(), hsdpa_traces[0], envivio_manifest
        )
        assert len(session.records) == 65
        assert session.qoe().total == session.qoe().total  # finite


class TestSharedLinkEmulation:
    def test_two_players_complete(self, envivio_manifest):
        trace = Trace.constant(3000.0, 3000.0)
        results = emulate_shared_link(
            [ConstantLevelAlgorithm(1), ConstantLevelAlgorithm(1)],
            trace, envivio_manifest, network=IDEAL,
        )
        assert len(results) == 2
        for r in results:
            assert len(r.records) == 65

    def test_competition_reduces_throughput(self, envivio_manifest):
        trace = Trace.constant(2000.0, 3000.0)
        solo = emulate_session(
            ConstantLevelAlgorithm(2), trace, envivio_manifest, network=IDEAL
        )
        pair = emulate_shared_link(
            [ConstantLevelAlgorithm(2), ConstantLevelAlgorithm(2)],
            trace, envivio_manifest, network=IDEAL,
        )
        solo_tput = solo.metrics().average_throughput_kbps
        pair_tput = pair[0].metrics().average_throughput_kbps
        assert pair_tput < solo_tput

    def test_stagger_offsets_start(self, envivio_manifest):
        trace = Trace.constant(5000.0, 3000.0)
        results = emulate_shared_link(
            [ConstantLevelAlgorithm(0), ConstantLevelAlgorithm(0)],
            trace, envivio_manifest, network=IDEAL, start_stagger_s=7.0,
        )
        # Startup delays are relative to each client's own start time.
        assert results[0].startup_delay_s >= 0
        assert results[1].startup_delay_s >= 0

    def test_validation(self, envivio_manifest, constant_trace):
        with pytest.raises(ValueError):
            emulate_shared_link([], constant_trace, envivio_manifest)
        with pytest.raises(ValueError):
            emulate_shared_link(
                [ConstantLevelAlgorithm(0)], constant_trace, envivio_manifest,
                start_stagger_s=-1.0,
            )


class TestNetworkProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(rtt_s=-0.1)
        with pytest.raises(ValueError):
            NetworkProfile(header_kilobits=-1.0)
        with pytest.raises(ValueError):
            NetworkProfile(server_processing_delay_s=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["rtt_s", "header_kilobits", "server_processing_delay_s"]
    )
    def test_rejects_non_finite(self, field, bad):
        """A NaN or infinite timing used to hang ``emulate_session``."""
        with pytest.raises(ValueError, match="finite"):
            NetworkProfile(**{field: bad})


class TestNonFiniteTimings:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_server_rejects(self, envivio_manifest, bad):
        with pytest.raises(ValueError, match="finite"):
            ChunkServer(envivio_manifest, header_kilobits=bad)
        with pytest.raises(ValueError, match="finite"):
            ChunkServer(envivio_manifest, processing_delay_s=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_client_rejects_rtt(self, envivio_manifest, constant_trace, bad):
        queue = EventQueue()
        with pytest.raises(ValueError, match="RTT"):
            EmulatedClient(
                client_id=0,
                algorithm=ConstantLevelAlgorithm(0),
                manifest=envivio_manifest,
                config=SessionConfig(),
                queue=queue,
                link=SharedTraceLink(constant_trace, queue),
                server=ChunkServer(envivio_manifest),
                rtt_s=bad,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cross_traffic_rejects(self, bad):
        """Cross-traffic flows schedule their on/off switches on the
        event queue, so their times must be finite too."""
        from repro.arena import CrossTrafficSpec

        for times in ({"start_s": bad}, {"stop_s": bad}, {"period_s": bad}):
            with pytest.raises(ValueError, match="finite"):
                CrossTrafficSpec(label="x", rate_kbps=100.0, **times)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_arrival_schedules_reject(
        self, envivio_manifest, constant_trace, bad
    ):
        """Player arrivals are event times as well."""
        from repro.arena import ScheduleConfig

        for times in (
            {"mean_interarrival_s": bad},
            {"stagger_s": bad},
            {"flash_gap_s": bad},
            {"flash_spread_s": bad},
        ):
            with pytest.raises(ValueError, match="finite"):
                ScheduleConfig(players=2, **times)
        with pytest.raises(ValueError, match="finite"):
            emulate_shared_link(
                [ConstantLevelAlgorithm(0)] * 2, constant_trace,
                envivio_manifest, start_stagger_s=bad,
            )
