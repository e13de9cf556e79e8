"""Cross-backend consistency: simulator vs byte-level emulator.

The paper runs its main comparison on a testbed and its sensitivity study
on a simulator, implicitly assuming the two agree; here that assumption is
a tested property of our pipeline.
"""

from __future__ import annotations

import pytest

from repro.abr import create, paper_algorithms
from repro.emulation import NetworkProfile, emulate_session
from repro.experiments import median, run_matrix
from repro.faults import ChunkFailure, LatencySpike
from repro.sim import simulate_session
from repro.traces import HSDPATraceGenerator, SyntheticTraceGenerator, Trace
from repro.video import envivio

IDEAL = NetworkProfile(
    rtt_s=0.0, header_kilobits=0.0, server_processing_delay_s=0.0,
    slow_start=False,
)


class TestIdealNetworkEquivalence:
    @pytest.mark.parametrize("name", ["rb", "bb", "festive", "dashjs",
                                      "robust-mpc"])
    def test_per_algorithm_equivalence(self, name, envivio_manifest):
        """Under an ideal network every algorithm makes identical decisions
        on both backends."""
        trace = SyntheticTraceGenerator(seed=17).generate(320.0)
        sim = simulate_session(create(name), trace, envivio_manifest)
        emu = emulate_session(create(name), trace, envivio_manifest,
                              network=IDEAL)
        assert emu.level_indices == sim.level_indices
        assert emu.total_rebuffer_s == pytest.approx(sim.total_rebuffer_s,
                                                     abs=1e-6)
        assert emu.qoe().total == pytest.approx(sim.qoe().total, rel=1e-9,
                                                abs=1e-6)


class TestRealisticNetworkShift:
    def test_overheads_reduce_but_do_not_reorder(self, envivio_manifest):
        """With realistic RTT/headers/slow-start, absolute QoE drops but
        the RobustMPC > dash.js ordering persists (Figure 8's point)."""
        traces = HSDPATraceGenerator(seed=23).generate_many(8, 320.0)
        algorithms = {"robust-mpc": create("robust-mpc"),
                      "dashjs": create("dashjs")}
        sim_results = run_matrix(algorithms, traces, envivio_manifest,
                                 backend="sim")
        emu_results = run_matrix(algorithms, traces, envivio_manifest,
                                 backend="emulation")
        assert sim_results.median_n_qoe("robust-mpc") > sim_results.median_n_qoe("dashjs")
        assert emu_results.median_n_qoe("robust-mpc") > emu_results.median_n_qoe("dashjs")

    def test_measured_throughput_bias_is_visible(self, envivio_manifest):
        """The emulator's HTTP-level throughput samples sit below link
        capacity (the bias motivating robust prediction handling)."""
        trace = SyntheticTraceGenerator(seed=29).generate(320.0)
        emu = emulate_session(
            create("bb"), trace, envivio_manifest,
            network=NetworkProfile(rtt_s=0.1, slow_start=True),
        )
        sim = simulate_session(create("bb"), trace, envivio_manifest)
        emu_tput = emu.metrics().average_throughput_kbps
        sim_tput = sim.metrics().average_throughput_kbps
        assert emu_tput < sim_tput


class TestLinkFaultDeadTime:
    @pytest.mark.parametrize(
        "fault, total_stall_s",
        [
            (ChunkFailure(rate=0.4, detect_delay_s=0.5), 5.0),
            (LatencySpike(start_s=10.0, duration_s=30.0, extra_delay_s=0.7), 4.2),
        ],
        ids=["chunk-failure", "latency-spike"],
    )
    def test_emulated_stall_matches_the_simulator(self, fault, total_stall_s):
        """The dead time before a chunk's delivering attempt (failed
        attempts, their retries, latency spikes) is the chunk's
        ``stalled_s`` on both backends, chunk by chunk."""
        manifest = envivio().truncated(20)
        trace = Trace.constant(2000.0, 600.0, name="constant-2000")
        sim = simulate_session(
            create("fastmpc-gap"), trace, manifest,
            link_faults=[fault], fault_seed=3,
        )
        emu = emulate_session(
            create("fastmpc-gap"), trace, manifest,
            network=IDEAL, faults=[fault], fault_seed=3,
        )
        assert emu.level_indices == sim.level_indices
        for emulated, simulated in zip(emu.records, sim.records):
            assert emulated.stalled_s == pytest.approx(simulated.stalled_s, abs=1e-9)
            assert emulated.download_time_s == pytest.approx(
                simulated.download_time_s, abs=1e-9
            )
        assert sum(r.stalled_s for r in emu.records) == pytest.approx(total_stall_s)


def _fault_runs(fault, seed, manifest, trace):
    sim = simulate_session(
        create("fastmpc-gap"), trace, manifest,
        link_faults=[fault], fault_seed=seed,
    )
    emu = emulate_session(
        create("fastmpc-gap"), trace, manifest,
        network=IDEAL, faults=[fault], fault_seed=seed,
    )
    return sim, emu


def _agree(sim, emu) -> bool:
    return emu.level_indices == sim.level_indices and all(
        e.stalled_s == pytest.approx(s.stalled_s, abs=1e-9)
        and e.download_time_s == pytest.approx(s.download_time_s, abs=1e-9)
        for e, s in zip(emu.records, sim.records)
    )


class TestLinkFaultRetries:
    """Both backends draw link faults from one injector and retry a failed
    chunk at the level they decided, so on the ideal network they agree
    whatever the failure rate and seed."""

    def test_backends_agree_for_every_rate_and_seed(self):
        manifest = envivio().truncated(20)
        trace = Trace.constant(2000.0, 600.0, name="constant-2000")
        mismatched = [
            (rate, seed)
            for rate in (0.2, 0.4, 0.6, 0.8)
            for seed in range(12)
            if not _agree(
                *_fault_runs(
                    ChunkFailure(rate=rate, detect_delay_s=0.5), seed, manifest, trace
                )
            )
        ]
        assert mismatched == []

    @pytest.mark.parametrize(
        "fault",
        [
            ChunkFailure(rate=1.0, detect_delay_s=0.5),
            ChunkFailure(rate=1.0, detect_delay_s=0.5, start_s=4.0, duration_s=60.0),
            ChunkFailure(rate=1.0, detect_delay_s=0.0),
        ],
        ids=["whole-run", "window", "zero-delay"],
    )
    def test_certain_failure_completes_on_both_backends(self, fault):
        """Every attempt fails: each chunk still ends after its 64th
        failure, on both backends alike."""
        manifest = envivio().truncated(20)
        trace = Trace.constant(2000.0, 600.0, name="constant-2000")
        sim, emu = _fault_runs(fault, 0, manifest, trace)
        assert len(emu.records) == manifest.num_chunks
        assert emu.level_indices == sim.level_indices
        assert [r.stalled_s for r in emu.records] == pytest.approx(
            [r.stalled_s for r in sim.records], abs=1e-9
        )
        assert emu.total_rebuffer_s == pytest.approx(sim.total_rebuffer_s, abs=1e-6)
        assert max(r.stalled_s for r in sim.records) == pytest.approx(
            64 * fault.detect_delay_s
        )
