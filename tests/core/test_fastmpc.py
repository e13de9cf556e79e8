"""FastMPC: offline table enumeration and the table-driven controller."""

from __future__ import annotations

import pytest

from repro.abr.base import DownloadResult, PlayerObservation, SessionConfig
from repro.core import fastmpc
from repro.core.fastmpc import (
    FastMPCConfig,
    FastMPCController,
    build_decision_table,
    clear_table_cache,
    table_size_sweep,
)
from repro.core.horizon import HorizonProblem, solve_horizon
from repro.experiments import persistence
from repro.prediction import LastSamplePredictor
from repro.qoe import QoEWeights
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import envivio

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)
SMALL = FastMPCConfig(buffer_bins=12, throughput_bins=16, horizon=4)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_table_cache()
    yield
    clear_table_cache()


def small_table(weights=None, config=SMALL):
    return build_decision_table(
        LADDER, 4.0, 30.0, weights or QoEWeights.balanced(), config=config
    )


class TestBuild:
    def test_dimensions(self):
        table = small_table()
        assert table.num_entries == 12 * 5 * 16

    def test_decisions_match_online_solver_at_bin_centers(self):
        """The table must store exactly what the exact solver returns for
        each bin-representative state — FastMPC's core contract."""
        table = small_table()
        weights = QoEWeights.balanced()
        for b_idx in (0, 5, 11):
            for prev in (0, 2, 4):
                for c_idx in (0, 7, 15):
                    buffer_s = table.buffer_bins.center(b_idx)
                    pred = table.throughput_bins.center(c_idx)
                    problem = HorizonProblem(
                        buffer_level_s=buffer_s,
                        prev_quality=LADDER[prev],
                        chunk_sizes_kilobits=tuple(
                            tuple(4.0 * r for r in LADDER) for _ in range(4)
                        ),
                        quality_values=LADDER,
                        predicted_kbps=(pred,) * 4,
                        chunk_duration_s=4.0,
                        buffer_capacity_s=30.0,
                        weights=weights,
                    )
                    expected = solve_horizon(problem).first_level
                    assert table.lookup(buffer_s, prev, pred) == expected

    def test_decisions_sane_at_extremes(self):
        """Starved states pick the bottom of the ladder; saturated states
        the top.  (Note: decisions are NOT globally monotone in predicted
        throughput — the optimal first chunk can dip to ramp the rest of
        the plan — so only the extremes are certain.)"""
        table = small_table()
        lowest_c = table.throughput_bins.center(0)
        highest_c = table.throughput_bins.center(15)
        assert table.lookup(0.0, 0, lowest_c) == 0
        assert table.lookup(30.0, 4, highest_c) == 4

    def test_cache_returns_same_object(self):
        a = small_table()
        b = small_table()
        assert a is b
        clear_table_cache()
        c = small_table()
        assert c is not a

    def test_weights_change_table(self):
        balanced = small_table(QoEWeights.balanced())
        cautious = small_table(QoEWeights.avoid_rebuffering())
        flat_b = [balanced.rle.lookup(i) for i in range(balanced.num_entries)]
        flat_c = [cautious.rle.lookup(i) for i in range(cautious.num_entries)]
        assert flat_b != flat_c

    def test_validation(self):
        with pytest.raises(ValueError):
            build_decision_table((600.0, 350.0), 4.0, 30.0, QoEWeights.balanced())
        with pytest.raises(ValueError):
            build_decision_table(LADDER, 4.0, 30.0, QoEWeights.balanced(),
                                 quality_values=(1.0, 2.0))
        with pytest.raises(ValueError):
            FastMPCConfig(buffer_bins=0)

    @pytest.mark.parametrize("disk_cache", [False, True], ids=["memo", "disk-cache"])
    def test_ladder_over_256_levels_is_refused(
        self, disk_cache, tmp_path, monkeypatch
    ):
        # Run values serialize as one byte, so a 300-level ladder is
        # refused before the enumeration starts, with or without a disk
        # cache, and nothing is written to it.
        def enumerate_nothing(**kwargs):
            raise AssertionError("the table build started")

        monkeypatch.setattr(fastmpc, "build_table_decisions", enumerate_nothing)
        if disk_cache:
            monkeypatch.setenv(persistence.CACHE_DIR_ENV, str(tmp_path))
        else:
            monkeypatch.delenv(persistence.CACHE_DIR_ENV, raising=False)
        ladder = [100.0 + 10.0 * i for i in range(300)]
        config = FastMPCConfig(buffer_bins=2, throughput_bins=2, horizon=1)
        with pytest.raises(ValueError, match="at most 256"):
            build_decision_table(
                ladder, 4.0, 30.0, QoEWeights.balanced(), config=config
            )
        assert not any(tmp_path.iterdir())


class TestTableSizeSweep:
    def test_reports_for_each_level(self):
        reports = table_size_sweep(
            LADDER, 4.0, 30.0, QoEWeights.balanced(),
            discretization_levels=(8, 16), horizon=3,
        )
        assert [r.discretization_levels for r in reports] == [8, 16]
        assert reports[1].num_entries > reports[0].num_entries

    def test_compression_improves_with_granularity(self):
        """Table 1's trend: the RLE ratio falls as bins grow."""
        reports = table_size_sweep(
            LADDER, 4.0, 30.0, QoEWeights.balanced(),
            discretization_levels=(20, 80), horizon=3,
        )
        assert reports[1].compression_ratio < reports[0].compression_ratio


class TestController:
    def make(self, robust=False):
        predictor = LastSamplePredictor()
        controller = FastMPCController(predictor=predictor, config=SMALL, robust=robust)
        controller.prepare(envivio(), SessionConfig())
        return controller, predictor

    def obs(self, buffer_s=10.0, prev=1):
        return PlayerObservation(
            chunk_index=5, buffer_level_s=buffer_s, prev_level_index=prev,
            wall_time_s=20.0, playback_started=True,
        )

    def test_lookup_decision(self):
        controller, predictor = self.make()
        predictor.observe_kbps(50_000.0)
        assert controller.select_bitrate(self.obs(buffer_s=25.0, prev=4)) == 4
        predictor.observe_kbps(90.0)
        assert controller.select_bitrate(self.obs(buffer_s=0.5, prev=0)) == 0

    def test_first_chunk_uses_lowest_prev(self):
        controller, predictor = self.make()
        predictor.observe_kbps(1500.0)
        level = controller.select_bitrate(
            PlayerObservation(chunk_index=0, buffer_level_s=0.0,
                              prev_level_index=None, wall_time_s=0.0,
                              playback_started=False)
        )
        assert 0 <= level < 5

    def test_robust_variant_queries_lower_bound(self):
        """Theorem 1 applied to the table: the robust controller queries
        the throughput axis at C_hat / (1 + err)."""
        robust, predictor = self.make(robust=True)
        # Seed a 40% over-estimation into the robust tracker.
        robust._pending_raw_prediction = 1400.0
        robust.on_download_complete(
            DownloadResult(
                chunk_index=0, level_index=1, bitrate_kbps=600.0,
                size_kilobits=2400.0, download_time_s=2.4,
                throughput_kbps=1000.0, rebuffer_s=0.0, buffer_after_s=8.0,
                wall_time_end_s=2.4,
            )
        )
        predictor.reset()
        predictor.observe_kbps(1000.0)
        assert robust.error_tracker.max_recent_abs_error() == pytest.approx(0.4)
        observation = self.obs()
        chosen = robust.select_bitrate(observation)
        expected = robust.table.lookup(
            observation.buffer_level_s,
            observation.prev_level_index,
            1000.0 / 1.4,  # the Theorem-1 lower bound
        )
        assert chosen == expected

    def test_names(self):
        assert FastMPCController().name == "fastmpc"
        assert FastMPCController(robust=True).name == "robust-fastmpc"
        assert FastMPCController(name="custom").name == "custom"

    def test_matches_online_mpc_closely_over_session(self):
        """With fine binning, FastMPC should track online MPC's QoE."""
        from repro.core.mpc import MPCController

        trace = Trace([0.0, 60.0, 120.0], [1800.0, 700.0, 2400.0], duration_s=300.0)
        manifest = envivio()
        fine = FastMPCConfig(buffer_bins=60, throughput_bins=60, horizon=5)
        fast = simulate_session(FastMPCController(config=fine), trace, manifest)
        online = simulate_session(MPCController(), trace, manifest)
        assert fast.qoe().total >= 0.9 * online.qoe().total
