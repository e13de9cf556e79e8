"""The shared ABR interface types."""

from __future__ import annotations

import math

import pytest

from repro.abr.base import (
    ABRAlgorithm,
    DownloadResult,
    PlayerObservation,
    SessionConfig,
)
from repro.qoe import QoEWeights
from repro.video import envivio


class TestSessionConfig:
    def test_defaults_match_paper(self):
        config = SessionConfig()
        assert config.buffer_capacity_s == 30.0
        assert config.weights == QoEWeights.balanced()
        assert config.quality(1000.0) == 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(buffer_capacity_s=0.0)
        for capacity in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SessionConfig(buffer_capacity_s=capacity)


class TestPlayerObservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlayerObservation(-1, 0.0, None, 0.0, False)
        with pytest.raises(ValueError):
            PlayerObservation(0, -1.0, None, 0.0, False)
        with pytest.raises(ValueError):
            PlayerObservation(0, 0.0, None, -1.0, False)


class TestDownloadResult:
    def kwargs(self, **overrides):
        base = dict(
            chunk_index=0, level_index=0, bitrate_kbps=350.0,
            size_kilobits=1400.0, download_time_s=1.0, throughput_kbps=1400.0,
            rebuffer_s=0.0, buffer_after_s=4.0, wall_time_end_s=1.0,
        )
        base.update(overrides)
        return base

    def test_valid(self):
        r = DownloadResult(**self.kwargs())
        assert r.throughput_kbps == 1400.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DownloadResult(**self.kwargs(download_time_s=-1.0))
        with pytest.raises(ValueError):
            DownloadResult(**self.kwargs(throughput_kbps=0.0))


class TestABRAlgorithmBase:
    class Dummy(ABRAlgorithm):
        name = "dummy"

        def select_bitrate(self, observation):
            self._require_prepared()
            return 0

    def test_require_prepared(self):
        with pytest.raises(RuntimeError, match="prepare"):
            self.Dummy().select_bitrate(
                PlayerObservation(0, 0.0, None, 0.0, False)
            )

    def test_prepare_binds_manifest(self):
        algo = self.Dummy()
        manifest = envivio()
        config = SessionConfig()
        algo.prepare(manifest, config)
        assert algo.manifest is manifest
        assert algo.config is config
        assert algo.select_startup_wait(
            PlayerObservation(0, 4.0, 0, 1.0, False)
        ) == 0.0

    def test_repr(self):
        assert "dummy" in repr(self.Dummy())
