"""The persistent disk cache: tables and offline bounds.

The cache has one setting, the ``REPRO_CACHE_DIR`` environment
variable, so every test here names its cache directory through
``monkeypatch.setenv`` (the ``cache_dir`` fixture).
"""

from __future__ import annotations

import json
import logging
import struct

import pytest

from repro import cli
from repro.core import fastmpc
from repro.core.fastmpc import (
    FastMPCConfig,
    build_decision_table,
    clear_table_cache,
    table_size_sweep,
)
from repro.core.offline import fluid_upper_bound
from repro.experiments import persistence
from repro.fleet import FleetConfig, ScenarioSpace, run_fleet
from repro.qoe import QoEWeights
from repro.traces import FCCTraceGenerator
from repro.video import envivio
from repro.video.quality import LogQuality

LADDER = (300.0, 750.0, 1200.0, 1850.0, 2850.0)
SMALL = FastMPCConfig(buffer_bins=20, throughput_bins=25)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_table_cache()
    yield
    clear_table_cache()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """``tmp_path`` as the disk cache, set the one way there is."""
    monkeypatch.setenv(persistence.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def build(**kwargs):
    return build_decision_table(
        LADDER, 4.0, 30.0, QoEWeights.balanced(), config=SMALL, **kwargs
    )


class TestCacheRoot:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(persistence.CACHE_DIR_ENV, raising=False)
        assert persistence.cache_root() is None

    def test_env_var_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv(persistence.CACHE_DIR_ENV, str(tmp_path))
        assert persistence.cache_root() == tmp_path


class TestTableDiskCache:
    def test_round_trip_bitwise_identical(self, cache_dir):
        first = build()
        clear_table_cache()  # drop the in-process memo, keep the disk entry
        second = build()
        assert second is not first
        assert second.rle.to_bytes() == first.rle.to_bytes()
        assert second.num_levels == first.num_levels
        for attr in ("low", "high", "count", "spacing"):
            assert getattr(second.buffer_bins, attr) == getattr(
                first.buffer_bins, attr
            )
            assert getattr(second.throughput_bins, attr) == getattr(
                first.throughput_bins, attr
            )
        # Identical behaviour, not just identical bytes.
        for buf, prev, kbps in ((3.0, 0, 400.0), (15.0, 2, 1500.0), (29.0, 4, 6000.0)):
            assert second.lookup(buf, prev, kbps) == first.lookup(buf, prev, kbps)

    def test_second_build_does_not_recompute(self, cache_dir, monkeypatch):
        build()
        clear_table_cache()

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("table was rebuilt despite a disk cache hit")

        monkeypatch.setattr(fastmpc, "build_table_decisions", boom)
        build()  # served from disk

    def test_sweep_hits_cache_on_repeat(self, cache_dir, monkeypatch):
        levels = (10, 20)
        table_size_sweep(
            LADDER, 4.0, 30.0, QoEWeights.balanced(),
            discretization_levels=levels,
        )
        clear_table_cache()
        monkeypatch.setattr(
            fastmpc,
            "build_table_decisions",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("sweep rebuilt a cached table")
            ),
        )
        repeat = table_size_sweep(
            LADDER, 4.0, 30.0, QoEWeights.balanced(),
            discretization_levels=levels,
        )
        assert [r.discretization_levels for r in repeat] == list(levels)

    def test_different_config_misses(self, cache_dir):
        build()
        clear_table_cache()
        other = build_decision_table(
            LADDER, 4.0, 30.0, QoEWeights.balanced(),
            config=FastMPCConfig(buffer_bins=21, throughput_bins=25),
        )
        assert other.buffer_bins.count == 21

    def test_corrupt_entry_falls_back_to_build(self, cache_dir):
        first = build()
        clear_table_cache()
        (entry,) = (cache_dir / "tables").iterdir()
        entry.write_bytes(b"garbage")
        rebuilt = build()
        assert rebuilt.rle.to_bytes() == first.rle.to_bytes()

    def test_no_cache_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(persistence.CACHE_DIR_ENV, raising=False)
        build()
        assert not (tmp_path / "tables").exists()


class TestBoundDiskCache:
    @pytest.fixture(scope="class")
    def trace(self):
        return FCCTraceGenerator(seed=5).generate_many(1, 320.0)[0]

    def test_round_trip_and_hit(self, trace, cache_dir, monkeypatch):
        manifest = envivio()
        weights = QoEWeights.balanced()
        direct = fluid_upper_bound(trace, manifest, weights=weights)
        cached = persistence.cached_fluid_upper_bound(trace, manifest, weights=weights)
        assert cached == direct
        calls = []
        monkeypatch.setattr(
            persistence,
            "fluid_upper_bound",
            lambda *a, **k: calls.append(1) or 0.0,
        )
        again = persistence.cached_fluid_upper_bound(trace, manifest, weights=weights)
        assert again == direct
        assert calls == []  # served from disk, never recomputed

    def test_keyed_quality_function_cached(self, trace, cache_dir):
        manifest = envivio()
        quality = LogQuality(reference_kbps=250.0)
        value = persistence.cached_fluid_upper_bound(trace, manifest, quality=quality)
        assert value == fluid_upper_bound(trace, manifest, quality=quality)
        assert any((cache_dir / "bounds").iterdir())

    def test_unkeyable_quality_computes_directly(self, trace, cache_dir):
        manifest = envivio()
        value = persistence.cached_fluid_upper_bound(
            trace, manifest, quality=lambda r: r
        )
        # An anonymous callable cannot be fingerprinted: correct value,
        # but nothing is written.
        assert value == pytest.approx(fluid_upper_bound(trace, manifest))
        assert not (cache_dir / "bounds").exists()


class TestCorruptEntryHygiene:
    """Parse failures are warned about and unlinked; honest misses are
    left alone — a corrupt entry must not look like a hit forever."""

    KEY = ("ladder", 4.0, 30.0, "balanced")

    def entry_path(self, cache_dir):
        return persistence._entry_path(
            cache_dir, "tables", repr(self.KEY), ".table"
        )

    def test_truncated_table_blob_warns_and_unlinks(self, cache_dir, caplog):
        path = self.entry_path(cache_dir)
        path.parent.mkdir(parents=True)
        # Header claims a 500-byte key; the blob ends long before that.
        path.write_bytes(struct.pack("<I", 500) + b"short")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.persistence"):
            assert persistence.load_cached_table(self.KEY) is None
        assert not path.exists()
        assert "discarding corrupt cache entry" in caplog.text

    def test_unparseable_table_blob_warns_and_unlinks(self, cache_dir, caplog):
        path = self.entry_path(cache_dir)
        path.parent.mkdir(parents=True)
        key_bytes = repr(self.KEY).encode()
        # Valid key frame, garbage table payload.
        path.write_bytes(struct.pack("<I", len(key_bytes)) + key_bytes + b"garbage")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.persistence"):
            assert persistence.load_cached_table(self.KEY) is None
        assert not path.exists()
        assert "discarding corrupt cache entry" in caplog.text

    def test_key_mismatch_is_a_miss_not_corruption(self, cache_dir, caplog):
        """A parseable entry for a different key (collision / stale
        format) is someone else's data: miss, but leave the file alone."""
        path = self.entry_path(cache_dir)
        path.parent.mkdir(parents=True)
        other = repr(("some", "other", "key")).encode()
        path.write_bytes(struct.pack("<I", len(other)) + other + b"payload")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.persistence"):
            assert persistence.load_cached_table(self.KEY) is None
        assert path.exists()
        assert "discarding corrupt" not in caplog.text

    def test_corrupt_bound_json_warns_unlinks_and_recomputes(self, cache_dir, caplog):
        trace = FCCTraceGenerator(seed=11).generate_many(1, 320.0)[0]
        manifest = envivio()
        value = persistence.cached_fluid_upper_bound(trace, manifest)
        (entry,) = (cache_dir / "bounds").iterdir()
        entry.write_text("not json at all")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.persistence"):
            again = persistence.cached_fluid_upper_bound(trace, manifest)
        assert again == value
        assert "discarding corrupt cache entry" in caplog.text
        # The recompute rewrote a healthy entry in its place.
        payload = json.loads(entry.read_text())
        assert payload["value"] == value

    def test_bound_entry_missing_value_field_is_discarded(self, cache_dir, caplog):
        trace = FCCTraceGenerator(seed=12).generate_many(1, 320.0)[0]
        manifest = envivio()
        value = persistence.cached_fluid_upper_bound(trace, manifest)
        (entry,) = (cache_dir / "bounds").iterdir()
        stored_key = json.loads(entry.read_text())["key"]
        entry.write_text(json.dumps({"key": stored_key}))  # value lost
        with caplog.at_level(logging.WARNING, logger="repro.experiments.persistence"):
            again = persistence.cached_fluid_upper_bound(trace, manifest)
        assert again == value
        assert "discarding corrupt cache entry" in caplog.text


class TestClearDiskCache:
    def test_clears_both_layers(self, cache_dir):
        build()
        trace = FCCTraceGenerator(seed=9).generate_many(1, 320.0)[0]
        persistence.cached_fluid_upper_bound(trace, envivio())
        removed = persistence.clear_disk_cache()
        assert removed == 2
        assert persistence.clear_disk_cache() == 0


class TestOneSetting:
    """``--cache-dir`` reaches every table build through the environment
    alone: the CLI exports it and forked pool workers inherit it."""

    def test_cli_flag_caches_table1(self, tmp_path, monkeypatch, capsys):
        # main() writes os.environ; registering the variable with
        # monkeypatch (empty: no cache) restores it after the test.
        monkeypatch.setenv(persistence.CACHE_DIR_ENV, "")
        argv = ["--cache-dir", str(tmp_path), "table1", "--levels", "10", "20"]
        assert cli.main(argv) == 0
        assert len(list((tmp_path / "tables").iterdir())) == 2
        clear_table_cache()

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("table1 rebuilt a table it had cached")

        monkeypatch.setattr(fastmpc, "build_table_decisions", boom)
        assert cli.main(argv) == 0
        assert len(list((tmp_path / "tables").iterdir())) == 2

    def test_fleet_pool_workers_write_the_preset_tables(self, cache_dir):
        space = ScenarioSpace(
            controllers=("fastmpc",),
            datasets=("fcc",),
            num_chunks=10,
            traces_per_dataset=4,
            table_config=FastMPCConfig(buffer_bins=12, throughput_bins=12),
        )
        config = FleetConfig(sessions=64, seed=7, shard_size=32, space=space)
        assert run_fleet(config, workers=2).sessions == 64
        # One table per QoE preset, all built in the workers: the
        # parent's memo stays empty.
        assert len(list((cache_dir / "tables").iterdir())) == len(space.presets)
        assert not fastmpc._TABLE_CACHE
