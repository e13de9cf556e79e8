"""The four tables the benchmark builds keep their exact bytes.

perfbench serves a 100x100x5 balanced table (``perfbench/serving.py``)
and steps the fleet over 50x50x5 tables for the three QoE presets
(``perfbench/population.py``).  The SHA-256 of ``to_bytes()`` pins every
decision, both binnings and the serialized layout at once, so a change
to the table build or to the table storage that moves any of them
changes a digest.  Loading the bytes back must write them unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.fastmpc import (
    FastMPCConfig,
    build_decision_table,
    clear_table_cache,
)
from repro.core.table import DecisionTable
from repro.fleet.scenarios import session_config_for
from repro.video import envivio

DIGESTS = {
    ("balanced", 100): "752244c896e3fe477a65e85ef93538921233df13b74c1391534233b05fcf10c0",
    ("balanced", 50): "4a93de68178b02ca225da3d9435f8090e897f9d8a733a23070e81dd4f867af25",
    ("avoid-instability", 50): "1ca87e6b072db6f72098c637bb4d0568cb8840f71a9c5e52a8898025f9945597",
    ("avoid-rebuffering", 50): "fe5d0df8a05f7fb40641c3f56f06c9217d4367b0d594c49b9b219b3b0a354cd9",
}


@pytest.mark.parametrize(
    "preset, bins", list(DIGESTS), ids=[f"{p}-{b}" for p, b in DIGESTS]
)
def test_benchmark_table_bytes_are_pinned(preset, bins):
    manifest = envivio()
    config = session_config_for(preset)
    clear_table_cache()
    table = build_decision_table(
        manifest.ladder.levels_kbps,
        manifest.chunk_duration_s,
        config.buffer_capacity_s,
        config.weights,
        quality_values=[config.quality(r) for r in manifest.ladder],
        config=FastMPCConfig(buffer_bins=bins, throughput_bins=bins, horizon=5),
    )
    blob = table.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[preset, bins]
    assert DecisionTable.from_bytes(blob).to_bytes() == blob
