"""Every fleet download goes through :class:`TraceBank`, once per chunk.

``TraceBank.download_time_and_stall`` is the one place the vector engine
inverts downloads, for every supported controller, and it is the layer
boundary the benchmark harness measures fleet inversions at.  Parity of
the values it returns is the job of ``test_fleet_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.core.fastmpc import FastMPCConfig
from repro.fleet import SUPPORTED_CONTROLLERS, TraceBank, run_batch
from repro.traces import SyntheticTraceGenerator
from repro.video.manifest import BitrateLadder, VideoManifest
from repro.video.presets import ENVIVIO_LADDER_KBPS


@pytest.mark.parametrize("controller", SUPPORTED_CONTROLLERS)
def test_run_batch_inverts_each_chunk_through_the_bank(controller, monkeypatch):
    original = TraceBank.download_time_and_stall
    calls = []

    def counting(self, t0, size_kilobits, *args):
        calls.append(len(size_kilobits))
        return original(self, t0, size_kilobits, *args)

    monkeypatch.setattr(TraceBank, "download_time_and_stall", counting)
    traces = SyntheticTraceGenerator(seed=5).generate_many(3, 120.0)
    manifest = VideoManifest.cbr(4.0, BitrateLadder(ENVIVIO_LADDER_KBPS), 7)
    batch = run_batch(
        controller,
        traces,
        manifest,
        engine="vector",
        table_config=FastMPCConfig(buffer_bins=8, throughput_bins=8, horizon=3),
    )
    assert batch.engine == "vector"
    assert calls == [len(traces)] * manifest.num_chunks
