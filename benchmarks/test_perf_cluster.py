"""Cluster scale benchmark — warm decision throughput at 1/2/4 workers,
tail latency, and crash-recovery time.

Runs the closed-loop load generator against a real multi-process
:class:`~repro.service.cluster.ClusterSupervisor` (forked workers, one
published table file, ``SO_REUSEPORT`` sharding) at 1, 2, and 4
workers, then measures how long the supervisor takes to detect and
replace a SIGKILLed worker.

The scale-out bar — 4 workers sustain >= 3x the 1-worker warm
throughput — is a statement about the *cluster*, not the host: it can
only hold where the kernel has cores to spread the workers over, so the
assertion is gated on ``os.cpu_count() >= 4`` exactly like the GPU
benches gate on an accelerator being present.  The measured numbers and
the host's core count are recorded unconditionally in
``benchmarks/results/BENCH_cluster.json`` so the trajectory is honest
either way.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest
from conftest import RESULTS_DIR, run_once

from repro.core.fastmpc import build_decision_table
from repro.experiments import publish_table
from repro.qoe import QoEWeights
from repro.service import (
    ClusterConfig,
    ClusterSupervisor,
    LoadTestConfig,
    run_loadtest,
)
from repro.video.presets import (
    DEFAULT_BUFFER_CAPACITY_S,
    ENVIVIO_CHUNK_SECONDS,
    ENVIVIO_LADDER_KBPS,
)

pytestmark = pytest.mark.slow

WORKER_COUNTS = (1, 2, 4)

#: The scale-out bar, asserted only on hosts with >= 4 cores.
MIN_SCALEOUT_AT_4_WORKERS = 3.0

LOAD_CONFIG = LoadTestConfig(
    sessions=48,
    chunks_per_session=65,
    concurrency=16,
    connections=16,
    dataset="synthetic",
    seed=2015,
    trace_duration_s=320.0,
)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    table = build_decision_table(
        ENVIVIO_LADDER_KBPS,
        ENVIVIO_CHUNK_SECONDS,
        DEFAULT_BUFFER_CAPACITY_S,
        QoEWeights.balanced(),
    )
    path = tmp_path_factory.mktemp("cluster-bench") / "table.rprotbl"
    return str(publish_table(table, path))


async def _loadtest_against_cluster(table_path: str, workers: int) -> dict:
    config = ClusterConfig(workers=workers)
    async with ClusterSupervisor(
        ENVIVIO_LADDER_KBPS, table_path=table_path, config=config
    ) as sup:
        report = await run_loadtest("127.0.0.1", sup.bound_port, LOAD_CONFIG)
        metrics = await sup.metrics()
    return {"report": report, "metrics": metrics}


@pytest.fixture(scope="module")
def sweep(table_path):
    return {
        workers: asyncio.run(_loadtest_against_cluster(table_path, workers))
        for workers in WORKER_COUNTS
    }


@pytest.fixture(scope="module")
def recovery(table_path):
    """Time from SIGKILL to a fully healthy cluster again."""

    async def inner() -> float:
        config = ClusterConfig(workers=2, poll_interval_s=0.02)
        async with ClusterSupervisor(
            ENVIVIO_LADDER_KBPS, table_path=table_path, config=config
        ) as sup:
            sup.kill_worker(0, signal.SIGKILL)
            started = time.perf_counter()
            deadline = started + 15.0
            while sup.restarts_total < 1 and time.perf_counter() < deadline:
                await asyncio.sleep(0.005)
            await sup.wait_healthy(timeout_s=15.0)
            assert sup.restarts_total == 1
            return time.perf_counter() - started

    return asyncio.run(inner())


def test_every_worker_count_serves_cleanly(benchmark, sweep):
    expected = LOAD_CONFIG.sessions * LOAD_CONFIG.chunks_per_session
    results = run_once(benchmark, lambda: sweep)
    for workers, outcome in results.items():
        report = outcome["report"]
        assert report.errors == 0, f"{workers} workers saw hard errors"
        assert report.decisions == expected
        assert report.sessions_completed == LOAD_CONFIG.sessions
        assert report.sources.get("table", 0) == expected
        assert outcome["metrics"]["requests_total"] == expected
        assert outcome["metrics"]["cluster"]["alive"] == workers


def test_scaleout_on_capable_hosts(sweep):
    single = sweep[1]["report"].throughput_dps
    quad = sweep[4]["report"].throughput_dps
    assert single > 0 and quad > 0
    if (os.cpu_count() or 1) < 4:
        pytest.skip(
            f"host has {os.cpu_count()} core(s); the >= "
            f"{MIN_SCALEOUT_AT_4_WORKERS}x scale-out bar needs >= 4 "
            f"(measured 4w/1w = {quad / single:.2f}x, recorded regardless)"
        )
    assert quad >= MIN_SCALEOUT_AT_4_WORKERS * single, (
        f"4 workers = {quad:,.0f} dps vs 1 worker = {single:,.0f} dps "
        f"({quad / single:.2f}x < {MIN_SCALEOUT_AT_4_WORKERS}x)"
    )


def test_recovery_is_prompt(recovery):
    # Detection poll (20 ms) + first backoff step (~50 ms) + fork + bind
    # + table map; anything near a second means supervision regressed.
    assert recovery < 5.0, f"restart recovery took {recovery:.2f}s"


def test_append_bench_json(sweep, recovery, report_sink):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_cluster.json"
    history = []
    if path.exists():
        history = json.loads(path.read_text())
        if isinstance(history, dict):
            history = [history]
    record = {
        "timestamp": time.time(),
        "cpu_count": os.cpu_count(),
        "config": {
            "sessions": LOAD_CONFIG.sessions,
            "chunks_per_session": LOAD_CONFIG.chunks_per_session,
            "concurrency": LOAD_CONFIG.concurrency,
            "connections": LOAD_CONFIG.connections,
            "dataset": LOAD_CONFIG.dataset,
        },
        "workers": {
            str(workers): {
                "throughput_dps": outcome["report"].throughput_dps,
                "p50_us": outcome["report"].p50_us,
                "p99_us": outcome["report"].p99_us,
                "errors": outcome["report"].errors,
            }
            for workers, outcome in sweep.items()
        },
        "scaleout_4w_over_1w": (
            sweep[4]["report"].throughput_dps
            / sweep[1]["report"].throughput_dps
        ),
        "restart_recovery_s": recovery,
    }
    history.append(record)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    lines = [
        f"{workers}w: {stats['throughput_dps']:,.0f} decisions/s"
        f" | p50 {stats['p50_us']:,.0f} us | p99 {stats['p99_us']:,.0f} us"
        for workers, stats in record["workers"].items()
    ]
    lines.append(
        f"scale-out 4w/1w = {record['scaleout_4w_over_1w']:.2f}x"
        f" on {record['cpu_count']} core(s)"
        f" | restart recovery {record['restart_recovery_s'] * 1000:,.0f} ms"
    )
    report_sink("BENCH_cluster", "\n".join(lines))
