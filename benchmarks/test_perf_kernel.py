"""Kernel microbenchmark — the table-build and disk-cache speedups, and
the cost of a disabled tracer.

Writes ``benchmarks/results/BENCH_kernel.json``, a machine-readable perf
trajectory (timings + speedup ratios) future PRs can diff against.  The
reference implementation timed here is a literal copy of the pre-kernel
code path: the per-``(buffer_bin, prev_level)`` Python loop the table
builder used.  The disabled-tracer gate times RobustMPC sessions, whose
every chunk solves the horizon problem online.  It also records the peak RSS of a cold 100x100x5 table build in a fresh
process, which catches a return to full-size roll-out temporaries, and,
without a bar, that of a fresh process playing one RobustMPC session
(its startup solve's prefix tree included).  Both fresh processes import
the package from compiled bytecode: the fixture compiles ``src`` first,
as ``perfbench/run.py`` does, because a process that compiles every
module from source peaks about 1 MB higher.
"""

from __future__ import annotations

import compileall
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import RESULTS_DIR, run_once

from repro.core.fastmpc import (
    FastMPCConfig,
    build_decision_table,
    clear_table_cache,
    table_size_sweep,
)
from repro.core.horizon import _plan_matrix
from repro.core.table import Binning
from repro.qoe import QoEWeights

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)
WEIGHTS = QoEWeights.balanced()
CHUNK_S = 4.0
BMAX = 30.0
TABLE_CONFIG = FastMPCConfig(buffer_bins=100, throughput_bins=100, horizon=5)


def reference_table_build() -> np.ndarray:
    """The pre-kernel builder: a Python loop per (buffer bin, prev level)."""
    config = TABLE_CONFIG
    buffer_binning = Binning(0.0, BMAX, config.buffer_bins, "linear")
    low, high = config.resolved_range(LADDER)
    throughput_binning = Binning(
        low, high, config.throughput_bins, config.throughput_spacing
    )
    num_levels = len(LADDER)
    plans = _plan_matrix(num_levels, config.horizon)
    sizes = np.asarray([CHUNK_S * r for r in LADDER])
    quality_arr = np.asarray(LADDER)
    c_centers = throughput_binning.centers
    lam, mu = WEIGHTS.switching, WEIGHTS.rebuffering
    dt_by_level = sizes[:, None] / c_centers[None, :]
    decisions = np.empty(
        (config.buffer_bins, num_levels, config.throughput_bins), dtype=np.int64
    )
    plan_first = plans[:, 0]
    for b_idx in range(config.buffer_bins):
        b0 = buffer_binning.center(b_idx)
        for prev in range(num_levels):
            buffer_s = np.full((plans.shape[0], c_centers.size), b0)
            qoe = np.zeros_like(buffer_s)
            prev_q = quality_arr[prev]
            for i in range(config.horizon):
                levels = plans[:, i]
                dt = dt_by_level[levels]
                rebuffer = np.maximum(dt - buffer_s, 0.0)
                buffer_s = np.maximum(buffer_s - dt, 0.0) + CHUNK_S
                np.minimum(buffer_s, BMAX, out=buffer_s)
                q_now = quality_arr[levels][:, None]
                qoe += q_now - mu * rebuffer
                qoe -= lam * np.abs(q_now - prev_q)
                prev_q = q_now
            decisions[b_idx, prev, :] = plan_first[np.argmax(qoe, axis=0)]
    return decisions


def timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def measurements():
    clear_table_cache()
    ref_decisions, ref_build_s = timed(reference_table_build)
    new_table, new_build_s = timed(
        lambda: build_decision_table(
            LADDER, CHUNK_S, BMAX, WEIGHTS, config=TABLE_CONFIG, use_cache=False
        )
    )
    assert np.array_equal(
        ref_decisions.reshape(-1), new_table.rle.decode()
    ), "kernel table build must reproduce the reference decisions"
    return {
        "table_config": "100x100x5",
        "table_build_reference_s": ref_build_s,
        "table_build_kernel_s": new_build_s,
        "table_build_speedup": ref_build_s / new_build_s,
    }


@pytest.fixture(scope="module")
def cache_measurements(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("kernel_cache")
    levels = (50, 100)
    clear_table_cache()
    _, cold_s = timed(
        lambda: table_size_sweep(
            LADDER, CHUNK_S, BMAX, WEIGHTS,
            discretization_levels=levels, cache_dir=cache_dir,
        )
    )
    clear_table_cache()
    _, warm_s = timed(
        lambda: table_size_sweep(
            LADDER, CHUNK_S, BMAX, WEIGHTS,
            discretization_levels=levels, cache_dir=cache_dir,
        )
    )
    return {
        "sweep_levels": list(levels),
        "sweep_cold_s": cold_s,
        "sweep_warm_s": warm_s,
        "sweep_cache_speedup": cold_s / warm_s,
    }


def test_table_build_speedup(benchmark, measurements):
    """Acceptance criterion: the 100x100x5 build is >= 3x faster."""
    speedup = run_once(benchmark, lambda: measurements["table_build_speedup"])
    assert speedup >= 3.0


def test_disk_cache_skips_rebuild(benchmark, cache_measurements):
    speedup = run_once(
        benchmark, lambda: cache_measurements["sweep_cache_speedup"]
    )
    assert speedup > 5.0


#: RobustMPC sessions per timed unit of the disabled-tracer gate.
TRACING_SESSIONS = 6


@pytest.fixture(scope="module")
def tracing_overhead():
    """Disabled-tracer overhead of RobustMPC sessions, min-of-N interleaved.

    ``simulate_session`` with ``tracer=None`` (the untouched fast path)
    vs ``NULL_TRACER`` (a real tracer with ``enabled=False``): every
    observability hook a session reaches — the player's, the solver
    call's, the predictor's — must reduce to one boolean check, so the
    two runs are the same to within noise.  Every session gets a fresh
    controller: the player attaches a given tracer to the algorithm, and
    ``tracer=None`` leaves an earlier one in place.
    """
    from repro.core.robust import RobustMPCController
    from repro.obs import NULL_TRACER
    from repro.sim import simulate_session
    from repro.traces import HSDPATraceGenerator
    from repro.video import envivio

    traces = HSDPATraceGenerator(seed=7).generate_many(TRACING_SESSIONS, 320.0)
    manifest = envivio()

    def sessions(tracer):
        for trace in traces:
            simulate_session(RobustMPCController(), trace, manifest, tracer=tracer)

    sessions(None)  # warm caches before timing
    baseline_s = float("inf")
    disabled_s = float("inf")
    for _ in range(9):
        _, t_none = timed(lambda: sessions(None))
        _, t_null = timed(lambda: sessions(NULL_TRACER))
        baseline_s = min(baseline_s, t_none)
        disabled_s = min(disabled_s, t_null)
    return {
        "tracing_baseline_s": baseline_s,
        "tracing_disabled_s": disabled_s,
        "tracing_disabled_overhead": disabled_s / baseline_s - 1.0,
    }


def test_disabled_tracing_overhead_below_five_percent(
    benchmark, tracing_overhead
):
    overhead = run_once(
        benchmark, lambda: tracing_overhead["tracing_disabled_overhead"]
    )
    assert overhead < 0.05


#: One cold 100x100x5 build; prints the process's peak resident set in
#: KiB.  That is ``VmHWM``, not ``ru_maxrss``: Linux carries the parent's
#: high-water mark across fork and exec into the child's ``ru_maxrss``,
#: so a child of this pytest process would read pytest's own peak.
COLD_BUILD = """
from repro.core.fastmpc import FastMPCConfig, build_decision_table
from repro.qoe import QoEWeights

build_decision_table(
    (350.0, 600.0, 1000.0, 2000.0, 3000.0), 4.0, 30.0, QoEWeights.balanced(),
    config=FastMPCConfig(buffer_bins=100, throughput_bins=100, horizon=5),
    use_cache=False,
)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

#: One RobustMPC session on the Envivio video over an HSDPA trace, from a
#: cold start: its startup solve rolls the 121-point wait grid out.
#: Prints the peak resident set in KiB, as ``COLD_BUILD`` does.
ROBUST_MPC_SESSION = """
from repro.core.robust import RobustMPCController
from repro.sim import simulate_session
from repro.traces import HSDPATraceGenerator
from repro.video import envivio

(trace,) = HSDPATraceGenerator(seed=7).generate_many(1, 320.0)
simulate_session(RobustMPCController(), trace, envivio())
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

#: The prefix-tree build peaks near 44 MB (interpreter and NumPy
#: included); full-size roll-out temporaries took it to about 123 MB.
MAX_COLD_BUILD_RSS_MB = 80.0

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_process_peak_mb(code: str) -> float:
    """VmHWM, in MB, of a fresh interpreter running ``code`` on ``src``
    with the disk cache off."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return int(out.stdout.split()[-1]) / 1024.0


@pytest.fixture(scope="module")
def cold_build_rss():
    """Peak RSS of a process that imports the package and builds one
    table, with the disk cache off so the build really runs, and of one
    that plays a RobustMPC session.  ``src`` is compiled to bytecode
    first, so neither peak depends on whether an earlier run left its
    ``__pycache__`` behind."""
    if not os.path.exists("/proc/self/status"):
        return {}  # VmHWM is Linux's; the RSS test skips elsewhere
    assert compileall.compile_dir(str(SRC), quiet=1)
    return {
        "table_build_peak_rss_mb": fresh_process_peak_mb(COLD_BUILD),
        "robust_mpc_session_peak_rss_mb": fresh_process_peak_mb(ROBUST_MPC_SESSION),
    }


def test_cold_table_build_peak_rss(benchmark, cold_build_rss):
    if not cold_build_rss:
        pytest.skip("peak RSS is read from /proc/self/status (Linux)")
    peak = run_once(benchmark, lambda: cold_build_rss["table_build_peak_rss_mb"])
    assert peak < MAX_COLD_BUILD_RSS_MB


def test_write_bench_json(
    measurements, cache_measurements, tracing_overhead, cold_build_rss, report_sink
):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(measurements)
    payload.update(cache_measurements)
    payload.update(tracing_overhead)
    payload.update(cold_build_rss)
    path = RESULTS_DIR / "BENCH_kernel.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines = [
        f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}"
        for key, value in sorted(payload.items())
    ]
    report_sink("BENCH_kernel", "\n".join(lines))
