"""The batch session stepper — Eq. 1–4 over an array of sessions.

One :func:`run_batch` call advances N sessions through a whole video in
lockstep: struct-of-arrays state (wall time, buffer, accumulated
rebuffer, previous level per session) and one vectorized decision +
dynamics step per chunk.  The correctness bar is *exact parity*: for
every session the level sequence, per-chunk rebuffer/buffer trajectory,
download times, startup delay, and QoE breakdown are bit-identical to
running :func:`repro.sim.session.simulate_session` on that session alone
(same floats, same tie-breaks).

What makes exactness possible (and where the traps were):

* All per-session dynamics are elementwise float64 arithmetic replicated
  in the scalar simulator's operation order — elementwise NumPy
  add/sub/mul/div/maximum are IEEE-754 identical to the Python-float
  expression, so ``drain``/``rebuffer``/pacing come out bit-equal.
* Reductions are **not** IEEE-order-stable in NumPy (pairwise
  summation), so none are used where the scalar code sums sequentially:
  QoE quality/switching totals and the rebuffer total accumulate chunk
  by chunk with elementwise adds, in the simulator's own order.
* Download times and stalls come from the scalar simulator's own walk:
  :class:`TraceBank` calls :meth:`Trace.download_time_and_stall` once
  per session, so they are the reference floats by construction.  A
  download costs one bisect plus the segments it spans, which measured
  cheaper at every fleet batch size than a masked lockstep walk over all
  sessions at once (``docs/performance.md``).
* Under the FIRST_CHUNK startup policy every supported controller's
  ``select_startup_wait`` is the base-class 0.0, and playback always
  starts at the first chunk's completion — which pins
  ``max(playback_start, t) == t`` for every later chunk and lets the
  pacing wait collapse to ``buffer - threshold`` exactly as the scalar
  expressions do.

With ``engine="scalar"`` each session runs through the reference
simulator itself: the reference the parity suites hold the vector
engine to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..abr.base import SessionConfig
from ..core.fastmpc import FastMPCConfig
from ..traces.trace import Trace, _NEVER_COMPLETES
from ..video.manifest import VideoManifest
from .controllers import (
    SUPPORTED_CONTROLLERS,
    make_batch_controller,
    make_scalar_algorithm,
)

__all__ = ["TraceBank", "BatchResult", "run_batch"]

_ENGINES = ("vector", "scalar")


@dataclass
class BatchResult:
    """Struct-of-arrays log of one batch: row i is session i.

    The 2-D fields are ``(num_sessions, num_chunks)``; the 1-D fields
    one value per session.  Arrays are NumPy under the vector engine and
    plain nested lists under the scalar engine — both index the same
    way, and the *values* are identical between engines.
    """

    controller: str
    num_sessions: int
    num_chunks: int
    engine: str
    levels: object  # int, per chunk
    rebuffer_s: object  # per chunk
    buffer_after_s: object  # per chunk, after pacing
    download_time_s: object  # per chunk
    startup_delay_s: object
    total_rebuffer_s: object
    total_wall_time_s: object
    quality_total: object
    switching_total: object
    qoe_total: object
    mean_bitrate_kbps: object

    def qoe_per_chunk(self):
        """Per-session QoE normalised by chunk count (the population
        metric the fleet histograms aggregate — Eq. 5 per chunk)."""
        if self.num_sessions == 0:
            return []
        if isinstance(self.qoe_total, np.ndarray):
            return self.qoe_total / self.num_chunks
        return [value / self.num_chunks for value in self.qoe_total]

    def session_levels(self, i: int) -> List[int]:
        return [int(level) for level in self.levels[i]]


# ----------------------------------------------------------------------
# TraceBank — the batch's per-session download inversion
# ----------------------------------------------------------------------


class TraceBank:
    """Per-session view of the batch's traces: row i is session i's trace.

    :meth:`download_time_and_stall` inverts every row's download with
    :meth:`Trace.download_time_and_stall` itself, so the batch's download
    times and stalls are the scalar simulator's floats, and both engines
    refuse non-finite sizes and downloads that never complete with the
    same ``ValueError``.  A trace that delivers nothing per pass is
    refused here, before the first chunk.
    """

    __slots__ = ("_traces",)

    def __init__(self, traces: Sequence[Trace]) -> None:
        self._traces = list(traces)
        for trace in self._traces:
            if trace.kilobits_per_pass <= 0:
                raise ValueError(_NEVER_COMPLETES)

    def download_time_and_stall(self, t0, size_kilobits):
        """Per-session :meth:`Trace.download_time_and_stall`: the download
        times and the stalled seconds inside them, as two float64 arrays."""
        pairs = [
            trace.download_time_and_stall(t, size)
            for trace, t, size in zip(
                self._traces,
                np.asarray(t0, dtype=np.float64).tolist(),
                np.asarray(size_kilobits, dtype=np.float64).tolist(),
            )
        ]
        times, stalls = zip(*pairs) if pairs else ((), ())
        return np.array(times, dtype=np.float64), np.array(stalls, dtype=np.float64)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


def _empty_result(controller: str, manifest: VideoManifest, engine: str) -> BatchResult:
    empty: List = []
    return BatchResult(
        controller=controller,
        num_sessions=0,
        num_chunks=manifest.num_chunks,
        engine=engine,
        levels=empty,
        rebuffer_s=[],
        buffer_after_s=[],
        download_time_s=[],
        startup_delay_s=[],
        total_rebuffer_s=[],
        total_wall_time_s=[],
        quality_total=[],
        switching_total=[],
        qoe_total=[],
        mean_bitrate_kbps=[],
    )


def _session_configs(config, n: int, manifest: VideoManifest) -> List[SessionConfig]:
    """One config per session, checked to differ only in Eq. 5 weights.

    The lockstep dynamics share one buffer capacity, one pacing
    threshold and one quality per level, so configs that disagree on any
    of them raise ``ValueError``.  Quality is compared by its values over
    the ladder: equal functions are often distinct objects.
    """
    if config is None:
        config = SessionConfig()
    if isinstance(config, SessionConfig):
        return [config] * n
    configs = list(config)
    if len(configs) != n:
        raise ValueError(f"{len(configs)} session configs for {n} traces")
    distinct = list({id(c): c for c in configs}.values())
    if len(distinct) > 1:
        first = distinct[0]
        qualities = [first.quality(rate) for rate in manifest.ladder]
        for other in distinct[1:]:
            if (
                other.buffer_capacity_s != first.buffer_capacity_s
                or other.pacing_threshold_s != first.pacing_threshold_s
                or [other.quality(rate) for rate in manifest.ladder] != qualities
            ):
                raise ValueError(
                    "session configs in one batch may differ only in their QoE "
                    "weights (buffer capacity, pacing threshold and quality must agree)"
                )
    return configs


def _run_vector(
    controller_name: str,
    traces: Sequence[Trace],
    manifest: VideoManifest,
    configs: List[SessionConfig],
    cache_dir: Optional[str],
    table_config: Optional[FastMPCConfig],
) -> BatchResult:
    n = len(traces)
    num_chunks = manifest.num_chunks
    num_levels = len(manifest.ladder)
    bank = TraceBank(traces)
    controller = make_batch_controller(controller_name, cache_dir, table_config)
    controller.prepare(manifest, configs, n)

    shared = configs[0]
    chunk_s = manifest.chunk_duration_s
    threshold = shared.pacing_threshold_s
    ladder_arr = np.asarray(manifest.ladder.levels_kbps, dtype=np.float64)
    quality_arr = np.asarray(
        [shared.quality(rate) for rate in manifest.ladder], dtype=np.float64
    )
    sizes = np.asarray(manifest.chunk_size_rows(0, num_chunks), dtype=np.float64)

    t = np.zeros(n, dtype=np.float64)
    buffer_s = np.zeros(n, dtype=np.float64)
    total_rebuffer = np.zeros(n, dtype=np.float64)
    playback_start = np.zeros(n, dtype=np.float64)
    prev_levels = np.zeros(n, dtype=np.int64)
    prev_quality = np.zeros(n, dtype=np.float64)
    quality_total = np.zeros(n, dtype=np.float64)
    switching_total = np.zeros(n, dtype=np.float64)
    bitrate_total = np.zeros(n, dtype=np.float64)

    levels_out = np.empty((n, num_chunks), dtype=np.int64)
    rebuffer_out = np.empty((n, num_chunks), dtype=np.float64)
    buffer_out = np.empty((n, num_chunks), dtype=np.float64)
    download_out = np.empty((n, num_chunks), dtype=np.float64)

    for k in range(num_chunks):
        levels = controller.decide(k, buffer_s, prev_levels)
        if levels.size and (levels.min() < 0 or levels.max() >= num_levels):
            raise ValueError(
                f"{controller_name} returned an invalid level for chunk {k}"
            )
        size = sizes[k][levels]
        download_time, stalled = bank.download_time_and_stall(t, size)
        t_end = t + download_time

        if k == 0:
            # FIRST_CHUNK: playback has not started, so nothing drains
            # (scalar: drain = max(0, t_end - max(inf, t)) = 0), and
            # playback begins at this chunk's completion (wait = 0.0 for
            # every supported controller).
            rebuffer = np.zeros(n, dtype=np.float64)
            t = t_end
            buffer_s = buffer_s + chunk_s
            playback_start = t.copy()
        else:
            # Playback started at chunk 0's completion, so
            # max(playback_start, t) == t for every later chunk.
            drain = np.maximum(0.0, t_end - t)
            rebuffer = np.maximum(drain - buffer_s, 0.0)
            buffer_s = np.maximum(buffer_s - drain, 0.0)
            total_rebuffer = total_rebuffer + rebuffer
            t = t_end
            buffer_s = buffer_s + chunk_s

        # Eq. 4 pacing: wait until the buffer drains to the threshold.
        # drain_start = max(t, playback_start) = t, so the wait is
        # exactly (buffer - threshold), as in the scalar expressions.
        over = buffer_s > threshold
        if over.any():
            t[over] = t[over] + (buffer_s[over] - threshold)
            buffer_s[over] = threshold

        with np.errstate(divide="ignore"):
            throughput = size / download_time

        levels_out[:, k] = levels
        rebuffer_out[:, k] = rebuffer
        buffer_out[:, k] = buffer_s
        download_out[:, k] = download_time

        chunk_quality = quality_arr[levels]
        quality_total = quality_total + chunk_quality
        if k > 0:
            switching_total = switching_total + np.abs(chunk_quality - prev_quality)
        prev_quality = chunk_quality
        bitrate_total = bitrate_total + ladder_arr[levels]

        controller.observe(throughput, download_time, stalled)
        prev_levels = levels

    # Eq. 5 with each session's own weights: the same element-wise
    # products and differences as one weight for all.
    weights = np.array(
        [(c.weights.switching, c.weights.rebuffering, c.weights.startup) for c in configs],
        dtype=np.float64,
    )
    qoe_total = quality_total - weights[:, 0] * switching_total
    qoe_total = qoe_total - weights[:, 1] * total_rebuffer
    qoe_total = qoe_total - weights[:, 2] * playback_start

    return BatchResult(
        controller=controller_name,
        num_sessions=n,
        num_chunks=num_chunks,
        engine="vector",
        levels=levels_out,
        rebuffer_s=rebuffer_out,
        buffer_after_s=buffer_out,
        download_time_s=download_out,
        startup_delay_s=playback_start,
        total_rebuffer_s=total_rebuffer,
        total_wall_time_s=t,
        quality_total=quality_total,
        switching_total=switching_total,
        qoe_total=qoe_total,
        mean_bitrate_kbps=bitrate_total / num_chunks,
    )


def _run_scalar(
    controller_name: str,
    traces: Sequence[Trace],
    manifest: VideoManifest,
    configs: List[SessionConfig],
    cache_dir: Optional[str],
    table_config: Optional[FastMPCConfig],
) -> BatchResult:
    # The reference path: one simulate_session per row.  Parity with the
    # vector engine is the test suite's core invariant; fresh algorithm
    # instances per session mirror the vector engine's per-row state.
    from ..sim.session import simulate_session

    num_chunks = manifest.num_chunks
    levels: List[List[int]] = []
    rebuffer: List[List[float]] = []
    buffer_after: List[List[float]] = []
    download: List[List[float]] = []
    startup: List[float] = []
    total_rebuffer: List[float] = []
    wall: List[float] = []
    quality: List[float] = []
    switching: List[float] = []
    qoe: List[float] = []
    mean_bitrate: List[float] = []
    for trace, config in zip(traces, configs):
        algorithm = make_scalar_algorithm(controller_name, cache_dir, table_config)
        result = simulate_session(algorithm, trace, manifest, config)
        breakdown = result.qoe()
        levels.append([record.level_index for record in result.records])
        rebuffer.append([record.rebuffer_s for record in result.records])
        buffer_after.append([record.buffer_after_s for record in result.records])
        download.append([record.download_time_s for record in result.records])
        startup.append(result.startup_delay_s)
        total_rebuffer.append(result.total_rebuffer_s)
        wall.append(result.total_wall_time_s)
        quality.append(breakdown.quality_total)
        switching.append(breakdown.switching_total)
        qoe.append(breakdown.total)
        total = 0.0
        for record in result.records:
            total += record.bitrate_kbps
        mean_bitrate.append(total / num_chunks)
    return BatchResult(
        controller=controller_name,
        num_sessions=len(traces),
        num_chunks=num_chunks,
        engine="scalar",
        levels=levels,
        rebuffer_s=rebuffer,
        buffer_after_s=buffer_after,
        download_time_s=download,
        startup_delay_s=startup,
        total_rebuffer_s=total_rebuffer,
        total_wall_time_s=wall,
        quality_total=quality,
        switching_total=switching,
        qoe_total=qoe,
        mean_bitrate_kbps=mean_bitrate,
    )


def run_batch(
    controller: str,
    traces: Sequence[Trace],
    manifest: VideoManifest,
    config: Union[SessionConfig, Sequence[SessionConfig], None] = None,
    *,
    cache_dir: Optional[str] = None,
    table_config: Optional[FastMPCConfig] = None,
    engine: str = "vector",
) -> BatchResult:
    """Simulate one session per trace, all in lockstep.

    Parameters
    ----------
    controller:
        One of :data:`~repro.fleet.controllers.SUPPORTED_CONTROLLERS`.
    traces:
        One :class:`Trace` per session (repeats allowed).  Empty input
        returns a well-formed empty result.
    config:
        One :class:`SessionConfig` for every session (the default
        ``SessionConfig()`` when ``None``), or one per trace.  Per-trace
        configs may differ only in their Eq. 5 weights — the QoE presets
        — which set each session's QoE totals and, for the FastMPC
        family, the table it reads; anything else, or a count other than
        ``len(traces)``, raises ``ValueError``.  The scalar engine runs
        each session with its own config.
    engine:
        ``"vector"`` (the default) or ``"scalar"``.  Both engines produce
        identical values; the scalar engine is the reference simulator
        itself.
    table_config:
        Optional FastMPC table discretization override, threaded to both
        engines so they keep sharing one table.
    """
    if controller not in SUPPORTED_CONTROLLERS:
        raise ValueError(
            f"unsupported fleet controller {controller!r}; expected one of "
            f"{SUPPORTED_CONTROLLERS}"
        )
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if manifest.num_chunks < 1:
        raise ValueError("manifest must have at least one chunk")
    traces = list(traces)
    configs = _session_configs(config, len(traces), manifest)
    if not traces:
        return _empty_result(controller, manifest, engine)
    if engine == "vector":
        return _run_vector(
            controller, traces, manifest, configs, cache_dir, table_config
        )
    return _run_scalar(controller, traces, manifest, configs, cache_dir, table_config)
