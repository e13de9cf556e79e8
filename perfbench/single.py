"""The shape shared by the single-process workloads (``sessions``, ``population``).

A worker sets up (``setup_s`` is timed by ``run.py`` as spawn -> ready),
runs its correctness gates, then plays rounds of work until the run's
seconds are spent, cut into slices of about :data:`SLICE_S`.  Between
units of work it runs speed-reference calls (:func:`perfbench.host.
reference_calls`).  Each slice records its decisions, wall time, the
work's CPU time, the median CPU time of one unit of work (a session or a
round) and the reference's slowdown; the end-to-end figures are the
medians over the slices of the CPU figures divided by the slowdown.

A traced run plays half its seconds untraced and half with the layer
wrappers installed, inside one ``bench`` span; the difference in
normalised CPU time per decision is the tracing overhead.  Reference
calls run in their own ``bench.reference`` span, so they count neither
as program layers nor as the benchmark's unattributed time.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from perfbench import host
from perfbench.spans import REFERENCE_LAYER, SpanRecorder, attributed_share

#: Width of the slices a timed window is summarised over.
SLICE_S = 1.0


class Tally:
    """Work done in a timed window, slice by slice."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder
        self.rounds = 0
        self.decisions = 0
        self.attempted = 0
        self.failed = 0
        self.unit_walls: List[float] = []
        #: per slice: (decisions, wall s, work CPU s, median unit CPU s, slowdown)
        self.slices: List[Tuple[int, float, float, float, float]] = []
        self._reference = [0.0, 0]  # CPU s and calls since the last slice

    def reference(self, calls: int) -> None:
        """Run ``calls`` speed-reference calls for the current slice."""
        if self.recorder is None:
            self._reference[0] += host.reference_calls(calls)
        else:
            with self.recorder.span(REFERENCE_LAYER):
                self._reference[0] += host.reference_calls(calls)
        self._reference[1] += calls

    def add_slice(self, decisions: int, wall: float, cpu: float, unit_cpu: float) -> None:
        """Close a slice: ``cpu`` is the work's CPU seconds, without the
        reference calls run since the last slice."""
        slowdown = host.slowdown(*self._reference)
        self._reference = [0.0, 0]
        self.slices.append((decisions, wall, cpu, unit_cpu, slowdown))
        self.decisions += decisions

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unit_walls += other.unit_walls
        self.slices += other.slices

    def figures(self) -> Tuple[float, float, float]:
        """``(decisions/s, unit ms, CPU us/decision)``, normalised.

        Each slice's CPU figures are divided by its slowdown, and each
        figure is the median over the slices.  All three are read over
        CPU time: with one busy thread that is the wall time less what
        the hypervisor stole.
        """
        return (
            statistics.median(d * f / c for d, _, c, _, f in self.slices),
            statistics.median(u / f * 1e3 for _, _, _, u, f in self.slices),
            statistics.median(c / f * 1e6 / d for d, _, c, _, f in self.slices),
        )

    def raw_figures(self) -> Tuple[float, float, float]:
        """The same medians without the slowdown, for diagnostics."""
        return (
            statistics.median(d / c for d, _, c, _, _ in self.slices),
            statistics.median(u * 1e3 for _, _, _, u, _ in self.slices),
            statistics.median(c * 1e6 / d for d, _, c, _, _ in self.slices),
        )


def run(
    seconds: float,
    recorder: Optional[SpanRecorder],
    gates: Callable[[], Tuple[int, int, float, dict]],
    play: Callable[[float, Tally], float],
    install: Callable[[SpanRecorder], None],
    layers: Callable[[dict, Tally], Iterable[Tuple[str, float, str]]],
    setup_layers: Dict[str, Tuple[float, str]],
) -> dict:
    """Gates, then the timed window; returns the result record for run.py.

    ``gates()`` returns ``(checked, mismatched, digest, diagnostics)``;
    ``play(seconds, tally)`` plays rounds (continuing from
    ``tally.rounds``) and returns the wall time spent; ``layers(totals,
    tally)`` yields the per-layer metrics of the traced half.
    """
    calib_before = host.calibration_ms()
    checked, mismatched, digest, diagnostics = gates()
    tally = Tally()
    metrics = host.Metrics()
    ticks0 = host.host_cpu_ticks()
    if recorder is None:
        play(seconds, tally)
        steal = host.steal_share(ticks0, host.host_cpu_ticks())
        rate, unit_ms, cpu_us = tally.figures()
        metrics.add("decisions_per_s", rate, "decisions/s")
        metrics.add("p50_ms", unit_ms, "ms")
        metrics.add("cpu_us_per_decision", cpu_us, "us")
        metrics.add("peak_rss_mb", host.peak_rss_mb(), "MB")
    else:
        play(seconds / 2, tally)
        traced = Tally(recorder)
        traced.rounds = tally.rounds
        install(recorder)
        ticks0 = host.host_cpu_ticks()
        with recorder.span("bench"):
            wall = play(seconds / 2, traced)
        recorder.restore()
        steal = host.steal_share(ticks0, host.host_cpu_ticks())
        totals = recorder.snapshot()
        for name, (value, unit) in setup_layers.items():
            metrics.add(name, value, unit)
        for name, value, unit in layers(totals, traced):
            metrics.add(name, value, unit)
        metrics.add("bench.trace_overhead", traced.figures()[2] / tally.figures()[2] - 1.0,
                    "ratio")
        metrics.add("bench.traced_s", wall - totals["self_ns"].get(REFERENCE_LAYER, 0) / 1e9, "s")
        metrics.add("bench.attributed_share", attributed_share(totals), "ratio")
        metrics.add("bench.steal_share", steal, "ratio")
        metrics.add("bench.calib_ms", calib_before, "ms")
        metrics.add("bench.calib_after_ms", host.calibration_ms(), "ms")
        metrics.add("bench.digest", digest, "count")
        tally.absorb(traced)

    attempted = checked + tally.attempted
    failed = mismatched + tally.failed
    walls = sorted(tally.unit_walls)
    q = host.tail_percentile(len(walls))
    diagnostics.update({
        "digest": digest,
        "steal_share": steal,
        "calib_ms": calib_before,
        "unit_wall_ms": {"n": len(walls), "p50": host.percentile(walls, 0.5) * 1e3,
                         f"p{q * 100:g}": host.percentile(walls, q) * 1e3},
        "raw_figures": tally.raw_figures(),
        "slices": [[d, round(w, 4), round(c, 4), round(u * 1e3, 4), round(f, 4)]
                   for d, w, c, u, f in tally.slices],
    })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
