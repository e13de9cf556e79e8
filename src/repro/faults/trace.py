"""Compiling bandwidth faults into exact piecewise-constant traces.

A :class:`~repro.traces.trace.Trace` is a piecewise-constant function,
and every bandwidth fault (blackout, clamp) is itself piecewise-constant
in time — so the faulted capacity function is again an ordinary trace.
:func:`apply_trace_faults` performs that composition exactly: it splits
segments at fault-window edges and transforms each resulting segment's
value, so the simulator's and emulator's exact byte integration applies
unchanged.  Outside fault windows, segment boundaries and values are
bit-identical to the clean trace; with no bandwidth faults at all, the
clean trace object is returned untouched.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..traces.trace import Trace
from .spec import BLACKOUT_FLOOR_KBPS, Blackout, FaultSpec, ThroughputClamp, bandwidth_faults

__all__ = ["apply_trace_faults"]

_EPS = 1e-12


def _faulted_bandwidth(bw_kbps: float, t: float, specs: List[FaultSpec]) -> float:
    """Capacity at time ``t`` after every active bandwidth fault."""
    for spec in specs:
        if not spec.active_at(t):
            continue
        if isinstance(spec, Blackout):
            bw_kbps = BLACKOUT_FLOOR_KBPS
        elif isinstance(spec, ThroughputClamp):
            bw_kbps = min(bw_kbps, spec.cap_kbps)
    return bw_kbps


def apply_trace_faults(
    trace: Trace,
    faults: Iterable[FaultSpec],
    name: Optional[str] = None,
) -> Trace:
    """The trace with every bandwidth fault applied, exactly.

    Fault windows live on the trace's own ``[0, duration)`` timeline;
    the parts of a window past the trace end are clipped (and therefore
    repeat with the trace if a session wraps it).  Link-level faults in
    ``faults`` are ignored here — they are drawn per transfer by
    :class:`~repro.faults.simlink.SimLinkFaults`.

    With no bandwidth faults the input trace is returned as-is, which
    makes "empty fault list == clean run" hold by construction.
    """
    specs = bandwidth_faults(faults)
    duration = trace.duration_s
    specs = [s for s in specs if s.start_s < duration - _EPS]
    if not specs:
        return trace

    # Every instant where the faulted capacity can change value: the
    # trace's own segment starts plus each fault window's two edges.
    boundaries = set(trace.timestamps)
    for spec in specs:
        boundaries.add(spec.start_s)
        if spec.end_s < duration - _EPS:
            boundaries.add(spec.end_s)
    times = sorted(b for b in boundaries if b < duration - _EPS)

    bws = [
        _faulted_bandwidth(trace.bandwidth_at(t), t, specs) for t in times
    ]
    label = name if name is not None else (
        f"{trace.name}+faults" if trace.name else "faulted"
    )
    return Trace(times, bws, duration_s=duration, name=label)
