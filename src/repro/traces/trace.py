"""Piecewise-constant throughput traces.

A :class:`Trace` models network throughput as a piecewise-constant function
of time, exactly as the datasets used in the paper do: the FCC broadband
dataset reports one average throughput per 5-second interval, the HSDPA
mobile dataset one sample per second, and the synthetic dataset one sample
per hidden-state dwell period.

The two operations the streaming model needs (Section 3.1 of the paper) are

* the *integral* of throughput over a time window, which gives the number
  of kilobits deliverable in that window (Eq. 2 of the paper relates the
  average download speed ``C_k`` to this integral), and

* its *inverse*: given a chunk of ``d_k(R_k)`` kilobits starting to download
  at time ``t_k``, the time at which the download completes.

Both are exact here (no numeric quadrature): segments are walked directly.

Units used throughout the package:

* time — seconds,
* throughput — kbps (kilobits per second),
* data sizes — kilobits.

Traces wrap around when a session outlives them, which matches how the
paper concatenates FCC measurement sets "to match the length of the video".
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["Trace", "TraceStats"]

_EPS = 1e-12
_NEVER_COMPLETES = "trace delivers zero bytes per pass; download never completes"


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace, as plotted in Figure 7 of the paper."""

    mean_kbps: float
    std_kbps: float
    min_kbps: float
    max_kbps: float
    duration_s: float
    num_segments: int

    def coefficient_of_variation(self) -> float:
        """Std/mean; the paper's notion of throughput (in)stability."""
        if self.mean_kbps <= 0:
            return 0.0
        return self.std_kbps / self.mean_kbps


class Trace:
    """A piecewise-constant throughput trace.

    Parameters
    ----------
    timestamps:
        Strictly increasing segment start times in seconds.  The first
        timestamp must be ``0.0``.
    bandwidths_kbps:
        Throughput holding on ``[timestamps[i], timestamps[i+1])``; the last
        value holds until ``duration_s``.
    duration_s:
        Total trace length.  Defaults to the last timestamp plus the median
        segment length (or 1 s for a single-segment trace).
    name:
        Optional label used in reports (e.g. ``"fcc-0042"``).
    """

    __slots__ = ("_times", "_bw", "_duration", "_per_pass", "_stall_per_pass", "name")

    def __init__(
        self,
        timestamps: Sequence[float],
        bandwidths_kbps: Sequence[float],
        duration_s: Optional[float] = None,
        name: str = "",
    ) -> None:
        if len(timestamps) != len(bandwidths_kbps):
            raise ValueError(
                "timestamps and bandwidths must have equal length "
                f"({len(timestamps)} != {len(bandwidths_kbps)})"
            )
        if not timestamps:
            raise ValueError("a trace needs at least one segment")
        if abs(timestamps[0]) > _EPS:
            raise ValueError(f"first timestamp must be 0.0, got {timestamps[0]}")
        times = [float(t) for t in timestamps]
        if not all(map(math.isfinite, times)):
            raise ValueError("timestamps must be finite")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ValueError("timestamps must be strictly increasing")
        bws = [float(b) for b in bandwidths_kbps]
        for bw in bws:
            if bw < 0 or math.isnan(bw) or math.isinf(bw):
                raise ValueError(f"bandwidth values must be finite and >= 0, got {bw}")
        if duration_s is None:
            if len(times) > 1:
                gaps = sorted(b - a for a, b in zip(times, times[1:]))
                median_gap = gaps[len(gaps) // 2]
                duration_s = times[-1] + median_gap
            else:
                duration_s = times[-1] + 1.0
        if not math.isfinite(duration_s):
            raise ValueError(f"duration must be finite, got {duration_s}")
        if duration_s <= times[-1]:
            raise ValueError(
                f"duration {duration_s} must exceed the last timestamp {times[-1]}"
            )
        self.__setstate__((times, bws, float(duration_s), name))

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("Trace instances are immutable")

    def __getstate__(self):
        """Pickle support (the frozen ``__setattr__`` blocks the default
        slot-restoring path used by multiprocessing workers)."""
        return (self._times, self._bw, self._duration, self.name)

    def __setstate__(self, state):
        times, bw, duration, name = state
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_bw", bw)
        object.__setattr__(self, "_duration", duration)
        object.__setattr__(self, "name", name)
        # Per-pass constants of the immutable trace, walked once here
        # instead of on every download.
        object.__setattr__(
            self, "_per_pass", self._kilobits_one_pass(0.0, duration)
        )
        object.__setattr__(self, "_stall_per_pass", self._stall_one_pass())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, bandwidth_kbps: float, duration_s: float, name: str = "") -> "Trace":
        """A trace with a single constant-throughput segment."""
        return cls([0.0], [bandwidth_kbps], duration_s=duration_s, name=name)

    @classmethod
    def from_samples(
        cls,
        bandwidths_kbps: Sequence[float],
        interval_s: float,
        name: str = "",
    ) -> "Trace":
        """Build from regularly spaced samples (the dataset formats).

        The FCC dataset is ``interval_s=5``; HSDPA is ``interval_s=1``.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        times = [i * interval_s for i in range(len(bandwidths_kbps))]
        return cls(
            times,
            bandwidths_kbps,
            duration_s=len(bandwidths_kbps) * interval_s,
            name=name,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        return self._duration

    @property
    def timestamps(self) -> Tuple[float, ...]:
        return tuple(self._times)

    @property
    def bandwidths_kbps(self) -> Tuple[float, ...]:
        return tuple(self._bw)

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Trace{label} segments={len(self)} duration={self._duration:.1f}s "
            f"mean={self.mean_kbps():.0f}kbps>"
        )

    def segment_durations(self) -> List[float]:
        """Length of each piecewise-constant segment in seconds."""
        out = []
        for a, b in zip(self._times, self._times[1:]):
            out.append(b - a)
        out.append(self._duration - self._times[-1])
        return out

    def bandwidth_at(self, t: float) -> float:
        """Instantaneous throughput ``C_t`` at wall time ``t`` (wraps)."""
        t = self._wrap(t)
        idx = bisect.bisect_right(self._times, t) - 1
        return self._bw[idx]

    def _wrap(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        if t < self._duration:
            return t
        return t % self._duration

    # ------------------------------------------------------------------
    # Integration — the heart of Eq. (1)/(2) of the paper
    # ------------------------------------------------------------------

    def _kilobits_one_pass(self, t0: float, t1: float) -> float:
        """Integral over ``[t0, t1]`` with both endpoints inside the trace."""
        total = 0.0
        idx = bisect.bisect_right(self._times, t0) - 1
        t = t0
        while t < t1 - _EPS:
            seg_end = self._times[idx + 1] if idx + 1 < len(self._times) else self._duration
            upto = min(seg_end, t1)
            total += self._bw[idx] * (upto - t)
            t = upto
            idx += 1
        return total

    def kilobits_between(self, t0: float, t1: float) -> float:
        """Kilobits deliverable between wall times ``t0`` and ``t1``.

        Handles wrap-around: full trace repetitions contribute
        :attr:`kilobits_per_pass` each.
        """
        if t1 < t0:
            raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
        if t0 < 0:
            raise ValueError("times must be >= 0")
        span = t1 - t0
        start = self._wrap(t0)
        total = 0.0
        # Leading partial pass.
        lead = min(span, self._duration - start)
        total += self._kilobits_one_pass(start, start + lead)
        span -= lead
        if span <= _EPS:
            return total
        # Whole repetitions.
        full, rem = divmod(span, self._duration)
        total += self._per_pass * full
        if rem > _EPS:
            total += self._kilobits_one_pass(0.0, rem)
        return total

    def time_to_download(self, t0: float, size_kilobits: float) -> float:
        """Seconds needed from ``t0`` to deliver ``size_kilobits``.

        This is the exact inverse of :meth:`kilobits_between` and implements
        the download-time term ``d_k(R_k) / C_k`` of Eq. (1) without ever
        materialising the average ``C_k``: the integral is inverted segment
        by segment (see :meth:`download_time_and_stall`).  Raises if the
        download would never complete.
        """
        return self.download_time_and_stall(t0, size_kilobits)[0]

    def _stall_one_pass(self) -> float:
        """Zero-bandwidth seconds per full pass of the trace."""
        stall = 0.0
        for bw, dur in zip(self._bw, self.segment_durations()):
            if bw == 0.0:
                stall += dur
        return stall

    @property
    def kilobits_per_pass(self) -> float:
        """Kilobits one whole pass of the trace delivers."""
        return self._per_pass

    @property
    def stall_per_pass_s(self) -> float:
        """Zero-bandwidth seconds in one whole pass, summed in segment order."""
        return self._stall_per_pass

    def download_time_and_stall(
        self, t0: float, size_kilobits: float
    ) -> Tuple[float, float]:
        """Download time of ``size_kilobits`` from ``t0``, and the stalled
        seconds inside it.

        The walk locates ``t0`` with one bisect and then visits only the
        segments the download spans: the leading partial pass to the end
        of the trace, a floor-division skip over whole repetitions
        (:attr:`kilobits_per_pass` each), and a tail walk from the top.
        "Stalled" means time spent inside zero-bandwidth segments
        (blackouts compiled in by :func:`repro.faults.trace.
        apply_trace_faults`); whole-repetition skips contribute
        ``full * stall_per_pass_s``.  The fleet stepper's
        :class:`~repro.fleet.stepper.TraceBank` calls this walk for every
        session of a batch.  The stall sums never touch the time
        arithmetic.

        Raises ``ValueError`` for a negative or non-finite size, and when
        the download never completes: the trace delivers nothing per pass,
        or so little that the count of whole passes overflows or the tail
        walk cannot finish within the pass it has left.
        """
        if not math.isfinite(size_kilobits):
            raise ValueError(f"size must be finite, got {size_kilobits}")
        if size_kilobits < 0:
            raise ValueError("size must be >= 0")
        if size_kilobits == 0:
            return 0.0, 0.0
        per_pass = self._per_pass
        if per_pass <= 0:
            raise ValueError(_NEVER_COMPLETES)
        times = self._times
        bws = self._bw
        last = len(times) - 1
        remaining = size_kilobits
        elapsed = 0.0
        stall = 0.0
        t = self._wrap(t0)
        idx = bisect.bisect_right(times, t) - 1
        # Leading partial pass.
        while idx <= last:
            seg_end = times[idx + 1] if idx < last else self._duration
            bw = bws[idx]
            seg_len = seg_end - t
            seg_bits = bw * seg_len
            if seg_bits >= remaining - _EPS and bw > 0:
                return elapsed + remaining / bw, stall
            remaining -= seg_bits
            elapsed += seg_len
            if bw == 0.0:
                stall += seg_len
            t = seg_end
            idx += 1
        # Whole repetitions from the top of the trace.
        if remaining > _EPS:
            passes = remaining / per_pass
            if passes == math.inf:
                raise ValueError(_NEVER_COMPLETES)
            full = math.floor(passes)
            remaining -= full * per_pass
            elapsed += full * self._duration
            stall += full * self._stall_per_pass
        t = 0.0
        idx = 0
        wrapped = False
        while remaining > _EPS:
            seg_end = times[idx + 1] if idx < last else self._duration
            bw = bws[idx]
            seg_len = seg_end - t
            seg_bits = bw * seg_len
            if seg_bits >= remaining - _EPS and bw > 0:
                return elapsed + remaining / bw, stall
            remaining -= seg_bits
            elapsed += seg_len
            if bw == 0.0:
                stall += seg_len
            t = seg_end
            idx += 1
            if idx > last:
                # Less than a pass is left after the skip, give or take
                # the rounding of ``full * per_pass``: a second lap means
                # one pass's kilobits are lost in that rounding.
                if wrapped:
                    raise ValueError(_NEVER_COMPLETES)
                wrapped = True
                t = 0.0
                idx = 0
        return elapsed, stall

    def average_kbps_between(self, t0: float, t1: float) -> float:
        """Average throughput over a window — ``C_k`` of Eq. (2)."""
        if t1 <= t0:
            raise ValueError("window must have positive length")
        return self.kilobits_between(t0, t1) / (t1 - t0)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def mean_kbps(self) -> float:
        """Time-weighted mean throughput over one pass of the trace."""
        return self._per_pass / self._duration

    def std_kbps(self) -> float:
        """Time-weighted standard deviation of throughput."""
        mean = self.mean_kbps()
        var = 0.0
        for bw, dur in zip(self._bw, self.segment_durations()):
            var += dur * (bw - mean) ** 2
        return math.sqrt(var / self._duration)

    def stats(self) -> TraceStats:
        return TraceStats(
            mean_kbps=self.mean_kbps(),
            std_kbps=self.std_kbps(),
            min_kbps=min(self._bw),
            max_kbps=max(self._bw),
            duration_s=self._duration,
            num_segments=len(self),
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def scaled(self, factor: float, name: str = "") -> "Trace":
        """A copy with every throughput value multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Trace(
            self._times,
            [bw * factor for bw in self._bw],
            duration_s=self._duration,
            name=name or self.name,
        )

    def shifted(self, offset_kbps: float, floor_kbps: float = 0.0, name: str = "") -> "Trace":
        """A copy with ``offset_kbps`` added to every value, floored."""
        return Trace(
            self._times,
            [max(bw + offset_kbps, floor_kbps) for bw in self._bw],
            duration_s=self._duration,
            name=name or self.name,
        )

    def sliced(self, t0: float, t1: float, name: str = "") -> "Trace":
        """The sub-trace over ``[t0, t1]`` (no wrapping), re-based to 0."""
        if not (0 <= t0 < t1 <= self._duration + _EPS):
            raise ValueError(f"invalid slice [{t0}, {t1}] of a {self._duration}s trace")
        times: List[float] = []
        bws: List[float] = []
        idx = bisect.bisect_right(self._times, t0) - 1
        times.append(0.0)
        bws.append(self._bw[idx])
        for j in range(idx + 1, len(self._times)):
            if self._times[j] >= t1:
                break
            times.append(self._times[j] - t0)
            bws.append(self._bw[j])
        return Trace(times, bws, duration_s=t1 - t0, name=name or self.name)

    @staticmethod
    def concatenate(traces: Iterable["Trace"], name: str = "") -> "Trace":
        """Join traces back to back — how the paper extends FCC sets."""
        traces = list(traces)
        if not traces:
            raise ValueError("need at least one trace to concatenate")
        times: List[float] = []
        bws: List[float] = []
        offset = 0.0
        for tr in traces:
            for t, bw in zip(tr._times, tr._bw):
                times.append(t + offset)
                bws.append(bw)
            offset += tr._duration
        return Trace(times, bws, duration_s=offset, name=name)

    def repeated(self, copies: int, name: str = "") -> "Trace":
        """The trace concatenated with itself ``copies`` times."""
        if copies < 1:
            raise ValueError("copies must be >= 1")
        return Trace.concatenate([self] * copies, name=name or self.name)

    def resampled(self, interval_s: float, name: str = "") -> "Trace":
        """Average onto a regular grid of ``interval_s`` buckets."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        n = max(1, int(math.ceil(self._duration / interval_s - _EPS)))
        samples = []
        for i in range(n):
            a = i * interval_s
            b = min((i + 1) * interval_s, self._duration)
            samples.append(self.kilobits_between(a, b) / (b - a))
        return Trace.from_samples(samples, interval_s, name=name or self.name)

    def chunk_throughputs(self, chunk_duration_s: float, num_chunks: int) -> List[float]:
        """Average throughput over successive ``chunk_duration_s`` windows.

        This is the "oracle" view used by perfect-prediction experiments
        (MPC-OPT in Section 7): window ``j`` is
        ``[j*L, (j+1)*L)`` in wall time.
        """
        if chunk_duration_s <= 0:
            raise ValueError("chunk duration must be positive")
        return [
            self.average_kbps_between(j * chunk_duration_s, (j + 1) * chunk_duration_s)
            for j in range(num_chunks)
        ]
