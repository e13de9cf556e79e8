"""Binning and table storage for FastMPC (Section 5).

FastMPC replaces the online solver with a precomputed decision table
indexed by (buffer level, previous bitrate, predicted throughput).  Two
optimisations from Section 5.2 live here:

* **Compaction via binning** — buffer and throughput values are coarsened
  into bins; row keys need not be stored because they are computed from
  bin indices (:class:`Binning`).  Scalar quantisation
  (:meth:`Binning.index_of`) is *flat-array index arithmetic*: one
  inverse-scale multiply plus clamp (with an exact edge-correction step),
  not a per-value binary search.  The vectorized
  :meth:`Binning.index_of_batch` is one ``searchsorted`` over the same
  edges.  Both equal ``bisect_right(edges, value) - 1``, clamped.

* **Table compression** — the optimal decisions for neighbouring scenarios
  are usually identical, so the decision vector compresses extremely well
  under lossless run-length encoding; lookups on the compressed form use
  binary search (:class:`RunLengthEncodedTable`).  Table 1 of the paper
  reports the resulting sizes; :class:`TableSizeReport` reproduces them.
  Batch lookups (:meth:`RunLengthEncodedTable.lookup_batch`) replace the
  per-value bisect with one vectorized ``searchsorted`` over the run
  ends — identical answers, amortised cost.

A third, deployment-facing representation backs the sharded decision
service: :meth:`DecisionTable.from_buffer` wraps a *serialized* table —
typically an ``mmap`` of a published table file — without decoding it.
The run records are binary-searched in place (:class:`MappedRunLengthTable`),
so many worker processes can serve one read-only table file with zero
per-process copies; the serialized form is position-independent, which
is what makes that sharing safe.
"""

from __future__ import annotations

import bisect
import math
import struct
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.events import TableLookup

__all__ = [
    "Binning",
    "RunLengthEncodedTable",
    "MappedRunLengthTable",
    "DecisionTable",
    "TableSizeReport",
]


class Binning:
    """Fixed bins over ``[low, high]`` with linear or logarithmic spacing.

    Values outside the range clamp to the edge bins, so any observed state
    maps to *some* table row — the paper's "key value closest to the
    current state".

    Scalar quantisation is O(1) index arithmetic: ``idx = (f(value) -
    offset) * scale`` (``f`` = identity or ``log``) followed by an exact
    correction against the true edge values, which repairs any
    floating-point off-by-one so the result always equals the reference
    ``bisect_right(edges, value) - 1``.  The batch path is that reference
    itself, as one ``searchsorted`` over the same edge array.
    """

    __slots__ = (
        "low",
        "high",
        "count",
        "spacing",
        "_edges",
        "_centers",
        "_edges_list",
        "_offset",
        "_scale",
    )

    def __init__(self, low: float, high: float, count: int, spacing: str = "linear") -> None:
        if count < 1:
            raise ValueError("need at least one bin")
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("bin range must be finite")
        if not (low < high):
            raise ValueError("need low < high")
        if spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {spacing!r}")
        if spacing == "log" and low <= 0:
            raise ValueError("log spacing requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.count = count
        self.spacing = spacing
        # The flat-lookup scale: one multiply maps a value to (almost) its
        # bin; the correction loops in index_of make it exact.
        if spacing == "linear":
            edges = np.linspace(self.low, self.high, count + 1)
            centers = (edges[:-1] + edges[1:]) / 2.0
            self._offset = self.low
            self._scale = count / (self.high - self.low)
        else:
            edges = np.geomspace(self.low, self.high, count + 1)
            centers = np.sqrt(edges[:-1] * edges[1:])  # geometric mid
            self._offset = math.log(self.low)
            self._scale = count / (math.log(self.high) - math.log(self.low))
        # Scalar lookups compare against the plain list (no per-access
        # NumPy scalar boxing); batch lookups use the shared array views.
        self._edges_list = edges.tolist()
        # Shared read-only views: hot-loop callers (table builds,
        # kernels) access these per call, so handing out defensive
        # copies would be a per-access allocation; read-only flags keep
        # sharing safe.
        edges.setflags(write=False)
        centers.setflags(write=False)
        self._edges = edges
        self._centers = centers

    @property
    def edges(self):
        """Bin edge values — a shared *read-only* view, not a copy."""
        return self._edges

    @property
    def centers(self):
        """Bin centre values — a shared *read-only* view, not a copy."""
        return self._centers

    def index_of(self, value: float) -> int:
        """Bin index for a value, clamping out-of-range values.

        Equivalent to (and regression-tested against)
        ``bisect_right(edges, value) - 1`` clamped to ``[0, count - 1]``
        — but via the precomputed inverse scale: one multiply, one
        truncation, and an edge correction that moves at most a step or
        two when floating point lands the raw index one bin off.
        """
        if math.isnan(value):
            raise ValueError("cannot bin NaN")
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.count - 1
        x = value if self.spacing == "linear" else math.log(value)
        idx = int((x - self._offset) * self._scale)
        last = self.count - 1
        if idx < 0:
            idx = 0
        elif idx > last:
            idx = last
        edges = self._edges_list
        # Exact correction: settle on the largest idx with edges[idx] <=
        # value.  The raw index is within one bin of the answer, so each
        # loop runs 0 or 1 iterations in practice (bounded by the edge
        # monotonicity either way).
        while idx > 0 and value < edges[idx]:
            idx -= 1
        while idx < last and value >= edges[idx + 1]:
            idx += 1
        return idx

    def index_of_reference(self, value: float) -> int:
        """The bisect reference implementation of :meth:`index_of`.

        Kept (and exported) purely as the parity oracle for tests: the
        arithmetic path must agree with this on every input, including
        exact bin edges and out-of-range clamps.
        """
        if math.isnan(value):
            raise ValueError("cannot bin NaN")
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.count - 1
        idx = bisect.bisect_right(self._edges_list, value) - 1
        return min(max(idx, 0), self.count - 1)

    def index_of_batch(self, values):
        """Vectorized :meth:`index_of` over an array of values.

        Returns an ``int64`` array.  One ``searchsorted(edges, values,
        side="right") - 1`` and a clamp: exactly
        :meth:`index_of_reference`'s ``bisect_right``, element by element,
        with the same clamp and NaN semantics as the scalar path.
        """
        v = np.asarray(values, dtype=np.float64)
        if np.isnan(v).any():
            raise ValueError("cannot bin NaN")
        idx = np.searchsorted(self._edges, v, side="right") - 1
        # maximum/minimum, not np.clip: the same clamp at half the
        # dispatch cost on the fleet's and the edge frames' small batches.
        return np.minimum(np.maximum(idx, 0), self.count - 1)

    def center(self, index: int) -> float:
        if not 0 <= index < self.count:
            raise IndexError(f"bin index {index} out of range")
        return float(self._centers[index])

    def __repr__(self) -> str:
        return (
            f"Binning({self.low:g}..{self.high:g}, count={self.count}, "
            f"{self.spacing})"
        )


class RunLengthEncodedTable:
    """Lossless RLE of a flat decision vector with binary-search lookup.

    Storage is two parallel arrays: the *exclusive end index* of each run
    and the run's value.  ``lookup(i)`` binary-searches the end-index array
    — exactly the online procedure Section 5.2 describes.
    ``lookup_batch`` answers many indices with one ``searchsorted`` over
    the same run ends (bitwise-identical results).
    """

    __slots__ = ("_run_ends", "_run_values", "_length", "_ends_arr", "_values_arr")

    def __init__(self, run_ends: Sequence[int], run_values: Sequence[int]) -> None:
        if len(run_ends) != len(run_values):
            raise ValueError("run arrays must have equal length")
        if not run_ends:
            raise ValueError("table must not be empty")
        prev = 0
        for end in run_ends:
            if end <= prev:
                raise ValueError("run ends must be strictly increasing and positive")
            prev = end
        self._run_ends = list(int(e) for e in run_ends)
        self._run_values = list(int(v) for v in run_values)
        self._length = self._run_ends[-1]
        self._ends_arr = None  # lazy batch-lookup arrays (immutable table)
        self._values_arr = None

    @classmethod
    def encode(cls, values: Sequence[int]) -> "RunLengthEncodedTable":
        """Compress a flat vector of small non-negative ints."""
        if len(values) == 0:
            raise ValueError("cannot encode an empty vector")
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        change = np.flatnonzero(np.diff(arr)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(arr)]))
        return cls(ends.tolist(), arr[starts].tolist())

    def decode(self):
        """Expand back to the full vector (tests / full-table mode)."""
        out = np.empty(self._length, dtype=np.int64)
        start = 0
        for end, value in zip(self._run_ends, self._run_values):
            out[start:end] = value
            start = end
        return out

    def lookup(self, index: int) -> int:
        """Value at a flat index via binary search over run ends."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length - 1}")
        run = bisect.bisect_right(self._run_ends, index)
        return self._run_values[run]

    def lookup_batch(self, indices):
        """Values at many flat indices — one vectorized ``searchsorted``.

        ``side='right'`` over the run ends is exactly the scalar
        ``bisect_right`` recurrence, so batch and scalar answers are
        identical on every index.  Raises ``IndexError`` when any index
        is out of range.
        """
        flat = np.asarray(indices, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= self._length):
            raise IndexError(f"batch index out of range 0..{self._length - 1}")
        if self._ends_arr is None:
            self._ends_arr = np.asarray(self._run_ends, dtype=np.int64)
            self._values_arr = np.asarray(self._run_values, dtype=np.int64)
        runs = np.searchsorted(self._ends_arr, flat, side="right")
        return self._values_arr[runs]

    def lookup_profiled(self, index: int) -> Tuple[int, int]:
        """Like :meth:`lookup` but also counts binary-search probes.

        Returns ``(value, depth)`` where ``depth`` is the number of run
        ends examined — the profiling signal behind the observability
        layer's table-lookup events.  The search is the same
        ``bisect_right`` recurrence, hand-rolled so probes are countable.
        """
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length - 1}")
        lo, hi, depth = 0, len(self._run_ends), 0
        ends = self._run_ends
        while lo < hi:
            mid = (lo + hi) // 2
            depth += 1
            if index < ends[mid]:
                hi = mid
            else:
                lo = mid + 1
        return self._run_values[lo], depth

    def __len__(self) -> int:
        return self._length

    @property
    def num_runs(self) -> int:
        return len(self._run_ends)

    def size_bytes(self, index_bytes: int = 4, value_bytes: int = 1) -> int:
        """Serialized size: one (end, value) record per run."""
        return self.num_runs * (index_bytes + value_bytes)

    def to_bytes(self) -> bytes:
        """Portable serialization: u32 run count, then (u32 end, u8 value)."""
        parts = [struct.pack("<I", self.num_runs)]
        for end, value in zip(self._run_ends, self._run_values):
            parts.append(struct.pack("<IB", end, value))
        return b"".join(parts)

    @property
    def max_value(self) -> int:
        """Largest decision value across all runs."""
        return max(self._run_values)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RunLengthEncodedTable":
        """Inverse of :meth:`to_bytes`, in O(runs) time and memory.

        Only the canonical (:meth:`encode`) form loads: adjacent runs
        with equal values are refused, so :meth:`DecisionTable.
        same_decisions` can compare encodings byte for byte.
        """
        (count,) = _RLE_HEADER.unpack_from(blob, 0)
        ends: List[int] = []
        values: List[int] = []
        offset = _RLE_HEADER.size
        for _ in range(count):
            end, value = _RLE_RECORD.unpack_from(blob, offset)
            offset += _RLE_RECORD.size
            if values and value == values[-1]:
                raise ValueError(_SPLIT_RUN)
            ends.append(end)
            values.append(value)
        return cls(ends, values)

    def full_vector(self):
        """The decisions one byte per entry: a ``uint8`` array built
        straight from the runs."""
        lengths = np.diff(np.asarray(self._run_ends, dtype=np.int64), prepend=0)
        return np.repeat(np.asarray(self._run_values, dtype=np.uint8), lengths)


#: Serialized RLE layout: ``u32 run count`` then one ``(u32 end, u8 value)``
#: record per run — 5 bytes, unaligned, little-endian.
_RLE_HEADER = struct.Struct("<I")
_RLE_RECORD = struct.Struct("<IB")
_SPLIT_RUN = "adjacent runs must hold different values"
#: Serialized table header after the magic: two ``(f64 low, f64 high,
#: u32 count, u8 spacing)`` binnings, then ``(u32 levels, u8 keep_full)``.
_BINNING_HEADER = struct.Struct("<ddIB")
_SHAPE_HEADER = struct.Struct("<IB")
#: Bytes a :class:`Binning` holds per bin: its edge and centre arrays and
#: the edge list of the scalar path (48 under tracemalloc, also at peak).
_BINNING_BYTES_PER_BIN = 48
#: Bytes :meth:`RunLengthEncodedTable.from_bytes` takes per run: an int
#: object for the end and a slot in each run list, twice while
#: ``__init__`` copies the lists.  Under tracemalloc (CPython 3.11) the
#: peak was 60-63 bytes per run for ends below 2**30 and 64-67 above
#: (larger ints), and 44-50 stay held after the load.
_RLE_BYTES_PER_RUN = 68


class MappedRunLengthTable:
    """Zero-copy lookups over a *serialized* RLE blob (mmap-friendly).

    Wraps the exact byte layout :meth:`RunLengthEncodedTable.to_bytes`
    produces — a ``u32`` run count followed by ``(u32 end, u8 value)``
    records — and binary-searches the records in place with
    ``struct.unpack_from``, so the backing buffer (typically an ``mmap``
    of a published table file) is never decoded or copied.  The layout is
    position-independent: any process that can see the bytes can serve
    lookups from them, which is what lets a cluster of worker processes
    share one read-only table file.

    Batch lookups read the run records *once* into two small arrays (runs
    number in the thousands where entries number in the millions) and
    then answer every batch with one ``searchsorted`` — the big mmap'd
    decision vector itself is still never expanded.

    Construction validates the run structure (strictly increasing ends,
    adjacent runs holding different values) in one O(runs) scan — the
    scan does not compromise the zero-copy story.  The memoryview held
    here keeps the underlying buffer (and any ``mmap`` behind it) alive.
    """

    __slots__ = ("_view", "_num_runs", "_length", "_max_value", "_ends_arr", "_values_arr")

    def __init__(self, buffer) -> None:
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if len(view) < _RLE_HEADER.size:
            raise ValueError("buffer too small for an RLE header")
        (count,) = _RLE_HEADER.unpack_from(view, 0)
        if count < 1:
            raise ValueError("table must not be empty")
        need = _RLE_HEADER.size + _RLE_RECORD.size * count
        if len(view) < need:
            raise ValueError(
                f"truncated RLE blob: {len(view)} bytes, {count} runs need {need}"
            )
        self._view = view[:need]
        prev = 0
        prev_value = -1
        max_value = 0
        for run in range(count):
            end, value = _RLE_RECORD.unpack_from(
                view, _RLE_HEADER.size + _RLE_RECORD.size * run
            )
            if end <= prev:
                raise ValueError("run ends must be strictly increasing and positive")
            if value == prev_value:
                raise ValueError(_SPLIT_RUN)
            prev, prev_value = end, value
            if value > max_value:
                max_value = value
        self._num_runs = count
        self._length = prev
        self._max_value = max_value
        self._ends_arr = None  # lazy batch-lookup arrays
        self._values_arr = None

    def _run_at(self, run: int) -> Tuple[int, int]:
        return _RLE_RECORD.unpack_from(
            self._view, _RLE_HEADER.size + _RLE_RECORD.size * run
        )

    def lookup(self, index: int) -> int:
        """Value at a flat index via in-place binary search over run ends."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length - 1}")
        lo, hi = 0, self._num_runs
        view = self._view
        header, record = _RLE_HEADER.size, _RLE_RECORD.size
        while lo < hi:
            mid = (lo + hi) // 2
            (end,) = _RLE_HEADER.unpack_from(view, header + record * mid)
            if index < end:
                hi = mid
            else:
                lo = mid + 1
        return self._run_at(lo)[1]

    def _ensure_arrays(self) -> None:
        # One zero-copy structured read of the packed (u32 end, u8 value)
        # records; `end` is widened for searchsorted, `value` copied out
        # of the view so the arrays are standalone.
        records = np.frombuffer(
            self._view,
            dtype=np.dtype([("end", "<u4"), ("value", "u1")]),
            count=self._num_runs,
            offset=_RLE_HEADER.size,
        )
        self._ends_arr = records["end"].astype(np.int64)
        self._values_arr = records["value"].astype(np.int64)

    def lookup_batch(self, indices):
        """Batch variant of :meth:`lookup` — same answers, one
        ``searchsorted`` over the (cached) run-end array."""
        flat = np.asarray(indices, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= self._length):
            raise IndexError(f"batch index out of range 0..{self._length - 1}")
        if self._ends_arr is None:
            self._ensure_arrays()
        runs = np.searchsorted(self._ends_arr, flat, side="right")
        return self._values_arr[runs]

    def lookup_profiled(self, index: int) -> Tuple[int, int]:
        """Like :meth:`lookup` but also counts binary-search probes —
        the same ``(value, depth)`` contract as
        :meth:`RunLengthEncodedTable.lookup_profiled`."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length - 1}")
        lo, hi, depth = 0, self._num_runs, 0
        view = self._view
        header, record = _RLE_HEADER.size, _RLE_RECORD.size
        while lo < hi:
            mid = (lo + hi) // 2
            depth += 1
            (end,) = _RLE_HEADER.unpack_from(view, header + record * mid)
            if index < end:
                hi = mid
            else:
                lo = mid + 1
        return self._run_at(lo)[1], depth

    def decode(self):
        """Expand to the full vector (parity checks / tests only)."""
        out = np.empty(self._length, dtype=np.int64)
        start = 0
        for run in range(self._num_runs):
            end, value = self._run_at(run)
            out[start:end] = value
            start = end
        return out

    def __len__(self) -> int:
        return self._length

    @property
    def num_runs(self) -> int:
        return self._num_runs

    @property
    def max_value(self) -> int:
        """Largest decision value across all runs (scanned at init)."""
        return self._max_value

    def size_bytes(self, index_bytes: int = 4, value_bytes: int = 1) -> int:
        return self._num_runs * (index_bytes + value_bytes)

    def to_bytes(self) -> bytes:
        """The wrapped serialization — a copy of the viewed bytes."""
        return bytes(self._view)


@dataclass(frozen=True)
class TableSizeReport:
    """One row of the paper's Table 1."""

    discretization_levels: int
    num_entries: int
    full_bytes: int
    rle_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Compressed / full — lower is better (paper: 0.5 at 100 levels,
        ~0.18 at 500 levels)."""
        return self.rle_bytes / self.full_bytes

    def describe(self) -> str:
        return (
            f"{self.discretization_levels:>5} levels | full {self.full_bytes / 1000:8.1f} kB"
            f" | RLE {self.rle_bytes / 1000:8.1f} kB"
            f" | ratio {self.compression_ratio:5.2f}"
        )


class DecisionTable:
    """The FastMPC lookup structure over (buffer, prev level, throughput).

    The flat layout is C-order ``(buffer_bin, prev_level, throughput_bin)``
    with the throughput axis fastest — neighbouring throughput bins almost
    always share a decision, which is what makes the RLE effective.
    """

    __slots__ = ("buffer_bins", "num_levels", "throughput_bins", "_rle", "_full")

    def __init__(
        self,
        buffer_bins: Binning,
        num_levels: int,
        throughput_bins: Binning,
        decisions_flat: Sequence[int],
        keep_full: bool = False,
    ) -> None:
        if num_levels < 1:
            raise ValueError("need at least one ladder level")
        expected = buffer_bins.count * num_levels * throughput_bins.count
        if len(decisions_flat) != expected:
            raise ValueError(
                f"{len(decisions_flat)} decisions but the index space has {expected}"
            )
        self.buffer_bins = buffer_bins
        self.num_levels = num_levels
        self.throughput_bins = throughput_bins
        arr = np.asarray(decisions_flat, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= num_levels:
            raise ValueError("decisions must be valid ladder level indices")
        self._rle = RunLengthEncodedTable.encode(arr)
        self._full = arr.astype(np.uint8) if keep_full else None

    # ------------------------------------------------------------------

    def _flat_index(self, buffer_idx: int, prev_level: int, throughput_idx: int) -> int:
        if not 0 <= prev_level < self.num_levels:
            raise IndexError(f"prev level {prev_level} out of range")
        return (
            buffer_idx * self.num_levels + prev_level
        ) * self.throughput_bins.count + throughput_idx

    def lookup(
        self, buffer_level_s: float, prev_level: int, predicted_kbps: float
    ) -> int:
        """The online step: quantize the state, then one run lookup."""
        b = self.buffer_bins.index_of(buffer_level_s)
        c = self.throughput_bins.index_of(predicted_kbps)
        flat = self._flat_index(b, prev_level, c)
        if self._full is not None:
            return int(self._full[flat])
        return self._rle.lookup(flat)

    def lookup_batch(self, buffer_levels_s, prev_levels, predicted_kbps):
        """Vectorized :meth:`lookup` over equal-length state arrays.

        ``prev_levels`` must already be valid ladder indices (the
        decision service validates per request and degrades invalid ones
        to the fallback *before* batching).  Returns an ``int64`` array
        of level indices.  Answers are identical to per-element
        :meth:`lookup` calls: both paths share the binnings' index
        arithmetic and the RLE run search.
        """
        b = self.buffer_bins.index_of_batch(buffer_levels_s)
        c = self.throughput_bins.index_of_batch(predicted_kbps)
        prev = np.asarray(prev_levels, dtype=np.int64)
        if prev.size and (prev.min() < 0 or prev.max() >= self.num_levels):
            raise IndexError("prev level out of range")
        flat = (b * self.num_levels + prev) * self.throughput_bins.count + c
        if self._full is not None:
            return self._full[flat].astype(np.int64)
        return self._rle.lookup_batch(flat)

    def lookup_traced(
        self,
        buffer_level_s: float,
        prev_level: int,
        predicted_kbps: float,
        tracer,
        session_id: str = "",
    ) -> int:
        """:meth:`lookup` plus a :class:`repro.obs.TableLookup` event.

        Returns the same level as :meth:`lookup` on the same inputs; the
        event records the quantized bins, the RLE search depth (0 when
        the full table answered), and the lookup wall time.
        """
        t0 = time.perf_counter()
        b = self.buffer_bins.index_of(buffer_level_s)
        c = self.throughput_bins.index_of(predicted_kbps)
        flat = self._flat_index(b, prev_level, c)
        if self._full is not None:
            level, depth = int(self._full[flat]), 0
        else:
            level, depth = self._rle.lookup_profiled(flat)
        tracer.emit(
            TableLookup(
                session_id=session_id,
                t_mono=tracer.now(),
                buffer_bin=b,
                prev_level=prev_level,
                throughput_bin=c,
                level=level,
                num_runs=self._rle.num_runs,
                depth=depth,
                wall_s=time.perf_counter() - t0,
            )
        )
        return level

    @property
    def num_entries(self) -> int:
        return len(self._rle)

    @property
    def rle(self) -> RunLengthEncodedTable:
        return self._rle

    def size_report(self, discretization_levels: int) -> TableSizeReport:
        """Full-table vs RLE sizes (one Table 1 row).

        Full storage is one byte per entry (levels fit a u8, as in the
        paper's 5-level ladder); RLE records are 5 bytes per run.
        """
        return TableSizeReport(
            discretization_levels=discretization_levels,
            num_entries=self.num_entries,
            full_bytes=self.num_entries,
            rle_bytes=self._rle.size_bytes(),
        )

    # ------------------------------------------------------------------
    # Portable serialization (the persistent on-disk table cache)
    # ------------------------------------------------------------------

    _MAGIC = b"RPROTBL1"
    _SPACING_CODES = {"linear": 0, "log": 1}

    @staticmethod
    def _pack_binning(binning: Binning) -> bytes:
        return _BINNING_HEADER.pack(
            binning.low,
            binning.high,
            binning.count,
            DecisionTable._SPACING_CODES[binning.spacing],
        )

    @staticmethod
    def _unpack_binning(view, offset: int) -> Tuple[tuple, int]:
        """One binning header as the ``(low, high, count, spacing)``
        arguments of :class:`Binning`, which is not built here."""
        low, high, count, code = _BINNING_HEADER.unpack_from(view, offset)
        spacing = {v: k for k, v in DecisionTable._SPACING_CODES.items()}.get(code)
        if spacing is None:
            raise ValueError(f"unknown binning spacing code {code}")
        return (low, high, count, spacing), offset + _BINNING_HEADER.size

    def to_bytes(self) -> bytes:
        """Lossless serialization: binnings, shape flags, then the RLE.

        ``from_bytes(to_bytes())`` reproduces a bitwise-identical table
        (same binnings, same runs, same lookups).
        """
        return b"".join(
            [
                self._MAGIC,
                self._pack_binning(self.buffer_bins),
                self._pack_binning(self.throughput_bins),
                _SHAPE_HEADER.pack(self.num_levels, int(self._full is not None)),
                self._rle.to_bytes(),
            ]
        )

    @classmethod
    def _deserialize(
        cls, buffer, mapped: bool, max_bytes: Optional[int] = None
    ) -> "DecisionTable":
        """Header first, then the runs, then the binnings.

        Nothing the header sizes — no :class:`Binning`, no decision
        array — is built until the runs' last end equals the declared
        index space and every run value is a ladder index, so a forged
        header costs time and memory in proportion to the blob, not to
        the counts it declares.  A consistent header can still declare
        huge binnings, a huge ``keep_full`` vector or many runs; with
        ``max_bytes``, what those would hold is charged first, and a table
        over the budget raises ``ValueError`` before any of it is built.
        """
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        magic_len = len(cls._MAGIC)
        if bytes(view[:magic_len]) != cls._MAGIC:
            raise ValueError("not a serialized DecisionTable")
        buffer_spec, offset = cls._unpack_binning(view, magic_len)
        throughput_spec, offset = cls._unpack_binning(view, offset)
        num_levels, keep_full = _SHAPE_HEADER.unpack_from(view, offset)
        offset += _SHAPE_HEADER.size
        if num_levels < 1:
            raise ValueError("need at least one ladder level")
        expected = buffer_spec[2] * num_levels * throughput_spec[2]
        keep_full = bool(keep_full) and not mapped
        if max_bytes is not None:
            cost = _BINNING_BYTES_PER_BIN * (buffer_spec[2] + throughput_spec[2])
            if keep_full:
                cost += expected  # one byte per entry
            if not mapped:
                # Parsed runs are Python ints in lists, charged by the
                # run count the RLE header declares.
                (num_runs,) = _RLE_HEADER.unpack_from(view, offset)
                cost += _RLE_BYTES_PER_RUN * num_runs
            if cost > max_bytes:
                raise ValueError(
                    f"table would hold {cost} bytes, over the {max_bytes}-byte budget"
                )
        if mapped:
            rle = MappedRunLengthTable(view[offset:])
        else:
            rle = RunLengthEncodedTable.from_bytes(view[offset:])
        if len(rle) != expected:
            raise ValueError(
                f"{len(rle)} decisions but the index space has {expected}"
            )
        if rle.max_value >= num_levels:
            raise ValueError("decisions must be valid ladder level indices")
        table = object.__new__(cls)
        table.buffer_bins = Binning(*buffer_spec)
        table.num_levels = num_levels
        table.throughput_bins = Binning(*throughput_spec)
        table._rle = rle
        table._full = rle.full_vector() if keep_full else None
        return table

    @classmethod
    def from_bytes(
        cls, blob: bytes, *, max_bytes: Optional[int] = None
    ) -> "DecisionTable":
        """Inverse of :meth:`to_bytes`.

        Adopts the validated runs as they are instead of expanding them
        to the full vector.  ``max_bytes`` bounds what the headers make
        the load build — both binnings, the parsed runs, and the
        one-byte-per-entry vector of a ``keep_full`` table; over it,
        ``ValueError``.
        """
        return cls._deserialize(blob, mapped=False, max_bytes=max_bytes)

    @classmethod
    def from_buffer(cls, buffer) -> "DecisionTable":
        """Zero-copy view over a serialized table (the :meth:`to_bytes`
        layout), typically an ``mmap`` of a published table file.

        Unlike :meth:`from_bytes`, the runs are not even parsed: lookups
        binary-search the serialized run records in place through a
        :class:`MappedRunLengthTable`, so N worker processes mapping the
        same file share one copy of the table in page cache.  Only the
        fixed-size header (binnings, ladder size) and the O(runs)
        structure validation read the buffer up front, and the
        ``keep_full`` flag is ignored.

        ``lookup``/``lookup_traced`` answers are identical to the
        in-memory table's — :meth:`same_decisions` (or the Hypothesis
        parity suite) checks that end to end.
        """
        return cls._deserialize(buffer, mapped=True)

    def same_decisions(self, other: "DecisionTable") -> bool:
        """True when ``other`` answers every lookup identically.

        Compares the binnings, ladder size, and the run-length encoding
        byte for byte (the RLE is canonical: one encoding per decision
        vector), ignoring storage details like ``keep_full`` or whether
        either side is buffer-backed.  This is the parity check the
        cluster runs after mapping a published table file.
        """
        return (
            self.num_levels == other.num_levels
            and self._same_binning(self.buffer_bins, other.buffer_bins)
            and self._same_binning(self.throughput_bins, other.throughput_bins)
            and self._rle.to_bytes() == other._rle.to_bytes()
        )

    @staticmethod
    def _same_binning(a: Binning, b: Binning) -> bool:
        return (
            a.low == b.low
            and a.high == b.high
            and a.count == b.count
            and a.spacing == b.spacing
        )
