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
  ends — identical answers, amortised cost.  Tables that share one
  layout (the QoE presets' tables of one ladder) stack into one such
  search (:class:`DecisionTableStack`).

Deployment reads the same structure back: :meth:`DecisionTable.from_bytes`
loads a serialized table — a disk-cache entry, a published table file, a
``POST /v1/table`` body — with one ``np.frombuffer`` read of its run
records into the table's own arrays, about 9 bytes per run.
"""

from __future__ import annotations

import bisect
import math
import struct
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.events import TableLookup

__all__ = [
    "Binning",
    "RunLengthEncodedTable",
    "DecisionTable",
    "DecisionTableStack",
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
        # bin; the correction loops in index_of make it exact.  A range
        # too wide (edges or centres overflow) or too narrow (the scale
        # overflows, or the logs of its ends round equal) for float64 is
        # refused here, not met later as a bin lookup that cannot convert
        # NaN or infinity to an index.
        with np.errstate(over="ignore", invalid="ignore"):
            if spacing == "linear":
                edges = np.linspace(self.low, self.high, count + 1)
                centers = (edges[:-1] + edges[1:]) / 2.0
                self._offset = self.low
                width = self.high - self.low
            else:
                edges = np.geomspace(self.low, self.high, count + 1)
                centers = np.sqrt(edges[:-1] * edges[1:])  # geometric mid
                self._offset = math.log(self.low)
                width = math.log(self.high) - self._offset
        self._scale = count / width if width > 0.0 else math.inf
        # Scalar lookups compare against the plain list (no per-access
        # NumPy scalar boxing); batch lookups use the shared array views.
        self._edges_list = edges.tolist()
        # Finite edges ascend, and so do the centres between them: the
        # centres' extremes are the first and the last.  (Checked in
        # Python: a process's first NumPy reduction costs ~0.2 MB.)
        if not (
            0.0 < self._scale < math.inf
            and all(map(math.isfinite, self._edges_list))
            and math.isfinite(centers[0])
            and math.isfinite(centers[-1])
        ):
            raise ValueError(
                f"bin range [{self.low!r}, {self.high!r}] in {count} bins"
                " is outside float64's reach"
            )
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

    Storage is two contiguous arrays: the *exclusive end index* of each
    run (``int64``) and the run's value (``uint8``, the serialized
    width).  ``lookup(i)`` binary-searches the end-index array — exactly
    the online procedure Section 5.2 describes.  ``lookup_batch`` answers
    many indices with one ``searchsorted`` over the same run ends
    (bitwise-identical results).

    Every table is canonical — the one :meth:`encode` produces: ends
    strictly increasing, adjacent runs holding different values — so
    :meth:`to_bytes` is one encoding per decision vector.
    """

    __slots__ = ("_ends", "_values", "_ends_view", "_values_view", "_length")

    def __init__(self, run_ends: Sequence[int], run_values: Sequence[int]) -> None:
        ends = np.array(run_ends, dtype=np.int64)  # a copy: no reference to a blob
        values = np.asarray(run_values)
        if ends.ndim != 1 or values.shape != ends.shape:
            raise ValueError("run arrays must have equal length")
        if not ends.size:
            raise ValueError("table must not be empty")
        if ends[0] <= 0 or (ends[1:] <= ends[:-1]).any():
            raise ValueError("run ends must be strictly increasing and positive")
        if ends[-1] > _MAX_RUN_END:
            raise ValueError(f"run ends must fit the u32 record, got {ends[-1]}")
        if values.min() < 0 or values.max() > 255:
            raise ValueError("run values must fit the u8 record")
        if (values[1:] == values[:-1]).any():
            raise ValueError(_SPLIT_RUN)
        self._ends = ends
        self._values = values.astype(np.uint8)
        self._length = int(ends[-1])
        # Scalar lookups index memoryviews, which yield plain ints where
        # indexing the arrays would box a NumPy scalar per probe.
        self._ends_view = memoryview(self._ends)
        self._values_view = memoryview(self._values)

    def __reduce__(self):
        # Memoryviews do not pickle; copies and pickles rebuild them.
        return type(self), (self._ends, self._values)

    @classmethod
    def encode(cls, values: Sequence[int]) -> "RunLengthEncodedTable":
        """Compress a flat vector of small non-negative ints."""
        if len(values) == 0:
            raise ValueError("cannot encode an empty vector")
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        ends = np.append(np.flatnonzero(arr[1:] != arr[:-1]) + 1, len(arr))
        return cls(ends, arr[ends - 1])

    def decode(self):
        """Expand back to the full ``int64`` vector (tests, examples)."""
        lengths = np.diff(self._ends, prepend=0)
        return np.repeat(self._values.astype(np.int64), lengths)

    def lookup(self, index: int) -> int:
        """Value at a flat index via binary search over run ends."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length - 1}")
        return self._values_view[bisect.bisect_right(self._ends_view, index)]

    def lookup_batch(self, indices):
        """Values at many flat indices — one vectorized ``searchsorted``.

        ``side='right'`` over the run ends is exactly the scalar
        ``bisect_right`` recurrence, so batch and scalar answers are
        identical on every index.  Returns ``int64``; raises
        ``IndexError`` when any index is out of range.
        """
        flat = np.asarray(indices, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= self._length):
            raise IndexError(f"batch index out of range 0..{self._length - 1}")
        runs = np.searchsorted(self._ends, flat, side="right")
        return self._values[runs].astype(np.int64)

    def lookup_profiled(self, index: int) -> Tuple[int, int]:
        """Like :meth:`lookup` but also counts binary-search probes.

        Returns ``(value, depth)`` where ``depth`` is the number of run
        ends examined — the profiling signal behind the observability
        layer's table-lookup events.  The search is the same
        ``bisect_right`` recurrence, hand-rolled so probes are countable.
        """
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range 0..{self._length - 1}")
        ends = self._ends_view
        lo, hi, depth = 0, len(ends), 0
        while lo < hi:
            mid = (lo + hi) // 2
            depth += 1
            if index < ends[mid]:
                hi = mid
            else:
                lo = mid + 1
        return self._values_view[lo], depth

    def __len__(self) -> int:
        return self._length

    @property
    def num_runs(self) -> int:
        return len(self._ends)

    def size_bytes(self, index_bytes: int = 4, value_bytes: int = 1) -> int:
        """Serialized size: one (end, value) record per run."""
        return self.num_runs * (index_bytes + value_bytes)

    def to_bytes(self) -> bytes:
        """Portable serialization: u32 run count, then (u32 end, u8 value)."""
        records = np.empty(self.num_runs, dtype=_RLE_RECORD)
        records["end"] = self._ends
        records["value"] = self._values
        return _RLE_HEADER.pack(self.num_runs) + records.tobytes()

    @property
    def max_value(self) -> int:
        """Largest decision value across all runs."""
        return int(self._values.max())

    @classmethod
    def from_bytes(cls, blob) -> "RunLengthEncodedTable":
        """Inverse of :meth:`to_bytes`: one ``np.frombuffer`` read of the
        records, copied into the table's own arrays.

        ``blob`` is any bytes-like object.  A blob shorter than the
        records its run count declares raises ``ValueError``, and so does
        a non-canonical one (see the class docstring).
        """
        view = memoryview(blob).cast("B")
        if len(view) < _RLE_HEADER.size:
            raise ValueError(f"truncated RLE blob: {len(view)} bytes, no run count")
        (count,) = _RLE_HEADER.unpack_from(view, 0)
        need = _RLE_HEADER.size + _RLE_RECORD.itemsize * count
        if len(view) < need:
            raise ValueError(
                f"truncated RLE blob: {len(view)} bytes, {count} runs need {need}"
            )
        records = np.frombuffer(
            view, dtype=_RLE_RECORD, count=count, offset=_RLE_HEADER.size
        )
        return cls(records["end"], records["value"])


#: Serialized RLE layout: ``u32 run count`` then one ``(u32 end, u8 value)``
#: record per run — 5 bytes, unaligned, little-endian.
_RLE_HEADER = struct.Struct("<I")
_RLE_RECORD = np.dtype([("end", "<u4"), ("value", "u1")])
_MAX_RUN_END = 2**32 - 1
_SPLIT_RUN = "adjacent runs must hold different values"
#: Serialized table header after the magic: two ``(f64 low, f64 high,
#: u32 count, u8 spacing)`` binnings, then ``(u32 levels, u8 keep_full)``.
#: The keep-full byte is written as 0 and ignored on load.
_BINNING_HEADER = struct.Struct("<ddIB")
_SHAPE_HEADER = struct.Struct("<IB")
#: Bytes a :class:`Binning` holds per bin: its edge and centre arrays and
#: the edge list of the scalar path (48 under tracemalloc, also at peak).
_BINNING_BYTES_PER_BIN = 48
#: Bytes :meth:`RunLengthEncodedTable.from_bytes` takes per run at its
#: peak: the ``int64`` end and ``uint8`` value it keeps, plus a one-byte
#: mask while it checks the runs.  Under tracemalloc (CPython 3.11.7,
#: NumPy 2.4.6, x86-64) loads of 40,000-200,000 runs peaked at 9.0-9.1
#: bytes per run, and the 100x100x5 table's 7,323 runs at 10.9 with its
#: binnings and fixed objects counted in.
_RLE_BYTES_PER_RUN = 12
#: Run values serialize as a u8, so a table holds at most 256 levels.
MAX_LEVELS = 256


def check_num_levels(num_levels: int) -> None:
    """Refuse a ladder no decision table can hold, naming the limit."""
    if num_levels < 1:
        raise ValueError("need at least one ladder level")
    if num_levels > MAX_LEVELS:
        raise ValueError(
            f"{num_levels} ladder levels; a decision table holds at most {MAX_LEVELS}"
        )


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

    __slots__ = ("buffer_bins", "num_levels", "throughput_bins", "_rle")

    def __init__(
        self,
        buffer_bins: Binning,
        num_levels: int,
        throughput_bins: Binning,
        decisions_flat: Sequence[int],
    ) -> None:
        check_num_levels(num_levels)
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
        return self._rle.lookup(self._flat_index(b, prev_level, c))

    def lookup_batch(self, buffer_levels_s, prev_levels, predicted_kbps):
        """Vectorized :meth:`lookup` over equal-length state arrays.

        ``prev_levels`` must already be valid ladder indices (the
        decision service validates per request and degrades invalid ones
        to the fallback *before* batching).  Returns an ``int64`` array
        of level indices.  Answers are identical to per-element
        :meth:`lookup` calls: both paths share the binnings' index
        arithmetic and the RLE run search.
        """
        return self._rle.lookup_batch(
            self._flat_indices(buffer_levels_s, prev_levels, predicted_kbps)
        )

    def _flat_indices(self, buffer_levels_s, prev_levels, predicted_kbps):
        """Quantize a batch of states to flat indices into this layout.

        NaN raises ``ValueError`` (from the binnings) and a previous
        level outside the ladder ``IndexError``.
        """
        b = self.buffer_bins.index_of_batch(buffer_levels_s)
        c = self.throughput_bins.index_of_batch(predicted_kbps)
        prev = np.asarray(prev_levels, dtype=np.int64)
        if prev.size and (prev.min() < 0 or prev.max() >= self.num_levels):
            raise IndexError("prev level out of range")
        return (b * self.num_levels + prev) * self.throughput_bins.count + c

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
        event records the quantized bins, the RLE search depth, and the
        lookup wall time.
        """
        t0 = time.perf_counter()
        b = self.buffer_bins.index_of(buffer_level_s)
        c = self.throughput_bins.index_of(predicted_kbps)
        level, depth = self._rle.lookup_profiled(self._flat_index(b, prev_level, c))
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
    # Portable serialization (disk cache, published files, table uploads)
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
        """Lossless serialization: binnings, ladder size, then the RLE.

        ``from_bytes(to_bytes())`` reproduces a bitwise-identical table
        (same binnings, same runs, same lookups).
        """
        return b"".join(
            [
                self._MAGIC,
                self._pack_binning(self.buffer_bins),
                self._pack_binning(self.throughput_bins),
                _SHAPE_HEADER.pack(self.num_levels, 0),
                self._rle.to_bytes(),
            ]
        )

    @classmethod
    def from_bytes(
        cls, blob, *, max_bytes: Optional[int] = None
    ) -> "DecisionTable":
        """Inverse of :meth:`to_bytes`, from any bytes-like ``blob``.

        Header first, then the runs, then the binnings.  A blob shorter
        than the fixed header or than the run records it declares raises
        ``ValueError``.  Nothing the header sizes — no :class:`Binning`,
        no run array — is built until the runs' last end equals the
        declared index space and every run value is a ladder index, so a
        forged header costs time and memory in proportion to the blob,
        not to the counts it declares.  A consistent header can still
        declare huge binnings or many runs; with ``max_bytes``, what
        those would hold is charged first, and a table over the budget
        raises ``ValueError`` before any of it is built.  The table keeps
        its own copy of the runs and no reference to ``blob``.
        """
        view = memoryview(blob).cast("B")
        magic_len = len(cls._MAGIC)
        if bytes(view[:magic_len]) != cls._MAGIC:
            raise ValueError("not a serialized DecisionTable")
        header = (
            magic_len + 2 * _BINNING_HEADER.size + _SHAPE_HEADER.size + _RLE_HEADER.size
        )
        if len(view) < header:
            raise ValueError(
                f"truncated table blob: {len(view)} bytes, the header needs {header}"
            )
        buffer_spec, offset = cls._unpack_binning(view, magic_len)
        throughput_spec, offset = cls._unpack_binning(view, offset)
        num_levels, _ = _SHAPE_HEADER.unpack_from(view, offset)  # keep-full byte ignored
        offset += _SHAPE_HEADER.size
        check_num_levels(num_levels)
        expected = buffer_spec[2] * num_levels * throughput_spec[2]
        if max_bytes is not None:
            (num_runs,) = _RLE_HEADER.unpack_from(view, offset)
            cost = _BINNING_BYTES_PER_BIN * (buffer_spec[2] + throughput_spec[2])
            cost += _RLE_BYTES_PER_RUN * num_runs
            if cost > max_bytes:
                raise ValueError(
                    f"table would hold {cost} bytes, over the {max_bytes}-byte budget"
                )
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
        return table

    def same_decisions(self, other: "DecisionTable") -> bool:
        """True when ``other`` answers every lookup identically.

        Compares the binnings, ladder size, and the run-length encoding
        byte for byte (the RLE is canonical: one encoding per decision
        vector).
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


class DecisionTableStack:
    """Several decision tables over one layout, answered by one lookup.

    The tables must share both binnings and the ladder size — as the
    FastMPC tables of one ladder under different QoE weights do — so one
    quantization serves them all.  Table ``j``'s runs sit at offset
    ``j * num_entries`` in one concatenated run-length table (the runs
    that meet at a boundary merged when they hold the same level), so a
    batch whose rows read different tables costs one ``searchsorted``.
    Answers equal each table's own :meth:`DecisionTable.lookup_batch`,
    with the same NaN, previous-level and index-range checks.  The stack
    holds at most ``2**32 - 1`` entries in all, the run record's width.
    """

    __slots__ = ("_layout", "_rle", "num_tables")

    def __init__(self, tables: Sequence[DecisionTable]) -> None:
        tables = list(tables)
        if not tables:
            raise ValueError("a table stack needs at least one table")
        first = tables[0]
        for table in tables[1:]:
            if table.num_levels != first.num_levels:
                raise ValueError("stacked tables must have the same ladder size")
            if not (
                DecisionTable._same_binning(table.buffer_bins, first.buffer_bins)
                and DecisionTable._same_binning(
                    table.throughput_bins, first.throughput_bins
                )
            ):
                raise ValueError("stacked tables must share their binnings")
        entries = first.num_entries
        ends = np.concatenate(
            [table.rle._ends + j * entries for j, table in enumerate(tables)]
        )
        values = np.concatenate([table.rle._values for table in tables])
        # Each table's runs are canonical, so only a boundary pair can
        # hold one level twice; the later run absorbs the earlier.
        keep = np.append(values[1:] != values[:-1], True)
        self._layout = first
        self._rle = RunLengthEncodedTable(ends[keep], values[keep])
        self.num_tables = len(tables)

    def lookup_batch(self, table_indices, buffer_levels_s, prev_levels, predicted_kbps):
        """Row ``i``'s level from table ``table_indices[i]``, as ``int64``.

        A table index outside the stack raises ``IndexError``.
        """
        flat = self._layout._flat_indices(buffer_levels_s, prev_levels, predicted_kbps)
        which = np.asarray(table_indices, dtype=np.int64)
        if which.shape != flat.shape:
            raise ValueError("one table index per state required")
        if which.size and (which.min() < 0 or which.max() >= self.num_tables):
            raise IndexError(f"table index out of range 0..{self.num_tables - 1}")
        return self._rle.lookup_batch(flat + which * self._layout.num_entries)
