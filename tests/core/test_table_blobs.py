"""Serialized tables: a blob costs memory by its size, not by its header.

A table blob declares its binnings' bin counts and the ladder size in a
fixed header, and its decisions as run-length records.  Loading must
check the declared index space against the runs before it builds any
binning or array, and must adopt the runs instead of expanding them, so
a 64-byte forged blob cannot make the loader allocate by the counts it
declares.  A consistent blob can still declare huge binnings, a huge
``keep_full`` vector or many runs; a byte budget refuses those before
building them.
Only canonical runs load, so :meth:`same_decisions` still compares one
encoding per decision vector.
"""

from __future__ import annotations

import functools
import struct
import tracemalloc

import pytest

from repro.core.table import Binning, DecisionTable, RunLengthEncodedTable

LOADERS = [DecisionTable.from_bytes, DecisionTable.from_buffer]
LOADER_IDS = ["from_bytes", "from_buffer"]


def table_blob(buffer_count, num_levels, throughput_count, runs, keep_full=0):
    """A serialized table built field by field, consistent or not."""
    parts = [
        DecisionTable._MAGIC,
        struct.pack("<ddIB", 0.0, 30.0, buffer_count, 0),
        struct.pack("<ddIB", 10.0, 6000.0, throughput_count, 1),
        struct.pack("<IB", num_levels, keep_full),
        struct.pack("<I", len(runs)),
    ]
    parts += [struct.pack("<IB", end, value) for end, value in runs]
    return b"".join(parts)


def traced_peak(fn, *args):
    """``(result or exception, tracemalloc peak in bytes)`` of one call."""
    tracemalloc.start()
    try:
        try:
            outcome = fn(*args)
        except ValueError as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 1 << 20


@pytest.mark.parametrize("load", LOADERS, ids=LOADER_IDS)
def test_forged_bin_count_is_refused_before_building_a_binning(load):
    blob = table_blob(2_000_000, 1, 1, [(1, 0)])
    assert len(blob) == 64
    outcome, peak = traced_peak(load, blob)
    assert isinstance(outcome, ValueError)
    assert "index space has 2000000" in str(outcome)
    assert peak < 1 * MIB


@pytest.mark.parametrize("load", LOADERS, ids=LOADER_IDS)
def test_one_run_over_a_large_space_loads_without_expanding(load):
    blob = table_blob(4096, 1, 4096, [(4096 * 4096, 0)])
    assert len(blob) == 64
    table, peak = traced_peak(load, blob)
    assert table.num_entries == 4096 * 4096
    assert table.rle.num_runs == 1
    assert table.lookup(12.0, 0, 900.0) == 0
    # The two 4096-bin binnings are the only allocations that grow with
    # the header; the 16 Mi decisions would take 128 MiB as int64.
    assert peak < 4 * MIB


def test_huge_declared_space_loads_from_its_runs():
    # 65535 x 1 x 65535 entries: the largest square index space whose
    # end still fits the u32 run record.  Expanding it took 32 GiB.
    blob = table_blob(65535, 1, 65535, [(65535 * 65535, 0)])
    table, peak = traced_peak(DecisionTable.from_bytes, blob)
    assert table.num_entries == 65535 * 65535
    assert table.lookup(29.0, 0, 5000.0) == 0
    assert peak < 32 * MIB


@pytest.mark.parametrize(
    "counts, keep_full",
    [((4096, 1, 4096), 1), ((1, 1, 350_000), 0)],
    ids=["keep-full", "bin-count"],
)
def test_budget_refuses_before_allocating(counts, keep_full):
    # Consistent blobs that declare about 16 MiB: a full vector of 16 Mi
    # entries, or 350,000 bins.  Only the budget stops them.
    entries = counts[0] * counts[1] * counts[2]
    blob = table_blob(*counts, [(entries, 0)], keep_full=keep_full)
    assert len(blob) == 64
    outcome, peak = traced_peak(
        functools.partial(DecisionTable.from_bytes, max_bytes=MIB), blob
    )
    assert isinstance(outcome, ValueError)
    assert "budget" in str(outcome)
    assert peak < 1 * MIB
    # The disk cache loads without a budget, as before.
    assert DecisionTable.from_bytes(blob).num_entries == entries


def test_budget_charges_the_parsed_runs():
    # 40,000 alternating runs over a 200 x 3 x 200 space: a 200 KB blob
    # whose runs take about 2.5 MB once parsed into Python ints.
    runs = [(3 * (i + 1), i % 2) for i in range(40_000)]
    blob = table_blob(200, 3, 200, runs)
    assert len(blob) == 200_059
    outcome, peak = traced_peak(
        functools.partial(DecisionTable.from_bytes, max_bytes=MIB), blob
    )
    assert isinstance(outcome, ValueError)
    assert "budget" in str(outcome)
    assert peak < MIB
    # The disk cache loads without a budget, and what the budget charges
    # covers what the load really takes.
    table, peak = traced_peak(DecisionTable.from_bytes, blob)
    assert table.rle.num_runs == 40_000
    assert MIB < peak < 4 * MIB


@pytest.mark.parametrize("load", LOADERS, ids=LOADER_IDS)
@pytest.mark.parametrize(
    "runs, message",
    [
        ([(4, 0), (4, 1), (8, 0)], "strictly increasing"),
        ([(5, 0), (3, 1)], "strictly increasing"),
        ([(4, 0), (8, 2)], "ladder level"),
        ([(7, 0)], "index space"),
        ([], "empty"),
    ],
    ids=["repeated-end", "decreasing", "value-too-large", "short", "no-runs"],
)
def test_malformed_runs_are_refused(load, runs, message):
    with pytest.raises(ValueError, match=message):
        load(table_blob(2, 2, 2, runs))


@pytest.mark.parametrize("load", LOADERS, ids=LOADER_IDS)
def test_split_runs_are_refused(load):
    # [0, 0, 0, 1, 1, 0, 0, 1] with its first run split in two: the
    # lookups agree with the canonical table, the encoding does not, so
    # same_decisions would call the two tables different.
    split = table_blob(2, 2, 2, [(1, 0), (3, 0), (5, 1), (7, 0), (8, 1)])
    with pytest.raises(ValueError, match="adjacent runs"):
        load(split)


@pytest.mark.parametrize("keep_full", [False, True])
def test_round_trip_is_byte_identical(keep_full):
    decisions = [(i // 3) % 3 for i in range(4 * 3 * 5)]
    table = DecisionTable(
        Binning(0.0, 30.0, 4),
        3,
        Binning(100.0, 4000.0, 5, "log"),
        decisions,
        keep_full=keep_full,
    )
    blob = table.to_bytes()
    back = DecisionTable.from_bytes(blob)
    assert back.to_bytes() == blob
    assert back.same_decisions(table)
    if keep_full:
        assert list(back._full) == decisions
    else:
        assert back._full is None


def test_full_vector_is_the_decoded_runs_one_byte_each():
    values = [3, 3, 0, 1, 1, 1, 255, 2]
    rle = RunLengthEncodedTable.encode(values)
    full = rle.full_vector()
    assert bytes(full) == bytes(values)
    assert rle.max_value == 255
