"""Serialized tables: a blob costs memory by its size, not by its header.

A table blob declares its binnings' bin counts and the ladder size in a
fixed header, and its decisions as run-length records.  Loading must
check the declared index space against the runs before it builds any
binning or array, and must adopt the runs instead of expanding them, so
a 64-byte forged blob cannot make the loader allocate by the counts it
declares.  A consistent blob can still declare huge binnings or many
runs; a byte budget refuses those before building them.  A blob shorter
than its header or its declared runs raises ``ValueError``.
Only canonical runs load, so :meth:`same_decisions` still compares one
encoding per decision vector.

``from_bytes`` takes any bytes-like object.  The loader cases run it on
``bytes`` (id ``from_bytes``) and on a ``memoryview`` of a ``bytearray``
(id ``from_buffer``), the kind of buffer a file read or a socket hands
over.
"""

from __future__ import annotations

import functools
import struct
import tracemalloc

import pytest

from repro.core.table import (
    _BINNING_BYTES_PER_BIN,
    _RLE_BYTES_PER_RUN,
    Binning,
    DecisionTable,
    RunLengthEncodedTable,
)


def from_buffer(blob, **kwargs):
    return DecisionTable.from_bytes(memoryview(bytearray(blob)), **kwargs)


LOADERS = [DecisionTable.from_bytes, from_buffer]
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


@pytest.mark.parametrize("counts", [(1, 1, 350_000)], ids=["bin-count"])
def test_budget_refuses_before_allocating(counts):
    # A consistent blob that declares about 16 MiB of bins.  Only the
    # budget stops it.
    entries = counts[0] * counts[1] * counts[2]
    blob = table_blob(*counts, [(entries, 0)])
    assert len(blob) == 64
    outcome, peak = traced_peak(
        functools.partial(DecisionTable.from_bytes, max_bytes=MIB), blob
    )
    assert isinstance(outcome, ValueError)
    assert "budget" in str(outcome)
    assert peak < 1 * MIB
    # The disk cache loads without a budget, as before.
    assert DecisionTable.from_bytes(blob).num_entries == entries


def test_keep_full_flag_is_ignored():
    # The header's keep-full byte is ignored on load and written as 0,
    # so 16 Mi entries declared in 64 bytes stay one run.
    blob = table_blob(4096, 1, 4096, [(4096 * 4096, 0)], keep_full=1)
    assert len(blob) == 64
    table, peak = traced_peak(
        functools.partial(DecisionTable.from_bytes, max_bytes=MIB), blob
    )
    assert table.num_entries == 4096 * 4096
    assert peak < 1 * MIB
    assert table.to_bytes() == table_blob(4096, 1, 4096, [(4096 * 4096, 0)])


def test_budget_charges_the_parsed_runs():
    # 200,000 alternating runs over a 1000 x 3 x 200 space: a 1 MB blob
    # whose runs take about 1.8 MB once parsed (9 bytes a run).
    runs = [(3 * (i + 1), i % 2) for i in range(200_000)]
    blob = table_blob(1000, 3, 200, runs)
    assert len(blob) == 1_000_059
    outcome, peak = traced_peak(
        functools.partial(DecisionTable.from_bytes, max_bytes=MIB), blob
    )
    assert isinstance(outcome, ValueError)
    assert "budget" in str(outcome)
    assert peak < MIB
    # The disk cache loads without a budget, and what the budget charges
    # covers what the load really takes.
    table, peak = traced_peak(DecisionTable.from_bytes, blob)
    assert table.rle.num_runs == 200_000
    assert MIB < peak < 4 * MIB
    charge = _BINNING_BYTES_PER_BIN * (1000 + 200) + _RLE_BYTES_PER_RUN * 200_000
    assert peak <= charge
    assert peak < 16 * 200_000


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
    # A blob whose keep-full byte is set loads to the same table, and
    # to_bytes writes the byte as 0.
    decisions = [(i // 3) % 3 for i in range(4 * 3 * 5)]
    table = DecisionTable(
        Binning(0.0, 30.0, 4), 3, Binning(100.0, 4000.0, 5, "log"), decisions
    )
    blob = table.to_bytes()
    flag_at = len(DecisionTable._MAGIC) + 2 * struct.calcsize("<ddIB") + 4
    assert blob[flag_at] == 0
    sent = bytearray(blob)
    sent[flag_at] = int(keep_full)
    back = DecisionTable.from_bytes(bytes(sent))
    assert back.to_bytes() == blob
    assert back.same_decisions(table)
    assert back.rle.decode().tolist() == decisions


@pytest.mark.parametrize("load", LOADERS, ids=LOADER_IDS)
def test_every_short_blob_raises_value_error(load):
    # Cuts inside the 59-byte header and inside the run records alike.
    blob = table_blob(2, 2, 2, [(3, 0), (5, 1), (8, 0)])
    assert len(blob) == 59 + 3 * 5
    for size in range(len(blob)):
        with pytest.raises(ValueError, match="truncated|not a serialized"):
            load(blob[:size])


def test_loaded_table_holds_no_reference_to_the_blob():
    decisions = [(i // 5) % 2 for i in range(3 * 2 * 7)]
    table = DecisionTable(Binning(0.0, 30.0, 3), 2, Binning(10.0, 900.0, 7), decisions)
    buffer = bytearray(table.to_bytes())
    back = DecisionTable.from_bytes(buffer)
    buffer.clear()  # BufferError while anything still exports the bytes
    assert back.same_decisions(table)


def test_run_values_must_fit_the_u8_record():
    values = [3, 3, 0, 1, 1, 1, 255, 2]
    rle = RunLengthEncodedTable.encode(values)
    assert rle.max_value == 255
    assert RunLengthEncodedTable.from_bytes(rle.to_bytes()).decode().tolist() == values
    for bad in ([0, 256], [-1, 0]):
        with pytest.raises(ValueError, match="u8"):
            RunLengthEncodedTable.encode(bad)


def test_ladders_over_256_levels_are_refused():
    buffers, throughputs = Binning(0.0, 30.0, 2), Binning(10.0, 900.0, 2)
    with pytest.raises(ValueError, match="at most 256"):
        DecisionTable(buffers, 257, throughputs, [0] * (2 * 257 * 2))
    widest = DecisionTable(buffers, 256, throughputs, [255] * (2 * 256 * 2))
    assert widest.lookup(1.0, 0, 100.0) == 255
    assert DecisionTable.from_bytes(widest.to_bytes()).same_decisions(widest)
    with pytest.raises(ValueError, match="at most 256"):
        DecisionTable.from_bytes(table_blob(2, 300, 2, [(1200, 0)]))
