"""The stacked lookup answers each row from its own table, exactly.

:class:`DecisionTableStack` serves the fleet's FastMPC family: a batch
whose sessions span the QoE presets reads the three preset tables of its
ladder through one quantization and one run search.  Its answers must
equal each table's own :meth:`DecisionTable.lookup_batch` on every state
— random states, every bin edge and its ULP neighbours, out-of-range
values that clamp — and it must refuse what ``lookup_batch`` refuses,
the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastmpc import FastMPCConfig, build_decision_table
from repro.core.table import Binning, DecisionTable, DecisionTableStack
from repro.fleet.scenarios import PRESET_NAMES, session_config_for
from repro.video import envivio

STATES_PER_TABLE = 10_000


def preset_table(preset: str, bins: int = 50) -> DecisionTable:
    manifest = envivio()
    config = session_config_for(preset)
    return build_decision_table(
        manifest.ladder.levels_kbps,
        manifest.chunk_duration_s,
        config.buffer_capacity_s,
        config.weights,
        quality_values=[config.quality(r) for r in manifest.ladder],
        config=FastMPCConfig(buffer_bins=bins, throughput_bins=bins, horizon=5),
    )


@pytest.fixture(scope="module")
def tables():
    return [preset_table(preset) for preset in PRESET_NAMES]


def edge_probes(binning: Binning) -> np.ndarray:
    """Every edge, one ULP either side of it, and values far outside."""
    edges = np.asarray(binning.edges)
    return np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [binning.low - 1.0, -1e9, binning.high * 2.0, 1e12, np.inf, -np.inf],
        ]
    )


def states(table: DecisionTable, seed: int):
    """Random states plus both binnings' edge probes, as three arrays."""
    rng = np.random.default_rng(seed)
    buffers = np.concatenate(
        [
            rng.uniform(-5.0, table.buffer_bins.high + 10.0, STATES_PER_TABLE),
            edge_probes(table.buffer_bins),
        ]
    )
    throughputs = np.concatenate(
        [
            np.exp(rng.uniform(np.log(10.0), np.log(50_000.0), STATES_PER_TABLE)),
            edge_probes(table.throughput_bins),
        ]
    )
    # Pair each probe family with random partners of the other axis.
    size = max(len(buffers), len(throughputs))
    buffers = np.resize(buffers, size)
    throughputs = np.resize(throughputs, size)
    rng.shuffle(throughputs)
    prev = rng.integers(0, table.num_levels, size)
    return buffers, prev, throughputs


def test_each_table_matches_its_own_lookup_batch(tables):
    stack = DecisionTableStack(tables)
    assert stack.num_tables == len(tables)
    for j, table in enumerate(tables):
        buffers, prev, throughputs = states(table, seed=j)
        assert len(buffers) >= STATES_PER_TABLE
        expected = table.lookup_batch(buffers, prev, throughputs)
        which = np.full(len(buffers), j)
        got = stack.lookup_batch(which, buffers, prev, throughputs)
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist()


def test_mixed_rows_read_their_own_tables(tables):
    stack = DecisionTableStack(tables)
    buffers, prev, throughputs = states(tables[0], seed=99)
    which = np.random.default_rng(7).integers(0, len(tables), len(buffers))
    answers = [t.lookup_batch(buffers, prev, throughputs) for t in tables]
    expected = [answers[j][i] for i, j in enumerate(which)]
    got = stack.lookup_batch(which, buffers, prev, throughputs)
    assert got.tolist() == expected
    # The presets' tables do differ, so the rows really read different tables.
    assert any((answers[0] != other).any() for other in answers[1:])


def test_stack_of_one_is_the_table(tables):
    table = tables[1]
    stack = DecisionTableStack([table])
    buffers, prev, throughputs = states(table, seed=3)
    which = np.zeros(len(buffers), dtype=np.int64)
    got = stack.lookup_batch(which, buffers, prev, throughputs)
    assert got.tolist() == table.lookup_batch(buffers, prev, throughputs).tolist()


def test_runs_meeting_at_a_boundary_merge_and_answer_exactly():
    # Hand-built tables whose last and first runs hold the same level, so
    # the concatenated runs must merge at the boundary.
    buffer_bins = Binning(0.0, 10.0, 3)
    throughput_bins = Binning(1.0, 100.0, 4, "log")
    rng = np.random.default_rng(5)
    entries = 3 * 2 * 4
    tables = []
    for _ in range(4):
        decisions = rng.integers(0, 2, entries)
        decisions[0] = decisions[-1] = 1
        tables.append(DecisionTable(buffer_bins, 2, throughput_bins, decisions))
    stack = DecisionTableStack(tables)
    assert stack._rle.num_runs < sum(t.rle.num_runs for t in tables)
    # Every cell once, in the table's flat order.
    buffers, prev, throughputs = (
        np.array(axis)
        for axis in zip(
            *[
                (b, p, c)
                for b in buffer_bins.centers
                for p in (0, 1)
                for c in throughput_bins.centers
            ]
        )
    )
    for j, table in enumerate(tables):
        which = np.full(entries, j)
        got = stack.lookup_batch(which, buffers, prev, throughputs).tolist()
        assert got == table.rle.decode().tolist()
        assert got == table.lookup_batch(buffers, prev, throughputs).tolist()


def test_mismatched_layouts_are_refused(tables):
    with pytest.raises(ValueError, match="at least one table"):
        DecisionTableStack([])
    with pytest.raises(ValueError, match="binnings"):
        DecisionTableStack([tables[0], preset_table("balanced", bins=24)])
    other_buffer = DecisionTable(
        Binning(0.0, 20.0, 50), 5, tables[0].throughput_bins, tables[0].rle.decode()
    )
    with pytest.raises(ValueError, match="binnings"):
        DecisionTableStack([tables[0], other_buffer])
    throughput = tables[0].throughput_bins
    other_spacing = DecisionTable(
        tables[0].buffer_bins,
        5,
        Binning(throughput.low, throughput.high, 50, "linear"),
        tables[0].rle.decode(),
    )
    with pytest.raises(ValueError, match="binnings"):
        DecisionTableStack([other_spacing, tables[0]])
    four_levels = DecisionTable(
        tables[0].buffer_bins,
        4,
        tables[0].throughput_bins,
        np.zeros(50 * 4 * 50, dtype=np.int64),
    )
    with pytest.raises(ValueError, match="ladder size"):
        DecisionTableStack([tables[0], four_levels])


def test_bad_states_raise_as_lookup_batch_does(tables):
    stack = DecisionTableStack(tables)
    table = tables[0]
    good = dict(
        buffer=np.array([5.0, 12.0]),
        prev=np.array([0, 4]),
        tput=np.array([900.0, 2500.0]),
    )
    which = np.array([0, 2])
    cases = [
        (dict(good, buffer=np.array([5.0, np.nan])), ValueError, "NaN"),
        (dict(good, tput=np.array([np.nan, 2500.0])), ValueError, "NaN"),
        (dict(good, prev=np.array([0, 5])), IndexError, "prev level"),
        (dict(good, prev=np.array([-1, 0])), IndexError, "prev level"),
    ]
    for state, error, match in cases:
        with pytest.raises(error, match=match):
            table.lookup_batch(state["buffer"], state["prev"], state["tput"])
        with pytest.raises(error, match=match):
            stack.lookup_batch(which, state["buffer"], state["prev"], state["tput"])
    for bad in (np.array([0, 3]), np.array([-1, 0])):
        with pytest.raises(IndexError, match="table index"):
            stack.lookup_batch(bad, good["buffer"], good["prev"], good["tput"])
    with pytest.raises(ValueError, match="one table index per state"):
        stack.lookup_batch(np.array([0]), good["buffer"], good["prev"], good["tput"])
    empty = np.array([], dtype=np.float64)
    none = np.array([], dtype=np.int64)
    assert stack.lookup_batch(none, empty, none, empty).tolist() == []
