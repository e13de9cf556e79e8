"""Non-finite QoE weights, table geometry and horizon inputs raise
``ValueError``.

A NaN weight scores every plan NaN: the table build silently answers
level 0 everywhere and the online solver returns an arbitrary plan.  An
infinite bin edge turns the bin centres into NaN and inf, and a table
that reaches the server as a blob with such an edge would answer level 0
to every query.  A NaN or infinite horizon input solves to plan
``(0, 0, 0)`` with a NaN QoE, and a NaN previous quality reads as "no
previous chunk", the kernel's own marker.  Each of these now fails where
it enters, as does a blob with an unknown spacing code.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.core.fastmpc import (
    FastMPCConfig,
    build_decision_table,
    clear_table_cache,
)
from repro.core.horizon import HorizonProblem, solve_horizon, solve_startup
from repro.core.table import Binning, DecisionTable
from repro.qoe import QoEWeights

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)
SMALL = FastMPCConfig(buffer_bins=4, throughput_bins=4, horizon=2)
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("slot", range(3))
def test_weights_must_be_finite(slot, bad):
    weights = [1.0, 3000.0, 3000.0]
    weights[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        QoEWeights(*weights)


@pytest.mark.parametrize("spacing", ["linear", "log"])
@pytest.mark.parametrize(
    "low,high", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)]
)
def test_binning_range_must_be_finite(low, high, spacing):
    with pytest.raises(ValueError, match="finite"):
        Binning(low, high, 4, spacing)


def table_blob() -> bytearray:
    clear_table_cache()
    table = build_decision_table(
        LADDER, 4.0, 30.0, QoEWeights.balanced(), config=SMALL
    )
    return bytearray(table.to_bytes())


def test_forged_table_with_infinite_edge_is_rejected():
    blob = table_blob()
    # Magic, the buffer binning (<ddIB), then the throughput low and high.
    high_at = len(DecisionTable._MAGIC) + struct.calcsize("<ddIB") + 8
    assert struct.unpack_from("<d", blob, high_at)[0] == 6000.0
    struct.pack_into("<d", blob, high_at, math.inf)
    blob = bytes(blob)
    with pytest.raises(ValueError, match="finite"):
        DecisionTable.from_bytes(blob)


def test_forged_table_with_unknown_spacing_is_rejected():
    # A KeyError here escaped the server's table-swap handler, which
    # answers 400 only for ValueError, IndexError and struct.error.
    blob = table_blob()
    blob[len(DecisionTable._MAGIC) + struct.calcsize("<ddI")] = 9
    with pytest.raises(ValueError, match="spacing"):
        DecisionTable.from_bytes(bytes(blob))


@pytest.mark.parametrize(
    "chunk_s,capacity_s",
    [(math.nan, 30.0), (math.inf, 30.0), (0.0, 30.0), (-4.0, 30.0),
     (4.0, math.inf), (4.0, math.nan), (4.0, 0.0), (4.0, -30.0)],
)
def test_table_geometry_must_be_finite_and_positive(chunk_s, capacity_s):
    with pytest.raises(ValueError, match="finite and positive"):
        build_decision_table(
            LADDER, chunk_s, capacity_s, QoEWeights.balanced(), config=SMALL
        )


def test_infinite_throughput_range_is_rejected():
    config = FastMPCConfig(
        buffer_bins=4, throughput_bins=4, horizon=2, throughput_high_kbps=math.inf
    )
    with pytest.raises(ValueError, match="finite"):
        build_decision_table(
            LADDER, 4.0, 30.0, QoEWeights.balanced(), config=config
        )


def horizon_fields(**overrides) -> dict:
    fields = dict(
        buffer_level_s=4.0,
        prev_quality=600.0,
        chunk_sizes_kilobits=((1400.0, 2400.0, 4000.0),) * 3,
        quality_values=(350.0, 600.0, 1000.0),
        predicted_kbps=(900.0, 900.0, 900.0),
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        weights=QoEWeights.balanced(),
    )
    fields.update(overrides)
    return fields


def with_bad_float(field: str, bad: float) -> dict:
    """The fields with ``bad`` put in ``field`` (one entry of a row)."""
    fields = horizon_fields()
    value = fields[field]
    if field == "chunk_sizes_kilobits":
        value = (value[0], (value[1][0], bad, value[1][2]), value[2])
    elif isinstance(value, tuple):
        value = (value[0], bad) + value[2:]
    else:
        value = bad
    fields[field] = value
    return fields


HORIZON_FLOAT_FIELDS = [
    "buffer_level_s",
    "prev_quality",
    "chunk_sizes_kilobits",
    "quality_values",
    "predicted_kbps",
    "chunk_duration_s",
    "buffer_capacity_s",
]


def test_finite_horizon_problem_solves():
    solution = solve_horizon(HorizonProblem(**horizon_fields()))
    assert solution.plan == (1, 2, 2)
    assert math.isfinite(solution.qoe)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", HORIZON_FLOAT_FIELDS)
def test_horizon_problem_inputs_must_be_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        HorizonProblem(**with_bad_float(field, bad))


def test_no_previous_quality_is_still_none():
    problem = HorizonProblem(**horizon_fields(prev_quality=None))
    assert problem.prev_quality is None
    assert math.isfinite(solve_horizon(problem).qoe)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"wait_step_s": math.nan},
        {"wait_step_s": math.inf},
        {"wait_step_s": -math.inf},
        {"wait_step_s": 0.0},
        {"max_wait_s": math.nan},
        {"max_wait_s": math.inf},
        {"max_wait_s": -math.inf},
        {"max_wait_s": -0.5},
    ],
    ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_startup_wait_grid_must_be_finite(kwargs):
    problem = HorizonProblem(**horizon_fields(buffer_level_s=0.0, prev_quality=None))
    with pytest.raises(ValueError, match="wait"):
        solve_startup(problem, **kwargs)
