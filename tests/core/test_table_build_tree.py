"""The FastMPC table build is exact against its reference loop.

``build_table_decisions`` rolls the rebuffer dynamics out over the plan
prefix tree, in blocks of buffer bins, and reduces each block of plans
that share a first level to its maximum before the argmax.
``_build_table_decisions_py`` — the pure-Python loop that scores every
plan of every state and keeps the first maximum — is the table build's
reference, and the two decision arrays must be byte-identical.  (When
the pure-Python fallback is deleted, that loop moves into ``tests/``
rather than away.)

No hash is pinned here: the log-spaced throughput edges come from
``np.geomspace``, whose last bits may differ between NumPy versions, so
every case compares the two builds on the same inputs instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import kernel
from repro.core.kernel import _build_table_decisions_py, build_table_decisions
from repro.core.table import Binning

# Each case keeps the reference loop near this many plan-steps, so the
# whole module runs in a few seconds.
REFERENCE_STEPS = 600_000


def make_case(rng, num_levels, horizon, buffer_bins, throughput_bins, spacing,
              quality_mode="identity", switching=None, rebuffering=None):
    ladder = np.sort(rng.uniform(100.0, 4000.0, size=num_levels))
    if quality_mode == "log":
        quality = np.log(ladder / ladder[0])
    elif quality_mode == "duplicates":
        # Repeated values make exact ties between different first levels.
        quality = np.sort(rng.choice([300.0, 700.0, 700.0, 1500.0], size=num_levels))
    else:
        quality = ladder
    chunk_s = float(rng.uniform(1.0, 6.0))
    capacity = float(rng.uniform(chunk_s, 60.0))
    buffers = Binning(0.0, capacity, buffer_bins, "linear").centers
    throughputs = Binning(
        0.2 * float(ladder[0]), 2.0 * float(ladder[-1]), throughput_bins, spacing
    ).centers
    return dict(
        level_sizes_kilobits=(chunk_s * ladder).tolist(),
        quality_values=quality.tolist(),
        buffer_centers=buffers,
        throughput_centers=throughputs,
        horizon=horizon,
        switching=float(rng.uniform(0.0, 3.0)) if switching is None else switching,
        rebuffering=(
            float(rng.uniform(0.0, 6000.0)) if rebuffering is None else rebuffering
        ),
        chunk_duration_s=chunk_s,
        buffer_capacity_s=capacity,
    )


def assert_same_decisions(case):
    got = build_table_decisions(**case)
    want = _build_table_decisions_py(
        **{**case, "buffer_centers": list(case["buffer_centers"]),
           "throughput_centers": list(case["throughput_centers"])}
    )
    want = np.asarray(want, dtype=np.int64)
    assert got.shape == want.shape
    assert got.dtype == np.int64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_levels", [1, 2, 3, 4, 5, 6])
def test_matches_reference(num_levels, horizon):
    rng = np.random.default_rng(100 * num_levels + horizon)
    plans = num_levels**horizon
    # States the reference can afford: 2 bins per axis at 6^5, up to 12.
    side = math.isqrt(REFERENCE_STEPS // (plans * (horizon + num_levels)))
    side = min(max(side, 1), 12)
    index = num_levels + horizon
    case = make_case(
        rng,
        num_levels,
        horizon,
        buffer_bins=side,
        throughput_bins=max(1, side - index % 3),
        spacing=("linear", "log")[index % 2],
        quality_mode=("identity", "log", "duplicates")[index % 3],
        switching=0.0 if index % 4 == 0 else None,
        rebuffering=0.0 if index % 4 == 1 else None,
    )
    assert_same_decisions(case)


@pytest.mark.parametrize(
    "buffer_bins,throughput_bins", [(1, 1), (1, 9), (9, 1), (7, 5), (8, 4)]
)
def test_partial_last_block(monkeypatch, buffer_bins, throughput_bins):
    """Blocks of three buffer bins leave a short last block (or one bin)."""
    rng = np.random.default_rng(buffer_bins * 10 + throughput_bins)
    num_levels, horizon = 3, 3
    monkeypatch.setattr(
        kernel, "_TABLE_BLOCK_ELEMENTS", 3 * num_levels**horizon * throughput_bins
    )
    for spacing in ("linear", "log"):
        assert_same_decisions(
            make_case(rng, num_levels, horizon, buffer_bins, throughput_bins, spacing)
        )


@pytest.mark.parametrize("switching,rebuffering", [(0.0, 3000.0), (1.0, 0.0), (0.0, 0.0)])
def test_zero_weights(switching, rebuffering):
    rng = np.random.default_rng(7)
    case = make_case(
        rng, 4, 4, 6, 6, "log", switching=switching, rebuffering=rebuffering
    )
    assert_same_decisions(case)


def test_exact_ties_pick_the_lowest_first_level():
    # Levels 1 and 2 share a quality and the link is so fast that nothing
    # stalls: every plan over {1, 2} scores the same after a level-1 or
    # level-2 chunk, so the lower first level, 1, must win.
    case = dict(
        level_sizes_kilobits=[4.0, 8.0, 12.0],
        quality_values=[1.0, 2.0, 2.0],
        buffer_centers=Binning(0.0, 30.0, 4).centers,
        throughput_centers=Binning(1e5, 1e6, 3, "log").centers,
        horizon=4,
        switching=1.0,
        rebuffering=3000.0,
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
    )
    assert_same_decisions(case)
    decisions = build_table_decisions(**case)
    assert (decisions[:, 1:, :] == 1).all()


def test_many_buffer_bins_in_one_block():
    """Small plan spaces put many buffer bins in each block."""
    rng = np.random.default_rng(11)
    case = make_case(rng, 2, 2, 40, 30, "log", quality_mode="duplicates")
    assert_same_decisions(case)
