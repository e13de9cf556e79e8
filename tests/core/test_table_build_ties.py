"""Near-ties between first levels are decided as the reference decides them.

``build_table_decisions`` scores each block of plans sharing a first level
once, ``M = max(leaf + static)``, and reads it under every previous level
as ``fl(M - c)``, where ``c`` is the block's first-switch penalty.  That
is within ``_block_max_error_bound`` of the block's exact maximum
``max(leaf + (static - c))``, the reference's arithmetic; pairs whose two
best approximations lie within twice that bound (times
``_TIE_BOUND_SAFETY``) are rescored exactly.  These tests check the bound
itself, compare the build with ``_build_table_decisions_py`` on configs
full of exact ties (integer QoE totals) and of rounding (log qualities,
weights that are not dyadic), and pin states where rounding orders two
blocks' approximations differently from their exact maxima.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.kernel import _block_max_error_bound, build_table_decisions
from repro.core.table import Binning

from kernel_reference import _build_table_decisions_py

ENVIVIO_KBPS = (350.0, 600.0, 1000.0, 2000.0, 3000.0)

magnitudes = st.floats(min_value=0.0, max_value=1e7)


@st.composite
def blocks(draw):
    """Non-positive leaves, statics and a penalty, often nearly tied."""
    n = draw(st.integers(1, 40))
    leaves = draw(st.lists(st.one_of(st.just(0.0), magnitudes.map(lambda v: -v)),
                           min_size=n, max_size=n))
    statics = draw(st.lists(st.floats(-1e7, 1e7), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # Two plans whose totals nearly agree: the second's static part
        # makes up the difference of the leaves, up to rounding.
        statics[1] = statics[0] + leaves[0] - leaves[1]
    return np.array(leaves), np.array(statics), draw(magnitudes)


@settings(max_examples=500)
@given(blocks())
def test_block_max_error_bound_holds(block):
    leaves, statics, c = block
    exact = np.max(leaves + (statics - c))  # the reference's association
    approx = np.max(leaves + statics) - c
    bound = _block_max_error_bound(
        abs(np.max(leaves + statics)), float(np.abs(statics).max()), c
    )
    assert abs(exact - approx) <= bound


def test_block_max_error_bound_is_needed():
    """A block whose approximation is off by an ulp: the bound covers it."""
    leaves = np.array([-0.1])
    statics = np.array([0.2])
    c = 1.3
    exact = np.max(leaves + (statics - c))
    approx = np.max(leaves + statics) - c
    assert (exact, approx) == (-1.2000000000000002, -1.2)
    assert abs(exact - approx) <= _block_max_error_bound(0.1, 0.2, c)


@pytest.fixture
def rescored(monkeypatch):
    """Counts the (first level, pair) blocks the exact path rescored."""
    counts = []
    real = kernel._rescore_near_ties

    def counting(leaves, columns, near, *scratch):
        counts.append(int(np.count_nonzero(near)))
        real(leaves, columns, near, *scratch)

    monkeypatch.setattr(kernel, "_rescore_near_ties", counting)
    return counts


def reference(case):
    want = _build_table_decisions_py(
        **{**case, "buffer_centers": list(case["buffer_centers"]),
           "throughput_centers": list(case["throughput_centers"])}
    )
    return np.asarray(want, dtype=np.int64)


def assert_matches_reference(case):
    got = build_table_decisions(**case)
    assert got.dtype == np.int64
    assert got.tobytes() == reference(case).tobytes()


def ladder_case(ladder_kbps, quality, horizon, bins, switching, rebuffering,
                chunk_s=4.0, capacity=30.0):
    return dict(
        level_sizes_kilobits=[chunk_s * r for r in ladder_kbps],
        quality_values=list(quality),
        buffer_centers=Binning(0.0, capacity, bins).centers,
        throughput_centers=Binning(
            0.2 * min(ladder_kbps), 2.0 * max(ladder_kbps), bins, "log"
        ).centers,
        horizon=horizon,
        switching=switching,
        rebuffering=rebuffering,
        chunk_duration_s=chunk_s,
        buffer_capacity_s=capacity,
    )


@pytest.mark.parametrize("switching", [1.0, 3.0])
def test_envivio_ladder_integer_qualities(rescored, switching):
    """The benchmark's ladder and weights at 4x4 bins: many exact ties."""
    case = ladder_case(ENVIVIO_KBPS, ENVIVIO_KBPS, 5, 4, switching, 3000.0)
    assert_matches_reference(case)
    assert sum(rescored) > 0


@pytest.mark.parametrize("switching", [1.0, 3.0])
@pytest.mark.parametrize(
    "ladder,horizon",
    [
        ((300, 700, 1500), 4),
        ((200, 400, 800, 1600), 3),
        ((100, 250, 500, 750, 1000, 2000), 3),
        ((400, 800, 1200, 2400, 3600, 4800), 3),
    ],
)
def test_integer_ladders(rescored, ladder, horizon, switching):
    case = ladder_case(ladder, ladder, horizon, 10, switching, 3000.0)
    assert_matches_reference(case)
    assert sum(rescored) > 0


@pytest.mark.parametrize("num_levels,horizon", [(3, 4), (4, 3), (5, 3), (6, 2)])
@pytest.mark.parametrize(
    "switching,rebuffering", [(0.1, 4.3), (0.7, 2999.9), (2.3, 0.3)]
)
def test_rounding_heavy(num_levels, horizon, switching, rebuffering):
    """Log qualities and weights that are not dyadic round at every step."""
    rng = np.random.default_rng(num_levels * horizon)
    ladder = np.sort(rng.uniform(100.0, 4000.0, num_levels))
    case = ladder_case(ladder.tolist(), np.log(ladder / ladder[0]).tolist(),
                       horizon, 8, switching, rebuffering,
                       chunk_s=float(rng.uniform(1.0, 6.0)),
                       capacity=float(rng.uniform(10.0, 60.0)))
    assert_matches_reference(case)


def test_every_pair_rescored(monkeypatch, rescored):
    """An infinite bound sends every block of every pair down the exact
    path, in several chunks of the gather scratch."""
    monkeypatch.setattr(kernel, "_TIE_BOUND_SAFETY", math.inf)
    case = ladder_case(ENVIVIO_KBPS, np.log(np.array(ENVIVIO_KBPS) / 350.0),
                       3, 6, 0.7, 4.3)
    assert_matches_reference(case)
    assert sum(rescored) == 6 * 6 * 5 * 5


# States where the approximations order two first levels differently from
# their exact block maxima: (case, buffer, throughput, previous level,
# approximate pick, exact pick).  The first is a state of the benchmark's
# served table (Envivio ladder, balanced weights, 100x100 bins); the other
# two came from a search over random ladders.
FLIPS = [
    (
        dict(
            level_sizes_kilobits=[4.0 * r for r in ENVIVIO_KBPS],
            quality_values=list(ENVIVIO_KBPS),
            horizon=5,
            switching=1.0,
            rebuffering=3000.0,
            chunk_duration_s=4.0,
            buffer_capacity_s=30.0,
        ),
        16.95, 827.8326893531968, 4, 4, 3,
    ),
    (
        dict(
            level_sizes_kilobits=[503.091191966608, 3386.9667104619602,
                                  4002.4140337576905, 4910.505477209666,
                                  7245.737473478829],
            quality_values=[265.0, 1782.0, 2106.0, 2584.0, 3812.0],
            horizon=3,
            switching=0.1,
            rebuffering=4852.657155885101,
            chunk_duration_s=1.9005904492040044,
            buffer_capacity_s=51.89548187147123,
        ),
        12.973870467867808, 961.3372354089347, 3, 3, 2,
    ),
    (
        dict(
            level_sizes_kilobits=[2844.421481251667, 3665.7737994453296,
                                  5233.4479933185075, 9783.169898628144],
            quality_values=[804.1313149304597, 1036.3314737337935,
                            1479.5203327727368, 2765.7480885393065],
            horizon=4,
            switching=0.7,
            rebuffering=3000.0,
            chunk_duration_s=3.5372599330964363,
            buffer_capacity_s=40.077591716509666,
        ),
        6.262123705704635, 2045.0598792986248, 3, 3, 2,
    ),
]


def block_maxima(params, buffer_s, throughput_kbps, prev):
    """Each first level's ``fl(max(leaf + static) - c)`` and exact maximum
    ``max(leaf + (static - c))``, in plain floats."""
    quality = params["quality_values"]
    horizon = params["horizon"]
    lam, mu = params["switching"], params["rebuffering"]
    plans = list(itertools.product(range(len(quality)), repeat=horizon))
    approx, exact = [], []
    for first in range(len(quality)):
        c = lam * abs(quality[first] - quality[prev])
        sums, scores = [], []
        for plan in plans:
            if plan[0] != first:
                continue
            buf, rebuf = buffer_s, 0.0
            for level in plan:
                dt = params["level_sizes_kilobits"][level] / throughput_kbps
                rebuf += max(dt - buf, 0.0)
                buf = min(max(buf - dt, 0.0) + params["chunk_duration_s"],
                          params["buffer_capacity_s"])
            static = 0.0
            for level in plan:
                static += quality[level]
            diffs = 0.0
            for a, b in zip(plan, plan[1:]):
                diffs += abs(quality[b] - quality[a])
            if horizon > 1:
                static = static - lam * diffs
            leaf = rebuf * -mu
            sums.append(leaf + static)
            scores.append(leaf + (static - c))
        approx.append(max(sums) - c)
        exact.append(max(scores))
    return approx, exact


@pytest.mark.parametrize("flip", range(len(FLIPS)))
def test_rounding_flips_the_order_of_two_blocks(flip):
    params, buffer_s, throughput_kbps, prev, approx_pick, exact_pick = FLIPS[flip]
    approx, exact = block_maxima(params, buffer_s, throughput_kbps, prev)
    assert int(np.argmax(approx)) == approx_pick
    assert int(np.argmax(exact)) == exact_pick
    case = dict(params, buffer_centers=[buffer_s], throughput_centers=[throughput_kbps])
    assert build_table_decisions(**case)[0, prev, 0] == exact_pick
    assert_matches_reference(case)
