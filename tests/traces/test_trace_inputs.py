"""Degenerate trace input: a defined outcome in both engines.

The scalar walk (:meth:`Trace.download_time_and_stall`) and the fleet's
per-session view over it (:class:`repro.fleet.stepper.TraceBank`) must
refuse non-finite input and downloads that never complete with the same
``ValueError`` — never a hang, an ``OverflowError``, ``inf`` or a silent
``0.0``.  The per-pass constants a trace caches must survive pickling.
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from repro.fleet.stepper import TraceBank
from repro.traces import Trace

NAN = float("nan")
INF = float("inf")


def bank_download(trace: Trace, t0: float, size: float):
    bank = TraceBank([trace])
    time_s, stall_s = bank.download_time_and_stall(np.array([t0]), np.array([size]))
    return float(time_s[0]), float(stall_s[0])


class TestNonFiniteConstruction:
    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_rejects_non_finite_timestamp(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Trace([0.0, bad], [100.0, 200.0], duration_s=10.0)

    def test_rejects_nan_first_timestamp(self):
        with pytest.raises(ValueError, match="finite"):
            Trace([NAN], [100.0], duration_s=10.0)

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_rejects_non_finite_duration(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Trace([0.0, 1.0], [100.0, 200.0], duration_s=bad)


class TestDownloadSizes:
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_size_raises_in_both_engines(self, bad):
        trace = Trace([0.0, 1.0], [1000.0, 0.0], duration_s=2.0)
        with pytest.raises(ValueError, match="finite"):
            trace.download_time_and_stall(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            trace.time_to_download(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            bank_download(trace, 0.5, bad)

    def test_negative_size_raises_in_both_engines(self):
        trace = Trace([0.0], [1000.0], duration_s=2.0)
        with pytest.raises(ValueError, match=">= 0"):
            trace.download_time_and_stall(0.0, -1.0)
        with pytest.raises(ValueError, match=">= 0"):
            bank_download(trace, 0.0, -1.0)


class TestNeverCompletes:
    @pytest.mark.parametrize(
        "bandwidth, size",
        [(1e-300, 1e10), (5e-324, 1.0)],
        ids=["tiny", "subnormal"],
    )
    def test_overflowing_pass_count_raises_in_both_engines(self, bandwidth, size):
        # One second of a vanishing rate, then a zero-bandwidth rest:
        # remaining / per_pass overflows to inf.
        trace = Trace([0.0, 1.0], [bandwidth, 0.0], duration_s=2.0)
        assert math.isinf((size - trace.kilobits_per_pass) / trace.kilobits_per_pass)
        with pytest.raises(ValueError, match="never completes"):
            trace.download_time_and_stall(0.0, size)
        with pytest.raises(ValueError, match="never completes"):
            bank_download(trace, 0.0, size)

    def test_pass_lost_in_rounding_raises_in_both_engines(self):
        # The pass count is finite, but full * per_pass rounds more than
        # a whole pass away from the remainder, so the tail walk could
        # only finish after ~1e9 laps of 1e-20 kilobits each.
        trace = Trace([0.0, 1.0], [1e-20, 0.0], duration_s=2.0)
        size = float.fromhex("0x1.c4beca4329a2bp+17")
        with pytest.raises(ValueError, match="never completes"):
            trace.download_time_and_stall(0.0, size)
        with pytest.raises(ValueError, match="never completes"):
            bank_download(trace, 0.0, size)

    def test_zero_capacity_bank_refuses_the_trace(self):
        with pytest.raises(ValueError, match="never completes"):
            TraceBank([Trace([0.0], [0.0], duration_s=5.0)])


class TestPerPassCache:
    def blackout_trace(self) -> Trace:
        return Trace(
            [0.0, 1.5, 4.0, 6.25], [800.0, 0.0, 1200.0, 0.0], duration_s=7.0,
            name="blackouts",
        )

    def test_cached_values_are_the_one_pass_walks(self):
        trace = self.blackout_trace()
        assert trace.kilobits_per_pass == trace._kilobits_one_pass(0.0, 7.0)
        assert trace.stall_per_pass_s == trace._stall_one_pass()
        assert trace.kilobits_per_pass == 800.0 * 1.5 + 1200.0 * 2.25
        assert trace.stall_per_pass_s == 2.5 + 0.75

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_round_trip_keeps_cache_and_downloads(self, clone):
        trace = self.blackout_trace()
        twin = clone(trace)
        assert twin is not trace
        assert twin.kilobits_per_pass == trace.kilobits_per_pass
        assert twin.stall_per_pass_s == trace.stall_per_pass_s
        assert twin.name == trace.name
        # Several whole passes from mid-blackout: the leading pass, the
        # floor-division skip and the tail walk all run.
        for t0, size in ((2.0, 5.0 * trace.kilobits_per_pass + 700.0), (6.5, 31000.0)):
            before = trace.download_time_and_stall(t0, size)
            after = twin.download_time_and_stall(t0, size)
            assert after == before
            assert before[1] > 0.0
            assert before[0] > 2 * trace.duration_s
