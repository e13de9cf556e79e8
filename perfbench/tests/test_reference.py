"""Normalising CPU figures by the speed reference."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import host  # noqa: E402
from perfbench.single import Tally  # noqa: E402


def test_reference_calls_are_read_window_by_window():
    call = host.REFERENCE_CALL_S
    # One call every 0.1 s: reference speed until t=1, then half speed.
    samples = [(0.1 * k + 0.05, call) for k in range(10)]
    samples += [(1.0 + 0.1 * k + 0.05, 2 * call) for k in range(10)]
    got = host.window_references(samples, [0.0, 1.0, 2.0, 3.0])
    assert [calls for _, calls in got] == [10, 10, 0]  # no calls: left unread
    assert host.slowdown(*got[0]) == pytest.approx(1.0)
    assert host.slowdown(*got[1]) == pytest.approx(2.0)


def test_tally_divides_each_slice_by_its_slowdown(monkeypatch):
    tally = Tally()
    slowdowns = iter([1.0, 2.0, 2.0])
    monkeypatch.setattr(host, "reference_calls", lambda calls: 0.0)
    monkeypatch.setattr(host, "slowdown", lambda cpu_s, calls: next(slowdowns))
    tally.reference(1)
    # The same work (100 decisions, 10 ms units) at full, half and half speed.
    tally.add_slice(100, 1.0, 0.01, 0.010)
    tally.add_slice(100, 1.0, 0.02, 0.020)
    tally.add_slice(100, 1.0, 0.02, 0.020)
    rate, unit_ms, cpu_us = tally.figures()
    assert (rate, unit_ms, cpu_us) == pytest.approx((10_000.0, 10.0, 100.0))
    assert tally.raw_figures() == pytest.approx((5_000.0, 20.0, 200.0))
