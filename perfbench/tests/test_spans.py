"""Self-time arithmetic of the traced run."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import SpanRecorder, install, self_times  # noqa: E402


def test_self_time_of_a_synthetic_nested_tree():
    # root [0, 100]
    #   a [10, 40]      b [50, 90]
    #     c [15, 25]      c [60, 70]   d [65, 80] (overlaps c: union 60..80)
    spans = [
        ("root", 0, 100),
        ("a", 10, 40),
        ("c", 15, 25),
        ("b", 50, 90),
        ("c", 60, 70),
        ("d", 70, 80),
    ]
    got = self_times(spans)
    assert got == {
        "root": 100 - 30 - 40,
        "a": 30 - 10,
        "b": 40 - 20,
        "c": 10 + 10,
        "d": 10,
    }
    assert sum(got.values()) == 100  # self times partition the root span


def test_overlapping_children_count_once():
    spans = [("p", 0, 10), ("x", 1, 6), ("y", 4, 8)]
    # y starts inside x but ends outside it, so both are children of p
    # and their union 1..8 is covered once.
    assert self_times(spans)["p"] == 10 - 7


def test_online_recorder_matches_interval_arithmetic():
    recorder = SpanRecorder()
    leaf = recorder.wrap(lambda: time.sleep(0.001), "leaf")

    def middle():
        leaf()
        time.sleep(0.0005)
        leaf()

    middle = recorder.wrap(middle, "middle")
    with recorder.span("root"):
        for _ in range(3):
            middle()
        time.sleep(0.001)
    offline = self_times([(layer, t0, t1) for layer, t0, t1, _ in recorder.spans])
    assert offline == dict(recorder.self_ns)
    assert recorder.calls == {"leaf": 6, "middle": 3, "root": 1}
    assert sum(recorder.self_ns.values()) == recorder.spans[-1][2] - recorder.spans[-1][1]


def test_patch_function_rebinds_every_import_and_restores():
    import repro.fleet.driver as driver
    import repro.fleet.stepper as stepper

    original = stepper.run_batch
    recorder = SpanRecorder()
    recorder.patch_function(original, "fleet.stepper.step")
    try:
        assert stepper.run_batch is not original
        assert driver.run_batch is stepper.run_batch  # the driver's binding too
        assert stepper.run_batch.__wrapped__ is original
    finally:
        recorder.restore()
    assert stepper.run_batch is original and driver.run_batch is original


def test_patch_method_counts_batch_items():
    from repro.core.table import Binning, DecisionTable

    table = DecisionTable(
        Binning(0.0, 30.0, 4, "linear"), 2, Binning(100.0, 4000.0, 4, "linear"),
        [0, 1] * 16,
    )
    recorder = SpanRecorder()
    recorder.patch_method(DecisionTable, "lookup_batch", "core.table.lookup",
                          lambda args: len(args[1]))
    try:
        table.lookup_batch([1.0, 2.0, 3.0], [0, 1, 0], [500.0, 900.0, 1500.0])
    finally:
        recorder.restore()
    assert recorder.items["core.table.lookup"] == 3
    assert recorder.calls["core.table.lookup"] == 1
    assert "__wrapped__" not in vars(DecisionTable.lookup_batch)


def test_patch_function_refuses_unknown_functions():
    with pytest.raises(LookupError):
        SpanRecorder().patch_function(lambda: None, "nowhere")


def test_install_refuses_boundaries_the_program_no_longer_has():
    from repro.core.table import DecisionTable

    original = DecisionTable.__dict__["lookup"]
    for boundaries, families in [
        ([("repro.core.table", "DecisionTable.no_such_method", "gone", None)], []),
        ([("repro.core.table", "NoSuchClass.lookup", "gone", None)], []),
        ([("repro.core.table", "no_such_function", "gone", None)], []),
        ([], [("repro.core.table", "NoSuchBase", "lookup", "gone")]),
        ([], [("repro.core.table", "DecisionTable", "no_such_method", "gone")]),
    ]:
        recorder = SpanRecorder()
        with pytest.raises(LookupError):
            install(recorder, [
                ("repro.core.table", "DecisionTable.lookup", "core.table.lookup", None),
                *boundaries,
            ], families)
        recorder.restore()
        assert DecisionTable.__dict__["lookup"] is original


def test_event_loop_iterations_and_callbacks_wrap_their_children():
    import asyncio

    from perfbench.spans import LOOP_BOUNDARIES, LOOP_WAITS

    recorder = SpanRecorder()
    install(recorder, LOOP_BOUNDARIES, waits=LOOP_WAITS)
    inner = recorder.wrap(lambda: time.sleep(0.002), "inner")

    async def handler():
        inner()
        await asyncio.sleep(0.005)  # the loop waits in its selector
        inner()

    try:
        asyncio.run(handler())
    finally:
        recorder.restore()
    assert recorder.calls["inner"] == 2
    assert recorder.calls["service.server.http"] >= 4  # iterations, callbacks, polls
    # inner runs in a callback (depth 1) inside a loop iteration (depth 0)
    assert {depth for layer, _, _, depth in recorder.spans if layer == "inner"} == {2}
    # The 5 ms idle poll counts toward no layer: the loop's self time is
    # its bookkeeping, its callbacks' own work and the poll's CPU time.
    assert recorder.self_ns["inner"] >= 4_000_000
    assert recorder.self_ns["service.server.http"] < 4_000_000
