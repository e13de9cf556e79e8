"""The discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.emulation import EventQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(3.0, lambda: seen.append("c"))
        queue.schedule_at(1.0, lambda: seen.append("a"))
        queue.schedule_at(2.0, lambda: seen.append("b"))
        queue.run_until_idle()
        assert seen == ["a", "b", "c"]

    def test_fifo_on_ties(self):
        queue = EventQueue()
        seen = []
        for tag in ("first", "second", "third"):
            queue.schedule_at(5.0, lambda t=tag: seen.append(t))
        queue.run_until_idle()
        assert seen == ["first", "second", "third"]

    def test_now_advances(self):
        queue = EventQueue()
        times = []
        queue.schedule_at(2.5, lambda: times.append(queue.now))
        queue.schedule_in(4.0, lambda: times.append(queue.now))
        queue.run_until_idle()
        assert times == [2.5, 4.0]

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        seen = []

        def first():
            seen.append("first")
            queue.schedule_in(1.0, lambda: seen.append("second"))

        queue.schedule_at(1.0, first)
        queue.run_until_idle()
        assert seen == ["first", "second"]
        assert queue.now == pytest.approx(2.0)

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.schedule_at(5.0, lambda: queue.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError, match="past"):
            queue.run_until_idle()

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, when):
        """A NaN or infinite time would never come; refused up front."""
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.schedule_at(when, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            queue.schedule_in(when, lambda: None)
        assert len(queue) == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_in(-1.0, lambda: None)

    def test_event_budget(self):
        queue = EventQueue()

        def forever():
            queue.schedule_in(1.0, forever)

        queue.schedule_at(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            queue.run_until_idle(max_events=100)

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert len(queue) == 0
        queue.schedule_at(7.0, lambda: None)
        assert queue.peek_time() == 7.0
        assert len(queue) == 1

    def test_run_next_returns_false_when_idle(self):
        assert EventQueue().run_next() is False
