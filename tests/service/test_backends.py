"""Per-session controller backends: lifecycle, eviction, decision flow."""

from __future__ import annotations

import pytest

from repro.service.backends import AlgorithmBackend

LADDER = (350.0, 600.0, 1000.0, 2000.0, 3000.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_backend(controller="bola", **kwargs):
    return AlgorithmBackend(controller, LADDER, **kwargs)


class TestConstruction:
    def test_unknown_controller_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_backend("skynet")

    def test_validation(self):
        with pytest.raises(ValueError):
            make_backend(max_sessions=0)
        with pytest.raises(ValueError):
            make_backend(idle_timeout_s=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_refuses_non_finite_idle_timeout(self, bad):
        with pytest.raises(ValueError, match="idle_timeout_s"):
            make_backend(idle_timeout_s=bad)


class TestDecide:
    def test_decision_in_ladder_range(self):
        backend = make_backend("bola")
        for buffer_s in (0.0, 10.0, 25.0):
            level = backend.decide("s1", buffer_s, 1, 1500.0)
            assert 0 <= level < len(LADDER)

    def test_session_state_persists_across_decisions(self):
        """A predictor-driven controller smooths its own estimate: after a
        run of low samples, one optimistic client prediction must not send
        it straight to the top rung (fresh state would)."""
        seasoned = make_backend("rb")
        for _ in range(8):
            seasoned.decide("s1", 10.0, 0, 400.0)
        level_seasoned = seasoned.decide("s1", 10.0, 0, 50_000.0)

        fresh = make_backend("rb")
        level_fresh = fresh.decide("s2", 10.0, 0, 50_000.0)
        assert level_seasoned < level_fresh

    def test_sessions_are_independent(self):
        backend = make_backend("rb")
        for _ in range(8):
            backend.decide("slow", 10.0, 0, 400.0)
        # A brand-new session is not polluted by the slow one's history.
        assert backend.decide("fast", 10.0, 0, 50_000.0) == len(LADDER) - 1

    def test_out_of_range_client_values_clamped(self):
        backend = make_backend("bola")
        # A buffer beyond capacity and a prev_level beyond the ladder must
        # be absorbed, not crash the controller.
        level = backend.decide("s1", 500.0, 99, 1500.0)
        assert 0 <= level < len(LADDER)

    def test_invalid_controller_level_rejected(self):
        backend = make_backend("bola")
        session = backend._sessions  # force a session, then sabotage it
        backend.decide("s1", 10.0, 0, 1500.0)
        session["s1"].algorithm.select_bitrate = lambda obs: 99
        with pytest.raises(ValueError, match="invalid level"):
            backend.decide("s1", 10.0, 0, 1500.0)


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        backend = make_backend("bola", max_sessions=3)
        for sid in ("a", "b", "c"):
            backend.decide(sid, 10.0, 0, 1500.0)
        backend.decide("a", 10.0, 0, 1500.0)  # refresh "a"
        backend.decide("d", 10.0, 0, 1500.0)  # evicts "b", the LRU
        assert backend.sessions_active == 3
        assert backend.evictions_lru == 1
        assert "b" not in backend._sessions
        assert set(backend._sessions) == {"a", "c", "d"}

    def test_idle_eviction(self):
        clock = FakeClock()
        backend = make_backend("bola", idle_timeout_s=60.0, clock=clock)
        backend.decide("old", 10.0, 0, 1500.0)
        clock.now = 100.0
        backend.decide("young", 10.0, 0, 1500.0)
        assert backend.evict_idle() == 1
        assert backend.evictions_idle == 1
        assert set(backend._sessions) == {"young"}

    def test_idle_eviction_noop_within_timeout(self):
        clock = FakeClock()
        backend = make_backend("bola", idle_timeout_s=60.0, clock=clock)
        backend.decide("s", 10.0, 0, 1500.0)
        clock.now = 30.0
        assert backend.evict_idle() == 0
        assert backend.sessions_active == 1

    def test_evicted_session_restarts_cleanly(self):
        backend = make_backend("bola", max_sessions=1)
        backend.decide("a", 10.0, 0, 1500.0)
        backend.decide("b", 10.0, 0, 1500.0)  # evicts "a"
        level = backend.decide("a", 10.0, 0, 1500.0)  # fresh restart
        assert 0 <= level < len(LADDER)

    def test_clear(self):
        backend = make_backend("bola")
        backend.decide("s", 10.0, 0, 1500.0)
        backend.clear()
        assert backend.sessions_active == 0
