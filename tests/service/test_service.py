"""DecisionService: table path, robust bound, and the degradation policy."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.client import ServiceClient
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    SOURCE_FALLBACK,
    SOURCE_TABLE,
    DecisionRequest,
    DecisionResponse,
)
from repro.service.server import (
    REASON_MALFORMED,
    REASON_NO_TABLE,
    REASON_OVER_BUDGET,
    DecisionServer,
    DecisionService,
    ServiceConfig,
)

from .conftest import LADDER


class FakeClock:
    """Monotonic clock that advances by a scripted step per call."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += self.steps.pop(0) if self.steps else 0.0
        return value


def make_request(**overrides) -> DecisionRequest:
    fields = dict(
        session_id="s1", buffer_s=10.0, predicted_kbps=1500.0, prev_level=2
    )
    fields.update(overrides)
    return DecisionRequest(**fields)


class TestTablePath:
    def test_decision_matches_direct_lookup(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        request = make_request()
        response = service.decide(request)
        assert response.source == SOURCE_TABLE
        assert not response.degraded
        assert response.reason is None
        assert response.level_index == test_table.lookup(10.0, 2, 1500.0)
        assert response.bitrate_kbps == LADDER[response.level_index]
        assert service.metrics.decisions_table == 1
        assert service.metrics.decisions_fallback == 0

    def test_robust_lower_bound_applied(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        # max |error| = 0.5 -> the table is queried at 1500 / 1.5 = 1000.
        response = service.decide(make_request(past_errors=(0.1, -0.5)))
        assert response.level_index == test_table.lookup(10.0, 2, 1000.0)
        assert response.source == SOURCE_TABLE

    def test_first_chunk_uses_level_zero(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        response = service.decide(make_request(prev_level=None))
        assert response.level_index == test_table.lookup(10.0, 0, 1500.0)

    def test_mismatched_ladder_rejected(self, test_table):
        with pytest.raises(ValueError):
            DecisionService((100.0, 200.0), table=test_table)


class TestDegradation:
    def test_no_table_falls_back_rate_based(self):
        service = DecisionService(LADDER)
        response = service.decide(make_request(predicted_kbps=900.0))
        assert response.source == SOURCE_FALLBACK
        assert response.degraded
        assert response.reason == REASON_NO_TABLE
        # Rate-based rule: highest ladder rate <= 900 is 800 (index 1).
        assert response.level_index == 1
        assert response.bitrate_kbps == 800.0
        assert service.metrics.fallback_reasons == {REASON_NO_TABLE: 1}

    def test_fallback_below_ladder_clamps_to_lowest(self):
        service = DecisionService(LADDER)
        response = service.decide(make_request(predicted_kbps=50.0))
        assert response.level_index == 0

    def test_prev_level_out_of_range_degrades(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        response = service.decide(make_request(prev_level=99))
        assert response.source == SOURCE_FALLBACK
        assert response.reason == REASON_MALFORMED

    def test_over_budget_degrades(self, test_table):
        # Scripted clock: the lookup "takes" 1 full second per call,
        # far over the 5 ms budget.
        clock = FakeClock(steps=[1.0, 1.0, 1.0, 1.0])
        service = DecisionService(LADDER, table=test_table, clock=clock)
        response = service.decide(make_request())
        assert response.source == SOURCE_FALLBACK
        assert response.degraded
        assert response.reason == REASON_OVER_BUDGET
        assert service.metrics.fallback_reasons == {REASON_OVER_BUDGET: 1}

    def test_within_budget_stays_table(self, test_table):
        clock = FakeClock(steps=[0.0001] * 8)
        config = ServiceConfig(lookup_budget_s=0.005)
        service = DecisionService(
            LADDER, table=test_table, config=config, clock=clock
        )
        assert service.decide(make_request()).source == SOURCE_TABLE


def post_decide(service, bodies):
    """Each body's answer to ``POST /v1/decide`` on a live server."""

    async def main():
        server = DecisionServer(service, port=0)
        await server.start()
        try:
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                return [
                    await client.request("POST", "/v1/decide", body)
                    for body in bodies
                ]
        finally:
            await server.close()

    answers = asyncio.run(main())
    assert [status for status, _ in answers] == [200] * len(bodies)
    return [DecisionResponse.from_json(raw) for _, raw in answers]


@pytest.mark.slow
class TestDecidePayload:
    """Raw bodies through the server's decide route: malformed input
    degrades to a fallback shaped by the fields it salvages."""

    def test_valid_payload(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        (response,) = post_decide(service, [make_request().to_json()])
        assert response.source == SOURCE_TABLE

    def test_malformed_payload_salvages_fields(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        # Missing buffer_s: invalid, but session and prediction salvage.
        body = b'{"session_id":"sx","predicted_kbps":900.0}'
        (response,) = post_decide(service, [body])
        assert response.source == SOURCE_FALLBACK
        assert response.reason == REASON_MALFORMED
        assert response.session_id == "sx"
        assert response.level_index == 1  # rate-based over 900 kbps

    def test_garbage_payload_still_answers(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        (response,) = post_decide(service, [b"\x00\xffnot json"])
        assert response.source == SOURCE_FALLBACK
        assert response.session_id == "unknown"
        assert response.level_index == 0

    def test_never_raises_on_hostile_payloads(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        hostile = [
            b"", b"[]", b"null", b'{"predicted_kbps":"NaN"}',
            b'{"session_id":"s","buffer_s":1e999,"predicted_kbps":1}',
            b'{"session_id":true,"buffer_s":1,"predicted_kbps":-5}',
        ]
        for response in post_decide(service, hostile):
            assert response.degraded
        assert service.metrics.decisions_fallback == len(hostile)


class TestTableLifecycle:
    def test_swap_and_unload(self, test_table):
        metrics = ServiceMetrics()
        service = DecisionService(LADDER, metrics=metrics)
        assert not service.table_loaded
        service.swap_table(test_table)
        assert service.table_loaded
        assert service.decide(make_request()).source == SOURCE_TABLE
        service.unload_table()
        assert not service.table_loaded
        assert service.decide(make_request()).source == SOURCE_FALLBACK
        assert metrics.table_swaps_total == 2

    def test_swap_rejects_wrong_shape(self, test_table):
        service = DecisionService((100.0, 200.0))
        with pytest.raises(ValueError):
            service.swap_table(test_table)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(lookup_budget_s=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(request_deadline_s=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(idle_timeout_s=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_body_bytes=0)
        # NaN passes a ``<= 0`` test; a NaN budget would never trip.
        nan, inf = float("nan"), float("inf")
        for field, value in [
            ("lookup_budget_s", nan),
            ("request_deadline_s", nan),
            ("idle_timeout_s", inf),
            ("backend_idle_timeout_s", nan),
            ("backend_chunk_duration_s", inf),
            ("backend_buffer_capacity_s", nan),
        ]:
            with pytest.raises(ValueError):
                ServiceConfig(**{field: value})
