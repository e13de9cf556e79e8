"""The client retry policy: backoff math, budgets, and live 5xx rides."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.faults import ChaosConfig, ChaosPolicy
from repro.service import (
    DecisionServer,
    DecisionService,
    RetryPolicy,
    ServiceClient,
    ServiceUnavailable,
)
from repro.service.protocol import DecisionRequest

from .conftest import LADDER, make_test_table


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        RetryPolicy()

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget_s=0.0)

    @pytest.mark.parametrize(
        "field", ["base_delay_s", "max_delay_s", "multiplier", "budget_s"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError):
            RetryPolicy(**{field: value})


class TestBackoff:
    def test_no_jitter_is_pure_exponential_with_ceiling(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        rng = random.Random(0)
        assert policy.backoff_s(0, rng) == pytest.approx(0.1)
        assert policy.backoff_s(1, rng) == pytest.approx(0.2)
        assert policy.backoff_s(2, rng) == pytest.approx(0.4)
        assert policy.backoff_s(3, rng) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(10, rng) == pytest.approx(0.5)

    def test_jitter_only_shrinks_and_is_seeded(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, jitter=0.5)
        series_a = [policy.backoff_s(n, random.Random(3)) for n in range(4)]
        series_b = [policy.backoff_s(n, random.Random(3)) for n in range(4)]
        assert series_a == series_b  # deterministic for a fixed seed
        for n, jittered in enumerate(series_a):
            full = min(0.1 * 2.0**n, policy.max_delay_s)
            assert full * 0.5 <= jittered <= full


class TestRetryAgainstDeadPort:
    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.02, budget_s=5.0
        )

        async def run():
            client = ServiceClient("127.0.0.1", 1, deadline_s=0.2, retry=policy)
            try:
                await client.decide(DecisionRequest(session_id="s", buffer_s=0.0, predicted_kbps=500.0))
            finally:
                await client.close()

        with pytest.raises(ServiceUnavailable, match="gave up after 3 attempt"):
            asyncio.run(run())

    def test_budget_cuts_retries_short(self):
        """base_delay > budget: the first backoff would overrun, so the
        client stops after one attempt even with attempts to spare."""
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=2.0, jitter=0.0, budget_s=0.1
        )

        async def run():
            client = ServiceClient("127.0.0.1", 1, deadline_s=0.2, retry=policy)
            try:
                await client.decide(DecisionRequest(session_id="s", buffer_s=0.0, predicted_kbps=500.0))
            finally:
                await client.close()

        with pytest.raises(ServiceUnavailable, match="gave up after 1 attempt"):
            asyncio.run(run())

    def test_no_policy_fails_on_first_error(self):
        async def run():
            client = ServiceClient("127.0.0.1", 1, deadline_s=0.2)
            try:
                await client.decide(DecisionRequest(session_id="s", buffer_s=0.0, predicted_kbps=500.0))
            finally:
                await client.close()

        with pytest.raises(ServiceUnavailable):
            asyncio.run(run())


@pytest.mark.slow
class TestRetryAgainstLiveChaos:
    def test_decide_rides_out_an_injected_500(self):
        # Seed chosen so the server's first draw injects a 500 and the
        # second passes clean — verified right here, so a stdlib RNG
        # change fails loudly instead of silently weakening the test.
        rng = random.Random(1)
        assert rng.random() < 0.5 and rng.random() >= 0.5
        chaos = ChaosPolicy(ChaosConfig(error_rate=0.5, seed=1))

        async def run():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0, chaos=chaos)
            await server.start()
            try:
                client = ServiceClient(
                    "127.0.0.1", server.bound_port, deadline_s=1.0,
                    retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
                )
                try:
                    response = await client.decide(
                        DecisionRequest(session_id="s", buffer_s=10.0, predicted_kbps=900.0)
                    )
                finally:
                    await client.close()
                return response, service.metrics.snapshot()
            finally:
                await server.close()

        response, metrics = asyncio.run(run())
        assert response.level_index in range(len(LADDER))
        assert metrics["chaos_injected"] == {"error-500": 1}

    def test_decide_without_retry_propagates_the_500(self):
        chaos = ChaosPolicy(ChaosConfig(error_rate=1.0))

        async def run():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0, chaos=chaos)
            await server.start()
            try:
                client = ServiceClient("127.0.0.1", server.bound_port, deadline_s=1.0)
                try:
                    await client.decide(
                        DecisionRequest(session_id="s", buffer_s=10.0, predicted_kbps=900.0)
                    )
                finally:
                    await client.close()
            finally:
                await server.close()

        with pytest.raises(ServiceUnavailable, match="HTTP 500"):
            asyncio.run(run())
