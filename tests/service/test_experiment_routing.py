"""A/B routing through the service: arms pick code paths, end to end."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    CONTROLLER_TABLE,
    DecisionRequest,
    DecisionServer,
    DecisionService,
    ExperimentArm,
    ExperimentConfig,
    ServiceClient,
)
from repro.service.protocol import (
    SOURCE_CONTROLLER,
    SOURCE_FALLBACK,
    SOURCE_TABLE,
    decode_response_batch,
    encode_response_batch,
)

pytestmark = pytest.mark.slow

from .conftest import LADDER, make_test_table


EXPERIMENT = ExperimentConfig(
    arms=(
        ExperimentArm("control", CONTROLLER_TABLE, weight=1.0),
        ExperimentArm("bola", "bola", weight=1.0),
        ExperimentArm("bb", "bb", weight=1.0),
    ),
    salt="routing-test",
)


def session_on(arm_name: str, prefix: str = "s") -> str:
    """A session id the experiment assigns to the requested arm."""
    for i in range(10_000):
        sid = f"{prefix}{i}"
        if EXPERIMENT.assign(sid).name == arm_name:
            return sid
    raise AssertionError(f"no session found for arm {arm_name}")


def make_request(session_id: str, **overrides) -> DecisionRequest:
    fields = dict(
        session_id=session_id, buffer_s=10.0, predicted_kbps=1500.0, prev_level=1
    )
    fields.update(overrides)
    return DecisionRequest(**fields)


def run(coro):
    return asyncio.run(coro)


def frozen_clock() -> float:
    return 0.0


async def with_server(service, inner):
    server = DecisionServer(service, port=0)
    await server.start()
    try:
        return await inner(server)
    finally:
        await server.close()


class TestServiceRouting:
    def test_table_arm_keeps_table_path(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        sid = session_on("control")
        response = service.decide(make_request(sid))
        assert response.source == SOURCE_TABLE
        assert response.arm == "control"
        assert response.level_index == test_table.lookup(10.0, 1, 1500.0)

    def test_controller_arm_runs_backend(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        sid = session_on("bola")
        response = service.decide(make_request(sid))
        assert response.source == SOURCE_CONTROLLER
        assert response.arm == "bola"
        assert not response.degraded
        assert 0 <= response.level_index < len(LADDER)

    def test_no_experiment_means_no_arm(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        response = service.decide(make_request("anyone"))
        assert response.arm is None
        assert service.metrics.snapshot()["arms"] == {}

    def test_cold_table_arm_falls_back_with_arm_label(self):
        service = DecisionService(LADDER, experiment=EXPERIMENT)  # no table
        sid = session_on("control")
        response = service.decide(make_request(sid))
        assert response.source == SOURCE_FALLBACK
        assert response.degraded
        assert response.arm == "control"
        # Controller arms keep serving healthily without any table.
        healthy = service.decide(make_request(session_on("bola")))
        assert healthy.source == SOURCE_CONTROLLER
        assert not healthy.degraded

    def test_unknown_controller_rejected_at_config_time(self, test_table):
        bad = ExperimentConfig(arms=(ExperimentArm("x", "skynet"),))
        with pytest.raises(ValueError, match="unknown algorithm"):
            DecisionService(LADDER, table=test_table, experiment=bad)

    def test_set_experiment_clears_backends(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        assert set(service.backends) == {"bola", "bb"}
        service.set_experiment(None)
        assert service.backends == {}
        assert service.decide(make_request("s0")).arm is None

    def test_reconfigure_keeps_surviving_backend_sessions(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        sid = session_on("bola")
        service.decide(make_request(sid))
        before = service.backends["bola"]
        assert before.sessions_active == 1
        # A new config still naming "bola" keeps the live backend.
        service.set_experiment(
            ExperimentConfig(arms=(ExperimentArm("bola", "bola"),), salt="v2")
        )
        assert service.backends["bola"] is before
        assert service.backends["bola"].sessions_active == 1

    def test_per_arm_metrics_recorded(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        for arm, count in (("control", 3), ("bola", 2)):
            for i in range(count):
                service.decide(make_request(session_on(arm, prefix=f"m{i}-")))
        arms = service.metrics.snapshot()["arms"]
        assert arms["control"]["decisions"] == 3
        assert arms["control"]["sources"] == {"table": 3}
        assert arms["bola"]["decisions"] == 2
        assert arms["bola"]["sources"] == {"controller": 2}


class TestBatchRouting:
    def test_batch_matches_scalar_and_preserves_order(self, test_table):
        # A frozen clock keeps both services inside the 5 ms lookup budget:
        # with the wall clock, a slow moment (the batch's controller arms
        # run before its table lookup) degraded the batch to the fallback.
        scalar = DecisionService(
            LADDER, table=test_table, experiment=EXPERIMENT, clock=frozen_clock
        )
        batched = DecisionService(
            LADDER, table=test_table, experiment=EXPERIMENT, clock=frozen_clock
        )
        requests = [make_request(f"s{i}", buffer_s=5.0 + i % 7) for i in range(40)]
        expected = [scalar.decide(r) for r in requests]
        got = batched.decide_batch(requests)
        assert [r.session_id for r in got] == [r.session_id for r in requests]
        for want, have in zip(expected, got):
            assert (want.level_index, want.source, want.arm) == (
                have.level_index,
                have.source,
                have.arm,
            )

    def test_batch_mixes_sources(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        requests = [make_request(f"s{i}") for i in range(60)]
        responses = service.decide_batch(requests)
        sources = {r.source for r in responses}
        assert SOURCE_TABLE in sources and SOURCE_CONTROLLER in sources
        assert all(r.arm is not None for r in responses)


class TestBinaryArmEncoding:
    def test_response_arm_roundtrip(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        responses = [service.decide(make_request(f"s{i}")) for i in range(8)]
        decoded = decode_response_batch(encode_response_batch(responses))
        assert [r.arm for r in decoded] == [r.arm for r in responses]
        assert [r.level_index for r in decoded] == [
            r.level_index for r in responses
        ]

    def test_armless_frames_unchanged(self, test_table):
        """No experiment -> the arm flag stays clear and the frame is
        byte-identical to the pre-experiment encoding (wire compat)."""
        service = DecisionService(LADDER, table=test_table)
        responses = [service.decide(make_request(f"s{i}")) for i in range(4)]
        blob = encode_response_batch(responses)
        assert blob[3] == 0  # flags byte
        decoded = decode_response_batch(blob)
        assert all(r.arm is None for r in decoded)


class TestExperimentRoutes:
    def test_get_post_clear_cycle(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                assert await client.get_experiment() is None
                active = await client.set_experiment(EXPERIMENT.to_dict())
                assert active == EXPERIMENT.to_dict()
                assert await client.get_experiment() == EXPERIMENT.to_dict()
                health = await client.health()
                assert health["experiment_arms"] == ["control", "bola", "bb"]
                # A decision now carries its arm over the wire.
                sid = session_on("bola")
                response = await client.decide(make_request(sid))
                assert response.arm == "bola"
                assert response.source == SOURCE_CONTROLLER
                # Clear: back to arm-less serving.
                assert await client.set_experiment(None) is None
                assert await client.get_experiment() is None
                response = await client.decide(make_request(sid))
                assert response.arm is None

        run(with_server(service, inner))

    def test_bad_experiment_rejected_400(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                status, _ = await client.request(
                    "POST", "/v1/experiment", b"not json"
                )
                assert status == 400
                status, _ = await client.request(
                    "POST",
                    "/v1/experiment",
                    b'{"arms": [{"name": "x", "controller": "skynet"}]}',
                )
                assert status == 400
                # A rejected config never partially installs.
                assert await client.get_experiment() is None

        run(with_server(service, inner))

    def test_healthz_without_experiment(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                health = await client.health()
                assert health["experiment_arms"] is None

        run(with_server(service, inner))


class TestBackendReaper:
    def test_evict_idle_backends_counts_across_arms(self, test_table):
        service = DecisionService(LADDER, table=test_table, experiment=EXPERIMENT)
        for prefix in ("a", "b", "c"):
            service.decide(make_request(session_on("bola", prefix=prefix)))
            service.decide(make_request(session_on("bb", prefix=prefix)))
        # Age every backend session past the timeout by hand.
        for backend in service.backends.values():
            for session in backend._sessions.values():
                session.last_active = -1e9
        assert service.evict_idle_backends() == 6
        assert all(
            backend.sessions_active == 0 for backend in service.backends.values()
        )
