"""Batch decisions and binary-protocol negotiation, end to end.

Covers the fast-path additions as observable behaviour:

* ``DecisionService.decide_batch`` answers exactly like per-request
  ``decide`` — including no-table degradation, invalid ``prev_level``
  handling, and NaN-poisoned batches — at every batch size (both sides
  of the scalar/vectorized crossover).
* Each ``/v1/decide`` exchange on a :class:`DecisionServer` is one
  ``decide_batch`` call, however many requests are in flight: the
  ``batch_occupancy`` histogram counts records per exchange, next to
  the ``protocol_requests`` counters in ``/metrics``.
* A binary client negotiates by content-type, ships multi-record frames
  through ``decide_many``, and reports a server that answers JSON as
  unavailable instead of switching encodings.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.faults.chaos import ChaosConfig, ChaosPolicy
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.loadgen import LoadTestConfig, run_loadtest
from repro.service.protocol import (
    CONTENT_TYPE_BINARY,
    DecisionRequest,
    encode_response_batch,
)
from repro.service.server import (
    VECTOR_MIN_BATCH,
    DecisionServer,
    DecisionService,
)

from .conftest import LADDER, make_test_table


def _requests(count: int) -> list:
    return [
        DecisionRequest(
            session_id=f"s{i:04d}",
            buffer_s=(i * 1.37) % 30.0,
            predicted_kbps=120.0 + (i * 211.7) % 3800.0,
            prev_level=i % len(LADDER),
            past_errors=(0.08, -0.15) if i % 2 else (),
        )
        for i in range(count)
    ]


class TestDecideBatchParity:
    @pytest.mark.parametrize(
        "size", [1, 2, VECTOR_MIN_BATCH - 1, VECTOR_MIN_BATCH, 200]
    )
    def test_matches_scalar_decide(self, size):
        batch_service = DecisionService(LADDER, table=make_test_table())
        scalar_service = DecisionService(LADDER, table=make_test_table())
        requests = _requests(size)
        batched = batch_service.decide_batch(requests)
        scalar = [scalar_service.decide(r) for r in requests]
        assert len(batched) == size
        for got, want in zip(batched, scalar):
            assert (got.session_id, got.level_index, got.bitrate_kbps) == (
                want.session_id, want.level_index, want.bitrate_kbps
            )
            assert (got.source, got.degraded, got.reason) == (
                want.source, want.degraded, want.reason
            )

    def test_no_table_degrades_whole_batch(self):
        service = DecisionService(LADDER)  # cold on purpose
        responses = service.decide_batch(_requests(5))
        assert all(r.source == "fallback" for r in responses)
        assert all(r.degraded and r.reason == "no-table" for r in responses)

    @pytest.mark.parametrize("size", [3, VECTOR_MIN_BATCH + 3])
    def test_invalid_prev_level_degrades_only_that_request(self, size):
        service = DecisionService(LADDER, table=make_test_table())
        requests = _requests(size)
        requests[1] = DecisionRequest(
            session_id="bad", buffer_s=1.0, predicted_kbps=500.0,
            prev_level=len(LADDER) + 7,
        )
        responses = service.decide_batch(requests)
        assert responses[1].source == "fallback"
        assert responses[1].reason == "malformed"
        others = [r for i, r in enumerate(responses) if i != 1]
        assert all(r.source == "table" for r in others)

    def test_nan_poisoned_batch_degrades_per_request(self):
        # NaN would poison a whole vectorized lookup; the batch's validity
        # mask keeps it out, so only the bad request degrades.
        service = DecisionService(LADDER, table=make_test_table())
        requests = _requests(VECTOR_MIN_BATCH)
        poisoned = list(requests)
        poisoned[3] = DecisionRequest(
            session_id="nan", buffer_s=float("nan"), predicted_kbps=500.0,
        )
        responses = service.decide_batch(poisoned)
        assert responses[3].source == "fallback"
        ok = [r for i, r in enumerate(responses) if i != 3]
        assert all(r.source == "table" for r in ok)

    def test_batch_occupancy_recorded(self):
        service = DecisionService(LADDER, table=make_test_table())
        service.decide_batch(_requests(4))
        service.decide_batch(_requests(4))
        service.decide_batch(_requests(9))
        snap = service.metrics.snapshot()
        assert snap["batch_occupancy"] == {"4": 2, "9": 1}


class _CountingService(DecisionService):
    """Counts :meth:`decide_batch` calls and the records in each."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_calls: list = []

    def decide_batch(self, requests):
        self.batch_calls.append(len(requests))
        return super().decide_batch(requests)


class TestServerExchanges:
    def test_concurrent_json_requests_are_answered_one_by_one(self):
        """No cross-request queue: 60 JSON requests in flight together
        over six connections are 60 batches of one, answering exactly
        what scalar decide answers."""

        async def inner():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                clients = [
                    ServiceClient("127.0.0.1", server.bound_port)
                    for _ in range(6)
                ]
                for c in clients:
                    await c.connect()
                responses = []
                requests = _requests(60)
                for start in range(0, 60, 6):
                    responses += await asyncio.gather(
                        *(
                            c.decide(r)
                            for c, r in zip(clients, requests[start:start + 6])
                        )
                    )
                for c in clients:
                    await c.close()
                return requests, responses, service.metrics.snapshot()
            finally:
                await server.close()

        requests, responses, snap = asyncio.run(inner())
        assert snap["batch_occupancy"] == {"1": 60}
        assert snap["spans_us"]["decide"]["count"] == 60
        assert "decide-batch" not in snap["spans_us"]
        scalar = DecisionService(LADDER, table=make_test_table())
        for request, got in zip(requests, responses):
            want = scalar.decide(request)
            assert (got.session_id, got.level_index, got.source, got.degraded) == (
                want.session_id, want.level_index, want.source, want.degraded
            )

    def test_each_exchange_is_one_decide_batch_call(self):
        """JSON, a one-record binary frame and a multi-record frame: one
        decide_batch call each, inside the exchange's own handler."""

        async def inner():
            service = _CountingService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                requests = _requests(5)
                async with ServiceClient("127.0.0.1", server.bound_port) as c:
                    await c.decide(requests[0])
                async with ServiceClient(
                    "127.0.0.1", server.bound_port, protocol="binary"
                ) as c:
                    await c.decide(requests[0])
                    await c.decide_many(requests)
                return service.batch_calls, service.metrics.snapshot()
            finally:
                await server.close()

        calls, snap = asyncio.run(inner())
        assert calls == [1, 1, 5]
        assert snap["batch_occupancy"] == {"1": 2, "5": 1}
        assert snap["spans_us"]["decide"]["count"] == 3

    def test_table_swap_chaos_decides_on_its_own_swap(self):
        """A request that draws table-swap chaos is decided on the table
        as its own swap left it.  Every request swaps, so of two in
        flight together one sees the table unloaded and one restored."""

        async def inner():
            service = DecisionService(LADDER, table=make_test_table())
            chaos = ChaosPolicy(ChaosConfig(table_swap_rate=1.0))
            server = DecisionServer(service, port=0, chaos=chaos)
            await server.start()
            try:
                clients = [
                    ServiceClient("127.0.0.1", server.bound_port)
                    for _ in range(2)
                ]
                for c in clients:
                    await c.connect()
                rounds = []
                for request in _requests(5):
                    responses = await asyncio.gather(
                        *(c.decide(request) for c in clients)
                    )
                    rounds.append(sorted(r.source for r in responses))
                for c in clients:
                    await c.close()
                return rounds
            finally:
                await server.close()

        assert asyncio.run(inner()) == [["fallback", "table"]] * 5

    def test_protocol_counters_split_json_and_binary(self):
        async def inner():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                request = _requests(1)[0]
                async with ServiceClient("127.0.0.1", server.bound_port) as c:
                    await c.decide(request)
                    await c.decide(request)
                async with ServiceClient(
                    "127.0.0.1", server.bound_port, protocol="binary"
                ) as c:
                    await c.decide(request)
                return service.metrics.snapshot()
            finally:
                await server.close()

        snap = asyncio.run(inner())
        assert snap["protocol_requests"] == {"json": 2, "binary": 1}


class TestBinaryNegotiation:
    def test_binary_client_stays_binary_and_matches_json(self):
        async def inner():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                requests = _requests(12)
                async with ServiceClient("127.0.0.1", server.bound_port) as c:
                    json_responses = [await c.decide(r) for r in requests]
                async with ServiceClient(
                    "127.0.0.1", server.bound_port, protocol="binary"
                ) as c:
                    single = [await c.decide(r) for r in requests]
                    many = await c.decide_many(requests)
                    assert c.protocol == "binary"
                return json_responses, single, many
            finally:
                await server.close()

        json_responses, single, many = asyncio.run(inner())
        for j, s, m in zip(json_responses, single, many):
            assert (j.level_index, j.source, j.degraded) == (
                s.level_index, s.source, s.degraded
            )
            assert (j.level_index, j.source, j.degraded) == (
                m.level_index, m.source, m.degraded
            )

    def test_downgrade_against_json_only_server(self):
        """A server that never answers binary: the JSON answer does not
        decode as a frame, so the client raises instead of downgrading."""

        async def handle(reader, writer):
            try:
                while True:
                    # Minimal HTTP parse: headers, then content-length body.
                    header_blob = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in header_blob.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":", 1)[1])
                    if length:
                        await reader.readexactly(length)
                    from repro.service.protocol import DecisionResponse

                    payload = DecisionResponse(
                        session_id="old",
                        level_index=1,
                        bitrate_kbps=LADDER[1],
                        source="table",
                    ).to_json()
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                        + payload
                    )
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        async def inner():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with ServiceClient(
                    "127.0.0.1", port, protocol="binary"
                ) as client:
                    with pytest.raises(ServiceUnavailable):
                        await client.decide(_requests(1)[0])
                    with pytest.raises(ServiceUnavailable):
                        await client.decide_many(_requests(3))
                    return client.protocol
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(inner()) == "binary"

    def test_client_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            ServiceClient("127.0.0.1", 1, protocol="msgpack")

    def test_server_answers_malformed_binary_with_degraded_frame(self):
        async def inner():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port
                )
                garbage = b"\x00\x01\x02 not a frame"
                writer.write(
                    b"POST /v1/decide HTTP/1.1\r\n"
                    + f"Content-Type: {CONTENT_TYPE_BINARY}\r\n".encode()
                    + f"Content-Length: {len(garbage)}\r\n\r\n".encode()
                    + garbage
                )
                await writer.drain()
                header = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in header.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                body = await reader.readexactly(length)
                writer.close()
                return header, body
            finally:
                await server.close()

        header, body = asyncio.run(inner())
        assert CONTENT_TYPE_BINARY.encode() in header
        from repro.service.protocol import DecisionResponse

        response = DecisionResponse.from_binary(body)
        assert response.degraded and response.reason == "malformed"
        assert response.source == "fallback"


class TestLoadgenBinaryMode:
    def test_closed_loop_binary_run_is_clean(self, tmp_path):
        async def inner():
            service = DecisionService(LADDER, table=make_test_table())
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                config = LoadTestConfig(
                    sessions=8,
                    chunks_per_session=10,
                    concurrency=8,
                    connections=2,
                    protocol="binary",
                    dataset="synthetic",
                    seed=7,
                    ladder_kbps=LADDER,
                )
                report = await run_loadtest(
                    "127.0.0.1", server.bound_port, config
                )
                return report, service.metrics.snapshot()
            finally:
                await server.close()

        report, snap = asyncio.run(inner())
        assert report.errors == 0
        assert report.decisions == 80
        assert report.sessions_completed == 8
        assert snap["protocol_requests"].get("binary", 0) > 0
        # Coalescing: 8 concurrent sessions over 2 connections must have
        # produced multi-record frames.
        occupancy = {int(k): v for k, v in snap["batch_occupancy"].items()}
        assert max(occupancy) > 1

    def test_config_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            LoadTestConfig(protocol="grpc")


def test_healthz_advertises_binary_protocol():
    async def inner():
        service = DecisionService(LADDER, table=make_test_table())
        server = DecisionServer(service, port=0)
        await server.start()
        try:
            async with ServiceClient("127.0.0.1", server.bound_port) as c:
                return await c.health()
        finally:
            await server.close()

    health = asyncio.run(inner())
    assert health["binary_protocol"] is True


def test_response_frame_magic():
    from repro.service.protocol import DecisionResponse

    frame = encode_response_batch(
        (
            DecisionResponse(
                session_id="s", level_index=0, bitrate_kbps=LADDER[0],
                source="table",
            ),
        )
    )
    assert frame[:2] == b"DS"
