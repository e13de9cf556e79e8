"""End-to-end HTTP tests: a live asyncio server driven by the client."""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.service import (
    DecisionRequest,
    DecisionServer,
    DecisionService,
    ServiceClient,
    ServiceConfig,
)
from repro.core.table import DecisionTable
from repro.faults.chaos import ChaosConfig, ChaosPolicy
from repro.service.client import ServiceUnavailable
from repro.service.protocol import SOURCE_FALLBACK, SOURCE_TABLE, DecisionResponse
from repro.service.server import REASON_MALFORMED, REASON_NO_TABLE

# Every test here binds a real socket and runs a live event loop.
pytestmark = pytest.mark.slow

from .conftest import LADDER, make_test_table


def run(coro):
    return asyncio.run(coro)


async def with_server(service, inner):
    """Start a server on an ephemeral port, run ``inner``, tear down."""
    server = DecisionServer(service, port=0)
    await server.start()
    try:
        return await inner(server)
    finally:
        await server.close()


def make_request(**overrides) -> DecisionRequest:
    fields = dict(
        session_id="s1", buffer_s=10.0, predicted_kbps=1500.0, prev_level=2
    )
    fields.update(overrides)
    return DecisionRequest(**fields)


class TestRoutes:
    def test_decide_end_to_end(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                response = await client.decide(make_request())
                assert response.source == SOURCE_TABLE
                assert response.level_index == test_table.lookup(10.0, 2, 1500.0)
                assert response.server_latency_us > 0

        run(with_server(service, inner))

    def test_healthz(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                health = await client.health()
                assert health["status"] == "ok"
                assert health["table_loaded"] is True
                assert health["num_levels"] == len(LADDER)

        run(with_server(service, inner))

    def test_metrics_counts_traffic(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                for _ in range(3):
                    await client.decide(make_request())
                snap = await client.metrics()
                assert snap["decisions"]["table"] == 3
                assert snap["decisions"]["error"] == 0
                assert snap["latency_us"]["count"] == 3
                assert snap["connections"]["opened"] >= 1

        run(with_server(service, inner))

    def test_malformed_body_gets_degraded_200(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                status, body = await client.request(
                    "POST", "/v1/decide", b'{"session_id":"x"}'
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["source"] == SOURCE_FALLBACK
                assert payload["degraded"] is True
                assert payload["reason"] == REASON_MALFORMED

        run(with_server(service, inner))

    @pytest.mark.parametrize(
        "body, session_id, level",
        [
            (b'{"session_id": "s7", "predicted_kbps": 900.0', "unknown", 0),
            (b'[{"session_id": "s7", "predicted_kbps": 900.0}]', "unknown", 0),
            (
                b'{"session_id": "s7", "buffer_s": -1.0,'
                b' "predicted_kbps": 900.0, "prev_level": 1}',
                "s7",
                1,
            ),
        ],
        ids=["invalid-json", "array", "bad-field"],
    )
    def test_malformed_body_is_parsed_twice(
        self, test_table, monkeypatch, body, session_id, level
    ):
        """``from_json`` fails once, ``_salvage`` parses once, and the
        salvaged fields shape the degraded answer."""
        service = DecisionService(LADDER, table=test_table)
        loads = json.loads
        calls = []

        def counting_loads(*args, **kwargs):
            calls.append(args[0])
            return loads(*args, **kwargs)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                monkeypatch.setattr(json, "loads", counting_loads)
                try:
                    return await client.request("POST", "/v1/decide", body)
                finally:
                    monkeypatch.undo()

        status, raw = run(with_server(service, inner))
        assert calls == [body, body]
        assert status == 200
        payload = json.loads(raw)
        assert payload["session_id"] == session_id
        assert payload["level_index"] == level
        assert payload["degraded"] is True
        assert payload["reason"] == REASON_MALFORMED

    def test_unknown_route_404_and_wrong_method_405(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                status, _ = await client.request("GET", "/nope")
                assert status == 404
                status, _ = await client.request("GET", "/v1/decide")
                assert status == 405
                snap = await client.metrics()
                assert snap["decisions"]["error"] == 2

        run(with_server(service, inner))

    def test_oversized_body_413(self, test_table):
        config = ServiceConfig(max_body_bytes=64)
        service = DecisionService(LADDER, table=test_table, config=config)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                status, _ = await client.request(
                    "POST", "/v1/decide", b"x" * 1000
                )
                assert status == 413

        run(with_server(service, inner))


class TestTableSwap:
    def test_warm_swap_on_live_connection(self, test_table):
        """A keep-alive connection crosses a cold->warm swap undropped."""
        service = DecisionService(LADDER)  # cold start, no table

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                before = await client.decide(make_request())
                assert before.source == SOURCE_FALLBACK
                assert before.reason == REASON_NO_TABLE

                # Swap the table in over the same connection...
                swap = await client.swap_table(make_test_table())
                assert swap["swapped"] is True

                # ...and the very next decision on that connection is warm.
                after = await client.decide(make_request())
                assert after.source == SOURCE_TABLE
                assert after.level_index == test_table.lookup(10.0, 2, 1500.0)

                snap = await client.metrics()
                assert snap["table_swaps_total"] == 1
                assert snap["decisions"]["error"] == 0
                # One connection served the whole sequence.
                assert snap["connections"]["opened"] == 1

        run(with_server(service, inner))

    def test_bad_table_blob_rejected(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                with pytest.raises(ServiceUnavailable):
                    await client.swap_table(b"definitely not a table")
                # The connection (and the old table) survive the rejection.
                response = await client.decide(make_request())
                assert response.source == SOURCE_TABLE

        run(with_server(service, inner))


    def test_table_with_infinite_edge_rejected(self, test_table):
        """A blob whose throughput edge is inf answers 400 "bad table"
        instead of installing a table that answers level 0 to all."""
        blob = bytearray(test_table.to_bytes())
        high_at = len(DecisionTable._MAGIC) + struct.calcsize("<ddIB") + 8
        struct.pack_into("<d", blob, high_at, math.inf)
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                with pytest.raises(ServiceUnavailable, match="400 bad table"):
                    await client.swap_table(bytes(blob))
                response = await client.decide(make_request())
                assert response.source == SOURCE_TABLE
                assert response.level_index == test_table.lookup(10.0, 2, 1500.0)

        run(with_server(service, inner))

    @staticmethod
    def forged_blob(counts, num_runs, keep_full=0):
        """A consistent-looking blob of ``num_runs`` alternating runs."""
        buffer_count, num_levels, throughput_count, end = counts
        blob = b"".join(
            [
                DecisionTable._MAGIC,
                struct.pack("<ddIB", 0.0, 30.0, buffer_count, 0),
                struct.pack("<ddIB", 10.0, 6000.0, throughput_count, 1),
                struct.pack("<IB", num_levels, keep_full),
                struct.pack("<I", num_runs),
            ]
            + [
                struct.pack("<IB", end * (run + 1) // num_runs, run % 2)
                for run in range(num_runs)
            ]
        )
        assert len(blob) == 59 + 5 * num_runs
        return blob

    @pytest.mark.parametrize(
        "counts, max_table_bytes, num_runs",
        [
            ((2_000_000, 1, 1, 1), None, 1),
            ((65535, 1, 65535, 65535 * 65535), None, 1),
            ((1, 3, 350_000, 3 * 350_000), 1 << 20, 1),
            ((1000, 3, 200, 1000 * 3 * 200), 1 << 20, 200_000),
        ],
        ids=[
            "forged-bin-count",
            "huge-one-level-space",
            "bin-count-over-budget",
            "runs-over-budget",
        ],
    )
    def test_forged_table_sizes_rejected(
        self, test_table, counts, max_table_bytes, num_runs
    ):
        """A 64-byte blob is refused by what it holds, not by what its
        header declares: a bin count the runs do not fill, and a space
        of 2^32 - 131071 entries for a one-level ladder.  Neither is
        expanded, so neither can raise MemoryError past the handler.
        Two consistent blobs for the server's own ladder hold more than
        a 1 MiB ``max_table_bytes``: a binning of 350,000 bins declared
        in 64 bytes, and a 1 MB blob of 200,000 alternating runs that
        take about 1.8 MB once parsed.  The budget refuses both before
        building either."""
        blob = self.forged_blob(counts, num_runs)
        config = (
            ServiceConfig()
            if max_table_bytes is None
            else ServiceConfig(max_table_bytes=max_table_bytes)
        )
        service = DecisionService(LADDER, table=test_table, config=config)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                with pytest.raises(ServiceUnavailable, match="400 bad table"):
                    await client.swap_table(blob)
                response = await client.decide(make_request())
                assert response.source == SOURCE_TABLE
                assert response.level_index == test_table.lookup(10.0, 2, 1500.0)

        run(with_server(service, inner))

    def test_keep_full_flag_is_ignored(self, test_table):
        """The header's keep-full byte is ignored: a 64-byte blob of
        4096 x 3 x 1366 entries with the byte set installs under a 1 MiB
        ``max_table_bytes`` and answers from its one run."""
        blob = self.forged_blob((4096, 3, 1366, 4096 * 3 * 1366), 1, keep_full=1)
        assert len(blob) == 64
        config = ServiceConfig(max_table_bytes=1 << 20)
        service = DecisionService(LADDER, table=test_table, config=config)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                swap = await client.swap_table(blob)
                assert swap["swapped"] is True
                response = await client.decide(make_request())
                assert response.source == SOURCE_TABLE
                assert response.level_index == 0
                assert test_table.lookup(10.0, 2, 1500.0) == 2

        run(with_server(service, inner))


class TestConnectionHandling:
    def test_keep_alive_reuses_connection(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                for _ in range(5):
                    await client.decide(make_request())
                snap = await client.metrics()
                assert snap["connections"]["opened"] == 1

        run(with_server(service, inner))

    def test_client_reconnects_after_idle_reap(self, test_table):
        config = ServiceConfig(idle_timeout_s=0.05)
        service = DecisionService(LADDER, table=test_table, config=config)

        async def inner(server):
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                await client.decide(make_request())
                await asyncio.sleep(0.2)  # server reaps the idle connection
                response = await client.decide(make_request())  # re-dials
                assert response.source == SOURCE_TABLE
                snap = await client.metrics()
                assert snap["connections"]["opened"] >= 2
                assert snap["decisions"]["error"] == 0

        run(with_server(service, inner))

    def test_raw_garbage_head_answers_400(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            writer.write(b"this is not http\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n")[0]
            writer.close()
            await writer.wait_closed()

        run(with_server(service, inner))

    def test_concurrent_clients(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def one_client(port, n):
            async with ServiceClient("127.0.0.1", port) as client:
                for _ in range(n):
                    response = await client.decide(make_request())
                    assert response.source == SOURCE_TABLE

        async def inner(server):
            await asyncio.gather(
                *(one_client(server.bound_port, 10) for _ in range(8))
            )
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                snap = await client.metrics()
                assert snap["decisions"]["table"] == 80
                assert snap["decisions"]["error"] == 0

        run(with_server(service, inner))


# ---------------------------------------------------------------------------
# The connection contract: framing, limits, timers, shutdown and backpressure
# as a raw socket sees them.
# ---------------------------------------------------------------------------

#: The head limit: a head (request line and headers) longer than this is
#: answered 400 "headers too large", whether or not its end has arrived.
HEAD_LIMIT = 64 * 1024


def decide_exchange(request: DecisionRequest) -> bytes:
    """The bytes of one keep-alive ``POST /v1/decide`` carrying ``request``."""
    body = request.to_json()
    return (
        b"POST /v1/decide HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


async def read_answer(reader: asyncio.StreamReader) -> tuple:
    """``(status, head, body)`` of the next response on ``reader``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, head, await reader.readexactly(length)


async def settle(predicate, timeout_s: float = 2.0) -> None:
    """Yield to the loop until ``predicate()`` holds (or fail)."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < give_up, "condition never held"
        await asyncio.sleep(0.005)


def without_latency(response: DecisionResponse) -> dict:
    fields = response.to_dict()
    fields.pop("server_latency_us")
    return fields


class TestConnectionContract:
    @pytest.mark.parametrize("terminated", [False, True], ids=["open", "ended"])
    def test_oversized_head_answers_400_then_eof(self, test_table, terminated):
        service = DecisionService(LADDER, table=test_table)
        head = b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"a" * (HEAD_LIMIT + 64)
        if terminated:
            head += b"\r\n\r\n"

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            writer.write(head)
            await writer.drain()
            status, response_head, body = await asyncio.wait_for(
                read_answer(reader), 1.0
            )
            assert status == 400
            assert json.loads(body) == {"error": "headers too large"}
            assert b"Connection: close" in response_head
            assert await asyncio.wait_for(reader.read(), 1.0) == b""
            assert service.metrics.errors_total == 1
            writer.close()
            await writer.wait_closed()

        run(with_server(service, inner))

    def test_short_body_closes_at_request_deadline(self, test_table):
        config = ServiceConfig(request_deadline_s=0.3)
        service = DecisionService(LADDER, table=test_table, config=config)

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            writer.write(
                b"POST /v1/decide HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                + b'{"session_id":'
            )
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            assert 0.25 <= loop.time() - started < 1.5
            await settle(lambda: service.metrics.connections_active == 0)
            assert service.metrics.errors_total == 1
            assert service.metrics.connections_reset == 0
            writer.close()
            await writer.wait_closed()

        run(with_server(service, inner))

    def test_reset_between_head_and_body_is_counted(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            writer.write(b"POST /v1/decide HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
            await writer.drain()
            await settle(lambda: service.metrics.connections_opened == 1)
            await asyncio.sleep(0.05)  # the head is parsed; the body is due
            writer.transport.abort()
            await settle(lambda: service.metrics.connections_active == 0)
            assert service.metrics.connections_reset == 1
            assert service.metrics.errors_total == 1

        run(with_server(service, inner))

    def test_split_and_pipelined_requests_answer_in_order(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        requests = [make_request(session_id=f"s{i}") for i in range(4)]
        expected = [
            without_latency(DecisionService(LADDER, table=test_table).decide(r))
            for r in requests
        ]

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            for byte in decide_exchange(requests[0]):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0.001)
            writer.write(b"".join(decide_exchange(r) for r in requests[1:]))
            await writer.drain()
            answers = []
            for _ in requests:
                status, _, body = await asyncio.wait_for(read_answer(reader), 2.0)
                assert status == 200
                answers.append(without_latency(DecisionResponse.from_json(body)))
            assert answers == expected
            writer.close()
            await writer.wait_closed()

        run(with_server(service, inner))

    def test_shutdown_closes_idle_and_half_sent_connections(self, test_table):
        service = DecisionService(LADDER, table=test_table)

        async def main():
            server = DecisionServer(service, port=0)
            await server.start()
            idle_reader, idle_writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            idle_writer.write(decide_exchange(make_request()))
            status, _, _ = await read_answer(idle_reader)
            assert status == 200
            half_reader, half_writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            half_writer.write(
                b"POST /v1/decide HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"
            )
            await half_writer.drain()
            await settle(lambda: service.metrics.connections_opened == 2)
            await asyncio.sleep(0.05)
            await server.close()
            assert service.metrics.connections_active == 0
            for reader in (idle_reader, half_reader):
                assert await asyncio.wait_for(reader.read(), 1.0) == b""
            assert service.metrics.connections_reset == 0
            assert service.metrics.errors_total == 0
            for writer in (idle_writer, half_writer):
                writer.close()
                await writer.wait_closed()

        run(main())

    def test_slow_chaos_holds_only_its_own_connection(self, test_table):
        service = DecisionService(LADDER, table=test_table)
        chaos = ChaosPolicy(ChaosConfig(slow_rate=1.0, slow_delay_s=0.3))

        async def one(port, delay_s, started):
            await asyncio.sleep(delay_s)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(decide_exchange(make_request()))
            await writer.drain()
            status, _, _ = await read_answer(reader)
            answered = asyncio.get_running_loop().time() - started
            writer.close()
            await writer.wait_closed()
            assert status == 200
            return answered

        async def main():
            server = DecisionServer(service, port=0, chaos=chaos)
            await server.start()
            try:
                started = asyncio.get_running_loop().time()
                return await asyncio.gather(
                    one(server.bound_port, 0.0, started),
                    one(server.bound_port, 0.05, started),
                )
            finally:
                await server.close()

        first, second = run(main())
        assert 0.29 <= first < 0.5
        # Held one after the other, the second answer would come at 0.6 s.
        assert 0.34 <= second < 0.55


def framed_decide(*fields: bytes) -> bytes:
    """A ``POST /v1/decide`` of one request body under the given framing
    header lines; ``%d`` in a line becomes the body's length."""
    body = make_request().to_json()
    lines = b"".join(
        (field % len(body) if b"%d" in field else field) + b"\r\n" for field in fields
    )
    return (
        b"POST /v1/decide HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n" + lines + b"\r\n" + body
    )


class TestStrictFraming:
    """A head whose body length a front end could read differently is
    refused and its connection closed, never framed by a guess
    (RFC 9112 §6)."""

    @pytest.mark.parametrize(
        "fields,status,error",
        [
            ([b"Content-Length: +%d"], 400, "bad content-length"),
            ([b"Content-Length: 0_%d"], 400, "bad content-length"),
            ([b"Content-Length: 3", b"Content-Length: %d"], 400, "bad content-length"),
            ([b"Content-Length: \x0b%d"], 400, "bad content-length"),
            ([b"Content-Length: %d\xa0"], 400, "bad content-length"),
            ([b"Content-Length: " + b"1" * 5000], 400, "bad content-length"),
            ([b"Content-Length : %d"], 400, "malformed request"),
            ([b"X-Note: a", b" Content-Length: %d"], 400, "malformed request"),
            (
                [b"Transfer-Encoding: chunked", b"Content-Length: %d"],
                501,
                "transfer-encoding not supported",
            ),
            ([b"Transfer-Encoding: chunked"], 501, "transfer-encoding not supported"),
        ],
        ids=[
            "plus-sign",
            "underscore",
            "differing-lengths",
            "vertical-tab",
            "no-break-space",
            "5000-digits",
            "space-before-colon",
            "folded-line",
            "te-and-length",
            "te",
        ],
    )
    def test_refused_head_answers_then_closes(self, test_table, fields, status, error):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            writer.write(framed_decide(*fields))
            await writer.drain()
            got, head, body = await asyncio.wait_for(read_answer(reader), 1.0)
            assert (got, json.loads(body)) == (status, {"error": error})
            assert b"Connection: close" in head
            assert await asyncio.wait_for(reader.read(), 1.0) == b""
            writer.close()
            await writer.wait_closed()
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                snap = await client.metrics()
            assert snap["decisions"]["error"] == 1

        run(with_server(service, inner))

    @pytest.mark.parametrize(
        "fields",
        [
            [b"Content-Length:  %d  "],
            [b"Content-Length: %d", b"Content-Length: %d"],
        ],
        ids=["whitespace", "equal-duplicates"],
    )
    def test_unambiguous_length_is_answered(self, test_table, fields):
        service = DecisionService(LADDER, table=test_table)

        async def inner(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            writer.write(framed_decide(*fields))
            await writer.drain()
            status, head, body = await asyncio.wait_for(read_answer(reader), 1.0)
            assert status == 200
            assert b"Connection: keep-alive" in head
            assert DecisionResponse.from_json(body).source == SOURCE_TABLE
            writer.close()
            await writer.wait_closed()
            assert service.metrics.errors_total == 0

        run(with_server(service, inner))


def _fuzzed_heads():
    """Request heads from valid parts, mangled parts and raw bytes."""
    request_line = st.one_of(
        st.sampled_from(
            [
                b"GET /metrics HTTP/1.1",
                b"GET /healthz?x=1 HTTP/1.0",
                b"POST /v1/decide HTTP/1.1",
                b"POST /v1/table HTTP/1.1",
                b"POST /v1/experiment HTTP/1.1",
                b"DELETE /nope HTTP/1.1",
                b"GET / HTTP/2",
                b"GET /metrics",
            ]
        ),
        st.binary(max_size=40),
    )
    value = st.one_of(
        st.integers(-3, 400).map(lambda n: str(n).encode()),
        st.sampled_from([b"close", b"keep-alive", b"application/x-abr-frame"]),
        st.binary(max_size=20),
    )
    header = st.one_of(
        st.tuples(
            st.sampled_from(
                [b"Content-Length", b"content-length", b"Connection", b"Content-Type"]
            ),
            value,
        ).map(lambda pair: pair[0] + b": " + pair[1]),
        st.binary(max_size=30),
    )
    return st.tuples(
        request_line, st.lists(header, max_size=5), st.binary(max_size=120)
    ).map(lambda parts: b"\r\n".join([parts[0], *parts[1]]) + b"\r\n\r\n" + parts[2])


async def _fuzz_one(port: int, blob: bytes, cuts) -> bytes:
    """Write ``blob`` split at ``cuts``, half-close, and read to the end.

    Returns what the server sent.  A reset is accepted only after an
    answer: a server that answers 400 and closes resets a client that is
    still writing, and the kernel hands over the answer before the reset.
    """
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setblocking(False)
    try:
        await loop.sock_connect(sock, ("127.0.0.1", port))
        bounds = sorted({min(cut, len(blob)) for cut in cuts} | {0, len(blob)})
        try:
            for start, end in zip(bounds, bounds[1:]):
                await loop.sock_sendall(sock, blob[start:end])
                await asyncio.sleep(0.001)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server closed first; read what it sent
        received = b""
        try:
            while True:
                chunk = await loop.sock_recv(sock, 65536)
                if not chunk:
                    return received
                received += chunk
        except ConnectionResetError:
            assert received.startswith(b"HTTP/1.1 "), received
            return received
    finally:
        sock.close()


class TestHeadFuzz:
    @seed(20240522)
    @settings(max_examples=40, deadline=None)
    @given(blob=_fuzzed_heads(), cuts=st.lists(st.integers(0, 400), max_size=6))
    def test_every_connection_answers_or_closes(self, blob, cuts):
        config = ServiceConfig(request_deadline_s=0.3, idle_timeout_s=1.0)
        service = DecisionService(LADDER, table=make_test_table(), config=config)

        async def inner(server):
            received = await asyncio.wait_for(
                _fuzz_one(server.bound_port, blob, cuts), 2.0
            )
            assert received == b"" or received.startswith(b"HTTP/1.1 ")
            async with ServiceClient("127.0.0.1", server.bound_port) as client:
                assert (await client.health())["status"] == "ok"

        run(with_server(service, inner))


class TestBackpressure:
    def test_never_reading_client_is_bounded(self, test_table):
        """A client that pipelines 20 MB of ``GET /metrics`` and never
        reads makes the server stop reading, not buffer its answers."""
        service = DecisionService(LADDER, table=test_table)
        chunk = b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" * 1000
        total = 20 * 1024 * 1024
        sent = [0]
        stop = threading.Event()

        def flood(port):
            with socket.socket() as sock:
                # Small kernel buffers: the server meets backpressure after
                # a few hundred answers rather than after megabytes.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
                sock.connect(("127.0.0.1", port))
                sock.settimeout(0.1)
                while sent[0] < total and not stop.is_set():
                    try:
                        sent[0] += sock.send(chunk)
                    except socket.timeout:
                        continue
                    except OSError:
                        return
                stop.wait(5.0)

        async def inner(server):
            tracemalloc.start()
            try:
                thread = threading.Thread(
                    target=flood, args=(server.bound_port,), daemon=True
                )
                thread.start()
                last = -1
                while sent[0] != last and sent[0] < total:
                    last = sent[0]
                    await asyncio.sleep(0.3)  # until the flood stalls
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                stop.set()
            await asyncio.get_running_loop().run_in_executor(None, thread.join, 5.0)
            assert not thread.is_alive()
            assert sent[0] < total  # the server stopped reading
            assert peak < 4 * 1024 * 1024, peak

        run(with_server(service, inner))
