"""End-to-end HTTP tests: a live asyncio server driven by the client."""

from __future__ import annotations

import asyncio
import json
import math
import struct

import pytest

from repro.service import (
    DecisionRequest,
    DecisionServer,
    DecisionService,
    ServiceClient,
    ServiceConfig,
)
from repro.core.table import DecisionTable
from repro.service.client import ServiceUnavailable
from repro.service.protocol import SOURCE_FALLBACK, SOURCE_TABLE
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

    @pytest.mark.parametrize(
        "counts, keep_full, max_table_bytes",
        [
            ((2_000_000, 1, 1, 1), 0, None),
            ((65535, 1, 65535, 65535 * 65535), 0, None),
            ((4096, 3, 1366, 4096 * 3 * 1366), 1, 1 << 20),
            ((1, 3, 350_000, 3 * 350_000), 0, 1 << 20),
        ],
        ids=[
            "forged-bin-count",
            "huge-one-level-space",
            "keep-full-over-budget",
            "bin-count-over-budget",
        ],
    )
    def test_forged_table_sizes_rejected(
        self, test_table, counts, keep_full, max_table_bytes
    ):
        """A 64-byte blob is refused by what it holds, not by what its
        header declares: a bin count the runs do not fill, and a space
        of 2^32 - 131071 entries for a one-level ladder.  Neither is
        expanded, so neither can raise MemoryError past the handler.
        Two consistent blobs for the server's own ladder declare about
        16 MiB against a 1 MiB ``max_table_bytes``: a full vector of
        16 Mi entries, and a binning of 350,000 bins.  The budget
        refuses both before building either."""
        buffer_count, num_levels, throughput_count, end = counts
        blob = b"".join(
            [
                DecisionTable._MAGIC,
                struct.pack("<ddIB", 0.0, 30.0, buffer_count, 0),
                struct.pack("<ddIB", 10.0, 6000.0, throughput_count, 1),
                struct.pack("<IB", num_levels, keep_full),
                struct.pack("<I", 1),
                struct.pack("<IB", end, 0),
            ]
        )
        assert len(blob) == 64
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
