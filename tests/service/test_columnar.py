"""Frames answered by column: parity with per-request ``decide``.

A frame of ``VECTOR_MIN_BATCH`` or more records travels from decode to
encode as columns (:class:`RequestBatch` in, :class:`ResponseBatch`
out).  The bar here is that nothing observable changes:

* every row's answer equals what :meth:`DecisionService.decide` answers
  for that request alone, over a warm table, a cold service, a lookup
  budget overrun and an experiment with controller arms;
* with a frozen clock the ``/metrics`` documents agree as well;
* a :class:`ResponseBatch` encodes to the bytes its answers encode to
  as a list, and a decoded :class:`RequestBatch` yields the requests
  its frame was encoded from;
* a non-finite past error degrades its request ``malformed`` wherever
  it sits in the window, in JSON and in binary, alone or in a batch.
"""

from __future__ import annotations

import asyncio
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import (
    CONTROLLER_TABLE,
    DecisionServer,
    DecisionService,
    ExperimentArm,
    ExperimentConfig,
    ServiceClient,
)
from repro.service.metrics import MAX_SESSIONS_SEEN, ServiceMetrics
from repro.service.protocol import (
    DecisionRequest,
    DecisionResponse,
    ProtocolError,
    RequestBatch,
    ResponseBatch,
    decode_request_batch,
    decode_response_batch,
    encode_request_batch,
    encode_response_batch,
)
from repro.service.server import VECTOR_MIN_BATCH

from .conftest import LADDER, make_test_table

NAN, INF = float("nan"), float("inf")

EXPERIMENT = ExperimentConfig(
    arms=(
        ExperimentArm("control", CONTROLLER_TABLE),
        ExperimentArm("bola", "bola"),
        ExperimentArm("bb", "bb"),
    ),
    salt="columnar-parity",
)


def frozen_clock() -> float:
    return 0.0


class SteppingClock:
    """Each reading is one second after the previous: every lookup and
    every controller decision overruns the 5 ms budget."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _service(scenario: str) -> DecisionService:
    if scenario == "warm":
        return DecisionService(LADDER, table=make_test_table(), clock=frozen_clock)
    if scenario == "cold":
        return DecisionService(LADDER, clock=frozen_clock)
    if scenario == "over-budget":
        return DecisionService(LADDER, table=make_test_table(), clock=SteppingClock())
    assert scenario == "experiment"
    return DecisionService(
        LADDER, table=make_test_table(), clock=frozen_clock, experiment=EXPERIMENT
    )


SCENARIOS = ["warm", "cold", "over-budget", "experiment"]

_ERRORS = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([NAN, INF, -INF]),
)


@st.composite
def _requests(draw, nan_buffers: bool):
    """64-300 requests mixing valid rows, previous levels beyond the
    ladder, NaN buffers (when allowed), non-finite past errors and
    empty error windows; session ids repeat."""
    count = draw(st.integers(VECTOR_MIN_BATCH, 300))
    buffers = st.floats(0.0, 40.0, allow_nan=False)
    if nan_buffers:
        buffers = st.one_of(buffers, st.just(NAN))
    record = st.builds(
        DecisionRequest,
        session_id=st.sampled_from([f"s{i}" for i in range(24)]),
        buffer_s=buffers,
        predicted_kbps=st.floats(50.0, 5000.0),
        prev_level=st.one_of(st.none(), st.integers(0, len(LADDER) + 2)),
        past_errors=st.one_of(
            st.just(()), st.lists(_ERRORS, min_size=1, max_size=6).map(tuple)
        ),
    )
    return draw(st.lists(record, min_size=count, max_size=count))


def _fields(response: DecisionResponse) -> tuple:
    return (
        response.session_id,
        response.level_index,
        response.bitrate_kbps,
        response.source,
        response.degraded,
        response.reason,
        response.arm,
    )


def _same_floats(a, b) -> bool:
    return len(a) == len(b) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b)
    )


def _metrics(service: DecisionService) -> dict:
    document = service.metrics_document()
    document.pop("batch_occupancy")  # decide() records no batch
    return document


def _check_parity(scenario: str, requests, batch) -> None:
    batched, scalar = _service(scenario), _service(scenario)
    answers = batched.decide_batch(batch)
    assert isinstance(answers, ResponseBatch)
    expected = [scalar.decide(r) for r in requests]
    assert [_fields(a) for a in answers] == [_fields(e) for e in expected]
    if scenario != "over-budget":  # a frozen clock: latencies agree too
        assert _metrics(batched) == _metrics(scalar)
    assert batched.metrics.batch_occupancy == {str(len(requests)): 1}
    assert encode_response_batch(answers) == encode_response_batch(list(answers))


class TestColumnarParity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(requests=_requests(nan_buffers=False))
    def test_frame(self, scenario, requests):
        frame = encode_request_batch(requests)
        batch = decode_request_batch(frame)
        assert isinstance(batch, RequestBatch)
        decoded = list(batch)
        assert len(decoded) == len(requests)
        for got, want in zip(decoded, requests):
            assert (got.session_id, got.buffer_s, got.predicted_kbps) == (
                want.session_id, want.buffer_s, want.predicted_kbps
            )
            assert (got.prev_level, got.family) == (want.prev_level, want.family)
            assert _same_floats(got.past_errors, want.past_errors)
        _check_parity(scenario, requests, batch)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(requests=_requests(nan_buffers=True))
    def test_request_list(self, scenario, requests):
        """Lists go through RequestBatch.of, NaN buffers included (a
        frame cannot carry one: decoding refuses it)."""
        _check_parity(scenario, requests, requests)

    def test_families_fold_the_shared_prior_in_request_order(self):
        requests = [
            DecisionRequest(
                f"s{i}", 5.0, 300.0 + 40 * i, 1, family=("fcc", "hsdpa")[i % 2]
            )
            for i in range(VECTOR_MIN_BATCH)
        ]
        batched = DecisionService(LADDER, table=make_test_table(), clock=frozen_clock)
        scalar = DecisionService(LADDER, table=make_test_table(), clock=frozen_clock)
        answers = list(batched.decide_batch(requests))
        expected = [scalar.decide(r) for r in requests]
        assert [a.prior_kbps for a in answers] == [e.prior_kbps for e in expected]
        assert answers[2].prior_kbps is not None
        assert _metrics(batched) == _metrics(scalar)

    def test_a_batch_with_no_table_row(self):
        """Every row on a controller arm: the table path records nothing."""
        sid = next(
            f"c{i}" for i in range(1000) if EXPERIMENT.assign(f"c{i}").name == "bola"
        )
        requests = [DecisionRequest(sid, 4.0, 900.0, 1)] * VECTOR_MIN_BATCH
        _check_parity("experiment", requests, requests)

    def test_small_batches_keep_the_scalar_path(self):
        service = DecisionService(LADDER, table=make_test_table())
        requests = [DecisionRequest(f"s{i}", 5.0, 900.0) for i in range(3)]
        answers = service.decide_batch(requests)
        assert isinstance(answers, tuple)
        assert all(isinstance(a, DecisionResponse) for a in answers)


class TestBatchSequences:
    def test_request_batch_indexing(self):
        requests = [
            DecisionRequest("a", 1.0, 100.0),
            DecisionRequest("b", 2.0, 200.0, prev_level=2, past_errors=(0.5, NAN)),
            DecisionRequest("c", 3.0, 300.0, prev_level=0, past_errors=(-0.25,)),
        ]
        batch = decode_request_batch(encode_request_batch(requests))
        assert len(batch) == 3
        assert batch[-1] == requests[-1]
        assert batch[0] == requests[0]
        assert [r.session_id for r in batch[1:]] == ["b", "c"]
        assert _same_floats(batch[1].past_errors, (0.5, NAN))
        with pytest.raises(IndexError):
            batch[3]
        assert RequestBatch.of(batch) is batch
        assert list(RequestBatch.of(requests))[2] == requests[2]

    def test_response_batch_of_a_list_encodes_alike(self):
        responses = [
            DecisionResponse("a", 1, 800.0, "table", server_latency_us=2.5),
            DecisionResponse("b", 0, 400.0, "fallback", True, "odd-reason"),
        ]
        batch = ResponseBatch.of(responses)
        assert list(batch) == responses
        assert ResponseBatch.of(batch) is batch
        assert list(decode_response_batch(encode_response_batch(batch))) == responses


def _forged(requests, at: int, fmt: str, value) -> bytes:
    """The frame of ``requests`` with one field of its first record
    overwritten (header 6 bytes, then the session id's length byte)."""
    frame = bytearray(encode_request_batch(requests))
    struct.pack_into(fmt, frame, 6 + 1 + len(requests[0].session_id) + at, value)
    return bytes(frame)


class TestDecodeValidation:
    """Every record rule holds for the columnar decode, at any position."""

    REQUESTS = [DecisionRequest("s", 1.0, 100.0, past_errors=(0.1,))] * 3

    @pytest.mark.parametrize(
        "at, fmt, value",
        [
            (0, "<d", -1.0),  # negative buffer
            (0, "<d", INF),
            (0, "<d", NAN),
            (8, "<d", -INF),
            (16, "<h", -2),  # previous level below "none"
            (18, "<B", 65),  # error window longer than allowed
            (18, "<B", 2),  # window longer than the bytes that follow
        ],
    )
    def test_forged_record_is_refused(self, at, fmt, value):
        with pytest.raises(ProtocolError):
            decode_request_batch(_forged(self.REQUESTS, at, fmt, value))

    def test_empty_session_id(self):
        frame = bytearray(encode_request_batch(self.REQUESTS))
        frame[6] = 0  # a zero-length id: the id byte becomes trailing junk
        with pytest.raises(ProtocolError):
            decode_request_batch(bytes(frame))

    def test_invalid_utf8_session_id(self):
        frame = bytearray(encode_request_batch(self.REQUESTS))
        frame[7] = 0xFF
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_request_batch(bytes(frame))

    def test_truncated_last_window(self):
        frame = encode_request_batch(self.REQUESTS)
        with pytest.raises(ProtocolError, match="truncated"):
            decode_request_batch(frame[:-3])


class TestRecordDecisions:
    def test_bulk_equals_one_record_per_row_across_the_session_cap(self):
        bulk, single = ServiceMetrics(), ServiceMetrics()
        for metrics in (bulk, single):
            for i in range(MAX_SESSIONS_SEEN - 10):
                metrics.record_decision("table", 1.0, False, None, f"p{i}")
        rows = 64
        session_ids = [f"n{i % 40}" for i in range(rows)]  # 40 new ids
        reasons = [None, "malformed", None, "over-budget"] * (rows // 4)
        sources = ["table" if r is None else "fallback" for r in reasons]
        arms = ["a", None] * (rows // 2)
        bulk.record_decisions(session_ids, sources, reasons, arms, 120.0)
        for sid, source, reason, arm in zip(session_ids, sources, reasons, arms):
            single.record_decision(source, 120.0, reason is not None, reason, sid, arm)
        assert bulk.snapshot() == single.snapshot()
        assert bulk.sessions_seen == MAX_SESSIONS_SEEN


def _window_requests(errors, size: int) -> list:
    """``size`` healthy requests, with ``errors`` as the window of the
    middle one."""
    requests = [
        DecisionRequest(f"s{i}", 12.0, 1500.0, 1, past_errors=(0.1, -0.2))
        for i in range(size)
    ]
    middle = size // 2
    requests[middle] = DecisionRequest("bad", 12.0, 1500.0, 1, past_errors=errors)
    return requests


BAD_WINDOWS = [(NAN, 0.1), (0.1, NAN), (INF,), (0.1, -INF), (-INF, 0.1)]


class TestNonFinitePastErrors:
    """One outcome for a non-finite past error, wherever it sits."""

    @pytest.mark.parametrize("errors", BAD_WINDOWS)
    @pytest.mark.parametrize("size", [1, VECTOR_MIN_BATCH])
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_degrades_only_that_request(self, errors, size, encoding):
        requests = _window_requests(errors, size)
        if encoding == "json":
            decoded = [DecisionRequest.from_json(r.to_json()) for r in requests]
        else:
            decoded = decode_request_batch(encode_request_batch(requests))
        service = DecisionService(LADDER, table=make_test_table(), clock=frozen_clock)
        answers = service.decide_batch(decoded)
        for i, answer in enumerate(answers):
            if i == size // 2:
                assert (answer.source, answer.degraded, answer.reason) == (
                    "fallback", True, "malformed"
                )
                # The rate-based rule over the prediction, as for any
                # malformed request.
                assert answer.level_index == service.ladder.highest_at_most(1500.0)
            else:
                assert answer.source == "table" and not answer.degraded

    def test_over_a_live_server_in_both_encodings(self):
        requests = _window_requests((0.1, NAN), VECTOR_MIN_BATCH)

        async def inner():
            # A frozen clock: a slow host cannot push the frame over budget.
            service = DecisionService(
                LADDER, table=make_test_table(), clock=frozen_clock
            )
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                async with ServiceClient("127.0.0.1", server.bound_port) as c:
                    single = await c.decide(requests[VECTOR_MIN_BATCH // 2])
                async with ServiceClient(
                    "127.0.0.1", server.bound_port, protocol="binary"
                ) as c:
                    frame = await c.decide_many(requests)
                return single, frame, service.metrics.snapshot()
            finally:
                await server.close()

        single, frame, snap = asyncio.run(inner())
        assert single.reason == "malformed"
        assert [r.reason for r in frame].count("malformed") == 1
        assert frame[VECTOR_MIN_BATCH // 2].reason == "malformed"
        assert snap["fallback_reasons"] == {"malformed": 2}
        assert snap["protocol_requests"] == {"json": 1, "binary": 1}
