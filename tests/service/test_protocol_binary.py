"""Binary wire frames — round-trip and JSON-parity property tests.

The compact encoding is only allowed to differ from JSON in one
documented way: ``server_latency_us`` travels at full f64 precision
where ``to_json`` rounds it to 3 decimals.  Every other field must
survive encode→decode bit for bit, for any frame the dataclasses can
express — including degraded fallback responses, reason strings outside
the closed code set, NaN/inf ``past_errors``, and multi-record frames.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    MAX_BATCH_RECORDS,
    DecisionRequest,
    DecisionResponse,
    ProtocolError,
    decode_request_batch,
    decode_response_batch,
    encode_request_batch,
    encode_response_batch,
)

_SIDS = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=60,
)

_ERROR_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]),
)

_REQUESTS = st.builds(
    DecisionRequest,
    session_id=_SIDS,
    buffer_s=st.floats(0.0, 1e9),
    predicted_kbps=st.floats(
        min_value=1e-9, max_value=1e12, exclude_min=True
    ),
    prev_level=st.one_of(st.none(), st.integers(0, 32767)),
    past_errors=st.lists(_ERROR_VALUES, max_size=8).map(tuple),
)

_RESPONSES = st.builds(
    DecisionResponse,
    session_id=_SIDS,
    level_index=st.integers(0, 65535),
    bitrate_kbps=st.floats(0.0, 1e9),
    source=st.sampled_from(["table", "fallback"]),
    degraded=st.booleans(),
    reason=st.one_of(
        st.none(),
        st.sampled_from(["no-table", "malformed", "over-budget"]),
        st.text(min_size=1, max_size=40),  # outside the code set
    ),
    server_latency_us=st.floats(0.0, 1e12),
)


def _floats_equal(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestRequestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(request=_REQUESTS)
    def test_single(self, request):
        decoded = DecisionRequest.from_binary(request.to_binary())
        assert decoded.session_id == request.session_id
        assert decoded.buffer_s == request.buffer_s
        assert decoded.predicted_kbps == request.predicted_kbps
        assert decoded.prev_level == request.prev_level
        assert len(decoded.past_errors) == len(request.past_errors)
        for got, want in zip(decoded.past_errors, request.past_errors):
            assert _floats_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(requests=st.lists(_REQUESTS, min_size=1, max_size=10))
    def test_batch(self, requests):
        decoded = decode_request_batch(encode_request_batch(requests))
        assert len(decoded) == len(requests)
        for got, want in zip(decoded, requests):
            assert got.session_id == want.session_id
            assert got.prev_level == want.prev_level

    @settings(max_examples=100, deadline=None)
    @given(request=_REQUESTS)
    def test_json_parity(self, request):
        """Both encodings reconstruct the same request."""
        via_json = DecisionRequest.from_json(request.to_json())
        via_binary = DecisionRequest.from_binary(request.to_binary())
        assert via_json.session_id == via_binary.session_id
        assert via_json.buffer_s == via_binary.buffer_s
        assert via_json.predicted_kbps == via_binary.predicted_kbps
        assert via_json.prev_level == via_binary.prev_level
        for a, b in zip(via_json.past_errors, via_binary.past_errors):
            assert _floats_equal(a, b)


class TestResponseRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(response=_RESPONSES)
    def test_single(self, response):
        decoded = DecisionResponse.from_binary(response.to_binary())
        assert decoded == response  # f64 latency travels losslessly

    @settings(max_examples=50, deadline=None)
    @given(responses=st.lists(_RESPONSES, min_size=1, max_size=10))
    def test_batch(self, responses):
        decoded = decode_response_batch(encode_response_batch(responses))
        assert list(decoded) == list(responses)

    @settings(max_examples=100, deadline=None)
    @given(response=_RESPONSES)
    def test_json_parity_except_latency_rounding(self, response):
        via_json = DecisionResponse.from_json(response.to_json())
        via_binary = DecisionResponse.from_binary(response.to_binary())
        assert via_json.session_id == via_binary.session_id
        assert via_json.level_index == via_binary.level_index
        assert via_json.bitrate_kbps == via_binary.bitrate_kbps
        assert via_json.source == via_binary.source
        assert via_json.degraded == via_binary.degraded
        assert via_json.reason == via_binary.reason
        # The one documented difference: JSON rounds to 3 decimals.
        assert via_json.server_latency_us == pytest.approx(
            via_binary.server_latency_us, abs=5e-4
        )
        assert via_binary.server_latency_us == response.server_latency_us

    def test_degraded_fallback_shapes(self):
        for reason in ("no-table", "malformed", "over-budget", "weird-new-one"):
            response = DecisionResponse(
                session_id="s",
                level_index=0,
                bitrate_kbps=300.0,
                source="fallback",
                degraded=True,
                reason=reason,
                server_latency_us=17.25,
            )
            assert DecisionResponse.from_binary(response.to_binary()) == response


class TestFrameValidation:
    def test_bad_magic(self):
        frame = bytearray(DecisionRequest("s", 1.0, 100.0).to_binary())
        frame[0:2] = b"ZZ"
        with pytest.raises(ProtocolError):
            decode_request_batch(bytes(frame))

    def test_request_frame_is_not_a_response(self):
        frame = DecisionRequest("s", 1.0, 100.0).to_binary()
        with pytest.raises(ProtocolError):
            decode_response_batch(frame)

    def test_truncated(self):
        frame = DecisionRequest("session", 1.0, 100.0).to_binary()
        with pytest.raises(ProtocolError):
            decode_request_batch(frame[: len(frame) - 3])

    def test_trailing_bytes(self):
        frame = DecisionRequest("s", 1.0, 100.0).to_binary()
        with pytest.raises(ProtocolError):
            decode_request_batch(frame + b"\x00")

    def test_zero_records(self):
        with pytest.raises(ProtocolError):
            encode_request_batch(())
        header = struct.pack("<2sBBH", b"DQ", 1, 0, 0)
        with pytest.raises(ProtocolError):
            decode_request_batch(header)

    def test_too_many_records(self):
        requests = [DecisionRequest("s", 1.0, 100.0)] * (MAX_BATCH_RECORDS + 1)
        with pytest.raises(ProtocolError):
            encode_request_batch(requests)

    def test_nonzero_flags_rejected(self):
        frame = bytearray(DecisionRequest("s", 1.0, 100.0).to_binary())
        frame[3] = 1
        with pytest.raises(ProtocolError):
            decode_request_batch(bytes(frame))

    def test_decoded_requests_are_validated(self):
        # A hand-forged frame with predicted_kbps = 0 must be rejected
        # exactly like the JSON path rejects it.
        good = DecisionRequest("s", 1.0, 100.0).to_binary()
        forged = bytearray(good)
        # request record layout after header(6) + sid_len(1) + sid(1):
        # f64 buffer, f64 predicted
        struct.pack_into("<d", forged, 6 + 2 + 8, 0.0)
        with pytest.raises(ProtocolError):
            decode_request_batch(bytes(forged))

    def test_multi_record_from_binary_rejected(self):
        frame = encode_request_batch(
            [DecisionRequest("a", 1.0, 100.0), DecisionRequest("b", 2.0, 200.0)]
        )
        with pytest.raises(ProtocolError):
            DecisionRequest.from_binary(frame)


def _armed_frame():
    """Three answers: a table answer, a fallback with a reason string
    outside the code set, and a controller answer; two carry arms."""
    return encode_response_batch(
        [
            DecisionResponse("alpha", 3, 1000.0, "table", server_latency_us=2.5,
                             arm="bola"),
            DecisionResponse("beta", 0, 350.0, "fallback", True, "weird-new-one",
                             9.0),
            DecisionResponse("c", 2, 600.0, "controller", True, "over-budget", 1.0,
                             arm="ctl"),
        ]
    )


# Offsets in _armed_frame(): a 6-byte header, then "alpha" (1 + 5 bytes),
# the 21-byte fixed part (u16 level, f64 rate, u8 source, u8 degraded,
# u8 reason, f64 latency) and the arm "bola" (1 + 4 bytes).
_FIRST_FIXED = 6 + 1 + 5
_SECOND_RECORD = _FIRST_FIXED + 21 + 1 + 4


class TestResponseFrameRefusals:
    """Each way a response frame can be malformed keeps its message."""

    @pytest.mark.parametrize(
        "cut,message",
        [
            (4, "truncated response frame header"),
            (6, "truncated frame while reading session_id"),
            (9, "truncated frame while reading session_id"),
            (_FIRST_FIXED + 20, "truncated response frame"),
            (_FIRST_FIXED + 21, "truncated frame while reading arm"),
            (_FIRST_FIXED + 23, "truncated frame while reading arm"),
            (_SECOND_RECORD + 5 + 21 + 3, "truncated frame while reading reason"),
        ],
    )
    def test_truncated(self, cut, message):
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            decode_response_batch(_armed_frame()[:cut])

    @pytest.mark.parametrize(
        "at,value,message",
        [
            (7, 0xFF, "session_id is not valid UTF-8"),
            (_FIRST_FIXED + 10, 3, "unknown decision source code 3"),
            (_FIRST_FIXED + 12, 4, "unknown reason code 4"),
            (_FIRST_FIXED + 22, 0xFF, "arm is not valid UTF-8"),
            (_SECOND_RECORD + 5 + 22, 0xFF, "reason is not valid UTF-8"),
        ],
    )
    def test_forged_byte(self, at, value, message):
        frame = bytearray(_armed_frame())
        frame[at] = value
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            decode_response_batch(bytes(frame))

    def test_trailing_bytes(self):
        with pytest.raises(
            ProtocolError, match=r"^2 trailing bytes after 3 response record\(s\)$"
        ):
            decode_response_batch(_armed_frame() + b"\0\0")

    def test_decodes_to_columns(self):
        batch = decode_response_batch(_armed_frame())
        assert batch.arms == ["bola", None, "ctl"]
        assert batch.reasons == [None, "weird-new-one", "over-budget"]
        assert batch.degraded == [False, True, True]
        assert batch.priors_kbps == [None, None, None]
        assert batch[1] == DecisionResponse(
            "beta", 0, 350.0, "fallback", True, "weird-new-one", 9.0
        )
