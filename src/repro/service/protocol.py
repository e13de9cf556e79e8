"""Wire format of the decision service.

One request per bitrate decision over HTTP, in one of two on-the-wire
encodings.  The request carries exactly the state FastMPC's table is
keyed on — the Section 3.3 inputs ``(B_k, R_{k-1}, C_hat)`` — plus the
recent prediction errors RobustMPC needs for its ``C_hat / (1 + err)``
lower bound, and a ``session_id`` so the server can attribute decisions
and per-session counters without holding player state.

**JSON** (the default) is the debuggable, curl-able encoding.  **Binary**
is the opt-in fast path: struct-packed little-endian frames that a client
selects per connection simply by POSTing with the binary content type
(:data:`CONTENT_TYPE_BINARY`), and the server answers in kind — no
separate handshake round-trip.  Binary frames natively carry *batches*
(a record count then that many records), which is what lets a batching
client amortise a whole HTTP exchange over many decisions.  Field-level
semantics are identical in both encodings; the only intended difference
is that binary carries ``server_latency_us`` at full float64 precision
where JSON rounds it to 3 decimals.

Responses always come back well-formed: when the server cannot serve a
table decision (missing table, malformed request, lookup over budget) it
answers with the rate-based fallback and sets ``degraded`` — clients
never see a hard error for a recoverable condition.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "DecisionRequest",
    "DecisionResponse",
    "SOURCE_TABLE",
    "SOURCE_FALLBACK",
    "SOURCE_CONTROLLER",
    "CONTENT_TYPE_JSON",
    "CONTENT_TYPE_BINARY",
    "MAX_BATCH_RECORDS",
    "RequestBatch",
    "ResponseBatch",
    "encode_request_batch",
    "decode_request_batch",
    "encode_response_batch",
    "decode_response_batch",
]

PROTOCOL_VERSION = 1

#: HTTP content types selecting the wire encoding, per connection.
CONTENT_TYPE_JSON = "application/json"
CONTENT_TYPE_BINARY = "application/x-repro-decision"

#: Decision provenance values carried in every response.
SOURCE_TABLE = "table"
SOURCE_FALLBACK = "fallback"
SOURCE_CONTROLLER = "controller"

_MAX_PAST_ERRORS = 64  # more than any sensible robustness window


class ProtocolError(ValueError):
    """A request/response payload that does not follow the protocol."""


def _require_number(payload: dict, key: str) -> float:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key!r} must be a number, got {value!r}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ProtocolError(f"{key!r} must be finite")
    return value


@dataclass(frozen=True)
class DecisionRequest:
    """One bitrate decision query.

    Parameters
    ----------
    session_id:
        Opaque stream-session key; used for telemetry attribution only.
    buffer_s:
        Current playback buffer occupancy ``B_k`` in seconds.
    prev_level:
        Ladder index of the previously fetched chunk, ``None`` before
        the first chunk (the table is queried with level 0, exactly like
        :class:`~repro.core.fastmpc.FastMPCController`).
    predicted_kbps:
        Throughput prediction ``C_hat`` (the player's harmonic mean).
    past_errors:
        Recent signed percentage prediction errors; when non-empty the
        server queries the table with the RobustMPC lower bound.
    family:
        Optional trace-family key (access technology, CDN pop...); when
        set, the server folds ``predicted_kbps`` into the family's
        shared prior (:mod:`repro.service.prior`) and the response
        carries the pooled ``prior_kbps`` estimate.  JSON-only: the
        binary encoding predates the field and rejects it loudly rather
        than dropping it silently.
    """

    session_id: str
    buffer_s: float
    predicted_kbps: float
    prev_level: Optional[int] = None
    past_errors: Tuple[float, ...] = field(default_factory=tuple)
    family: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ProtocolError("session_id must be non-empty")
        if self.buffer_s < 0:
            raise ProtocolError("buffer_s must be >= 0")
        if self.predicted_kbps <= 0:
            raise ProtocolError("predicted_kbps must be positive")
        if self.prev_level is not None and self.prev_level < 0:
            raise ProtocolError("prev_level must be >= 0")
        if len(self.past_errors) > _MAX_PAST_ERRORS:
            raise ProtocolError(
                f"past_errors longer than {_MAX_PAST_ERRORS} entries"
            )
        if self.family is not None and not self.family:
            raise ProtocolError("family must be non-empty when given")

    def to_dict(self) -> dict:
        payload = {
            "v": PROTOCOL_VERSION,
            "session_id": self.session_id,
            "buffer_s": self.buffer_s,
            "predicted_kbps": self.predicted_kbps,
        }
        if self.prev_level is not None:
            payload["prev_level"] = self.prev_level
        if self.past_errors:
            payload["past_errors"] = list(self.past_errors)
        if self.family is not None:
            payload["family"] = self.family
        return payload

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), separators=(",", ":")).encode()

    @classmethod
    def from_dict(cls, payload: object) -> "DecisionRequest":
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        version = payload.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {version!r}")
        session_id = payload.get("session_id")
        if not isinstance(session_id, str) or not session_id:
            raise ProtocolError("session_id must be a non-empty string")
        prev_level = payload.get("prev_level")
        if prev_level is not None:
            if isinstance(prev_level, bool) or not isinstance(prev_level, int):
                raise ProtocolError("prev_level must be an integer")
        raw_errors = payload.get("past_errors", [])
        if not isinstance(raw_errors, list):
            raise ProtocolError("past_errors must be a list")
        errors = []
        for e in raw_errors:
            if isinstance(e, bool) or not isinstance(e, (int, float)):
                raise ProtocolError("past_errors entries must be numbers")
            errors.append(float(e))
        family = payload.get("family")
        if family is not None and (not isinstance(family, str) or not family):
            raise ProtocolError("family must be a non-empty string")
        return cls(
            session_id=session_id,
            buffer_s=_require_number(payload, "buffer_s"),
            predicted_kbps=_require_number(payload, "predicted_kbps"),
            prev_level=prev_level,
            past_errors=tuple(errors),
            family=family,
        )

    @classmethod
    def from_json(cls, blob: bytes) -> "DecisionRequest":
        try:
            payload = json.loads(blob)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def to_binary(self) -> bytes:
        """This request as a single-record binary frame."""
        return encode_request_batch((self,))

    @classmethod
    def from_binary(cls, blob: bytes) -> "DecisionRequest":
        """Decode a single-record binary frame."""
        requests = decode_request_batch(blob)
        if len(requests) != 1:
            raise ProtocolError(
                f"expected one request record, frame has {len(requests)}"
            )
        return requests[0]


@dataclass(frozen=True)
class DecisionResponse:
    """The server's answer: a ladder level plus provenance.

    ``source`` records where the decision came from (``"table"``, a
    stateful ``"controller"`` backend, or ``"fallback"``); ``degraded``
    is True whenever anything other than a healthy in-budget decision
    produced the answer, with ``reason`` naming the cause (``no-table``
    / ``malformed`` / ``over-budget``).  ``arm`` is the experiment arm
    the session is assigned to, ``None`` when no experiment is running.
    ``prior_kbps`` is the pooled cross-session throughput prior of the
    request's trace family (``None`` when the request named no family or
    the family holds no earlier samples); JSON-only, like the request's
    ``family`` field.
    """

    session_id: str
    level_index: int
    bitrate_kbps: float
    source: str
    degraded: bool = False
    reason: Optional[str] = None
    server_latency_us: float = 0.0
    arm: Optional[str] = None
    prior_kbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.level_index < 0:
            raise ProtocolError("level_index must be >= 0")
        if self.source not in (SOURCE_TABLE, SOURCE_FALLBACK, SOURCE_CONTROLLER):
            raise ProtocolError(f"unknown decision source {self.source!r}")

    def to_dict(self) -> dict:
        payload = {
            "v": PROTOCOL_VERSION,
            "session_id": self.session_id,
            "level_index": self.level_index,
            "bitrate_kbps": self.bitrate_kbps,
            "source": self.source,
            "degraded": self.degraded,
            "server_latency_us": round(self.server_latency_us, 3),
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.arm is not None:
            payload["arm"] = self.arm
        if self.prior_kbps is not None:
            payload["prior_kbps"] = self.prior_kbps
        return payload

    def to_json(self) -> bytes:
        return json.dumps(self.to_dict(), separators=(",", ":")).encode()

    @classmethod
    def from_json(cls, blob: bytes) -> "DecisionResponse":
        try:
            payload = json.loads(blob)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"response body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ProtocolError("response body must be a JSON object")
        try:
            return cls(
                session_id=payload["session_id"],
                level_index=int(payload["level_index"]),
                bitrate_kbps=float(payload["bitrate_kbps"]),
                source=payload["source"],
                degraded=bool(payload.get("degraded", False)),
                reason=payload.get("reason"),
                server_latency_us=float(payload.get("server_latency_us", 0.0)),
                arm=payload.get("arm"),
                prior_kbps=(
                    float(payload["prior_kbps"])
                    if payload.get("prior_kbps") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed response payload: {exc}") from None

    def to_binary(self) -> bytes:
        """This response as a single-record binary frame."""
        return encode_response_batch((self,))

    @classmethod
    def from_binary(cls, blob: bytes) -> "DecisionResponse":
        """Decode a single-record binary frame."""
        responses = decode_response_batch(blob)
        if len(responses) != 1:
            raise ProtocolError(
                f"expected one response record, frame has {len(responses)}"
            )
        return responses[0]


# ----------------------------------------------------------------------
# Binary frames
# ----------------------------------------------------------------------
#
# Frame = header + `count` records, little-endian, unaligned:
#
#   request header   "DQ" u8 version  u8 flags  u16 count
#   request record   u8 sid_len, sid utf-8,
#                    f64 buffer_s, f64 predicted_kbps,
#                    i16 prev_level (-1 = none), u8 num_errors,
#                    f64 x num_errors past_errors
#
#   response header  "DS" u8 version  u8 flags  u16 count
#   response record  u8 sid_len, sid utf-8,
#                    u16 level_index, f64 bitrate_kbps,
#                    u8 source, u8 degraded, u8 reason,
#                    f64 server_latency_us,
#                    [u8 len + utf-8 reason string iff reason == 255]
#                    [u8 len + utf-8 arm iff flags & 0x01; len 0 = no arm]
#
# Request `flags` is reserved (must be 0).  Response `flags` bit 0x01
# announces that every record carries a trailing experiment-arm string
# (zero length = unassigned), so arm-free frames cost nothing and old
# decoders reject armed frames loudly instead of misparsing them.
# `source` is 0=table 1=fallback 2=controller.  `reason` is a code for
# the small closed set of degradation reasons the server emits; 255
# escapes to an explicit string so unknown reasons survive the encoding
# instead of being dropped.

#: Upper bound on records per frame — a u16 carries up to 65535, but a
#: batch beyond this is a client bug, not a use case.
MAX_BATCH_RECORDS = 4096

_REQ_HEADER = struct.Struct("<2sBBH")
_REQ_FIXED = struct.Struct("<ddhB")
_RESP_HEADER = struct.Struct("<2sBBH")
_RESP_FIXED = struct.Struct("<HdBBBd")
_REQ_MAGIC = b"DQ"
_RESP_MAGIC = b"DS"

#: The u8 length prefix of every string a frame may carry.
_LENGTHS = tuple(bytes((n,)) for n in range(256))
_INF = float("inf")

_SOURCE_CODES = {SOURCE_TABLE: 0, SOURCE_FALLBACK: 1, SOURCE_CONTROLLER: 2}
_SOURCE_NAMES = {v: k for k, v in _SOURCE_CODES.items()}
#: Response-frame flag: every record ends with a u8-length arm string.
_FLAG_ARMS = 0x01
#: The degradation reasons the server emits (see repro.service.server).
_REASON_CODES = {None: 0, "no-table": 1, "malformed": 2, "over-budget": 3}
_REASON_NAMES = {v: k for k, v in _REASON_CODES.items()}
_REASON_OTHER = 255


@dataclass(eq=False)
class RequestBatch(Sequence[DecisionRequest]):
    """The records of a request frame, held by column.

    ``prev_levels`` holds ``-1`` for a record without a previous level,
    as the frame does.  ``past_errors`` is every record's error window,
    record after record, in one float64 array: record ``i``'s window is
    ``past_errors[error_bounds[i]:error_bounds[i + 1]]``.  ``families``
    is ``None`` unless some request names one (frames never do).
    Indexing builds the :class:`DecisionRequest` of one record; the
    decision service reads the columns directly.
    """

    session_ids: List[str]
    buffers_s: List[float]
    predicted_kbps: List[float]
    prev_levels: List[int]
    past_errors: np.ndarray
    error_bounds: List[int]
    families: Optional[List[Optional[str]]] = None

    @classmethod
    def of(cls, requests: Sequence[DecisionRequest]) -> "RequestBatch":
        """``requests`` by column (a batch is returned as it is)."""
        if isinstance(requests, cls):
            return requests
        windows = [r.past_errors for r in requests]
        families = [r.family for r in requests]
        return cls(
            [r.session_id for r in requests],
            [r.buffer_s for r in requests],
            [r.predicted_kbps for r in requests],
            [-1 if r.prev_level is None else r.prev_level for r in requests],
            np.fromiter(chain.from_iterable(windows), np.float64),
            list(accumulate(map(len, windows), initial=0)),
            families if any(f is not None for f in families) else None,
        )

    def __len__(self) -> int:
        return len(self.session_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self.session_ids))[index]
        prev = self.prev_levels[index]
        window = self.past_errors[
            self.error_bounds[index] : self.error_bounds[index + 1]
        ]
        return DecisionRequest(
            self.session_ids[index],
            self.buffers_s[index],
            self.predicted_kbps[index],
            None if prev < 0 else prev,
            tuple(window.tolist()),
            None if self.families is None else self.families[index],
        )


#: DecisionResponse's fields, in the order ResponseBatch holds its columns.
_RESPONSE_FIELDS = tuple(f.name for f in fields(DecisionResponse))


@dataclass(eq=False)
class ResponseBatch(Sequence[DecisionResponse]):
    """Answers held by column, one column per :class:`DecisionResponse`
    field and in the same order.

    Indexing builds the :class:`DecisionResponse` of one answer;
    :func:`encode_response_batch` packs the columns directly.
    """

    session_ids: List[str]
    level_indices: List[int]
    bitrates_kbps: List[float]
    sources: List[str]
    degraded: List[bool]
    reasons: List[Optional[str]]
    latencies_us: List[float]
    arms: List[Optional[str]]
    priors_kbps: List[Optional[float]]

    @classmethod
    def of(cls, responses: Sequence[DecisionResponse]) -> "ResponseBatch":
        """``responses`` by column (a batch is returned as it is)."""
        if isinstance(responses, cls):
            return responses
        return cls(
            *([getattr(r, name) for r in responses] for name in _RESPONSE_FIELDS)
        )

    def __len__(self) -> int:
        return len(self.session_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return DecisionResponse(
            self.session_ids[index],
            self.level_indices[index],
            self.bitrates_kbps[index],
            self.sources[index],
            self.degraded[index],
            self.reasons[index],
            self.latencies_us[index],
            self.arms[index],
            self.priors_kbps[index],
        )


def _pack_str(text: str, what: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise ProtocolError(f"{what} longer than 255 bytes")
    return _LENGTHS[len(raw)] + raw


def _unpack_str(blob, offset: int, what: str) -> Tuple[str, int]:
    try:
        (length,) = struct.unpack_from("<B", blob, offset)
        raw = bytes(blob[offset + 1 : offset + 1 + length])
        if len(raw) != length:
            raise struct.error("short read")
    except struct.error:
        raise ProtocolError(f"truncated frame while reading {what}") from None
    try:
        return raw.decode("utf-8"), offset + 1 + length
    except UnicodeDecodeError:
        raise ProtocolError(f"{what} is not valid UTF-8") from None


def _check_header(
    blob, magic: bytes, header: struct.Struct, what: str, allowed_flags: int = 0
) -> Tuple[int, int]:
    try:
        got_magic, version, flags, count = header.unpack_from(blob, 0)
    except struct.error:
        raise ProtocolError(f"truncated {what} frame header") from None
    if got_magic != magic:
        raise ProtocolError(f"not a binary {what} frame")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if flags & ~allowed_flags:
        raise ProtocolError(f"unknown {what} frame flags {flags:#x}")
    if not 1 <= count <= MAX_BATCH_RECORDS:
        raise ProtocolError(
            f"{what} frame record count {count} outside 1..{MAX_BATCH_RECORDS}"
        )
    return count, flags


def encode_request_batch(requests: Sequence[DecisionRequest]) -> bytes:
    """Pack requests into one binary frame (1..MAX_BATCH_RECORDS records)."""
    if not 1 <= len(requests) <= MAX_BATCH_RECORDS:
        raise ProtocolError(
            f"batch of {len(requests)} outside 1..{MAX_BATCH_RECORDS}"
        )
    parts = [_REQ_HEADER.pack(_REQ_MAGIC, PROTOCOL_VERSION, 0, len(requests))]
    for request in requests:
        if request.family is not None:
            # Refuse rather than drop: the binary frame has no family
            # field, and silently losing it would disable the shared
            # prior without any signal.  Family-keyed sessions use JSON.
            raise ProtocolError("family rides the JSON encoding only")
        parts.append(_pack_str(request.session_id, "session_id"))
        prev = -1 if request.prev_level is None else request.prev_level
        if prev > 32767:
            raise ProtocolError("prev_level too large for the binary frame")
        errors = request.past_errors
        parts.append(
            _REQ_FIXED.pack(
                request.buffer_s, request.predicted_kbps, prev, len(errors)
            )
        )
        if errors:
            parts.append(struct.pack(f"<{len(errors)}d", *errors))
    return b"".join(parts)


def decode_request_batch(blob) -> RequestBatch:
    """Inverse of :func:`encode_request_batch`, with full validation.

    One pass over the frame fills the columns of a :class:`RequestBatch`.
    Each record passes the same checks as the JSON path (finite
    buffer/prediction, non-empty session, bounded error window); a
    truncated or over-long frame raises :class:`ProtocolError`.
    """
    count, _ = _check_header(blob, _REQ_MAGIC, _REQ_HEADER, "request")
    session_ids: List[str] = []
    buffers: List[float] = []
    predictions: List[float] = []
    prev_levels: List[int] = []
    windows: List[bytes] = []
    error_bounds = [0]
    unpack_fixed = _REQ_FIXED.unpack_from
    fixed_size = _REQ_FIXED.size
    offset = _REQ_HEADER.size
    num_errors_total = 0
    try:
        for _ in range(count):
            start = offset + 1
            offset = start + blob[offset]
            session_id = str(blob[start:offset], "utf-8")
            buffer_s, predicted_kbps, prev, num_errors = unpack_fixed(blob, offset)
            if not (
                session_id
                and 0.0 <= buffer_s < _INF
                and 0.0 < predicted_kbps < _INF
                and prev >= -1
                and num_errors <= _MAX_PAST_ERRORS
            ):
                _refuse_record(session_id, buffer_s, predicted_kbps, prev)
            start = offset + fixed_size
            offset = start + 8 * num_errors
            session_ids.append(session_id)
            buffers.append(buffer_s)
            predictions.append(predicted_kbps)
            prev_levels.append(prev)
            windows.append(blob[start:offset])
            num_errors_total += num_errors
            error_bounds.append(num_errors_total)
    except (IndexError, struct.error):
        raise ProtocolError("truncated request frame") from None
    except UnicodeDecodeError:
        raise ProtocolError("session_id is not valid UTF-8") from None
    if offset > len(blob):
        raise ProtocolError("truncated request frame")
    if offset < len(blob):
        raise ProtocolError(
            f"{len(blob) - offset} trailing bytes after {count} request record(s)"
        )
    past_errors = np.frombuffer(b"".join(windows), dtype="<f8")
    return RequestBatch(
        session_ids, buffers, predictions, prev_levels, past_errors, error_bounds
    )


def _refuse_record(
    session_id: str, buffer_s: float, predicted_kbps: float, prev: int
) -> None:
    """Raise the :class:`ProtocolError` of the first rule a decoded
    record breaks (the error window's length is the last rule)."""
    if not session_id:
        raise ProtocolError("session_id must be non-empty")
    for name, value in (("buffer_s", buffer_s), ("predicted_kbps", predicted_kbps)):
        if value != value or value in (_INF, -_INF):
            raise ProtocolError(f"{name!r} must be finite")
    if buffer_s < 0:
        raise ProtocolError("buffer_s must be >= 0")
    if predicted_kbps <= 0:
        raise ProtocolError("predicted_kbps must be positive")
    if prev < -1:
        raise ProtocolError("prev_level must be >= 0")
    raise ProtocolError(f"past_errors longer than {_MAX_PAST_ERRORS} entries")


def encode_response_batch(responses: Sequence[DecisionResponse]) -> bytes:
    """Pack responses into one binary frame, order-preserving.

    A :class:`ResponseBatch` is packed from its columns; any other
    sequence of responses is first put in columns by
    :meth:`ResponseBatch.of`.
    """
    batch = ResponseBatch.of(responses)
    count = len(batch)
    if not 1 <= count <= MAX_BATCH_RECORDS:
        raise ProtocolError(f"batch of {count} outside 1..{MAX_BATCH_RECORDS}")
    if any(prior is not None for prior in batch.priors_kbps):
        raise ProtocolError("prior_kbps rides the JSON encoding only")
    armed = any(arm is not None for arm in batch.arms)
    parts = [
        _RESP_HEADER.pack(
            _RESP_MAGIC, PROTOCOL_VERSION, _FLAG_ARMS if armed else 0, count
        )
    ]
    pack_fixed = _RESP_FIXED.pack
    for session_id, level, rate, source, degraded, reason, latency_us, arm in zip(
        batch.session_ids,
        batch.level_indices,
        batch.bitrates_kbps,
        batch.sources,
        batch.degraded,
        batch.reasons,
        batch.latencies_us,
        batch.arms,
    ):
        sid = session_id.encode("utf-8")
        if len(sid) > 255:
            raise ProtocolError("session_id longer than 255 bytes")
        if level > 65535:
            raise ProtocolError("level_index too large for the binary frame")
        reason_code = _REASON_CODES.get(reason, _REASON_OTHER)
        parts += (
            _LENGTHS[len(sid)],
            sid,
            pack_fixed(
                level, rate, _SOURCE_CODES[source], degraded, reason_code, latency_us
            ),
        )
        if reason_code == _REASON_OTHER:
            parts.append(_pack_str(reason or "", "reason string"))
        if armed:
            parts.append(_pack_str(arm or "", "arm name"))
    return b"".join(parts)


def decode_response_batch(blob) -> ResponseBatch:
    """Inverse of :func:`encode_response_batch`, with full validation.

    One pass over the frame fills the columns of a :class:`ResponseBatch`
    (as :func:`decode_request_batch` does for requests); indexing it
    builds a :class:`DecisionResponse`.  A truncated frame, a source or
    reason code outside the protocol, a string that is not UTF-8 or
    trailing bytes raise :class:`ProtocolError`.
    """
    count, flags = _check_header(
        blob, _RESP_MAGIC, _RESP_HEADER, "response", allowed_flags=_FLAG_ARMS
    )
    armed = flags & _FLAG_ARMS
    size = len(blob)
    session_ids: List[str] = []
    levels: List[int] = []
    rates: List[float] = []
    sources: List[str] = []
    degraded: List[bool] = []
    reasons: List[Optional[str]] = []
    latencies: List[float] = []
    arms: List[Optional[str]] = []
    unpack_fixed = _RESP_FIXED.unpack_from
    fixed_size = _RESP_FIXED.size
    offset = _RESP_HEADER.size
    for _ in range(count):
        start = offset + 1
        if start > size or start + blob[offset] > size:
            raise ProtocolError("truncated frame while reading session_id")
        offset = start + blob[offset]
        try:
            session_ids.append(str(blob[start:offset], "utf-8"))
        except UnicodeDecodeError:
            raise ProtocolError("session_id is not valid UTF-8") from None
        if offset + fixed_size > size:
            raise ProtocolError("truncated response frame")
        level, rate, source_code, flag, reason_code, latency_us = unpack_fixed(
            blob, offset
        )
        offset += fixed_size
        if source_code not in _SOURCE_NAMES:
            raise ProtocolError(f"unknown decision source code {source_code}")
        if reason_code in _REASON_NAMES:
            reasons.append(_REASON_NAMES[reason_code])
        elif reason_code == _REASON_OTHER:
            reason, offset = _unpack_str(blob, offset, "reason")
            reasons.append(reason)
        else:
            raise ProtocolError(f"unknown reason code {reason_code}")
        if armed:
            arm, offset = _unpack_str(blob, offset, "arm")
            arms.append(arm or None)
        levels.append(level)
        rates.append(rate)
        sources.append(_SOURCE_NAMES[source_code])
        degraded.append(bool(flag))
        latencies.append(latency_us)
    if offset != size:
        raise ProtocolError(
            f"{size - offset} trailing bytes after {count} response record(s)"
        )
    return ResponseBatch(
        session_ids,
        levels,
        rates,
        sources,
        degraded,
        reasons,
        latencies,
        arms if armed else [None] * count,
        [None] * count,
    )
