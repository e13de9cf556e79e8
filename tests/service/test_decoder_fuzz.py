"""Seeded fuzz of the binary request decoder and the table blob loader.

Valid request frames and table blobs are mutated — truncated, bit
flipped, spliced, and with their counts, lengths and numbers forged —
and fed to what the server feeds them to:

* ``decode_request_batch``, then, when the frame decodes,
  ``DecisionService.decide_batch`` and ``encode_response_batch``: the
  server catches only ``ProtocolError`` around the decode, and nothing
  around the rest;
* ``DecisionTable.from_bytes(max_bytes=1 MiB)``, then, when the blob
  loads, ``DecisionService.swap_table`` and one decision: the server's
  ``POST /v1/table`` handler catches ``ValueError``, ``IndexError`` and
  ``struct.error``.

Every case must return or raise one of those, within a per-case
deadline, and its ``tracemalloc`` peak must stay under a few MiB: a
forged count may cost work in proportion to the bytes sent, never to the
number it claims.  The mutations are drawn from fixed seeds, so a
failure names a case that reproduces.
"""

from __future__ import annotations

import contextlib
import math
import random
import signal
import struct
import time
import tracemalloc
import warnings

import pytest

from repro.core.table import Binning, DecisionTable
from repro.service.protocol import (
    DecisionRequest,
    ProtocolError,
    ResponseBatch,
    decode_request_batch,
    encode_request_batch,
    encode_response_batch,
)
from repro.service.server import DecisionService

from .conftest import LADDER, make_test_table

#: Wall-clock bound of one case, and of its tracemalloc peak.
CASE_DEADLINE_S = 1.0
CASE_PEAK_BYTES = 4 << 20
#: The upload budget the cases load tables under.
TABLE_BUDGET = 1 << 20

_U8 = (0, 1, 2, 127, 128, 254, 255)
_U16 = (0, 1, 2, 63, 64, 65, 4095, 4096, 4097, 32767, 32768, 65535)
_I16 = (-32768, -2, -1, 0, 1, 2, 3, 32767)
_U32 = (0, 1, 2, 255, 256, 65535, 65536, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)
_F64 = (
    0.0, -0.0, -1.0, 1.0, 5e-324, 1e-320, 1e-300, 1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
)
_VALUES = {"B": _U8, "H": _U16, "h": _I16, "I": _U32, "d": _F64}
_AWAY = (-math.inf, math.inf)


class CaseTimeout(Exception):
    """One case ran past :data:`CASE_DEADLINE_S`."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the case with :class:`CaseTimeout` after ``seconds``."""

    def expire(signum, frame):
        raise CaseTimeout(f"case ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Valid inputs, with the position and format of every count, length and
# number in them
# ---------------------------------------------------------------------------


def request_frame(requests):
    """A valid frame and its ``(offset, struct format)`` fields."""
    blob = encode_request_batch(requests)
    fields = [(4, "<H")]  # the record count
    offset = 6
    for request in requests:
        fields.append((offset, "<B"))  # the session id's length
        offset += 1 + blob[offset]
        fields += [(offset, "<d"), (offset + 8, "<d"), (offset + 16, "<h")]
        fields.append((offset + 18, "<B"))  # the error window's length
        offset += 19
        for _ in request.past_errors:
            fields.append((offset, "<d"))
            offset += 8
    assert offset == len(blob)
    return blob, fields


def request_frames():
    rng = random.Random(7)
    frames = []
    for count, errors in ((1, 0), (1, 5), (3, 2), (64, 5), (70, 1)):
        requests = [
            DecisionRequest(
                session_id=("s-%d-é" % i) * rng.randint(1, 6),
                buffer_s=rng.uniform(0.0, 30.0),
                predicted_kbps=rng.uniform(100.0, 5000.0),
                prev_level=None if i % 4 == 0 else rng.randrange(len(LADDER)),
                past_errors=tuple(rng.uniform(-0.5, 0.5) for _ in range(errors)),
            )
            for i in range(count)
        ]
        frames.append(request_frame(requests))
    return frames


def table_blob(table: DecisionTable):
    """A valid table blob and its ``(offset, struct format)`` fields."""
    blob = table.to_bytes()
    fields = []
    for start in (8, 29):  # the two binnings: low, high, count, spacing
        fields += [(start, "<d"), (start + 8, "<d"), (start + 16, "<I")]
        fields.append((start + 20, "<B"))
    fields += [(50, "<I"), (54, "<B"), (55, "<I")]  # levels, keep-full, runs
    (runs,) = struct.unpack_from("<I", blob, 55)
    for run in range(runs):
        fields += [(59 + 5 * run, "<I"), (63 + 5 * run, "<B")]  # end, value
    assert 59 + 5 * runs == len(blob)
    return blob, fields


def table_blobs():
    rng = random.Random(11)
    buffer_bins = Binning(0.0, 30.0, 12)
    throughput_bins = Binning(100.0, 4000.0, 15, spacing="log")
    n = buffer_bins.count * len(LADDER) * throughput_bins.count
    decisions, level = [], 0
    for _ in range(n):
        if rng.random() < 0.2:
            level = rng.randrange(len(LADDER))
        decisions.append(level)
    mixed = DecisionTable(buffer_bins, len(LADDER), throughput_bins, decisions)
    return [table_blob(make_test_table()), table_blob(mixed)]


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def forge(rng, blob: bytearray, fields) -> None:
    # Half the forgeries go to the first dozen fields: the headers, which
    # hold the counts, the lengths and a table's bin ranges.
    offset, fmt = rng.choice(fields[:12] if rng.random() < 0.5 else fields)
    if offset + struct.calcsize(fmt) > len(blob):
        return
    (value,) = struct.unpack_from(fmt, blob, offset)
    choices = _VALUES[fmt[-1]]
    if fmt[-1] == "d" and rng.random() < 0.5:
        # A neighbour of this number or of another in the blob: a bin
        # range one ulp wide, or two edges that swap.
        others = [at for at, kind in fields if kind == "<d" and at + 8 <= len(blob)]
        (other,) = struct.unpack_from("<d", blob, rng.choice(others))
        choices = (math.nextafter(rng.choice((value, other)), rng.choice(_AWAY)),)
    elif fmt[-1] != "d":
        # Off by one either way, clamped into the field's range.
        low, high = min(choices), max(choices)
        choices = choices + tuple(v for v in (value - 1, value + 1) if low <= v <= high)
    struct.pack_into(fmt, blob, offset, rng.choice(choices))


def flip_bits(rng, blob: bytearray, fields) -> None:
    for _ in range(rng.randint(1, 4)):
        if blob:
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)


def splice(rng, blob: bytearray, fields) -> None:
    """Delete, duplicate or insert a run of bytes, or append junk."""
    at = rng.randrange(len(blob) + 1)
    width = rng.randint(1, 24)
    kind = rng.randrange(4)
    if kind == 0:
        del blob[at : at + width]
    elif kind == 1:
        blob[at:at] = blob[at : at + width]
    elif kind == 2:
        blob[at:at] = bytes(rng.randrange(256) for _ in range(width))
    else:
        blob += bytes(rng.randrange(256) for _ in range(width))


MUTATIONS = (forge, forge, flip_bits, splice)


def mutants(seed: int, bases, count: int):
    """``count`` mutated copies of the ``(blob, fields)`` bases: one to
    three mutations each, and a truncation of every fourth."""
    rng = random.Random(seed)
    for case in range(count):
        blob, fields = bases[case % len(bases)]
        mutant = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            rng.choice(MUTATIONS)(rng, mutant, fields)
        if case % 4 == 3:
            del mutant[rng.randrange(len(mutant) + 1) :]
        yield case, bytes(mutant)


def run_case(case, blob, feed, caught):
    """Feed one blob under the deadline and tracemalloc: ``"ok"``, or the
    name of the caught exception it raised."""
    tracemalloc.reset_peak()
    started = time.perf_counter()
    try:
        with deadline(CASE_DEADLINE_S):
            feed(blob)
        outcome = "ok"
    except caught as exc:
        outcome = type(exc).__name__
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    assert elapsed < CASE_DEADLINE_S, (case, blob.hex(), elapsed)
    assert peak < CASE_PEAK_BYTES, (case, blob.hex(), peak)
    return outcome


@pytest.fixture
def traced_memory():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# The cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_request_frames_decode_or_refuse(seed, traced_memory):
    service = DecisionService(LADDER, table=make_test_table())

    def feed(blob):
        # The server answers a frame that decodes; nothing catches there.
        batch = decode_request_batch(blob)
        encode_response_batch(ResponseBatch.of(service.decide_batch(batch)))

    outcomes = {}
    for case, blob in mutants(seed, request_frames(), 1500):
        outcome = run_case(case, blob, feed, ProtocolError)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # Most mutations break a frame; some (a flipped float, a forged
    # previous level) leave it decodable, and it is answered.
    assert outcomes.get("ProtocolError", 0) > 750 and outcomes.get("ok", 0) > 0


def test_valid_request_frames_round_trip():
    for blob, _ in request_frames():
        batch = decode_request_batch(blob)
        assert encode_request_batch(list(batch)) == blob


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_table_blobs_load_or_refuse(seed, traced_memory):
    service = DecisionService(LADDER, table=make_test_table())
    caught = (ValueError, IndexError, struct.error)

    def feed(blob):
        table = DecisionTable.from_bytes(blob, max_bytes=TABLE_BUDGET)
        service.swap_table(table)
        # A state inside both of the loaded table's ranges, at the first
        # inner edges, then one past them.
        buffer_s = float(table.buffer_bins.edges[min(1, table.buffer_bins.count)])
        kbps = float(table.throughput_bins.edges[min(1, table.throughput_bins.count)])
        for request in (
            DecisionRequest("fuzz", max(buffer_s, 0.0), max(kbps, 5e-324), 1),
            DecisionRequest("fuzz", 12.0, 900.0, 1),
        ):
            service.decide(request)

    outcomes = {}
    for case, blob in mutants(seed, table_blobs(), 1000):
        outcome = run_case(case, blob, feed, caught)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert set(outcomes) <= {"ok", "ValueError", "IndexError", "error"}
    # Most mutations break a blob; some (a flipped decision value inside
    # the ladder, a forged float edge) leave it loadable.
    assert outcomes.get("ValueError", 0) > 500 and outcomes.get("ok", 0) > 0


def test_valid_table_blobs_load():
    for blob, _ in table_blobs():
        table = DecisionTable.from_bytes(blob, max_bytes=TABLE_BUDGET)
        assert table.to_bytes() == blob


#: Finite bin ranges that float64 cannot bin: the edges or centres
#: overflow, or the lookup scale does (a range a few subnormals wide, or
#: log ends one ulp apart whose logs round equal).
_UNREACHABLE = [
    (-1.7976931348623157e308, 1.7976931348623157e308, "linear"),
    (0.0, 1.7976931348623157e308, "linear"),
    (0.0, 1e-320, "linear"),
    (1e300, 1.7976931348623157e308, "log"),
    (1e300, math.nextafter(1e300, math.inf), "log"),
]


@pytest.mark.parametrize("low, high, spacing", _UNREACHABLE)
def test_blob_with_an_unreachable_binning_is_refused(low, high, spacing):
    """Before, the first two loaded with RuntimeWarnings and answered some
    lookups with ``ValueError`` (NaN to an index), the third loaded and
    raised ``OverflowError`` on a lookup, which the table path of
    ``decide`` does not catch, and the last raised ``ZeroDivisionError``
    out of ``from_bytes``, which the upload handler does not catch."""
    blob = bytearray(make_test_table().to_bytes())
    struct.pack_into("<dd", blob, 29, low, high)
    struct.pack_into("<B", blob, 49, 1 if spacing == "log" else 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside float64's reach"):
            DecisionTable.from_bytes(bytes(blob), max_bytes=TABLE_BUDGET)
        with pytest.raises(ValueError, match="outside float64's reach"):
            Binning(low, high, 15, spacing)
