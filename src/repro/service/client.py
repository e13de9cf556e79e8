"""Async client for the decision service.

One keep-alive HTTP/1.1 connection per client instance — the shape a
player integration would use (one control connection per stream
session), and what the load generator multiplies to model concurrency.
Requests carry a client-side deadline; a dead connection is re-dialed
once per call before the error propagates.

On top of the per-exchange deadline sits an optional
:class:`RetryPolicy`: bounded attempts with exponential backoff and
seeded jitter, all under one overall time budget, so a flaky server
(resets, 5xx, slow-loris) is ridden out without ever stalling the
caller indefinitely.  Seeded jitter keeps chaos runs replayable.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional, Sequence, Tuple, TypeVar, Union

from ..core.table import DecisionTable
from .protocol import (
    CONTENT_TYPE_BINARY,
    DecisionRequest,
    DecisionResponse,
    ProtocolError,
    decode_response_batch,
    encode_request_batch,
)

__all__ = ["RetryPolicy", "ServiceClient", "DecisionClient", "ServiceUnavailable"]

_T = TypeVar("_T")


class ServiceUnavailable(ConnectionError):
    """The server could not be reached or answered unparseably."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff under a time budget.

    Attempt ``n`` (0-based) that fails waits
    ``min(base_delay_s * multiplier**n, max_delay_s)``, shrunk by up to
    ``jitter`` (a fraction in [0, 1]) with a seeded RNG — deterministic
    for a fixed seed, which chaos tests rely on.  No retry ever starts
    if its backoff would overrun ``budget_s`` measured from the first
    attempt: the caller is guaranteed an answer or an error within the
    budget plus one request deadline.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.5
    budget_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        # Range tests written so that NaN fails them too.
        if not (
            0.0 < self.base_delay_s < math.inf and 0.0 < self.max_delay_s < math.inf
        ):
            raise ValueError("backoff delays must be finite numbers > 0")
        if not 1.0 <= self.multiplier < math.inf:
            raise ValueError("backoff multiplier must be a finite number >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if not 0.0 < self.budget_s < math.inf:
            raise ValueError("retry budget must be a finite number > 0")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """The jittered wait after 0-based ``attempt`` failed."""
        delay = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        return delay * (1.0 - self.jitter * rng.random())


class ServiceClient:
    """Keep-alive asyncio client speaking the decision protocol.

    Usable as an async context manager::

        async with ServiceClient("127.0.0.1", 8008) as client:
            response = await client.decide(request)

    ``protocol`` selects the wire encoding for ``/v1/decide``:
    ``"json"`` (default) or ``"binary"`` — the struct-packed fast path,
    which also unlocks :meth:`decide_many` batching one HTTP exchange
    over many decisions.  Negotiation is per connection and implicit: a
    binary client simply POSTs binary and the server answers in kind.
    An answer that does not decode as a binary frame raises
    :class:`ServiceUnavailable` like any other unparseable answer.
    """

    def __init__(
        self,
        host: str,
        port: int,
        deadline_s: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        protocol: str = "json",
    ) -> None:
        if not 0.0 < deadline_s < math.inf:
            raise ValueError("deadline must be a finite number > 0")
        if protocol not in ("json", "binary"):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.host = host
        self.port = port
        self.deadline_s = deadline_s
        self.retry = retry
        self.protocol = protocol
        self._retry_rng = random.Random(retry.seed) if retry is not None else None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def connect(self) -> None:
        if self.connected:
            return
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.deadline_s
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self._reader = self._writer = None
            raise ServiceUnavailable(
                f"cannot reach {self.host}:{self.port}: {exc}"
            ) from None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._reader = self._writer = None

    # ------------------------------------------------------------------

    async def _request_once(
        self, method: str, path: str, body: bytes, content_type: str = ""
    ) -> Tuple[int, bytes]:
        assert self._reader is not None and self._writer is not None
        type_header = f"Content-Type: {content_type}\r\n" if content_type else ""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"{type_header}"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode()
        self._writer.write(head + body)
        await self._writer.drain()
        header_blob = await self._reader.readuntil(b"\r\n\r\n")
        lines = header_blob.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        close_after = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            key = name.strip().lower()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and value.strip().lower() == "close":
                close_after = True
        payload = await self._reader.readexactly(length) if length else b""
        if close_after:
            await self.close()
        return status, payload

    async def _request_with_redial(
        self, method: str, path: str, body: bytes = b"", content_type: str = ""
    ) -> Tuple[int, bytes]:
        """One HTTP exchange under the client deadline.

        The deadline is enforced by a ``loop.call_later`` handle that
        aborts the connection — far cheaper per request than wrapping
        every exchange in :func:`asyncio.wait_for`, which spawns a task.
        Retries exactly once on a dead keep-alive connection (the server
        may have reaped an idle one) — never on a deadline, so a slow
        server cannot double the configured wait.
        """
        loop = asyncio.get_running_loop()
        last_error: Optional[BaseException] = None
        for attempt in range(2):
            await self.connect()
            writer = self._writer
            timed_out = False

            def _abort(w=writer) -> None:
                nonlocal timed_out
                timed_out = True
                w.close()

            deadline_handle = loop.call_later(self.deadline_s, _abort)
            try:
                return await self._request_once(method, path, body, content_type)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
                ValueError,
                OSError,
            ) as exc:
                await self.close()
                if timed_out:
                    raise ServiceUnavailable(
                        f"no response from {self.host}:{self.port} "
                        f"within {self.deadline_s}s"
                    ) from None
                last_error = exc
            finally:
                deadline_handle.cancel()
        raise ServiceUnavailable(f"retry failed: {last_error}") from None

    async def _with_retry(
        self, op: Callable[[], Awaitable[_T]]
    ) -> _T:
        """Run ``op`` under the client's :class:`RetryPolicy` (if any).

        Each failed attempt backs off exponentially with seeded jitter;
        a retry whose backoff would overrun the overall budget is not
        attempted — the last error propagates instead.
        """
        if self.retry is None:
            return await op()
        policy = self.retry
        assert self._retry_rng is not None
        loop = asyncio.get_running_loop()
        started = loop.time()
        last_error: Optional[ServiceUnavailable] = None
        attempts = 0
        for attempt in range(policy.max_attempts):
            attempts += 1
            try:
                return await op()
            except ServiceUnavailable as exc:
                last_error = exc
                if attempt + 1 >= policy.max_attempts:
                    break
                delay = policy.backoff_s(attempt, self._retry_rng)
                if loop.time() - started + delay > policy.budget_s:
                    break  # the budget is an overall deadline, not per-try
                await asyncio.sleep(delay)
        raise ServiceUnavailable(
            f"gave up after {attempts} attempt(s): {last_error}"
        ) from None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        """One HTTP exchange, retried per the client's retry policy."""
        return await self._with_retry(
            lambda: self._request_with_redial(method, path, body)
        )

    # ------------------------------------------------------------------
    # Protocol-level calls
    # ------------------------------------------------------------------

    async def _decide_once(self, request: DecisionRequest) -> DecisionResponse:
        if self.protocol == "binary":
            status, body = await self._request_with_redial(
                "POST", "/v1/decide", request.to_binary(), CONTENT_TYPE_BINARY
            )
            if status != 200:
                raise ServiceUnavailable(
                    f"decide returned HTTP {status}: {body!r}"
                )
            try:
                return DecisionResponse.from_binary(body)
            except ProtocolError as exc:
                raise ServiceUnavailable(str(exc)) from None
        status, body = await self._request_with_redial(
            "POST", "/v1/decide", request.to_json()
        )
        if status != 200:
            raise ServiceUnavailable(f"decide returned HTTP {status}: {body!r}")
        try:
            return DecisionResponse.from_json(body)
        except ProtocolError as exc:
            raise ServiceUnavailable(str(exc)) from None

    async def _decide_many_once(self, requests) -> Sequence[DecisionResponse]:
        if self.protocol == "binary":
            status, body = await self._request_with_redial(
                "POST",
                "/v1/decide",
                encode_request_batch(requests),
                CONTENT_TYPE_BINARY,
            )
            if status != 200:
                raise ServiceUnavailable(
                    f"decide returned HTTP {status}: {body!r}"
                )
            try:
                responses = decode_response_batch(body)
            except ProtocolError as exc:
                raise ServiceUnavailable(str(exc)) from None
            if len(responses) != len(requests):
                raise ServiceUnavailable(
                    f"{len(responses)} responses for {len(requests)} requests"
                )
            return responses
        return [await self._decide_once(request) for request in requests]

    async def decide(self, request: DecisionRequest) -> DecisionResponse:
        """One bitrate decision; raises :class:`ServiceUnavailable` only
        after transport failures and 5xx answers exhaust the retry
        policy — degraded answers come back normally.

        Unlike the generic :meth:`request`, retries here cover the whole
        exchange including HTTP-level failures (an injected 500 is as
        retryable as a reset), which is what lets a player ride out a
        flaky decision backend.
        """
        return await self._with_retry(lambda: self._decide_once(request))

    async def decide_many(self, requests) -> Sequence[DecisionResponse]:
        """Decide a whole batch in one exchange (binary protocol).

        Under ``protocol="binary"`` the batch rides a single multi-record
        frame and one HTTP round-trip, which the server answers with one
        batch decision — the only way a batch reaches the service, and
        the shape the load generator uses to amortise per-exchange
        costs.  Under JSON the batch degrades to sequential single
        exchanges on the keep-alive connection; either way responses come
        back in request order with identical decision semantics.
        """
        requests = list(requests)
        if not requests:
            return []
        return await self._with_retry(lambda: self._decide_many_once(requests))

    async def metrics(self) -> dict:
        status, body = await self.request("GET", "/metrics")
        if status != 200:
            raise ServiceUnavailable(f"metrics returned HTTP {status}")
        return json.loads(body)

    async def health(self) -> dict:
        status, body = await self.request("GET", "/healthz")
        if status != 200:
            raise ServiceUnavailable(f"healthz returned HTTP {status}")
        return json.loads(body)

    async def swap_table(self, table: Union[DecisionTable, bytes]) -> dict:
        """Install a new table on the server (warm swap)."""
        blob = table.to_bytes() if isinstance(table, DecisionTable) else table
        status, body = await self.request("POST", "/v1/table", blob)
        payload = json.loads(body) if body else {}
        if status != 200:
            raise ServiceUnavailable(
                f"table swap rejected: HTTP {status} {payload.get('error', '')}"
            )
        return payload

    async def get_experiment(self) -> Optional[dict]:
        """The server's active A/B config, or ``None`` when unset."""
        status, body = await self.request("GET", "/v1/experiment")
        if status != 200:
            raise ServiceUnavailable(f"experiment read returned HTTP {status}")
        return json.loads(body).get("experiment")

    async def set_experiment(self, experiment: Optional[dict]) -> Optional[dict]:
        """Install (a dict per ``ExperimentConfig.to_dict``) or clear
        (``None``) the server's A/B config; returns what is now active."""
        blob = json.dumps(experiment).encode() if experiment is not None else b""
        status, body = await self.request("POST", "/v1/experiment", blob)
        payload = json.loads(body) if body else {}
        if status != 200:
            raise ServiceUnavailable(
                f"experiment rejected: HTTP {status} {payload.get('error', '')}"
            )
        return payload.get("experiment")


#: The name the service docs use for the player-facing client; the
#: transport object is the same either way.
DecisionClient = ServiceClient
