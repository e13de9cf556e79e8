"""The asyncio ABR decision server.

Two layers, deliberately separated:

* :class:`DecisionService` — transport-free decision logic.  Holds the
  active :class:`~repro.core.table.DecisionTable` and the bitrate
  ladder, answers one :class:`~repro.service.protocol.DecisionRequest`
  per call, and implements the degradation policy: whenever a healthy
  table lookup is impossible (no table loaded, malformed request) or
  too slow (over the per-lookup budget), it serves the paper's
  rate-based rule — max ladder rate at most the predicted throughput —
  and flags the response ``degraded`` with a reason.  A response is
  always produced; clients never see an exception for a recoverable
  condition.

* :class:`DecisionServer` — a stdlib-only HTTP/1.1 front end over
  ``asyncio.start_server`` with keep-alive connections, per-request
  read deadlines, and warm/cold table swapping: ``POST /v1/table``
  installs a new table between requests with one reference assignment,
  so in-flight connections keep streaming decisions and never drop.

The single-threaded event loop is what makes the swap trivially safe:
``decide`` captures the table reference once per request, and the
reference flip happens between callbacks, never during one.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, replace
from struct import error as struct_error
from typing import Callable, Optional, Sequence, Tuple

from ..core.table import DecisionTable
from ..obs.events import RequestSpan, SolverCall
from ..obs.tracer import Tracer
from ..faults.chaos import (
    CHAOS_ERROR,
    CHAOS_KILL,
    CHAOS_NONE,
    CHAOS_RESET,
    CHAOS_SLOW,
    CHAOS_TABLE_SWAP,
    ChaosPolicy,
)
from ..video.manifest import BitrateLadder
from .backends import AlgorithmBackend
from .experiment import CONTROLLER_TABLE, ExperimentArm, ExperimentConfig
from .metrics import ServiceMetrics
from .prior import SharedPriorStore
from .protocol import (
    CONTENT_TYPE_BINARY,
    PROTOCOL_VERSION,
    SOURCE_CONTROLLER,
    SOURCE_FALLBACK,
    SOURCE_TABLE,
    DecisionRequest,
    DecisionResponse,
    ProtocolError,
    decode_request_batch,
    encode_response_batch,
)

__all__ = ["ServiceConfig", "DecisionService", "DecisionServer"]

#: Degradation reasons carried in responses and counted in /metrics.
REASON_NO_TABLE = "no-table"
REASON_MALFORMED = "malformed"
REASON_OVER_BUDGET = "over-budget"

#: Batches under this size are answered by the scalar decide path —
#: the vectorized lookup's fixed per-call array overhead only pays for
#: itself past a few dozen requests (see DecisionService.decide_batch).
VECTOR_MIN_BATCH = 64


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of the decision service.

    ``lookup_budget_s`` bounds the time the table path may take before
    the response is downgraded to the rate-based fallback — the service
    promises a decision in bounded time even if a pathological table or
    a cold page makes the lookup slow.  ``request_deadline_s`` bounds
    how long the server waits for a request to arrive in full on an
    open connection before giving up on it; ``idle_timeout_s`` reaps
    keep-alive connections that have gone quiet.

    The ``backend_*`` knobs shape the stateful controller backends that
    serve non-table experiment arms: how many live sessions a backend
    holds before LRU eviction, how long a session may idle before the
    reap watchdog retires it, and the synthetic CBR manifest (chunk
    duration, buffer cap) the controllers are prepared against.
    """

    lookup_budget_s: float = 0.005
    request_deadline_s: float = 5.0
    idle_timeout_s: float = 60.0
    max_body_bytes: int = 64 * 1024
    max_table_bytes: int = 64 * 1024 * 1024
    backend_max_sessions: int = 4096
    backend_idle_timeout_s: float = 300.0
    backend_chunk_duration_s: float = 4.0
    backend_buffer_capacity_s: float = 30.0
    #: Trace families the shared prior store holds before LRU eviction.
    prior_max_families: int = 1024

    def __post_init__(self) -> None:
        if self.lookup_budget_s <= 0:
            raise ValueError("lookup budget must be positive")
        if self.request_deadline_s <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("deadlines must be positive")
        if self.max_body_bytes < 1 or self.max_table_bytes < 1:
            raise ValueError("body limits must be positive")
        if self.backend_max_sessions < 1:
            raise ValueError("backend_max_sessions must be positive")
        if (
            self.backend_idle_timeout_s <= 0
            or self.backend_chunk_duration_s <= 0
            or self.backend_buffer_capacity_s <= 0
        ):
            raise ValueError("backend timings must be positive")
        if self.prior_max_families < 1:
            raise ValueError("prior_max_families must be positive")


class DecisionService:
    """Decision logic + degradation policy, independent of any transport.

    Parameters
    ----------
    ladder_kbps:
        The bitrate ladder decisions index into.  Required even without
        a table — the fallback path is the rate-based rule over this
        ladder.
    table:
        The active decision table, or ``None`` for a cold start (every
        decision degrades to the fallback until a table is swapped in).
    config:
        Budgets and limits; see :class:`ServiceConfig`.
    metrics:
        Telemetry sink; a fresh :class:`ServiceMetrics` by default.
    clock:
        Monotonic time source (injectable for budget tests).
    experiment:
        Optional A/B routing config (see
        :class:`~repro.service.experiment.ExperimentConfig`): every
        session is deterministically assigned to one arm, and arms on a
        controller other than :data:`CONTROLLER_TABLE` are answered by a
        stateful :class:`~repro.service.backends.AlgorithmBackend`
        instead of the table.
    """

    def __init__(
        self,
        ladder_kbps: Sequence[float],
        table: Optional[DecisionTable] = None,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.perf_counter,
        experiment: Optional[ExperimentConfig] = None,
    ) -> None:
        self.ladder = BitrateLadder(ladder_kbps)
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: Cross-session throughput prior, keyed by trace family (see
        #: :mod:`repro.service.prior`); fed by requests that carry a
        #: ``family`` and served back as ``prior_kbps`` on the response.
        self.priors = SharedPriorStore(max_families=self.config.prior_max_families)
        self.clock = clock
        self._table: Optional[DecisionTable] = None
        self._experiment: Optional[ExperimentConfig] = None
        self._backends: dict = {}  # controller name -> AlgorithmBackend
        if table is not None:
            self._install(table)
        if experiment is not None:
            self.set_experiment(experiment)

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------

    def _install(self, table: DecisionTable) -> None:
        if table.num_levels != len(self.ladder):
            raise ValueError(
                f"table has {table.num_levels} levels but the ladder has "
                f"{len(self.ladder)}"
            )
        self._table = table

    @property
    def table(self) -> Optional[DecisionTable]:
        return self._table

    @property
    def table_loaded(self) -> bool:
        return self._table is not None

    def swap_table(self, table: DecisionTable) -> None:
        """Atomically replace the active table (warm swap).

        One reference assignment on the event-loop thread: requests
        already past their table capture finish on the old table, the
        next request sees the new one.  No connection is touched.
        """
        self._install(table)
        self.metrics.record_table_swap()

    def unload_table(self) -> None:
        """Drop the active table (cold mode; used by drain/tests)."""
        self._table = None
        self.metrics.record_table_swap()

    # ------------------------------------------------------------------
    # Experiment / controller-backend lifecycle
    # ------------------------------------------------------------------

    @property
    def experiment(self) -> Optional[ExperimentConfig]:
        return self._experiment

    def set_experiment(self, experiment: Optional[ExperimentConfig]) -> None:
        """Install (or clear, with ``None``) the A/B routing config.

        Backends for every non-table arm are built eagerly so an unknown
        controller name fails *here* — at configuration time — rather
        than degrading live traffic.  A backend serving a controller the
        new config still names is kept, sessions and all; like a table
        swap, re-configuring never touches unrelated in-flight state.
        """
        if experiment is None:
            self._experiment = None
            self._backends = {}
            return
        backends = {}
        for arm in experiment.arms:
            controller = arm.controller
            if controller == CONTROLLER_TABLE or controller in backends:
                continue
            backend = self._backends.get(controller)
            if backend is None:
                backend = AlgorithmBackend(
                    controller,
                    tuple(self.ladder),
                    chunk_duration_s=self.config.backend_chunk_duration_s,
                    buffer_capacity_s=self.config.backend_buffer_capacity_s,
                    max_sessions=self.config.backend_max_sessions,
                    idle_timeout_s=self.config.backend_idle_timeout_s,
                )
            backends[controller] = backend
        self._experiment = experiment
        self._backends = backends

    @property
    def backends(self) -> dict:
        """Live controller backends, keyed by controller name."""
        return dict(self._backends)

    def assign_arm(self, session_id: str) -> Optional[ExperimentArm]:
        """This session's experiment arm (``None`` when no experiment)."""
        experiment = self._experiment
        return experiment.assign(session_id) if experiment is not None else None

    def evict_idle_backends(self) -> int:
        """Reap idle backend sessions across all arms (watchdog hook)."""
        return sum(backend.evict_idle() for backend in self._backends.values())

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _fallback(
        self,
        session_id: str,
        predicted_kbps: Optional[float],
        reason: str,
        started: float,
        arm: Optional[str] = None,
    ) -> DecisionResponse:
        if predicted_kbps is not None and predicted_kbps > 0:
            level = self.ladder.highest_at_most(predicted_kbps)
        else:
            level = 0  # nothing usable in the request: safest rate
        latency_us = (self.clock() - started) * 1e6
        response = DecisionResponse(
            session_id=session_id,
            level_index=level,
            bitrate_kbps=self.ladder[level],
            source=SOURCE_FALLBACK,
            degraded=True,
            reason=reason,
            server_latency_us=latency_us,
            arm=arm,
        )
        self.metrics.record_decision(
            SOURCE_FALLBACK, latency_us, True, reason, session_id, arm
        )
        return response

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        """Answer one well-formed request; never raises.

        With an experiment installed the session's arm picks the path:
        table arms run the mmap lookup below, controller arms run their
        stateful backend.  Both inherit the same degradation policy —
        any failure or budget overrun falls back to the rate-based rule,
        still labelled with the session's arm.
        """
        started = self.clock()
        arm = self.assign_arm(request.session_id)
        if arm is not None and arm.controller != CONTROLLER_TABLE:
            return self._apply_prior(request, self._decide_controller(request, arm, started))
        return self._apply_prior(request, self._decide_table(request, arm, started))

    def _apply_prior(
        self, request: DecisionRequest, response: DecisionResponse
    ) -> DecisionResponse:
        """Fold a family-keyed request into the shared prior store.

        The estimate is read *before* the request's own sample is
        folded in, so the response carries the pooled view of the
        family's earlier sessions — ``None`` for the family's very
        first request.  Requests without a family pass through
        untouched (the common path stays allocation-free).
        """
        if request.family is None:
            return response
        prior = self.priors.estimate(request.family)
        self.priors.observe(request.family, request.predicted_kbps)
        if prior is None:
            return response
        return replace(response, prior_kbps=prior)

    def _decide_table(
        self,
        request: DecisionRequest,
        arm: Optional[ExperimentArm],
        started: float,
    ) -> DecisionResponse:
        arm_name = arm.name if arm is not None else None
        table = self._table  # captured once; swaps cannot tear a request
        if table is None:
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_NO_TABLE,
                started,
                arm_name,
            )
        query_kbps = request.predicted_kbps
        if request.past_errors:
            # RobustMPC's lower bound C_hat / (1 + err) — valid on the
            # table because its throughput axis is the MPC input.
            err = max(abs(e) for e in request.past_errors)
            query_kbps = query_kbps / (1.0 + err)
        prev = request.prev_level if request.prev_level is not None else 0
        try:
            level = table.lookup(request.buffer_s, prev, query_kbps)
        except (IndexError, ValueError):
            # e.g. prev_level beyond the ladder: recoverable, not fatal.
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_MALFORMED,
                started,
                arm_name,
            )
        elapsed = self.clock() - started
        if elapsed > self.config.lookup_budget_s:
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_OVER_BUDGET,
                started,
                arm_name,
            )
        latency_us = elapsed * 1e6
        response = DecisionResponse(
            session_id=request.session_id,
            level_index=level,
            bitrate_kbps=self.ladder[level],
            source=SOURCE_TABLE,
            degraded=False,
            reason=None,
            server_latency_us=latency_us,
            arm=arm_name,
        )
        self.metrics.record_decision(
            SOURCE_TABLE, latency_us, False, None, request.session_id, arm_name
        )
        return response

    def _decide_controller(
        self,
        request: DecisionRequest,
        arm: ExperimentArm,
        started: float,
    ) -> DecisionResponse:
        """One decision from the arm's stateful controller backend."""
        backend = self._backends[arm.controller]
        try:
            level = backend.decide(
                request.session_id,
                request.buffer_s,
                request.prev_level,
                request.predicted_kbps,
            )
        except Exception:
            # A controller bug must degrade this request, never crash
            # the service — same promise the table path makes.
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_MALFORMED,
                started,
                arm.name,
            )
        elapsed = self.clock() - started
        if elapsed > self.config.lookup_budget_s:
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_OVER_BUDGET,
                started,
                arm.name,
            )
        latency_us = elapsed * 1e6
        response = DecisionResponse(
            session_id=request.session_id,
            level_index=level,
            bitrate_kbps=self.ladder[level],
            source=SOURCE_CONTROLLER,
            degraded=False,
            reason=None,
            server_latency_us=latency_us,
            arm=arm.name,
        )
        self.metrics.record_decision(
            SOURCE_CONTROLLER, latency_us, False, None, request.session_id, arm.name
        )
        return response

    def decide_batch(
        self, requests: Sequence[DecisionRequest]
    ) -> Tuple[DecisionResponse, ...]:
        """Answer a batch of requests with one vectorized table lookup.

        Decision *content* (level, source, degraded, reason) is identical
        to calling :meth:`decide` per request — the batch path shares the
        scalar path's bin arithmetic and run search, and per-request
        validation (a ``prev_level`` beyond the ladder) degrades just
        that request.  Two intended differences: the lookup budget is
        judged on the whole batch's elapsed time (a batch of one behaves
        exactly like :meth:`decide`), and reported latencies are the
        batch's, not a per-request measurement.  Batch occupancy is
        recorded in ``/metrics``.

        Small batches are answered by the scalar path: the vectorized
        lookup carries a fixed ~60 us of array-call overhead per batch,
        which beats a loop of ~5 us scalar decides only past a few dozen
        requests (measured crossover ~64 on a 1-core host).

        With an experiment installed the batch is partitioned by arm:
        controller-armed requests run their stateful backends one by one
        (backends are sequential by nature), while the table-armed
        remainder keeps the vectorized lookup — so A/B routing does not
        tax the fast path of the sessions still on the table.
        """
        started = self.clock()
        self.metrics.record_batch(len(requests))
        if self._experiment is None:
            return self._finish_batch(requests, self._decide_batch_table(requests, None, started))
        arms = [self.assign_arm(r.session_id) for r in requests]
        responses: list = [None] * len(requests)
        table_rows = []
        for i, (request, arm) in enumerate(zip(requests, arms)):
            if arm is not None and arm.controller != CONTROLLER_TABLE:
                responses[i] = self._decide_controller(request, arm, self.clock())
            else:
                table_rows.append(i)
        if table_rows:
            table_responses = self._decide_batch_table(
                [requests[i] for i in table_rows],
                [arms[i] for i in table_rows],
                started,
            )
            for i, response in zip(table_rows, table_responses):
                responses[i] = response
        return self._finish_batch(requests, tuple(responses))

    def _finish_batch(
        self,
        requests: Sequence[DecisionRequest],
        responses: Tuple[DecisionResponse, ...],
    ) -> Tuple[DecisionResponse, ...]:
        """Apply the shared prior to a batch, in request order — the same
        estimate-before-observe sequence scalar :meth:`decide` calls
        would have produced one by one."""
        if all(r.family is None for r in requests):
            return responses
        return tuple(
            self._apply_prior(request, response)
            for request, response in zip(requests, responses)
        )

    def _decide_batch_table(
        self,
        requests: Sequence[DecisionRequest],
        arms: Optional[Sequence[Optional[ExperimentArm]]],
        started: float,
    ) -> Tuple[DecisionResponse, ...]:
        arm_names = (
            [a.name if a is not None else None for a in arms]
            if arms is not None
            else [None] * len(requests)
        )
        table = self._table  # captured once; swaps cannot tear a batch
        if len(requests) < VECTOR_MIN_BATCH:
            if arms is None:
                arms = [None] * len(requests)
            return tuple(
                self._decide_table(r, arm, self.clock())
                for r, arm in zip(requests, arms)
            )
        if table is None:
            return tuple(
                self._fallback(
                    r.session_id, r.predicted_kbps, REASON_NO_TABLE, started, name
                )
                for r, name in zip(requests, arm_names)
            )
        num_levels = table.num_levels
        rows = []  # per request: index into the batch arrays, -1 = malformed
        buffers: list = []
        prevs: list = []
        queries: list = []
        for request in requests:
            query_kbps = request.predicted_kbps
            if request.past_errors:
                err = max(abs(e) for e in request.past_errors)
                query_kbps = query_kbps / (1.0 + err)
            prev = request.prev_level if request.prev_level is not None else 0
            if not 0 <= prev < num_levels:
                rows.append(-1)
                continue
            rows.append(len(buffers))
            buffers.append(request.buffer_s)
            prevs.append(prev)
            queries.append(query_kbps)
        if buffers:
            try:
                levels = table.lookup_batch(buffers, prevs, queries)
            except (IndexError, ValueError):
                # A poisoned value (e.g. NaN) the scalar path degrades per
                # request; re-run scalar so only the bad entries degrade.
                if arms is None:
                    arms = [None] * len(requests)
                return tuple(
                    self._decide_table(r, arm, self.clock())
                    for r, arm in zip(requests, arms)
                )
        else:
            levels = []
        elapsed = self.clock() - started
        over_budget = elapsed > self.config.lookup_budget_s
        latency_us = elapsed * 1e6
        responses = []
        for request, row, arm_name in zip(requests, rows, arm_names):
            if row < 0:
                responses.append(
                    self._fallback(
                        request.session_id,
                        request.predicted_kbps,
                        REASON_MALFORMED,
                        started,
                        arm_name,
                    )
                )
            elif over_budget:
                responses.append(
                    self._fallback(
                        request.session_id,
                        request.predicted_kbps,
                        REASON_OVER_BUDGET,
                        started,
                        arm_name,
                    )
                )
            else:
                level = int(levels[row])
                response = DecisionResponse(
                    session_id=request.session_id,
                    level_index=level,
                    bitrate_kbps=self.ladder[level],
                    source=SOURCE_TABLE,
                    degraded=False,
                    reason=None,
                    server_latency_us=latency_us,
                    arm=arm_name,
                )
                self.metrics.record_decision(
                    SOURCE_TABLE, latency_us, False, None, request.session_id, arm_name
                )
                responses.append(response)
        return tuple(responses)

    def metrics_document(self) -> dict:
        """The full ``/metrics`` JSON document: the counter/histogram
        snapshot plus the shared-prior section (kept out of
        :meth:`ServiceMetrics.snapshot` so the metrics schema stays
        mergeable on its own)."""
        document = self.metrics.snapshot()
        document["priors"] = self.priors.snapshot()
        return document

    def fallback_response(
        self,
        session_id: str,
        predicted_kbps: Optional[float],
        reason: str,
    ) -> DecisionResponse:
        """A degraded fallback decision for an unservable request —
        what the transport answers when it cannot even parse a frame."""
        return self._fallback(session_id, predicted_kbps, reason, self.clock())

    def decide_payload(self, body: bytes) -> DecisionResponse:
        """Decide from a raw request body; malformed input degrades.

        A body that fails protocol validation still gets a response: the
        fallback decision computed from whatever fields are salvageable
        (``session_id`` and ``predicted_kbps`` when present), flagged
        ``degraded`` with reason ``malformed``.
        """
        try:
            request = DecisionRequest.from_json(body)
        except ProtocolError:
            session_id, predicted = _salvage(body)
            return self._fallback(
                session_id, predicted, REASON_MALFORMED, self.clock()
            )
        return self.decide(request)


def _salvage(body: bytes) -> Tuple[str, Optional[float]]:
    """Best-effort ``(session_id, predicted_kbps)`` from a bad payload."""
    try:
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return "unknown", None
    if not isinstance(payload, dict):
        return "unknown", None
    session_id = payload.get("session_id")
    if not isinstance(session_id, str) or not session_id:
        session_id = "unknown"
    predicted = payload.get("predicted_kbps")
    if isinstance(predicted, bool) or not isinstance(predicted, (int, float)):
        predicted = None
    elif not (predicted > 0 and predicted == predicted and predicted != float("inf")):
        predicted = None
    return session_id, float(predicted) if predicted is not None else None


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

_JSON_HEADERS = b"Content-Type: application/json\r\n"
_BINARY_HEADERS = b"Content-Type: " + CONTENT_TYPE_BINARY.encode() + b"\r\n"
_STATUS_LINES = {
    200: b"HTTP/1.1 200 OK\r\n",
    400: b"HTTP/1.1 400 Bad Request\r\n",
    404: b"HTTP/1.1 404 Not Found\r\n",
    405: b"HTTP/1.1 405 Method Not Allowed\r\n",
    413: b"HTTP/1.1 413 Payload Too Large\r\n",
    500: b"HTTP/1.1 500 Internal Server Error\r\n",
}


class DecisionServer:
    """Stdlib asyncio HTTP/1.1 server around a :class:`DecisionService`.

    Routes
    ------
    - ``POST /v1/decide``      one decision per request body
    - ``GET  /metrics``        telemetry snapshot (JSON)
    - ``GET  /healthz``        liveness + table status
    - ``POST /v1/table``       warm/cold table swap (serialized table body)
    - ``GET/POST /v1/experiment``  read / install / clear the A/B config

    Connections are keep-alive by default; a request whose headers or
    body do not arrive within ``request_deadline_s`` closes only that
    connection.  The server binds with ``port=0`` for an ephemeral port
    (see :attr:`bound_port`).

    ``chaos`` hands the server an injected misbehaviour source (see
    :mod:`repro.faults.chaos`): the policy is consulted once per
    ``/v1/decide`` request and the drawn action — connection reset,
    HTTP 500, slow-loris delay, or a mid-flight table swap — is applied
    through the server's own code paths, never by monkeypatching.  Every
    injection is counted under ``chaos_injected`` in ``/metrics``.

    ``tracer`` streams one :class:`repro.obs.RequestSpan` per request
    through the observability layer; independent of the tracer, every
    span is folded into the ``spans_us`` histograms of ``/metrics``.
    Each ``/v1/decide`` request gets a server-assigned trace id, and a
    drawn chaos action is stamped onto the request's span, making chaos
    runs attributable request by request.

    Cluster integration (see :mod:`repro.service.cluster`):
    ``reuse_port`` binds with ``SO_REUSEPORT`` so N worker processes can
    listen on one shared port and let the kernel spread connections;
    ``worker_id`` stamps every request span and ``/healthz`` document
    with the worker's index; ``kill_hook`` is what the ``worker-kill``
    chaos action calls after aborting the connection — a cluster worker
    installs ``os._exit`` there, so the injected crash is a real process
    death the supervisor must repair (with no hook the action only
    aborts the connection).
    """

    def __init__(
        self,
        service: DecisionService,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: Optional[ChaosPolicy] = None,
        tracer: Optional[Tracer] = None,
        reuse_port: bool = False,
        worker_id: Optional[int] = None,
        kill_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.chaos = chaos
        self.tracer = tracer
        self.reuse_port = reuse_port
        self.worker_id = worker_id
        self.kill_hook = kill_hook
        self._trace_seq = 0
        self._stashed_table: Optional[DecisionTable] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        # Micro-batching state: decisions queued by concurrent handler
        # tasks, flushed once per event-loop tick (see _decide_coalesced).
        self._batch_pending: list = []
        self._batch_scheduled = False
        self._backend_reaper: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------------

    async def start(self) -> None:
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
        )
        # Idle backend sessions are reaped on a timer, same rescheduling
        # pattern as the per-connection watchdog: one call_later per
        # window, zero per-request cost.
        loop = asyncio.get_running_loop()
        interval = self.service.config.backend_idle_timeout_s / 2

        def _reap_backends() -> None:
            self.service.evict_idle_backends()
            self._backend_reaper = loop.call_later(interval, _reap_backends)

        self._backend_reaper = loop.call_later(interval, _reap_backends)

    @property
    def bound_port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and tear down every open connection."""
        if self._backend_reaper is not None:
            self._backend_reaper.cancel()
            self._backend_reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = self.service.metrics
        config = self.service.config
        metrics.connections_opened += 1
        metrics.connections_active += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        # Idle reaping via a rescheduled timer instead of wrapping every
        # read in asyncio.wait_for: wait_for spawns a Task per call, which
        # profiles as ~20% of the whole request path at load.  The timer
        # costs one call_later per timeout window, not per request.
        loop = asyncio.get_running_loop()
        last_active = loop.time()

        def _reap() -> None:
            nonlocal watchdog
            idle = loop.time() - last_active
            if idle >= config.idle_timeout_s:
                writer.close()  # wakes any pending read with EOF/reset
            else:
                watchdog = loop.call_later(config.idle_timeout_s - idle, _reap)

        watchdog = loop.call_later(config.idle_timeout_s, _reap)
        try:
            while True:
                try:
                    header_blob = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break  # peer went away or idled out: normal teardown
                except asyncio.LimitOverrunError:
                    metrics.record_error()
                    await self._respond(
                        writer, 400, {"error": "headers too large"}, close=True
                    )
                    break
                try:
                    keep_alive = await self._handle_request(
                        reader, writer, header_blob
                    )
                except (ConnectionResetError, BrokenPipeError, OSError):
                    # Peer reset between headers and body (or while we were
                    # writing the response): close this connection cleanly
                    # and count it — an exception here must never tear down
                    # the handler task uncounted.
                    metrics.record_disconnect()
                    break
                last_active = loop.time()
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown cancels handlers mid-read; ending the task
            # *uncancelled* after cleanup keeps the streams machinery from
            # logging a spurious "exception never retrieved".
            pass
        finally:
            watchdog.cancel()
            if task is not None:
                self._connections.discard(task)
            metrics.connections_active -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        header_blob: bytes,
    ) -> bool:
        metrics = self.service.metrics
        config = self.service.config
        try:
            method, path, headers = _parse_head(header_blob)
        except ValueError:
            metrics.record_error()
            await self._respond(writer, 400, {"error": "malformed request"}, close=True)
            return False

        length = 0
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
            except ValueError:
                metrics.record_error()
                await self._respond(
                    writer, 400, {"error": "bad content-length"}, close=True
                )
                return False
        limit = (
            config.max_table_bytes if path == "/v1/table" else config.max_body_bytes
        )
        if length < 0 or length > limit:
            metrics.record_error()
            await self._respond(writer, 413, {"error": "body too large"}, close=True)
            return False
        body = b""
        if length:
            # Small bodies almost always arrive in the same segment as the
            # headers, so the fast path reads without a deadline wrapper;
            # only a body still in flight pays for asyncio.wait_for.
            buffered = getattr(reader, "_buffer", b"")
            try:
                if len(buffered) >= length:
                    body = await reader.readexactly(length)
                else:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), config.request_deadline_s
                    )
            except asyncio.IncompleteReadError:
                # Peer vanished between headers and body: a disconnect,
                # not a protocol error on our side.
                metrics.record_error()
                metrics.record_disconnect()
                return False  # cannot answer a half-received request
            except asyncio.TimeoutError:
                metrics.record_error()
                return False  # body never arrived within the deadline

        keep_alive = headers.get("connection", "keep-alive").lower() != "close"

        if path == "/v1/decide":
            if method != "POST":
                metrics.record_error()
                await self._respond(writer, 405, {"error": "POST required"})
                return keep_alive
            trace_id = self._next_trace_id()
            started = time.perf_counter()
            action = CHAOS_NONE if self.chaos is None else self.chaos.next_action()
            chaos_tag = None if action == CHAOS_NONE else action
            if action != CHAOS_NONE:
                metrics.record_chaos(action)
                if action == CHAOS_RESET:
                    # Abort the transport outright: the client sees a peer
                    # reset with no response bytes, the failure its retry
                    # path exists for.
                    metrics.record_error()
                    writer.transport.abort()
                    self._finish_span("decide", trace_id, started, "reset", chaos_tag)
                    return False
                if action == CHAOS_ERROR:
                    metrics.record_error()
                    await self._respond(writer, 500, {"error": "injected failure"})
                    self._finish_span(
                        "decide", trace_id, started, "error-500", chaos_tag
                    )
                    return keep_alive
                if action == CHAOS_KILL:
                    # The worker dies mid-request: abort the transport so
                    # the client sees a reset, then fire the kill hook (a
                    # cluster worker exits the process here — the crash
                    # its supervisor exists to repair).  Without a hook
                    # the abort alone stands in for the crash.
                    metrics.record_error()
                    writer.transport.abort()
                    self._finish_span("decide", trace_id, started, "killed", chaos_tag)
                    if self.kill_hook is not None:
                        self.kill_hook()
                    return False
                if action == CHAOS_SLOW:
                    await asyncio.sleep(self.chaos.config.slow_delay_s)
                elif action == CHAOS_TABLE_SWAP:
                    self._chaos_table_swap()
            binary = headers.get("content-type", "") == CONTENT_TYPE_BINARY
            metrics.record_protocol("binary" if binary else "json")
            if binary:
                # Binary exchanges answer in kind — the content type *is*
                # the negotiation (an old JSON-only server would answer
                # the degraded JSON fallback here, which binary clients
                # detect and downgrade on).
                try:
                    requests = decode_request_batch(body)
                except ProtocolError:
                    response = self.service.fallback_response(
                        "unknown", None, REASON_MALFORMED
                    )
                    await self._respond_raw(
                        writer,
                        200,
                        encode_response_batch((response,)),
                        keep_alive,
                        content_type=_BINARY_HEADERS,
                    )
                    self._finish_span(
                        "decide", trace_id, started, "degraded", chaos_tag
                    )
                    return keep_alive
                if len(requests) == 1:
                    responses = (await self._decide_coalesced(requests[0]),)
                else:
                    # A client-built batch is already one flush worth of
                    # work; answer it with one vectorized lookup.
                    responses = self.service.decide_batch(requests)
                await self._respond_raw(
                    writer,
                    200,
                    encode_response_batch(responses),
                    keep_alive,
                    content_type=_BINARY_HEADERS,
                )
                degraded = any(r.degraded for r in responses)
                self._finish_span(
                    "decide",
                    trace_id,
                    started,
                    "degraded" if degraded else "ok",
                    chaos_tag,
                    session_id=responses[0].session_id,
                    arm=responses[0].arm,
                )
                return keep_alive
            try:
                request = DecisionRequest.from_json(body)
            except ProtocolError:
                response = self.service.decide_payload(body)  # salvage path
            else:
                response = await self._decide_coalesced(request)
            await self._respond_raw(writer, 200, response.to_json(), keep_alive)
            self._finish_span(
                "decide",
                trace_id,
                started,
                "degraded" if response.degraded else "ok",
                chaos_tag,
                session_id=response.session_id,
                arm=response.arm,
            )
            return keep_alive
        if path == "/metrics":
            await self._respond(
                writer, 200, self.service.metrics_document(), close=not keep_alive
            )
            return keep_alive
        if path == "/healthz":
            experiment = self.service.experiment
            health = {
                "status": "ok",
                "protocol_version": PROTOCOL_VERSION,
                "binary_protocol": True,  # advertises the opt-in encoding
                "table_loaded": self.service.table_loaded,
                "num_levels": len(self.service.ladder),
                "experiment_arms": (
                    [arm.name for arm in experiment.arms]
                    if experiment is not None
                    else None
                ),
            }
            if self.worker_id is not None:
                health["worker_id"] = self.worker_id
            await self._respond(writer, 200, health, close=not keep_alive)
            return keep_alive
        if path == "/v1/experiment":
            if method == "GET":
                experiment = self.service.experiment
                await self._respond(
                    writer,
                    200,
                    {
                        "experiment": (
                            experiment.to_dict() if experiment is not None else None
                        )
                    },
                    close=not keep_alive,
                )
                return keep_alive
            if method != "POST":
                metrics.record_error()
                await self._respond(writer, 405, {"error": "GET or POST required"})
                return keep_alive
            try:
                payload = json.loads(body) if body else None
            except (ValueError, UnicodeDecodeError):
                metrics.record_error()
                await self._respond(writer, 400, {"error": "body is not valid JSON"})
                return keep_alive
            try:
                if payload is None or payload == {} or (
                    isinstance(payload, dict) and payload.get("arms") is None
                ):
                    # An empty body (or explicit null arms) turns the
                    # experiment off — all traffic back to the table.
                    self.service.set_experiment(None)
                else:
                    self.service.set_experiment(ExperimentConfig.from_dict(payload))
            except ValueError as exc:
                metrics.record_error()
                await self._respond(writer, 400, {"error": f"bad experiment: {exc}"})
                return keep_alive
            experiment = self.service.experiment
            await self._respond(
                writer,
                200,
                {
                    "experiment": (
                        experiment.to_dict() if experiment is not None else None
                    )
                },
                close=not keep_alive,
            )
            return keep_alive
        if path == "/v1/table":
            if method != "POST":
                metrics.record_error()
                await self._respond(writer, 405, {"error": "POST required"})
                return keep_alive
            swap_started = time.perf_counter()
            try:
                table = DecisionTable.from_bytes(
                    body, max_bytes=config.max_table_bytes
                )
                self.service.swap_table(table)
            except (ValueError, IndexError, struct_error) as exc:
                metrics.record_error()
                await self._respond(writer, 400, {"error": f"bad table: {exc}"})
                self._finish_span(
                    "table-swap", self._next_trace_id(), swap_started, "bad-table", None
                )
                return keep_alive
            self._finish_span(
                "table-swap", self._next_trace_id(), swap_started, "ok", None
            )
            await self._respond(
                writer,
                200,
                {"swapped": True, "num_entries": table.num_entries},
                close=not keep_alive,
            )
            return keep_alive

        metrics.record_error()
        await self._respond(writer, 404, {"error": f"no route {path}"})
        return keep_alive

    # ------------------------------------------------------------------
    # Micro-batching
    # ------------------------------------------------------------------

    async def _decide_coalesced(self, request: DecisionRequest) -> DecisionResponse:
        """Queue one decision and await the tick's shared batch flush.

        Concurrent handler tasks that reach this point in the same
        event-loop tick land in one pending list; the first of them
        schedules a ``call_soon`` flush, which answers the whole batch
        with a single vectorized :meth:`DecisionService.decide_batch`
        call.  Under low concurrency the batch has one element and the
        behaviour (including budget handling) matches the scalar path;
        under load the batch grows to the number of in-flight requests —
        visible as the ``batch_occupancy`` histogram in ``/metrics``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._batch_pending.append((request, future))
        if not self._batch_scheduled:
            self._batch_scheduled = True
            loop.call_soon(self._flush_batch)
        return await future

    def _flush_batch(self) -> None:
        pending, self._batch_pending = self._batch_pending, []
        self._batch_scheduled = False
        if not pending:  # pragma: no cover - flush raced an empty queue
            return
        started = time.perf_counter()
        responses = self.service.decide_batch([r for r, _ in pending])
        wall_s = time.perf_counter() - started
        self.service.metrics.record_span("decide-batch", wall_s * 1e6)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                SolverCall(
                    session_id="",
                    t_mono=tracer.now(),
                    op="service-micro-batch",
                    instances=len(pending),
                    plans=0,
                    wall_s=wall_s,
                )
            )
        for (_, future), response in zip(pending, responses):
            if not future.done():  # the connection may have been torn down
                future.set_result(response)

    # ------------------------------------------------------------------

    def _next_trace_id(self) -> str:
        self._trace_seq += 1
        return f"t-{self._trace_seq:08d}"

    def _finish_span(
        self,
        name: str,
        trace_id: str,
        started: float,
        status: str,
        chaos: Optional[str],
        session_id: str = "",
        arm: Optional[str] = None,
    ) -> None:
        """Record one request span into /metrics and (if on) the tracer."""
        wall_s = time.perf_counter() - started
        self.service.metrics.record_span(name, wall_s * 1e6)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                RequestSpan(
                    session_id=session_id,
                    t_mono=tracer.now(),
                    trace_id=trace_id,
                    name=name,
                    wall_s=wall_s,
                    status=status,
                    chaos=chaos,
                    worker=self.worker_id,
                    arm=arm,
                )
            )

    def _chaos_table_swap(self) -> None:
        """Flip the service's table state mid-flight (injected).

        Unloads the active table (stashing it) or restores the stashed
        one — both through the service's own swap path, so the exercise
        is exactly the operational warm/cold swap under live traffic.
        """
        if self.service.table_loaded:
            self._stashed_table = self.service.table
            self.service.unload_table()
        elif self._stashed_table is not None:
            table, self._stashed_table = self._stashed_table, None
            self.service.swap_table(table)

    # ------------------------------------------------------------------

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict, close: bool = False
    ) -> None:
        await self._respond_raw(
            writer,
            status,
            json.dumps(payload, separators=(",", ":")).encode(),
            not close,
        )

    async def _respond_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        content_type: bytes = _JSON_HEADERS,
    ) -> None:
        head = (
            _STATUS_LINES[status]
            + content_type
            + b"Content-Length: %d\r\n" % len(body)
            + (b"Connection: keep-alive\r\n" if keep_alive else b"Connection: close\r\n")
            + b"\r\n"
        )
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            self.service.metrics.record_disconnect()


def _parse_head(blob: bytes) -> Tuple[str, str, dict]:
    """Parse the request line + headers; raises ValueError when invalid."""
    try:
        text = blob.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ValueError(str(exc)) from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"bad request line {lines[0]!r}")
    method, target = parts[0], parts[1]
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    # Strip any query string; routes are path-only.
    path = target.split("?", 1)[0]
    return method, path, headers
