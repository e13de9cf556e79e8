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

* :class:`DecisionServer` — a stdlib-only HTTP/1.1 front end with one
  :class:`asyncio.Protocol` per keep-alive connection, which answers
  each request inside the event-loop callback that completed it, and
  warm/cold table swapping: ``POST /v1/table`` installs a new table
  between requests with one reference assignment, so in-flight
  connections keep streaming decisions and never drop.

The single-threaded event loop is what makes the swap trivially safe:
``decide`` captures the table reference once per request, and the
reference flip happens between callbacks, never during one.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from struct import error as struct_error
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.table import DecisionTable
from ..obs.events import RequestSpan
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
    RequestBatch,
    ResponseBatch,
    decode_request_batch,
    encode_response_batch,
)

__all__ = ["ServiceConfig", "DecisionService", "DecisionServer"]

#: Degradation reasons carried in responses and counted in /metrics.
REASON_NO_TABLE = "no-table"
REASON_MALFORMED = "malformed"
REASON_OVER_BUDGET = "over-budget"

#: Batches under this size are answered by the scalar decide path, one
#: request at a time; larger ones by column (DecisionService.decide_batch).
#: From decode to encode a frame costs about 35 us plus 1.2 us per record
#: by column and about 7.5 us per record on the scalar path (2-vCPU host),
#: so columns win from about 5 records; JSON bodies and small frames keep
#: the scalar path's per-request budget and latencies.
VECTOR_MIN_BATCH = 64


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of the decision service.

    ``lookup_budget_s`` bounds the time the table path may take before
    the response is downgraded to the rate-based fallback — the service
    promises a decision in bounded time even if a pathological table or
    a cold page makes the lookup slow.  ``request_deadline_s`` bounds
    how long the server waits for a request's body once its head has
    arrived before closing the connection; ``idle_timeout_s`` reaps
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
        # ``0 < t < inf`` also refuses NaN, which passes a ``t <= 0`` test.
        if not 0.0 < self.lookup_budget_s < math.inf:
            raise ValueError("lookup budget must be a finite number > 0")
        if not (
            0.0 < self.request_deadline_s < math.inf
            and 0.0 < self.idle_timeout_s < math.inf
        ):
            raise ValueError("deadlines must be finite numbers > 0")
        if self.max_body_bytes < 1 or self.max_table_bytes < 1:
            raise ValueError("body limits must be positive")
        if self.backend_max_sessions < 1:
            raise ValueError("backend_max_sessions must be positive")
        if not (
            0.0 < self.backend_idle_timeout_s < math.inf
            and 0.0 < self.backend_chunk_duration_s < math.inf
            and 0.0 < self.backend_buffer_capacity_s < math.inf
        ):
            raise ValueError("backend timings must be finite numbers > 0")
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
        self._ladder_kbps = np.array(tuple(self.ladder), dtype=np.float64)
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
        prior_kbps: Optional[float] = None,
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
            prior_kbps=prior_kbps,
        )
        self.metrics.record_decision(
            SOURCE_FALLBACK, latency_us, True, reason, session_id, arm
        )
        return response

    def _answer(
        self,
        request: DecisionRequest,
        level: int,
        source: str,
        latency_us: float,
        arm: Optional[str],
        prior_kbps: Optional[float],
    ) -> DecisionResponse:
        """The non-degraded answer at ``level``, recorded in /metrics."""
        response = DecisionResponse(
            session_id=request.session_id,
            level_index=level,
            bitrate_kbps=self.ladder[level],
            source=source,
            degraded=False,
            reason=None,
            server_latency_us=latency_us,
            arm=arm,
            prior_kbps=prior_kbps,
        )
        self.metrics.record_decision(
            source, latency_us, False, None, request.session_id, arm
        )
        return response

    def _answer_in_budget(
        self,
        request: DecisionRequest,
        level: int,
        source: str,
        started: float,
        arm: Optional[str],
        prior_kbps: Optional[float],
    ) -> DecisionResponse:
        """``level``'s answer, or the fallback when finding it took longer
        than the lookup budget."""
        elapsed = self.clock() - started
        if elapsed > self.config.lookup_budget_s:
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_OVER_BUDGET,
                started,
                arm,
                prior_kbps,
            )
        return self._answer(request, level, source, elapsed * 1e6, arm, prior_kbps)

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        """Answer one well-formed request; never raises.

        With an experiment installed the session's arm picks the path:
        table arms run the table lookup below, controller arms run their
        stateful backend.  Both inherit the same degradation policy —
        any failure or budget overrun falls back to the rate-based rule,
        still labelled with the session's arm.
        """
        prior = self._prior(request.family, request.predicted_kbps)
        started = self.clock()
        arm = self.assign_arm(request.session_id)
        if arm is not None and arm.controller != CONTROLLER_TABLE:
            return self._decide_controller(request, arm, started, prior)
        return self._decide_table(
            request, arm.name if arm is not None else None, started, prior
        )

    def _prior(
        self, family: Optional[str], predicted_kbps: float
    ) -> Optional[float]:
        """Fold a family-keyed request into the shared prior store and
        return the ``prior_kbps`` its response carries.

        The estimate is read *before* the request's own sample is
        folded in, so the response carries the pooled view of the
        family's earlier sessions — ``None`` for the family's very
        first request, and for requests without a family.  Callers run
        it ahead of the lookup budget's clock, in request order.
        """
        if family is None:
            return None
        prior = self.priors.estimate(family)
        self.priors.observe(family, predicted_kbps)
        return prior

    def _decide_table(
        self,
        request: DecisionRequest,
        arm: Optional[str],
        started: float,
        prior: Optional[float],
    ) -> DecisionResponse:
        table = self._table  # captured once; swaps cannot tear a request
        if table is None:
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_NO_TABLE,
                started,
                arm,
                prior,
            )
        prev = request.prev_level if request.prev_level is not None else 0
        try:
            level = table.lookup(request.buffer_s, prev, _query_kbps(request))
        except (IndexError, ValueError):
            # e.g. prev_level beyond the ladder: recoverable, not fatal.
            return self._fallback(
                request.session_id,
                request.predicted_kbps,
                REASON_MALFORMED,
                started,
                arm,
                prior,
            )
        return self._answer_in_budget(
            request, level, SOURCE_TABLE, started, arm, prior
        )

    def _decide_controller(
        self,
        request: DecisionRequest,
        arm: ExperimentArm,
        started: float,
        prior: Optional[float],
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
                prior,
            )
        return self._answer_in_budget(
            request, level, SOURCE_CONTROLLER, started, arm.name, prior
        )

    def decide_batch(
        self, requests: Sequence[DecisionRequest]
    ) -> Sequence[DecisionResponse]:
        """Answer a batch of requests; the server's one decide path.

        Every ``/v1/decide`` exchange lands here once: a JSON body as a
        batch of one, a binary frame with all its records.  Decision
        *content* (level, source, degraded, reason, arm) is identical to
        calling :meth:`decide` per request.  Each call counts its size in
        the ``batch_occupancy`` histogram of ``/metrics``.

        Batches under :data:`VECTOR_MIN_BATCH` are answered by
        :meth:`decide`, one request at a time, as a tuple.  Larger ones
        are answered by column (see :meth:`_decide_columns`) as a
        :class:`~repro.service.protocol.ResponseBatch`, which builds a
        response only when indexed; two intended differences there: the
        lookup budget is judged on the whole batch's elapsed time, and
        every table row reports the batch's latency.
        """
        if len(requests) < VECTOR_MIN_BATCH:
            self.metrics.record_batch(len(requests))
            return tuple(map(self.decide, requests))
        return self._decide_columns(RequestBatch.of(requests))

    def _decide_columns(self, batch: RequestBatch) -> ResponseBatch:
        """Answer a batch from its columns.

        One validity mask degrades, as ``malformed``, every row whose
        previous level is outside the ladder or whose buffer, prediction
        or past errors are not finite; then one ``lookup_batch`` answers
        the valid rows, one budget check judges the batch, and one
        :meth:`ServiceMetrics.record_decisions` call counts its table
        rows.  With an experiment installed, rows on controller arms are
        answered one by one by their stateful backends, exactly as
        :meth:`decide` answers them.
        """
        n = len(batch)
        session_ids = batch.session_ids
        if batch.families is None:
            priors: list = [None] * n
        else:
            priors = list(map(self._prior, batch.families, batch.predicted_kbps))
        started = self.clock()
        self.metrics.record_batch(n)
        arms: list = [None] * n
        answered = {}  # row -> a controller arm's answer
        if self._experiment is not None:
            for row, session_id in enumerate(session_ids):
                arm = self._experiment.assign(session_id)
                arms[row] = arm.name
                if arm.controller != CONTROLLER_TABLE:
                    answered[row] = self._decide_controller(
                        batch[row], arm, self.clock(), priors[row]
                    )
        predicted = np.array(batch.predicted_kbps, dtype=np.float64)
        table = self._table  # captured once; swaps cannot tear a batch
        all_valid = False
        if table is not None:
            buffers = np.array(batch.buffers_s, dtype=np.float64)
            prevs = np.array(batch.prev_levels, dtype=np.int64)
            errors = _max_abs_errors(batch)
            valid = (
                np.isfinite(buffers)
                & np.isfinite(predicted)
                & np.isfinite(errors)
                & (prevs < table.num_levels)
            )
            if answered:
                valid[list(answered)] = False
            all_valid = bool(valid.all())  # the common frame: no row to pick
            rows = slice(None) if all_valid else np.flatnonzero(valid)
            found = table.lookup_batch(
                buffers[rows],
                np.maximum(prevs[rows], 0),
                predicted[rows] / (1.0 + errors[rows]),
            )
        elapsed = self.clock() - started
        latency_us = elapsed * 1e6
        in_budget = table is not None and elapsed <= self.config.lookup_budget_s
        if table is None:
            reasons = [REASON_NO_TABLE] * n
        else:
            healthy = None if in_budget else REASON_OVER_BUDGET
            if all_valid:
                reasons = [healthy] * n
            else:
                reasons = [healthy if ok else REASON_MALFORMED for ok in valid.tolist()]
        if in_budget and all_valid:
            levels = found
        else:
            levels = self._fallback_levels(predicted)
            if in_budget:
                levels[rows] = found
        sources = [
            SOURCE_TABLE if reason is None else SOURCE_FALLBACK for reason in reasons
        ]
        if answered:
            table_rows = [row for row in range(n) if row not in answered]
            self.metrics.record_decisions(
                [session_ids[row] for row in table_rows],
                [sources[row] for row in table_rows],
                [reasons[row] for row in table_rows],
                [arms[row] for row in table_rows],
                latency_us,
            )
        else:
            self.metrics.record_decisions(
                session_ids, sources, reasons, arms, latency_us
            )
        responses = ResponseBatch(
            session_ids,
            levels.tolist(),
            self._ladder_kbps[levels].tolist(),
            sources,
            [reason is not None for reason in reasons],
            reasons,
            [latency_us] * n,
            arms,
            priors,
        )
        for row, response in answered.items():
            responses.level_indices[row] = response.level_index
            responses.bitrates_kbps[row] = response.bitrate_kbps
            responses.sources[row] = response.source
            responses.degraded[row] = response.degraded
            responses.reasons[row] = response.reason
            responses.latencies_us[row] = response.server_latency_us
        return responses

    def _fallback_levels(self, predicted_kbps: np.ndarray) -> np.ndarray:
        """:meth:`_fallback`'s level for each prediction: the highest
        ladder rate at most it, and level 0 when it is not positive."""
        levels = np.searchsorted(self._ladder_kbps, predicted_kbps, side="right") - 1
        return np.where(predicted_kbps > 0, np.maximum(levels, 0), 0)

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


def _query_kbps(request: DecisionRequest) -> float:
    """The table's throughput query: RobustMPC's lower bound
    ``C_hat / (1 + err)`` when the request carries past errors — valid
    on the table because its throughput axis is the MPC input.

    Raises ``ValueError`` when the buffer, the prediction or any past
    error is not finite: the request is malformed, whatever the
    position of the bad value.
    """
    errors = request.past_errors
    if not (
        math.isfinite(request.buffer_s)
        and math.isfinite(request.predicted_kbps)
        and all(map(math.isfinite, errors))
    ):
        raise ValueError("request inputs must be finite")
    if not errors:
        return request.predicted_kbps
    return request.predicted_kbps / (1.0 + max(map(abs, errors)))


def _max_abs_errors(batch: RequestBatch) -> np.ndarray:
    """``max |err|`` over each row's past errors, 0 for an empty window.

    NaN or infinite when any of the row's errors is: ``maximum``
    propagates NaN wherever it sits, unlike the builtin ``max``.
    """
    bounds = np.array(batch.error_bounds)
    starts = bounds[:-1]
    largest = np.zeros(len(starts))
    if batch.past_errors.size:
        rows = (bounds[1:] > starts).nonzero()[0]
        largest[rows] = np.maximum.reduceat(np.abs(batch.past_errors), starts[rows])
    return largest


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

#: Longest request head (request line and headers, without the blank
#: line that ends it) a connection buffers; a longer one is answered 400
#: ``headers too large`` whether or not its end has arrived.  The same
#: limit ``asyncio.StreamReader`` applies by default.
MAX_HEAD_BYTES = 64 * 1024
_HEAD_END = b"\r\n\r\n"

_JSON_HEADERS = b"Content-Type: application/json\r\n"
_BINARY_HEADERS = b"Content-Type: " + CONTENT_TYPE_BINARY.encode() + b"\r\n"
_KEEP_ALIVE = b"Connection: keep-alive\r\n\r\n"
_CLOSE = b"Connection: close\r\n\r\n"
_STATUS_LINES = {
    200: b"HTTP/1.1 200 OK\r\n",
    400: b"HTTP/1.1 400 Bad Request\r\n",
    404: b"HTTP/1.1 404 Not Found\r\n",
    405: b"HTTP/1.1 405 Method Not Allowed\r\n",
    413: b"HTTP/1.1 413 Payload Too Large\r\n",
    500: b"HTTP/1.1 500 Internal Server Error\r\n",
    501: b"HTTP/1.1 501 Not Implemented\r\n",
}


class DecisionServer:
    """Stdlib asyncio HTTP/1.1 server around a :class:`DecisionService`.

    Routes
    ------
    - ``POST /v1/decide``      one JSON decision or one binary frame of
      decisions per request body, answered inside its own exchange
    - ``GET  /metrics``        telemetry snapshot (JSON)
    - ``GET  /healthz``        liveness + table status
    - ``POST /v1/table``       warm/cold table swap (serialized table body)
    - ``GET/POST /v1/experiment``  read / install / clear the A/B config

    Each connection is one :class:`asyncio.Protocol` (see
    :class:`_Connection`): the callback that completes a request also
    routes it and writes its answer, so an exchange costs one pass of the
    event loop and no Task.  Connections are keep-alive by default; a
    body that does not arrive within ``request_deadline_s`` of its head
    closes only that connection.  The server binds with ``port=0`` for an
    ephemeral port (see :attr:`bound_port`).

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
        self._backend_reaper: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port, **kwargs
        )
        # Idle backend sessions are reaped on a timer, same rescheduling
        # pattern as the per-connection idle reaper: one call_later per
        # window, zero per-request cost.
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
        """Stop listening and tear down every open connection.

        A shutdown is not a failure: closing a connection mid-request
        here counts neither a reset nor an error.
        """
        if self._backend_reaper is not None:
            self._backend_reaper.cancel()
            self._backend_reaper = None
        if self._server is not None:
            self._server.close()
        while self._connections:
            for connection in list(self._connections):
                connection.shut_down()
            # Each abort schedules its connection_lost with call_soon; one
            # pass of the loop runs them, and the connection_made of any
            # connection accepted just before the listener closed.
            await asyncio.sleep(0)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.close()

    # ------------------------------------------------------------------
    # Routes: each answers its exchange through ``connection`` before it
    # returns, except a slow-chaos decide, which holds its connection.
    # ------------------------------------------------------------------

    def _route(
        self,
        connection: "_Connection",
        method: str,
        path: str,
        headers: dict,
        body: bytes,
    ) -> None:
        metrics = self.service.metrics
        if path == "/v1/decide":
            if method != "POST":
                metrics.record_error()
                connection.respond(405, {"error": "POST required"})
            else:
                self._decide(connection, headers, body)
            return
        if path == "/metrics":
            connection.respond(200, self.service.metrics_document())
            return
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
            connection.respond(200, health)
            return
        if path == "/v1/experiment":
            self._experiment(connection, method, body)
            return
        if path == "/v1/table":
            self._swap_table(connection, method, body)
            return
        metrics.record_error()
        connection.respond(404, {"error": f"no route {path}"})

    def _decide(self, connection: "_Connection", headers: dict, body: bytes) -> None:
        metrics = self.service.metrics
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
                connection.abort()
                self._finish_span("decide", trace_id, started, "reset", chaos_tag)
                return
            if action == CHAOS_ERROR:
                metrics.record_error()
                connection.respond(500, {"error": "injected failure"})
                self._finish_span("decide", trace_id, started, "error-500", chaos_tag)
                return
            if action == CHAOS_KILL:
                # The worker dies mid-request: abort the transport so
                # the client sees a reset, then fire the kill hook (a
                # cluster worker exits the process here — the crash
                # its supervisor exists to repair).  Without a hook
                # the abort alone stands in for the crash.
                metrics.record_error()
                connection.abort()
                self._finish_span("decide", trace_id, started, "killed", chaos_tag)
                if self.kill_hook is not None:
                    self.kill_hook()
                return
            if action == CHAOS_SLOW:
                # Only this connection waits: the rest of the exchange
                # runs from a timer, and other connections keep going.
                connection.hold(
                    self.chaos.config.slow_delay_s,
                    lambda: self._answer_decide(
                        connection, headers, body, trace_id, started, chaos_tag
                    ),
                )
                return
            if action == CHAOS_TABLE_SWAP:
                self._chaos_table_swap()
        self._answer_decide(connection, headers, body, trace_id, started, chaos_tag)

    def _answer_decide(
        self,
        connection: "_Connection",
        headers: dict,
        body: bytes,
        trace_id: str,
        started: float,
        chaos_tag: Optional[str],
    ) -> None:
        binary = headers.get("content-type", "") == CONTENT_TYPE_BINARY
        self.service.metrics.record_protocol("binary" if binary else "json")
        try:
            requests = (
                decode_request_batch(body)
                if binary
                else (DecisionRequest.from_json(body),)
            )
        except ProtocolError:
            # An unparseable body still gets one degraded answer; a
            # JSON body's salvageable fields shape it.
            salvaged = ("unknown", None) if binary else _salvage(body)
            responses = (
                self.service.fallback_response(*salvaged, REASON_MALFORMED),
            )
        else:
            responses = self.service.decide_batch(requests)
        if binary:
            # Binary exchanges answer in kind — the content type *is*
            # the negotiation.
            answers = ResponseBatch.of(responses)
            connection.respond_raw(
                200, encode_response_batch(answers), _BINARY_HEADERS
            )
            degraded = any(answers.degraded)
            session_id, arm = answers.session_ids[0], answers.arms[0]
        else:
            answer = responses[0]
            connection.respond_raw(200, answer.to_json())
            degraded, session_id, arm = answer.degraded, answer.session_id, answer.arm
        self._finish_span(
            "decide",
            trace_id,
            started,
            "degraded" if degraded else "ok",
            chaos_tag,
            session_id=session_id,
            arm=arm,
        )

    def _experiment(
        self, connection: "_Connection", method: str, body: bytes
    ) -> None:
        metrics = self.service.metrics
        if method == "POST":
            try:
                payload = json.loads(body) if body else None
            except (ValueError, UnicodeDecodeError):
                metrics.record_error()
                connection.respond(400, {"error": "body is not valid JSON"})
                return
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
                connection.respond(400, {"error": f"bad experiment: {exc}"})
                return
        elif method != "GET":
            metrics.record_error()
            connection.respond(405, {"error": "GET or POST required"})
            return
        experiment = self.service.experiment
        connection.respond(
            200,
            {"experiment": experiment.to_dict() if experiment is not None else None},
        )

    def _swap_table(
        self, connection: "_Connection", method: str, body: bytes
    ) -> None:
        metrics = self.service.metrics
        if method != "POST":
            metrics.record_error()
            connection.respond(405, {"error": "POST required"})
            return
        swap_started = time.perf_counter()
        try:
            table = DecisionTable.from_bytes(
                body, max_bytes=self.service.config.max_table_bytes
            )
            self.service.swap_table(table)
        except (ValueError, IndexError, struct_error) as exc:
            metrics.record_error()
            connection.respond(400, {"error": f"bad table: {exc}"})
            self._finish_span(
                "table-swap", self._next_trace_id(), swap_started, "bad-table", None
            )
            return
        self._finish_span("table-swap", self._next_trace_id(), swap_started, "ok", None)
        connection.respond(200, {"swapped": True, "num_entries": table.num_entries})

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


class _Connection(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection of a :class:`DecisionServer`.

    ``data_received`` appends to a buffer and answers every complete
    request in it, in order, each with one ``transport.write``, before
    it returns.  A head is parsed once, even when its body arrives over
    several segments; the body is then framed by its Content-Length.

    Two timers per connection: the idle reaper (rescheduled, so it costs
    one ``call_later`` per ``idle_timeout_s`` window, not per request)
    and a body deadline armed only while a body is in flight.  When the
    transport's write buffer passes its high-water mark, the connection
    stops answering and stops reading until the buffer drains, so a
    client that never reads cannot make the server buffer its answers.
    A ``slow`` chaos action holds just this connection on a timer.

    Counted failures: a body cut off by the peer (EOF, reset or idle
    reap) is one error and one reset; a body past its deadline is one
    error; a reset while an answer is held or waiting to be written is
    one reset.  :meth:`DecisionServer.close` counts none of these.
    """

    def __init__(self, server: DecisionServer) -> None:
        self._server = server
        self._metrics = server.service.metrics
        self._config = server.service.config
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        #: Where the search for the end of the next head resumes.
        self._scanned = 0
        #: ``(method, path, headers, length)`` of a head whose body is due.
        self._request: Optional[tuple] = None
        self._keep_alive = True
        self._last_active = 0.0
        self._idle_timer: Optional[asyncio.TimerHandle] = None
        self._body_timer: Optional[asyncio.TimerHandle] = None
        #: The timer finishing a slow-chaos exchange; no dispatch meanwhile.
        self._held: Optional[asyncio.TimerHandle] = None
        self._writing_paused = False
        self._eof = False
        self._shutting_down = False

    # ------------------------------------------------------------------
    # asyncio.Protocol callbacks
    # ------------------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._metrics.connections_opened += 1
        self._metrics.connections_active += 1
        self._server._connections.add(self)
        self._last_active = self._loop.time()
        self._idle_timer = self._loop.call_later(
            self._config.idle_timeout_s, self._reap
        )

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._process()

    def eof_received(self) -> bool:
        self._eof = True
        self._process()
        return True  # _process closes once the buffered answers are out

    def connection_lost(self, exc: Optional[Exception]) -> None:
        for timer in (self._idle_timer, self._body_timer, self._held):
            if timer is not None:
                timer.cancel()
        self._server._connections.discard(self)
        metrics = self._metrics
        metrics.connections_active -= 1
        if self._shutting_down:
            return
        if self._request is not None:
            # The peer vanished between head and body: this request can
            # never be answered.
            metrics.record_error()
            metrics.record_disconnect()
        elif exc is not None and (self._held is not None or self._writing_paused):
            metrics.record_disconnect()  # reset with an answer still owed

    def pause_writing(self) -> None:
        self._writing_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._transport.resume_reading()
        self._process()

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------

    def _process(self) -> None:
        """Answer every complete request in the buffer, in order."""
        buffer = self._buffer
        transport = self._transport
        while not (
            self._held is not None or self._writing_paused or transport.is_closing()
        ):
            request = self._request
            if request is None:
                end = buffer.find(_HEAD_END, self._scanned)
                if end < 0 and len(buffer) - 3 <= MAX_HEAD_BYTES:
                    self._scanned = max(0, len(buffer) - 3)
                    break
                if end < 0 or end > MAX_HEAD_BYTES:
                    self._refuse(400, "headers too large")
                    return
                request = self._frame_head(buffer[:end])
                del buffer[: end + 4]
                self._scanned = 0
                if request is None:
                    return
                self._request = request
            method, path, headers, length = request
            if len(buffer) < length:
                if self._body_timer is None:
                    self._body_timer = self._loop.call_later(
                        self._config.request_deadline_s, self._body_expired
                    )
                break
            body = bytes(buffer[:length])
            del buffer[:length]
            self._request = None
            if self._body_timer is not None:
                self._body_timer.cancel()
                self._body_timer = None
            self._keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            self._server._route(self, method, path, headers, body)
            if self._held is None:
                self._exchange_done()
        if self._eof and self._held is None and not self._writing_paused:
            transport.close()

    def _frame_head(self, blob: bytearray) -> Optional[tuple]:
        """The parsed head, or ``None`` after refusing it.

        A body is framed by Content-Length alone (RFC 9112 §6.3): its
        value must be at most 18 ASCII digits (spaces and tabs around
        them are stripped), and repeated Content-Length fields must
        agree, or the head is refused 400.  Eighteen digits exceed every
        body limit, and ``int()`` refuses more than 4,300.  This server
        implements no transfer coding, so a head naming one is refused
        501 (RFC 9112 §6.1).  Both close the connection: where this
        head's body ends is unknown.
        """
        try:
            method, path, headers = _parse_head(blob)
        except ValueError:
            self._refuse(400, "malformed request")
            return None
        if "transfer-encoding" in headers:
            self._refuse(501, "transfer-encoding not supported")
            return None
        length = 0
        raw_length = headers.get("content-length")
        if raw_length is not None:
            digits = raw_length.isascii() and raw_length.isdigit()
            if not digits or len(raw_length) > 18:
                self._refuse(400, "bad content-length")
                return None
            length = int(raw_length)
        config = self._config
        limit = (
            config.max_table_bytes if path == "/v1/table" else config.max_body_bytes
        )
        if length < 0 or length > limit:
            self._refuse(413, "body too large")
            return None
        return method, path, headers, length

    def _exchange_done(self) -> None:
        self._last_active = self._loop.time()
        if not self._keep_alive:
            self._transport.close()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _reap(self) -> None:
        idle = self._loop.time() - self._last_active
        timeout = self._config.idle_timeout_s
        if idle < timeout:
            self._idle_timer = self._loop.call_later(timeout - idle, self._reap)
            return
        self._idle_timer = None
        if self._writing_paused:
            self._transport.abort()  # its answers would never drain
        else:
            self._transport.close()

    def _body_expired(self) -> None:
        self._body_timer = None
        self._request = None  # counted here, not as a disconnect
        self._metrics.record_error()
        self._transport.close()

    def hold(self, delay_s: float, finish: Callable[[], None]) -> None:
        """Run ``finish`` (the rest of this exchange) after ``delay_s``;
        until then this connection dispatches nothing more."""
        self._held = self._loop.call_later(delay_s, self._release, finish)

    def _release(self, finish: Callable[[], None]) -> None:
        self._held = None
        finish()
        self._exchange_done()
        self._process()

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------

    def respond(self, status: int, payload: dict) -> None:
        self.respond_raw(status, json.dumps(payload, separators=(",", ":")).encode())

    def respond_raw(
        self, status: int, body: bytes, content_type: bytes = _JSON_HEADERS
    ) -> None:
        self._transport.write(
            _STATUS_LINES[status]
            + content_type
            + b"Content-Length: %d\r\n" % len(body)
            + (_KEEP_ALIVE if self._keep_alive else _CLOSE)
            + body
        )

    def _refuse(self, status: int, error: str) -> None:
        """Answer a request that cannot be framed, then close."""
        self._metrics.record_error()
        self._keep_alive = False
        self.respond(status, {"error": error})
        self._transport.close()

    def abort(self) -> None:
        self._transport.abort()

    def shut_down(self) -> None:
        self._shutting_down = True
        self._transport.abort()


def _parse_head(blob: bytes) -> Tuple[str, str, dict]:
    """Parse the request line + headers; raises ValueError when invalid.

    An empty header name, or one with whitespace around it
    (``Content-Length :``, a folded continuation line), is invalid (RFC
    9112 §5.1, §5.2).  A value loses the spaces and tabs around it, and
    nothing else (OWS, RFC 9110 §5.5).  A repeated header keeps its last
    value, except Content-Length: values that differ are joined with
    commas (RFC 9110 §5.3), which no digit check accepts, so the head
    cannot be framed two ways.
    """
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
        if not sep or not name or name != name.strip():
            raise ValueError(f"bad header line {line!r}")
        name = name.lower()
        value = value.strip(" \t")
        if name == "content-length" and headers.get(name, value) != value:
            value = headers[name] + "," + value
        headers[name] = value
    # Strip any query string; routes are path-only.
    path = target.split("?", 1)[0]
    return method, path, headers
