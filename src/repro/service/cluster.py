"""Multi-process sharded decision service (the scale-out tier).

One asyncio :class:`~repro.service.server.DecisionServer` process caps
warm FastMPC throughput at a single core.  The paper's Section 5 design
makes the hot path trivially shardable — the decision table is immutable
and position-independent once serialized — so this module scales it the
way CDN-scale table-serving deployments do:

* **One table file, N readers.**  The supervisor publishes the decision
  table to disk once (:func:`repro.experiments.persistence.publish_table`)
  and every worker loads it through
  :meth:`~repro.core.table.DecisionTable.from_bytes` into its own copy of
  the runs (about 9 bytes per run), with no coordination.  The load
  checks the blob's structure — lengths, run order, index space, ladder
  indices — so a corrupt file stops the worker before it serves.

* **Kernel-level sharding.**  The supervisor reserves the public
  host:port with a bound ``SO_REUSEPORT`` placeholder, forks its workers
  onto that port, and the kernel spreads incoming connections across
  their listening sockets.  A host that refuses ``SO_REUSEPORT`` gets a
  :class:`ClusterError` from :meth:`ClusterSupervisor.start`.

* **Supervision.**  Each worker holds a duplex control pipe to the
  supervisor: readiness, ping/pong health checks, and per-worker metrics
  snapshots travel over it.  A dead worker (crash, ``worker-kill``
  chaos, SIGKILL) is detected by the monitor loop and restarted with
  seeded exponential backoff — the same
  :class:`~repro.service.client.RetryPolicy` backoff machinery the
  fault-injection layer hardened the client with.

* **Cluster-wide telemetry.**  The supervisor serves its own control
  endpoint: ``GET /metrics`` aggregates every worker's snapshot —
  counter sums plus lossless fixed-bucket histogram merges
  (:func:`~repro.service.metrics.merge_metrics_snapshots`) — and
  ``GET /healthz`` reports per-worker liveness and restart counts.

Everything is standard library.  See ``docs/scaling.md`` for the
operational model and ``tests/service/test_cluster.py`` /
``benchmarks/test_perf_cluster.py`` for the scale-test harness.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import random
import signal
import socket
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.chaos import ChaosConfig, ChaosPolicy
from .client import RetryPolicy
from .experiment import ExperimentConfig
from .metrics import ServiceMetrics, merge_metrics_snapshots
from .prior import merge_prior_snapshots
from .server import DecisionServer, DecisionService, ServiceConfig, _parse_head

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterSupervisor",
    "WorkerSpec",
    "KILLED_BY_CHAOS_EXIT",
]

#: Exit code a worker uses when the ``worker-kill`` chaos action fires.
KILLED_BY_CHAOS_EXIT = 73

#: Per-worker chaos seeds are derived as ``seed + index * _CHAOS_SEED_STRIDE
#: + restarts * _CHAOS_RESTART_STRIDE`` so shards draw distinct (but still
#: replayable) action sequences, and a respawned worker does not replay its
#: predecessor's (under kill chaos it would die after the same number of
#: requests every time).  The seeds are distinct for up to 100 workers.
_CHAOS_SEED_STRIDE = 9973
_CHAOS_RESTART_STRIDE = 1_000_003


class ClusterError(RuntimeError):
    """The cluster could not be started or managed as configured."""


@dataclass(frozen=True)
class ClusterConfig:
    """Operational knobs of the sharded service.

    ``port`` is the public data port every worker shares through
    ``SO_REUSEPORT``; ``control_port`` is the supervisor's ``/metrics``
    and ``/healthz`` endpoint (0 picks an ephemeral port for either).
    Restart backoff is the client retry curve (base *
    multiplier**failures, capped, with seeded jitter); a worker that
    stays up ``stable_after_s`` gets its failure streak reset, so one
    crash long after another starts back at the base delay instead of
    the escalated one.  A worker that exits with
    :data:`KILLED_BY_CHAOS_EXIT` restarts on the base delay and leaves
    the streak alone.  Timings must be finite and positive.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    control_port: int = 0
    ready_timeout_s: float = 15.0
    poll_interval_s: float = 0.05
    heartbeat_interval_s: float = 1.0
    hang_timeout_s: float = 5.0
    restart_base_delay_s: float = 0.05
    restart_multiplier: float = 2.0
    restart_max_delay_s: float = 2.0
    restart_jitter: float = 0.5
    restart_seed: int = 0
    stable_after_s: float = 5.0
    service: ServiceConfig = ServiceConfig()
    chaos: Optional[ChaosConfig] = None
    #: A/B routing config installed on every worker at spawn.  Assignment
    #: is a pure hash of the session id, so all workers agree on every
    #: session's arm with zero coordination — including across restarts.
    experiment: Optional[ExperimentConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not (
            0.0 < self.ready_timeout_s < math.inf
            and 0.0 < self.poll_interval_s < math.inf
        ):
            raise ValueError("timeouts must be finite numbers > 0")
        if not (
            0.0 < self.heartbeat_interval_s < math.inf
            and 0.0 < self.hang_timeout_s < math.inf
        ):
            raise ValueError("heartbeat intervals must be finite numbers > 0")
        if not 0.0 < self.stable_after_s < math.inf:
            raise ValueError("stable_after_s must be a finite number > 0")
        # Built here, so a bad restart_* field fails construction rather
        # than the monitor loop at the first worker death.
        object.__setattr__(
            self,
            "_restart_policy",
            RetryPolicy(
                max_attempts=2,  # unused by backoff_s; restarts are unbounded
                base_delay_s=self.restart_base_delay_s,
                multiplier=self.restart_multiplier,
                max_delay_s=self.restart_max_delay_s,
                jitter=self.restart_jitter,
                budget_s=3600.0,
                seed=self.restart_seed,
            ),
        )

    @property
    def restart_policy(self) -> RetryPolicy:
        """The worker-restart backoff curve, as a client retry policy."""
        return self._restart_policy


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one forked worker process needs."""

    index: int
    host: str
    port: int  # the public port, shared through SO_REUSEPORT
    ladder_kbps: Tuple[float, ...]
    table_path: Optional[str]
    service: ServiceConfig
    chaos: Optional[ChaosConfig]
    experiment: Optional[ExperimentConfig] = None


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


async def _worker_serve(spec: WorkerSpec, conn) -> None:
    """One worker: load the table, serve, answer the control pipe."""
    table = None
    if spec.table_path is not None:
        # Imported lazily: the service package must not drag the whole
        # experiments pipeline in just because the cluster exists.
        from ..experiments.persistence import load_published_table

        table = load_published_table(spec.table_path)
    service = DecisionService(
        spec.ladder_kbps,
        table=table,
        config=spec.service,
        metrics=ServiceMetrics(),
        experiment=spec.experiment,
    )
    chaos = (
        ChaosPolicy(spec.chaos)
        if spec.chaos is not None and spec.chaos.any_enabled
        else None
    )
    kill_hook: Optional[Callable[[], None]] = None
    if spec.chaos is not None and spec.chaos.kill_rate > 0:
        kill_hook = lambda: os._exit(KILLED_BY_CHAOS_EXIT)  # noqa: E731
    server = DecisionServer(
        service,
        spec.host,
        spec.port,
        chaos=chaos,
        reuse_port=True,
        worker_id=spec.index,
        kill_hook=kill_hook,
    )
    await server.start()
    conn.send(("ready", server.bound_port, os.getpid()))

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def on_pipe() -> None:
        try:
            while conn.poll():
                message = conn.recv()
                kind = message[0]
                if kind == "stop":
                    stop.set()
                elif kind == "ping":
                    conn.send(("pong", message[1]))
                elif kind == "metrics":
                    conn.send(("metrics", message[1], service.metrics_document()))
        except (EOFError, OSError):
            # Supervisor is gone: a worker must not outlive it.
            stop.set()

    loop.add_reader(conn.fileno(), on_pipe)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        await server.close()


def _worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point.

    The supervisor forks from *inside* its running event loop (restarts
    happen in the monitor task), so the child inherits thread state
    claiming a loop is already running — clear it before building this
    process's own loop.
    """
    try:
        asyncio.events._set_running_loop(None)
    except AttributeError:  # pragma: no cover - private API moved
        pass
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        loop.run_until_complete(_worker_serve(spec, conn))
    except KeyboardInterrupt:  # pragma: no cover - operator ^C
        pass
    finally:
        try:
            loop.close()
        except Exception:  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# Supervisor-side worker bookkeeping
# ---------------------------------------------------------------------------


class _WorkerSlot:
    """One supervised worker position (survives restarts of its process)."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "spec",
        "data_port",
        "pid",
        "ready",
        "pending",
        "request_seq",
        "restarts",
        "failures",
        "ready_at",
        "restarting",
        "reader_registered",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.spec: Optional[WorkerSpec] = None
        self.data_port: Optional[int] = None
        self.pid: Optional[int] = None
        self.ready: Optional[asyncio.Future] = None
        self.pending: Dict[int, asyncio.Future] = {}
        self.request_seq = 0
        self.restarts = 0
        self.failures = 0
        self.ready_at = 0.0
        self.restarting = False
        self.reader_registered = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def serving(self) -> bool:
        return (
            self.alive
            and not self.restarting
            and self.ready is not None
            and self.ready.done()
            and not self.ready.cancelled()
        )


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


class ClusterSupervisor:
    """Fork, watch, restart, and aggregate N decision-server workers.

    Lifecycle::

        supervisor = ClusterSupervisor(ladder, table_path=path,
                                       config=ClusterConfig(workers=4))
        await supervisor.start()
        ... serve on supervisor.bound_port ...
        snapshot = await supervisor.metrics()
        await supervisor.stop()

    The supervisor is asyncio-native: worker pipes are wired into the
    running loop with ``add_reader``, the monitor is a task, and
    restarts are scheduled coroutines — so it composes with an
    in-process load generator in one loop (how the scale tests run it).
    """

    def __init__(
        self,
        ladder_kbps: Sequence[float],
        table_path: Optional[str] = None,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        self.ladder_kbps = tuple(float(r) for r in ladder_kbps)
        if not self.ladder_kbps:
            raise ValueError("ladder must be non-empty")
        self.table_path = str(table_path) if table_path is not None else None
        self.config = config if config is not None else ClusterConfig()
        self._ctx = multiprocessing.get_context("fork")
        self._slots: List[_WorkerSlot] = []
        self._placeholder: Optional[socket.socket] = None
        self._control: Optional[asyncio.AbstractServer] = None
        self._monitor: Optional[asyncio.Task] = None
        self._restart_tasks: set = set()
        self._restart_rng = random.Random(self.config.restart_seed)
        self._data_port: Optional[int] = None
        self.restarts_total = 0
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise ClusterError("cluster already started")
        self._started = True
        config = self.config
        try:
            # Reserve the shared port with a bound (never listening)
            # placeholder: it keeps the number stable across worker
            # restarts without ever receiving a connection.  It is
            # stored before setsockopt and bind can fail, so the stop()
            # below closes it on every failed start.
            self._placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                self._placeholder.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
                self._placeholder.bind((config.host, config.port))
            except OSError as exc:
                raise ClusterError(
                    f"cannot share {config.host}:{config.port}"
                    f" through SO_REUSEPORT: {exc}"
                ) from exc
            self._data_port = self._placeholder.getsockname()[1]
            # Bind the control endpoint before any worker forks, so a
            # busy control port fails the start with no worker to undo;
            # it starts listening once every worker is ready.
            try:
                self._control = await asyncio.start_server(
                    self._handle_control,
                    config.host,
                    config.control_port,
                    start_serving=False,
                )
            except OSError as exc:
                raise ClusterError(
                    f"cannot bind the control endpoint"
                    f" {config.host}:{config.control_port}: {exc}"
                ) from exc
            for index in range(config.workers):
                slot = _WorkerSlot(index)
                self._slots.append(slot)
                self._spawn(slot)
            await asyncio.gather(*(self._wait_ready(slot) for slot in self._slots))
            await self._control.start_serving()
            self._monitor = asyncio.get_running_loop().create_task(
                self._monitor_loop()
            )
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        """Stop monitoring, shut workers down, tear everything down."""
        self._stopping = True
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except (asyncio.CancelledError, Exception):
                pass
            self._monitor = None
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*self._restart_tasks, return_exceptions=True)
        self._restart_tasks.clear()
        for slot in self._slots:
            self._send_safely(slot, ("stop",))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 2.0
        while any(slot.alive for slot in self._slots) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for slot in self._slots:
            if slot.alive:
                slot.process.terminate()
        deadline = loop.time() + 1.0
        while any(slot.alive for slot in self._slots) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for slot in self._slots:
            if slot.alive:  # pragma: no cover - terminate() refused to stick
                slot.process.kill()
            self._teardown_slot_io(slot)
            if slot.process is not None:
                slot.process.join(timeout=1.0)
        if self._control is not None:
            self._control.close()
            await self._control.wait_closed()
            self._control = None
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    async def __aenter__(self) -> "ClusterSupervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bound_port(self) -> int:
        """The public data port clients dial."""
        if self._data_port is None:
            raise RuntimeError("cluster is not running")
        return self._data_port

    @property
    def control_bound_port(self) -> int:
        """The supervisor's own /metrics + /healthz port."""
        if self._control is None or not self._control.sockets:
            raise RuntimeError("control endpoint is not running")
        return self._control.sockets[0].getsockname()[1]

    @property
    def alive_workers(self) -> int:
        return sum(1 for slot in self._slots if slot.serving)

    def worker_pids(self) -> List[Optional[int]]:
        return [slot.pid for slot in self._slots]

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to a worker process (scale tests and chaos drills).

        Returns the PID signalled.  Death is detected and repaired by
        the monitor like any other crash.
        """
        slot = self._slots[index]
        if slot.process is None or slot.pid is None or not slot.alive:
            raise ClusterError(f"worker {index} is not running")
        os.kill(slot.pid, sig)
        return slot.pid

    async def wait_healthy(self, timeout_s: float = 10.0) -> None:
        """Block until every worker slot is serving again."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            if all(slot.serving for slot in self._slots):
                return
            await asyncio.sleep(0.02)
        raise ClusterError(f"cluster not healthy within {timeout_s}s")

    # ------------------------------------------------------------------
    # Metrics aggregation
    # ------------------------------------------------------------------

    async def metrics(self) -> dict:
        """The cluster-wide ``/metrics`` document.

        Per-worker snapshots are fetched over the control pipes and
        merged losslessly (counter sums, bucket-by-bucket histogram
        merges); a worker mid-restart is reported in the roster but
        contributes nothing — its counters return with it.
        """
        snapshots: List[dict] = []
        roster: List[dict] = []
        for slot in self._slots:
            status = "ok"
            if not slot.alive:
                status = "dead"
            elif slot.restarting or not slot.serving:
                status = "restarting"
            else:
                try:
                    snapshots.append(await self._ask(slot, "metrics", timeout=1.0))
                except (ClusterError, asyncio.TimeoutError):
                    status = "unreachable"
            roster.append(
                {
                    "worker": slot.index,
                    "pid": slot.pid,
                    "port": slot.data_port,
                    "status": status,
                    "restarts": slot.restarts,
                }
            )
        if snapshots:
            merged = merge_metrics_snapshots(snapshots)
            # Shared-prior sections merge losslessly too (integer bucket
            # sums per family); .get — snapshots from workers predating
            # the prior store simply contribute nothing.
            prior_sections = [s["priors"] for s in snapshots if s.get("priors")]
            if prior_sections:
                merged["priors"] = merge_prior_snapshots(prior_sections)
        else:  # every worker mid-restart: an all-zero document
            merged = ServiceMetrics().snapshot()
        merged["cluster"] = {
            "workers": len(self._slots),
            "alive": self.alive_workers,
            "restarts_total": self.restarts_total,
            "workers_detail": roster,
        }
        return merged

    def health(self) -> dict:
        alive = self.alive_workers
        return {
            "status": "ok" if alive == len(self._slots) else "degraded",
            "workers": len(self._slots),
            "alive": alive,
            "restarts_total": self.restarts_total,
        }

    # ------------------------------------------------------------------
    # Worker process management
    # ------------------------------------------------------------------

    def _make_spec(self, index: int, restarts: int) -> WorkerSpec:
        chaos = self.config.chaos
        if chaos is not None:
            seed = chaos.seed + index * _CHAOS_SEED_STRIDE
            chaos = replace(chaos, seed=seed + restarts * _CHAOS_RESTART_STRIDE)
        return WorkerSpec(
            index=index,
            host=self.config.host,
            port=self._data_port,
            ladder_kbps=self.ladder_kbps,
            table_path=self.table_path,
            service=self.config.service,
            chaos=chaos,
            experiment=self.config.experiment,
        )

    def _spawn(self, slot: _WorkerSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        spec = self._make_spec(slot.index, slot.restarts)
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, child_conn),
            name=f"repro-decision-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.spec = spec
        slot.data_port = None
        slot.pid = process.pid
        slot.pending = {}
        loop = asyncio.get_running_loop()
        slot.ready = loop.create_future()
        loop.add_reader(parent_conn.fileno(), self._on_worker_message, slot)
        slot.reader_registered = True

    def _teardown_slot_io(self, slot: _WorkerSlot) -> None:
        if slot.conn is not None:
            if slot.reader_registered:
                try:
                    asyncio.get_running_loop().remove_reader(slot.conn.fileno())
                except (RuntimeError, OSError, ValueError):
                    pass
                slot.reader_registered = False
            try:
                slot.conn.close()
            except OSError:
                pass
            slot.conn = None
        for future in slot.pending.values():
            if not future.done():
                future.set_exception(ClusterError("worker connection closed"))
        slot.pending = {}

    def _on_worker_message(self, slot: _WorkerSlot) -> None:
        conn = slot.conn
        if conn is None:
            return
        try:
            while conn.poll():
                message = conn.recv()
                kind = message[0]
                if kind == "ready":
                    slot.data_port = message[1]
                    slot.pid = message[2]
                    if slot.ready is not None and not slot.ready.done():
                        slot.ready.set_result(None)
                elif kind in ("pong", "metrics"):
                    future = slot.pending.pop(message[1], None)
                    if future is not None and not future.done():
                        future.set_result(
                            message[2] if kind == "metrics" else None
                        )
        except (EOFError, OSError):
            # Worker died with the pipe open; the monitor handles the
            # process itself — here we only retire the I/O.
            self._teardown_slot_io(slot)

    def _send_safely(self, slot: _WorkerSlot, message: tuple) -> bool:
        if slot.conn is None:
            return False
        try:
            slot.conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    async def _ask(self, slot: _WorkerSlot, kind: str, timeout: float):
        """One request/response over a worker's control pipe."""
        if slot.conn is None:
            raise ClusterError(f"worker {slot.index} has no control pipe")
        slot.request_seq += 1
        request_id = slot.request_seq
        future = asyncio.get_running_loop().create_future()
        slot.pending[request_id] = future
        if not self._send_safely(slot, (kind, request_id)):
            slot.pending.pop(request_id, None)
            raise ClusterError(f"worker {slot.index} control pipe is down")
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            slot.pending.pop(request_id, None)

    async def _wait_ready(self, slot: _WorkerSlot) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.ready_timeout_s
        while True:
            if slot.ready is not None and slot.ready.done():
                slot.ready_at = loop.time()
                return
            if not slot.alive:
                code = slot.process.exitcode if slot.process is not None else None
                raise ClusterError(
                    f"worker {slot.index} exited (code {code}) before ready"
                )
            if loop.time() > deadline:
                raise ClusterError(
                    f"worker {slot.index} not ready within "
                    f"{self.config.ready_timeout_s}s"
                )
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # Monitoring + restarts
    # ------------------------------------------------------------------

    async def _monitor_loop(self) -> None:
        loop = asyncio.get_running_loop()
        last_heartbeat = loop.time()
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            for slot in self._slots:
                if slot.restarting:
                    continue
                if not slot.alive:
                    self._begin_restart(slot)
            if loop.time() - last_heartbeat >= self.config.heartbeat_interval_s:
                last_heartbeat = loop.time()
                for slot in self._slots:
                    if slot.serving:
                        task = loop.create_task(self._heartbeat(slot))
                        self._restart_tasks.add(task)
                        task.add_done_callback(self._restart_tasks.discard)

    async def _heartbeat(self, slot: _WorkerSlot) -> None:
        """Ping one worker; a hung worker is terminated (then restarted)."""
        try:
            await self._ask(slot, "ping", timeout=self.config.hang_timeout_s)
        except (ClusterError, asyncio.TimeoutError):
            if slot.alive and not slot.restarting and not self._stopping:
                slot.process.terminate()  # monitor restarts it

    def _begin_restart(self, slot: _WorkerSlot) -> None:
        loop = asyncio.get_running_loop()
        slot.restarting = True
        self.restarts_total += 1
        # A long-stable worker restarts on the base delay; a crash loop
        # escalates exponentially (seeded jitter keeps runs replayable).
        # An injected kill is not a crash loop: it restarts on the base
        # delay and leaves the failure streak as it was.
        if slot.ready_at and loop.time() - slot.ready_at > self.config.stable_after_s:
            slot.failures = 0
        chaos_kill = (
            slot.process is not None
            and slot.process.exitcode == KILLED_BY_CHAOS_EXIT
        )
        delay = self.config.restart_policy.backoff_s(
            0 if chaos_kill else slot.failures, self._restart_rng
        )
        if not chaos_kill:
            slot.failures += 1
        slot.restarts += 1
        self._teardown_slot_io(slot)
        if slot.process is not None:
            slot.process.join(timeout=0)  # reap the zombie, never block
        task = loop.create_task(self._restart(slot, delay))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, slot: _WorkerSlot, delay: float) -> None:
        try:
            await asyncio.sleep(delay)
            if self._stopping:
                return
            self._spawn(slot)
            await self._wait_ready(slot)
            slot.restarting = False
        except asyncio.CancelledError:
            raise
        except ClusterError:
            # The replacement died before ready: loop through the
            # escalating-backoff path again.
            if not self._stopping:
                self._begin_restart(slot)

    # ------------------------------------------------------------------
    # Control endpoint (cluster-wide /metrics + /healthz)
    # ------------------------------------------------------------------

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One-shot HTTP: parse a request, answer JSON, close."""
        try:
            try:
                header_blob = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), 5.0
                )
                method, path, _headers = _parse_head(header_blob)
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
                ConnectionResetError,
                ValueError,
            ):
                return
            if method != "GET":
                status, payload = 405, {"error": "GET required"}
            elif path == "/metrics":
                status, payload = 200, await self.metrics()
            elif path == "/healthz":
                status, payload = 200, self.health()
            else:
                status, payload = 404, {"error": f"no route {path}"}
            body = json.dumps(payload, separators=(",", ":")).encode()
            reason = {200: b"OK", 404: b"Not Found", 405: b"Method Not Allowed"}
            writer.write(
                b"HTTP/1.1 %d %s\r\n" % (status, reason[status])
                + b"Content-Type: application/json\r\n"
                + b"Content-Length: %d\r\n" % len(body)
                + b"Connection: close\r\n\r\n"
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
