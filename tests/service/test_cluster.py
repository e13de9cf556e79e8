"""Scale tests for the multi-process sharded decision service.

The bar these tests pin down (see docs/scaling.md):

* sharding is invisible — an N-worker cluster answers a golden request
  stream with byte-identical decisions to a single-process server over
  the same published table;
* supervision works — a SIGKILLed worker is detected and replaced, and
  a retrying client rides through the crash with zero failed sessions;
* telemetry is lossless — cluster ``/metrics`` equals the sum of the
  workers' counters, with exact histogram counts.

Every test forks real processes and binds real sockets.
"""

from __future__ import annotations

import asyncio
import errno
import gc
import json
import signal
import socket
import warnings
from pathlib import Path

import pytest

from repro.core.table import Binning, DecisionTable
from repro.experiments import load_published_table, publish_table
from repro.faults import ChaosConfig
from repro.service import (
    ClusterConfig,
    ClusterError,
    ClusterSupervisor,
    DecisionRequest,
    DecisionServer,
    DecisionService,
    LoadTestConfig,
    RetryPolicy,
    ServiceClient,
    run_loadtest,
)
from repro.traces import make_generator

from .conftest import LADDER

pytestmark = pytest.mark.slow


def run(coro):
    return asyncio.run(coro)


def make_varied_table() -> DecisionTable:
    """A table whose decision depends on all three coordinates, so any
    routing or loading mistake shows up as a wrong level."""
    buffer_bins = Binning(0.0, 30.0, 7)
    throughput_bins = Binning(100.0, 4000.0, 9, spacing="log")
    n = buffer_bins.count * len(LADDER) * throughput_bins.count
    t = throughput_bins.count
    decisions = [
        ((i // (t * len(LADDER))) + (i // t) % len(LADDER) * 2 + i % t)
        % len(LADDER)
        for i in range(n)
    ]
    return DecisionTable(buffer_bins, len(LADDER), throughput_bins, decisions)


GOLDEN_DIR = Path(__file__).parent.parent / "golden"


def golden_request_stream() -> list:
    """A deterministic request stream derived from the golden session
    timelines: each chunk decision's (buffer, prev_level) paired with
    the preceding download's measured throughput as the prediction."""
    requests = []
    for timeline in sorted(GOLDEN_DIR.glob("*.jsonl")):
        predicted = 1200.0
        with timeline.open() as fh:
            for line in fh:
                event = json.loads(line)
                # The golden dir also holds non-timeline fixtures (the
                # shared-prior session log) whose lines are not events.
                if event.get("kind") == "chunk-decision":
                    prev = event["prev_level"]
                    if prev is not None:
                        prev = min(prev, len(LADDER) - 1)
                    requests.append(
                        DecisionRequest(
                            session_id=f"golden-{timeline.stem}",
                            buffer_s=event["buffer_s"],
                            predicted_kbps=predicted,
                            prev_level=prev,
                        )
                    )
                elif event.get("kind") == "chunk-download":
                    predicted = event["throughput_kbps"]
    assert len(requests) >= 200, "golden timelines unexpectedly short"
    return requests


def response_key(response) -> tuple:
    """The deterministic part of a response (latency excluded)."""
    return (
        response.level_index,
        response.bitrate_kbps,
        response.source,
        response.degraded,
        response.reason,
    )


async def decide_all(port: int, requests) -> list:
    async with ServiceClient("127.0.0.1", port) as client:
        return [response_key(await client.decide(r)) for r in requests]


def publish_test_table(tmp_path, table=None) -> str:
    table = table if table is not None else make_varied_table()
    return str(publish_table(table, tmp_path / "table.rprotbl"))


async def wait_for_restarts(sup: ClusterSupervisor, n: int, timeout_s=10.0):
    """Block until the monitor has detected ``n`` deaths (SIGKILL is
    asynchronous — right after ``kill_worker`` the process may not have
    died yet, let alone been noticed)."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while sup.restarts_total < n:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"monitor saw {sup.restarts_total}/{n} deaths in {timeout_s}s"
            )
        await asyncio.sleep(0.02)


class TestClusterParity:
    """Sharding must not change a single decision."""

    def test_golden_stream_identical_to_single_process(self, tmp_path):
        table = make_varied_table()
        path = publish_test_table(tmp_path, table)
        requests = golden_request_stream()

        async def single():
            service = DecisionService(LADDER, table=table)
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                return await decide_all(server.bound_port, requests)
            finally:
                await server.close()

        async def clustered():
            config = ClusterConfig(workers=3)
            async with ClusterSupervisor(
                LADDER, table_path=path, config=config
            ) as sup:
                # Spread the stream over several connections so more
                # than one worker actually serves it.
                chunks = [requests[i::4] for i in range(4)]
                results = await asyncio.gather(
                    *(decide_all(sup.bound_port, chunk) for chunk in chunks)
                )
                merged = [None] * len(requests)
                for i, chunk_result in enumerate(results):
                    merged[i::4] = chunk_result
                metrics = await sup.metrics()
                return merged, metrics

        expected = run(single())
        got, metrics = run(clustered())
        assert got == expected
        assert metrics["requests_total"] == len(requests)
        assert metrics["decisions"].get("table", 0) == len(requests)
        assert metrics["cluster"]["alive"] == 3

    def test_mapped_table_parity_is_checked_at_worker_startup(self, tmp_path):
        # A worker checks the published file's structure as it loads it:
        # corrupt bytes must not come up.
        path = tmp_path / "table.rprotbl"
        publish_table(make_varied_table(), path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF  # corrupt inside the RLE payload
        path.write_bytes(bytes(blob))

        async def attempt():
            config = ClusterConfig(workers=1, ready_timeout_s=5.0)
            sup = ClusterSupervisor(LADDER, table_path=str(path), config=config)
            with pytest.raises(Exception) as excinfo:
                await sup.start()
            await sup.stop()
            return excinfo

        excinfo = run(attempt())
        assert "before ready" in str(excinfo.value)

    def test_loaded_table_holds_no_reference_to_the_file(self, tmp_path):
        # A loaded table keeps its own copy of the runs: rewriting the
        # file changes none of its answers.
        table = make_varied_table()
        path = publish_table(table, tmp_path / "table.rprotbl")
        loaded = load_published_table(path)
        path.write_bytes(b"overwritten")
        assert loaded.same_decisions(table)
        with pytest.raises(ValueError, match="not a valid published table"):
            load_published_table(path)


class TestSupervision:
    def test_sigkilled_worker_is_replaced(self, tmp_path):
        path = publish_test_table(tmp_path)

        async def inner():
            config = ClusterConfig(workers=2, poll_interval_s=0.02)
            async with ClusterSupervisor(
                LADDER, table_path=path, config=config
            ) as sup:
                before = list(sup.worker_pids())
                sup.kill_worker(0, signal.SIGKILL)
                await wait_for_restarts(sup, 1)
                await sup.wait_healthy(timeout_s=10.0)
                after = list(sup.worker_pids())
                health = sup.health()
                return before, after, sup.restarts_total, health

        before, after, restarts, health = run(inner())
        assert after[0] != before[0], "worker 0 was not replaced"
        assert after[1] == before[1], "worker 1 should be untouched"
        assert restarts == 1
        assert health["status"] == "ok"
        assert health["alive"] == 2

    def test_retrying_client_rides_through_a_kill(self, tmp_path):
        """Every session finishes with zero failures while a worker dies
        mid-run — the cluster-level availability bar."""
        path = publish_test_table(tmp_path)
        traces = make_generator("fcc", seed=7).generate_many(6, 120.0)
        config = LoadTestConfig(
            sessions=6,
            chunks_per_session=25,
            concurrency=6,
            connections=3,
            ladder_kbps=LADDER,
            deadline_s=5.0,
            retry=RetryPolicy(
                max_attempts=6, base_delay_s=0.02, max_delay_s=0.5, seed=11
            ),
            local_fallback=False,
        )

        async def inner():
            cluster = ClusterConfig(workers=2, poll_interval_s=0.02)
            async with ClusterSupervisor(
                LADDER, table_path=path, config=cluster
            ) as sup:
                load = asyncio.ensure_future(
                    run_loadtest("127.0.0.1", sup.bound_port, config, traces=traces)
                )
                await asyncio.sleep(0.15)
                sup.kill_worker(0, signal.SIGKILL)
                report = await load
                await wait_for_restarts(sup, 1)
                await sup.wait_healthy(timeout_s=10.0)
                return report

        report = run(inner())
        assert report.sessions_completed == config.sessions
        assert report.errors == 0
        assert report.local_fallbacks == 0
        assert report.decisions == config.sessions * config.chunks_per_session

    def test_worker_kill_chaos_is_repaired(self, tmp_path):
        """The injected worker-kill action really kills the process, and
        the supervisor + retrying clients absorb it."""
        path = publish_test_table(tmp_path)
        traces = make_generator("fcc", seed=3).generate_many(4, 120.0)
        config = LoadTestConfig(
            sessions=4,
            chunks_per_session=20,
            concurrency=4,
            connections=2,
            ladder_kbps=LADDER,
            deadline_s=5.0,
            retry=RetryPolicy(
                max_attempts=6, base_delay_s=0.02, max_delay_s=0.5, seed=5
            ),
        )

        async def inner():
            cluster = ClusterConfig(
                workers=2,
                poll_interval_s=0.02,
                # High enough that ~0 kills over the run's ~80 requests
                # is astronomically unlikely whatever the kernel's
                # connection spreading does (0.92^80 ~ 1e-3).
                chaos=ChaosConfig(kill_rate=0.08, seed=1),
            )
            async with ClusterSupervisor(
                LADDER, table_path=path, config=cluster
            ) as sup:
                report = await run_loadtest(
                    "127.0.0.1", sup.bound_port, config, traces=traces
                )
                await sup.wait_healthy(timeout_s=10.0)
                return report, sup.restarts_total

        report, restarts = run(inner())
        assert restarts >= 1, "kill chaos never fired; raise kill_rate"
        assert report.sessions_completed == config.sessions
        assert report.errors == 0


    def test_respawned_worker_draws_a_new_chaos_seed(self):
        """Each spawn of a slot gets its own chaos seed, the first one
        unchanged; otherwise every replacement of a kill-chaos worker
        would die after the same number of requests.  No process starts:
        the spawn runs against a recording stand-in."""
        import multiprocessing
        from types import SimpleNamespace

        from repro.service.cluster import _WorkerSlot

        class RecordingProcess:
            pid = 0

            def __init__(self, target, args, name, daemon):
                pass

            def start(self):
                pass

        sup = ClusterSupervisor(
            LADDER,
            config=ClusterConfig(
                workers=3, chaos=ChaosConfig(kill_rate=0.002, seed=29)
            ),
        )
        sup._ctx = SimpleNamespace(Pipe=multiprocessing.Pipe, Process=RecordingProcess)

        async def spawn_three_times(index):
            slot = _WorkerSlot(index)
            seeds = []
            for _ in range(3):
                sup._spawn(slot)
                seeds.append(slot.spec.chaos.seed)
                sup._teardown_slot_io(slot)
                slot.restarts += 1  # as _begin_restart does before a respawn
            return seeds

        by_slot = [run(spawn_three_times(index)) for index in range(3)]
        assert [seeds[0] for seeds in by_slot] == [29, 29 + 9973, 29 + 2 * 9973]
        every = [seed for seeds in by_slot for seed in seeds]
        assert len(set(every)) == len(every)

    def test_chaos_exit_restarts_on_the_base_delay(self):
        """An injected kill is not a crash loop: a worker that exits with
        KILLED_BY_CHAOS_EXIT restarts on the base delay and leaves the
        failure streak alone, while crash exits escalate.  No process
        starts: the slot holds a stand-in and the restart is recorded."""
        from types import SimpleNamespace

        from repro.service.cluster import KILLED_BY_CHAOS_EXIT, _WorkerSlot

        sup = ClusterSupervisor(
            LADDER,
            config=ClusterConfig(
                workers=1,
                restart_base_delay_s=0.05,
                restart_multiplier=2.0,
                restart_jitter=0.0,
            ),
        )
        delays = []

        async def record_restart(slot, delay):
            delays.append(delay)

        sup._restart = record_restart

        async def exit_with(codes):
            slot = _WorkerSlot(0)
            for code in codes:
                slot.process = SimpleNamespace(
                    exitcode=code, join=lambda timeout=None: None
                )
                sup._begin_restart(slot)
                await asyncio.sleep(0)  # let the recorded restart run
            return slot.failures

        chaos = KILLED_BY_CHAOS_EXIT
        assert run(exit_with([1, -9, 1])) == 3
        assert delays == pytest.approx([0.05, 0.1, 0.2])
        delays.clear()
        assert run(exit_with([1, chaos, chaos, -9])) == 2
        assert delays == pytest.approx([0.05, 0.05, 0.05, 0.1])
        assert sup.restarts_total == 7


class TestClusterConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("restart_base_delay_s", -1.0),
            ("restart_max_delay_s", float("nan")),
            ("restart_multiplier", 0.5),
            ("restart_jitter", 2.0),
            ("stable_after_s", float("nan")),
            ("stable_after_s", -1.0),
            ("poll_interval_s", float("nan")),
            ("hang_timeout_s", float("inf")),
        ],
    )
    def test_bad_timing_fails_construction(self, field, value):
        """Refused when the config is built, not when the monitor loop
        first reads the restart policy at a worker death."""
        with pytest.raises(ValueError):
            ClusterConfig(**{field: value})

    def test_restart_policy_follows_the_fields(self):
        policy = ClusterConfig(
            restart_base_delay_s=0.1, restart_max_delay_s=3.0, restart_seed=5
        ).restart_policy
        assert (policy.base_delay_s, policy.max_delay_s, policy.seed) == (
            0.1, 3.0, 5
        )


class TestStartFailure:
    """A start that cannot share the public port raises ClusterError,
    forks no worker and leaves no socket open."""

    @staticmethod
    def failed_start(config: ClusterConfig):
        async def attempt():
            sup = ClusterSupervisor(LADDER, config=config)
            try:
                with pytest.raises(ClusterError) as excinfo:
                    await sup.start()
            finally:
                await sup.stop()
            return str(excinfo.value), sup.worker_pids()

        gc.collect()  # what earlier tests left behind is not this start's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            message, pids = run(attempt())
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        return message, pids, leaks

    def test_busy_public_port(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            message, pids, leaks = self.failed_start(
                ClusterConfig(workers=2, port=port)
            )
        assert f"127.0.0.1:{port}" in message
        assert pids == []
        assert leaks == []

    def test_refused_reuse_port(self, monkeypatch):
        setsockopt = socket.socket.setsockopt

        def refuse_reuse_port(sock, level, option, *args):
            if (level, option) == (socket.SOL_SOCKET, socket.SO_REUSEPORT):
                raise OSError(errno.ENOPROTOOPT, "SO_REUSEPORT refused")
            return setsockopt(sock, level, option, *args)

        monkeypatch.setattr(socket.socket, "setsockopt", refuse_reuse_port)
        message, pids, leaks = self.failed_start(ClusterConfig(workers=2))
        assert "127.0.0.1:0" in message and "SO_REUSEPORT" in message
        assert pids == []
        assert leaks == []

    def test_busy_control_port(self):
        """The control endpoint is bound before the first fork, so a busy
        control port stops the start with no worker to tear down."""
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            message, pids, leaks = self.failed_start(
                ClusterConfig(workers=2, control_port=port)
            )
        assert f"127.0.0.1:{port}" in message and "control" in message
        assert pids == []
        assert leaks == []


class TestClusterTelemetry:
    def test_control_endpoint_serves_aggregated_metrics(self, tmp_path):
        path = publish_test_table(tmp_path)
        requests = golden_request_stream()[:30]

        async def fetch(port: int, route: str) -> dict:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"GET {route} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return json.loads(raw.split(b"\r\n\r\n", 1)[1])

        async def inner():
            config = ClusterConfig(workers=2)
            async with ClusterSupervisor(
                LADDER, table_path=path, config=config
            ) as sup:
                await decide_all(sup.bound_port, requests)
                port = sup.control_bound_port
                return await fetch(port, "/metrics"), await fetch(
                    port, "/healthz"
                ), await fetch(port, "/nope")

        metrics, health, missing = run(inner())
        assert metrics["requests_total"] == len(requests)
        assert metrics["latency_us"]["count"] == len(requests)
        roster = metrics["cluster"]["workers_detail"]
        assert [w["worker"] for w in roster] == [0, 1]
        assert all(w["status"] == "ok" for w in roster)
        assert health["status"] == "ok"
        assert "error" in missing

    def test_metrics_survive_a_restart_roster(self, tmp_path):
        """After a kill + repair, the roster reports the restart and the
        merged counters only cover what live workers have seen."""
        path = publish_test_table(tmp_path)
        requests = golden_request_stream()[:20]

        async def inner():
            config = ClusterConfig(workers=2, poll_interval_s=0.02)
            async with ClusterSupervisor(
                LADDER, table_path=path, config=config
            ) as sup:
                await decide_all(sup.bound_port, requests)
                sup.kill_worker(1, signal.SIGKILL)
                await wait_for_restarts(sup, 1)
                await sup.wait_healthy(timeout_s=10.0)
                return await sup.metrics()

        metrics = run(inner())
        roster = metrics["cluster"]["workers_detail"]
        assert metrics["cluster"]["restarts_total"] == 1
        assert roster[1]["restarts"] == 1
        assert all(w["status"] == "ok" for w in roster)
        # A single keep-alive connection pins to one worker, so the
        # merged total is either everything (survivor served it) or
        # nothing (the killed worker did) — never a partial mix.
        assert metrics["requests_total"] in (0, len(requests))


class TestClusterExperiment:
    def test_arm_routing_consistent_and_metrics_merge(self, tmp_path):
        """Every worker must assign a session the same arm (pure hash, no
        coordination), and the control endpoint's merged ``/metrics``
        must carry per-arm counters summing to the served traffic."""
        from repro.service import ExperimentArm, ExperimentConfig

        path = publish_test_table(tmp_path)
        experiment = ExperimentConfig(
            arms=(
                ExperimentArm("control", "table", weight=1.0),
                ExperimentArm("bola", "bola", weight=1.0),
            ),
            salt="cluster-exp",
        )
        sessions = [f"session-{i:03d}" for i in range(24)]
        rounds = 3

        async def drive(port: int) -> dict:
            seen: dict = {}
            # A fresh connection per round spreads sessions over workers.
            for _ in range(rounds):
                async with ServiceClient("127.0.0.1", port) as client:
                    for sid in sessions:
                        response = await client.decide(
                            DecisionRequest(
                                session_id=sid,
                                buffer_s=12.0,
                                predicted_kbps=1400.0,
                                prev_level=1,
                            )
                        )
                        assert response.arm is not None
                        seen.setdefault(sid, set()).add(response.arm)
            return seen

        async def inner():
            config = ClusterConfig(workers=2, experiment=experiment)
            async with ClusterSupervisor(
                LADDER, table_path=path, config=config
            ) as sup:
                seen = await drive(sup.bound_port)
                return seen, await sup.metrics()

        seen, metrics = run(inner())
        # One arm per session, no matter which worker answered.
        assert all(len(arms) == 1 for arms in seen.values())
        for sid, arms in seen.items():
            assert arms == {experiment.assign(sid).name}
        merged = metrics["arms"]
        total = len(sessions) * rounds
        assert sum(a["decisions"] for a in merged.values()) == total
        assert sum(a["latency_us"]["count"] for a in merged.values()) == total
        assert set(merged) == {arm for arms in seen.values() for arm in arms}


class TestOfferedRate:
    def test_closed_loop_offered_rate_reaches_ideal(self, tmp_path):
        """With every response slowed a fixed 50 ms and a 4-connection
        pool, the closed loop's ideal offered rate is connections/delay;
        the bounded fan-out must achieve it within 10%."""
        path = publish_test_table(tmp_path)
        delay_s = 0.05
        connections = 4
        traces = make_generator("fcc", seed=0).generate_many(8, 120.0)
        config = LoadTestConfig(
            sessions=8,
            chunks_per_session=20,
            concurrency=8,
            connections=connections,
            ladder_kbps=LADDER,
            deadline_s=5.0,
        )

        async def inner():
            cluster = ClusterConfig(
                workers=4,
                chaos=ChaosConfig(slow_rate=1.0, slow_delay_s=delay_s, seed=2),
            )
            async with ClusterSupervisor(
                LADDER, table_path=path, config=cluster
            ) as sup:
                return await run_loadtest(
                    "127.0.0.1", sup.bound_port, config, traces=traces
                )

        report = run(inner())
        ideal_dps = connections / delay_s
        assert report.errors == 0
        assert report.sessions_completed == config.sessions
        assert report.throughput_dps >= 0.9 * ideal_dps
        # The pool really bounds fan-out: the loop cannot beat the
        # physical ceiling of `connections` in-flight requests.
        assert report.throughput_dps <= 1.1 * ideal_dps
