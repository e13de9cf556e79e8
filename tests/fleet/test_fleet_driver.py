"""The fleet driver end to end: sharding, determinism across worker
counts, tracer events, and the CLI wiring."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import cli
from repro.core.fastmpc import FastMPCConfig
from repro.fleet import FleetConfig, ScenarioSpace, run_fleet, sample_scenarios
from repro.fleet import driver
from repro.fleet.driver import run_shard
from repro.obs import FleetShard, FleetSummary, RingBufferSink, Tracer

#: A space small enough for CI: cheap controllers, short video, tiny
#: trace pools — still 2+ controllers x 3 datasets x presets of arms.
SPACE = ScenarioSpace(
    controllers=("lowest", "rb", "bb", "bola"),
    ladders=("envivio",),
    num_chunks=12,
    traces_per_dataset=4,
    trace_duration_s=60.0,
)


@pytest.fixture(scope="module")
def fleet_result():
    return run_fleet(FleetConfig(sessions=120, seed=5, shard_size=32, space=SPACE))


def test_fleet_accounts_every_session(fleet_result):
    assert fleet_result.sessions == 120
    assert sum(arm.sessions for arm in fleet_result.arms.values()) == 120
    for key, arm in fleet_result.arms.items():
        controller, dataset, preset, ladder = key.split("|")
        assert controller in SPACE.controllers
        assert dataset in SPACE.datasets
        assert preset in SPACE.presets
        assert ladder == "envivio"
        assert arm.qoe_per_chunk.count == arm.sessions
        assert arm.rebuffer_s.count == arm.sessions
        assert arm.mean_bitrate_kbps.count == arm.sessions


def test_workers_do_not_change_the_result(fleet_result):
    # The determinism bar: 1 worker and a 3-worker pool produce
    # byte-identical serialized results.
    pooled = run_fleet(
        FleetConfig(sessions=120, seed=5, shard_size=32, space=SPACE), workers=3
    )
    assert json.dumps(pooled.to_dict(), sort_keys=True) == json.dumps(
        fleet_result.to_dict(), sort_keys=True
    )


def test_single_shard_run_matches_run_shard(fleet_result):
    # A shard size covering the whole stream reduces the driver to one
    # run_shard call; and a different shard size may move float sums by
    # an ulp, but the bucket counts — what the quantiles are read from —
    # are exactly partition-independent.
    scenarios = sample_scenarios(SPACE, 120, 5)
    whole = run_shard(SPACE, scenarios)
    single = run_fleet(
        FleetConfig(sessions=120, seed=5, shard_size=1024, space=SPACE)
    )
    assert json.dumps(whole, sort_keys=True) == json.dumps(
        single.to_dict(), sort_keys=True
    )
    assert set(single.arms) == set(fleet_result.arms)
    for key, arm in single.arms.items():
        other = fleet_result.arms[key]
        assert arm.sessions == other.sessions
        assert arm.qoe_per_chunk.bucket_counts == other.qoe_per_chunk.bucket_counts
        assert arm.rebuffer_s.bucket_counts == other.rebuffer_s.bucket_counts
        assert (
            arm.mean_bitrate_kbps.bucket_counts
            == other.mean_bitrate_kbps.bucket_counts
        )


def use_scalar_engine(monkeypatch):
    """Point the driver's ``run_batch`` at the scalar reference engine."""
    real = driver.run_batch

    def scalar(*args, **kwargs):
        return real(*args, engine="scalar", **kwargs)

    monkeypatch.setattr(driver, "run_batch", scalar)


def test_engine_choice_does_not_change_the_result(fleet_result, monkeypatch):
    use_scalar_engine(monkeypatch)
    scalar = run_fleet(FleetConfig(sessions=120, seed=5, shard_size=32, space=SPACE))
    assert json.dumps(scalar.to_dict(), sort_keys=True) == json.dumps(
        fleet_result.to_dict(), sort_keys=True
    )


def test_tracer_sees_shards_and_summary():
    sink = RingBufferSink()
    tracer = Tracer(sinks=[sink], session_id="fleet-test")
    result = run_fleet(
        FleetConfig(sessions=50, seed=2, shard_size=20, space=SPACE), tracer=tracer
    )
    shards = [e for e in sink.events() if isinstance(e, FleetShard)]
    summaries = [e for e in sink.events() if isinstance(e, FleetSummary)]
    assert [s.shard_index for s in shards] == [0, 1, 2]
    assert [s.sessions for s in shards] == [20, 20, 10]
    assert all(s.wall_s > 0 for s in shards)
    (summary,) = summaries
    assert summary.sessions == result.sessions == 50
    assert summary.shards == 3
    assert summary.workers == 1
    assert summary.sessions_per_s > 0


def test_empty_fleet_is_wellformed():
    result = run_fleet(FleetConfig(sessions=0, space=SPACE), workers=4)
    assert result.to_dict() == {"sessions": 0, "arms": {}}


def test_config_and_worker_validation():
    with pytest.raises(ValueError, match="sessions"):
        FleetConfig(sessions=-1)
    with pytest.raises(ValueError, match="shard_size"):
        FleetConfig(sessions=1, shard_size=0)
    with pytest.raises(ValueError, match="workers"):
        run_fleet(FleetConfig(sessions=1, space=SPACE), workers=0)


#: The FastMPC family, whose preset tables differ, on two ladders, with
#: small tables so the scalar engine's sessions stay cheap.
FASTMPC_SPACE = ScenarioSpace(
    controllers=("bola", "fastmpc", "robust-fastmpc", "fastmpc-gap"),
    ladders=("envivio", "uniform-6"),
    num_chunks=12,
    traces_per_dataset=4,
    trace_duration_s=60.0,
    table_config=FastMPCConfig(buffer_bins=16, throughput_bins=16, horizon=3),
)
#: sha256 of ``json.dumps(to_dict(), sort_keys=True)`` for 96 sessions,
#: seed 5, shards of 48 — recorded when every (controller, preset,
#: ladder) cell was its own batch, so grouping the presets into one
#: batch must keep every byte.
FASTMPC_DIGEST = "3377aae2e0f67c219b41e4c71088a8abe7081239c3f5a88556732e2c4b05ac7e"


@pytest.mark.parametrize("engine", ("vector", "scalar"))
def test_fastmpc_family_fleet_is_pinned(engine, monkeypatch):
    if engine == "scalar":
        use_scalar_engine(monkeypatch)
    result = run_fleet(
        FleetConfig(sessions=96, seed=5, shard_size=48, space=FASTMPC_SPACE)
    )
    blob = json.dumps(result.to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FASTMPC_DIGEST
    assert {key.split("|")[2] for key in result.arms} == set(FASTMPC_SPACE.presets)


def test_run_shard_steps_each_controller_and_ladder_once(monkeypatch):
    calls = []
    real = driver.run_batch

    def counting(controller, traces, manifest, config=None, **kwargs):
        calls.append((controller, manifest.title, len(traces), list(config)))
        return real(controller, traces, manifest, config, **kwargs)

    monkeypatch.setattr(driver, "run_batch", counting)
    scenarios = sample_scenarios(FASTMPC_SPACE, 96, 5)
    payload = run_shard(FASTMPC_SPACE, scenarios)
    cells = {(s.controller, f"fleet-{s.ladder}") for s in scenarios}
    assert sorted((c, title) for c, title, _, _ in calls) == sorted(cells)
    assert sum(n for _, _, n, _ in calls) == len(scenarios) == payload["sessions"]
    for controller, title, n, configs in calls:
        group = [
            s for s in scenarios
            if (s.controller, f"fleet-{s.ladder}") == (controller, title)
        ]
        assert [c.weights.label for c in configs] == [s.preset for s in group]
    # Batches really span presets.
    assert any(len({c.weights.label for c in configs}) > 1 for *_, configs in calls)


def test_cli_fleet_smoke(tmp_path, capsys):
    out_path = tmp_path / "fleet.json"
    rc = cli.main(
        [
            "fleet",
            "--sessions", "60",
            "--seed", "5",
            "--shard-size", "25",
            "--controllers", "lowest", "bb",
            "--chunks", "12",
            "--traces", "4",
            "--duration", "60",
            "--json", str(out_path),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "controller" in printed and "sessions/s" in printed
    payload = json.loads(out_path.read_text())
    assert payload["sessions"] == 60
    assert payload["result"]["sessions"] == 60
    rollup_controllers = {
        key.split("|")[0] for key in payload["result"]["arms"]
    }
    assert rollup_controllers == {"lowest", "bb"}
