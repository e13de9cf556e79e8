"""Failure accounting of the serving workloads' answer and shared-prior checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.serving import (  # noqa: E402
    SPECS,
    Exchange,
    check_answers,
    check_priors,
    player_requests,
)


@pytest.fixture(scope="module")
def service():
    from repro.core.fastmpc import FastMPCConfig, build_decision_table
    from repro.core.qoe import QoEWeights
    from repro.service.server import DecisionService, ServiceConfig
    from repro.video import envivio

    manifest = envivio()
    table = build_decision_table(
        manifest.ladder.levels_kbps, manifest.chunk_duration_s, 30.0,
        QoEWeights.preset("balanced"),
        config=FastMPCConfig(buffer_bins=10, throughput_bins=10, horizon=3),
    )
    return DecisionService(manifest.ladder.levels_kbps, table=table,
                           config=ServiceConfig(lookup_budget_s=1e9))


def _json_exchanges(service, units):
    return [
        Exchange(status=200, body=service.decide(unit[0]).to_json()) for unit in units
    ]


def _plant(body: bytes, **fields) -> bytes:
    payload = json.loads(body)
    payload.update(fields)
    return json.dumps(payload).encode()


def test_correct_answers_pass(service):
    units = [[r] for r in player_requests(3, 40, family=True)]
    attempted, failed, degraded, digest = check_answers(
        SPECS["players"], units, _json_exchanges(service, units), service
    )
    assert (attempted, failed, degraded) == (40, 0, {})
    assert digest == sum(service.decide(u[0]).level_index for u in units)


def test_planted_wrong_level_is_a_failed_operation(service):
    units = [[r] for r in player_requests(3, 40, family=True)]
    exchanges = _json_exchanges(service, units)
    right = json.loads(exchanges[7].body)["level_index"]
    exchanges[7].body = _plant(exchanges[7].body, level_index=(right + 1) % 5)
    assert check_answers(SPECS["players"], units, exchanges, service)[1] == 1


def test_transport_status_and_missing_answers_fail(service):
    units = [[r] for r in player_requests(3, 12, family=True)]
    exchanges = _json_exchanges(service, units)
    exchanges[0].status = 500
    exchanges[1] = Exchange()  # never answered
    exchanges[2].body = b"not json"
    exchanges[3].body = _plant(exchanges[3].body, session_id="someone-else")
    assert check_answers(SPECS["players"], units, exchanges, service)[1] == 4


def test_degraded_fallback_is_valid_but_a_wrong_fallback_fails(service):
    units = [[r] for r in player_requests(3, 12, family=True)]
    exchanges = _json_exchanges(service, units)
    request = units[4][0]
    fallback = service.fallback_response(
        request.session_id, request.predicted_kbps, "over-budget"
    ).level_index
    exchanges[4].body = _plant(exchanges[4].body, degraded=True, reason="over-budget",
                               source="fallback", level_index=fallback)
    attempted, failed, degraded, _ = check_answers(SPECS["players"], units, exchanges, service)
    assert (failed, degraded) == (0, {"over-budget": 1})
    exchanges[4].body = _plant(exchanges[4].body, level_index=(fallback + 1) % 5)
    assert check_answers(SPECS["players"], units, exchanges, service)[1] == 1


def test_planted_wrong_record_in_a_binary_frame_fails_only_that_record(service):
    from dataclasses import replace

    from repro.service.protocol import encode_response_batch

    spec = SPECS["edge"]
    requests = player_requests(4, 2 * spec.records, family=False)
    units = [requests[: spec.records], requests[spec.records :]]
    exchanges = []
    for k, unit in enumerate(units):
        answers = list(service.decide_batch(unit))
        if k == 1:
            answers[5] = replace(answers[5], level_index=(answers[5].level_index + 1) % 5)
        exchanges.append(Exchange(status=200, body=encode_response_batch(answers)))
    attempted, failed, _, _ = check_answers(spec, units, exchanges, service)
    assert (attempted, failed) == (2 * spec.records, 1)


def _served_priors(service, units):
    """The ``priors`` section a fresh server would report after ``units``."""
    from repro.service.server import DecisionService, ServiceConfig

    fresh = DecisionService(service.ladder, table=service.table,
                            config=ServiceConfig(lookup_budget_s=1e9))
    for unit in units:
        fresh.decide(unit[0])
    return json.loads(json.dumps(fresh.metrics_document()["priors"]))


def test_served_priors_pass(service):
    units = [[r] for r in player_requests(5, 90, family=True)]
    assert check_priors(_served_priors(service, units), units)
    edge_units = [player_requests(5, 64, family=False)]
    assert check_priors({"families": {}, "samples_total": 0}, edge_units)


def test_planted_wrong_prior_is_caught(service):
    units = [[r] for r in player_requests(5, 90, family=True)]
    served = _served_priors(service, units)
    name = sorted(served["families"])[0]

    wrong_estimate = json.loads(json.dumps(served))
    wrong_estimate["families"][name]["estimate_kbps"] *= 1.5
    assert not check_priors(wrong_estimate, units)

    moved_sample = json.loads(json.dumps(served))
    counts = moved_sample["families"][name]["counts"]
    k = next(i for i, c in enumerate(counts) if c)
    counts[k] -= 1
    counts[k + 1] += 1
    assert not check_priors(moved_sample, units)

    assert not check_priors(_served_priors(service, units[:-1]), units)  # one sample lost
    assert not check_priors({"families": {}, "samples_total": 0}, units)
