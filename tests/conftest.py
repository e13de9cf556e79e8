"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.abr.base import SessionConfig
from repro.core import horizon
from repro.qoe import QoEWeights
from repro.traces import (
    FCCTraceGenerator,
    HSDPATraceGenerator,
    SyntheticTraceGenerator,
    Trace,
)
from repro.video import envivio, short_test_video

# Keep property tests fast and deterministic in CI.
settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def empty_startup_memo():
    """Start every test with ``solve_startup``'s process-wide memo empty,
    as in a fresh process: what a test's first MPC session rolls out must
    not depend on which earlier tests posed the same startup problem."""
    horizon._solve_startup.cache_clear()


@pytest.fixture(scope="session")
def envivio_manifest():
    """The paper's evaluation video (65 x 4 s chunks, 5 levels)."""
    return envivio()


@pytest.fixture
def short_manifest():
    """A small 8-chunk, 3-level video for exhaustive cross-checks."""
    return short_test_video(num_chunks=8, num_levels=3)


@pytest.fixture
def constant_trace():
    """A steady 1.5 Mbps link, long enough for the Envivio video."""
    return Trace.constant(1500.0, 600.0, name="constant-1500")


@pytest.fixture
def step_trace():
    """2 Mbps for 100 s, then a 400 kbps trough, then recovery."""
    return Trace(
        [0.0, 100.0, 160.0],
        [2000.0, 400.0, 2000.0],
        duration_s=600.0,
        name="step",
    )


@pytest.fixture
def fcc_traces():
    return FCCTraceGenerator(seed=7).generate_many(6, 320.0)


@pytest.fixture
def hsdpa_traces():
    return HSDPATraceGenerator(seed=7).generate_many(6, 320.0)


@pytest.fixture
def synthetic_traces():
    return SyntheticTraceGenerator(seed=7).generate_many(6, 320.0)


@pytest.fixture
def default_config():
    return SessionConfig()


@pytest.fixture
def balanced_weights():
    return QoEWeights.balanced()
