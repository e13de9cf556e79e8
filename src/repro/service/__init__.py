"""``repro.service`` — the ABR decision service (deployment direction).

Section 5's point is that FastMPC makes the MPC "Optimize" step cheap
enough to run per-request in production; this package takes the next
step the ROADMAP asks for and puts the table behind a serving boundary:

* :mod:`protocol` — the session-keyed request/response wire format
  carrying ``(buffer_s, prev_level, predicted_kbps, past_errors)``.
* :mod:`metrics` — request counters, decision-source breakdown and
  fixed-bucket latency histograms, exported as JSON from ``/metrics``.
* :mod:`server` — :class:`DecisionService` (transport-free decision
  logic with a rate-based fallback and per-lookup budgets) and
  :class:`DecisionServer`, a stdlib-only asyncio HTTP/1.1 front end
  with warm/cold table swapping that never drops connections.
* :mod:`experiment` — deterministic weighted A/B assignment of sessions
  to named controller arms (pure hash of the session id).
* :mod:`backends` — stateful per-session controller instances (the
  registry zoo: BOLA, BBA-0/1, DAS-IP, ...) behind the service, with
  LRU + idle eviction.
* :mod:`prior` — the cross-session throughput prior: LRU-bounded
  per-trace-family histograms fed by family-keyed requests, served
  back as ``prior_kbps`` and merged losslessly cluster-wide.
* :mod:`client` — a keep-alive asyncio client speaking the protocol.
* :mod:`loadgen` — a closed-loop, trace-driven load generator that
  replays virtual player sessions against a running server.
* :mod:`cluster` — :class:`ClusterSupervisor`, the multi-process
  scale-out tier: N workers load one published table file and share
  one ``SO_REUSEPORT`` port, supervised with restart backoff and
  cluster-wide aggregated ``/metrics`` (see ``docs/scaling.md``).

Everything here is standard library + the existing ``repro`` core; the
only numerics are one table lookup (or the rate-based fallback) per
request.
"""

from .protocol import (
    PROTOCOL_VERSION,
    DecisionRequest,
    DecisionResponse,
    ProtocolError,
)
from .backends import AlgorithmBackend
from .experiment import (
    CONTROLLER_TABLE,
    ExperimentArm,
    ExperimentConfig,
    parse_arms_spec,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .prior import SharedPriorStore, merge_prior_snapshots
from .server import DecisionServer, DecisionService, ServiceConfig
from .client import DecisionClient, RetryPolicy, ServiceClient, ServiceUnavailable
from .loadgen import LoadTestConfig, LoadTestReport, run_loadtest, run_loadtest_sync
from .metrics import merge_metrics_snapshots
from .cluster import ClusterConfig, ClusterError, ClusterSupervisor

__all__ = [
    "PROTOCOL_VERSION",
    "DecisionRequest",
    "DecisionResponse",
    "ProtocolError",
    "AlgorithmBackend",
    "CONTROLLER_TABLE",
    "ExperimentArm",
    "ExperimentConfig",
    "parse_arms_spec",
    "LatencyHistogram",
    "ServiceMetrics",
    "SharedPriorStore",
    "merge_prior_snapshots",
    "ServiceConfig",
    "DecisionService",
    "DecisionServer",
    "DecisionClient",
    "RetryPolicy",
    "ServiceClient",
    "ServiceUnavailable",
    "LoadTestConfig",
    "LoadTestReport",
    "run_loadtest",
    "run_loadtest_sync",
    "merge_metrics_snapshots",
    "ClusterConfig",
    "ClusterError",
    "ClusterSupervisor",
]
