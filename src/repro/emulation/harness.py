"""Top-level entry points for the emulation testbed.

:func:`emulate_session` is the byte-level counterpart of
:func:`repro.sim.session.simulate_session`; :func:`emulate_shared_link`
runs several players against one bottleneck — the multi-player scenario
Section 8 discusses as future work, available here as an extension
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..abr.base import ABRAlgorithm, SessionConfig
from ..sim.session import SessionResult, StartupPolicy
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .client import EmulatedClient
from .clock import EventQueue
from .fairness import FairnessReport, fairness_report
from .link import SharedTraceLink
from .server import ChunkServer

__all__ = [
    "NetworkProfile",
    "SharedLinkResult",
    "emulate_session",
    "emulate_shared_link",
]


class SharedLinkResult(List[SessionResult]):
    """Per-player session results plus run-level fairness.

    A plain list of :class:`SessionResult` (in player order — existing
    callers keep indexing/unpacking it), with the multiplayer fairness
    measures attached: :meth:`fairness` computes Jain's index and the
    unfairness score over the players' average bitrates.
    """

    def fairness(self) -> FairnessReport:
        return fairness_report(self)


@dataclass(frozen=True)
class NetworkProfile:
    """Network-path parameters of the emulated testbed.

    The defaults approximate the paper's Emulab setup (LAN RTT, standard
    HTTP overhead) with slow-start restarts enabled so that HTTP-level
    throughput measurements carry their real-world bias.
    """

    rtt_s: float = 0.08
    header_kilobits: float = 4.0
    server_processing_delay_s: float = 0.001
    slow_start: bool = True

    def __post_init__(self) -> None:
        # ``0 <= x < inf`` also refuses NaN, which passes an ``x < 0`` test
        # and would stall the event queue.
        if not 0.0 <= self.rtt_s < math.inf:
            raise ValueError("RTT must be a finite number >= 0")
        if not 0.0 <= self.header_kilobits < math.inf:
            raise ValueError("header overhead must be a finite number >= 0")
        if not 0.0 <= self.server_processing_delay_s < math.inf:
            raise ValueError("processing delay must be a finite number >= 0")


def _build_link(
    trace: Trace,
    queue: EventQueue,
    network: NetworkProfile,
    faults: Optional[Sequence] = None,
    fault_seed: int = 0,
):
    """The shared bottleneck, optionally wrapped with fault injection.

    Bandwidth faults are compiled into the trace itself (exact segment
    surgery); per-transfer faults wrap the link.  With ``faults`` empty
    or ``None`` this is byte-for-byte the clean link.
    """
    if faults:
        # Imported lazily: the faults package is optional equipment and
        # itself imports this package's link module.
        from ..faults import FaultyLink, apply_trace_faults, link_faults

        trace = apply_trace_faults(trace, faults)
        link = SharedTraceLink(
            trace,
            queue,
            rtt_s=max(network.rtt_s, 1e-3),
            slow_start=network.slow_start,
        )
        if link_faults(faults):
            return FaultyLink(link, faults, seed=fault_seed)
        return link
    return SharedTraceLink(
        trace, queue, rtt_s=max(network.rtt_s, 1e-3), slow_start=network.slow_start
    )


def emulate_session(
    algorithm: ABRAlgorithm,
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    network: Optional[NetworkProfile] = None,
    startup_policy: StartupPolicy = StartupPolicy.FIRST_CHUNK,
    fixed_startup_delay_s: float = 0.0,
    faults: Optional[Sequence] = None,
    fault_seed: int = 0,
    tracer=None,
    session_id: str = "",
) -> SessionResult:
    """Run one player through the byte-level testbed; same result type as
    the simulator, so harness code is backend-agnostic.

    ``faults`` takes :class:`~repro.faults.spec.FaultSpec` objects
    (blackouts, clamps, latency spikes, chunk failures); the session
    still always completes — the client retries failed downloads and
    degrades to its local rate-based fallback level when the retry
    budget runs out (see ``docs/robustness.md``).

    A :class:`repro.obs.Tracer` makes the client emit the same per-chunk
    event timeline as the simulator (see ``docs/observability.md``).
    """
    config = config if config is not None else SessionConfig()
    network = network if network is not None else NetworkProfile()
    queue = EventQueue()
    link = _build_link(trace, queue, network, faults, fault_seed)
    server = ChunkServer(
        manifest,
        header_kilobits=network.header_kilobits,
        processing_delay_s=network.server_processing_delay_s,
    )
    client = EmulatedClient(
        client_id=0,
        algorithm=algorithm,
        manifest=manifest,
        config=config,
        queue=queue,
        link=link,
        server=server,
        rtt_s=network.rtt_s,
        startup_policy=startup_policy,
        fixed_startup_delay_s=fixed_startup_delay_s,
        tracer=tracer,
        session_id=session_id,
    )
    queue.run_until_idle()
    return client.result()


def emulate_shared_link(
    algorithms: Sequence[ABRAlgorithm],
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig] = None,
    network: Optional[NetworkProfile] = None,
    start_stagger_s: float = 0.0,
    faults: Optional[Sequence] = None,
    fault_seed: int = 0,
    tracer=None,
) -> SharedLinkResult:
    """Multiple players compete on one bottleneck (Section 8 extension).

    Each algorithm drives its own client; ``start_stagger_s`` offsets the
    session starts (players rarely begin simultaneously in practice).
    Returns one session result per player, in input order, as a
    :class:`SharedLinkResult` — call ``.fairness()`` on it for Jain's
    index and the multiplayer unfairness measure.  A shared ``tracer``
    receives every player's events, distinguished by session id.
    """
    if not algorithms:
        raise ValueError("need at least one player")
    if not 0.0 <= start_stagger_s < math.inf:
        raise ValueError("stagger must be a finite number >= 0")
    config = config if config is not None else SessionConfig()
    network = network if network is not None else NetworkProfile()
    queue = EventQueue()
    link = _build_link(trace, queue, network, faults, fault_seed)
    server = ChunkServer(
        manifest,
        header_kilobits=network.header_kilobits,
        processing_delay_s=network.server_processing_delay_s,
    )
    clients = [
        EmulatedClient(
            client_id=i,
            algorithm=algorithm,
            manifest=manifest,
            config=config,
            queue=queue,
            link=link,
            server=server,
            rtt_s=network.rtt_s,
            start_time_s=i * start_stagger_s,
            tracer=tracer,
        )
        for i, algorithm in enumerate(algorithms)
    ]
    queue.run_until_idle()
    return SharedLinkResult(client.result() for client in clients)
