"""Top-level entry points for the emulation testbed.

:func:`emulate_session` is the byte-level counterpart of
:func:`repro.sim.session.simulate_session`; :func:`emulate_shared_link`
runs several players against one bottleneck — the multi-player scenario
Section 8 discusses as future work, available here as an extension
experiment.  A single session is the one-player case of the same run,
and both, like the arena (:func:`repro.arena.run_arena`), build their
testbed with one private builder: the event queue, the link with the
bandwidth faults compiled into its trace, the one link-fault injector
and the chunk server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..abr.base import ABRAlgorithm, SessionConfig
from ..faults.simlink import SimLinkFaults
from ..faults.trace import apply_trace_faults
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


class _Testbed:
    """What every player of one emulated run shares.

    The event queue; the bottleneck link, with the bandwidth faults in
    ``faults`` compiled into its trace (exact segment surgery); the one
    :class:`~repro.faults.simlink.SimLinkFaults` drawing the link faults
    for every client (``None`` without link faults); and the chunk
    server.  With ``faults`` empty or ``None`` this is byte-for-byte the
    clean testbed.
    """

    def __init__(
        self,
        trace: Trace,
        manifest: VideoManifest,
        network: NetworkProfile,
        faults: Optional[Sequence] = None,
        fault_seed: int = 0,
    ) -> None:
        faults = faults or ()
        self.rtt_s = network.rtt_s
        self.queue = EventQueue()
        self.link = SharedTraceLink(
            apply_trace_faults(trace, faults),
            self.queue,
            rtt_s=max(network.rtt_s, 1e-3),
            slow_start=network.slow_start,
        )
        self.faults = SimLinkFaults(faults, fault_seed) or None
        self.server = ChunkServer(
            manifest,
            header_kilobits=network.header_kilobits,
            processing_delay_s=network.server_processing_delay_s,
        )

    def client(
        self,
        client_id: int,
        algorithm: ABRAlgorithm,
        manifest: VideoManifest,
        config: SessionConfig,
        **options,
    ) -> EmulatedClient:
        """A player on this testbed; ``options`` are the client's own
        (start time, startup policy, tracer, session id)."""
        return EmulatedClient(
            client_id,
            algorithm,
            manifest,
            config,
            self.queue,
            self.link,
            self.server,
            self.faults,
            rtt_s=self.rtt_s,
            **options,
        )


def _emulate(
    algorithms: Sequence[ABRAlgorithm],
    trace: Trace,
    manifest: VideoManifest,
    config: Optional[SessionConfig],
    network: Optional[NetworkProfile],
    faults: Optional[Sequence],
    fault_seed: int,
    start_stagger_s: float = 0.0,
    **options,
) -> List[SessionResult]:
    """Play ``algorithms`` on one testbed, player ``i`` arriving at
    ``i * start_stagger_s``; one result per player, in input order."""
    config = config if config is not None else SessionConfig()
    network = network if network is not None else NetworkProfile()
    testbed = _Testbed(trace, manifest, network, faults, fault_seed)
    clients = [
        testbed.client(
            i, algorithm, manifest, config, start_time_s=i * start_stagger_s, **options
        )
        for i, algorithm in enumerate(algorithms)
    ]
    testbed.queue.run_until_idle()
    return [client.result() for client in clients]


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
    still always completes — the client retries a failed download at the
    level it decided, and a chunk's attempt after its 64th failure is
    never failed (see ``docs/robustness.md``).

    A :class:`repro.obs.Tracer` makes the client emit the same per-chunk
    event timeline as the simulator (see ``docs/observability.md``).
    """
    (result,) = _emulate(
        [algorithm],
        trace,
        manifest,
        config,
        network,
        faults,
        fault_seed,
        startup_policy=startup_policy,
        fixed_startup_delay_s=fixed_startup_delay_s,
        tracer=tracer,
        session_id=session_id,
    )
    return result


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
    return SharedLinkResult(
        _emulate(
            algorithms,
            trace,
            manifest,
            config,
            network,
            faults,
            fault_seed,
            start_stagger_s,
            tracer=tracer,
        )
    )
