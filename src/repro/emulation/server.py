"""The chunk HTTP server of the emulation testbed.

Stands in for the paper's node.js static file server: it knows the video
manifest, adds per-response protocol overhead (HTTP headers), and models a
small request-processing delay.  State is deliberately minimal — DASH
servers are stateless by design (Section 2), which is exactly what lets a
single server object serve any number of emulated clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..video.manifest import VideoManifest

__all__ = ["ChunkRequest", "ChunkServer"]


@dataclass(frozen=True)
class ChunkRequest:
    """One GET issued by a client."""

    client_id: int
    chunk_index: int
    level_index: int
    issued_at_s: float


class ChunkServer:
    """Serves chunk bytes plus protocol overhead.

    Parameters
    ----------
    manifest:
        The video being served.
    header_kilobits:
        Response overhead added to every chunk (HTTP response headers;
        default ~500 bytes).
    processing_delay_s:
        Server-side time to start the response after the request arrives.
    """

    def __init__(
        self,
        manifest: VideoManifest,
        header_kilobits: float = 4.0,
        processing_delay_s: float = 0.001,
    ) -> None:
        if not 0.0 <= header_kilobits < math.inf:
            raise ValueError("header overhead must be a finite number >= 0")
        if not 0.0 <= processing_delay_s < math.inf:
            raise ValueError("processing delay must be a finite number >= 0")
        self.manifest = manifest
        self.header_kilobits = header_kilobits
        self.processing_delay_s = processing_delay_s
        self._request_log: List[ChunkRequest] = []

    def response_kilobits(self, chunk_index: int, level_index: int) -> float:
        """Total bytes on the wire for a chunk response."""
        return (
            self.manifest.chunk_size_kilobits(chunk_index, level_index)
            + self.header_kilobits
        )

    def handle_request(self, request: ChunkRequest) -> Tuple[float, float]:
        """Accept a GET; returns (response_kilobits, processing_delay_s)."""
        if not 0 <= request.chunk_index < self.manifest.num_chunks:
            raise ValueError(f"chunk {request.chunk_index} not on this server")
        if not 0 <= request.level_index < len(self.manifest.ladder):
            raise ValueError(f"level {request.level_index} not on this server")
        self._request_log.append(request)
        return (
            self.response_kilobits(request.chunk_index, request.level_index),
            self.processing_delay_s,
        )

    @property
    def requests_served(self) -> int:
        return len(self._request_log)

    def requests_by_client(self) -> Dict[int, int]:
        """Per-client GET counts (multi-client experiments)."""
        counts: Dict[int, int] = {}
        for request in self._request_log:
            counts[request.client_id] = counts.get(request.client_id, 0) + 1
        return counts
