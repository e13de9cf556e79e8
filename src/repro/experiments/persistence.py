"""Saving and reloading experiment results.

Long experiment campaigns (the paper's 1000-trace runs) should not have to
re-simulate to re-plot.  This module serialises a
:class:`~repro.experiments.runner.ResultSet` to CSV — one row per scored
session, columns for every metric the figures consume — and loads it back
into a fully functional ``ResultSet`` (aggregations, medians, detail
series all work; only the full per-chunk logs are not retained).

A JSON sidecar variant is provided for sweep results, preserving the
series structure of Figures 11/12.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import struct
from pathlib import Path
from typing import List, Optional, Union

from ..core.offline import fluid_upper_bound
from ..core.table import DecisionTable
from ..qoe import QoEBreakdown, QoEWeights
from ..sim.metrics import SessionMetrics
from ..traces.trace import Trace
from ..video.manifest import VideoManifest
from .runner import ExperimentRecord, ResultSet
from .sensitivity import SweepResult

__all__ = [
    "save_result_set_csv",
    "load_result_set_csv",
    "save_sweep_json",
    "load_sweep_json",
    "save_session_log_csv",
    "CACHE_DIR_ENV",
    "cache_root",
    "save_cached_table",
    "load_cached_table",
    "publish_table",
    "load_published_table",
    "cached_fluid_upper_bound",
    "clear_disk_cache",
]

PathLike = Union[str, os.PathLike]

logger = logging.getLogger(__name__)

_METRIC_FIELDS = (
    "num_chunks",
    "average_bitrate_kbps",
    "average_bitrate_change_kbps",
    "num_switches",
    "total_rebuffer_s",
    "num_rebuffer_events",
    "startup_delay_s",
    "total_wall_time_s",
    "average_throughput_kbps",
)

_BREAKDOWN_FIELDS = (
    "quality_total",
    "switching_total",
    "rebuffer_seconds",
    "startup_seconds",
)

_WEIGHT_FIELDS = ("switching", "rebuffering", "startup", "label")


def save_result_set_csv(results: ResultSet, path: PathLike) -> None:
    """One row per scored session; lossless for everything figures need."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "algorithm", "trace_name", "optimal_qoe", "n_qoe"]
            + [f"metric_{f}" for f in _METRIC_FIELDS]
            + [f"qoe_{f}" for f in _BREAKDOWN_FIELDS]
            + [f"weight_{f}" for f in _WEIGHT_FIELDS]
        )
        for r in results.records:
            writer.writerow(
                [r.dataset, r.algorithm, r.trace_name, r.optimal_qoe, r.n_qoe]
                + [getattr(r.metrics, f) for f in _METRIC_FIELDS]
                + [getattr(r.breakdown, f) for f in _BREAKDOWN_FIELDS]
                + [getattr(r.breakdown.weights, f) for f in _WEIGHT_FIELDS]
            )


def load_result_set_csv(path: PathLike) -> ResultSet:
    """Inverse of :func:`save_result_set_csv`."""
    path = Path(path)
    records: List[ExperimentRecord] = []
    dataset = ""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            weights = QoEWeights(
                float(row["weight_switching"]),
                float(row["weight_rebuffering"]),
                float(row["weight_startup"]),
                label=row["weight_label"],
            )
            breakdown = QoEBreakdown(
                quality_total=float(row["qoe_quality_total"]),
                switching_total=float(row["qoe_switching_total"]),
                rebuffer_seconds=float(row["qoe_rebuffer_seconds"]),
                startup_seconds=float(row["qoe_startup_seconds"]),
                weights=weights,
            )
            metrics = SessionMetrics(
                algorithm_name=row["algorithm"],
                trace_name=row["trace_name"],
                num_chunks=int(float(row["metric_num_chunks"])),
                average_bitrate_kbps=float(row["metric_average_bitrate_kbps"]),
                average_bitrate_change_kbps=float(
                    row["metric_average_bitrate_change_kbps"]
                ),
                num_switches=int(float(row["metric_num_switches"])),
                total_rebuffer_s=float(row["metric_total_rebuffer_s"]),
                num_rebuffer_events=int(float(row["metric_num_rebuffer_events"])),
                startup_delay_s=float(row["metric_startup_delay_s"]),
                total_wall_time_s=float(row["metric_total_wall_time_s"]),
                average_throughput_kbps=float(
                    row["metric_average_throughput_kbps"]
                ),
            )
            dataset = row["dataset"]
            records.append(
                ExperimentRecord(
                    dataset=row["dataset"],
                    algorithm=row["algorithm"],
                    trace_name=row["trace_name"],
                    metrics=metrics,
                    breakdown=breakdown,
                    optimal_qoe=float(row["optimal_qoe"]),
                    n_qoe=float(row["n_qoe"]),
                )
            )
    if not records:
        raise ValueError(f"{path}: no experiment records found")
    return ResultSet(records, dataset=dataset)


def save_sweep_json(sweep: SweepResult, path: PathLike) -> None:
    """Persist a Figure 11/12 sweep (series keyed by algorithm)."""
    path = Path(path)
    payload = {
        "parameter_name": sweep.parameter_name,
        "parameter_values": list(sweep.parameter_values),
        "series": {name: list(values) for name, values in sweep.series.items()},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def load_sweep_json(path: PathLike) -> SweepResult:
    """Inverse of :func:`save_sweep_json`."""
    payload = json.loads(Path(path).read_text())
    for key in ("parameter_name", "parameter_values", "series"):
        if key not in payload:
            raise ValueError(f"{path}: missing {key!r}")
    return SweepResult(
        parameter_name=payload["parameter_name"],
        parameter_values=tuple(payload["parameter_values"]),
        series={k: tuple(v) for k, v in payload["series"].items()},
    )


def save_session_log_csv(session, path: PathLike) -> None:
    """Per-chunk player log — the paper's Section 6 logging functions.

    One row per chunk with everything the modified dash.js logged:
    bitrate, download time, measured throughput, buffer levels, stall and
    wait times.  Useful for inspecting a single session's dynamics.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "chunk_index",
                "level_index",
                "bitrate_kbps",
                "size_kilobits",
                "download_time_s",
                "throughput_kbps",
                "buffer_before_s",
                "buffer_after_s",
                "rebuffer_s",
                "waited_s",
                "wall_time_end_s",
            ]
        )
        for r in session.records:
            writer.writerow(
                [
                    r.chunk_index,
                    r.level_index,
                    r.bitrate_kbps,
                    r.size_kilobits,
                    r.download_time_s,
                    r.throughput_kbps,
                    r.buffer_before_s,
                    r.buffer_after_s,
                    r.rebuffer_s,
                    r.waited_s,
                    r.wall_time_end_s,
                ]
            )


# ---------------------------------------------------------------------------
# Persistent disk cache: decision tables and offline bounds
# ---------------------------------------------------------------------------
#
# Offline precomputation dominates repeated benchmark/figure runs: a
# 500-bin FastMPC table or a 1000-trace batch of fluid bounds takes far
# longer to build than to load.  Entries are content-addressed — the file
# name is the SHA-256 of the full configuration key's ``repr`` and the key
# itself is stored inside the entry, so a hash collision or stale format
# is detected on load and falls back to recomputing.  Writes go through a
# same-directory temp file + ``os.replace`` so concurrent processes (the
# fleet's pool workers) never observe a torn entry.

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_TABLE_SUBDIR = "tables"
_BOUND_SUBDIR = "bounds"


def cache_root() -> Optional[Path]:
    """The disk-cache root: the ``REPRO_CACHE_DIR`` environment variable,
    or ``None`` — caching disabled — when it is unset or empty.

    This is the one place the cache location is read.  ``repro-abr
    --cache-dir`` sets the variable, and pool workers inherit it.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


def _entry_path(root: Path, subdir: str, key_repr: str, suffix: str) -> Path:
    digest = hashlib.sha256(key_repr.encode()).hexdigest()
    return root / subdir / f"{digest}{suffix}"


def _discard_corrupt(path: Path, error: Exception) -> None:
    """Warn about and drop a cache entry that failed to parse.

    Left in place, a corrupt entry would fail the same way on every
    later run while looking like a cache hit on disk.  The unlink is
    best-effort — a read-only cache still just misses.
    """
    logger.warning("discarding corrupt cache entry %s: %s", path, error)
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


def _atomic_write(path: Path, payload: bytes) -> None:
    # Best-effort, like loads: an unwritable cache (read-only mount, a
    # file where the directory should be) must not abort the computation
    # whose result it was merely recording.
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except OSError:
        pass


def save_cached_table(key: tuple, table: DecisionTable) -> Optional[Path]:
    """Persist a decision table under its configuration key.

    ``key`` is the tuple produced by ``repro.core.fastmpc._cache_key`` —
    plain floats/ints/strings, so its ``repr`` round-trips exactly.
    Returns the entry path, or ``None`` when caching is disabled.
    """
    root = cache_root()
    if root is None:
        return None
    key_repr = repr(key)
    key_bytes = key_repr.encode()
    path = _entry_path(root, _TABLE_SUBDIR, key_repr, ".table")
    _atomic_write(
        path, struct.pack("<I", len(key_bytes)) + key_bytes + table.to_bytes()
    )
    return path


def load_cached_table(key: tuple) -> Optional[DecisionTable]:
    """Load a previously saved decision table, or ``None`` on any miss.

    Misses include: caching disabled, no entry, stored key mismatch
    (collision / stale format), or a corrupt blob — all safe, because the
    caller simply rebuilds.
    """
    root = cache_root()
    if root is None:
        return None
    key_repr = repr(key)
    path = _entry_path(root, _TABLE_SUBDIR, key_repr, ".table")
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    try:
        (key_len,) = struct.unpack_from("<I", blob, 0)
        if len(blob) < 4 + key_len:
            raise ValueError(
                f"truncated entry: {len(blob)} bytes, key claims {key_len}"
            )
        stored = blob[4 : 4 + key_len].decode()
        if stored != key_repr:
            # A different key hashed to this path (collision or stale
            # format): an honest miss, not corruption — leave it alone.
            return None
        return DecisionTable.from_bytes(blob[4 + key_len :])
    except (struct.error, ValueError, IndexError) as exc:
        _discard_corrupt(path, exc)
        return None


# ---------------------------------------------------------------------------
# Table publication: the file worker processes load
# ---------------------------------------------------------------------------
#
# The cluster's scale-out story (docs/scaling.md): the supervisor writes
# the decision table to disk exactly once, and every worker loads the
# file with DecisionTable.from_bytes into its own copy of the runs.
# Unlike the content-addressed cache above, publication is *not*
# best-effort: a worker that cannot read the table must fail loudly, not
# silently degrade every decision.


def publish_table(table: DecisionTable, path: PathLike) -> Path:
    """Atomically write a decision table for worker processes to load.

    Same-directory temp file + ``os.replace``, so a worker that races the
    publication sees either the complete previous file or the complete
    new one, never a torn write.  Unlike the disk cache's writes, errors
    propagate — publication failing must not look like success.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(table.to_bytes())
    os.replace(tmp, path)
    return path


def load_published_table(path: PathLike) -> DecisionTable:
    """Load a published table file through :meth:`DecisionTable.from_bytes`.

    The table holds its own copy of the runs, not the file or its bytes.
    A file that is not a valid table raises ``ValueError`` naming it.
    """
    path = Path(path)
    try:
        return DecisionTable.from_bytes(path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: not a valid published table: {exc}") from None


def _quality_key(quality) -> Optional[str]:
    """A stable fingerprint of a quality function, ``None`` if unkeyable.

    Named :class:`~repro.video.quality.QualityFunction` subclasses are
    keyed by class, name, and constructor state.  Anonymous callables
    (``name`` of ``"base"``/``"wrapped"``) cannot be fingerprinted, so
    bounds computed with them are never disk-cached.
    """
    if quality is None:
        return repr(("IdentityQuality", "identity", []))
    name = getattr(quality, "name", "base")
    if name in ("base", "wrapped"):
        return None
    state = sorted(getattr(quality, "__dict__", {}).items())
    return repr((type(quality).__name__, name, state))


def cached_fluid_upper_bound(
    trace: Trace,
    manifest: VideoManifest,
    weights: Optional[QoEWeights] = None,
    quality=None,
    buffer_capacity_s: float = 30.0,
    max_rebuffer_s: float = 256.0,
    startup_step_s: float = 2.0,
) -> float:
    """Disk-cached :func:`repro.core.offline.fluid_upper_bound`.

    The bound depends only on the trace content and a handful of scalars
    (the continuous relaxation never reads per-chunk sizes), so the key is
    the trace's ``(timestamps, bandwidths, duration)`` plus the manifest
    shape, weights, quality fingerprint, and solver parameters.  Falls
    back to a direct computation when caching is disabled or the quality
    function cannot be keyed.
    """
    root = cache_root()
    qkey = _quality_key(quality)

    def compute() -> float:
        return fluid_upper_bound(
            trace,
            manifest,
            weights=weights,
            quality=quality,
            buffer_capacity_s=buffer_capacity_s,
            max_rebuffer_s=max_rebuffer_s,
            startup_step_s=startup_step_s,
        )

    if root is None or qkey is None:
        return compute()
    w = weights if weights is not None else QoEWeights.balanced()
    key_repr = repr(
        (
            "fluid_upper_bound",
            trace.timestamps,
            trace.bandwidths_kbps,
            trace.duration_s,
            manifest.num_chunks,
            manifest.chunk_duration_s,
            manifest.ladder.max_kbps,
            (w.switching, w.rebuffering, w.startup),
            qkey,
            buffer_capacity_s,
            max_rebuffer_s,
            startup_step_s,
        )
    )
    path = _entry_path(root, _BOUND_SUBDIR, key_repr, ".json")
    try:
        text: Optional[str] = path.read_text()
    except OSError:
        text = None  # no entry (or unreadable): plain miss
    if text is not None:
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("bound entry is not a JSON object")
            if payload.get("key") == key_repr:
                return float(payload["value"])
            # Valid entry for a different key: miss; recompute overwrites.
        except (ValueError, TypeError, KeyError) as exc:
            _discard_corrupt(path, exc)
    value = compute()
    _atomic_write(
        path, json.dumps({"key": key_repr, "value": value}).encode()
    )
    return value


def clear_disk_cache() -> int:
    """Delete every cached table and bound; returns the entry count.

    Only known entry types under the cache root's ``tables/`` and
    ``bounds/`` subdirectories are touched.
    """
    root = cache_root()
    if root is None:
        return 0
    removed = 0
    for subdir, suffix in ((_TABLE_SUBDIR, ".table"), (_BOUND_SUBDIR, ".json")):
        directory = root / subdir
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            if entry.suffix == suffix:
                entry.unlink()
                removed += 1
    return removed
