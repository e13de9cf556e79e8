"""Host-side helpers shared by every workload.

Process accounting (CPU time, peak RSS, CPU pinning), per-run host
diagnostics (fingerprint, steal share, a fixed calibration loop), simple
order statistics, and the result printer that ends every run with the
one-line JSON record.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Working files (span dumps, server logs); listed in .gitignore.
RUN_DIR = ROOT / ".perfbench_run"

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def python_env() -> Dict[str, str]:
    """The environment for every launched process.

    ``REPRO_CACHE_DIR`` is removed so a table build is always cold and
    ``setup_s`` never reads a disk cache left by an earlier run.
    """
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + str(ROOT)
    env["PYTHONHASHSEED"] = "0"
    return env


def fingerprint() -> Dict[str, object]:
    """cpu_count, Python, NumPy, platform and git SHA of this run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "missing"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    try:
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        packed = ROOT / ".git" / "packed-refs"
        try:
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split(" ", 1)[0]
        except OSError:
            pass
    return "unknown"


def host_cpu_ticks() -> Tuple[int, int]:
    """``(total, steal)`` jiffies over all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user time
    return sum(values[:8]), steal


def cpu_steal_jiffies(cpus: Iterable[Optional[int]]) -> int:
    """Steal jiffies summed over the given CPUs (all CPUs for ``None``)."""
    wanted = {f"cpu{c}" if c is not None else "cpu" for c in cpus}
    total = 0
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                if not line.startswith("cpu"):
                    break
                fields = line.split()
                if fields[0] in wanted and len(fields) > 8:
                    total += int(fields[8])
    except OSError:
        return 0
    return total


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


#: Repetitions of the calibration loop; its median is reported.
CALIBRATION_ROUNDS = 5


def calibration_ms() -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds.

    Timed before and after each workload, so a slow run can be traced
    to a slow host rather than to the code under test.
    """
    samples = []
    for _ in range(CALIBRATION_ROUNDS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1e3)
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return statistics.median(samples)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    fields = raw[raw.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_runtime_s(pid: int) -> float:
    """CPU seconds of ``pid`` at scheduler resolution.

    ``/proc/PID/sched`` carries the scheduler's nanosecond run-time sum;
    where the kernel does not expose it, the tick-based count is used.
    """
    try:
        with open(f"/proc/{pid}/sched") as handle:
            for line in handle:
                if line.startswith("se.sum_exec_runtime"):
                    return float(line.split(":")[1]) / 1e3
    except OSError:
        pass
    return proc_cpu_s(pid)


#: The speed reference: one JSON round trip of this fixed document.  On
#: the shared 2-vCPU host the bounds were set on, a vCPU's speed changes
#: by up to 2.7x within seconds with its neighbours' load, with no steal
#: to show for it.  Run on the same CPU as the work and interleaved with
#: it, the reference call's CPU time follows that speed: over 1 s windows
#: of simulated sessions whose CPU cost varied by 21%, the two correlated
#: at 0.995 and their ratio varied by 1.8%.  A fixed pure-Python loop
#: tracked far less well.  The call exercises only the standard library,
#: so no change to the program under test moves it.
REFERENCE_DOC = {f"k{i}": [i, float(i), "x" * 10, {"y": i}] for i in range(200)}
#: CPU seconds of one reference call at the speed every normalised time
#: is scaled to: about its median on the host the bounds were set on.
REFERENCE_CALL_S = 650e-6


def reference_calls(calls: int) -> float:
    """Run ``calls`` reference calls; returns their CPU seconds."""
    c0 = time.process_time()
    for _ in range(calls):
        json.loads(json.dumps(REFERENCE_DOC))
    return time.process_time() - c0


def slowdown(reference_cpu_s: float, calls: int) -> float:
    """How many times slower than the reference speed the CPU ran.

    A normalised time is a measured CPU time divided by this: the time
    the work would have taken at the reference speed.
    """
    return reference_cpu_s / calls / REFERENCE_CALL_S


def window_references(samples: Sequence[Tuple[float, float]],
                      bounds: Sequence[float]) -> List[Tuple[float, int]]:
    """``(CPU seconds, calls)`` of the reference calls ``(end time, CPU
    seconds)`` that ended in each window ``[bounds[j], bounds[j + 1])``."""
    out = []
    times = [t for t, _ in samples]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = samples[bisect.bisect_left(times, lo) : bisect.bisect_left(times, hi)]
        out.append((math.fsum(c for _, c in inside), len(inside)))
    return out


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def cpu_plan() -> Tuple[Optional[int], Optional[int]]:
    """``(server_cpu, client_cpu)``: two distinct CPUs when there are two.

    With a single usable CPU nothing is pinned and both are ``None``.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def pin(pid: int, cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def tail_percentile(n: int) -> float:
    """The highest of p99.9 / p99 / p90 / p50 with >= 10 samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q
    return 0.5


class Metrics:
    """An ordered name -> (value, unit) record."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        if name in self.values:
            raise ValueError(f"metric {name} recorded twice")
        self.values[name] = (float(value), unit)

    def update(self, other: "Metrics") -> None:
        for name, (value, unit) in other.values.items():
            self.add(name, value, unit)


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, dict],
) -> None:
    """Print every metric by name and unit, then the JSON result line."""
    for name, record in metrics.items():
        print(f"{name:<40} {record['value']:>16.6g} {record['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=False,
        )
    )
    sys.stdout.flush()
