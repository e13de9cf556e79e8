#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload {players,edge,sessions,population,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in a fresh process
and builds nothing but bytecode (compiled once, before the first measured
run).  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

``sessions`` and ``population`` run their timed work in a worker process
launched by this one; ``setup_s`` is the median over several fresh
processes of spawn -> ready (imports, trace pools, cold table builds).
``players`` and ``edge`` drive a launched server from this process.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("players", "edge", "sessions", "population")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "setup"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metric_names(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ.pop("REPRO_CACHE_DIR", None)
    # SIGTERM unwinds like an error, so every launched process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return _run_all(args)
    if args.role != "main":
        return _run_child(args)
    for directory in (ROOT / "src", ROOT / "perfbench"):
        if not compileall.compile_dir(str(directory), quiet=1):
            print(f"perfbench: bytecode compile failed in {directory}", file=sys.stderr)
            return 2
    if args.workload in ("players", "edge"):
        from perfbench import serving

        result = serving.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        result = _run_with_worker(args)
    return _report(args, result)


# ---------------------------------------------------------------------------


def _workload_module(name: str):
    if name == "sessions":
        from perfbench import sessions

        return sessions
    from perfbench import population

    return population


def _run_child(args) -> int:
    """``--role setup|worker``: set up, say ready, then (worker) measure."""
    module = _workload_module(args.workload)
    recorder = None
    if args.trace:
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
    state = module.setup(args.seed, recorder)
    print(READY, flush=True)
    if args.role == "setup":
        return 0
    result = module.run(state, args.seed, args.seconds, recorder)
    if recorder is not None:
        from perfbench import host

        host.RUN_DIR.mkdir(exist_ok=True)
        recorder.dump(str(host.RUN_DIR / f"spans-{args.workload}.json"))
    payload = dict(result)
    payload["metrics"] = result["metrics"].values
    print(RESULT + json.dumps(payload), flush=True)
    return 0


def _spawn_until_ready(args, role: str):
    """Launch a child; returns (process, spawn->ready seconds, deadline)."""
    from perfbench import host

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--role", role]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=str(ROOT), env=host.python_env(),
                            stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while True:
            line = _readline(proc, deadline)
            if line is None:
                raise RuntimeError(f"{args.workload} {role} exited ({proc.wait()}) before ready")
            if line.strip() == READY:
                return proc, time.perf_counter() - started, deadline
            print(line, end="")
    except BaseException:
        _stop(proc)
        raise


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _readline(proc, deadline):
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("workload process timed out")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            return line if line else None


def _run_with_worker(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s, _ = _spawn_until_ready(args, "setup")
            setups.append(setup_s)
            proc.wait()
            proc.stdout.close()
    proc, setup_s, deadline = _spawn_until_ready(args, "worker")
    setups.append(setup_s)
    result = None
    try:
        while True:
            line = _readline(proc, deadline)
            if line is None:
                break
            if line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                print(line, end="")
    finally:
        _stop(proc)
    code = proc.returncode
    if result is None or code != 0:
        raise RuntimeError(f"{args.workload} worker failed with exit code {code}")
    from perfbench import host

    metrics = host.Metrics()
    for name, (value, unit) in result["metrics"].items():
        metrics.add(name, value, unit)
    if not args.trace:
        metrics.add("setup_s", statistics.median(setups), "s")
    result["metrics"] = metrics
    result.setdefault("diagnostics", {})["setup_samples_s"] = setups
    return result


def _report(args, result: dict) -> int:
    from perfbench import host

    diagnostics = dict(result.get("diagnostics", {}))
    diagnostics["host"] = host.fingerprint()
    for key, value in diagnostics.items():
        print(f"# {args.workload} {key}: {json.dumps(value, sort_keys=True)}")
    metrics = result["metrics"]
    if not args.trace:
        attempted = result["attempted"]
        metrics.add("ok_ratio", (attempted - result["failed"]) / max(attempted, 1), "ratio")
    selected = {}
    missing = []
    for entry in _metric_names(bool(args.trace)):
        name, unit = entry["name"], entry["unit"]
        if name in metrics.values:
            value, measured_unit = metrics.values[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name} measured in {measured_unit}, declared {unit}")
        elif args.trace:
            # A layer this workload never enters: its span total is zero.
            value = 0.0
        else:
            missing.append(name)
            continue
        selected[name] = {"value": value, "unit": unit}
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    host.emit_result(result["correct"], result["attempted"], result["failed"], selected)
    return 0


def _run_all(args) -> int:
    """Every workload, each in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{workload}] failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"[{workload}] {lines[-1]}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, record in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = record
    sys.stdout.flush()
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
