"""Launch ``repro-abr serve`` with the benchmark's hooks installed.

    python -m perfbench.serve OUT_PATH [--layers] serve --port 0 [...]

Runs the program's own ``serve`` command unchanged, with hooks added from
outside it:

* every ``/v1/decide`` exchange span the server records for ``/metrics``
  (``spans_us.decide``) is also kept as ``(end time, microseconds)``, so
  the benchmark reads the server's own exchange latency request by
  request; this costs one list append per exchange;
* with ``--layers``, the :mod:`perfbench.spans` wrappers: table build,
  event loop, codec, decide, shared prior, table lookup.

Each SIGUSR1 records a mark — the time, the process's CPU time and the
layer totals so far — so the benchmark can read the layers over exactly
its timed window.  Between the first mark and the second, a timer runs
one speed-reference call (:func:`perfbench.host.reference_calls`) in the
server every :data:`REFERENCE_INTERVAL_S`, interleaved with its work, and
keeps ``(end time, CPU seconds)`` of each; the call runs in its own
``bench.reference`` span.  On shutdown (SIGINT) everything is written to
``OUT_PATH``.
"""

from __future__ import annotations

import signal
import sys
import time

from perfbench import host
from perfbench.spans import (
    BUILD_BOUNDARIES,
    LOOP_WAITS,
    REFERENCE_LAYER,
    SERVICE_BOUNDARIES,
    SpanRecorder,
    install,
)

#: Seconds between speed-reference calls in the window: about 1.3% of
#: the server's CPU at 0.65 ms a call.
REFERENCE_INTERVAL_S = 0.05


def keep_exchanges(log: list) -> None:
    """Append ``(perf_counter at the end, us)`` of every ``decide`` span to ``log``."""
    from repro.service.metrics import ServiceMetrics

    record_span = ServiceMetrics.record_span
    clock = time.perf_counter

    def recording(self, name, latency_us):
        record_span(self, name, latency_us)
        if name == "decide":
            log.append((clock(), latency_us))

    ServiceMetrics.record_span = recording


def main(argv) -> int:
    out_path, argv = argv[0], argv[1:]
    layers = argv[:1] == ["--layers"]
    serve_argv = argv[1:] if layers else argv
    from repro import cli

    recorder = SpanRecorder()
    if layers:
        install(recorder, BUILD_BOUNDARIES + SERVICE_BOUNDARIES, waits=LOOP_WAITS)
    exchanges: list = []
    keep_exchanges(exchanges)
    marks: list = []
    references: list = []

    def reference(*_) -> None:
        with recorder.span(REFERENCE_LAYER):
            cpu_s = host.reference_calls(1)
        references.append((time.perf_counter(), cpu_s))

    def mark(*_) -> None:
        marks.append({"t": time.perf_counter(), "cpu_s": time.process_time(),
                      **recorder.snapshot()})
        interval = REFERENCE_INTERVAL_S if len(marks) == 1 else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    signal.signal(signal.SIGALRM, reference)
    signal.signal(signal.SIGUSR1, mark)
    try:
        return cli.main(serve_argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        recorder.dump(out_path, exchanges=exchanges, marks=marks, references=references)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
