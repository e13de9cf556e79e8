"""Layer-boundary spans for the traced run, installed from outside the program.

The program under test carries no benchmark hooks.  A traced run wraps
the public functions at each layer boundary with :class:`SpanRecorder`
wrappers: each call records one span (layer, start, end, depth), and the
recorder keeps a running self time per layer — the span's duration minus
the time its child spans cover.  Spans are kept in memory (the first
:data:`KEEP_SPANS` of them verbatim, every one in the per-layer totals)
and written out once, at exit, by :meth:`SpanRecorder.dump`.

The ``*_BOUNDARIES`` tables name the boundaries of each workload; the
layer names are the program's module names, which is how per-layer
metrics are named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int]  # layer, start ns, end ns, depth

#: The span the single-process workloads' speed-reference calls run in.
REFERENCE_LAYER = "bench.reference"

#: Spans kept verbatim for the dump; later ones count only in the totals.
KEEP_SPANS = 50_000


class SpanRecorder:
    """Collects spans from wrapped callables on one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []  # child ns accumulated by each open span
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        count: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """``fn`` wrapped so every call records one ``layer`` span.

        ``count(args)`` (optional) gives the units of work the call did,
        e.g. the number of lookups in a batch; calls are counted always.
        """
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        items = self.items
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                self_ns[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                calls[layer] += 1
                if count is not None:
                    items[layer] += count(args)
                if len(spans) < KEEP_SPANS:
                    spans.append((layer, t0, t1, len(stack)))

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", layer)
        wrapped.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        return wrapped

    def wrap_wait(self, fn: Callable, layer: str) -> Callable:
        """``fn`` wrapped as a call that mostly waits (a selector's poll).

        Its wall time is taken out of the enclosing span's self time, and
        only the CPU time the thread used inside it (the system call and
        the wake-up) is credited to ``layer``; the idle time counts
        toward no layer.
        """
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def wrapped(*args, **kwargs):
            w0, c0 = wall(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                self_ns[layer] += cpu() - c0
                if stack:
                    stack[-1] += wall() - w0
                calls[layer] += 1

        wrapped.__wrapped__ = fn
        return wrapped

    def span(self, layer: str):
        """A context manager recording one ``layer`` span around a block."""
        return _Block(self, layer)

    # -- installing --------------------------------------------------------

    def patch_method(self, cls: type, attr: str, layer: str, count=None,
                     wait: bool = False) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method) in place;
        with ``wait``, as :meth:`wrap_wait`."""
        original = cls.__dict__[attr]
        if wait:
            replacement = self.wrap_wait(original, layer)
        elif isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, layer, count))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, layer, count))
        else:
            replacement = self.wrap(original, layer, count)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def patch_function(self, fn: Callable, layer: str, count=None) -> None:
        """Wrap module-level ``fn`` under every name the program binds it to.

        Modules import functions by name (``from .stepper import
        run_batch``), so the wrapper replaces each ``repro.*`` module
        attribute that is the original function object.
        """
        wrapped = self.wrap(fn, layer, count)
        found = False
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is not bound in any loaded repro module")

    def patch_subclasses(
        self, base: type, attr: str, layer: str, count=None
    ) -> int:
        """Wrap ``attr`` on ``base`` and every loaded subclass defining it."""
        patched = 0
        for cls in _all_subclasses(base):
            if attr in cls.__dict__ and callable(cls.__dict__[attr]):
                self.patch_method(cls, attr, layer, count)
                patched += 1
        return patched

    def restore(self) -> None:
        """Undo every patch, newest first; recorded totals are kept."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.self_ns.clear()
        self.calls.clear()
        self.items.clear()

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "items": dict(self.items),
        }

    def dump(self, path: str, **extra) -> None:
        """Write the totals, the kept spans and ``extra`` as one JSON document."""
        document = self.snapshot()
        document.update(extra)
        document["spans"] = self.spans
        document["spans_dropped"] = max(sum(self.calls.values()) - len(self.spans), 0)
        with open(path, "w") as handle:
            json.dump(document, handle)


class _Block:
    __slots__ = ("recorder", "layer", "t0")

    def __init__(self, recorder: SpanRecorder, layer: str) -> None:
        self.recorder = recorder
        self.layer = layer

    def __enter__(self):
        self.recorder._stack.append(0)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        t1 = time.perf_counter_ns()
        duration = t1 - self.t0
        rec.self_ns[self.layer] += duration - rec._stack.pop()
        if rec._stack:
            rec._stack[-1] += duration
        rec.calls[self.layer] += 1
        if len(rec.spans) < KEEP_SPANS:
            rec.spans.append((self.layer, self.t0, t1, len(rec._stack)))


def _all_subclasses(base: type) -> List[type]:
    seen = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def self_times(spans: Sequence[Tuple[str, float, float]]) -> Dict[str, float]:
    """Per-layer self time of a span list, computed from intervals alone.

    Each span's parent is the innermost span that contains it; a span's
    self time is its duration minus the union of its children's
    intervals (clipped to the span).  This is the arithmetic the online
    recorder performs incrementally; tests check the two agree.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    parent = [-1] * len(spans)
    open_spans: List[int] = []
    for i in order:
        start, end = spans[i][1], spans[i][2]
        while open_spans and not (
            spans[open_spans[-1]][1] <= start and end <= spans[open_spans[-1]][2]
        ):
            open_spans.pop()
        parent[i] = open_spans[-1] if open_spans else -1
        open_spans.append(i)
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    totals: Dict[str, float] = defaultdict(float)
    for i, (layer, start, end) in enumerate((s[0], s[1], s[2]) for s in spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[layer] += (end - start) - covered
    return dict(totals)


# ---------------------------------------------------------------------------
# Layer boundaries, by workload
# ---------------------------------------------------------------------------


def _batch_len(args) -> int:
    return len(args[1])


def _plans(args) -> int:
    problem = args[0]
    return problem.num_levels ** problem.horizon


#: ``(module, attribute path, layer, count)`` per boundary.  A boundary
#: the program no longer has stops the traced run (``LookupError``):
#: skipping it would silently move its time into its parent's self time.
BUILD_BOUNDARIES = [
    ("repro.core.kernel", "build_table_decisions", "core.fastmpc.build", None),
    ("repro.core.fastmpc", "build_decision_table", "core.fastmpc.table", None),
    ("repro.traces.datasets", "standard_datasets", "traces.datasets.pool", None),
]
TABLE_BOUNDARIES = [
    ("repro.core.table", "DecisionTable.lookup", "core.table.lookup", lambda args: 1),
    ("repro.core.table", "DecisionTable.lookup_batch", "core.table.lookup", _batch_len),
]
#: The server's event loop.  An iteration's own bookkeeping and every
#: callback it runs — transport reads, the connection handler's steps
#: (head parse, body read, response write), the micro-batch flush — are
#: the HTTP and event-loop layer, less the named layers below them.
LOOP_BOUNDARIES = [
    ("asyncio.base_events", "BaseEventLoop._run_once", "service.server.http", None),
    ("asyncio.events", "Handle._run", "service.server.http", None),
]
#: ``(module, attribute path, layer)`` of calls that mostly wait (see
#: :meth:`SpanRecorder.wrap_wait`): the loop's poll for I/O, whose CPU
#: time is the event loop's too.
LOOP_WAITS = [("selectors", "DefaultSelector.select", "service.server.http")]
SERVICE_BOUNDARIES = TABLE_BOUNDARIES + LOOP_BOUNDARIES + [
    ("repro.service.protocol", "DecisionRequest.from_json", "service.protocol.decode", None),
    ("repro.service.protocol", "DecisionResponse.to_json", "service.protocol.encode", None),
    ("repro.service.protocol", "decode_request_batch", "service.protocol.decode", None),
    ("repro.service.protocol", "encode_response_batch", "service.protocol.encode", None),
    ("repro.service.server", "DecisionService.decide_batch", "service.server.decide",
     _batch_len),
    ("repro.service.prior", "SharedPriorStore.estimate", "service.prior.update", None),
    ("repro.service.prior", "SharedPriorStore.observe", "service.prior.update", None),
]
CONTROLLER_BOUNDARIES = TABLE_BOUNDARIES + [
    ("repro.core.horizon", "solve_horizon", "core.horizon.solve", _plans),
    ("repro.core.horizon", "solve_startup", "core.horizon.solve", _plans),
]
SESSION_BOUNDARIES = CONTROLLER_BOUNDARIES + [
    ("repro.sim.session", "simulate_session", "sim.session.step", None),
    ("repro.sim.live", "run_live_session", "sim.session.step", None),
    ("repro.traces.trace", "Trace.download_time_and_stall", "traces.trace.invert", None),
]
POPULATION_BOUNDARIES = CONTROLLER_BOUNDARIES + [
    ("repro.fleet.driver", "run_fleet", "fleet.driver", None),
    ("repro.fleet.stepper", "run_batch", "fleet.stepper.step", None),
    ("repro.fleet.stepper", "TraceBank.download_time_and_stall", "fleet.stepper.invert", None),
    ("repro.fleet.aggregate", "ArmAggregate.observe_sessions", "fleet.aggregate.observe", None),
    ("repro.arena.runner", "run_arena", "arena.runner", None),
    ("repro.emulation.clock", "EventQueue.run_next", "emulation.clock.event", None),
    ("repro.emulation.link", "SharedTraceLink.start_transfer", "emulation.link.transfer", None),
    ("repro.arena.metrics", "compute_windows", "arena.metrics", None),
    ("repro.arena.metrics", "compute_cohorts", "arena.metrics", None),
    ("repro.arena.metrics", "compute_totals", "arena.metrics", None),
    ("repro.traces.trace", "Trace.download_time_and_stall", "traces.trace.invert", None),
]
#: ``(module, base class, method, layer)``: the method on the base and on
#: every loaded subclass that defines it.
CONTROLLER_FAMILIES = [
    ("repro.abr.base", "ABRAlgorithm", "select_bitrate", "abr.decide"),
    ("repro.prediction.base", "ThroughputPredictor", "predict", "prediction.predict"),
    ("repro.prediction.base", "ThroughputPredictor", "observe", "prediction.observe"),
]
POPULATION_FAMILIES = CONTROLLER_FAMILIES + [
    ("repro.fleet.controllers", "_BatchController", "decide", "fleet.controllers.decide"),
    ("repro.fleet.controllers", "_BatchController", "observe", "fleet.controllers.decide"),
]


def install(rec: SpanRecorder, boundaries, families=(), waits=()) -> None:
    """Wrap every boundary, method family and wait; ``LookupError`` if one
    is gone."""
    import importlib

    import repro.abr.registry  # noqa: F401  (loads every controller class)

    def resolve(module_name: str, path: str):
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        if isinstance(owner, type) and attr in owner.__dict__:
            return owner, attr
        if owner is not None and not isinstance(owner, type) and hasattr(owner, attr):
            return owner, attr
        raise LookupError(f"layer boundary {module_name}.{path} not found")

    for module_name, path, layer, count in boundaries:
        owner, attr = resolve(module_name, path)
        if isinstance(owner, type):
            rec.patch_method(owner, attr, layer, count)
        else:
            rec.patch_function(getattr(owner, attr), layer, count)
    for module_name, path, layer in waits:
        owner, attr = resolve(module_name, path)
        if not isinstance(owner, type):
            raise LookupError(f"wait boundary {module_name}.{path} is not a method")
        rec.patch_method(owner, attr, layer, wait=True)
    for module_name, base_name, method, layer in families:
        base = getattr(importlib.import_module(module_name), base_name, None)
        if not isinstance(base, type) or not rec.patch_subclasses(base, method, layer):
            raise LookupError(f"no {module_name}.{base_name} class defines {method}")


# ---------------------------------------------------------------------------
# Reading the totals
# ---------------------------------------------------------------------------

#: Per-layer metric -> (span layer, reading): ``us`` is self time per
#: decision in microseconds, ``calls`` and ``items`` are calls or counted
#: work items per decision.
CONTROLLER_LAYERS = {
    "sim.session.step_us": ("sim.session.step", "us"),
    "traces.trace.invert_us": ("traces.trace.invert", "us"),
    "abr.decide_us": ("abr.decide", "us"),
    "prediction.predict_us": ("prediction.predict", "us"),
    "prediction.observe_us": ("prediction.observe", "us"),
    "core.horizon.solve_us": ("core.horizon.solve", "us"),
    "core.horizon.solves": ("core.horizon.solve", "calls"),
    "core.horizon.plans": ("core.horizon.solve", "items"),
    "core.table.lookup_us": ("core.table.lookup", "us"),
    "core.table.lookups": ("core.table.lookup", "items"),
}


def per_decision(totals: dict, decisions: int, table: Dict[str, Tuple[str, str]]):
    """``(name, value, unit)`` for each ``table`` metric, per decision.

    ``totals`` is a :meth:`SpanRecorder.snapshot` (or its dump).
    """
    per = 1.0 / max(decisions, 1)
    for name, (layer, reading) in table.items():
        if reading == "us":
            yield name, totals["self_ns"].get(layer, 0) / 1e3 * per, "us"
        elif reading == "calls":
            yield name, totals["calls"].get(layer, 0) * per, "count"
        else:
            yield name, totals["items"].get(layer, 0) * per, "count"


def setup_metrics(totals: dict) -> Dict[str, Tuple[float, str]]:
    """Table builds and trace pools recorded while setting up."""
    calls = totals["calls"]
    return {
        "core.fastmpc.build_s": (totals["self_ns"].get("core.fastmpc.build", 0) / 1e9, "s"),
        "core.fastmpc.builds": (calls.get("core.fastmpc.build", 0), "count"),
        "core.fastmpc.memo_hits": (
            calls.get("core.fastmpc.table", 0) - calls.get("core.fastmpc.build", 0),
            "count",
        ),
        "traces.datasets.pool_s": (
            totals["self_ns"].get("traces.datasets.pool", 0) / 1e9, "s"
        ),
    }


def attributed_share(totals: dict) -> float:
    """Share of the traced time spent inside named program layers.

    The benchmark's own loop runs in one ``bench`` span; whatever of it
    no program layer covers is its self time.  The speed-reference calls
    (:data:`REFERENCE_LAYER`) are the benchmark's measuring, not its
    loop, so they are left out of the traced time.
    """
    self_ns = totals["self_ns"]
    total = sum(self_ns.values()) - self_ns.get(REFERENCE_LAYER, 0)
    if total <= 0:
        return 0.0
    return 1.0 - self_ns.get("bench", 0) / total

