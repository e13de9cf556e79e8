"""``repro-abr`` — command-line front end for the reproduction.

Subcommands map one-to-one onto the paper's artifacts:

* ``generate-traces`` — write a dataset of FCC/HSDPA/synthetic traces.
* ``run``             — play one algorithm over one trace (or a generated
                        one) and print the session log summary.
* ``compare``         — the Figure 8 matrix on generated datasets.
* ``figure``          — regenerate a specific figure's data
                        (fig7, fig8, fig9, fig10, fig11a..fig11d,
                        fig11e-levels, fig12a, fig12b).
* ``table1``          — FastMPC table-size report.
* ``overhead``        — the Section 7.4 CPU/memory microbenchmark.
* ``trace``           — like ``run`` but records the full structured
                        event timeline as JSONL and verifies that the
                        replayed QoE matches the live session exactly
                        (docs/observability.md).
* ``serve``           — run the asyncio ABR decision service (FastMPC
                        tables behind an HTTP boundary; docs/service.md);
                        ``--workers N`` scales it out to a supervised
                        multi-process cluster (docs/scaling.md).
* ``loadtest``        — closed-loop trace-driven load generation against
                        a running decision server.
* ``leaderboard``     — race the controller zoo through the decision
                        service: per dataset, an in-process server with
                        an equal-weight A/B experiment over the named
                        controllers, reported as a per-arm QoE table
                        (docs/controllers.md).
* ``arena``           — N players competing on one emulated bottleneck
                        with seeded churn, cross traffic, and fault
                        profiles; prints time-windowed fairness,
                        utilization, and instability plus per-cohort
                        QoE rollups (docs/fairness.md).
* ``chaos``           — run the load generator under a named fault
                        profile (injected resets, 500s, slow responses,
                        trace blackouts) and compare completion, fallback
                        rate, and QoE against a clean run.
* ``fleet``           — fleet-scale Monte Carlo: sample seeded scenarios
                        (controller x dataset x QoE preset x ladder),
                        step them through the vectorized batch simulator,
                        and print per-controller population QoE
                        percentiles (docs/fleet.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from . import __version__
from .abr.registry import available, create, paper_algorithms
from .abr.base import SessionConfig
from .experiments import (
    figure7,
    figure8,
    figure9_10,
    measure_overhead,
    render_detail_series,
    render_figure7,
    render_result_set,
    render_table,
    table1,
)
from .experiments import sensitivity
from .qoe import QoEWeights
from .sim.session import simulate_session
from .emulation.harness import emulate_session
from .traces import (
    load_trace_csv,
    make_generator,
    save_dataset,
    standard_datasets,
    DATASET_NAMES,
)
from .video import envivio


def _add_common_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--traces", type=int, default=50, help="traces per dataset (default 50)"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--duration",
        type=float,
        default=320.0,
        help="trace duration in seconds (default 320)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-abr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "persistent disk cache for FastMPC decision tables and "
            "offline-optimal bounds (default: $REPRO_CACHE_DIR)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-traces", help="write a trace dataset to disk")
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("output_dir")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=320.0)

    p = sub.add_parser("run", help="one algorithm, one trace")
    p.add_argument("algorithm", choices=available())
    p.add_argument("--trace-file", help="CSV trace to play against")
    p.add_argument(
        "--dataset", choices=DATASET_NAMES, default="fcc",
        help="generate a trace from this dataset when no file is given",
    )
    p.add_argument("--trace-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("sim", "emulation"), default="sim")
    p.add_argument("--buffer", type=float, default=30.0, help="Bmax seconds")
    p.add_argument(
        "--weights",
        choices=("balanced", "avoid-instability", "avoid-rebuffering"),
        default="balanced",
    )

    p = sub.add_parser(
        "trace", help="run one session and write its event timeline as JSONL"
    )
    p.add_argument("algorithm", choices=available())
    p.add_argument(
        "--output", "-o", default="session-timeline.jsonl",
        help="JSONL timeline path (default session-timeline.jsonl)",
    )
    p.add_argument("--trace-file", help="CSV trace to play against")
    p.add_argument(
        "--dataset", choices=DATASET_NAMES, default="fcc",
        help="generate a trace from this dataset when no file is given",
    )
    p.add_argument("--trace-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("sim", "emulation"), default="sim")
    p.add_argument("--buffer", type=float, default=30.0, help="Bmax seconds")
    p.add_argument(
        "--weights",
        choices=("balanced", "avoid-instability", "avoid-rebuffering"),
        default="balanced",
    )

    p = sub.add_parser("compare", help="the Figure 8 matrix")
    _add_common_trace_args(p)
    p.add_argument("--backend", choices=("sim", "emulation"), default="sim")
    p.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        help=f"subset of: {', '.join(available())}",
    )
    p.add_argument(
        "--save",
        metavar="PREFIX",
        help="write one <PREFIX>-<dataset>.csv result file per dataset",
    )

    p = sub.add_parser("figure", help="regenerate one figure's data")
    p.add_argument(
        "name",
        choices=(
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11a",
            "fig11b",
            "fig11c",
            "fig11d",
            "fig11e-levels",
            "fig12a",
            "fig12b",
        ),
    )
    _add_common_trace_args(p)
    p.add_argument("--backend", choices=("sim", "emulation"), default="sim")
    p.add_argument("--svg", metavar="PATH", help="also render the figure to SVG")

    p = sub.add_parser("table1", help="FastMPC table-size report")
    p.add_argument(
        "--levels", type=int, nargs="*", default=[50, 100, 200],
        help="discretization levels (paper: 50 100 200 500)",
    )
    p.add_argument("--horizon", type=int, default=5)

    p = sub.add_parser("overhead", help="per-decision CPU/memory microbenchmark")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("serve", help="run the ABR decision service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008, help="0 = ephemeral")
    p.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes; >1 runs the sharded cluster: one published"
            " table file, workers forked onto the port with SO_REUSEPORT,"
            " supervised restarts, aggregated /metrics (docs/scaling.md)"
        ),
    )
    p.add_argument(
        "--control-port", type=int, default=0, metavar="PORT",
        help=(
            "cluster-mode supervisor endpoint for aggregated /metrics and"
            " /healthz (default: an ephemeral port, printed at startup)"
        ),
    )
    p.add_argument(
        "--bins", type=int, default=100,
        help="buffer and throughput bins of the served table (default 100)",
    )
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--buffer", type=float, default=30.0, help="Bmax seconds")
    p.add_argument(
        "--weights",
        choices=("balanced", "avoid-instability", "avoid-rebuffering"),
        default="balanced",
    )
    p.add_argument(
        "--no-table",
        action="store_true",
        help=(
            "start cold: serve rate-based fallback decisions (degraded=true)"
            " until a table is swapped in via POST /v1/table"
        ),
    )
    p.add_argument(
        "--lookup-budget-ms", type=float, default=5.0,
        help="table-lookup time budget before degrading to the fallback",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=60.0,
        help="seconds before an idle keep-alive connection is reaped",
    )
    p.add_argument(
        "--trace", metavar="PATH", dest="trace_jsonl",
        help="stream one request-span JSONL event per request to PATH",
    )
    p.add_argument(
        "--arms", metavar="SPEC", default=None,
        help=(
            "serve an A/B experiment: comma-separated controller[=weight]"
            " arms, e.g. 'table=4,bola,bba-1=0.5'; 'table' keeps the"
            " vectorized FastMPC lookup, every other name routes its"
            " sessions to that repro.abr.registry controller"
            " (label:controller names an arm separately for A/A tests;"
            " also settable at runtime via POST /v1/experiment)"
        ),
    )
    p.add_argument(
        "--experiment-salt", default="", metavar="SALT",
        help="hashing salt for arm assignment (bump to re-randomise)",
    )

    p = sub.add_parser(
        "loadtest", help="closed-loop load test against a decision server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008)
    p.add_argument("--sessions", type=int, default=64, help="virtual players")
    p.add_argument("--chunks", type=int, default=65, help="decisions per session")
    p.add_argument(
        "--concurrency", type=int, default=16, help="sessions in flight"
    )
    p.add_argument(
        "--connections", type=int, default=None,
        help=(
            "TCP connection pool size (default: one per session worker);"
            " bounds wire fan-out independently of --concurrency"
        ),
    )
    p.add_argument("--dataset", choices=DATASET_NAMES, default="fcc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=320.0, help="trace seconds")
    p.add_argument("--deadline", type=float, default=2.0, help="per-request s")
    p.add_argument(
        "--protocol", choices=("json", "binary"), default="json",
        help=(
            "wire encoding; binary coalesces concurrent sessions into"
            " multi-record frames (falls back to json against an older"
            " server)"
        ),
    )
    p.add_argument(
        "--predictors", nargs="*", default=None, metavar="NAME",
        help=(
            "route sessions round-robin over these client-side throughput"
            " predictors (any repro.prediction registry name, e.g. harmonic"
            " gap-harmonic ewma oracle); the report breaks QoE out per"
            " predictor (default: harmonic for every session)"
        ),
    )
    p.add_argument(
        "--family", default=None, metavar="KEY",
        help=(
            "trace-family key stamped on every request so the server"
            " pools a cross-session throughput prior (json protocol only)"
        ),
    )
    p.add_argument(
        "--open-loop", action="store_true",
        help=(
            "live/low-latency arrival model: sessions arrive on a"
            " deterministic open-loop schedule instead of a closed loop"
        ),
    )
    p.add_argument(
        "--arrival-rate", type=float, default=16.0, metavar="HZ",
        help="open-loop base arrival rate in sessions/s",
    )
    p.add_argument(
        "--diurnal-amplitude", type=float, default=0.0, metavar="A",
        help="sinusoidal rate modulation in [0, 1] around the base rate",
    )
    p.add_argument(
        "--diurnal-period", type=float, default=10.0, metavar="S",
        help="period of the diurnal sinusoid in seconds",
    )
    p.add_argument(
        "--burst-at", type=float, default=None, metavar="S",
        help="inject a flash crowd at this offset into the schedule",
    )
    p.add_argument(
        "--burst-sessions", type=int, default=0,
        help="extra sessions arriving together at --burst-at",
    )
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")

    p = sub.add_parser(
        "predict-race",
        help=(
            "race throughput predictors across fault profiles: the §7.3"
            " sensitivity extension, reporting active-rate and wall-rate"
            " MAE, gap diagnostics, and the QoE each predictor earned"
        ),
    )
    p.add_argument(
        "--datasets", nargs="*", choices=DATASET_NAMES, default=None,
        help="trace datasets to pool sessions from (default: fcc hsdpa)",
    )
    p.add_argument(
        "--traces", type=int, default=4, help="traces per dataset"
    )
    p.add_argument("--seed", type=int, default=11, help="trace-generator seed")
    p.add_argument("--duration", type=float, default=320.0, help="trace seconds")
    p.add_argument(
        "--predictors", nargs="*", default=None, metavar="NAME",
        help=(
            "predictors to race (default: harmonic ewma gap-harmonic"
            " gap-ewma oracle)"
        ),
    )
    p.add_argument(
        "--profiles", nargs="*", default=None, metavar="NAME",
        help="fault profiles to race under (default: clean blackouts lossy-link)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="process pool size (results are bit-identical at any count)",
    )
    p.add_argument(
        "--bins", type=int, default=24,
        help="decision-table discretization for the FastMPC controller",
    )
    p.add_argument("--json", metavar="PATH", help="also write the table as JSON")

    p = sub.add_parser(
        "fleet", help="fleet-scale Monte Carlo over sampled scenarios"
    )
    p.add_argument(
        "--sessions", type=int, default=100_000, help="population size"
    )
    p.add_argument("--seed", type=int, default=7, help="scenario-sampler seed")
    p.add_argument(
        "--shard-size", type=int, default=4096,
        help="sessions per shard (fixed; worker count never changes results)",
    )
    p.add_argument(
        "--workers", type=int, default=1, help="shard worker processes"
    )
    p.add_argument(
        "--controllers", nargs="*", default=None,
        help="subset of the batch-steppable controllers (default: all)",
    )
    p.add_argument(
        "--datasets", nargs="*", choices=DATASET_NAMES, default=None,
        help="trace datasets to sample from (default: all three)",
    )
    p.add_argument(
        "--presets", nargs="*", default=None,
        help="QoE presets to sample from (default: all three)",
    )
    p.add_argument(
        "--ladders", nargs="*", default=None,
        help="named bitrate ladders to sample from (default: envivio)",
    )
    p.add_argument("--chunks", type=int, default=65, help="chunks per session")
    p.add_argument(
        "--traces", type=int, default=100, help="traces per dataset pool"
    )
    p.add_argument(
        "--duration", type=float, default=320.0, help="trace seconds"
    )
    p.add_argument("--trace-seed", type=int, default=0, help="trace-pool seed")
    p.add_argument(
        "--bins", type=int, default=100,
        help="FastMPC table discretization (default 100, the paper's)",
    )
    p.add_argument(
        "--json", metavar="PATH", help="also write the merged aggregates as JSON"
    )

    p = sub.add_parser(
        "leaderboard",
        help=(
            "cross-controller x cross-dataset QoE leaderboard, served"
            " through an in-process decision server with an equal-weight"
            " A/B experiment over the controller zoo"
        ),
    )
    p.add_argument(
        "--controllers", nargs="*", default=None,
        help=(
            "arms to race: 'table' plus repro.abr.registry names"
            " (default: table bb bba-1 bola das-ip)"
        ),
    )
    p.add_argument(
        "--datasets", nargs="*", choices=DATASET_NAMES, default=None,
        help="trace datasets, one leaderboard block each (default: fcc hsdpa)",
    )
    p.add_argument("--sessions", type=int, default=60, help="sessions per dataset")
    p.add_argument("--chunks", type=int, default=30, help="decisions per session")
    p.add_argument("--concurrency", type=int, default=8, help="sessions in flight")
    p.add_argument("--seed", type=int, default=0, help="trace-generator seed")
    p.add_argument("--duration", type=float, default=320.0, help="trace seconds")
    p.add_argument(
        "--salt", default="leaderboard",
        help="experiment salt (fixed by default so the arm split reproduces)",
    )
    p.add_argument(
        "--bins", type=int, default=25,
        help="decision-table discretization for the 'table' arm",
    )
    p.add_argument("--json", metavar="PATH", help="also write the cells as JSON")

    p = sub.add_parser(
        "arena",
        help=(
            "N players on one shared bottleneck: seeded churn, cross"
            " traffic, fault profiles, and windowed fairness/efficiency"
            " rollups per controller cohort (docs/fairness.md)"
        ),
    )
    p.add_argument("--players", type=int, default=100, help="population size")
    p.add_argument("--seed", type=int, default=0, help="schedule seed")
    p.add_argument(
        "--mix", default="bola,fair-bola,rb",
        help=(
            "controller cohorts as 'controller[=weight]' entries"
            " (label:controller for A/A arms), e.g. 'bola=2,fair-bola'"
        ),
    )
    p.add_argument(
        "--salt", default="arena",
        help="cohort-assignment salt (fixed by default so splits reproduce)",
    )
    p.add_argument(
        "--arrivals", choices=("stagger", "poisson", "flash-crowd"),
        default="poisson", help="arrival model",
    )
    p.add_argument(
        "--mean-interarrival", type=float, default=0.5,
        help="poisson mean inter-arrival seconds",
    )
    p.add_argument(
        "--stagger", type=float, default=0.0, help="stagger step seconds"
    )
    p.add_argument(
        "--flash-crowds", type=int, default=3, help="bursts (flash-crowd mode)"
    )
    p.add_argument(
        "--flash-gap", type=float, default=60.0, help="seconds between bursts"
    )
    p.add_argument(
        "--min-watch", type=int, default=1,
        help="minimum chunks a churning player watches",
    )
    p.add_argument(
        "--max-watch", type=int, default=None,
        help=(
            "maximum chunks watched before departing; omit for no churn"
            " (everyone watches the whole video)"
        ),
    )
    p.add_argument(
        "--cross", action="append", default=None, metavar="RATE[:PERIOD[:DUTY]]",
        help=(
            "add a cross-traffic flow: constant RATE kbps, or an on/off"
            " square wave with PERIOD seconds and DUTY on-fraction;"
            " repeatable"
        ),
    )
    p.add_argument(
        "--profile", default="clean",
        help=(
            "fault profile name (clean, blackouts, lossy-link, resets,"
            " flaky-server, meltdown)"
        ),
    )
    p.add_argument("--fault-seed", type=int, default=0, help="fault RNG seed")
    p.add_argument(
        "--window", type=float, default=10.0, help="metrics window seconds"
    )
    p.add_argument(
        "--chunks", type=int, default=32, help="video length in chunks"
    )
    p.add_argument(
        "--bandwidth", type=float, default=None,
        help="constant bottleneck kbps (default: 1500 per player)",
    )
    p.add_argument(
        "--no-slow-start", action="store_true",
        help="disable per-transfer slow-start ramps (faster at scale)",
    )
    p.add_argument("--json", metavar="PATH", help="also write the rollups as JSON")

    p = sub.add_parser(
        "chaos",
        help="load test under a named fault profile, compared to a clean run",
    )
    p.add_argument(
        "profile",
        help=(
            "fault profile name (clean, blackouts, lossy-link, resets, "
            "flaky-server, meltdown)"
        ),
    )
    p.add_argument("--sessions", type=int, default=16, help="virtual players")
    p.add_argument("--chunks", type=int, default=30, help="decisions per session")
    p.add_argument("--concurrency", type=int, default=4, help="connections")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="fcc")
    p.add_argument("--seed", type=int, default=0, help="traces + chaos + jitter")
    p.add_argument("--duration", type=float, default=320.0, help="trace seconds")
    p.add_argument("--deadline", type=float, default=2.0, help="per-request s")
    p.add_argument(
        "--retries", type=int, default=2,
        help="client retry attempts beyond the first (0 disables retries)",
    )
    p.add_argument(
        "--bins", type=int, default=25,
        help="decision-table discretization for the in-process server",
    )
    p.add_argument("--json", metavar="PATH", help="also write both reports as JSON")

    return parser


def _make_config(args) -> SessionConfig:
    weights = QoEWeights.preset(getattr(args, "weights", "balanced"))
    return SessionConfig(
        buffer_capacity_s=getattr(args, "buffer", 30.0), weights=weights
    )


def _cmd_generate_traces(args) -> int:
    generator = make_generator(args.dataset, seed=args.seed)
    traces = generator.generate_many(args.count, args.duration)
    paths = save_dataset(traces, args.output_dir)
    print(f"wrote {len(paths)} {args.dataset} traces to {args.output_dir}")
    return 0


def _cmd_run(args) -> int:
    manifest = envivio()
    if args.trace_file:
        trace = load_trace_csv(args.trace_file)
    else:
        generator = make_generator(args.dataset, seed=args.seed)
        trace = generator.generate(
            manifest.total_duration_s + 60.0, index=args.trace_index
        )
    algorithm = create(args.algorithm)
    config = _make_config(args)
    run = simulate_session if args.backend == "sim" else emulate_session
    session = run(algorithm, trace, manifest, config)
    print(session.metrics().describe())
    breakdown = session.qoe()
    print(
        f"QoE {breakdown.total:.1f} = quality {breakdown.quality_total:.1f}"
        f" - {breakdown.weights.switching:g} x switching {breakdown.switching_total:.1f}"
        f" - {breakdown.weights.rebuffering:g} x rebuffer {breakdown.rebuffer_seconds:.2f}s"
        f" - {breakdown.weights.startup:g} x startup {breakdown.startup_seconds:.2f}s"
    )
    return 0


def _cmd_trace(args) -> int:
    """Run one traced session, write the timeline, verify exact replay."""
    from .obs import JsonlSink, Tracer, read_timeline, replay_session

    manifest = envivio()
    if args.trace_file:
        trace = load_trace_csv(args.trace_file)
    else:
        generator = make_generator(args.dataset, seed=args.seed)
        trace = generator.generate(
            manifest.total_duration_s + 60.0, index=args.trace_index
        )
    algorithm = create(args.algorithm)
    config = _make_config(args)
    tracer = Tracer([JsonlSink(args.output)])
    run = simulate_session if args.backend == "sim" else emulate_session
    session = run(algorithm, trace, manifest, config, tracer=tracer)
    tracer.close()

    live_qoe = session.qoe().total
    replayed = replay_session(read_timeline(args.output))
    drift = replayed.mismatches()
    exact = replayed.qoe.total == live_qoe and not drift
    print(
        f"{tracer.events_emitted} events -> {args.output}"
        f" | live QoE {live_qoe:.6f}"
        f" | replayed QoE {replayed.qoe.total:.6f}"
        f" | {'exact match' if exact else 'MISMATCH'}"
    )
    for problem in drift:
        print(f"  drift: {problem}")
    return 0 if exact else 1


def _datasets_from_args(args):
    return standard_datasets(
        traces_per_dataset=args.traces, duration_s=args.duration, seed=args.seed
    )


def _cmd_compare(args) -> int:
    manifest = envivio()
    datasets = _datasets_from_args(args)
    if args.algorithms:
        algorithms = {name: create(name) for name in args.algorithms}
    else:
        algorithms = paper_algorithms()
    results = figure8(datasets, manifest, algorithms=algorithms, backend=args.backend)
    for name, rs in results.items():
        print(render_result_set(rs))
        print()
        if args.save:
            from .experiments import save_result_set_csv

            path = f"{args.save}-{name}.csv"
            save_result_set_csv(rs, path)
            print(f"saved {path}")
    return 0


def _cmd_figure(args) -> int:
    manifest = envivio()
    name = args.name
    if name == "fig7":
        datasets = _datasets_from_args(args)
        print(render_figure7(figure7(datasets)))
        return 0
    if name in ("fig8", "fig9", "fig10"):
        datasets = _datasets_from_args(args)
        results = figure8(datasets, manifest, backend=args.backend)
        if name == "fig8":
            for rs in results.values():
                print(render_result_set(rs))
                print()
            if args.svg:
                from .experiments import render_cdf_svg, save_svg

                first = next(iter(results.values()))
                save_svg(
                    render_cdf_svg(
                        {a: first.n_qoe_values(a) for a in first.algorithms()},
                        title=f"normalized QoE ({first.dataset})",
                        x_label="n-QoE",
                    ),
                    args.svg,
                )
                print(f"saved {args.svg}")
        else:
            dataset = "fcc" if name == "fig9" else "hsdpa"
            print(render_detail_series(figure9_10(results[dataset])))
        return 0
    # Sensitivity figures run on a mixed trace pool, like the paper's
    # training set "randomly picked across all datasets".
    datasets = _datasets_from_args(args)
    pool: List = []
    for traces in datasets.values():
        pool.extend(traces[: max(1, args.traces // len(datasets))])
    sweeps = {
        "fig11a": lambda: sensitivity.prediction_error_sweep(pool, manifest),
        "fig11b": lambda: sensitivity.qoe_preference_sweep(pool, manifest),
        "fig11c": lambda: sensitivity.buffer_size_sweep(pool, manifest),
        "fig11d": lambda: sensitivity.startup_time_sweep(pool, manifest),
        "fig11e-levels": lambda: sensitivity.bitrate_levels_sweep(pool, manifest),
        "fig12a": lambda: sensitivity.discretization_sweep(pool, manifest),
        "fig12b": lambda: sensitivity.horizon_sweep(pool, manifest),
    }
    sweep = sweeps[name]()
    print(sweep.describe())
    if args.svg:
        from .experiments import render_lines_svg, save_svg

        x_values = list(sweep.parameter_values)
        if not all(isinstance(v, (int, float)) for v in x_values):
            x_values = list(range(len(x_values)))
        save_svg(
            render_lines_svg(x_values, sweep.series, title=name),
            args.svg,
        )
        print(f"saved {args.svg}")
    return 0


def _cmd_table1(args) -> int:
    reports = table1(
        discretization_levels=args.levels,
        horizon=args.horizon,
        cache_dir=args.cache_dir,
    )
    rows = [
        [
            r.discretization_levels,
            r.num_entries,
            round(r.full_bytes / 1000.0, 1),
            round(r.rle_bytes / 1000.0, 1),
            round(r.compression_ratio, 3),
        ]
        for r in reports
    ]
    print(
        render_table(
            ["levels", "entries", "full kB", "RLE kB", "ratio"], rows
        )
    )
    return 0


def _cmd_overhead(args) -> int:
    from .core.fastmpc import FastMPCController

    manifest = envivio()
    trace = make_generator("fcc", seed=args.seed).generate(
        manifest.total_duration_s + 60.0
    )
    # FastMPC's table build dominates this command's start-up; thread the
    # disk cache through explicitly (as `compare` does) so repeat
    # invocations skip straight to the measurement.
    algorithms = {
        name: (
            FastMPCController(cache_dir=args.cache_dir)
            if name == "fastmpc"
            else create(name)
        )
        for name in ("rb", "bb", "festive", "dashjs", "fastmpc", "robust-mpc")
    }
    for sample in measure_overhead(algorithms, trace, manifest):
        print(sample.describe())
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .core.fastmpc import FastMPCConfig, build_decision_table
    from .service import (
        DecisionServer,
        DecisionService,
        ServiceConfig,
        parse_arms_spec,
    )

    experiment = None
    if args.arms:
        experiment = parse_arms_spec(args.arms, salt=args.experiment_salt)
    manifest = envivio()
    weights = QoEWeights.preset(args.weights)
    table = None
    if not args.no_table:
        table = build_decision_table(
            manifest.ladder.levels_kbps,
            manifest.chunk_duration_s,
            args.buffer,
            weights,
            config=FastMPCConfig(
                buffer_bins=args.bins,
                throughput_bins=args.bins,
                horizon=args.horizon,
            ),
            cache_dir=args.cache_dir,
        )
    service = DecisionService(
        manifest.ladder.levels_kbps,
        table=table,
        config=ServiceConfig(
            lookup_budget_s=args.lookup_budget_ms / 1000.0,
            idle_timeout_s=args.idle_timeout,
        ),
        experiment=experiment,
    )
    if args.workers > 1:
        return _serve_cluster(args, manifest, table, experiment)
    tracer = None
    if args.trace_jsonl:
        from .obs import JsonlSink, Tracer

        tracer = Tracer([JsonlSink(args.trace_jsonl, flush_every=1)])
    server = DecisionServer(service, args.host, args.port, tracer=tracer)

    async def _serve() -> None:
        await server.start()
        mode = "table loaded" if service.table_loaded else "COLD (fallback only)"
        if experiment is not None:
            arm_names = ",".join(arm.name for arm in experiment.arms)
            mode += f", experiment [{arm_names}]"
        print(
            f"decision service on {args.host}:{server.bound_port} [{mode}]",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if tracer is not None:
            tracer.close()
    return 0


def _serve_cluster(args, manifest, table, experiment=None) -> int:
    """``serve --workers N``: the sharded multi-process cluster."""
    import asyncio
    import tempfile
    from pathlib import Path

    from .experiments import publish_table
    from .service import ClusterConfig, ClusterSupervisor, ServiceConfig

    table_path = None
    tmpdir = None
    if table is not None:
        # Published once; every worker loads its own copy of the runs.
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        table_path = str(Path(tmpdir.name) / "decision-table.rprotbl")
        publish_table(table, table_path)
    config = ClusterConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        control_port=args.control_port,
        service=ServiceConfig(
            lookup_budget_s=args.lookup_budget_ms / 1000.0,
            idle_timeout_s=args.idle_timeout,
        ),
        experiment=experiment,
    )
    supervisor = ClusterSupervisor(
        manifest.ladder.levels_kbps, table_path=table_path, config=config
    )

    async def _serve() -> None:
        await supervisor.start()
        try:
            mode = "table published" if table_path else "COLD (fallback only)"
            print(
                f"decision cluster on {args.host}:{supervisor.bound_port}"
                f" [{args.workers} workers, {mode}]"
                f" | control {args.host}:{supervisor.control_bound_port}",
                flush=True,
            )
            while True:  # supervised forever; ^C unwinds through finally
                await asyncio.sleep(3600)
        finally:
            await supervisor.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down cluster")
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    return 0


def _cmd_loadtest(args) -> int:
    import json
    from pathlib import Path

    from .service import LoadTestConfig, run_loadtest_sync

    config = LoadTestConfig(
        sessions=args.sessions,
        chunks_per_session=args.chunks,
        concurrency=args.concurrency,
        connections=args.connections,
        dataset=args.dataset,
        seed=args.seed,
        trace_duration_s=args.duration,
        deadline_s=args.deadline,
        protocol=args.protocol,
        predictors=tuple(args.predictors or ()),
        family=args.family,
        open_loop=args.open_loop,
        arrival_rate_hz=args.arrival_rate,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period_s=args.diurnal_period,
        burst_at_s=args.burst_at,
        burst_sessions=args.burst_sessions,
    )
    report = run_loadtest_sync(args.host, args.port, config)
    print(report.describe())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"saved {args.json}")
    return 1 if report.errors else 0


def _cmd_predict_race(args) -> int:
    """Race predictors across fault profiles (§7.3 extension)."""
    import json
    from pathlib import Path

    from .core.fastmpc import FastMPCConfig
    from .experiments import (
        PREDICTOR_RACE_PREDICTORS,
        PREDICTOR_RACE_PROFILES,
        run_predictor_race,
    )

    datasets = tuple(args.datasets or ("fcc", "hsdpa"))
    manifest = envivio()
    traces = []
    for dataset in datasets:
        generator = make_generator(dataset, seed=args.seed)
        traces.extend(generator.generate_many(args.traces, args.duration))
    result = run_predictor_race(
        traces,
        manifest,
        predictors=tuple(args.predictors or PREDICTOR_RACE_PREDICTORS),
        profiles=tuple(args.profiles or PREDICTOR_RACE_PROFILES),
        config=FastMPCConfig(
            buffer_bins=args.bins, throughput_bins=args.bins, horizon=5
        ),
        workers=args.workers,
    )
    print(result.table())
    print(
        f"{len(traces)} trace(s) from {'+'.join(datasets)}"
        f" x {len(result.profiles)} profile(s)"
        f" x {len(result.predictors)} predictor(s)"
        f" (seed {args.seed}, workers {args.workers})"
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"saved {args.json}")
    return 0


def _cmd_leaderboard(args) -> int:
    """Cross-controller x cross-dataset QoE leaderboard via the service."""
    import json
    from pathlib import Path

    from .experiments import (
        DEFAULT_LEADERBOARD_CONTROLLERS,
        LeaderboardConfig,
        run_leaderboard,
    )

    config = LeaderboardConfig(
        controllers=tuple(args.controllers or DEFAULT_LEADERBOARD_CONTROLLERS),
        datasets=tuple(args.datasets or ("fcc", "hsdpa")),
        sessions=args.sessions,
        chunks_per_session=args.chunks,
        concurrency=args.concurrency,
        seed=args.seed,
        trace_duration_s=args.duration,
        salt=args.salt,
        bins=args.bins,
        cache_dir=args.cache_dir,
    )
    result = run_leaderboard(config)
    print(result.render())
    served = sum(cell.sessions for cell in result.cells)
    print(
        f"{served} sessions over {len(config.datasets)} dataset(s) x"
        f" {len(config.controllers)} arm(s) in {result.wall_s:.1f}s"
        f" (salt {config.salt!r}, seed {config.seed}, errors {result.errors})"
    )
    empty = sorted(
        {cell.arm for cell in result.cells if cell.sessions == 0}
    )
    if empty:
        print(
            f"warning: arms with zero sessions at this population: {empty}"
            " — raise --sessions or change --salt"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"saved {args.json}")
    return 1 if result.errors else 0


def _cmd_chaos(args) -> int:
    """In-process chaos run: clean baseline, then the same workload under
    the profile's trace faults + server chaos, and the delta between them.

    Both runs use the same generated traces, table, and load shape; the
    only differences are the compiled-in bandwidth faults on the players'
    traces and the chaos policy on the server — so every gap in the
    comparison is attributable to the injected faults.
    """
    import asyncio
    import json
    from pathlib import Path

    from .core.fastmpc import FastMPCConfig, build_decision_table
    from .faults import ChaosPolicy, apply_trace_faults, get_profile
    from .service import (
        DecisionServer,
        DecisionService,
        LoadTestConfig,
        RetryPolicy,
        run_loadtest,
    )

    profile = get_profile(args.profile).with_seed(args.seed)
    manifest = envivio()
    table = build_decision_table(
        manifest.ladder.levels_kbps,
        manifest.chunk_duration_s,
        30.0,
        QoEWeights.balanced(),
        config=FastMPCConfig(
            buffer_bins=args.bins, throughput_bins=args.bins, horizon=5
        ),
        cache_dir=args.cache_dir,
    )
    retry = (
        RetryPolicy(
            max_attempts=args.retries + 1,
            base_delay_s=0.02,
            max_delay_s=0.25,
            budget_s=args.deadline,
            seed=args.seed,
        )
        if args.retries > 0
        else None
    )
    config = LoadTestConfig(
        sessions=args.sessions,
        chunks_per_session=args.chunks,
        concurrency=args.concurrency,
        dataset=args.dataset,
        seed=args.seed,
        trace_duration_s=args.duration,
        deadline_s=args.deadline,
        retry=retry,
    )
    traces = make_generator(args.dataset, seed=args.seed).generate_many(
        args.sessions, args.duration
    )
    faulted = [apply_trace_faults(t, profile.trace_faults) for t in traces]

    async def run_one(chaos_policy, trace_list):
        service = DecisionService(manifest.ladder.levels_kbps, table=table)
        server = DecisionServer(service, "127.0.0.1", 0, chaos=chaos_policy)
        await server.start()
        try:
            report = await run_loadtest(
                "127.0.0.1", server.bound_port, config, traces=trace_list
            )
            return report, service.metrics.snapshot()
        finally:
            await server.close()

    clean_report, _ = asyncio.run(run_one(None, traces))
    policy = ChaosPolicy(profile.chaos) if profile.chaos.any_enabled else None
    chaos_report, server_metrics = asyncio.run(run_one(policy, faulted))

    completion = chaos_report.sessions_completed / args.sessions
    fallback_decisions = chaos_report.local_fallbacks + chaos_report.degraded
    fallback_rate = (
        fallback_decisions / chaos_report.decisions if chaos_report.decisions else 0.0
    )
    qoe_delta = chaos_report.qoe_mean - clean_report.qoe_mean

    print(f"profile {profile.name!r}: {profile.description}")
    print(f"--- clean ---\n{clean_report.describe()}")
    print(f"--- {profile.name} ---\n{chaos_report.describe()}")
    print(
        f"completion {chaos_report.sessions_completed}/{args.sessions}"
        f" ({completion:.0%}) | fallback rate {fallback_rate:.1%}"
        f" | QoE delta {qoe_delta:+.1f} vs clean"
    )
    injected = server_metrics.get("chaos_injected", {})
    if injected:
        print(f"injected by server: {injected}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "profile": profile.name,
                    "seed": args.seed,
                    "clean": clean_report.to_dict(),
                    "chaos": chaos_report.to_dict(),
                    "chaos_injected": injected,
                    "completion_rate": completion,
                    "fallback_rate": fallback_rate,
                    "qoe_delta": qoe_delta,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"saved {args.json}")
    # The acceptance bar: every session rides out the faults.
    return 0 if chaos_report.sessions_completed == args.sessions else 1


def _cmd_fleet(args) -> int:
    import json
    import time
    from pathlib import Path

    from .core.fastmpc import FastMPCConfig
    from .fleet import FleetConfig, ScenarioSpace, run_fleet
    from .fleet.scenarios import LADDER_NAMES, PRESET_NAMES
    from .fleet.controllers import SUPPORTED_CONTROLLERS

    space = ScenarioSpace(
        controllers=tuple(args.controllers or SUPPORTED_CONTROLLERS),
        datasets=tuple(args.datasets or DATASET_NAMES),
        presets=tuple(args.presets or PRESET_NAMES),
        ladders=tuple(args.ladders or ("envivio",)),
        num_chunks=args.chunks,
        traces_per_dataset=args.traces,
        trace_duration_s=args.duration,
        trace_seed=args.trace_seed,
        table_config=FastMPCConfig(
            buffer_bins=args.bins, throughput_bins=args.bins, horizon=5
        ),
    )
    config = FleetConfig(
        sessions=args.sessions,
        seed=args.seed,
        shard_size=args.shard_size,
        space=space,
        cache_dir=args.cache_dir,
    )
    t0 = time.perf_counter()
    result = run_fleet(config, workers=args.workers)
    wall_s = time.perf_counter() - t0
    rate = result.sessions / wall_s if wall_s > 0 else 0.0

    rows = []
    for name, arm in sorted(result.controller_rollup().items()):
        pct = arm.qoe_percentiles()
        rows.append(
            [
                name,
                arm.sessions,
                round(pct["p5"], 1),
                round(pct["p50"], 1),
                round(pct["p95"], 1),
                round(arm.rebuffer_s.mean, 2),
                round(arm.mean_bitrate_kbps.mean, 0),
            ]
        )
    print(
        render_table(
            [
                "controller",
                "sessions",
                "QoE/chunk p5",
                "p50",
                "p95",
                "rebuf mean s",
                "bitrate kbps",
            ],
            rows,
        )
    )
    print(
        f"{result.sessions} sessions in {wall_s:.1f}s"
        f" ({rate:.0f} sessions/s, {args.workers} workers,"
        f" {len(result.arms)} arms, seed {args.seed})"
    )
    if args.json:
        payload = {
            "sessions": result.sessions,
            "seed": args.seed,
            "shard_size": args.shard_size,
            "workers": args.workers,
            "wall_s": wall_s,
            "sessions_per_s": rate,
            "ladders": sorted(set(space.ladders) & set(LADDER_NAMES)),
            "result": result.to_dict(),
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"saved {args.json}")
    return 0


def _parse_cross_flows(specs):
    """``RATE[:PERIOD[:DUTY]]`` strings into :class:`CrossTrafficSpec`."""
    from .arena import CrossTrafficSpec

    flows = []
    for i, raw in enumerate(specs or ()):
        parts = raw.split(":")
        if not 1 <= len(parts) <= 3:
            raise SystemExit(f"bad --cross spec {raw!r}: RATE[:PERIOD[:DUTY]]")
        try:
            rate = float(parts[0])
            period = float(parts[1]) if len(parts) > 1 else None
            duty = float(parts[2]) if len(parts) > 2 else 0.5
        except ValueError:
            raise SystemExit(f"bad --cross spec {raw!r}: RATE[:PERIOD[:DUTY]]")
        flows.append(
            CrossTrafficSpec(
                label=f"cross{i}",
                rate_kbps=rate,
                period_s=period,
                duty=duty if period is not None else 1.0,
            )
        )
    return tuple(flows)


def _cmd_arena(args) -> int:
    import json
    from pathlib import Path

    from .arena import ArenaConfig, ScheduleConfig, run_arena
    from .emulation.harness import NetworkProfile
    from .service import parse_arms_spec
    from .traces import Trace

    manifest = envivio()
    if args.chunks < manifest.num_chunks:
        manifest = manifest.truncated(args.chunks)
    bandwidth = (
        args.bandwidth if args.bandwidth is not None else 1500.0 * args.players
    )
    # Long enough that even a heavily contended run never wraps awkwardly;
    # the trace repeats anyway if it does.
    trace = Trace.constant(
        bandwidth, 600.0, name=f"arena-const-{bandwidth:g}"
    )
    schedule = ScheduleConfig(
        players=args.players,
        seed=args.seed,
        mix=parse_arms_spec(args.mix, salt=args.salt),
        arrivals=args.arrivals,
        mean_interarrival_s=args.mean_interarrival,
        stagger_s=args.stagger,
        flash_crowds=args.flash_crowds,
        flash_gap_s=args.flash_gap,
        min_watch_chunks=args.min_watch,
        max_watch_chunks=args.max_watch,
        cross_traffic=_parse_cross_flows(args.cross),
    )
    config = ArenaConfig(
        schedule=schedule,
        trace=trace,
        manifest=manifest,
        network=NetworkProfile(slow_start=not args.no_slow_start),
        profile=args.profile,
        fault_seed=args.fault_seed,
        window_s=args.window,
    )
    result = run_arena(config)

    totals = result.totals
    fmt = lambda v, spec=".4f": "-" if v is None else format(v, spec)
    print(
        f"{result.num_players} players, {totals.duration_s:.1f}s,"
        f" profile {args.profile}, {args.arrivals} arrivals"
    )
    print(
        f"whole run: jain {fmt(totals.jain)}"
        f"  unfairness {fmt(totals.unfairness)}"
        f"  utilization {fmt(totals.utilization)}"
        f" (video {fmt(totals.video_utilization)})"
        f"  switches {totals.switches}"
    )
    rows = [
        [
            f"{w.t0_s:.0f}-{w.t1_s:.0f}s",
            w.active_players,
            fmt(w.jain),
            fmt(w.utilization),
            w.switches,
            fmt(w.instability, ".3f"),
        ]
        for w in result.windows
    ]
    print(
        render_table(
            ["window", "players", "jain", "util", "switches", "instab"], rows
        )
    )
    rows = []
    for arm in sorted(result.cohorts):
        rollup = result.cohorts[arm]
        rows.append(
            [
                arm,
                rollup.sessions,
                rollup.departed,
                round(rollup.mean_qoe, 1),
                round(rollup.mean_rebuffer_s, 2),
                round(rollup.mean_bitrate_kbps, 0),
                rollup.switches,
            ]
        )
    print(
        render_table(
            [
                "cohort",
                "sessions",
                "departed",
                "mean QoE",
                "rebuf mean s",
                "bitrate kbps",
                "switches",
            ],
            rows,
        )
    )
    if result.cross_kilobits:
        shares = ", ".join(
            f"{label} {kb:.0f} kb" for label, kb in result.cross_kilobits.items()
        )
        print(f"cross traffic: {shares}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"saved {args.json}")
    return 0


_COMMANDS = {
    "generate-traces": _cmd_generate_traces,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "table1": _cmd_table1,
    "overhead": _cmd_overhead,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
    "predict-race": _cmd_predict_race,
    "leaderboard": _cmd_leaderboard,
    "arena": _cmd_arena,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "cache_dir", None):
        # Exported rather than threaded through every command: everything
        # that caches (table builds, offline bounds) reads this variable
        # as its default, including experiment pool workers on spawn.
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
