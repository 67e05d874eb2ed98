"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Regenerate one experiment at the default settings::

    python -m repro.cli figure6

Regenerate everything quickly (reduced grouping subset, coarse latency grid),
fanning the simulations out over four worker processes::

    python -m repro.cli all --preset quick --jobs 4

Run the full-fidelity sweep (slow — minutes)::

    python -m repro.cli figure10 --preset full --jobs 4

List every experiment id with its description::

    python -m repro.cli --list

Run the simulation job service and submit work to it::

    python -m repro.cli serve --port 8321 --store-dir ./repro-store --workers 4
    python -m repro.cli submit --url http://127.0.0.1:8321 \
        --machine multithreaded-2 --benchmark tomcatv --scale 0.3

Shard the service horizontally (router in front of N backend processes)::

    python -m repro.cli serve --port 8322 &   # shard 0
    python -m repro.cli serve --port 8323 &   # shard 1
    python -m repro.cli serve --port 8321 \
        --shard-of http://127.0.0.1:8322,http://127.0.0.1:8323
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

from repro.experiments.figures import ALL_EXPERIMENTS, run_experiment
from repro.experiments.report import render_report, render_timeline
from repro.experiments.runner import ExperimentContext, ExperimentSettings

__all__ = [
    "build_parser",
    "list_experiments",
    "main",
    "serve_main",
    "submit_main",
    "sweep_main",
    "trace_main",
]

#: Service subcommands routed away from the experiment-regeneration parser.
SERVICE_COMMANDS = ("serve", "submit", "sweep", "trace")


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mtv",
        description=(
            "Reproduction of 'Multithreaded Vector Architectures' (HPCA 1997): "
            "regenerate the paper's tables and figures from the cycle-level simulator."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=(
            "experiment ids to regenerate (e.g. table3 figure6 figure10), "
            "or 'all' for every experiment"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list every experiment id with a one-line description and exit",
    )
    parser.add_argument(
        "--preset",
        choices=["default", "quick", "full"],
        default="default",
        help="how much simulation work to perform (default: default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan simulations out over up to N warm worker processes "
            "(capped by usable CPUs; default: 1, serial)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the synthetic workload scale (1.0 = a few thousand instructions/program)",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="truncate each rendered table to this many rows",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also write each regenerated experiment to this directory",
    )
    parser.add_argument(
        "--output-format",
        choices=["csv", "json"],
        default="csv",
        help="file format used with --output-dir (default: csv)",
    )
    return parser


def _settings_for(preset: str, scale: float | None, jobs: int) -> ExperimentSettings:
    if preset == "quick":
        settings = ExperimentSettings.quick()
    elif preset == "full":
        settings = ExperimentSettings.full()
    else:
        settings = ExperimentSettings()
    if scale is not None:
        settings = settings.with_scale(scale)
    if jobs != 1:
        settings = settings.with_jobs(jobs)
    return settings


def _experiment_description(experiment_id: str) -> str:
    """First line of the experiment builder's docstring."""
    doc = ALL_EXPERIMENTS[experiment_id].__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def list_experiments() -> str:
    """A rendered table of every experiment id with its description."""
    width = max(len(name) for name in ALL_EXPERIMENTS)
    lines = ["available experiments:"]
    for name in ALL_EXPERIMENTS:
        lines.append(f"  {name:<{width}}  {_experiment_description(name)}")
    lines.append(f"  {'all':<{width}}  every experiment above, in order")
    return "\n".join(lines)


def _dedupe(names: Sequence[str]) -> list[str]:
    """Drop repeated experiment ids, keeping the first occurrence's position."""
    return list(dict.fromkeys(names))


# --------------------------------------------------------------------------- #
# simulation service subcommands
# --------------------------------------------------------------------------- #
def _service_client(parser: argparse.ArgumentParser, url: str):
    """A :class:`~repro.service.ServiceClient` for ``url``; a bad URL is a usage error."""
    from repro.errors import ConfigurationError
    from repro.service import ServiceClient

    try:
        return ServiceClient(url)
    except ConfigurationError as error:
        parser.error(str(error))


def serve_main(argv: Sequence[str]) -> int:
    """``repro-mtv serve``: run the async simulation job service."""
    parser = argparse.ArgumentParser(
        prog="repro-mtv serve",
        description="Run the async simulation job service (HTTP JSON API).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: localhost)")
    parser.add_argument("--port", type=int, default=8321, help="bind port; 0 for ephemeral")
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="persistent worker processes (default: 2)",
    )
    parser.add_argument(
        "--store-dir", default="./repro-store",
        help="result-store directory (default: ./repro-store)",
    )
    parser.add_argument(
        "--max-store-mb", type=float, default=256.0,
        help="LRU size bound of the result store in MiB (default: 256)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for a fixed time then exit (default: until interrupted)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="admission bound on distinct pending jobs (default: 256)",
    )
    parser.add_argument(
        "--default-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget applied to jobs without their own (default: none)",
    )
    parser.add_argument(
        "--name", default=None, metavar="NAME",
        help="free-form service name surfaced in /stats (useful per shard)",
    )
    parser.add_argument(
        "--shard-of", default=None, metavar="URL,URL,...",
        help=(
            "run as a shard ROUTER in front of the given backend service URLs "
            "instead of running a service: jobs are forwarded to the shard "
            "owning each request's content key, /stats and /metrics are "
            "aggregated cluster-wide (--workers/--store-dir are ignored)"
        ),
    )
    parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        choices=["debug", "info", "warning", "error"],
        help="logging verbosity of the repro.* hierarchy (default: info)",
    )
    args = parser.parse_args(argv)

    from repro.errors import ConfigurationError
    from repro.faults import PLAN_ENV, load_fault_plan, set_fault_plan
    from repro.obs.logs import configure_logging, get_logger

    configure_logging(args.log_level)
    logger = get_logger("repro.cli")

    if os.environ.get(PLAN_ENV):  # read once, at boot; pool tasks carry it on
        try:
            set_fault_plan(load_fault_plan(os.environ[PLAN_ENV]))
        except ConfigurationError as error:
            logger.error("bad %s value: %s", PLAN_ENV, error)
            return 2

    if args.shard_of is not None:
        from repro.service import ShardRouterServer

        try:
            server = ShardRouterServer(args.shard_of, host=args.host, port=args.port)
        except ConfigurationError as error:
            logger.error("bad --shard-of value: %s", error)
            return 2
        with server:
            logger.info(
                "routing on %s across %d shard(s): %s",
                server.url,
                len(server.router.shards),
                ", ".join(server.router.shards),
            )
            try:
                if args.duration is not None:
                    time.sleep(args.duration)
                else:  # pragma: no cover - interactive foreground mode
                    while True:
                        time.sleep(3600)
            except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
                pass
        logger.info("router stopped")
        return 0

    from repro.service import ResultStore, ServiceServer, SimulationService
    from repro.service.core import DEFAULT_MAX_PENDING

    store = ResultStore(args.store_dir, max_bytes=int(args.max_store_mb * 1024 * 1024))
    service = SimulationService(
        store=store,
        workers=args.workers,
        max_pending=args.max_pending if args.max_pending is not None else DEFAULT_MAX_PENDING,
        default_timeout=args.default_timeout,
        name=args.name,
    )
    with ServiceServer(service, host=args.host, port=args.port) as server:
        logger.info(
            "serving on %s (store: %s, workers: %d)",
            server.url,
            store.directory,
            args.workers,
        )
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:  # pragma: no cover - interactive foreground mode
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
    logger.info("service stopped")
    return 0


def submit_main(argv: Sequence[str]) -> int:
    """``repro-mtv submit``: submit one job to a running service."""
    parser = argparse.ArgumentParser(
        prog="repro-mtv submit",
        description="Submit a simulation job to a running repro-mtv service.",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help=(
            "base URL of one service; to reach a sharded cluster, point it "
            "at a router (repro-mtv serve --shard-of URL,URL,...)"
        ),
    )
    parser.add_argument("--machine", default="reference", help="registered machine model name")
    parser.add_argument(
        "--benchmark", action="append", required=True, metavar="NAME",
        help="benchmark analogue to run (repeat for group/queue modes)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale (default: 1.0)")
    parser.add_argument(
        "--mode", choices=["single", "group", "queue"], default="single",
        help="execution mode (default: single)",
    )
    parser.add_argument("--priority", type=int, default=0, help="queue priority (higher first)")
    parser.add_argument(
        "--memory-latency", type=int, default=None, help="machine memory latency override"
    )
    parser.add_argument("--tag", default=None, help="free-form job tag")
    parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of waiting for the result",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, help="wait timeout in seconds (default: 300)"
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="server-side wall-clock budget for the job (default: service default)",
    )
    args = parser.parse_args(argv)

    from repro.errors import JobCancelled, JobTimeout
    from repro.service import ServiceError

    client = _service_client(parser, args.url)
    options = {}
    if args.memory_latency is not None:
        options["memory_latency"] = args.memory_latency
    workloads = [
        {"benchmark": name, "scale": args.scale} for name in args.benchmark
    ]
    try:
        handle = client.submit(
            args.machine,
            workloads,
            mode=args.mode,
            priority=args.priority,
            tag=args.tag,
            job_timeout=args.job_timeout,
            **options,
        )
        print(f"job {handle.job_id} submitted (served_from: {handle.served_from})")
        if handle.trace_id:
            print(f"trace: {handle.trace_id} (repro-mtv trace {handle.job_id})")
        if args.no_wait:
            return 0
        result = handle.wait(timeout=args.timeout)
    except ServiceError as error:
        # an unreachable or refusing endpoint is an operational condition,
        # not a bug: one line on stderr, no traceback
        print(f"service error: {error}", file=sys.stderr)
        return 2
    except (JobCancelled, JobTimeout) as error:
        print(f"job did not complete: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    print(
        f"{args.machine}: {result.instructions} instructions in {result.cycles} cycles "
        f"({result.stop_reason})"
    )
    return 0


def trace_main(argv: Sequence[str]) -> int:
    """``repro-mtv trace``: pretty-print one job's span timeline."""
    parser = argparse.ArgumentParser(
        prog="repro-mtv trace",
        description=(
            "Fetch GET /jobs/<id>/trace from a running repro-mtv service and "
            "pretty-print the job's span timeline (submit, queue-wait, "
            "execute, result-ship, ...)."
        ),
    )
    parser.add_argument("job_id", help="job id returned by submit")
    parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="base URL of one service or shard router",
    )
    args = parser.parse_args(argv)

    from repro.service import ServiceError

    client = _service_client(parser, args.url)
    try:
        timeline = client.trace(args.job_id)
    except ServiceError as error:
        print(f"service error: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    spans = timeline.get("spans") or []
    print(
        f"job {timeline.get('job_id', args.job_id)} "
        f"trace {timeline.get('trace_id')} "
        f"(state: {timeline.get('state')}, {len(spans)} span(s))"
    )
    if not spans:
        print("  (no spans recorded)")
        return 0
    origin = min(span.get("start", 0.0) for span in spans)
    for span in spans:
        offset_ms = (span.get("start", origin) - origin) * 1000.0
        detail = " ".join(
            f"{key}={span[key]}"
            for key in sorted(span)
            if key not in ("span", "trace_id", "start", "duration_ms")
        )
        line = (
            f"  +{offset_ms:9.3f}ms  {span.get('span', '?'):<12} "
            f"{span.get('duration_ms', 0.0):9.3f}ms"
        )
        print(f"{line}  {detail}" if detail else line)
    return 0


def sweep_main(argv: Sequence[str]) -> int:
    """``repro-mtv sweep``: run a declarative scenario sweep from a spec file."""
    parser = argparse.ArgumentParser(
        prog="repro-mtv sweep",
        description=(
            "Compile a TOML/JSON sweep spec, execute every point (locally or "
            "through a running service), aggregate repetition statistics and "
            "optionally write the manifest artifacts."
        ),
    )
    parser.add_argument("spec", help="path to the sweep spec (.toml or .json)")
    parser.add_argument(
        "--via-service", default=None, metavar="URL",
        help=(
            "fan points out through the running repro-mtv service at URL "
            "(one URL); to shard the sweep across a cluster by content key, "
            "point it at a router (repro-mtv serve --shard-of URL,URL,...)"
        ),
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write sweep.json, ledger.sha256 and SUMMARY.md to DIR",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "local worker processes, capped by usable CPUs "
            "(ignored with --via-service; default: 1)"
        ),
    )
    parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="durable local result store (ignored with --via-service)",
    )
    parser.add_argument("--priority", type=int, default=0, help="service queue priority")
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-point wait timeout in seconds (default: 300)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra submission rounds for failed service-path points (default: 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress lines"
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.retries < 0:
        parser.error("--retries cannot be negative")

    from repro.errors import ReproError
    from repro.sweep import run_sweep

    client = None
    cache = None
    if args.via_service is not None:
        from repro.service import ServiceError

        client = _service_client(parser, args.via_service)
        try:
            # probe liveness up front: a dead endpoint fails the whole sweep
            # in one line instead of per-point tracebacks
            client.healthz()
        except ServiceError as error:
            print(f"service error: {error}", file=sys.stderr)
            return 2
    elif args.store_dir is not None:
        from repro.service import ResultStore

        cache = ResultStore(args.store_dir)

    def progress(outcome, completed: int, total: int) -> None:
        marker = "FAIL" if outcome.failed else outcome.served_from
        print(f"[{completed}/{total}] {outcome.point.label}: {marker}", flush=True)

    try:
        output = run_sweep(
            args.spec,
            jobs=args.jobs,
            cache=cache,
            client=client,
            priority=args.priority,
            timeout=args.timeout,
            service_retries=args.retries,
            out_dir=args.out,
            progress=None if args.quiet else progress,
        )
    except ReproError as error:
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    finally:
        if client is not None:
            client.close()

    counts = output.run.counts()
    print(
        f"sweep {output.compiled.spec.name!r}: {counts['points']} points "
        f"(executed: {counts.get('executed', 0)}, store: {counts.get('store', 0)}, "
        f"deduplicated: {counts.get('deduplicated', 0)}, "
        f"coalesced: {counts.get('coalesced', 0)}, failed: {counts['failed']}) "
        f"in {output.run.elapsed:.2f}s via {output.run.via}"
    )
    for row in output.rows:
        for metric in output.compiled.spec.metrics.select:
            if metric in row.metrics:
                print(f"  {row.label}: {metric} mean={row.stat(metric):g} (n={row.n})")
    if output.artifacts:
        print(f"[manifest written to {output.artifacts['sweep']}]")
    for outcome in output.run.failures():
        print(f"failed: {outcome.point.label}: {outcome.error}", file=sys.stderr)
    return 1 if counts["failed"] else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in SERVICE_COMMANDS:
        # service subcommands have their own parsers; experiment ids keep
        # the original positional interface
        if argv[0] == "serve":
            return serve_main(argv[1:])
        if argv[0] == "sweep":
            return sweep_main(argv[1:])
        if argv[0] == "trace":
            return trace_main(argv[1:])
        return submit_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_experiments:
        print(list_experiments())
        return 0
    if not args.experiments:
        parser.error("at least one experiment id is required (or use --list)")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    requested = _dedupe(args.experiments)
    if "all" in requested:
        position = requested.index("all")
        requested[position : position + 1] = list(ALL_EXPERIMENTS)
        requested = _dedupe(requested)
    unknown = [name for name in requested if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(ALL_EXPERIMENTS)}, all"
        )

    context = ExperimentContext(_settings_for(args.preset, args.scale, args.jobs))
    for experiment_id in requested:
        started = time.perf_counter()
        report = run_experiment(experiment_id, context)
        elapsed = time.perf_counter() - started
        if experiment_id == "figure9":
            print(render_timeline(report))
        else:
            print(render_report(report, max_rows=args.max_rows))
        if args.output_dir is not None:
            from repro.experiments.export import write_report

            path = write_report(report, args.output_dir, fmt=args.output_format)
            print(f"[written to {path}]")
        print(f"[{experiment_id} regenerated in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
