"""The repository's benchmark command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Every run checks the program's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

from host import REFERENCE_OPS_PER_S, SpeedMonitor, host_context
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-default", "service-cold", "service-warm")
EXPECTED = os.path.join(HERE, "expected_paper_default.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _git_rev() -> str:
    """The checkout's commit, when it is a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def _metrics(declared: list[dict], values: dict) -> dict:
    missing = [entry["name"] for entry in declared if entry["name"] not in values]
    if missing:
        raise KeyError(f"the run did not produce {missing}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def end_to_end(report: dict, monitor) -> tuple[dict, dict]:
    """End-to-end metrics at the reference host speed, and the raw figures.

    A job is scaled by the host speed sampled around it, not over its whole
    pass: the host drifts within a 15 s paper-default pass, and per-job
    scaling cut the run-to-run spread of its ``job_p50_ms`` (0.21 to 0.13
    over six runs on a busy 2-vCPU host) while leaving service-cold's
    unchanged.
    """
    passes = report["passes"]
    speeds = [monitor.speed(start, end) for start, end, _, _ in passes]

    def summary(seconds) -> dict:
        walls = [seconds(start, end, speed) for (start, end, _, _), speed in zip(passes, speeds)]
        latencies = [1000.0 * seconds(start, end, monitor.speed(start, end))
                     for start, end in report["jobs"]]
        setups = [seconds(start, end, monitor.speed(start, end))
                  for start, end in report["setups"]]
        return {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": statistics.median(walls),
            "sim_instr_per_s": statistics.median(
                instructions / wall for wall, (_, _, _, instructions) in zip(walls, passes)
            ),
            "jobs_per_s": statistics.median(
                jobs / wall for wall, (_, _, jobs, _) in zip(walls, passes)
            ),
            "job_p50_ms": statistics.median(latencies),
            "job_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": report["peak_rss_mb"],
            "passes_s": walls,
        }

    scaled = summary(lambda start, end, speed: (end - start) * speed / REFERENCE_OPS_PER_S)
    raw = summary(lambda start, end, speed: end - start)
    raw["speeds"] = speeds
    return scaled, {f"raw.{name}": value for name, value in raw.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer(clock=time.time)
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload == "paper-default":
        cpus = cpus[:1]  # the serial pass runs pinned to this CPU
    try:
        with SpeedMonitor(cpus) as monitor:
            if args.workload == "paper-default":
                import paper

                with open(EXPECTED) as handle:
                    expected = json.load(handle)
                report = paper.measure(args.seconds, bool(args.trace), ROOT, expected, cpus[0])
            else:
                import service

                report = service.measure(
                    args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir,
                    tracer,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = report.get("tracer") or tracer
    spans_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    )
    tracer.write(spans_path)

    attempted, failed = report["attempted"], report["failed"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "spans": os.path.relpath(spans_path, ROOT),
        "host.speed_samples": len(monitor.samples),
        **report["context"],
        **host_context(),
    }
    if args.trace:
        (plain_start, plain_end), (traced_start, traced_end) = report["overhead"]
        plain = monitor.scale(plain_end - plain_start, plain_start, plain_end)
        traced = monitor.scale(traced_end - traced_start, traced_start, traced_end)
        values = {
            **report["layers"],
            **context,
            "obs.trace_overhead_pct": 100.0 * (traced - plain) / plain,
            "error_rate": failed / attempted,
        }
        metrics = _metrics(declared["per_layer"], values)
    else:
        values, raw = end_to_end(report, monitor)
        context.update(raw, passes_s=values.pop("passes_s"))
        metrics = _metrics(declared["end_to_end"], values)
        print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for name, entry in metrics.items():
        print(f"{name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
