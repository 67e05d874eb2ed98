"""The ``paper-default`` workload: every artifact at ``--preset default``.

One pass regenerates all twelve tables and figures serially (``jobs=1``),
the way one ``repro-mtv all --preset default`` invocation does: a fresh
``ExperimentContext`` and an empty expansion intern table, so no cache is
carried from one pass to the next.  The rendered text of each artifact is
what the CLI prints, minus its ``[... regenerated in Xs]`` line.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time

import repro.api.batch as batch
import repro.experiments.runner as runner
import repro.workloads.suite as suite
from repro.api.machine import Machine
from repro.experiments.figures import ALL_EXPERIMENTS, run_experiment
from repro.experiments.report import render_report, render_timeline
from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.obs.profiling import PROFILE_ENV_VAR, PROFILE_PHASES
from repro.workloads.program import clear_expansion_intern
from spans import Tracer

ENGINE_CALLS = ("run", "run_group", "run_queue")

#: What a fresh interpreter pays before the first simulation.
SETUP_SNIPPET = (
    "from repro.cli import main\n"
    "from repro.experiments.runner import ExperimentContext, ExperimentSettings\n"
    "ExperimentContext(ExperimentSettings()).programs\n"
)


def render(experiment_id: str, report) -> str:
    """The CLI's text for one artifact, without its timing line."""
    text = render_timeline(report) if experiment_id == "figure9" else render_report(report)
    return text + "\n\n"


def artifact_digests(texts: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def mismatches(texts: dict[str, str], expected: dict) -> list[str]:
    """Artifacts whose digest differs from the expected one (or is missing)."""
    digests = artifact_digests(texts)
    return [
        name for name in ALL_EXPERIMENTS
        if digests.get(name) != expected["artifacts"].get(name)
    ]


def _record_result(span: dict, args, result) -> None:
    span["instructions"] = result.instructions
    if result.phase_profile is not None:
        span["phases"] = {
            phase: entry["seconds"] for phase, entry in result.phase_profile["phases"].items()
        }


def install_engine_timer(tracer) -> None:
    """Time every engine call (needed for per-simulation latency)."""
    for name in ENGINE_CALLS:
        tracer.wrap(Machine, name, "core", on_result=_record_result)


def install_layer_wrappers(tracer, keys_seen: set, batch_requests: list) -> None:
    """Wrap the public calls of every layer a pass goes through."""

    def keyed(span, args, key):
        keys_seen.add(key)

    def batched(span, args, results):
        batch_requests.append(len(results))

    install_engine_timer(tracer)
    tracer.wrap(batch.SimulationRequest, "cache_key", "api", on_result=keyed)
    tracer.wrap(batch, "run_batch", "api", on_result=batched)
    tracer.wrap(suite, "build_benchmark", "workloads")
    tracer.wrap(runner, "build_suite", "workloads")


def run_pass(tracer) -> dict[str, str]:
    """One serial pass over every artifact; returns the rendered texts."""
    texts: dict[str, str] = {}
    with tracer.span("pass", "pass"):
        clear_expansion_intern()
        context = ExperimentContext(ExperimentSettings())
        for experiment_id in ALL_EXPERIMENTS:
            with tracer.span(experiment_id, "experiments"):
                report = run_experiment(experiment_id, context)
            with tracer.span("render", "render"):
                texts[experiment_id] = render(experiment_id, report)
    return texts


def run_setup(root: str) -> None:
    """Import the package and build the suite in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop(PROFILE_ENV_VAR, None)
    subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], env=env, check=True, timeout=120, cwd=root
    )


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #
#: A fresh-interpreter set-up takes about 0.5 s, so more of them steady the median cheaply.
SETUPS = 7
#: Layers a serial pass never enters (no pool, no service, no store, no HTTP).
IDLE_LAYERS = (
    "pool.spawned", "pool.result_ship_ms", "service.submit_ms", "service.queue_wait_ms",
    "service.execute_ms", "service.executed", "service.store_hits", "service.coalesced",
    "service.rejected", "service.useful_ratio", "service.leaked_children", "store.get_ms",
    "store.put_ms", "store.hit_ratio", "http.post_ms", "http.get_ms", "client.polls_per_job",
)


def _layers(tracer, wall: float, keys_seen: set, batch_requests: list) -> dict:
    """Per-layer metrics of one traced pass."""
    own = tracer.self_times()
    sims = [span for span in tracer.spans if span["layer"] == "core"]
    keyings = tracer.named("SimulationRequest.cache_key")
    core_s = own.get("core", 0.0)
    layers = {
        "core.sims": len(sims),
        "core.sim_s": core_s,
        "core.instr_per_s": sum(span["instructions"] for span in sims) / core_s,
        **{
            f"core.phase.{phase}_s": sum(span["phases"][phase] for span in sims)
            for phase in PROFILE_PHASES
        },
        "workloads.builds": len(tracer.named("repro.workloads.suite.build_benchmark")),
        "workloads.build_s": own.get("workloads", 0.0),
        "experiments.render_s": own.get("render", 0.0),
        # the pass's own span (fresh context, cleared intern table) counts here
        "experiments.self_s": own.get("experiments", 0.0) + own.get("pass", 0.0),
        "api.keys": len(keyings),
        "api.key_ms": 1000.0 * sum(s["end"] - s["start"] for s in keyings) / max(1, len(keyings)),
        "api.batch_overhead_s": own.get("api", 0.0),
        "api.dedupe_ratio": len(keys_seen) / max(1, sum(batch_requests)),
    }
    accounted = sum(
        layers[name] for name in (
            "core.sim_s", "api.batch_overhead_s", "workloads.build_s",
            "experiments.self_s", "experiments.render_s",
        )
    )
    layers["obs.accounted_pct"] = 100.0 * accounted / wall
    layers.update(dict.fromkeys(IDLE_LAYERS, 0))
    return layers


def measure(seconds: float, trace: bool, root: str, expected: dict, cpu: int) -> dict:
    """Run the paper-default workload pinned to ``cpu``; returns the raw report.

    Intervals are ``(start, end)`` monotonic-clock pairs, scaled to the
    reference host speed by the caller.
    """
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return _measure(seconds, trace, root, expected)
    finally:
        os.sched_setaffinity(0, affinity)


def _measure(seconds: float, trace: bool, root: str, expected: dict) -> dict:
    report: dict = {"setups": [], "passes": [], "jobs": [], "layers": {}}
    if not trace:
        for _ in range(SETUPS):
            start = time.monotonic()
            run_setup(root)
            report["setups"].append((start, time.monotonic()))
    failed = attempted = 0
    started = time.monotonic()
    while not report["passes"] or (not trace and time.monotonic() - started < seconds):
        tracer = Tracer()
        install_engine_timer(tracer)
        try:
            start, texts = time.monotonic(), run_pass(tracer)
            end = time.monotonic()
        finally:
            tracer.unwrap_all()
        sims = [span for span in tracer.spans if span["layer"] == "core"]
        report["passes"].append(
            (start, end, len(sims), sum(span["instructions"] for span in sims))
        )
        report["jobs"].extend((span["start"], span["end"]) for span in sims)
        attempted += len(ALL_EXPERIMENTS)
        failed += len(mismatches(texts, expected))
        report["tracer"] = tracer

    if trace:
        tracer = Tracer()
        keys_seen: set = set()
        batch_requests: list = []
        install_layer_wrappers(tracer, keys_seen, batch_requests)
        os.environ[PROFILE_ENV_VAR] = "1"
        try:
            start, texts = time.monotonic(), run_pass(tracer)
            end = time.monotonic()
        finally:
            del os.environ[PROFILE_ENV_VAR]
            tracer.unwrap_all()
        attempted += len(ALL_EXPERIMENTS)
        failed += len(mismatches(texts, expected))
        report["layers"] = _layers(tracer, end - start, keys_seen, batch_requests)
        if not 95.0 <= report["layers"]["obs.accounted_pct"] <= 105.0:
            failed += 1  # the layers no longer account for the pass
        report["overhead"] = (report["passes"][0][:2], (start, end))
        report["tracer"] = tracer

    report.update(
        attempted=attempted,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        context={"passes": len(report["passes"]), "sims_per_pass": report["passes"][0][2]},
    )
    return report
