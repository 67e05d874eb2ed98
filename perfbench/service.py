"""The ``service-cold`` and ``service-warm`` workloads.

A ``repro-mtv serve --port 0 --workers 2`` process runs on an empty store
in the checkout's ``.perfbench/`` directory.  The load comes from this process:
:data:`CLIENTS` closed-loop client threads, each submitting its next JSON
job only after the previous one's result came back decoded.

* ``service-cold``: every job is distinct (:func:`jobs.cold_jobs`), so each
  one is keyed, queued, executed in a pool worker, stored and fetched.
* ``service-warm``: set-up stores :data:`WARM_KEYS` jobs; the clients then
  draw Zipf-skewed repeats of them, so every job is a store hit.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from repro.api.batch import run_batch
from repro.errors import ReproError
from repro.obs.exposition import parse_exposition
from repro.obs.profiling import PROFILE_ENV_VAR, PROFILE_PHASES
from repro.service import ServiceClient

import jobs

CLIENTS = 2
WORKERS = 2
WARM_PASS_JOBS = 200
WARM_KEYS = 60
ZIPF_EXPONENT = 1.0
#: Distinct results per run re-simulated in-process and compared by digest.
VERIFY_SAMPLE = {"service-cold": 24, "service-warm": 12}
#: Primes the pool during set-up; its scale keeps it outside the job space.
WARMUP_ARGS = (("reference", [{"benchmark": "swm256", "scale": 0.05}]), {"memory_latency": 1})

BOOT_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0


@dataclass
class Outcome:
    """One client-observed job.

    ``start``/``end`` are ``time.monotonic()`` readings; ``wall_start`` and
    ``wall_end`` are ``time.time()`` readings that line up with the
    server's span timestamps.
    """

    spec: jobs.JobSpec
    start: float = 0.0
    end: float = 0.0
    wall_start: float = 0.0
    wall_end: float = 0.0
    job_id: str | None = None
    trace_id: str | None = None
    served_from: str | None = None
    digest: str | None = None
    instructions: int = 0
    profile: dict | None = None
    error: str | None = None
    result: object = None

    @property
    def ok(self) -> bool:
        return self.digest is not None

    def settle(self) -> None:
        """Digest the decoded result, then drop it (outside the timed region)."""
        if self.result is not None:
            self.instructions = self.result.instructions
            self.profile = self.result.phase_profile
            self.digest = jobs.stats_digest(self.result)
            self.result = None


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
def _stat(pid: str) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or [] once gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def process_group(pgid: int) -> list[int]:
    """Live (not zombie) processes of one process group."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(entry)
            if fields and fields[0] != "Z" and int(fields[2]) == pgid:
                found.append(int(entry))
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``serve`` process on a fresh store under ``workdir``."""

    def __init__(self, root: str, workdir: str, name: str, *, hooked: bool = False) -> None:
        self.root = root
        self.store = os.path.join(workdir, f"{name}-store")
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.spans_path = os.path.join(workdir, f"{name}-spans.jsonl") if hooked else None
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.peak_rss_mb = 0.0
        self.leaked = 0

    def start(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        env.pop(PROFILE_ENV_VAR, None)
        serve = ["--port", "0", "--workers", str(WORKERS), "--store-dir", self.store]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve]
        else:
            env[PROFILE_ENV_VAR] = "1"
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_hooked.py")
            command = [sys.executable, launcher, self.spans_path, *serve]
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, env=env, cwd=self.root, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,  # the server, its pool and its helpers form one group
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while not self.url:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve did not come up; see {self.log_path}")
            time.sleep(0.01)
            with open(self.log_path) as log:
                found = re.search(r"serving on (http://\S+)", log.read())
            if found:
                self.url = found.group(1)
        ServiceClient(self.url).healthz()
        return self

    def stop(self) -> None:
        """SIGINT the server, then count processes and listeners it left.

        Returns only once every process of the server's group has ended.
        """
        if self.process is None:
            return
        group = self.process.pid
        self.peak_rss_mb = max([peak_rss_mb(pid) for pid in process_group(group)] or [0.0])
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None
        deadline = time.monotonic() + 5.0
        left = process_group(group)
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = process_group(group)
        leaked = len(left)
        while left:  # never leave a stray worker behind the benchmark
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
            left = process_group(group)
        listening = False
        if self.url:  # a server that never came up has no port to probe
            host, port = self.url[len("http://"):].rsplit(":", 1)
            with socket.socket() as probe:
                probe.settimeout(1.0)
                listening = probe.connect_ex((host, int(port))) == 0
        self.leaked = leaked + int(listening)

    def metrics(self) -> dict:
        return parse_exposition(ServiceClient(self.url).metrics())


# --------------------------------------------------------------------------- #
# closed-loop load
# --------------------------------------------------------------------------- #
def _run_one(client: ServiceClient, outcome: Outcome) -> None:
    args, kwargs = outcome.spec.submit_args()
    outcome.wall_start, outcome.start = time.time(), time.monotonic()
    try:
        handle = client.submit(*args, **kwargs)
        result = handle.wait(timeout=JOB_TIMEOUT)
    except ReproError as error:
        outcome.error = f"{type(error).__name__}: {error}"
        return
    outcome.end, outcome.wall_end = time.monotonic(), time.time()
    outcome.job_id, outcome.trace_id = handle.job_id, handle.trace_id
    outcome.served_from = handle.served_from
    outcome.result = result


def run_pass(url: str, specs: list[jobs.JobSpec]) -> tuple[tuple, list[Outcome]]:
    """Push ``specs`` through :data:`CLIENTS` closed-loop clients.

    Returns the pass's ``(start, end)`` and one outcome per spec, each
    settled after the clock stopped.
    """
    outcomes = [Outcome(spec) for spec in specs]
    cursor = iter(outcomes)
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(url, timeout=JOB_TIMEOUT)
        while True:
            with lock:
                outcome = next(cursor, None)
            if outcome is None:
                return
            _run_one(client, outcome)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    for outcome in outcomes:
        outcome.settle()
    return (start, end), outcomes


def prime(url: str) -> None:
    """Spawn the pool and pay first-job imports before anything is timed."""
    args, kwargs = WARMUP_ARGS
    ServiceClient(url).submit(*args, **kwargs).wait(timeout=JOB_TIMEOUT)


# --------------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------------- #
class ServiceWorkload:
    """Inputs, set-up and checks of one service workload for one seed."""

    def __init__(self, name: str, seed: int, root: str, workdir: str) -> None:
        self.name = name
        self.cold = name == "service-cold"
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.keys = [] if self.cold else jobs.warm_keys(seed, WARM_KEYS)
        self._stream = jobs.cold_jobs(seed)
        self._zipf = random.Random(f"zipf:{seed}")
        self.expected: dict[jobs.JobSpec, str] = {}
        self.submitted: list[jobs.JobSpec] = []
        self._servers = 0

    def next_pass(self) -> list[jobs.JobSpec]:
        if self.cold:
            specs = [next(self._stream) for _ in range(jobs.PASS_JOBS)]
        else:
            ranks = jobs.zipf_ranks(self._zipf, WARM_KEYS, WARM_PASS_JOBS, ZIPF_EXPONENT)
            specs = [self.keys[rank] for rank in ranks]
        self.submitted.extend(specs)
        return specs

    def setup(self, *, hooked: bool = False) -> tuple[Server, tuple, list[Outcome]]:
        """Boot a server, prime its pool and (warm) fill its store.

        Returns the server, the set-up's ``(start, end)`` and the outcomes
        of the jobs that filled the store.
        """
        self._servers += 1
        start = time.monotonic()
        server = Server(self.root, self.workdir, f"serve{self._servers}", hooked=hooked)
        outcomes: list[Outcome] = []
        try:
            server.start()
            prime(server.url)
            if not self.cold:
                _, outcomes = run_pass(server.url, self.keys)
        except BaseException:
            server.stop()
            raise
        return server, (start, time.monotonic()), outcomes

    def check(self, outcomes: list[Outcome]) -> int:
        """Failed jobs: errors, and digests that differ from the expected one.

        A job's expected digest is the first one seen for its spec: on the
        warm workload, the result of the set-up run that stored it.
        """
        return sum(
            not outcome.ok or self.expected.setdefault(outcome.spec, outcome.digest) != outcome.digest
            for outcome in outcomes
        )

    def verify_in_process(self, outcomes: list[Outcome]) -> int:
        """Re-simulate a seeded sample in-process; returns mismatching jobs."""
        specs = sorted({o.spec for o in outcomes if o.ok}, key=jobs.JobSpec.as_json)
        rng = random.Random(f"verify:{self.seed}")
        sample = rng.sample(specs, min(VERIFY_SAMPLE[self.name], len(specs)))
        wrong = set()
        for spec in sample:
            if jobs.stats_digest(run_batch([spec.request()])[0]) != self.expected[spec]:
                wrong.add(spec)
        return sum(1 for o in outcomes if o.spec in wrong)


# --------------------------------------------------------------------------- #
# telemetry scraped from the service
# --------------------------------------------------------------------------- #
def _sample(families: dict, name: str, labels: dict) -> float:
    family = families.get(name) or families.get(name.rsplit("_", 1)[0]) or {}
    for sample_name, sample_labels, value in family.get("samples", []):
        if sample_name == name and all(sample_labels.get(k) == v for k, v in labels.items()):
            return value
    return 0.0


def _delta(before: dict, after: dict, name: str, **labels) -> float:
    return _sample(after, name, labels) - _sample(before, name, labels)


def _hist_mean_ms(before: dict, after: dict, name: str, **labels) -> float:
    """Mean of a latency histogram over the pass (``_sum / _count``), in ms."""
    count = _delta(before, after, f"{name}_count", **labels)
    return 1000.0 * _delta(before, after, f"{name}_sum", **labels) / count if count else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _read_spans(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(
    workload: ServiceWorkload,
    outcomes: list[Outcome],
    window: tuple[float, float],
    before: dict,
    after: dict,
    traces: dict[str, list[dict]],
    server_spans: list[dict],
) -> dict:
    """Per-layer metrics of one traced pass."""
    executed = [o for o in outcomes if o.served_from == "executed" and o.profile]
    phases = dict.fromkeys(PROFILE_PHASES, 0.0)
    sim_s = 0.0
    for outcome in executed:
        sim_s += outcome.profile["loop_seconds"] + outcome.profile["phases"]["finalize"]["seconds"]
        for phase in phases:
            phases[phase] += outcome.profile["phases"][phase]["seconds"]
    in_window = [s for s in server_spans if window[0] <= s["start"] and s["end"] <= window[1]]
    keyings = [s for s in in_window if s["layer"] == "api"]
    builds = [s for s in in_window if s["layer"] == "workloads"]

    def span_ms(name: str) -> float:
        return _mean(
            span["duration_ms"] for spans in traces.values() for span in spans
            if span.get("span") == name
        )

    submitted = _delta(before, after, "repro_service_submitted_total")
    executed_count = _delta(before, after, "repro_service_executed_total")
    store_hits = _delta(before, after, "repro_service_store_hits_total")
    lookups = _delta(before, after, "repro_store_lookup_hits_total")
    misses = _delta(before, after, "repro_store_lookup_misses_total")
    gets = _delta(before, after, "repro_http_request_seconds_count", method="GET")
    explained = sum(
        span["duration_ms"] for spans in traces.values() for span in spans
    ) / 1000.0
    latency = sum(o.end - o.start for o in outcomes if o.ok)
    useful = executed_count if workload.cold else store_hits
    return {
        "core.sims": len(executed),
        "core.sim_s": sim_s,
        "core.instr_per_s": sum(o.instructions for o in executed) / sim_s if sim_s else 0.0,
        **{f"core.phase.{phase}_s": seconds for phase, seconds in phases.items()},
        "workloads.builds": len(builds),
        "workloads.build_s": sum(s["end"] - s["start"] for s in builds),
        "experiments.render_s": 0.0,
        "experiments.self_s": 0.0,
        "api.keys": len(keyings),
        "api.key_ms": 1000.0 * _mean(s["end"] - s["start"] for s in keyings),
        "api.batch_overhead_s": 0.0,
        "api.dedupe_ratio": len({o.spec for o in outcomes}) / len(outcomes),
        "pool.spawned": _sample(after, "repro_pool_executors_spawned_total", {}),
        "pool.result_ship_ms": span_ms("result-ship"),
        "service.submit_ms": span_ms("submit"),
        "service.queue_wait_ms": _hist_mean_ms(before, after, "repro_queue_wait_seconds"),
        "service.execute_ms": _hist_mean_ms(before, after, "repro_execute_seconds"),
        "service.executed": executed_count,
        "service.store_hits": store_hits,
        "service.coalesced": _delta(before, after, "repro_service_coalesced_total"),
        "service.rejected": _delta(before, after, "repro_service_rejected_total"),
        "service.useful_ratio": useful / submitted if submitted else 0.0,
        "store.get_ms": _hist_mean_ms(before, after, "repro_store_get_seconds"),
        "store.put_ms": _hist_mean_ms(before, after, "repro_store_put_seconds"),
        "store.hit_ratio": lookups / (lookups + misses) if lookups + misses else 0.0,
        "http.post_ms": _hist_mean_ms(before, after, "repro_http_request_seconds", method="POST"),
        "http.get_ms": _hist_mean_ms(before, after, "repro_http_request_seconds", method="GET"),
        # the scrape that opened the window is itself one GET inside it
        "client.polls_per_job": (gets - 1) / len(outcomes),
        "obs.accounted_pct": 100.0 * explained / latency if latency else 0.0,
    }


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #
SETUPS = 3


def _traced_run(workload: ServiceWorkload, report: dict, tracer) -> list[Outcome]:
    """One plain and one hooked server on the same inputs; fills the layers."""
    specs = workload.next_pass()
    server, _, setup_jobs = workload.setup()
    try:
        plain_window, plain = run_pass(server.url, specs)
    finally:
        server.stop()
    leaked = server.leaked
    server, _, hooked_jobs = workload.setup(hooked=True)
    try:
        before = server.metrics()
        window_start = time.time()
        window, outcomes = run_pass(server.url, specs)
        wall_window = (window_start, time.time())
        after = server.metrics()
        client = ServiceClient(server.url)
        traces = {o.job_id: client.trace(o.job_id)["spans"] for o in outcomes if o.job_id}
    finally:
        server.stop()
    server_spans = _read_spans(server.spans_path)
    layers = layer_metrics(workload, outcomes, wall_window, before, after, traces, server_spans)
    layers["service.leaked_children"] = leaked + server.leaked
    report.update(layers=layers, overhead=(plain_window, window), peak_rss_mb=server.peak_rss_mb)
    for outcome in outcomes:
        job = tracer.add("job", "client", outcome.wall_start, outcome.wall_end,
                         job_id=outcome.job_id, trace_id=outcome.trace_id)
        for span in traces.get(outcome.job_id, []):
            tracer.add(span["span"], "service", span["start"],
                       span["start"] + span["duration_ms"] / 1000.0, parent=job,
                       job_id=outcome.job_id, trace_id=span.get("trace_id"))
    for span in server_spans:
        tracer.add(span["name"], span["layer"], span["start"], span["end"], process="serve")
    return setup_jobs + plain + hooked_jobs + outcomes


def _plain_run(workload: ServiceWorkload, report: dict, seconds: float) -> list[Outcome]:
    """:data:`SETUPS` set-ups, then timed passes on the last server."""
    checked: list[Outcome] = []
    leaked = 0
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                leaked += server.leaked
            server, window, setup_jobs = workload.setup()
            report["setups"].append(window)
            checked.extend(setup_jobs)
        started = time.monotonic()
        while not report["passes"] or time.monotonic() - started < seconds:
            window, outcomes = run_pass(server.url, workload.next_pass())
            report["passes"].append(
                (*window, len(outcomes), sum(o.instructions for o in outcomes))
            )
            report["jobs"].extend((o.start, o.end) for o in outcomes if o.ok)
            checked.extend(outcomes)
    finally:
        if server is not None:
            server.stop()
            leaked += server.leaked
    report["peak_rss_mb"] = server.peak_rss_mb
    report["context"]["leaked_children"] = leaked
    return checked


def measure(name: str, seed: int, seconds: float, trace: bool, root: str, workdir: str, tracer):
    """Run one service workload; returns the run's raw report.

    Intervals are ``(start, end)`` monotonic-clock pairs, scaled to the
    reference host speed by the caller.
    """
    workload = ServiceWorkload(name, seed, root, workdir)
    report: dict = {"setups": [], "passes": [], "jobs": [], "layers": {}, "context": {}}
    if trace:
        checked = _traced_run(workload, report, tracer)
    else:
        checked = _plain_run(workload, report, seconds)
    report["peak_rss_mb"] = max(
        report["peak_rss_mb"], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    failed = workload.check(checked) + workload.verify_in_process(checked)
    for outcome in [o for o in checked if o.error][:5]:
        print(f"job failed: {outcome.spec.as_json()}: {outcome.error}", file=sys.stderr)
    report["context"].update(
        clients=CLIENTS,
        workers=WORKERS,
        inputs_sha256=jobs.inputs_digest(workload.submitted),
        jobs=len(checked),
    )
    report.update(attempted=len(checked), failed=failed)
    return report
