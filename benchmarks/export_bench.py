"""Perf-baseline harness: measure simulator throughput and export it as JSON.

The reproduction note flags raw dynamic-instructions-per-second through the
cycle-level engine as the main practical constraint of this pure-Python model,
so the perf trajectory is tracked explicitly: this script runs the throughput
suite (single runs of the reference, multithreaded, dual-scalar and
cray-style models on the paper's benchmark analogues, plus the batch-scaling
sweep of ``run_batch``) and writes
``BENCH_throughput.json`` with the numbers and the git revision they were
measured at.

Usage::

    PYTHONPATH=src python benchmarks/export_bench.py                 # write BENCH_throughput.json
    PYTHONPATH=src python benchmarks/export_bench.py --output out.json --repeats 5
    PYTHONPATH=src python benchmarks/export_bench.py \
        --check-against BENCH_throughput.json --max-regression 0.30  # CI gate

With ``--check-against`` the freshly measured numbers are compared entry by
entry against a previously committed baseline and the process exits non-zero
when any single-run throughput — or the stats-finalize reduction rate of the
columnar statistics pipeline, the scoreboard-hazard dispatch rate, or the
cold/warm jobs-per-second of the simulation service round-trip, the
shed-and-retry jobs-per-second of the overloaded service, or the cold and
repeat keys-per-second of request keying —
dropped by more than ``--max-regression`` (default 30%).  Baselines are only
written from a clean git tree (``--allow-dirty`` overrides, marking the
recorded revision), so the recorded ``git_rev`` always describes the
measured code.  Absolute instrs/sec depend on the host, so every export also
records a *calibration score* (ops/sec of a fixed pure-Python workload) and
the regression gate compares throughput **normalized by that score**: a
slower CI runner lowers both numbers together and only genuine simulator
slowdowns trip the gate.  CI uploads the fresh file as an artifact either
way so the trajectory is recorded per commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.api import Machine, SimulationRequest, run_batch, usable_cpus
from repro.core.config import MachineConfig
from repro.workloads import build_benchmark, build_suite

#: Benchmark-analogue programs used for the single-run throughput rows.
SINGLE_RUN_WORKLOADS = ("hydro2d", "swm256", "tomcatv")
#: Workload scale of the single-run rows (matches test_simulator_throughput).
SINGLE_RUN_SCALE = 0.3
#: Workload scale of the multithreaded group row.
GROUP_SCALE = 0.2
#: Programs and scale of the wide-decode rows: every context drains one queue.
QUEUE_WORKLOADS = ("hydro2d", "swm256", "tomcatv", "flo52")
QUEUE_SCALE = 1.0
#: Workload scale of the batch-scaling rows (matches test_batch_scaling).
BATCH_SCALE = 0.1
BATCH_LATENCIES = (1, 50)
BATCH_JOBS = (1, 2, 4)


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _git_tree_dirty(ignore: Path | None = None) -> bool:
    """Whether the working tree differs from HEAD (untracked files included).

    A baseline measured on a dirty tree records a ``git_rev`` that does not
    describe the code that produced the numbers — the stale-rev drift this
    harness used to allow.  Writing one now requires ``--allow-dirty`` and
    marks the revision with a ``-dirty`` suffix.  ``ignore`` exempts the
    output file itself: an uncommitted baseline from a previous export does
    not change the code being measured, and re-measuring before committing
    it must stay possible.
    """
    repo_root = Path(__file__).resolve().parent.parent
    try:
        out = subprocess.run(
            # -z: NUL-separated records with no C-quoting, so unusual
            # filenames compare literally
            ["git", "status", "--porcelain", "-z"],
            capture_output=True, text=True, check=True,
            cwd=repo_root,
        )
    except (OSError, subprocess.CalledProcessError):
        return False
    records = out.stdout.split("\0")
    index = 0
    while index < len(records):
        record = records[index]
        index += 1
        if not record:
            continue
        status, path = record[:2], record[3:]
        if status[0] in "RC":
            # renames/copies carry the source path as the next NUL token and
            # are never just a regenerated output file
            return True
        if ignore is not None and (repo_root / path) == ignore:
            continue
        return True
    return False


def _time_run(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (best, not mean: least noise-biased)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


#: Iterations of the fixed calibration workload.
_CALIBRATION_ITERS = 400_000


def _calibration_score(repeats: int = 3) -> float:
    """Ops/sec of a fixed pure-Python workload (dict stores + int arithmetic).

    The workload exercises the same interpreter operations the simulator hot
    path is made of, so the ratio ``instrs_per_sec / calibration`` is roughly
    host-independent and lets the regression gate compare runs from different
    machines.
    """

    def spin() -> None:
        table: dict[int, int] = {}
        total = 0
        for i in range(_CALIBRATION_ITERS):
            total += i & 7
            table[i & 127] = total

    seconds = _time_run(spin, repeats)
    return round(_CALIBRATION_ITERS / seconds, 1)


# --------------------------------------------------------------------------- #
# measurements
# --------------------------------------------------------------------------- #
def measure_single_runs(repeats: int) -> list[dict]:
    """Instrs/sec of one simulation run per model and workload."""
    entries = []
    for name in SINGLE_RUN_WORKLOADS:
        program = build_benchmark(name, scale=SINGLE_RUN_SCALE)
        instructions = program.dynamic_instruction_count

        def run_reference() -> None:
            Machine.from_config(MachineConfig.reference(50)).run(program)

        seconds = _time_run(run_reference, repeats)
        entries.append(
            {
                "benchmark": "single_run_throughput",
                "model": "reference",
                "workload": name,
                "instructions": instructions,
                "seconds": round(seconds, 6),
                "instrs_per_sec": round(instructions / seconds, 1),
            }
        )
    # the multithreaded group row of test_simulator_throughput
    programs = [build_benchmark(name, scale=GROUP_SCALE) for name in ("swm256", "tomcatv")]
    machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
    dispatched = machine.run_group(programs).instructions

    def run_group() -> None:
        Machine.from_config(MachineConfig.multithreaded(2, 50)).run_group(programs)

    seconds = _time_run(run_group, repeats)
    entries.append(
        {
            "benchmark": "single_run_throughput",
            "model": "multithreaded-2",
            "workload": "swm256+tomcatv",
            "instructions": dispatched,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(dispatched / seconds, 1),
        }
    )
    # the dual-scalar (section 9) and multi-issue (section 10) machines
    programs = [build_benchmark(name, scale=QUEUE_SCALE) for name in QUEUE_WORKLOADS]
    for config in (MachineConfig.dual_scalar_fujitsu(50), MachineConfig.cray_style(4, 50)):
        dispatched = Machine.from_config(config).run_queue(programs).instructions
        seconds = _time_run(lambda: Machine.from_config(config).run_queue(programs), repeats)
        entries.append(
            {
                "benchmark": "single_run_throughput",
                "model": config.name,
                "workload": "+".join(QUEUE_WORKLOADS),
                "instructions": dispatched,
                "seconds": round(seconds, 6),
                "instrs_per_sec": round(dispatched / seconds, 1),
            }
        )
    return entries


#: Dynamic instructions of the synthetic run used by the stats-finalize microbenchmark.
STATS_FINALIZE_ROWS = 200_000


def measure_stats_finalize(repeats: int) -> list[dict]:
    """Instructions/sec through the finalize-time statistics fold.

    Builds one synthetic 200k-instruction sequence (mixed scalar/vector
    instructions) split into 4 threads × 3 jobs, plus the three unit
    interval buffers, and times what ``SimulationEngine._finalize`` does:
    every job's executed-prefix counters folded into per-thread and per-run
    totals, plus the figure-4 state sweep.  The job sequences are plain
    tuples, not program expansions, so no repeat hits the expansion memo.
    The entry's ``model`` names the fold (``python``), so baselines that
    recorded another reduction are reported as ungated, not compared.
    """
    from repro.core.eventlog import FlatIntervalRecorder, prefix_counts
    from repro.core.statistics import (
        JobRecord,
        SimulationStats,
        ThreadStats,
        fu_state_breakdown,
    )
    from repro.isa.builder import scalar_load, scalar_op, vadd, vload
    from repro.isa.opcodes import Opcode
    from repro.isa.registers import S, V

    recorders = [
        FlatIntervalRecorder("FU2"),
        FlatIntervalRecorder("FU1"),
        FlatIntervalRecorder("LD"),
    ]
    scalar = scalar_op(Opcode.ADD_S, S(0), S(1), S(2))
    load = scalar_load(S(3), address=0x10)
    arithmetic = {vl: vadd(V(2), V(0), V(1), vl=vl) for vl in range(16, 129)}
    memory = {vl: vload(V(0), vl=vl, address=0x100) for vl in range(16, 129)}
    sequence = []
    for index in range(STATS_FINALIZE_ROWS):
        vl = 16 + (index % 113)
        kind = index % 4
        if kind == 0:
            sequence.append(scalar)
        elif kind == 1:
            sequence.append(load)
        elif kind == 2:
            sequence.append(arithmetic[vl])
            recorders[index & 1].pairs.extend((index, index + vl))
        else:
            sequence.append(memory[vl])
            recorders[2].pairs.extend((index, index + vl))
    job_length = -(-STATS_FINALIZE_ROWS // 12)
    jobs = [
        tuple(sequence[start : start + job_length])
        for start in range(0, STATS_FINALIZE_ROWS, job_length)
    ]

    def finalize() -> None:
        stats = SimulationStats()
        for thread_id in range(4):
            thread = ThreadStats(thread_id=thread_id)
            for ordinal in range(3):
                job = jobs[3 * thread_id + ordinal]
                record = JobRecord(
                    program=f"job-{ordinal}", thread_id=thread_id, start_cycle=0
                )
                record.instructions = len(job)
                thread.jobs.append(record)
                vector, elements, vector_arithmetic, transactions = prefix_counts(
                    job, len(job)
                )
                thread.instructions += len(job)
                thread.vector_instructions += vector
                thread.vector_operations += elements
                thread.memory_transactions += transactions
                stats.vector_arithmetic_operations += vector_arithmetic
            thread.scalar_instructions = thread.instructions - thread.vector_instructions
            stats.threads.append(thread)
            stats.instructions += thread.instructions
            stats.vector_instructions += thread.vector_instructions
            stats.vector_operations += thread.vector_operations
            stats.memory_transactions += thread.memory_transactions
        stats.scalar_instructions = stats.instructions - stats.vector_instructions
        stats.decode_busy_cycles = stats.instructions
        for recorder in recorders:
            # every repeat pays the full interval merge, not a cache hit
            recorder.drop_merge_memo()
        fu_state_breakdown(*recorders, STATS_FINALIZE_ROWS * 2)

    seconds = _time_run(finalize, repeats)
    return [
        {
            "benchmark": "stats_finalize",
            "model": "python",
            "workload": f"rows@{STATS_FINALIZE_ROWS}",
            "instructions": STATS_FINALIZE_ROWS,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(STATS_FINALIZE_ROWS / seconds, 1),
        }
    ]


#: Dispatch-equivalents per repeat of the scoreboard-hazard microbenchmark.
SCOREBOARD_HAZARD_DISPATCHES = 40_000


def measure_scoreboard_hazard(repeats: int) -> list[dict]:
    """Dispatches/sec through the scoreboard hazard engine alone.

    Replays a fixed instruction mix (vector arithmetic, loads, stores,
    reductions, scalar ops spread over all four register banks) against one
    scoreboard, performing per dispatched instruction exactly what the
    dispatch layer does: one hazard probe (the run loops call it as
    ``DispatchModel.register_hazard(scoreboard, instruction)``, the
    scoreboard's ``earliest_dispatch``; here it is called with ``now``,
    which equals the bound clamped to ``now``), a ``chain_start``
    for vector consumers, and one ``record_dispatch`` with the read ends,
    write times and chainability of the instruction's ``DispatchModel``
    path (scalar memory, vector arithmetic, vector memory).  A scalar-unit
    op with scalar operands takes the scoreboard's one-call
    ``issue_scalar`` probe and dispatch instead, retried at its bound when
    it blocks, as the run loops do.
    """
    from repro.core.config import LatencyTable
    from repro.core.scoreboard import ColumnarScoreboard
    from repro.isa.builder import (
        scalar_load,
        scalar_op,
        vadd,
        vload,
        vmul,
        vreduce,
        vstore,
    )
    from repro.isa.opcodes import Opcode
    from repro.isa.registers import A, S, V

    mix = []
    for bank in range(4):
        low, high = 2 * bank, 2 * bank + 1
        vl = 16 + 28 * bank
        mix.append(vload(V(low), vl=vl, address=0x1000, stride=1 + bank))
        mix.append(vadd(V(high), V(low), V((low + 2) % 8), vl=vl))
        mix.append(vmul(V((low + 4) % 8), V(high), V(low), vl=vl))
        mix.append(vstore(V(high), A(bank), vl=vl, address=0x2000))
        mix.append(vreduce(S(bank), V(high), vl=vl))
        mix.append(scalar_op(Opcode.ADD_S, S(bank + 4), S(bank), A(bank)))
        mix.append(scalar_load(A(bank + 4), address=0x100 * bank))
    rounds = SCOREBOARD_HAZARD_DISPATCHES // len(mix)
    dispatches = rounds * len(mix)

    latencies = LatencyTable()

    def spin() -> None:
        board = ColumnarScoreboard()
        now = 0
        for _ in range(rounds):
            for instruction in mix:
                if instruction.scalar_unit_only:
                    # one call probes and dispatches; a blocked head issues
                    # at its bound
                    bound = board.issue_scalar(instruction, now, latencies)
                    if bound > now:
                        board.issue_scalar(instruction, bound, latencies)
                        now = bound
                    now += 1
                    continue
                earliest = board.earliest_dispatch(instruction, now)
                if earliest < now:
                    earliest = now
                if instruction.vector_src_keys:
                    board.chain_start(instruction, earliest + 1)
                read_end = earliest + instruction.element_count
                if instruction.is_vector_memory:
                    # loads do not chain; stores have no destination
                    board.record_dispatch(
                        instruction, read_end, earliest + 1, earliest + 5, read_end + 5, False
                    )
                elif instruction.is_vector_arithmetic:
                    # a reduction's scalar result lands once all elements are done
                    first = earliest + 5 if instruction.dest_bank >= 0 else read_end + 5
                    board.record_dispatch(
                        instruction, read_end, earliest + 1, first, read_end + 5, True
                    )
                else:
                    # scalar memory: every read ends next cycle
                    ready = earliest + 5
                    board.record_dispatch(
                        instruction, earliest + 1, earliest + 1, ready, ready, True
                    )
                now = earliest + 1

    seconds = _time_run(spin, repeats)
    return [
        {
            "benchmark": "scoreboard_hazard",
            "model": "columnar",
            "workload": f"mix@{dispatches}",
            "instructions": dispatches,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(dispatches / seconds, 1),
        }
    ]


#: Jobs per repeat of the service round-trip benchmark (distinct latencies).
SERVICE_ROUNDTRIP_JOBS = 6
#: Workload scale of the service round-trip jobs (tiny: the row measures the
#: submit→simulate→store→fetch loop, not the engine).
SERVICE_SCALE = 0.05


def measure_service_roundtrip(repeats: int) -> list[dict]:
    """Jobs/sec through the full HTTP submit→simulate→store→fetch loop.

    Boots one :class:`~repro.service.http.ServiceServer` on an ephemeral port
    with a temporary result store, then measures two rows:

    * ``cold`` — every repeat clears the store first, so all jobs execute on
      the persistent worker pool and are stored before being fetched;
    * ``warm`` — the store is pre-populated, so every job is answered from
      the durable cache (no engine execution).

    ``instrs_per_sec`` records **jobs** per second for these rows.
    """
    import tempfile

    from repro.service import ResultStore, ServiceClient, ServiceServer, SimulationService

    documents = [
        {
            "machine": "reference",
            "workloads": [{"benchmark": "tomcatv", "scale": SERVICE_SCALE}],
            "options": {"memory_latency": latency},
        }
        for latency in range(10, 10 + SERVICE_ROUNDTRIP_JOBS)
    ]
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        service = SimulationService(store=store, workers=2)
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)

            def roundtrip() -> None:
                handles = [
                    client.submit(
                        doc["machine"], doc["workloads"], **doc["options"]
                    )
                    for doc in documents
                ]
                for handle in handles:
                    handle.wait(timeout=120.0)

            roundtrip()  # spawn the worker pool outside the timed region

            def cold() -> None:
                store.clear()
                roundtrip()

            cold_seconds = _time_run(cold, repeats)
            roundtrip()  # re-populate the store for the warm row
            warm_seconds = _time_run(roundtrip, repeats)
        for label, seconds in (("cold", cold_seconds), ("warm", warm_seconds)):
            entries.append(
                {
                    "benchmark": "service_roundtrip",
                    "model": label,
                    "workload": f"jobs@{SERVICE_ROUNDTRIP_JOBS}",
                    "instructions": SERVICE_ROUNDTRIP_JOBS,
                    "seconds": round(seconds, 6),
                    "instrs_per_sec": round(SERVICE_ROUNDTRIP_JOBS / seconds, 1),
                }
            )
    return entries


#: Jobs per repeat of the overload benchmark (distinct latencies, submitted
#: concurrently against a deliberately small admission bound).
SERVICE_OVERLOAD_JOBS = 6
#: Queue-depth bound of the overload benchmark (small enough that the burst
#: is guaranteed to trip admission control and exercise shed → backoff →
#: retry on the client).
SERVICE_OVERLOAD_MAX_PENDING = 2


def measure_service_overload(repeats: int) -> list[dict]:
    """Jobs/sec through an overloaded service: shed, back off, retry, land.

    Boots the HTTP service with a deliberately small ``max_pending`` and
    fires ``SERVICE_OVERLOAD_JOBS`` distinct submissions at it concurrently,
    so part of every burst is answered ``429 + Retry-After`` and must be
    re-submitted by the client's capped-exponential-backoff retry loop.  The
    row therefore tracks the full resilience path — admission control, load
    shedding, client backoff and eventual completion — not just the happy
    path that ``service_roundtrip`` measures.  ``instrs_per_sec`` records
    **jobs** per second.
    """
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import ResultStore, ServiceClient, ServiceServer, SimulationService

    documents = [
        {
            "machine": "reference",
            "workloads": [{"benchmark": "tomcatv", "scale": SERVICE_SCALE}],
            "options": {"memory_latency": latency},
        }
        for latency in range(10, 10 + SERVICE_OVERLOAD_JOBS)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        service = SimulationService(
            store=store, workers=2, max_pending=SERVICE_OVERLOAD_MAX_PENDING
        )
        with ServiceServer(service, port=0) as server:
            # a short retry_interval keeps the backoff sleeps proportionate
            # to these tiny jobs; the retry budget is generous enough that
            # every shed job lands within one repeat
            client = ServiceClient(server.url, retries=8, retry_interval=0.05)
            pool = ThreadPoolExecutor(max_workers=SERVICE_OVERLOAD_JOBS)

            def one_job(doc: dict) -> None:
                handle = client.submit(doc["machine"], doc["workloads"], **doc["options"])
                handle.wait(timeout=120.0)

            def burst() -> None:
                store.clear()
                for future in [pool.submit(one_job, doc) for doc in documents]:
                    future.result(timeout=120.0)

            burst()  # spawn the worker pool outside the timed region
            seconds = _time_run(burst, repeats)
            shed = service.stats()["rejected"]
            pool.shutdown(wait=True)
    return [
        {
            "benchmark": "service_overload",
            "model": "shed_retry",
            "workload": f"jobs@{SERVICE_OVERLOAD_JOBS}",
            "instructions": SERVICE_OVERLOAD_JOBS,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(SERVICE_OVERLOAD_JOBS / seconds, 1),
            "rejected": shed,
        }
    ]


#: Entries a store holds before the store-put row times its puts.
STORE_PUT_ENTRIES = 2_000
#: Payload bytes of each store-put entry (about one service-cold result).
STORE_PUT_PAYLOAD = 14_000
#: Puts per timed repeat of the store-put row.
STORE_PUT_OPS = 200


def measure_store_put(repeats: int) -> list[dict]:
    """Puts/sec into a :class:`~repro.service.ResultStore` that is already full.

    Fills a temporary store with :data:`STORE_PUT_ENTRIES` entries of
    :data:`STORE_PUT_PAYLOAD` bytes (outside the timed region), then times
    :data:`STORE_PUT_OPS` puts of new keys under the default size bound —
    the write a service-cold job makes once its store has grown.
    ``instrs_per_sec`` records **puts** per second.
    """
    import itertools
    import tempfile

    from repro.service import ResultStore

    payload = bytes(STORE_PUT_PAYLOAD)
    keys = (("store-put", "single", (f"w{index}",), None, True) for index in itertools.count())
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        for key in itertools.islice(keys, STORE_PUT_ENTRIES):
            store.put_bytes(key, payload)

        def puts() -> None:
            for key in itertools.islice(keys, STORE_PUT_OPS):
                store.put_bytes(key, payload)

        seconds = _time_run(puts, repeats)
    return [
        {
            "benchmark": "store_put",
            "model": "result_store",
            "workload": f"puts@{STORE_PUT_ENTRIES}x{STORE_PUT_PAYLOAD // 1000}KB",
            "instructions": STORE_PUT_OPS,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(STORE_PUT_OPS / seconds, 1),
        }
    ]


#: The 3-program group keyed by the request-keying rows (service job scale).
REQUEST_KEY_GROUP = ("swm256", "tomcatv", "hydro2d")


def measure_request_key(repeats: int) -> list[dict]:
    """Keys/sec of ``SimulationRequest.cache_key`` for a fresh 3-program group.

    Every repeat builds the programs anew (outside the timed region), the way
    the service materializes each POSTed job document, then times keying:

    * ``cold`` — the expansion intern table is cleared first, so every
      program is expanded and its content digest computed;
    * ``repeat`` — the table is warm, so the expansions and their memoized
      fingerprints are reused.

    ``instrs_per_sec`` records **keys** per second for these rows.
    """
    from repro.workloads.program import clear_expansion_intern

    def time_keying(cold: bool) -> float:
        samples = []
        for _ in range(repeats):
            if cold:
                clear_expansion_intern()
            request = SimulationRequest.group(
                "multithreaded-3",
                [build_benchmark(name, scale=SINGLE_RUN_SCALE) for name in REQUEST_KEY_GROUP],
                memory_latency=50,
            )
            start = time.perf_counter()
            request.cache_key()
            samples.append(time.perf_counter() - start)
        return min(samples)

    cold_seconds = time_keying(cold=True)
    repeat_seconds = time_keying(cold=False)
    clear_expansion_intern()
    return [
        {
            "benchmark": "request_key",
            "model": label,
            "workload": "+".join(REQUEST_KEY_GROUP),
            "instructions": 1,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(1 / seconds, 1),
        }
        for label, seconds in (("cold", cold_seconds), ("repeat", repeat_seconds))
    ]


#: Telemetry transactions per repeat of the obs-overhead microbenchmark.
OBS_OVERHEAD_OPS = 50_000
#: Workload scale of the profiled-run overhead row.
OBS_PROFILE_SCALE = 0.3


def measure_obs_overhead(repeats: int) -> list[dict]:
    """Throughput of the telemetry layer itself, in two rows.

    * ``hot_path`` — ops/sec of one *telemetry transaction*: an unlabelled
      counter increment, a labelled counter increment, a histogram
      observation and a span append.  This is the per-job bookkeeping the
      service pays on every submission, so a slowdown here taxes every row
      of ``service_roundtrip``;
    * ``profiled_run`` — instrs/sec of a reference simulation with engine
      phase profiling forced on.  Profiling is opt-in and its off-path is
      byte-identical, but the *on*-path must stay usable — this row keeps
      the wrapper overhead bounded.
    """
    from repro.obs import MetricsRegistry, TraceLog
    from repro.obs.profiling import force_profiling

    registry = MetricsRegistry()
    plain = registry.counter("repro_bench_total", "bench")
    labelled = registry.counter(
        "repro_bench_kind_total", "bench", labelnames=("kind",)
    )
    histogram = registry.histogram("repro_bench_seconds", "bench")
    trace = TraceLog(max_jobs=64)
    labels = ({"kind": "a"}, {"kind": "b"})

    def spin() -> None:
        for index in range(OBS_OVERHEAD_OPS):
            plain.inc()
            labelled.inc(labels=labels[index & 1])
            histogram.observe(0.0001 * (1 + (index & 63)))
            trace.add_span(
                f"job{index & 31}", "execute", trace_id="bench",
                start=float(index), duration=0.001,
            )

    seconds = _time_run(spin, repeats)
    entries = [
        {
            "benchmark": "obs_overhead",
            "model": "hot_path",
            "workload": f"ops@{OBS_OVERHEAD_OPS}",
            "instructions": OBS_OVERHEAD_OPS,
            "seconds": round(seconds, 6),
            "instrs_per_sec": round(OBS_OVERHEAD_OPS / seconds, 1),
        }
    ]

    program = build_benchmark("tomcatv", scale=OBS_PROFILE_SCALE)
    instructions = program.dynamic_instruction_count

    def run_profiled() -> None:
        with force_profiling(True):
            Machine.from_config(MachineConfig.reference(50)).run(program)

    profiled_seconds = _time_run(run_profiled, repeats)
    entries.append(
        {
            "benchmark": "obs_overhead",
            "model": "profiled_run",
            "workload": "tomcatv",
            "instructions": instructions,
            "seconds": round(profiled_seconds, 6),
            "instrs_per_sec": round(instructions / profiled_seconds, 1),
        }
    )
    return entries


def batch_scaling_requests() -> list[SimulationRequest]:
    """The fixed request list the batch-scaling rows execute."""
    suite = build_suite(scale=BATCH_SCALE)
    return [
        SimulationRequest.single(
            "reference", program, memory_latency=latency, tag=f"{name}@{latency}"
        )
        for latency in BATCH_LATENCIES
        for name, program in suite.items()
    ]


def time_batch_levels(
    requests: list[SimulationRequest], repeats: int
) -> dict[int, float]:
    """Best-of-``repeats`` batch wall time per jobs level, rounds interleaved.

    Timing each level's repeats back to back confuses host drift with
    scaling: on a noisy shared host, a slowdown arriving after the ``jobs=1``
    block finishes makes every parallel row look worse than it is (and vice
    versa).  Interleaving round-robin spreads the drift over all levels, so
    the best-of ratios the gate compares are taken from comparable windows.
    """
    best = {jobs: float("inf") for jobs in BATCH_JOBS}
    for _ in range(max(1, repeats)):
        for jobs in BATCH_JOBS:
            start = time.perf_counter()
            run_batch(requests, jobs=jobs)
            best[jobs] = min(best[jobs], time.perf_counter() - start)
    return best


def measure_batch_scaling(repeats: int) -> list[dict]:
    """Wall time of the fixed request list under 1, 2 and 4 worker processes.

    ``run_batch`` caps its effective worker count at the host's usable CPUs
    (over-subscription degrades to the serial path, not to a slowdown), so
    each row also records how many CPUs the measuring host granted — that is
    what :func:`check_batch_scaling` needs to know which monotonicity bound
    applies.  A warm-up parallel batch runs outside the timed region so the
    rows measure steady-state batches over the persistent pool, not the
    once-per-process worker spawn.
    """
    requests = batch_scaling_requests()
    total_instructions = sum(
        result.instructions for result in run_batch(requests, jobs=1)
    )
    cpus = usable_cpus()
    run_batch(requests, jobs=max(BATCH_JOBS))  # spawn the shared pool once
    timings = time_batch_levels(requests, repeats)
    entries = []
    for jobs in BATCH_JOBS:
        seconds = timings[jobs]
        entries.append(
            {
                "benchmark": "batch_scaling",
                "model": "reference",
                "workload": f"suite@{BATCH_SCALE}x{len(requests)}",
                "jobs": jobs,
                "cpus": cpus,
                "instructions": total_instructions,
                "seconds": round(seconds, 6),
                "instrs_per_sec": round(total_instructions / seconds, 1),
            }
        )
    return entries


#: Parallel rows may not fall below this fraction of the jobs=1 row, even on
#: hosts with too few CPUs to speed up (there they run the same serial path,
#: so anything below this bound is real dispatch overhead, not noise).
BATCH_OVERHEAD_FLOOR = 0.9


def check_batch_scaling(entries: list[dict]) -> list[str]:
    """Hard monotonicity gate on the ``batch_scaling`` rows of one document.

    Within one document every row ran on the same host, so instrs/sec compare
    directly (host-normalized by construction).  On a host with 4+ usable
    CPUs, ``jobs=4`` must be at least as fast as ``jobs=1`` and ``jobs=2`` at
    least ``BATCH_OVERHEAD_FLOOR`` of it; hosts with fewer CPUs cap the pool,
    so the corresponding rows degrade to the serial path and are only held to
    the overhead floor.  Returns failure messages (empty = pass).
    """
    rows = {
        entry["jobs"]: entry
        for entry in entries
        if entry.get("benchmark") == "batch_scaling"
    }
    if 1 not in rows:
        return []
    base = rows[1]["instrs_per_sec"]
    if base <= 0:
        return []
    failures = []
    for jobs, entry in sorted(rows.items()):
        if jobs == 1:
            continue
        cpus = entry.get("cpus") or 1
        # full monotone speedup is only demanded of rows the host could
        # actually parallelize; capped rows must still not regress
        floor = 1.0 if (jobs == 4 and cpus >= 4) else BATCH_OVERHEAD_FLOOR
        ratio = entry["instrs_per_sec"] / base
        if ratio < floor:
            failures.append(
                f"batch_scaling jobs={jobs}: {entry['instrs_per_sec']:,.0f} "
                f"instrs/s is {ratio:.2f}x the jobs=1 row "
                f"({base:,.0f}); required >= {floor:.2f}x on a "
                f"{cpus}-CPU host"
            )
    return failures


def collect(repeats: int, *, dirty: bool = False) -> dict:
    """Run the full throughput suite and assemble the export document."""
    entries = (
        measure_single_runs(repeats)
        + measure_stats_finalize(repeats)
        + measure_scoreboard_hazard(repeats)
        + measure_service_roundtrip(repeats)
        + measure_service_overload(repeats)
        + measure_store_put(repeats)
        + measure_request_key(repeats)
        + measure_obs_overhead(repeats)
        + measure_batch_scaling(repeats)
    )
    return {
        "schema_version": 1,
        "git_rev": _git_rev() + ("-dirty" if dirty else ""),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": usable_cpus(),
        "measured_at_unix": int(time.time()),
        "calibration_ops_per_sec": _calibration_score(),
        "entries": entries,
    }


# --------------------------------------------------------------------------- #
# regression gate
# --------------------------------------------------------------------------- #
#: Benchmarks compared against the committed baseline by the regression gate.
#: The batch-scaling rows are dominated by the measuring host's core count, so
#: they are NOT compared across baselines — instead ``check_batch_scaling``
#: gates them *within* the fresh document, where every row shares one host.
GATED_BENCHMARKS = (
    "single_run_throughput",
    "stats_finalize",
    "scoreboard_hazard",
    "service_roundtrip",
    "service_overload",
    "store_put",
    "request_key",
    "obs_overhead",
)


def _entry_key(entry: dict) -> tuple:
    return (entry["benchmark"], entry["model"], entry["workload"], entry.get("jobs"))


def check_regression(current: dict, baseline: dict, max_regression: float) -> list[str]:
    """Return a list of failure messages for entries slower than allowed.

    When both documents carry a calibration score, throughput is normalized
    by it before comparing, which makes the gate robust to the absolute speed
    of the host (CI runner vs. the machine the baseline was committed from).
    """
    current_cal = current.get("calibration_ops_per_sec") or 0.0
    baseline_cal = baseline.get("calibration_ops_per_sec") or 0.0
    normalized = current_cal > 0.0 and baseline_cal > 0.0
    baseline_by_key = {_entry_key(entry): entry for entry in baseline["entries"]}
    failures = []
    for entry in current["entries"]:
        if entry["benchmark"] not in GATED_BENCHMARKS:
            continue
        reference = baseline_by_key.get(_entry_key(entry))
        if reference is None:
            # a gated entry with no baseline counterpart must be loud, not a
            # silent pass — otherwise key drift turns the gate into a no-op
            print(
                f"warning: no baseline entry for {_entry_key(entry)}; not gated",
                file=sys.stderr,
            )
            continue
        old = reference["instrs_per_sec"]
        new = entry["instrs_per_sec"]
        if normalized:
            old = old / baseline_cal
            new = new / current_cal
        if old > 0 and new < old * (1.0 - max_regression):
            failures.append(
                f"{entry['model']}/{entry['workload']}: "
                f"{entry['instrs_per_sec']:,.0f} instrs/s "
                f"({'host-normalized ' if normalized else ''}"
                f"{100 * (1 - new / old):.1f}% below the baseline "
                f"{reference['instrs_per_sec']:,.0f} "
                f"from rev {baseline.get('git_rev', '?')})"
            )
    return failures


def render_table(document: dict) -> str:
    """Human-readable summary of the measured entries."""
    lines = [
        f"throughput @ {document['git_rev']} (python {document['python']})",
        f"{'benchmark':<22} {'model':<16} {'workload':<22} {'jobs':>4} {'instrs/s':>12}",
    ]
    for entry in document["entries"]:
        lines.append(
            f"{entry['benchmark']:<22} {entry['model']:<16} {entry['workload']:<22} "
            f"{str(entry.get('jobs', '-')):>4} {entry['instrs_per_sec']:>12,.0f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_throughput.json",
        help="where to write the JSON export (default: repo-root BENCH_throughput.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per entry (best-of-N)"
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        help="baseline JSON to compare against; exit 1 on excessive regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum tolerated single-run throughput drop (fraction, default 0.30)",
    )
    parser.add_argument(
        "--allow-dirty",
        action="store_true",
        help=(
            "write a baseline even when the git working tree is dirty; the "
            "recorded revision is suffixed with '-dirty'"
        ),
    )
    args = parser.parse_args(argv)

    dirty = _git_tree_dirty(ignore=args.output.resolve())
    if dirty and not args.allow_dirty:
        print(
            "error: refusing to write a throughput baseline from a dirty "
            "working tree — the recorded git_rev would not describe the "
            "measured code. Commit (or stash) first, or pass --allow-dirty "
            "to record the revision with a '-dirty' suffix.",
            file=sys.stderr,
        )
        return 2

    document = collect(args.repeats, dirty=dirty)
    print(render_table(document))

    # within-document hard gate: adding workers must never make the batch
    # suite slower (this is what keeps the negative-scaling regression out)
    failures: list[str] = check_batch_scaling(document["entries"])
    if args.check_against is not None:
        if not args.check_against.exists():
            # An explicitly requested gate with no baseline must not pass
            # silently — that would turn the CI check into a green no-op.
            print(
                f"error: baseline {args.check_against} does not exist; "
                "regenerate and commit it (or drop --check-against)",
                file=sys.stderr,
            )
            return 2
        baseline = json.loads(args.check_against.read_text())
        failures += check_regression(document, baseline, args.max_regression)

    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    if failures:
        print("\nthroughput regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
