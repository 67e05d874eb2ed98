"""Host context and host-speed normalization.

``parallel_capacity`` is a plain CPU burn: the same fixed pure-Python loop
runs in one process, then in two processes released together.  It is the
two-process throughput over the one-process throughput, so 2.0 means two
real cores and about 1.0 means the host gives two processes one core's worth
of time, whatever ``nproc`` says.

:class:`SpeedMonitor` deals with a shared host whose CPU speed drifts by
tens of percent over seconds (other tenants, frequency changes).  A side
process per CPU times a short burn loop against its own CPU time every
:data:`SAMPLE_PERIOD` seconds.  A measured interval is then scaled by the
host speed seen during it, relative to :data:`REFERENCE_OPS_PER_S`: the
result is host seconds on a host that runs the loop at the reference
speed.  CPU time, unlike wall time, does not grow when the sampler waits
for a busy CPU, so a loaded host reads as slow only when it really is.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

BURN_OPS = 2_000_000
SAMPLE_OPS = 20_000
SAMPLE_PERIOD = 0.1
#: Seconds added on both sides of an interval when averaging its speed.
SPEED_WINDOW = 0.5
#: Calibration loop speed that normalized times are expressed at.
REFERENCE_OPS_PER_S = 15_000_000.0


def burn(ops: int = BURN_OPS) -> float:
    """Seconds one process takes for ``ops`` iterations of a fixed loop."""
    started = time.perf_counter()
    total = 0
    for value in range(ops):
        total += value * value
    return time.perf_counter() - started


def _side_processes(argvs: list[list[str]]) -> list[subprocess.Popen]:
    """Start one ``host.py`` side process per argument list.

    Each prints ``ready`` once it is set up; this returns after all have.
    They are plain child processes (no ``multiprocessing``, so no resource
    tracker outlives the benchmark), stopped by :func:`_stop`.
    """
    processes: list[subprocess.Popen] = []
    try:
        for argv in argvs:
            processes.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), *argv],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        for process in processes:
            if process.stdout.readline().strip() != "ready":
                raise RuntimeError("a host side process did not start")
    except BaseException:
        _stop(processes)
        raise
    return processes


def _stop(processes: list[subprocess.Popen], go: bool = False) -> list:
    """Release (``go``) or stop the side processes; returns what each printed.

    Every process has ended when this returns, on every path.
    """
    outputs = []
    try:
        for process in processes:
            if go:
                process.stdin.write("go\n")
                process.stdin.flush()
            process.stdin.close()
        for process in processes:
            outputs.append(json.loads(process.stdout.read()))
            if process.wait(timeout=60) != 0:
                raise RuntimeError("a host side process failed")
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()
    return outputs


def _burn_together(processes: int) -> list[float]:
    return _stop(_side_processes([["burn"]] * processes), go=True)


def host_context() -> dict:
    """Measured host facts recorded beside every result."""
    single = min(_burn_together(1)[0] for _ in range(2))
    pair = max(_burn_together(2))
    return {
        "host.nproc": os.cpu_count() or 1,
        "host.parallel_capacity": round(2.0 * single / pair, 4),
        "host.calibration_ops_per_s": round(BURN_OPS / single, 1),
    }


def _sample_speed(cpu: int) -> list:
    """Sample this CPU's speed until standard input closes."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    print("ready", flush=True)
    while True:
        started, cpu_time = time.monotonic(), time.thread_time()
        total = 0
        for value in range(SAMPLE_OPS):
            total += value * value
        spent = time.thread_time() - cpu_time
        samples.append(((started + time.monotonic()) / 2.0, SAMPLE_OPS / spent))
        if select.select([sys.stdin], [], [], SAMPLE_PERIOD)[0]:
            return samples


def _burn_on_go() -> float:
    print("ready", flush=True)
    sys.stdin.readline()
    return burn()


class SpeedMonitor:
    """Samples host speed on each of ``cpus`` while the benchmark measures.

    One side process is pinned to each CPU: a vCPU's speed is its own (a
    sampler on the other vCPU of a 2-vCPU host tracks a pinned serial pass
    worse than no scaling at all), so a serial workload is pinned to one
    CPU and sampled there, and a multi-process one is sampled on all.
    Times passed to :meth:`scale` are ``time.monotonic()`` readings.
    """

    def __init__(self, cpus: list[int]) -> None:
        self._cpus = cpus
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "SpeedMonitor":
        self._processes = _side_processes([["sample", str(cpu)] for cpu in self._cpus])
        return self

    def __exit__(self, *exc_info) -> None:
        for samples in _stop(self._processes):
            self.samples.extend(tuple(sample) for sample in samples)
        self.samples.sort()

    def speed(self, start: float, end: float) -> float:
        """Mean sampled speed over ``[start, end]`` widened by :data:`SPEED_WINDOW`.

        The widening gives a short interval several samples, not one noisy
        one; falls back to the nearest sample when none is that close.
        """
        inside = [
            speed for at, speed in self.samples
            if start - SPEED_WINDOW <= at <= end + SPEED_WINDOW
        ]
        if inside:
            return statistics.mean(inside)
        middle = (start + end) / 2.0
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at the reference speed."""
        return seconds * self.speed(start, end) / REFERENCE_OPS_PER_S


if __name__ == "__main__":
    # a side process: ``host.py burn`` or ``host.py sample CPU``
    result = _burn_on_go() if sys.argv[1] == "burn" else _sample_speed(int(sys.argv[2]))
    print(json.dumps(result))
