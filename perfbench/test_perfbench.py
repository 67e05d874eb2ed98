"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import paper  # noqa: E402
import service  # noqa: E402
from repro.api.batch import run_batch  # noqa: E402
from repro.experiments.figures import ALL_EXPERIMENTS  # noqa: E402
from repro.workloads.profiles import BENCHMARK_ORDER  # noqa: E402
from spans import Tracer  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# -- output checks ------------------------------------------------------------ #
def test_corrupted_artifact_digest_is_caught():
    texts = {name: f"rendered {name}\n\n" for name in ALL_EXPERIMENTS}
    expected = {"artifacts": paper.artifact_digests(texts)}
    assert paper.mismatches(texts, expected) == []
    expected["artifacts"]["figure6"] = "0" * 64
    assert paper.mismatches(texts, expected) == ["figure6"]


def test_committed_digests_cover_every_artifact():
    with open(os.path.join(HERE, "expected_paper_default.json")) as handle:
        expected = json.load(handle)
    assert list(expected["artifacts"]) == list(ALL_EXPERIMENTS)


def _bare_checkout(path) -> None:
    """The files a checkout of the repository holds that the benchmark needs."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    shutil.copytree(HERE, path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_command_reports_mismatch_against_corrupted_expected_digest(tmp_path):
    _bare_checkout(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    expected_path = tmp_path / "perfbench" / "expected_paper_default.json"
    expected = json.loads(expected_path.read_text())
    expected["artifacts"]["table1"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    done = _run("--workload", "paper-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(ALL_EXPERIMENTS)


def _outcome(spec, digest):
    return service.Outcome(spec, digest=digest)


def test_service_check_counts_digest_mismatches_and_errors(tmp_path):
    workload = service.ServiceWorkload("service-warm", 1, ROOT, str(tmp_path))
    first, second = workload.keys[:2]
    assert workload.check([_outcome(first, "a"), _outcome(second, "b")]) == 0
    assert workload.check([_outcome(first, "a"), _outcome(first, "x")]) == 1
    assert workload.check([_outcome(second, None)]) == 1


def test_in_process_verification_catches_a_corrupted_expected_digest(tmp_path):
    workload = service.ServiceWorkload("service-cold", 1, ROOT, str(tmp_path))
    specs = workload.next_pass()[:3]
    true = {spec: jobs.stats_digest(run_batch([spec.request()])[0]) for spec in specs}
    outcomes = [_outcome(spec, true[spec]) for spec in specs]
    workload.expected = dict(true)
    assert workload.verify_in_process(outcomes) == 0
    workload.expected[specs[1]] = "0" * 64
    assert workload.verify_in_process(outcomes) == 1


# -- seeded generator --------------------------------------------------------- #
def _take(stream, count):
    return [next(stream) for _ in range(count)]


def test_cold_jobs_are_seeded_distinct_and_stratified():
    first = _take(jobs.cold_jobs(5), 3 * jobs.ROUND)
    assert first == _take(jobs.cold_jobs(5), 3 * jobs.ROUND)
    assert first != _take(jobs.cold_jobs(6), 3 * jobs.ROUND)
    assert len(set(first)) == len(first)
    for start in range(0, len(first), jobs.ROUND):
        pairs = {(spec.machine, len(spec.benchmarks), spec.benchmarks[0])
                 for spec in first[start:start + jobs.ROUND]}
        assert len(pairs) == jobs.ROUND
    assert all(1 <= spec.latency <= 100 for spec in first)


def test_every_cold_pass_runs_the_same_mix():
    stream = jobs.cold_jobs(3)
    mixes = [
        sorted((spec.machine, spec.benchmarks) for spec in _take(stream, jobs.PASS_JOBS))
        for _ in range(3)
    ]
    assert mixes[0] == mixes[1] == mixes[2]


def test_warm_key_ranks_keep_their_machine_and_benchmark():
    one, two = jobs.warm_keys(1, 60), jobs.warm_keys(2, 60)
    assert len(set(one)) == 60
    assert [(k.machine, k.benchmarks[0]) for k in one] == [(k.machine, k.benchmarks[0]) for k in two]
    assert one != two


def test_generator_uses_the_suite_benchmarks():
    assert jobs.BENCHMARKS == tuple(BENCHMARK_ORDER)


def test_stats_digest_tracks_simulated_statistics():
    spec = _take(jobs.cold_jobs(1), 1)[0]
    result = run_batch([spec.request()])[0]
    assert jobs.stats_digest(result) == jobs.stats_digest(run_batch([spec.request()])[0])
    other = jobs.JobSpec(spec.machine, spec.mode, spec.benchmarks, spec.latency % 100 + 1)
    assert jobs.stats_digest(result) != jobs.stats_digest(run_batch([other.request()])[0])


# -- spans -------------------------------------------------------------------- #
def test_self_times_subtract_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            pass
    assert tracer.self_times() == {"a": 8.0, "b": 2.0}


def test_wrap_restores_the_original():
    class Owner:
        def call(self, value):
            return value + 1

    tracer = Tracer()
    original = Owner.call
    tracer.wrap(Owner, "call", "layer")
    assert Owner().call(1) == 2
    tracer.unwrap_all()
    assert Owner.call is original
    assert [span["name"] for span in tracer.spans] == ["Owner.call"]


# -- contract ----------------------------------------------------------------- #
def test_fails_without_the_program_sources(tmp_path):
    _bare_checkout(tmp_path)
    done = _run("--workload", "paper-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
