"""One-call orchestration: spec in, outcomes + statistics + manifest out.

:func:`run_sweep` is what the CLI (``repro-mtv sweep``) and the smoke
harness drive; library users compose the pieces directly when they need
custom execution or aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.sweep.aggregate import AggregateRow, aggregate_run
from repro.sweep.compile import CompiledSweep, compile_sweep
from repro.sweep.executor import ProgressCallback, SweepRun, execute_sweep
from repro.sweep.manifest import write_manifest
from repro.sweep.spec import SweepSpec, load_sweep_spec

__all__ = ["SweepOutput", "run_sweep"]


@dataclass
class SweepOutput:
    """Everything one sweep run produced."""

    run: SweepRun
    rows: list[AggregateRow]
    artifacts: dict[str, str]

    @property
    def compiled(self) -> CompiledSweep:
        return self.run.compiled

    @property
    def failed(self) -> int:
        return self.run.counts()["failed"]


def run_sweep(
    spec: SweepSpec | str | Path,
    *,
    jobs: int = 1,
    cache=None,
    client=None,
    priority: int = 0,
    timeout: float | None = 300.0,
    service_retries: int = 1,
    out_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> SweepOutput:
    """Compile, execute, aggregate and (optionally) write one sweep.

    ``spec`` is a :class:`~repro.sweep.spec.SweepSpec` or a path to a
    TOML/JSON spec file.  Pass ``client`` (a
    :class:`~repro.service.client.ServiceClient`) to fan points out through
    a running service; otherwise execution is local over ``jobs`` worker
    processes with an optional ``cache``/store.  With ``out_dir``, the
    manifest artifacts (``sweep.json``, ``ledger.sha256``, ``SUMMARY.md``)
    are written there.  ``service_retries`` grants failed service-path
    points extra submission rounds before they count as failures.
    """
    if not isinstance(spec, SweepSpec):
        spec = load_sweep_spec(spec)
    compiled = compile_sweep(spec)
    run = execute_sweep(
        compiled,
        jobs=jobs,
        cache=cache,
        client=client,
        priority=priority,
        timeout=timeout,
        service_retries=service_retries,
        progress=progress,
    )
    rows = aggregate_run(run)
    artifacts: dict[str, str] = {}
    if out_dir is not None:
        artifacts = write_manifest(run, rows, out_dir)
    return SweepOutput(run=run, rows=rows, artifacts=artifacts)
