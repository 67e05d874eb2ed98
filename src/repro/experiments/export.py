"""Export of experiment reports to CSV and JSON.

The ASCII renderer (:mod:`repro.experiments.report`) is what the CLI and the
benchmark harness print; this module writes the same rows to machine-readable
files so the regenerated tables and figure series can be plotted or diffed
with external tools.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from repro.experiments.figures import ExperimentReport

__all__ = [
    "report_to_csv",
    "report_to_json",
    "write_report",
    "write_reports",
]


def report_to_csv(report: ExperimentReport) -> str:
    """Render a report's rows as CSV text (header row included)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=report.columns, extrasaction="ignore")
    writer.writeheader()
    for row in report.rows:
        writer.writerow({column: row.get(column, "") for column in report.columns})
    return buffer.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    """Render a report (title, notes, columns and rows) as a JSON document."""
    document = {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "notes": report.notes,
        "columns": report.columns,
        "rows": report.rows,
    }
    return json.dumps(document, indent=2, default=str)


def write_report(report: ExperimentReport, directory: str | Path, *, fmt: str = "csv") -> Path:
    """Write one report into ``directory`` as ``<experiment_id>.<fmt>``.

    ``fmt`` is ``"csv"`` or ``"json"``.  The directory is created if needed
    and the written path is returned.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported export format {fmt!r}; use 'csv' or 'json'")
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"{report.experiment_id}.{fmt}"
    content = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    path.write_text(content, encoding="utf-8")
    return path


def write_reports(
    reports: list[ExperimentReport], directory: str | Path, *, fmt: str = "csv"
) -> list[Path]:
    """Write several reports into ``directory``; returns the written paths."""
    return [write_report(report, directory, fmt=fmt) for report in reports]
