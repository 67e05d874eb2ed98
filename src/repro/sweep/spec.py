"""Declarative scenario-sweep specifications.

A *sweep spec* describes a region of the simulator's design space — machine
model × scheduler × memory latency × workload mix × thread count × anything a
registered machine factory accepts — plus how to sample it:

* **axes** — named parameter grids; the compiler takes their Cartesian
  product.  A scalar axis value is a constant shared by every point.
* **zip groups** — several parameters that advance *together* (one point per
  row, not a cross product), for coupled parameters like
  ``(machine, num_contexts)``.
* **perturbations** — ``adapt``-style challenges of a tuned configuration:
  each rule re-emits every base point with one parameter shifted by ±delta
  (or replaced by explicit values), labelled via the ``perturb`` parameter.
* **repetitions** — ``test.sh``-style statistics: every point is repeated
  ``count`` times with a deterministically derived per-repetition ``seed``
  parameter; the aggregator reduces repetition groups into distributions.
* **derived parameters** — expressions evaluated over each point's
  parameters (including ``rep``/``seed``), for values that follow from the
  axes instead of being swept themselves.

Specs are plain data: build them in Python, or load them from TOML/JSON with
:func:`load_sweep_spec`.  The TOML form mirrors the dataclasses::

    [sweep]
    name = "fig10-threads"
    description = "total execution time vs memory latency"

    [request]
    mode = "queue"
    scale = 0.3
    workloads = ["flo52", "swm256", "su2cor"]

    [axes]
    machine = ["multithreaded-2", "multithreaded-3"]
    memory_latency = [1, 50, 100]

    [metrics]
    select = ["cycles", "vopc"]
    percentiles = [50, 90]

See :mod:`repro.sweep.compile` for how a spec expands into deterministic,
deduplicated :class:`~repro.api.batch.SimulationRequest` points.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SweepError

__all__ = [
    "DerivedParam",
    "MetricsSpec",
    "PerturbationRule",
    "Repetitions",
    "RequestTemplate",
    "SweepAxis",
    "SweepSpec",
    "ZipGroup",
    "load_sweep_spec",
    "parse_sweep_spec",
    "parse_toml",
]

#: Point parameters with reserved meaning: consumed by the request builder
#: (or stamped by the compiler) instead of becoming machine options.
RESERVED_PARAMS = frozenset(
    {
        "machine",
        "mode",
        "workload",
        "workloads",
        "scale",
        "instruction_limit",
        "restart_companions",
        "tag",
        "rep",
        "seed",
        "perturb",
    }
)

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_scalar(value, where: str):
    if not isinstance(value, _SCALAR_TYPES):
        raise SweepError(
            f"{where} must be a scalar (string/number/bool), got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class SweepAxis:
    """One named parameter grid (Cartesian-product dimension)."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("axis names must be non-empty")
        if not self.values:
            raise SweepError(f"axis {self.name!r} has no values; every axis needs at least one")
        for value in self.values:
            _check_scalar(value, f"axis {self.name!r} value")


@dataclass(frozen=True)
class ZipGroup:
    """Parameters that advance together: one point per row of the group."""

    names: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise SweepError("a zip group needs at least one parameter name")
        if not self.rows:
            raise SweepError(
                f"zip group {list(self.names)} has no rows; every group needs at least one"
            )
        for row in self.rows:
            if len(row) != len(self.names):
                raise SweepError(
                    f"zip group {list(self.names)} row {row!r} has {len(row)} values, "
                    f"expected {len(self.names)}"
                )
            for value in row:
                _check_scalar(value, f"zip group {list(self.names)} value")


@dataclass(frozen=True)
class DerivedParam:
    """A parameter computed from the others via a restricted expression.

    The expression sees every point parameter by name plus a handful of safe
    helpers (``min``/``max``/``abs``/``round``/``int``/``float``/``len``).
    """

    name: str
    expression: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("derived parameter names must be non-empty")
        if not isinstance(self.expression, str) or not self.expression.strip():
            raise SweepError(f"derived parameter {self.name!r} needs a non-empty expression")


@dataclass(frozen=True)
class Repetitions:
    """Repeat every point ``count`` times with derived ``seed`` parameters."""

    count: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SweepError(f"repetitions count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class PerturbationRule:
    """Re-emit each base point with ``key`` shifted by each delta (or set to
    each explicit value) — the ``adapt.sh`` pattern of challenging a tuned
    configuration with perturbed parameters."""

    key: str
    deltas: tuple = ()
    values: tuple = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise SweepError("perturbation rules need a parameter key")
        if bool(self.deltas) == bool(self.values):
            raise SweepError(
                f"perturbation rule on {self.key!r} needs exactly one of 'deltas' or 'values'"
            )
        for delta in self.deltas:
            if not isinstance(delta, (int, float)) or isinstance(delta, bool):
                raise SweepError(
                    f"perturbation deltas for {self.key!r} must be numbers, got {delta!r}"
                )
        for value in self.values:
            _check_scalar(value, f"perturbation value for {self.key!r}")


@dataclass(frozen=True)
class RequestTemplate:
    """Spec-level request defaults, overridable per point by parameters.

    ``workloads`` entries are benchmark names, JSON workload specs (the forms
    of :func:`repro.service.specs.workload_from_spec`), or templates with
    ``{param}`` placeholders substituted per point.  ``scale`` (when set) is
    applied to every benchmark entry that does not carry its own.
    """

    machine: str | None = None
    mode: str = "single"
    workloads: tuple = ()
    scale: float | None = None
    instruction_limit: int | None = None
    restart_companions: bool = True
    exclude_options: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("single", "group", "queue"):
            raise SweepError(
                f"unknown request mode {self.mode!r}; expected single/group/queue"
            )
        if self.scale is not None and self.scale <= 0:
            raise SweepError(f"workload scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class MetricsSpec:
    """Which metrics the aggregator reduces, and to which percentiles."""

    select: tuple[str, ...] = ("cycles", "instructions")
    percentiles: tuple[float, ...] = (50.0, 90.0)

    def __post_init__(self) -> None:
        if not self.select:
            raise SweepError("metrics.select needs at least one metric name")
        for quantile in self.percentiles:
            if not 0 <= quantile <= 100:
                raise SweepError(f"percentiles must be within [0, 100], got {quantile}")


@dataclass(frozen=True)
class SweepSpec:
    """A complete declarative scenario sweep."""

    name: str
    description: str = ""
    request: RequestTemplate = field(default_factory=RequestTemplate)
    axes: tuple[SweepAxis, ...] = ()
    zips: tuple[ZipGroup, ...] = ()
    derived: tuple[DerivedParam, ...] = ()
    repetitions: Repetitions = field(default_factory=Repetitions)
    perturbations: tuple[PerturbationRule, ...] = ()
    metrics: MetricsSpec = field(default_factory=MetricsSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("sweep specs need a non-empty name")
        seen: set[str] = set()
        for axis in self.axes:
            if axis.name in seen:
                raise SweepError(f"parameter {axis.name!r} is declared more than once")
            seen.add(axis.name)
        for group in self.zips:
            for name in group.names:
                if name in seen:
                    raise SweepError(f"parameter {name!r} is declared more than once")
                seen.add(name)
        for param in self.derived:
            if param.name in seen:
                raise SweepError(f"parameter {param.name!r} is declared more than once")
            seen.add(param.name)


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #
def _as_tuple(value) -> tuple:
    """A list-ish spec field as a tuple; scalars become one-element tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _parse_table(document: dict, key: str) -> dict:
    table = document.get(key, {})
    if not isinstance(table, dict):
        raise SweepError(f"[{key}] must be a table/object, got {type(table).__name__}")
    return table


def parse_sweep_spec(document: dict, *, default_name: str = "sweep") -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed TOML/JSON document."""
    if not isinstance(document, dict):
        raise SweepError(f"a sweep document must be a table/object, got {type(document).__name__}")
    known = {"sweep", "request", "axes", "zip", "derived", "repetitions", "perturb", "metrics"}
    unknown = set(document) - known
    if unknown:
        raise SweepError(f"unknown sweep section(s): {sorted(unknown)}")

    header = _parse_table(document, "sweep")
    request_table = dict(_parse_table(document, "request"))
    unknown = set(request_table) - {
        "machine", "mode", "workloads", "scale", "instruction_limit",
        "restart_companions", "exclude_options",
    }
    if unknown:
        raise SweepError(f"unknown [request] field(s): {sorted(unknown)}")
    if "workloads" in request_table:
        request_table["workloads"] = _as_tuple(request_table["workloads"])
    if "exclude_options" in request_table:
        request_table["exclude_options"] = tuple(request_table["exclude_options"])
    request = RequestTemplate(**request_table)

    axes = tuple(
        SweepAxis(name=name, values=_as_tuple(values))
        for name, values in _parse_table(document, "axes").items()
    )

    zips = []
    for group in _as_tuple(document.get("zip", ())):
        if not isinstance(group, dict) or not group:
            raise SweepError("each [[zip]] group must be a non-empty table of parallel lists")
        names = tuple(group)
        columns = [_as_tuple(group[name]) for name in names]
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise SweepError(
                f"zip group {list(names)} columns have mismatched lengths {sorted(lengths)}"
            )
        zips.append(ZipGroup(names=names, rows=tuple(zip(*columns))))

    derived = tuple(
        DerivedParam(name=name, expression=expression)
        for name, expression in _parse_table(document, "derived").items()
    )

    repetitions_table = _parse_table(document, "repetitions")
    unknown = set(repetitions_table) - {"count", "base_seed"}
    if unknown:
        raise SweepError(f"unknown [repetitions] field(s): {sorted(unknown)}")
    repetitions = Repetitions(**repetitions_table)

    perturbations = []
    for rule in _as_tuple(document.get("perturb", ())):
        if not isinstance(rule, dict):
            raise SweepError("each [[perturb]] rule must be a table")
        unknown = set(rule) - {"key", "deltas", "values"}
        if unknown:
            raise SweepError(f"unknown [[perturb]] field(s): {sorted(unknown)}")
        perturbations.append(
            PerturbationRule(
                key=rule.get("key", ""),
                deltas=_as_tuple(rule.get("deltas", ())),
                values=_as_tuple(rule.get("values", ())),
            )
        )

    metrics_table = _parse_table(document, "metrics")
    unknown = set(metrics_table) - {"select", "percentiles"}
    if unknown:
        raise SweepError(f"unknown [metrics] field(s): {sorted(unknown)}")
    metrics_kwargs = {}
    if "select" in metrics_table:
        metrics_kwargs["select"] = tuple(_as_tuple(metrics_table["select"]))
    if "percentiles" in metrics_table:
        metrics_kwargs["percentiles"] = tuple(
            float(q) for q in _as_tuple(metrics_table["percentiles"])
        )
    metrics = MetricsSpec(**metrics_kwargs)

    unknown = set(header) - {"name", "description"}
    if unknown:
        raise SweepError(f"unknown [sweep] field(s): {sorted(unknown)}")
    return SweepSpec(
        name=header.get("name", default_name),
        description=header.get("description", ""),
        request=request,
        axes=axes,
        zips=tuple(zips),
        derived=derived,
        repetitions=repetitions,
        perturbations=tuple(perturbations),
        metrics=metrics,
    )


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load a sweep spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise SweepError(f"cannot read sweep spec {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            document = json.loads(raw)
        except ValueError as error:
            raise SweepError(f"invalid JSON in {path}: {error}") from None
    else:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise SweepError(f"invalid TOML in {path}: {error}") from None
        document = parse_toml(text, where=str(path))
    return parse_sweep_spec(document, default_name=path.stem)


def parse_toml(text: str, *, where: str = "<string>") -> dict:
    """Parse TOML with :mod:`tomllib`; a decode error becomes a :class:`SweepError`."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise SweepError(f"invalid TOML in {where}: {error}") from None
