"""Compile a :class:`~repro.sweep.spec.SweepSpec` into simulation points.

The compiler is deterministic and pure: the same spec always expands to the
same ordered list of :class:`SweepPoint`\\ s with the same stable ids, so two
runs of one spec (cold and warm, local and via the service) agree point for
point — the property the manifest ledger and the content-addressed store
both build on.

Expansion pipeline::

    axes × zip groups                 the base parameter grid
      → perturbations                 adapt-style ±delta variants per point
      → repetitions                   rep/seed parameters stamped per copy
      → derived parameters            expressions over the full parameter set
      → dedupe                        identical parameter sets collapse
      → job document per point        reserved params + options + workloads
      → SimulationRequest per point   request_from_document(document)

Every point's parameters stay a flat ``{name: scalar}`` mapping; reserved
names (``machine``, ``mode``, ``workload``/``workloads``, ``scale``,
``instruction_limit``, ``restart_companions``, ``tag``, ``rep``, ``seed``,
``perturb``) steer the document builder, everything else is passed to the
machine-model factory as a keyword option (``memory_latency=70``,
``scheduler="roundrobin"``, ``num_contexts=3``...).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from repro.api.batch import SimulationRequest
from repro.errors import ReproError, SweepError
from repro.service.specs import request_from_document
from repro.sweep.spec import RESERVED_PARAMS, SweepSpec

__all__ = ["CompiledSweep", "SweepPoint", "canonical_params", "compile_sweep", "derive_seed"]

#: Helpers available to derived-parameter expressions.
_SAFE_FUNCTIONS = {
    "abs": abs,
    "float": float,
    "int": int,
    "len": len,
    "max": max,
    "min": min,
    "round": round,
}


def canonical_params(params: dict) -> str:
    """The canonical JSON form of a point's parameters (identity basis)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


def derive_seed(base_seed: int, identity: str, rep: int) -> int:
    """Deterministic per-repetition seed: stable across runs and machines."""
    digest = hashlib.sha256(f"{base_seed}:{identity}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved simulation of the sweep."""

    point_id: str
    label: str
    params: dict
    #: The JSON job document the service path submits.
    document: dict
    #: ``request_from_document(document)``, which the local path runs.
    request: SimulationRequest

    def group_params(self) -> dict:
        """The parameters identifying this point's repetition group."""
        return {k: v for k, v in self.params.items() if k not in ("rep", "seed")}


@dataclass(frozen=True)
class CompiledSweep:
    """The deterministic expansion of one sweep spec."""

    spec: SweepSpec
    points: tuple[SweepPoint, ...]
    #: Points dropped because an identical parameter set already expanded.
    duplicates: int
    #: Parameter names that actually vary across points (used for labels).
    varying: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.points)


# --------------------------------------------------------------------------- #
# parameter-grid expansion
# --------------------------------------------------------------------------- #
def _base_grid(spec: SweepSpec) -> list[dict]:
    dimensions: list[list[dict]] = []
    for axis in spec.axes:
        dimensions.append([{axis.name: value} for value in axis.values])
    for group in spec.zips:
        dimensions.append([dict(zip(group.names, row)) for row in group.rows])
    points: list[dict] = []
    for combination in itertools.product(*dimensions) if dimensions else [()]:
        params: dict = {}
        for fragment in combination:
            params.update(fragment)
        points.append(params)
    return points


def _apply_perturbations(spec: SweepSpec, points: list[dict]) -> list[dict]:
    if not spec.perturbations:
        return points
    expanded: list[dict] = []
    for params in points:
        base = dict(params)
        base["perturb"] = "base"
        expanded.append(base)
        for rule in spec.perturbations:
            if rule.key not in params:
                raise SweepError(
                    f"perturbation rule targets unknown parameter {rule.key!r}; "
                    f"point parameters: {sorted(params)}"
                )
            for delta in rule.deltas:
                current = params[rule.key]
                if not isinstance(current, (int, float)) or isinstance(current, bool):
                    raise SweepError(
                        f"perturbation deltas need a numeric base for {rule.key!r}, "
                        f"got {current!r}"
                    )
                variant = dict(params)
                variant[rule.key] = current + delta
                variant["perturb"] = f"{rule.key}{delta:+g}"
                expanded.append(variant)
            for value in rule.values:
                variant = dict(params)
                variant[rule.key] = value
                variant["perturb"] = f"{rule.key}={value}"
                expanded.append(variant)
    return expanded


def _apply_repetitions(spec: SweepSpec, points: list[dict]) -> list[dict]:
    if spec.repetitions.count == 1:
        return points
    expanded: list[dict] = []
    for params in points:
        identity = canonical_params(params)
        for rep in range(spec.repetitions.count):
            copy = dict(params)
            copy["rep"] = rep
            copy["seed"] = derive_seed(spec.repetitions.base_seed, identity, rep)
            expanded.append(copy)
    return expanded


def _apply_derived(spec: SweepSpec, points: list[dict]) -> list[dict]:
    if not spec.derived:
        return points
    for params in points:
        for derived in spec.derived:
            namespace = {**_SAFE_FUNCTIONS, **params}
            try:
                value = eval(  # noqa: S307 - restricted namespace, local DSL
                    derived.expression, {"__builtins__": {}}, namespace
                )
            except Exception as error:
                raise SweepError(
                    f"derived parameter {derived.name!r} failed to evaluate "
                    f"{derived.expression!r}: {type(error).__name__}: {error}"
                ) from None
            if not isinstance(value, (str, int, float, bool, type(None))):
                raise SweepError(
                    f"derived parameter {derived.name!r} must produce a scalar, "
                    f"got {type(value).__name__}"
                )
            params[derived.name] = value
    return points


# --------------------------------------------------------------------------- #
# request construction
# --------------------------------------------------------------------------- #
def _substitute(template, params: dict):
    """Resolve ``{param}`` placeholders in a workload template entry.

    A string that is exactly one placeholder resolves to the parameter's
    value *with its type preserved* (so ``"{vl}"`` can fill a numeric field);
    other strings are formatted textually; containers recurse.
    """
    if isinstance(template, str):
        if template.startswith("{") and template.endswith("}") and template.count("{") == 1:
            name = template[1:-1]
            if name in params:
                return params[name]
        if "{" in template:
            try:
                return template.format_map(params)
            except (KeyError, IndexError, ValueError) as error:
                raise SweepError(
                    f"workload template {template!r} references an unknown "
                    f"parameter: {error}"
                ) from None
        return template
    if isinstance(template, dict):
        return {key: _substitute(value, params) for key, value in template.items()}
    if isinstance(template, (list, tuple)):
        return [_substitute(value, params) for value in template]
    return template


def _workload_specs(spec: SweepSpec, params: dict) -> list:
    templates = list(spec.request.workloads)
    if not templates:
        if "workload" in params:
            templates = ["{workload}"]
        else:
            raise SweepError(
                f"sweep {spec.name!r} declares no workloads: add [request] workloads "
                "or a 'workload' axis"
            )
    resolved = [_substitute(template, params) for template in templates]
    scale = params.get("scale", spec.request.scale)
    if scale is not None:
        scaled = []
        for entry in resolved:
            if isinstance(entry, str):
                entry = {"benchmark": entry, "scale": scale}
            elif isinstance(entry, dict) and "benchmark" in entry and "scale" not in entry:
                entry = {**entry, "scale": scale}
            scaled.append(entry)
        resolved = scaled
    return resolved


def _build_document(spec: SweepSpec, params: dict, label: str) -> dict:
    """The JSON job document a point's resolved parameters describe."""
    machine = params.get("machine", spec.request.machine)
    if not isinstance(machine, str) or not machine:
        raise SweepError(
            f"sweep {spec.name!r} resolves no machine for point {label!r}: "
            "add [request] machine or a 'machine' axis"
        )
    return {
        "machine": machine,
        "workloads": _workload_specs(spec, params),
        "mode": params.get("mode", spec.request.mode),
        "instruction_limit": params.get(
            "instruction_limit", spec.request.instruction_limit
        ),
        "restart_companions": params.get(
            "restart_companions", spec.request.restart_companions
        ),
        "options": {
            name: value
            for name, value in params.items()
            if name not in RESERVED_PARAMS and name not in spec.request.exclude_options
        },
        "tag": label,
    }


def _label(params: dict, varying: tuple[str, ...]) -> str:
    # seeds are derived noise: they vary per repetition by construction and
    # would bloat every label; ``rep`` already identifies the repetition
    shown = [name for name in varying if name in params and name != "seed"]
    if not shown:
        return "point"
    return ",".join(f"{name}={params[name]}" for name in shown)


def compile_sweep(spec: SweepSpec) -> CompiledSweep:
    """Expand a spec into deterministic, deduplicated simulation points.

    Raises :class:`~repro.errors.SweepError` when the spec cannot be
    expanded (unknown perturbation key, failing derived expression, missing
    machine/workloads) or when a workload spec cannot be materialized.
    """
    grid = _base_grid(spec)
    grid = _apply_perturbations(spec, grid)
    grid = _apply_repetitions(spec, grid)
    grid = _apply_derived(spec, grid)

    # identical parameter sets collapse to the first occurrence
    deduped: list[dict] = []
    seen: set[str] = set()
    duplicates = 0
    for params in grid:
        identity = canonical_params(params)
        if identity in seen:
            duplicates += 1
            continue
        seen.add(identity)
        deduped.append(params)

    observed: dict[str, set] = {}
    for params in deduped:
        for name, value in params.items():
            observed.setdefault(name, set()).add(str(value))
    varying = tuple(
        name
        for params in deduped[:1]
        for name in params
        if len(observed.get(name, ())) > 1
    ) or tuple(name for name in (deduped[0] if deduped else {}))

    points: list[SweepPoint] = []
    for params in deduped:
        identity = canonical_params(params)
        point_id = "pt-" + hashlib.sha256(identity.encode()).hexdigest()[:12]
        label = _label(params, varying)
        document = _build_document(spec, params, label)
        try:
            request = request_from_document(document)
        except ReproError as error:
            raise SweepError(
                f"point {label!r} of sweep {spec.name!r} cannot be compiled: {error}"
            ) from None
        points.append(SweepPoint(point_id, label, params, document, request))
    return CompiledSweep(
        spec=spec, points=tuple(points), duplicates=duplicates, varying=varying
    )
