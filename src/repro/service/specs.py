"""JSON job documents: the one wire encoding of a simulation request.

The HTTP front end cannot receive :class:`~repro.workloads.program.Program`
objects directly, so a job is described declaratively:

.. code-block:: json

    {
      "machine": "multithreaded-2",
      "workloads": ["tomcatv", {"benchmark": "swm256", "scale": 0.3}],
      "mode": "group",
      "options": {"memory_latency": 70},
      "priority": 5,
      "tag": "figure10"
    }

Workload forms:

* a string — a benchmark analogue name (``build_benchmark(name)``);
* ``{"benchmark": name, "scale": s}`` — a scaled benchmark analogue;
* ``{"workload": {...}}`` — a full custom :class:`~repro.workloads.generator.WorkloadSpec`
  (``name``, ``vector_instructions``, ``scalar_instructions``, ``loops`` as
  ``[{"kernel", "vl", "weight", "stride"}]``, ``outer_passes``).

The network accepts JSON documents only and never unpickles a request;
results still travel back as canonical pickles that the client unpickles, so
a client must trust the server it points at.  :func:`request_from_document`
is the one decoder, shared by the server, the router and the sweep compiler,
so one document always means one content key.

Decode is memoized in one bounded, thread-safe LRU memo of 32 entries, the
bound of the expansion intern table (:mod:`repro.workloads.program`).
:func:`workload_from_spec` keys a benchmark spec on ``(profile name, float
scale)``, so a bare name, its two-letter alias and a ``{"benchmark",
"scale"}`` object that all name one program share one entry; any other spec
is keyed by its canonical JSON (``json.dumps(spec, sort_keys=True)``).  A
repeated spec returns the program built for its first decode, already
expanded, so its request key is a fingerprint memo probe instead of a build
plus a structural intern lookup.  A spec that raises is not memoized; one
that cannot be JSON-encoded is decoded without the memo.  **Decoded programs
are shared read-only** between requests and threads: a caller must not
``add_loop`` to one (or change it otherwise).  Every lazily filled field of
a program is written by :meth:`~repro.workloads.program.Program.expanded`
before the memo publishes it, so concurrent readers never write one.

The same memo serves pool shipping (:mod:`repro.api.batch`): the parent
looks up a benchmark program's ``{"benchmark", "scale"}`` spec here to decide
whether the program may ship as that spec, and a pool worker rebuilds each
spec-shipped program through its own copy of the memo.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict

from repro.api.batch import SimulationRequest
from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    DEFAULT_SCALE,
    LoopSpec,
    Program,
    WorkloadSpec,
    build_benchmark,
    build_workload,
    get_profile,
)

__all__ = ["parse_job_document", "request_from_document", "workload_from_spec"]

#: Fields accepted at the top level of a JSON job document.
_JOB_FIELDS = {
    "machine", "workloads", "mode", "instruction_limit", "restart_companions",
    "options", "priority", "tag", "timeout",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Upper bound on memoized decodes (the expansion intern table's bound).
_DECODE_MAX_ENTRIES = 32

_decode_lock = threading.Lock()
#: Memo key (see :func:`workload_from_spec`) -> the expanded program decoded
#: from it, LRU order.
_decoded: "OrderedDict[tuple[str, float] | str, Program]" = OrderedDict()


def _reset_decode_lock_in_child() -> None:
    # pool workers decode spec-shipped programs; a worker forked while an
    # HTTP thread held the lock would inherit it held
    global _decode_lock
    _decode_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_decode_lock_in_child)


def workload_from_spec(spec) -> Program:
    """Materialize one workload from its JSON form (see module docstring).

    Memoized on a benchmark spec's ``(profile name, scale)`` and on any other
    spec's canonical JSON: the returned program may be the one an earlier
    call returned, and is shared read-only.
    """
    benchmark = _benchmark_key(spec)
    if benchmark is not None:
        key = benchmark
    else:
        try:
            key = json.dumps(spec, sort_keys=True)
        except (TypeError, ValueError):
            return _decode(spec)
    with _decode_lock:
        program = _decoded.get(key)
        if program is not None:
            _decoded.move_to_end(key)
            return program
    if benchmark is not None:
        name, scale = benchmark
        program = build_benchmark(name, scale=scale)
    else:
        program = _decode(spec)
    program.expanded()
    with _decode_lock:
        # a thread that decoded the same spec meanwhile published first:
        # share its program, so every caller holds one object
        program = _decoded.setdefault(key, program)
        _decoded.move_to_end(key)
        while len(_decoded) > _DECODE_MAX_ENTRIES:
            _decoded.popitem(last=False)
    return program


def _benchmark_key(spec) -> tuple[str, float] | None:
    """``(profile name, scale)`` of a benchmark spec, or ``None`` for other forms.

    Validates the spec's fields, raising :class:`~repro.errors.WorkloadError`
    on a bad one (an unknown name included).
    """
    if isinstance(spec, str):
        return get_profile(spec).name, float(DEFAULT_SCALE)
    if not isinstance(spec, dict) or "benchmark" not in spec:
        return None
    extra = set(spec) - {"benchmark", "scale"}
    if extra:
        raise WorkloadError(f"unknown benchmark spec field(s): {sorted(extra, key=str)}")
    name, scale = spec["benchmark"], spec.get("scale", DEFAULT_SCALE)
    if not isinstance(name, str):
        raise WorkloadError(f"a benchmark name must be a string, got {name!r}")
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise WorkloadError(f"a benchmark scale must be a number, got {scale!r}")
    return get_profile(name).name, float(scale)


def _decode(spec) -> Program:
    """Build one non-benchmark workload from its JSON form, validating every field."""
    if not isinstance(spec, dict):
        raise WorkloadError(
            f"a workload spec must be a string or object, got {type(spec).__name__}"
        )
    if "workload" in spec:
        if not isinstance(spec["workload"], dict):
            raise WorkloadError("a custom workload spec must be an object")
        body = dict(spec["workload"])
        try:
            loops = tuple(LoopSpec(**loop) for loop in body.pop("loops", ()))
            return build_workload(WorkloadSpec(loops=loops, **body))
        except (TypeError, ValueError) as error:
            raise WorkloadError(f"bad custom workload spec: {error}") from None
    raise WorkloadError(
        "a workload spec object needs a 'benchmark' or 'workload' field"
    )


def request_from_document(document: dict) -> SimulationRequest:
    """The :class:`SimulationRequest` a job document's declarative fields describe.

    Ignores the envelope (``priority``, ``timeout``); raises
    :class:`~repro.errors.ConfigurationError` /
    :class:`~repro.errors.WorkloadError` on malformed fields.
    """
    if not isinstance(document, dict):
        raise ConfigurationError("a job document must be a JSON object")
    unknown = set(document) - _JOB_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown job field(s): {sorted(unknown)}")
    machine = document.get("machine")
    if not isinstance(machine, str) or not machine:
        raise ConfigurationError("a job document needs a 'machine' model name")
    workload_specs = document.get("workloads")
    if isinstance(workload_specs, (str, dict)):
        workload_specs = [workload_specs]
    if not isinstance(workload_specs, list) or not workload_specs:
        raise ConfigurationError("a job document needs a non-empty 'workloads' list")
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise ConfigurationError("'options' must be an object")
    instruction_limit = document.get("instruction_limit")
    if instruction_limit is not None and not _is_int(instruction_limit):
        raise ConfigurationError("instruction_limit must be an integer")
    restart_companions = document.get("restart_companions", True)
    if not isinstance(restart_companions, bool):
        raise ConfigurationError("restart_companions must be a boolean")
    tag = document.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ConfigurationError("tag must be a string")
    return SimulationRequest(
        machine=machine,
        workloads=tuple(workload_from_spec(spec) for spec in workload_specs),
        mode=document.get("mode", "single"),
        instruction_limit=instruction_limit,
        restart_companions=restart_companions,
        options=tuple(sorted(options.items())),
        tag=tag,
    )


def parse_job_document(document: dict) -> tuple[SimulationRequest, int, float | None]:
    """Parse one POSTed job document into ``(request, priority, timeout)``.

    ``timeout`` is the job's optional wall-clock budget in seconds (``None``
    when absent — the service then applies its own default).  Raises
    :class:`~repro.errors.ConfigurationError` /
    :class:`~repro.errors.WorkloadError` on malformed documents (mapped to
    HTTP 400 by the server).
    """
    request = request_from_document(document)
    priority = document.get("priority", 0)
    if not _is_int(priority):
        raise ConfigurationError("priority must be an integer")
    timeout = document.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ConfigurationError("timeout must be a number of seconds")
        timeout = float(timeout)
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
    return request, priority, timeout
