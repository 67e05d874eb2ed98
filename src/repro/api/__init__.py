"""Unified simulation API: the :class:`Machine` surface, model registry,
batched parallel execution and run caching.

This package is the single entry point for running simulations::

    from repro.api import Machine, SimulationRequest, run_batch

    result = Machine.named("multithreaded-2", memory_latency=70).run(program)
    results = run_batch(
        [SimulationRequest.single("reference", p) for p in programs],
        jobs=4,
    )

Importing :mod:`repro.api` registers the built-in machine models
(``reference``, ``multithreaded``/``multithreaded-{2,3,4}``, ``dual-scalar``,
``cray-style`` and ``ideal``); :func:`register_model` adds new ones.
"""

from repro.api.batch import SimulationRequest, run_batch
from repro.api.cache import (
    RunCache,
    fingerprint_config,
    fingerprint_workload,
    request_key,
)
from repro.api.machine import Machine
from repro.api.pool import (
    WorkerPool,
    get_shared_pool,
    shutdown_shared_pool,
    usable_cpus,
)
from repro.api.registry import (
    ModelEntry,
    model_descriptions,
    model_names,
    register_model,
    resolve_model,
    unregister_model,
)

__all__ = [
    "Machine",
    "ModelEntry",
    "RunCache",
    "SimulationRequest",
    "WorkerPool",
    "fingerprint_config",
    "fingerprint_workload",
    "get_shared_pool",
    "model_descriptions",
    "model_names",
    "register_model",
    "request_key",
    "resolve_model",
    "run_batch",
    "shutdown_shared_pool",
    "unregister_model",
    "usable_cpus",
]
