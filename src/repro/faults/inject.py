"""Injection-site helpers: one cheap call per hooked code path.

Each helper is a no-op (one global read, one ``None`` check) unless a
:class:`~repro.faults.plan.FaultPlan` is active in the process, so the hooks
cost effectively nothing on production paths.  The sites:

* :func:`inject_worker_crash` — the process-pool worker entry points
  :func:`repro.api.batch._execute_chunk` (batches and local sweeps) and
  :func:`repro.api.batch._execute_pickled_traced` (the service); never the
  in-process paths, so a crash-looping plan still lets the in-process
  fallback and the service's thread failover complete;
* :func:`inject_slow_execute` — :func:`repro.api.batch._execute_request_to_bytes`
  (both execution paths);
* :func:`inject_store_corrupt` — the :class:`~repro.service.store.ResultStore`
  read path (scribbles over the on-disk entry before it is parsed);
* :func:`inject_conn_reset` — the :class:`~repro.service.client.ServiceClient`
  transport (raises ``ConnectionResetError`` before the HTTP round trip).
"""

from __future__ import annotations

import os
import time

from repro.faults.plan import active_plan

__all__ = [
    "WORKER_CRASH_EXIT",
    "inject_conn_reset",
    "inject_slow_execute",
    "inject_store_corrupt",
    "inject_worker_crash",
]

#: Exit status of a worker killed by an injected ``worker_crash``.
WORKER_CRASH_EXIT = 87

#: Bytes scribbled over a store entry by an injected ``store_corrupt``.
CORRUPT_BYTES = b"\x00repro-injected-corruption"


def inject_worker_crash() -> None:
    """Hard-exit the process if a ``worker_crash`` fault fires here."""
    plan = active_plan()
    if plan is not None and plan.should_fire("worker_crash"):
        os._exit(WORKER_CRASH_EXIT)


def inject_slow_execute() -> None:
    """Stall for the spec's ``delay`` if a ``slow_execute`` fault fires."""
    plan = active_plan()
    if plan is not None and plan.should_fire("slow_execute"):
        time.sleep(plan.spec("slow_execute").delay)


def inject_store_corrupt(path) -> None:
    """Corrupt the store entry file at ``path`` if the fault fires."""
    plan = active_plan()
    if plan is not None and plan.should_fire("store_corrupt"):
        try:
            with open(path, "r+b") as handle:
                handle.write(CORRUPT_BYTES)
        except OSError:  # entry raced away; nothing to corrupt
            pass


def inject_conn_reset() -> None:
    """Raise ``ConnectionResetError`` if a ``conn_reset`` fault fires."""
    plan = active_plan()
    if plan is not None and plan.should_fire("conn_reset"):
        raise ConnectionResetError("injected conn_reset fault")
