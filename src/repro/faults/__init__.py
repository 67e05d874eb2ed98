"""Deterministic fault injection for the service stack.

Every failure mode the resilience layer defends against — a worker process
dying mid-job, a corrupt result-store entry, a hung simulation, a dropped
client connection — can be injected on demand, deterministically, so the
chaos suite can assert that results stay byte-identical to
:meth:`repro.api.machine.Machine.run` under each of them.

Activate a plan in-process; every pool task submitted afterwards carries it
to the worker that runs it::

    from repro.faults import FaultPlan, FaultSpec, set_fault_plan

    set_fault_plan(FaultPlan(
        [FaultSpec("worker_crash", count=1)], state_dir=tmp,
    ))
    ...  # the first pool execution service-wide now hard-exits its worker
    set_fault_plan(None)

or hand one to a separately launched service, which reads
``REPRO_FAULT_PLAN`` once at boot::

    REPRO_FAULT_PLAN='{"faults": {"store_corrupt": {"count": 1}}}' \
        repro-mtv serve ...
    REPRO_FAULT_PLAN=@chaos.toml repro-mtv serve ...

Fault firing is counter-based (``skip``/``count`` windows over eligible
events), never random; a ``state_dir`` shares the trigger budget across
processes.  See :mod:`repro.faults.plan` for the kinds and their sites.
"""

from repro.faults.inject import (
    CORRUPT_BYTES,
    WORKER_CRASH_EXIT,
    inject_conn_reset,
    inject_slow_execute,
    inject_store_corrupt,
    inject_worker_crash,
)
from repro.faults.plan import (
    FAULT_KINDS,
    PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_plan,
    load_fault_plan,
    set_fault_plan,
)

__all__ = [
    "CORRUPT_BYTES",
    "FAULT_KINDS",
    "PLAN_ENV",
    "WORKER_CRASH_EXIT",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "inject_conn_reset",
    "inject_slow_execute",
    "inject_store_corrupt",
    "inject_worker_crash",
    "load_fault_plan",
    "set_fault_plan",
]
