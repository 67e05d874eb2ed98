"""repro — a reproduction of *Multithreaded Vector Architectures* (HPCA 1997).

The package implements, in pure Python:

* a Convex C3400-style vector ISA and instruction model (:mod:`repro.isa`),
* synthetic analogues of the paper's Perfect Club / Specfp92 benchmark suite
  (:mod:`repro.workloads`),
* a Dixie-style trace pipeline (:mod:`repro.trace`),
* the memory subsystem with its single shared address port (:mod:`repro.memory`),
* cycle-level simulators of the reference, multithreaded and dual-scalar
  machines (:mod:`repro.core`),
* the unified simulation API — machine-model registry, :class:`Machine`
  facade, batched parallel execution and run caching (:mod:`repro.api`),
* the async simulation job service — durable result store, request
  coalescing, HTTP JSON API and Python client (:mod:`repro.service`),
* declarative scenario sweeps — TOML/JSON specs compiled into deduplicated
  request grids, fanned out locally or through the service, reduced into
  distribution statistics and hashed manifests (:mod:`repro.sweep`),
* the experiment harness that regenerates every table and figure of the
  paper's evaluation (:mod:`repro.experiments`).

Quick start::

    from repro import Machine, SimulationRequest, run_batch
    from repro.workloads import build_benchmark

    swm256 = build_benchmark("swm256", scale=0.5)
    tomcatv = build_benchmark("tomcatv", scale=0.5)

    baseline = Machine.named("reference").run(swm256)
    threaded = Machine.named("multithreaded-2").run_group([swm256, tomcatv])
    print(baseline.cycles, threaded.memory_port_occupancy)

    # hundreds of independent simulations?  Describe them declaratively and
    # fan them out over worker processes:
    results = run_batch(
        [
            SimulationRequest.single("reference", program, memory_latency=latency)
            for program in (swm256, tomcatv)
            for latency in (1, 50, 100)
        ],
        jobs=4,
    )
"""

from repro.api import (
    Machine,
    RunCache,
    SimulationRequest,
    WorkerPool,
    model_names,
    register_model,
    run_batch,
    usable_cpus,
)
from repro.core import (
    IdealMachineModel,
    Job,
    LatencyTable,
    MachineConfig,
    SimulationResult,
)
from repro.errors import (
    AssemblyError,
    ConfigurationError,
    ExperimentError,
    IsaError,
    ReproError,
    SimulationError,
    SweepError,
    TraceError,
    WorkloadError,
)
from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SimulationService,
)
from repro.sweep import (
    SweepSpec,
    execute_sweep,
    load_sweep_spec,
    run_sweep,
)
from repro.workloads import build_benchmark, build_suite, build_workload

__version__ = "1.9.0"

__all__ = [
    "AssemblyError",
    "ConfigurationError",
    "ExperimentContext",
    "ExperimentError",
    "ExperimentSettings",
    "IdealMachineModel",
    "IsaError",
    "Job",
    "LatencyTable",
    "Machine",
    "MachineConfig",
    "ReproError",
    "ResultStore",
    "RunCache",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SimulationError",
    "SimulationRequest",
    "SimulationResult",
    "SimulationService",
    "SweepError",
    "SweepSpec",
    "TraceError",
    "WorkerPool",
    "WorkloadError",
    "__version__",
    "build_benchmark",
    "build_suite",
    "build_workload",
    "execute_sweep",
    "load_sweep_spec",
    "model_names",
    "register_model",
    "run_batch",
    "run_sweep",
    "usable_cpus",
]
