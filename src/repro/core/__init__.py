"""The core cycle-level simulation engine: the paper's primary contribution."""

from repro.core.config import LatencyTable, MachineConfig
from repro.core.context import HardwareContext
from repro.core.dispatch import DispatchModel
from repro.core.engine import SimulationEngine
from repro.core.eventlog import FlatIntervalRecorder
from repro.core.functional_units import FunctionalUnit, VectorUnitPool
from repro.core.ideal import IdealMachineModel, ideal_execution_time
from repro.core.results import SimulationResult
from repro.core.scheduler import (
    LeastServiceScheduler,
    RoundRobinScheduler,
    ThreadScheduler,
    UnfairBlockingScheduler,
    create_scheduler,
    scheduler_names,
)
from repro.core.scoreboard import ColumnarScoreboard
from repro.core.statistics import (
    FU_STATE_NAMES,
    JobRecord,
    SimulationStats,
    ThreadStats,
    fu_state_breakdown,
)
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    JobSupplier,
    RepeatingSupplier,
    SingleJobSupplier,
    as_job,
)

__all__ = [
    "ColumnarScoreboard",
    "DispatchModel",
    "FU_STATE_NAMES",
    "FlatIntervalRecorder",
    "FunctionalUnit",
    "HardwareContext",
    "IdealMachineModel",
    "Job",
    "JobQueueSupplier",
    "JobRecord",
    "JobSupplier",
    "LatencyTable",
    "LeastServiceScheduler",
    "MachineConfig",
    "RepeatingSupplier",
    "RoundRobinScheduler",
    "SimulationEngine",
    "SimulationResult",
    "SimulationStats",
    "SingleJobSupplier",
    "ThreadScheduler",
    "ThreadStats",
    "UnfairBlockingScheduler",
    "VectorUnitPool",
    "as_job",
    "create_scheduler",
    "fu_state_breakdown",
    "ideal_execution_time",
    "scheduler_names",
]
