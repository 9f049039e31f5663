"""Event-driven system simulator (the GVSOC substitute)."""

from .compare import assert_results_identical, result_mismatches
from .engine import Barrier, CreditStore, Engine, Server, SimulationError
from .ima_model import IMAJob, IMATimingModel
from .noc import NocModel
from .steady_state import fast_forward_simulate
from .system import (
    DEFAULT_ENGINE,
    SIMULATION_ENGINES,
    SimulationRecord,
    SimulationResult,
    SystemSimulator,
    simulate,
)
from .tracer import CATEGORIES, ClusterActivity, StageActivity, Tracer
from .workload import (
    ARRIVAL_PROCESSES,
    ArrivalError,
    ArrivalTraceError,
    BurstyArrivals,
    DataFlow,
    DeterministicArrivals,
    ENDPOINT_HBM,
    ENDPOINT_STAGE,
    ENDPOINT_STORAGE,
    PoissonArrivals,
    StageCost,
    StageDescriptor,
    TraceArrivals,
    Workload,
    load_arrival_trace,
    resolve_arrivals,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalError",
    "ArrivalTraceError",
    "Barrier",
    "BurstyArrivals",
    "CATEGORIES",
    "ClusterActivity",
    "CreditStore",
    "DEFAULT_ENGINE",
    "DataFlow",
    "DeterministicArrivals",
    "ENDPOINT_HBM",
    "ENDPOINT_STAGE",
    "ENDPOINT_STORAGE",
    "Engine",
    "IMAJob",
    "IMATimingModel",
    "NocModel",
    "PoissonArrivals",
    "SIMULATION_ENGINES",
    "Server",
    "SimulationError",
    "SimulationRecord",
    "SimulationResult",
    "StageActivity",
    "StageCost",
    "StageDescriptor",
    "SystemSimulator",
    "TraceArrivals",
    "Tracer",
    "Workload",
    "assert_results_identical",
    "fast_forward_simulate",
    "load_arrival_trace",
    "resolve_arrivals",
    "result_mismatches",
    "simulate",
]
