"""Simulation support: clocks, cost models, workloads and crash testing.

The simulation layer is what lets this reproduction regenerate the paper's
1987 measurements on modern hardware: a deterministic :class:`SimClock` is
advanced by the storage substrate (disk latency model) and by the
MicroVAX-calibrated CPU cost model, so "elapsed time" in a benchmark is the
modelled time the paper's hardware would have taken, independent of the
speed of the machine running the benchmark.

The clock and cost model are imported eagerly (the storage substrate needs
them); the workload generators and the crash-point sweep are resolved
lazily via PEP 562 because they sit *above* the database core in the
dependency order — importing them here eagerly would be circular.
"""

from repro.sim.clock import Clock, SimClock, Stopwatch, WallClock
from repro.sim.costmodel import CostModel, MICROVAX_II, NULL_COST_MODEL

_LAZY = {
    "CrashOutcome": "repro.sim.crashtest",
    "CrashPointSweep": "repro.sim.crashtest",
    "IoFaultOutcome": "repro.sim.iosweep",
    "IoFaultSweep": "repro.sim.iosweep",
    "NetFaultOutcome": "repro.sim.netsweep",
    "NetworkFaultSweep": "repro.sim.netsweep",
    "RecoveryFaultOutcome": "repro.sim.recoversweep",
    "RecoverySweep": "repro.sim.recoversweep",
    "RepairOutcome": "repro.sim.iosweep",
    "ReplicaRepairSweep": "repro.sim.iosweep",
    "SweepResult": "repro.sim.sweep",
    "NameWorkload": "repro.sim.workload",
    "OperationMix": "repro.sim.workload",
    "READ_MOSTLY": "repro.sim.workload",
    "UPDATE_HEAVY": "repro.sim.workload",
    "UpdateBurst": "repro.sim.workload",
    "WorkloadOp": "repro.sim.workload",
    "account_record": "repro.sim.workload",
    "account_records": "repro.sim.workload",
    "random_names": "repro.sim.workload",
    "run_divergence": "repro.sim.iosweep",
}

__all__ = [
    "Clock",
    "CostModel",
    "MICROVAX_II",
    "NULL_COST_MODEL",
    "SimClock",
    "Stopwatch",
    "WallClock",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
