"""Discrete-event simulation of dynamic DAG execution + the RL environment."""

from repro.sim.kernel import SimKernel
from repro.sim.engine import Simulation, ScheduledTask
from repro.sim.state import Observation, StateBuilder
from repro.sim.env import ResetResult, SchedulingEnv, StepResult, run_policy
from repro.sim.vec_env import VecResetResult, VecSchedulingEnv, VecStepResult
from repro.sim.streaming import (
    ArrivalProcess,
    JobStateBuilder,
    PoissonArrivals,
    StreamingSchedulingEnv,
    TraceArrivals,
    VecStreamingEnv,
    make_arrival,
)
from repro.sim.trace_io import (
    trace_to_dict,
    save_trace_json,
    load_trace_json,
    save_trace_csv,
)

__all__ = [
    "SimKernel",
    "Simulation",
    "ScheduledTask",
    "Observation",
    "StateBuilder",
    "SchedulingEnv",
    "ResetResult",
    "StepResult",
    "VecSchedulingEnv",
    "VecResetResult",
    "VecStepResult",
    "ArrivalProcess",
    "PoissonArrivals",
    "TraceArrivals",
    "make_arrival",
    "JobStateBuilder",
    "StreamingSchedulingEnv",
    "VecStreamingEnv",
    "run_policy",
    "trace_to_dict",
    "save_trace_json",
    "load_trace_json",
    "save_trace_csv",
]
