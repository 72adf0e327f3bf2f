"""READYS reproduction — RL-based dynamic DAG scheduling on heterogeneous platforms.

Reproduces Grinsztajn, Beaumont, Jeannot & Preux, *READYS: A Reinforcement
Learning Based Strategy for Heterogeneous Dynamic Scheduling* (IEEE CLUSTER
2021) as a self-contained Python library: task-graph generators (tiled
Cholesky/LU/QR), a discrete-event simulator of heterogeneous CPU+GPU nodes
with stochastic task durations, HEFT/MCT and further baseline schedulers, and
the READYS agent itself — a from-scratch NumPy GCN trained with A2C.

Quickstart (spec-first)::

    from repro import ExperimentSpec, ReadysTrainer, evaluate_agent, make_env

    spec = ExperimentSpec(workload={"kernel": "cholesky", "tiles": 4, "sigma": 0.2})
    trainer = ReadysTrainer.from_spec(spec)
    trainer.train_episodes(100)
    print(evaluate_agent(trainer.agent, make_env(spec), episodes=5, rng=1))

Custom environments/agents compose via the constructor,
``ReadysTrainer(env, agent=..., config=..., rng=...)``; schedulers are
looked up by name with ``get(name)`` and listed with ``available()``.
"""

__version__ = "1.0.0"

from repro.graphs import (
    TaskGraph,
    cholesky_dag,
    lu_dag,
    qr_dag,
    layered_dag,
    erdos_dag,
    chain_dag,
    fork_join_dag,
    make_dag,
    DurationTable,
    duration_table_for,
    CHOLESKY_DURATIONS,
    LU_DURATIONS,
    QR_DURATIONS,
)
from repro.platforms import (
    CPU,
    GPU,
    Platform,
    Processor,
    NoiseModel,
    NoNoise,
    GaussianNoise,
    LognormalNoise,
    UniformNoise,
    GammaNoise,
    make_noise,
)
from repro.sim import (
    Simulation,
    SchedulingEnv,
    Observation,
    ResetResult,
    StepResult,
    VecSchedulingEnv,
    VecResetResult,
    VecStepResult,
)
from repro.schedulers import (
    heft_schedule,
    heft_makespan,
    run_heft,
    run_mct,
    available,
    get,
    get_entry,
    register,
)
from repro.spec import ExperimentSpec, ServeSpec, make_env, make_train_env
from repro.rl import (
    ReadysAgent,
    AgentConfig,
    A2CConfig,
    ReadysTrainer,
    TrainingCheckpoint,
    load_checkpoint,
    save_checkpoint,
    trainer_from_checkpoint,
    evaluate_agent,
    save_agent,
    load_agent,
    transfer_evaluate,
)
from repro.eval import compare_methods, improvement_over, inference_timing
from repro.policy import (
    AgentPolicy,
    DecisionReply,
    DecisionRequest,
    InProcessClient,
    Policy,
    evaluate_policy,
)

__all__ = [
    "__version__",
    # graphs
    "TaskGraph",
    "cholesky_dag",
    "lu_dag",
    "qr_dag",
    "layered_dag",
    "erdos_dag",
    "chain_dag",
    "fork_join_dag",
    "make_dag",
    "DurationTable",
    "duration_table_for",
    "CHOLESKY_DURATIONS",
    "LU_DURATIONS",
    "QR_DURATIONS",
    # platforms
    "CPU",
    "GPU",
    "Platform",
    "Processor",
    "NoiseModel",
    "NoNoise",
    "GaussianNoise",
    "LognormalNoise",
    "UniformNoise",
    "GammaNoise",
    "make_noise",
    # simulation
    "Simulation",
    "SchedulingEnv",
    "Observation",
    "ResetResult",
    "StepResult",
    "VecSchedulingEnv",
    "VecResetResult",
    "VecStepResult",
    # schedulers
    "heft_schedule",
    "heft_makespan",
    "run_heft",
    "run_mct",
    "available",
    "get",
    "get_entry",
    "register",
    # spec (spec-first construction: the one true entrypoints)
    "ExperimentSpec",
    "make_env",
    "make_train_env",
    # RL
    "ReadysAgent",
    "AgentConfig",
    "A2CConfig",
    "ReadysTrainer",
    "TrainingCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "trainer_from_checkpoint",
    "evaluate_agent",
    "save_agent",
    "load_agent",
    "transfer_evaluate",
    # eval
    "compare_methods",
    "improvement_over",
    "inference_timing",
    # policy / serving (transport-neutral; the socket server is repro.serve)
    "ServeSpec",
    "Policy",
    "AgentPolicy",
    "DecisionRequest",
    "DecisionReply",
    "InProcessClient",
    "evaluate_policy",
]
