"""Compiled-training-step benchmark: update-phase throughput (BENCH_train.json).

The update phase of one gradient step — forward + backward + grad-clip +
Adam on a fixed batch of pre-collected transitions — is timed two ways:

* **reference** — the autograd tape (build graph, run backward closures,
  per-parameter clip + Adam): the path an updater takes when its training
  compiler refuses, forced here with :func:`tests.reference_tape.reference_tape`.
* **compiled** — the :class:`repro.nn.compile.TrainingCompiler` replay:
  fused forward/backward kernels writing into the gradient arena, then one
  flat clip + Adam pass — what every training run executes.  The capture +
  bitwise validation round is excluded via warm-up, matching steady-state
  training.

A2C is swept over K ∈ {1, 4, 8, 16} lockstep environments on the Cholesky
T=6 training config (``A2CConfig`` defaults, unroll_length=40); PPO runs
its spec-default single-env rollout (128 transitions × 4 epochs).  Results
are persisted to ``BENCH_train.json`` at the repo root; the headline claim
enforced here is that the compiled A2C update at K=8 runs >= 2.5x the
reference tape.
"""

import json
import os
import time

import numpy as np

from repro.rl.a2c import A2CConfig
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.trainer import ReadysTrainer, default_agent
from repro.spec import ExperimentSpec
from repro.utils.tables import format_table
from tests.reference_tape import (
    assert_ran_compiled,
    assert_ran_on_tape,
    reference_tape,
)

MEMBER_COUNTS = (1, 4, 8, 16)
BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_train.json")


def _a2c_spec(num_envs: int) -> ExperimentSpec:
    return ExperimentSpec(
        workload={"kernel": "cholesky", "tiles": 6}, seed=3, num_envs=num_envs
    )


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _a2c_update_times(num_envs: int, rounds: int = 20) -> dict:
    """Best-of update-phase seconds on one fixed unroll batch, ref vs compiled."""
    # one trainer collects the batch; fresh trainers measure each path so
    # optimizer state starts identical (the timing is weight-independent)
    collector = ReadysTrainer.from_spec(_a2c_spec(num_envs), config=A2CConfig())
    unrolls, boots = collector._collect_unrolls()

    ref = ReadysTrainer.from_spec(_a2c_spec(num_envs), config=A2CConfig())
    with reference_tape():
        ref.updater.update_batch(unrolls, boots)  # warm caches
        t_ref = _best_of(lambda: ref.updater.update_batch(unrolls, boots), rounds)
    assert_ran_on_tape(ref.updater.train_compile_stats())

    cmp_ = ReadysTrainer.from_spec(_a2c_spec(num_envs), config=A2CConfig())
    cmp_.updater.update_batch(unrolls, boots)  # warm: capture + validate
    t_cmp = _best_of(lambda: cmp_.updater.update_batch(unrolls, boots), rounds)

    stats = cmp_.updater.train_compile_stats()
    assert_ran_compiled(stats)
    assert stats["array_steps"] > 0, stats
    return {
        "reference_s": t_ref,
        "compiled_s": t_cmp,
        "speedup": t_ref / t_cmp,
        "reference_updates_per_s": 1.0 / t_ref,
        "compiled_updates_per_s": 1.0 / t_cmp,
    }


def _ppo_update_times(rounds: int = 10) -> dict:
    """Best-of PPO update seconds (num_epochs passes), ref vs compiled."""
    spec = _a2c_spec(1)

    def make_trainer() -> PPOTrainer:
        env = spec.make_env()
        agent = default_agent(env, rng=0)
        return PPOTrainer(env, agent, PPOConfig(), rng=0)

    collector = make_trainer()
    transitions, bootstrap = collector.collect_rollout()

    ref = make_trainer()
    with reference_tape():
        ref.update(transitions, bootstrap)  # warm caches
        t_ref = _best_of(lambda: ref.update(transitions, bootstrap), rounds)
    assert_ran_on_tape(ref.train_compile_stats())

    cmp_ = make_trainer()
    cmp_.update(transitions, bootstrap)  # warm: capture + validate
    t_cmp = _best_of(lambda: cmp_.update(transitions, bootstrap), rounds)

    stats = cmp_.train_compile_stats()
    assert_ran_compiled(stats)
    assert stats["array_steps"] > 0, stats
    return {
        "reference_s": t_ref,
        "compiled_s": t_cmp,
        "speedup": t_ref / t_cmp,
    }


def test_bench_compiled_train(benchmark, report):
    def run_measure():
        return (
            {k: _a2c_update_times(k) for k in MEMBER_COUNTS},
            _ppo_update_times(),
        )

    a2c, ppo = benchmark.pedantic(run_measure, rounds=1, iterations=1)

    payload = {
        "config": {
            "a2c": {
                "graph": "cholesky(6)", "platform": "2 CPU + 2 GPU",
                "unroll_length": A2CConfig().unroll_length,
                "member_counts": list(MEMBER_COUNTS),
            },
            "ppo": {
                "graph": "cholesky(6)", "platform": "2 CPU + 2 GPU",
                "rollout_length": PPOConfig().rollout_length,
                "num_epochs": PPOConfig().num_epochs,
            },
            "phase": "update only (forward + backward + clip + Adam); "
                     "capture/validation excluded via warm-up",
        },
        "a2c_update": {str(k): cell for k, cell in a2c.items()},
        "ppo_update": ppo,
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = [
        [
            f"A2C K={k}",
            a2c[k]["reference_s"] * 1e3,
            a2c[k]["compiled_s"] * 1e3,
            a2c[k]["speedup"],
        ]
        for k in MEMBER_COUNTS
    ] + [["PPO", ppo["reference_s"] * 1e3, ppo["compiled_s"] * 1e3, ppo["speedup"]]]
    report(
        "bench_compiled_train",
        format_table(
            ["config", "reference ms", "compiled ms", "speedup"],
            rows,
            floatfmt=".2f",
        ),
    )

    ratio = a2c[8]["speedup"]
    assert ratio >= 2.5, (
        f"compiled K=8 update must run >= 2.5x the reference tape, got {ratio:.2f}x"
    )
    # the compiled path must never be a regression at any width
    for k, cell in a2c.items():
        assert cell["speedup"] > 1.0, (k, cell)
    assert ppo["speedup"] > 1.0, ppo
    assert np.isfinite([c["speedup"] for c in a2c.values()]).all()
