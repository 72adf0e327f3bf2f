"""Vectorised-environment microbench: K-member A2C unroll+update (BENCH_sim.json).

Swept over K ∈ {1, 4, 8, 16}: the end-to-end A2C cycle of
``ReadysTrainer._collect_unrolls`` + ``update_batch`` on Cholesky T=6, with
the unroll and update phases timed apart.
The unroll steps every member through the environments' one decision loop
(``repro.sim.vec_env.step_wave``); the network forward/backward is
data-linear in transitions and dilutes the simulator's share.

Results are persisted to ``BENCH_sim.json`` at the repo root.
"""

import json
import os
import time

import numpy as np

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import NoNoise, Platform
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.sim import SchedulingEnv, VecSchedulingEnv
from repro.utils.tables import format_table

MEMBER_COUNTS = (1, 4, 8, 16)
BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_sim.json")


def _rl_unroll_rates(platform, tiles=6, cycles=4, rounds=3):
    """transitions/s of the A2C cycle per member count, phase-split.

    The unroll (rollout collection) and update (gradient step) phases are
    timed separately inside each cycle so the two costs can be tracked
    independently — the SoA simulator work moves the unroll phase, the
    compiled training step (``test_bench_train.py``) moves the update phase.
    """
    graph = cholesky_dag(tiles)
    rates = {}
    for k in MEMBER_COUNTS:
        vec_env = VecSchedulingEnv.from_factory(
            lambda rng: SchedulingEnv(
                graph, platform, CHOLESKY_DURATIONS, noise=NoNoise(), rng=rng
            ),
            k,
            seed=0,
        )
        trainer = ReadysTrainer(
            vec_env, config=A2CConfig(unroll_length=20), rng=0
        )
        for _ in range(2):  # warm-up
            unrolls, boots = trainer._collect_unrolls()
            trainer.updater.update_batch(unrolls, boots)
        best_cycle = best_unroll = best_update = float("inf")
        for _ in range(rounds):
            unroll_s = update_s = 0.0
            for _ in range(cycles):
                t0 = time.perf_counter()
                unrolls, boots = trainer._collect_unrolls()
                t1 = time.perf_counter()
                trainer.updater.update_batch(unrolls, boots)
                unroll_s += t1 - t0
                update_s += time.perf_counter() - t1
            best_unroll = min(best_unroll, unroll_s / cycles)
            best_update = min(best_update, update_s / cycles)
            best_cycle = min(best_cycle, (unroll_s + update_s) / cycles)
        rates[k] = {
            "transitions_per_s": 20 * k / best_cycle,
            "cycle_s": best_cycle,
            "unroll_s": best_unroll,
            "update_s": best_update,
        }
    base = rates[MEMBER_COUNTS[0]]["transitions_per_s"]
    for k in MEMBER_COUNTS:
        rates[k]["speedup_vs_k1"] = rates[k]["transitions_per_s"] / base
    return rates


def test_bench_sim_unroll(benchmark, report):
    platform = Platform(2, 2)
    rl_rates = benchmark.pedantic(
        lambda: _rl_unroll_rates(platform), rounds=1, iterations=1
    )

    payload = {
        "config": {
            "rl": {"graph": "cholesky(6)", "unroll_length": 20},
            "member_counts": list(MEMBER_COUNTS),
        },
        "rl_unroll_update": {str(k): cell for k, cell in rl_rates.items()},
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = [
        [
            k,
            rl_rates[k]["transitions_per_s"],
            rl_rates[k]["unroll_s"] * 1e3,
            rl_rates[k]["update_s"] * 1e3,
            rl_rates[k]["speedup_vs_k1"],
        ]
        for k in MEMBER_COUNTS
    ]
    report(
        "bench_sim_unroll",
        format_table(
            ["K", "rl tr/s", "rl unroll ms", "rl update ms", "rl vs K=1"],
            rows,
            floatfmt=".2f",
        ),
    )

    assert np.isfinite([c["transitions_per_s"] for c in rl_rates.values()]).all()
