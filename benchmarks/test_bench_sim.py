"""Vectorised-simulator microbench: K-member unroll throughput (BENCH_sim.json).

Two layers, both swept over K ∈ {1, 4, 8, 16}:

* **sim unroll** — K full static-replay episodes (HEFT plan, Cholesky DAG)
  through (a) the per-member event loop (``run_static`` per member: the
  pre-refactor execution shape) and (b) the fused struct-of-arrays path
  (``run_static_vec``: one ``start_many``/``advance_rows`` round per event
  instant across all members).  This isolates the simulator core the SoA
  refactor vectorised — no agent, no gradients.
* **rl unroll+update** — the end-to-end A2C cycle of
  ``ReadysTrainer._collect_unrolls`` + ``update_batch`` (the PR 1
  microbench shape), where the network forward/backward is data-linear in
  transitions and therefore dilutes the simulator speedup.

Results are persisted to ``BENCH_sim.json`` at the repo root; the headline
claim enforced here is that the fused simulator unroll at K=8 runs >= 3x
the per-member loop (the end-to-end PR 1 baseline scaled only ~1.3x).
"""

import json
import os
import time

import numpy as np

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import NoNoise, Platform
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.schedulers.heft import heft_schedule
from repro.schedulers.static_executor import run_static, run_static_vec
from repro.sim import SchedulingEnv, Simulation, VecSchedulingEnv, VecSimulation
from repro.utils.tables import format_table

MEMBER_COUNTS = (1, 4, 8, 16)
BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_sim.json")


def _sim_unroll_rates(graph, platform, schedule, seconds=1.0):
    """tasks/s of K-episode static replay: per-member loop vs fused kernel."""
    n = graph.num_tasks
    rates = {}
    for k in MEMBER_COUNTS:
        cell = {}
        for mode in ("member", "fused"):
            t0 = time.perf_counter()
            done = 0
            while time.perf_counter() - t0 < seconds:
                if mode == "fused":
                    vec = VecSimulation(
                        [graph] * k, platform, CHOLESKY_DURATIONS, NoNoise(), rng=0
                    )
                    run_static_vec(vec, [schedule] * k)
                else:
                    for member in range(k):
                        sim = Simulation(
                            graph, platform, CHOLESKY_DURATIONS, NoNoise(), rng=member
                        )
                        run_static(sim, schedule, rng=member)
                done += n * k
            cell[mode] = done / (time.perf_counter() - t0)
        cell["speedup"] = cell["fused"] / cell["member"]
        rates[k] = cell
    return rates


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
    graph = cholesky_dag(8)  # 120 tasks
    schedule = heft_schedule(graph, platform, CHOLESKY_DURATIONS)

    def run_measure():
        return (
            _sim_unroll_rates(graph, platform, schedule),
            _rl_unroll_rates(platform),
        )

    sim_rates, rl_rates = benchmark.pedantic(run_measure, rounds=1, iterations=1)

    payload = {
        "config": {
            "sim": {"graph": "cholesky(8)", "platform": "2 CPU + 2 GPU",
                    "plan": "heft", "noise": "none"},
            "rl": {"graph": "cholesky(6)", "unroll_length": 20},
            "member_counts": list(MEMBER_COUNTS),
        },
        "sim_unroll_tasks_per_s": {
            str(k): {
                "member_loop": cell["member"],
                "fused": cell["fused"],
                "speedup": cell["speedup"],
            }
            for k, cell in sim_rates.items()
        },
        "rl_unroll_update": {str(k): cell for k, cell in rl_rates.items()},
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = [
        [
            k,
            sim_rates[k]["member"],
            sim_rates[k]["fused"],
            sim_rates[k]["speedup"],
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
            ["K", "sim member t/s", "sim fused t/s", "sim speedup",
             "rl tr/s", "rl unroll ms", "rl update ms", "rl vs K=1"],
            rows,
            floatfmt=".2f",
        ),
    )

    ratio = sim_rates[8]["speedup"]
    assert ratio >= 3.0, (
        f"fused K=8 sim unroll must run >= 3x the per-member loop, got {ratio:.2f}x"
    )
    # the fused path must never lose throughput as members are added
    fused = [sim_rates[k]["fused"] for k in MEMBER_COUNTS]
    assert fused == sorted(fused), f"fused throughput should grow with K: {fused}"
    assert np.isfinite([c["transitions_per_s"] for c in rl_rates.values()]).all()
