"""Streaming-environment throughput vs live-job count (BENCH_streaming.json).

The streaming decision loop pays two per-job overheads the static env does
not: the union graph grows linearly with the number of live jobs (wider
ready sets, larger windows to featurise) and every advance interleaves the
arrival queue with the completion queue.  This bench pins how decisions/s
degrades as jobs pile up: for each J in ``JOB_COUNTS`` an episode of J
identical Cholesky jobs all arriving at t=0 (maximal contention — every job
live at once) is driven to completion by the cheapest possible policy
(always start the first ready task), isolating environment cost from policy
cost.  A second series runs the same episodes under the online-MCT adapter,
the cheapest realistic baseline, to show scheduler pricing on top.

Results are persisted to ``BENCH_streaming.json`` at the repo root.  The
enforced claim is deliberately loose — decisions/s at J=8 stays within 60x
of J=1 for the first-ready policy — a regression fence against accidentally
quadratic per-decision work, not a performance target.
"""

import json
import os
import time

from repro.graphs import workloads
from repro.platforms import NoNoise, Platform
from repro.schedulers import OnlineMCTScheduler
from repro.schedulers.base import EnvBoundSchedulerPolicy
from repro.sim.streaming import StreamingSchedulingEnv, TraceArrivals
from repro.utils.tables import format_table

JOB_COUNTS = (1, 2, 4, 8)
BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_streaming.json"
)


class _FirstReady:
    """The cheapest legal policy: always start the first ready task."""

    def reset(self):
        pass

    def decide(self, observation):
        return 0


def _episode_decision_rate(num_jobs, policy_factory, episodes=3, tiles=4):
    """Mean decisions/s over full episodes with ``num_jobs`` simultaneous jobs."""
    workload = workloads.get("single", kernel="cholesky", tiles=tiles)
    env = StreamingSchedulingEnv(
        workload,
        Platform(2, 2),
        arrival=TraceArrivals([0.0] * num_jobs),
        noise=NoNoise(),
        rng=0,
        reward_mode="jct",
    )
    policy = policy_factory(env)
    decisions = 0
    t0 = time.perf_counter()
    for episode in range(episodes):
        obs = env.reset(seed=episode).obs
        policy.reset()
        while True:
            action = policy.decide(obs)
            result = env.step(action)
            decisions += 1
            if result.done:
                break
            obs = result.obs
    elapsed = time.perf_counter() - t0
    return decisions / elapsed, decisions // episodes


def test_bench_streaming_decisions(benchmark, report):
    def run_measure():
        cells = {}
        for j in JOB_COUNTS:
            env_rate, per_episode = _episode_decision_rate(
                j, lambda env: _FirstReady()
            )
            mct_rate, _ = _episode_decision_rate(
                j, lambda env: EnvBoundSchedulerPolicy(OnlineMCTScheduler(), env)
            )
            cells[j] = {
                "decisions_per_s_env": env_rate,
                "decisions_per_s_online_mct": mct_rate,
                "decisions_per_episode": per_episode,
            }
        return cells

    cells = benchmark.pedantic(run_measure, rounds=1, iterations=1)

    payload = {
        "config": {
            "workload": "single cholesky(4) per job, all arrivals at t=0",
            "platform": "2 CPU + 2 GPU",
            "noise": "none",
            "job_counts": list(JOB_COUNTS),
        },
        "by_job_count": {str(j): cells[j] for j in JOB_COUNTS},
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = [
        [
            j,
            cells[j]["decisions_per_episode"],
            cells[j]["decisions_per_s_env"],
            cells[j]["decisions_per_s_online_mct"],
        ]
        for j in JOB_COUNTS
    ]
    report(
        "BENCH_streaming: decisions per second vs live-job count",
        format_table(
            ["jobs", "decisions/episode", "env-only /s", "online-mct /s"],
            rows,
            floatfmt=".0f",
        ),
    )

    # regression fence: per-decision env cost must not explode with J
    ratio = (
        cells[JOB_COUNTS[0]]["decisions_per_s_env"]
        / cells[JOB_COUNTS[-1]]["decisions_per_s_env"]
    )
    assert ratio < 60.0, f"env decision cost grew {ratio:.1f}x from J=1 to J=8"
