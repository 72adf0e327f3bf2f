"""Extract a static plan from a trained agent ("agent as planner").

A trained READYS policy is a *dynamic* scheduler, but running it once under
expected durations (σ = 0) yields a concrete schedule that can be frozen
into a :class:`~repro.schedulers.heft.StaticSchedule` — the same artefact
HEFT produces.  This enables two practically interesting comparisons:

* **agent-as-planner**: replay the frozen plan under noise, head-to-head
  with HEFT's plan — isolating the quality of the agent's *placement and
  ordering* from its runtime adaptivity;
* **adaptivity value**: the gap between the frozen plan and the live agent
  under the same noise measures exactly how much of READYS's advantage
  comes from reacting at runtime (the paper's central claim).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.platforms.noise import NoNoise
from repro.rl.agent import ReadysAgent
from repro.schedulers.heft import StaticSchedule
from repro.sim.engine import Simulation
from repro.sim.env import SchedulingEnv, run_policy
from repro.utils.seeding import SeedLike


def extract_static_schedule(
    agent: ReadysAgent,
    env: SchedulingEnv,
) -> StaticSchedule:
    """Freeze one greedy σ=0 rollout of ``agent`` into a static plan.

    The environment's noise model is bypassed (a deterministic copy of the
    instance is scheduled); the resulting plan has the agent's processor
    assignment and per-processor order with the deterministic timings.
    """
    graph = env._sample_graph()
    det_env = SchedulingEnv(
        graph, env.platform, env.durations, NoNoise(),
        window=env.window, rng=0,
    )
    run_policy(det_env, agent.greedy_action)
    sim = det_env.sim
    assert sim is not None and sim.done

    n = graph.num_tasks
    proc_of = np.full(n, -1, dtype=np.int64)
    start = np.zeros(n)
    finish = np.zeros(n)
    for entry in sim.trace:
        proc_of[entry.task] = entry.proc
        start[entry.task] = entry.start
        finish[entry.task] = entry.finish
    proc_order: List[List[int]] = []
    for proc in range(env.platform.num_processors):
        tasks = np.flatnonzero(proc_of == proc)
        proc_order.append(list(tasks[np.argsort(start[tasks], kind="stable")]))
    schedule = StaticSchedule(proc_of, start, finish, proc_order)
    schedule.validate(graph)
    return schedule


def adaptivity_gap(
    agent: ReadysAgent,
    env: SchedulingEnv,
    seeds: int = 5,
    seed: SeedLike = 0,
) -> dict:
    """Quantify how much of the agent's performance is runtime adaptivity.

    Returns mean makespans of (a) the live agent under the env's noise and
    (b) its frozen plan replayed under that noise model, plus their ratio
    (>1 ⇒ adapting at runtime beats replaying the own plan).  Each seed
    pairs one live episode with one replay: both draw from their own copy
    of the seed's generator, starting from the same state, so the replay's
    noise does not depend on how many draws the live episode took.  (The
    two runs start tasks in different orders, so a draw need not land on
    the same task in both.)
    """
    from repro.rl.trainer import evaluate_agent
    from repro.schedulers.static_executor import run_static
    from repro.utils.seeding import generator_state, restore_generator, spawn_generators

    plan = extract_static_schedule(agent, env)
    graph = env._sample_graph()

    live: List[float] = []
    frozen: List[float] = []
    for rng in spawn_generators(seed, seeds):
        replay_rng = restore_generator(generator_state(rng))
        live_env = SchedulingEnv(
            graph, env.platform, env.durations, env.noise,
            window=env.window, rng=rng,
        )
        live.extend(evaluate_agent(agent, live_env, episodes=1, rng=rng))
        sim = Simulation(graph, env.platform, env.durations, env.noise, rng=replay_rng)
        frozen.append(run_static(sim, plan, rng=replay_rng))
    return {
        "live_mean": float(np.mean(live)),
        "frozen_mean": float(np.mean(frozen)),
        "adaptivity_ratio": float(np.mean(frozen) / np.mean(live)),
        "plan_makespan": plan.makespan,
    }
