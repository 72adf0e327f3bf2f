"""Every rerouted rollout is bitwise equal to a plain reset→step loop.

:func:`repro.sim.env.run_policy` is the one single-environment episode loop:
``evaluate_agent``'s single-env branch, ``inference_timing``,
``extract_static_schedule`` and ``evaluate_policy`` all roll their episodes
through it.  :func:`reference_episode` below is a plain reset→step loop;
this file holds every one of them to it, bit for bit, the way
``tests/reference_tape.py`` holds compiled training to the autograd tape.
Streaming records are held to ``fixtures/streaming_episode_records.json``,
written by the separate streaming evaluation loop that ``evaluate_policy``
replaced.
"""

import json
import os

import numpy as np
import pytest

from repro.eval.profiling import inference_timing
from repro.platforms.noise import NoNoise
from repro.policy import (
    AgentPolicy,
    EpisodeRecord,
    StreamingEpisodeRecord,
    evaluate_policy,
)
from repro.rl.plan_extraction import extract_static_schedule
from repro.rl.trainer import default_agent, evaluate_agent
from repro.schedulers import EnvBoundSchedulerPolicy
from repro.schedulers.registry import get_entry
from repro.sim.env import SchedulingEnv, run_policy
from repro.spec import ExperimentSpec
from repro.utils.seeding import spawn_seed_sequences

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "streaming_episode_records.json"
)
STATIC_SPEC = ExperimentSpec(seed=4, workload={"tiles": 3, "sigma": 0.3})


def reference_episode(env, decide, seed=None):
    """A plain reset→step-until-done loop: ``(terminal step, actions)``."""
    observation = env.reset(seed=seed).obs
    actions = []
    while True:
        action = decide(observation)
        actions.append(int(action))
        result = env.step(action)
        if result.done:
            return result, actions
        observation = result.obs


@pytest.fixture(scope="module")
def agent():
    return default_agent(STATIC_SPEC.make_env(), rng=0)


class TestEvaluateAgent:
    def test_greedy_matches_the_reference_loop(self, agent):
        reference_env = STATIC_SPEC.make_env()
        expected = [
            reference_episode(reference_env, agent.greedy_action)[0].info["makespan"]
            for _ in range(3)
        ]
        assert evaluate_agent(agent, STATIC_SPEC.make_env(), episodes=3) == expected

    def test_sampled_matches_the_reference_loop(self, agent):
        reference_env, rng = STATIC_SPEC.make_env(), np.random.default_rng(5)
        expected = [
            reference_episode(
                reference_env, lambda obs: agent.sample_action(obs, rng)
            )[0].info["makespan"]
            for _ in range(3)
        ]
        got_rng = np.random.default_rng(5)
        got = evaluate_agent(
            agent, STATIC_SPEC.make_env(), episodes=3, greedy=False, rng=got_rng
        )
        assert got == expected
        assert got_rng.random() == rng.random()  # same draws consumed


class TestInferenceTiming:
    def test_window_sizes_and_rollouts_match_the_reference_loop(self, agent):
        reference_env, rng = STATIC_SPEC.make_env(), np.random.default_rng(2)
        sizes = []

        def decide(obs):
            sizes.append(obs.num_nodes)
            return agent.sample_action(obs, rng)

        finals = [reference_episode(reference_env, decide)[0] for _ in range(2)]
        env, got_rng = STATIC_SPEC.make_env(), np.random.default_rng(2)
        samples = inference_timing(agent, env, episodes=2, rng=got_rng)
        assert [size for size, _seconds in samples] == sizes
        assert all(seconds >= 0 for _size, seconds in samples)
        assert env.sim.makespan == finals[-1].info["makespan"]
        assert env.sim.trace == reference_env.sim.trace
        assert got_rng.random() == rng.random()


class TestExtractStaticSchedule:
    def test_plan_is_the_reference_greedy_rollout(self, agent):
        env = STATIC_SPEC.make_env()
        plan = extract_static_schedule(agent, env)
        graph = env._sample_graph()
        det_env = SchedulingEnv(
            graph, env.platform, env.durations, NoNoise(),
            window=env.window, rng=0,
        )
        reference_episode(det_env, agent.greedy_action)
        trace = det_env.sim.trace
        assert len(trace) == graph.num_tasks
        for entry in trace:
            assert plan.proc_of[entry.task] == entry.proc
            assert plan.start[entry.task] == entry.start
            assert plan.finish[entry.task] == entry.finish


class TestEvaluatePolicy:
    def test_static_records_match_the_reference_loop(self, agent):
        policy = AgentPolicy(agent)
        reference_env = STATIC_SPEC.make_env()
        expected = []
        for child in spawn_seed_sequences(9, 3):
            result, actions = reference_episode(
                reference_env, policy.decide, seed=child
            )
            expected.append(EpisodeRecord(
                makespan=result.info["makespan"],
                heft_makespan=result.info["heft_makespan"],
                reward=result.reward,
                actions=tuple(actions),
            ))
        assert evaluate_policy(
            STATIC_SPEC.make_env(), policy, episodes=3, seed=9
        ) == expected

    def test_streaming_records_match_the_frozen_fixture(self):
        with open(FIXTURE) as fh:
            frozen = json.load(fh)
        env = ExperimentSpec.from_dict(frozen["spec"]).make_env()
        policies = {
            "agent-greedy": AgentPolicy(
                default_agent(env, rng=frozen["agent_seed"])
            ),
            "agent-sample": AgentPolicy(
                default_agent(env, rng=frozen["agent_seed"]),
                mode="sample", rng=frozen["sample_seed"],
            ),
            "online-mct": EnvBoundSchedulerPolicy(
                get_entry("online-mct").cls(), env
            ),
        }
        assert set(policies) == set(frozen["records"])
        for name, policy in policies.items():
            expected = [
                StreamingEpisodeRecord(**{
                    key: tuple(value) if isinstance(value, list) else value
                    for key, value in row.items()
                })
                for row in frozen["records"][name]
            ]
            got = evaluate_policy(
                env, policy, episodes=frozen["episodes"], seed=frozen["seed"]
            )
            assert got == expected, name


class TestRunPolicy:
    def test_reports_actions_return_and_reseeds(self, agent):
        env = STATIC_SPEC.make_env()
        info = run_policy(env, agent.greedy_action, seed=3)
        result, actions = reference_episode(
            STATIC_SPEC.make_env(), agent.greedy_action, seed=3
        )
        assert info["actions"] == tuple(actions)
        assert info["makespan"] == result.info["makespan"]
        assert info["reward"] == result.reward
        assert run_policy(env, agent.greedy_action, seed=3) == info

    def test_policy_reset_runs_after_the_env_reset(self):
        env = STATIC_SPEC.make_env()
        assert env.sim is None
        seen = []

        class Stateful:
            def decide(self, obs):
                return 0

            def reset(self):
                seen.append(env.sim is not None)

        run_policy(env, Stateful())
        assert seen == [True]
