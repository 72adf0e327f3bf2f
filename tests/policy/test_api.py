"""The unified Policy API: adapters, clients, and environment-driven eval."""

import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.policy import (
    AgentPolicy,
    InProcessClient,
    Policy,
    SchedulerPolicy,
    action_for_task,
    agent_policy_from_checkpoint,
    checkpoint_fingerprint,
    evaluate_policy,
    policy_fingerprint,
)
from repro.rl.trainer import default_agent
from repro.rl.transfer import save_agent
from repro.schedulers import registry
from repro.schedulers.listsched import GreedyScheduler
from repro.sim.env import SchedulingEnv
from repro.spec import ExperimentSpec


def make_env(tiles=3, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=2, rng=rng,
    )


class TestActionForTask:
    def test_task_maps_to_its_ready_index(self):
        obs = make_env().reset(seed=0).obs
        for index, task in enumerate(obs.ready_tasks):
            assert action_for_task(obs, int(task)) == index

    def test_none_is_the_pass_action(self):
        obs = make_env().reset(seed=0).obs
        if obs.allow_pass:
            assert action_for_task(obs, None) == len(obs.ready_tasks)

    def test_illegal_pass_raises(self):
        obs = make_env().reset(seed=0).obs
        if obs.allow_pass:
            obs = type(obs)(
                features=obs.features, norm_adj=obs.norm_adj,
                ready_positions=obs.ready_positions,
                ready_tasks=obs.ready_tasks,
                proc_features=obs.proc_features,
                current_proc=obs.current_proc, allow_pass=False,
            )
        with pytest.raises(ValueError, match="idle"):
            action_for_task(obs, None)

    def test_non_ready_task_raises(self):
        obs = make_env().reset(seed=0).obs
        with pytest.raises(ValueError, match="not ready"):
            action_for_task(obs, 10_000)


class TestAgentPolicy:
    def test_greedy_matches_the_agent(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        policy = AgentPolicy(agent)
        obs = env.reset(seed=0).obs
        assert policy.decide(obs) == int(agent.greedy_action(obs))
        assert policy.decide_many([obs, obs]) == [policy.decide(obs)] * 2

    def test_empty_batch(self):
        assert AgentPolicy(default_agent(make_env(), rng=0)).decide_many([]) == []

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AgentPolicy(default_agent(make_env(), rng=0), mode="argmax")

    def test_sampling_is_seed_reproducible(self):
        env = make_env()
        agent = default_agent(env, rng=0)
        obs = env.reset(seed=0).obs
        a = AgentPolicy(agent, mode="sample", rng=7).decide_many([obs] * 8)
        b = AgentPolicy(agent, mode="sample", rng=7).decide_many([obs] * 8)
        assert a == b

    def test_satisfies_the_protocol(self):
        assert isinstance(AgentPolicy(default_agent(make_env(), rng=0)), Policy)

    def test_checkpoint_loader(self, tmp_path):
        env = make_env()
        agent = default_agent(env, rng=0)
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        policy = agent_policy_from_checkpoint(path)
        obs = env.reset(seed=0).obs
        assert policy.decide(obs) == int(agent.greedy_action(obs))


class TestSchedulerAdapters:
    def test_observation_mode_matches_sim_mode_action_for_action(self):
        """Served greedy-eft must reproduce the sim-path baseline exactly."""
        env = make_env()
        result = env.reset(seed=0)
        sim_side = GreedyScheduler()
        sim_side.reset(env.sim)
        obs_side = GreedyScheduler().as_policy()
        observation, done = result.obs, False
        steps = 0
        while not done:
            action = obs_side.decide(observation)
            task = sim_side.select(env.sim, int(observation.current_proc))
            assert action == action_for_task(observation, task)
            step = env.step(action)
            observation, done = step.obs, step.done
            steps += 1
        assert steps >= 10  # every decision of the episode was compared

    def test_registry_lists_the_servable_set(self):
        assert set(registry.servable()) >= {
            "fifo", "greedy-eft", "heft", "random"
        }

    def test_queue_driven_schedulers_are_not_servable(self):
        with pytest.raises(ValueError, match="servable"):
            registry.get_policy("mct")

    def test_unservable_scheduler_explains_itself(self):
        from repro.schedulers.listsched import RankPriorityScheduler

        with pytest.raises(NotImplementedError, match="observation"):
            RankPriorityScheduler().decide_observation(
                make_env().reset(seed=0).obs
            )

    def test_heft_policy_needs_a_spec(self):
        with pytest.raises(ValueError, match="spec"):
            registry.get_policy("heft")

    def test_heft_policy_replays_across_episodes(self):
        spec = ExperimentSpec(workload={"tiles": 3})
        policy = registry.get_policy("heft", spec=spec)
        records = evaluate_policy(spec.make_env(), policy, episodes=2, seed=0)
        assert len(records) == 2
        for record in records:
            assert record.makespan == pytest.approx(record.heft_makespan)

    def test_sim_bound_adapter_requires_reset_with_sim(self):
        policy = SchedulerPolicy(GreedyScheduler(), sim=None)
        # GreedyScheduler is servable, so a sim-free adapter is legal...
        obs = make_env().reset(seed=0).obs
        policy.reset()
        assert 0 <= policy.decide(obs) < len(obs.ready_tasks)


class TestInProcessClient:
    def test_counts_decisions_and_closes(self):
        env = make_env()
        obs = env.reset(seed=0).obs
        client = InProcessClient(GreedyScheduler().as_policy())
        client.decide(obs)
        client.decide_many([obs, obs])
        assert client.stats() == {"decisions_total": 3.0}
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.decide(obs)

    def test_codec_roundtrip_changes_no_decision(self):
        env = make_env()
        obs = env.reset(seed=0).obs
        policy = GreedyScheduler().as_policy()
        client = InProcessClient(policy)
        assert client.decide(obs) == policy.decide(obs)
        assert client.decide_many([obs, obs]) == policy.decide_many([obs, obs])

    def test_reset_forwards_to_stateful_policies(self):
        calls = []

        class Stateful:
            def decide(self, obs):
                return 0

            def decide_many(self, obs_list):
                return [0] * len(obs_list)

            def reset(self):
                calls.append(True)

        with InProcessClient(Stateful()) as client:
            client.reset()
        assert calls == [True]


class TestEvaluatePolicy:
    def test_rejects_zero_episodes(self):
        with pytest.raises(ValueError):
            evaluate_policy(make_env(), GreedyScheduler().as_policy(), episodes=0)

    def test_same_seed_is_row_identical(self):
        env = make_env()
        policy = GreedyScheduler().as_policy()
        a = evaluate_policy(env, policy, episodes=3, seed=42)
        b = evaluate_policy(env, policy, episodes=3, seed=42)
        assert a == b  # full records, actions included

    def test_records_carry_the_full_action_row(self):
        env = make_env()
        records = evaluate_policy(
            env, GreedyScheduler().as_policy(), episodes=1, seed=0
        )
        assert records[0].num_decisions == len(records[0].actions) > 0
        assert records[0].makespan > 0
        assert records[0].heft_makespan > 0

    def test_client_wrapped_policy_is_row_identical_to_bare(self):
        env = make_env()
        bare = evaluate_policy(
            env, GreedyScheduler().as_policy(), episodes=2, seed=7
        )
        wrapped = evaluate_policy(
            env,
            InProcessClient(GreedyScheduler().as_policy()),
            episodes=2,
            seed=7,
        )
        assert bare == wrapped


class TestFingerprints:
    def test_checkpoint_fingerprint_is_content_not_path(self, tmp_path):
        agent = default_agent(make_env(), rng=0)
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        save_agent(agent, a)
        save_agent(agent, b)
        assert checkpoint_fingerprint(a) == checkpoint_fingerprint(b)
        other = str(tmp_path / "c.npz")
        save_agent(default_agent(make_env(), rng=1), other)
        assert checkpoint_fingerprint(other) != checkpoint_fingerprint(a)

    def test_policy_fingerprint_is_order_insensitive(self):
        a = policy_fingerprint("scheduler", {"name": "fifo", "seed": 1})
        b = policy_fingerprint("scheduler", {"seed": 1, "name": "fifo"})
        assert a == b
        assert a != policy_fingerprint("scheduler", {"name": "fifo", "seed": 2})
