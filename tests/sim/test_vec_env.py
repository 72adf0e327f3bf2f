"""VecSchedulingEnv: lockstep stepping, auto-reset, seeding, validation."""

import re

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS, DurationTable
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.sim.env import SchedulingEnv
from repro.sim.state import Observation
from repro.sim.vec_env import VecSchedulingEnv


def make_env(tiles=2, window=2, rng=0, **kwargs):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=window, rng=rng, **kwargs,
    )


def make_vec(k, tiles=2, seed=0):
    return VecSchedulingEnv.from_factory(
        lambda rng: make_env(tiles=tiles, rng=rng), k, seed=seed
    )


def random_rollout(vec, rng, steps):
    """Step with uniformly random legal actions; returns the step tuples."""
    out = []
    obs = vec.reset().obs
    for _ in range(steps):
        actions = [int(rng.integers(o.num_actions)) for o in obs]
        obs, rewards, dones, infos = vec.step(actions)
        out.append((obs, rewards, dones, infos))
    return out


class TestConstruction:
    def test_empty_member_list_raises(self):
        with pytest.raises(ValueError):
            VecSchedulingEnv([])

    def test_mismatched_windows_raise(self):
        with pytest.raises(ValueError, match="window"):
            VecSchedulingEnv([make_env(window=1), make_env(window=2)])

    def test_mismatched_kernel_counts_raise(self):
        # one extra kernel type: still valid for the graph (type ids fit),
        # but the observation feature width would differ across members
        other = DurationTable(
            kernel_names=CHOLESKY_DURATIONS.kernel_names + ("extra",),
            cpu=list(CHOLESKY_DURATIONS.table[:, 0]) + [1.0],
            gpu=list(CHOLESKY_DURATIONS.table[:, 1]) + [1.0],
        )
        odd = SchedulingEnv(
            cholesky_dag(2), Platform(2, 2), other, NoNoise(), window=2, rng=0
        )
        with pytest.raises(ValueError, match="kernel"):
            VecSchedulingEnv([make_env(), odd])

    def test_mismatched_feature_widths_raise(self):
        # a streaming member appends two job columns to the static layout:
        # 18 vs 20 feature columns cannot share one agent forward pass
        from repro.graphs import workloads
        from repro.sim.streaming import StreamingSchedulingEnv, TraceArrivals

        streaming = StreamingSchedulingEnv(
            workloads.get("single", kernel="cholesky", tiles=2),
            Platform(2, 2), arrival=TraceArrivals([0.0]), rng=0,
        )
        with pytest.raises(ValueError, match=r"feature width.*\[18, 20\]"):
            VecSchedulingEnv([make_env(), streaming])

    def test_from_factory_builds_k_members(self):
        vec = make_vec(3)
        assert vec.num_envs == 3
        assert vec.window == 2
        assert vec.platform.num_processors == 4
        assert vec.durations is vec.envs[0].durations

    def test_from_factory_rejects_zero(self):
        with pytest.raises(ValueError):
            make_vec(0)


class TestStepping:
    def test_reset_returns_one_observation_per_member(self):
        vec = make_vec(4)
        obs = vec.reset().obs
        assert len(obs) == 4
        assert all(isinstance(o, Observation) for o in obs)

    def test_step_shapes_and_dtypes(self):
        vec = make_vec(3)
        obs = vec.reset().obs
        observations, rewards, dones, infos = vec.step([0] * 3)
        assert len(observations) == 3 and len(infos) == 3
        assert rewards.shape == (3,) and rewards.dtype == np.float64
        assert dones.shape == (3,) and dones.dtype == bool

    def test_wrong_action_count_raises(self):
        vec = make_vec(2)
        vec.reset().obs
        with pytest.raises(ValueError, match="actions"):
            vec.step([0])

    @pytest.mark.parametrize("action", [0.5, -0.5, np.float64(0.7)],
                             ids=["half", "negative-half", "np-float64"])
    def test_fractional_action_refused_before_any_member_changes(self, action):
        vec = make_vec(2, tiles=3)
        vec.reset()
        times = [env.sim.time for env in vec.envs]
        ready = [env.sim.ready.copy() for env in vec.envs]
        with pytest.raises(ValueError, match=re.escape(f"action {action!r} is not an integer")):
            vec.step([0, action])  # member 0's valid action is not applied
        assert [env.sim.time for env in vec.envs] == times
        for env, before in zip(vec.envs, ready):
            assert np.array_equal(env.sim.ready, before)

    def test_numpy_integer_actions_accepted(self):
        a, b = make_vec(2, tiles=3), make_vec(2, tiles=3)
        a.reset()
        b.reset()
        step_a = a.step([0, 0])
        step_b = b.step(np.zeros(2, dtype=np.int64))
        assert np.array_equal(step_a.rewards, step_b.rewards)
        assert np.array_equal(step_a.obs.feats, step_b.obs.feats)

    def test_auto_reset_returns_fresh_observation(self):
        # tiles=2 episodes are short; always picking action 0 finishes them
        vec = make_vec(1)
        rng = np.random.default_rng(0)
        steps = random_rollout(vec, rng, steps=60)
        finished = [(obs, infos) for obs, _r, dones, infos in steps if dones[0]]
        assert finished, "no episode ended in 60 random steps"
        for obs, infos in finished:
            assert isinstance(obs[0], Observation)  # post-reset, not None
            assert infos[0]["makespan"] > 0

    def test_members_progress_independently(self):
        # different seeds → different processor draws → different episode
        # lengths; dones must not be forced into lockstep
        vec = make_vec(4, seed=123)
        rng = np.random.default_rng(7)
        done_counts = np.zeros(4, dtype=int)
        obs = vec.reset().obs
        for _ in range(80):
            actions = [int(rng.integers(o.num_actions)) for o in obs]
            obs, _rewards, dones, _infos = vec.step(actions)
            done_counts += dones
        assert done_counts.sum() > 0

    def test_seeded_members_are_reproducible(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        steps_a = random_rollout(make_vec(3, seed=9), rng_a, 40)
        steps_b = random_rollout(make_vec(3, seed=9), rng_b, 40)
        for (_, ra, da, _), (_, rb, db, _) in zip(steps_a, steps_b):
            np.testing.assert_array_equal(ra, rb)
            np.testing.assert_array_equal(da, db)

    def test_k1_step_matches_plain_env_stream(self):
        """K=1 vec stepping consumes the member RNG exactly like the legacy
        loop (step, reset-on-done) — the bit-reproducibility contract."""
        vec = VecSchedulingEnv([make_env(rng=31)])
        plain = make_env(rng=31)
        rng = np.random.default_rng(3)
        vec_obs = vec.reset().obs
        plain_obs = plain.reset().obs
        for _ in range(50):
            action = int(rng.integers(vec_obs[0].num_actions))
            assert vec_obs[0].num_actions == plain_obs.num_actions
            vec_obs, v_r, v_d, _ = vec.step([action])
            p_obs, p_r, p_d, _ = plain.step(action)
            assert v_r[0] == p_r and v_d[0] == p_d
            if p_d:
                p_obs = plain.reset().obs
            np.testing.assert_array_equal(vec_obs[0].features, p_obs.features)
            plain_obs = p_obs


class TestVecResetProtocol:
    """Vectorised Gym 0.26 reset: (obs, infos) lists plus seed spawning."""

    def test_reset_returns_obs_infos_pair(self):
        vec = make_vec(3)
        obs, infos = vec.reset()
        assert len(obs) == 3 and len(infos) == 3
        assert all(i["heft_makespan"] > 0 for i in infos)

    def test_reset_seed_derives_member_streams_from_one_root(self):
        vec = make_vec(2)
        vec.reset(seed=5)
        a = [env.rng.random() for env in vec.envs]
        vec.reset(seed=5)
        b = [env.rng.random() for env in vec.envs]
        assert a == b
        assert a[0] != a[1]  # members get distinct spawned streams
