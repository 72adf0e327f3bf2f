"""ExperimentSpec: the shared declarative description of one experiment cell."""

import argparse

import pytest

from repro.sim.env import SchedulingEnv
from repro.sim.vec_env import VecSchedulingEnv
from repro.spec import ExperimentSpec


class TestValidation:
    def test_defaults_valid(self):
        spec = ExperimentSpec()
        assert spec.workload.kernel == "cholesky" and spec.num_envs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workload": {"kernel": "svd"}},
            {"workload": {"noise": "cauchy"}},
            {"workload": {"tiles": 0}},
            {"cpus": 0, "gpus": 0},
            {"workload": {"sigma": -0.1}},
            {"window": -1},
            {"num_envs": 0},
            {"reward_mode": "shaped"},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExperimentSpec().seed = 5  # type: ignore[misc]


class TestConversions:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            workload={"kernel": "lu", "tiles": 5, "sigma": 0.2}, num_envs=4
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = ExperimentSpec.from_dict(
            {"workload": {"kernel": "qr"}, "command": "train"}
        )
        assert spec.workload.kernel == "qr"

    def test_from_args_partial_namespace(self):
        args = argparse.Namespace(cpus=3, gpus=1, seed=9)
        spec = ExperimentSpec.from_args(args)
        assert (spec.cpus, spec.gpus, spec.seed) == (3, 1, 9)
        assert spec.window == 2  # absent attrs fall back to field defaults

    def test_from_args_skips_none(self):
        args = argparse.Namespace(seed=None, window=1)
        assert ExperimentSpec.from_args(args).seed == 0

    def test_replace(self):
        spec = ExperimentSpec().replace(seed=7)
        assert spec.seed == 7
        assert ExperimentSpec().seed == 0


class TestMaterialisation:
    def test_make_instance_shapes(self):
        graph, platform, durations, noise = ExperimentSpec(
            workload={"tiles": 3}, cpus=1, gpus=1
        ).make_instance()
        assert graph.num_tasks > 0
        assert platform.num_processors == 2
        assert durations.num_kernels >= graph.num_types
        assert noise.is_deterministic  # sigma = 0 forces the none model

    def test_sigma_selects_noise_model(self):
        _, _, _, noise = ExperimentSpec(workload={"sigma": 0.2}).make_instance()
        assert not noise.is_deterministic

    def test_make_env(self):
        env = ExperimentSpec(
            workload={"tiles": 2}, window=1, sparse_state=True
        ).make_env()
        assert isinstance(env, SchedulingEnv)
        assert env.window == 1
        obs = env.reset().obs
        assert obs.num_actions >= 1

    def test_make_train_env_single(self):
        assert isinstance(ExperimentSpec(workload={"tiles": 2}).make_train_env(), SchedulingEnv)

    def test_make_train_env_vectorised(self):
        env = ExperimentSpec(workload={"tiles": 2}, num_envs=3).make_train_env()
        assert isinstance(env, VecSchedulingEnv)
        assert env.num_envs == 3
