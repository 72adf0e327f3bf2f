"""The documented public API surface."""

import importlib

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing name {name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.nn",
            "repro.graphs",
            "repro.platforms",
            "repro.sim",
            "repro.schedulers",
            "repro.rl",
            "repro.eval",
            "repro.utils",
            "repro.cli",
            "repro.obs",
            "repro.spec",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    def test_quickstart_objects_compose(self):
        """The README quickstart types wire together."""
        env = repro.SchedulingEnv(
            repro.cholesky_dag(2),
            repro.Platform(1, 1),
            repro.CHOLESKY_DURATIONS,
            repro.GaussianNoise(0.1),
            window=1,
            rng=0,
        )
        obs = env.reset().obs
        assert obs.num_actions >= 1

    def test_runners_registry_exposed(self):
        assert repro.get("heft") is repro.run_heft
        assert repro.get("mct") is repro.run_mct
        assert "RUNNERS" not in repro.__all__
        assert "make_runner" not in repro.__all__

    def test_scheduler_registry_exposed(self):
        assert "heft" in repro.available()
        assert callable(repro.get("mct"))

    def test_obs_defaults_off(self):
        from repro import obs

        assert obs.TRACER.enabled is False
        assert obs.METRICS.enabled is False

    def test_experiment_spec_exposed(self):
        spec = repro.ExperimentSpec(workload={"tiles": 3})
        assert spec.to_dict()["workload"]["tiles"] == 3


class TestCuratedAll:
    """repro.__all__ is the curated public surface — enforced, not advisory."""

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_spec_first_entrypoints_exported(self):
        for name in ("ExperimentSpec", "make_env", "make_train_env"):
            assert name in repro.__all__

    def test_checkpoint_api_exported(self):
        for name in (
            "TrainingCheckpoint",
            "save_checkpoint",
            "load_checkpoint",
            "trainer_from_checkpoint",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_reset_protocol_types_exported(self):
        assert "ResetResult" in repro.__all__
        assert "VecResetResult" in repro.__all__

    def test_register_decorator_exported(self):
        assert "register" in repro.__all__
        decorator = repro.register("test-only-scheduler")
        assert callable(decorator)
        # the decorator form registers on application, not on creation
        assert "test-only-scheduler" not in repro.available()

    def test_trainer_factories_are_the_documented_entrypoints(self):
        assert callable(repro.ReadysTrainer.from_spec)
        assert callable(repro.ReadysTrainer.from_checkpoint)

    def test_one_evaluation_driver_exported(self):
        import repro.policy

        assert "evaluate_policy" in repro.__all__
        assert "evaluate_policy" in repro.policy.__all__
        assert "evaluate_streaming" not in repro.policy.__all__
        assert not hasattr(repro.policy, "evaluate_streaming")
