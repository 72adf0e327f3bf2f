"""Spec-first construction API: factories, the deprecation shim, JSON round-trip."""

import json
import os
import warnings

import pytest

import repro
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.sim.env import SchedulingEnv
from repro.sim.vec_env import VecSchedulingEnv
from repro.spec import ExperimentSpec, ServeSpec, make_env, make_train_env


class TestSpecFirstConstruction:
    def test_make_env_module_function(self):
        spec = ExperimentSpec(tiles=3)
        env = make_env(spec)
        assert isinstance(env, SchedulingEnv)
        assert env.window == spec.window

    def test_make_train_env_module_function(self):
        assert isinstance(
            make_train_env(ExperimentSpec(tiles=2)), SchedulingEnv
        )
        assert isinstance(
            make_train_env(ExperimentSpec(tiles=2, num_envs=3)), VecSchedulingEnv
        )

    def test_entrypoints_reexported_at_top_level(self):
        assert repro.make_env is make_env
        assert repro.make_train_env is make_train_env

    def test_from_spec_trains(self):
        trainer = ReadysTrainer.from_spec(
            ExperimentSpec(tiles=2), config=A2CConfig(unroll_length=4)
        )
        result = trainer.train_updates(1)
        assert len(result.update_stats) == 1
        assert trainer.spec == ExperimentSpec(tiles=2)

    def test_from_spec_matches_manual_composition(self):
        spec = ExperimentSpec(tiles=3, num_envs=2, seed=4)
        config = A2CConfig(unroll_length=5)
        a = ReadysTrainer.from_spec(spec, config=config).train_updates(2)
        b = ReadysTrainer.from_components(
            spec.make_train_env(), config=config, rng=spec.seed
        ).train_updates(2)
        assert [s.policy_loss for s in a.update_stats] == [
            s.policy_loss for s in b.update_stats
        ]


class TestRemovedLooseKwargCtor:
    """The PR 4 deprecation graduated: direct construction is a TypeError."""

    def test_direct_construction_raises_with_migration_hint(self):
        env = make_env(ExperimentSpec(tiles=2))
        with pytest.raises(TypeError, match="from_spec"):
            ReadysTrainer(env, rng=0)

    def test_error_names_both_factories(self):
        with pytest.raises(TypeError, match="from_components"):
            ReadysTrainer(make_env(ExperimentSpec(tiles=2)))

    def test_factories_do_not_warn_or_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReadysTrainer.from_spec(ExperimentSpec(tiles=2))
            ReadysTrainer.from_components(make_env(ExperimentSpec(tiles=2)), rng=0)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            kernel="lu", tiles=5, sigma=0.2,
            checkpoint_every=10, resume="runs/ck.pkl",
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_json_is_a_sorted_object(self):
        data = json.loads(ExperimentSpec().to_json())
        assert isinstance(data, dict)
        assert list(data) == sorted(data)
        assert {"checkpoint_every", "resume"} <= set(data)

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_json("[1, 2]")

    def test_from_dict_ignores_unknown_keys(self):
        spec = ExperimentSpec.from_dict({"tiles": 3, "not_a_field": 1})
        assert spec.tiles == 3
        # dicts written while compiled updates were optional still load
        spec = ExperimentSpec.from_dict({"tiles": 3, "compiled_train": True})
        assert spec.tiles == 3
        assert "compiled_train" not in spec.to_dict()


class TestRemovedWorkersField:
    """``workers`` left the spec with the multiprocess rollout pool."""

    FIXTURE = os.path.join(
        os.path.dirname(__file__), "fixtures", "spec_pr7_workers.json"
    )

    def test_multi_worker_spec_is_refused(self):
        with open(self.FIXTURE) as fh:
            payload = fh.read()
        assert json.loads(payload)["workers"] == 2
        with pytest.raises(ValueError, match="workers=2.*num_envs"):
            ExperimentSpec.from_json(payload)

    def test_single_worker_spec_still_loads(self):
        spec = ExperimentSpec.from_dict(
            {"workload": {"name": "single", "tiles": 3}, "num_envs": 2,
             "workers": 1}
        )
        assert spec.tiles == 3
        assert spec.num_envs == 2
        assert "workers" not in spec.to_dict()


class TestServeSpec:
    def test_defaults(self):
        spec = ServeSpec()
        assert spec.host == "127.0.0.1"
        assert spec.unix_socket is None
        assert spec.max_batch == 32
        assert spec.queue_cap == 256

    def test_json_round_trip_is_a_sorted_object(self):
        spec = ServeSpec(unix_socket="/tmp/x.sock", max_batch=8, port=0)
        assert ServeSpec.from_json(spec.to_json()) == spec
        data = json.loads(spec.to_json())
        assert list(data) == sorted(data)

    def test_unknown_key_gets_a_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'max_batch'"):
            ServeSpec.from_dict({"max_batchs": 8})

    def test_unknown_key_without_close_match_lists_valid_keys(self):
        with pytest.raises(ValueError, match="valid keys"):
            ServeSpec.from_dict({"zzz": 1})

    def test_validation(self):
        with pytest.raises(ValueError, match="port"):
            ServeSpec(port=70000)
        with pytest.raises(ValueError, match="max_batch"):
            ServeSpec(max_batch=0)
        with pytest.raises(ValueError, match="queue_cap"):
            ServeSpec(queue_cap=0)
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeSpec(deadline_ms=0)

    def test_from_args_skips_unset_attributes(self):
        class Args:
            max_batch = 4
            port = None  # CLI default: fall back to the spec default

        spec = ServeSpec.from_args(Args())
        assert spec.max_batch == 4
        assert spec.port == ServeSpec().port

    def test_replace(self):
        spec = ServeSpec().replace(queue_cap=7)
        assert spec.queue_cap == 7
        assert spec.max_batch == ServeSpec().max_batch


class TestNewSpecFields:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.checkpoint_every == 0
        assert spec.resume is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(checkpoint_every=-1)
        with pytest.raises(ValueError):
            ExperimentSpec(resume=123)


class TestWorkloadSpec:
    def test_defaults_describe_the_static_setting(self):
        from repro.spec import WorkloadSpec

        wl = WorkloadSpec()
        assert wl.name == "single"
        assert wl.arrival == "none"
        assert not wl.is_streaming

    def test_unknown_registry_name_raises(self):
        from repro.spec import WorkloadSpec

        with pytest.raises(KeyError, match="available"):
            WorkloadSpec(name="no-such-workload")

    def test_strict_from_dict_with_did_you_mean(self):
        from repro.spec import WorkloadSpec

        with pytest.raises(ValueError, match="did you mean 'arrival'"):
            WorkloadSpec.from_dict({"arival": "poisson"})
        with pytest.raises(ValueError, match="valid keys"):
            WorkloadSpec.from_dict({"zzzz": 1})

    def test_validation(self):
        from repro.spec import WorkloadSpec

        with pytest.raises(ValueError, match="arrival"):
            WorkloadSpec(arrival="weibull")
        with pytest.raises(ValueError, match="rate"):
            WorkloadSpec(rate=0.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            WorkloadSpec(arrival="trace", trace=(3.0, 1.0))
        with pytest.raises(ValueError, match="needs a trace"):
            WorkloadSpec(arrival="trace")
        with pytest.raises(ValueError, match="not both"):
            WorkloadSpec(arrival="trace", trace=(0.0,), trace_file="t.txt")
        with pytest.raises(ValueError, match="horizon_time"):
            WorkloadSpec(arrival="poisson", horizon_time=-1.0)

    def test_json_round_trip(self):
        from repro.spec import WorkloadSpec

        wl = WorkloadSpec(
            name="mixed-families", families=("cholesky", "lu"),
            tile_choices=(2, 3), arrival="trace", trace=(0.0, 4.5),
        )
        assert WorkloadSpec.from_json(wl.to_json()) == wl

    def test_streaming_spec_builds_streaming_env(self):
        from repro.sim.streaming import StreamingSchedulingEnv, VecStreamingEnv

        spec = ExperimentSpec(workload={
            "name": "mixed-families", "arrival": "poisson",
            "rate": 0.01, "num_jobs": 3,
        })
        assert spec.workload.is_streaming
        assert spec.reward_mode == "jct"  # dense default maps to jct
        assert isinstance(spec.make_env(), StreamingSchedulingEnv)
        assert isinstance(
            spec.replace(num_envs=2).make_train_env(), VecStreamingEnv
        )

    def test_streaming_reward_mode_needs_streaming_workload(self):
        with pytest.raises(ValueError, match="streaming workload"):
            ExperimentSpec(reward_mode="slowdown")

    def test_terminal_maps_to_makespan_on_streaming(self):
        spec = ExperimentSpec(
            reward_mode="terminal",
            workload={"name": "single", "arrival": "trace", "trace": [0.0]},
        )
        assert spec.reward_mode == "makespan"


class TestWorkloadDeprecationShim:
    def test_loose_keys_warn_and_auto_wrap(self):
        with pytest.warns(DeprecationWarning, match="workload"):
            spec = ExperimentSpec.from_dict({"kernel": "lu", "tiles": 5})
        assert spec.workload.name == "single"
        assert spec.workload.kernel == "lu"
        assert spec.workload.tiles == 5

    def test_nested_workload_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentSpec.from_dict(
                {"workload": {"name": "single", "kernel": "lu", "tiles": 5}}
            )

    def test_mirror_fields_follow_the_nested_workload(self):
        spec = ExperimentSpec(workload={"name": "single", "kernel": "qr",
                                        "tiles": 6, "sigma": 0.3})
        assert (spec.kernel, spec.tiles, spec.sigma) == ("qr", 6, 0.3)

    def test_replace_on_a_mirror_updates_the_workload(self):
        spec = ExperimentSpec(tiles=4).replace(tiles=7)
        assert spec.tiles == 7
        assert spec.workload.tiles == 7

    def test_every_fixture_spec_round_trips_through_the_shim(self):
        """Every pre-streaming spec JSON in tests/fixtures loads (with the
        deprecation warning), preserves its loose fields as mirrors, and
        round-trips cleanly in the new nested format.  The multi-worker
        fixture is refused instead (TestRemovedWorkersField)."""
        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        paths = sorted(
            os.path.join(fixtures, f)
            for f in os.listdir(fixtures)
            if f.startswith("spec_") and f.endswith(".json")
            and f != os.path.basename(TestRemovedWorkersField.FIXTURE)
        )
        assert paths  # the fixture set must not silently vanish
        for path in paths:
            with open(path) as fh:
                old = json.load(fh)
            with pytest.warns(DeprecationWarning):
                spec = ExperimentSpec.from_json(json.dumps(old))
            for key in ("kernel", "tiles", "noise", "sigma"):
                if key in old:
                    assert getattr(spec, key) == old[key], path
            assert spec.workload is not None
            assert not spec.workload.is_streaming
            # the re-serialised (nested) form round-trips without warning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert ExperimentSpec.from_json(spec.to_json()) == spec
