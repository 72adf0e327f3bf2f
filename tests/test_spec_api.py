"""Spec-first construction API: factories, old spec formats, JSON round-trip."""

import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.sim.env import SchedulingEnv
from repro.sim.vec_env import VecSchedulingEnv
from repro.spec import (
    ExperimentSpec,
    ServeSpec,
    WorkloadSpec,
    make_env,
    make_train_env,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestSpecFirstConstruction:
    def test_make_env_module_function(self):
        spec = ExperimentSpec(workload={"tiles": 3})
        env = make_env(spec)
        assert isinstance(env, SchedulingEnv)
        assert env.window == spec.window

    def test_make_train_env_module_function(self):
        assert isinstance(
            make_train_env(ExperimentSpec(workload={"tiles": 2})), SchedulingEnv
        )
        assert isinstance(
            make_train_env(ExperimentSpec(workload={"tiles": 2}, num_envs=3)), VecSchedulingEnv
        )

    def test_entrypoints_reexported_at_top_level(self):
        assert repro.make_env is make_env
        assert repro.make_train_env is make_train_env

    def test_from_spec_trains(self):
        trainer = ReadysTrainer.from_spec(
            ExperimentSpec(workload={"tiles": 2}), config=A2CConfig(unroll_length=4)
        )
        result = trainer.train_updates(1)
        assert len(result.update_stats) == 1
        assert trainer.spec == ExperimentSpec(workload={"tiles": 2})

    def test_from_spec_matches_manual_composition(self):
        spec = ExperimentSpec(workload={"tiles": 3}, num_envs=2, seed=4)
        config = A2CConfig(unroll_length=5)
        a = ReadysTrainer.from_spec(spec, config=config).train_updates(2)
        b = ReadysTrainer(
            spec.make_train_env(), config=config, rng=spec.seed
        ).train_updates(2)
        assert [s.policy_loss for s in a.update_stats] == [
            s.policy_loss for s in b.update_stats
        ]


class TestComponentConstruction:
    """The constructor composes a trainer from pre-built parts."""

    def test_constructor_wraps_a_single_env(self):
        trainer = ReadysTrainer(make_env(ExperimentSpec(workload={"tiles": 2})), rng=0)
        assert trainer.num_envs == 1
        assert trainer.spec is None  # only from_spec records a spec

    def test_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReadysTrainer.from_spec(ExperimentSpec(workload={"tiles": 2}))
            ReadysTrainer(make_env(ExperimentSpec(workload={"tiles": 2})), rng=0)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            workload={"kernel": "lu", "tiles": 5, "sigma": 0.2},
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
        spec = ExperimentSpec.from_dict({"seed": 3, "not_a_field": 1})
        assert spec.seed == 3
        # dicts written while compiled updates were optional still load
        spec = ExperimentSpec.from_dict({"seed": 3, "compiled_train": True})
        assert spec.seed == 3
        assert "compiled_train" not in spec.to_dict()


class TestRemovedWorkersField:
    """``workers`` left the spec with the multiprocess rollout pool."""

    FIXTURE = os.path.join(FIXTURES, "spec_pr7_workers.json")

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
        assert spec.workload.tiles == 3
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
        wl = WorkloadSpec()
        assert wl.name == "single"
        assert wl.arrival == "none"
        assert not wl.is_streaming

    def test_unknown_registry_name_raises(self):
        with pytest.raises(KeyError, match="available"):
            WorkloadSpec(name="no-such-workload")

    def test_strict_from_dict_with_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'arrival'"):
            WorkloadSpec.from_dict({"arival": "poisson"})
        with pytest.raises(ValueError, match="valid keys"):
            WorkloadSpec.from_dict({"zzzz": 1})

    def test_validation(self):
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


#: the graph fields ExperimentSpec once carried at top level as well
LOOSE_KEYS = ("kernel", "tiles", "noise", "sigma")

_floats = dict(allow_nan=False, allow_infinity=False)

workload_specs = st.builds(
    WorkloadSpec,
    name=st.sampled_from(["single", "size-mixture", "mixed-families"]),
    kernel=st.sampled_from(["cholesky", "lu", "qr"]),
    tiles=st.integers(1, 12),
    tile_choices=st.lists(st.integers(1, 12), max_size=3).map(tuple),
    families=st.lists(
        st.sampled_from(["cholesky", "lu", "qr", "random"]), max_size=3
    ).map(tuple),
    noise=st.sampled_from(["gaussian", "lognormal", "uniform", "gamma", "none"]),
    sigma=st.floats(0.0, 2.0, **_floats),
    arrival=st.sampled_from(["none", "poisson"]),
    rate=st.floats(1e-4, 1.0, **_floats),
    num_jobs=st.integers(1, 16),
    horizon_time=st.none() | st.floats(1.0, 1e6, **_floats),
) | st.builds(
    WorkloadSpec,
    name=st.just("mixed-families"),
    arrival=st.just("trace"),
    trace=st.lists(
        st.floats(0.0, 1e4, **_floats), min_size=1, max_size=4
    ).map(sorted).map(tuple),
)


@st.composite
def experiment_specs(draw):
    workload = draw(workload_specs)
    rewards = ["jct", "slowdown", "makespan"] if workload.is_streaming else []
    return ExperimentSpec(
        cpus=draw(st.integers(1, 4)),
        gpus=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 2**31)),
        window=draw(st.integers(0, 4)),
        sparse_state=draw(st.booleans()),
        num_envs=draw(st.integers(1, 8)),
        reward_mode=draw(st.sampled_from(["dense", "terminal"] + rewards)),
        checkpoint_every=draw(st.integers(0, 50)),
        resume=draw(st.none() | st.just("runs/ck.pkl")),
        workload=workload,
    )


class TestOldSpecFormats:
    """Spec dicts written before the instance lived only in ``workload``."""

    def test_parent_written_mirrors_load_to_the_intended_spec(self):
        """Written by ``to_json()`` while the loose fields still mirrored the
        workload: the mirrors sit next to the ``workload`` block and are
        ignored."""
        with open(os.path.join(FIXTURES, "spec_with_mirrors.json")) as fh:
            payload = fh.read()
        assert set(LOOSE_KEYS) <= set(json.loads(payload))
        spec = ExperimentSpec.from_json(payload)
        assert spec == ExperimentSpec(
            seed=5, num_envs=4, window=1, checkpoint_every=3,
            reward_mode="jct",
            workload=WorkloadSpec(
                name="mixed-families", families=("lu", "qr"),
                tile_choices=(3, 4), noise="lognormal", sigma=0.1,
                arrival="poisson", rate=0.005, num_jobs=8,
            ),
        )
        assert not set(LOOSE_KEYS) & set(spec.to_dict())

    @pytest.mark.parametrize(
        "fixture", ["spec_pr4_loose.json", "spec_pr8_compiled.json"]
    )
    def test_pre_workload_fixtures_are_refused_naming_their_keys(self, fixture):
        with open(os.path.join(FIXTURES, fixture)) as fh:
            payload = fh.read()
        assert "workload" not in json.loads(payload)
        with pytest.raises(ValueError, match="workload") as excinfo:
            ExperimentSpec.from_json(payload)
        for key in LOOSE_KEYS:
            assert repr(key) in str(excinfo.value)

    def test_refusal_names_only_the_keys_present(self):
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_dict({"tiles": 5, "seed": 1})
        assert "'tiles'" in str(excinfo.value)
        assert "'kernel'" not in str(excinfo.value)

    def test_nested_workload_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = ExperimentSpec.from_dict(
                {"workload": {"name": "single", "kernel": "lu", "tiles": 5}}
            )
        assert (spec.workload.kernel, spec.workload.tiles) == ("lu", 5)

    def test_loose_fields_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            ExperimentSpec(tiles=3)
        with pytest.raises(TypeError):
            ExperimentSpec().replace(kernel="lu")

    @given(workload_specs)
    @settings(max_examples=60, deadline=None)
    def test_workload_json_round_trip(self, workload):
        assert WorkloadSpec.from_json(workload.to_json()) == workload

    @given(experiment_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_with_and_without_mirrors(self, spec):
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        mirrors = {key: getattr(spec.workload, key) for key in LOOSE_KEYS}
        parent_format = json.dumps({**spec.to_dict(), **mirrors})
        assert ExperimentSpec.from_json(parent_format) == spec
