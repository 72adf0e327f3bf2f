"""Compiled-training parity: the array training step must never change training.

The :class:`repro.nn.compile.TrainingCompiler` runs every update as one
array step (:func:`repro.nn.compile.array_step`) and applies one flat clip +
Adam pass.  Float64 steps are required to be **bit-identical** to the
reference autograd tape — same losses, same gradients, same weights after
arbitrarily many rounds — so every learning curve, checkpoint and evaluation
result is the tape's.  The suite pins that claim over >= 50 training rounds
for A2C and PPO, across the in-process and vectorised trainers, and through
a save→kill→resume cycle.  Updaters always take the array step, so each
reference side runs under :func:`tests.reference_tape.reference_tape` and
asserts it took none.
"""

import gc
import tracemalloc

import numpy as np
import pytest

# counter assertions assume no tape fallback, so keep the ambient anomaly
# wrapper (REPRO_DETECT_ANOMALY=1 runs) off this module; the anomaly
# interaction is pinned explicitly in TestRefusalTransparency
pytestmark = pytest.mark.no_auto_anomaly

from repro.nn import detect_anomaly
from repro.rl.a2c import A2CConfig
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.trainer import ReadysTrainer, default_agent
from repro.spec import ExperimentSpec
from tests.reference_tape import (
    assert_ran_compiled,
    assert_ran_on_tape,
    reference_tape,
)

SPEC = ExperimentSpec(workload={"kernel": "cholesky", "tiles": 4}, seed=3, num_envs=2)
CONFIG = A2CConfig(unroll_length=10)


def assert_same_weights(agent_a, agent_b):
    for (name, a), (_, b) in zip(
        sorted(agent_a.state_dict().items()),
        sorted(agent_b.state_dict().items()),
    ):
        np.testing.assert_array_equal(a, b, err_msg=name)


def a2c_rows(result):
    return [
        (s.policy_loss, s.value_loss, s.entropy, s.grad_norm, s.mean_return)
        for s in result.update_stats
    ]


class TestFiftyRoundParity:
    def test_a2c_50_rounds_bit_identical(self):
        ref = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        with reference_tape():
            ref.train_updates(50)
        assert_ran_on_tape(ref.updater.train_compile_stats())

        cmp_ = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        cmp_.train_updates(50)

        assert_same_weights(ref.agent, cmp_.agent)
        assert a2c_rows(cmp_.result) == a2c_rows(ref.result)
        assert cmp_.result.episode_makespans == ref.result.episode_makespans
        stats = cmp_.updater.train_compile_stats()
        assert_ran_compiled(stats)
        assert stats["array_steps"] == 50

    def test_ppo_50_rounds_bit_identical(self):
        spec = SPEC.replace(num_envs=1)
        config = PPOConfig(rollout_length=24, num_epochs=2)

        def run():
            env = spec.make_env()
            trainer = PPOTrainer(env, default_agent(env, rng=0), config, rng=0)
            stats = trainer.train_updates(50)
            return trainer, stats

        with reference_tape():
            ref, ref_stats = run()
        assert_ran_on_tape(ref.train_compile_stats())
        cmp_, cmp_stats = run()

        assert_same_weights(ref.agent, cmp_.agent)
        assert cmp_stats == ref_stats
        assert cmp_.episode_makespans == ref.episode_makespans
        counters = cmp_.train_compile_stats()
        assert_ran_compiled(counters)
        # every epoch of every update is one array step
        assert counters["array_steps"] == 50 * 2


class TestTrainerSurfaces:
    def test_vectorised_training_identical_curves(self):
        spec = SPEC.replace(num_envs=3)
        ref = ReadysTrainer.from_spec(spec, config=CONFIG)
        with reference_tape():
            ref.train_updates(6)
        assert_ran_on_tape(ref.updater.train_compile_stats())
        cmp_ = ReadysTrainer.from_spec(spec, config=CONFIG)
        cmp_.train_updates(6)
        assert_ran_compiled(cmp_.updater.train_compile_stats())
        assert_same_weights(ref.agent, cmp_.agent)
        assert cmp_.result.episode_makespans == ref.result.episode_makespans


class TestSaveKillResume:
    def test_save_kill_resume_row_equality(self, tmp_path):
        """3 updates + checkpoint + 3 resumed == 6 uninterrupted == 6
        reference-tape updates, row by row."""
        path = str(tmp_path / "ckpt.pkl")

        reference = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        with reference_tape():
            uninterrupted = reference.train_updates(6)
        assert_ran_on_tape(reference.updater.train_compile_stats())

        first = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        first.train_updates(3, checkpoint_every=3, checkpoint_path=path)
        assert_ran_compiled(first.updater.train_compile_stats())
        del first  # the "kill": only the checkpoint survives

        resumed = ReadysTrainer.from_checkpoint(path)
        assert resumed.completed_updates == 3
        continued = resumed.train_updates(3)
        assert_ran_compiled(resumed.updater.train_compile_stats())

        assert a2c_rows(continued) == a2c_rows(uninterrupted)
        assert continued.episode_makespans == uninterrupted.episode_makespans
        assert_same_weights(resumed.agent, reference.agent)


class TestRefusalTransparency:
    def test_anomaly_mode_falls_back_to_reference(self):
        """Anomaly tracking needs the live tape, so updates transparently run
        the reference path — counted, never wrong."""
        ref = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        cmp_ = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        with detect_anomaly():
            with reference_tape():
                ref.train_updates(2)
            cmp_.train_updates(2)
        assert_ran_on_tape(ref.updater.train_compile_stats())
        assert_same_weights(ref.agent, cmp_.agent)
        stats = cmp_.updater.train_compile_stats()
        assert stats["fallbacks"] == 2 and stats["array_steps"] == 0


class TestBufferFootprint:
    def test_plan_buffers_do_not_accumulate(self):
        """Node counts change every update, so the step's buffers are resized
        every update; the memory held must stay within one update's buffers
        instead of growing with every new shape."""
        spec = SPEC.replace(num_envs=4)
        trainer = ReadysTrainer.from_spec(spec, config=CONFIG)
        compiler = trainer.updater._train_compiler

        def buffer_bytes():
            return sum(buffer.nbytes for buffer in compiler._buffers.values())

        def held():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        shapes = set()
        tracemalloc.start()
        try:
            for update in range(1, 26):
                trainer.train_updates(1)
                shapes.add(compiler._buffers["hw"].shape)
                if update == 5:
                    early = held()
            late = held()
        finally:
            tracemalloc.stop()
        assert len(shapes) > 5, "node counts must vary across updates"
        stats = compiler.stats_dict()
        assert stats["fallbacks"] == 0 and stats["array_steps"] == 25
        assert stats["arena_bytes"] == buffer_bytes()
        assert late - early < buffer_bytes()
