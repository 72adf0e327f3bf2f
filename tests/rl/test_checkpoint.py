"""Checkpoint/resume: a killed run continues its learning curve seamlessly."""

import os
import pickle

import pytest

from repro.rl.a2c import A2CConfig
from repro.rl.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    resume_target_updates,
    save_checkpoint,
    trainer_from_checkpoint,
)
from repro.rl.trainer import ReadysTrainer
from repro.spec import ExperimentSpec

SPEC = ExperimentSpec(workload={"tiles": 3}, num_envs=2, seed=7)
CONFIG = A2CConfig(unroll_length=5)


def rows(result):
    return [
        (s.policy_loss, s.value_loss, s.entropy, s.grad_norm, s.mean_return)
        for s in result.update_stats
    ]


class TestSingleProcessResume:
    def test_save_kill_resume_matches_uninterrupted(self, tmp_path):
        """3 updates + checkpoint + 3 resumed == 6 uninterrupted, row by row."""
        path = str(tmp_path / "ckpt.pkl")
        reference = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        uninterrupted = reference.train_updates(6)

        first = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        first.train_updates(3, checkpoint_every=3, checkpoint_path=path)
        del first  # the "kill": only the checkpoint survives

        resumed = ReadysTrainer.from_checkpoint(path)
        assert resumed.completed_updates == 3
        assert resumed.spec == SPEC
        continued = resumed.train_updates(3)

        assert rows(continued) == rows(uninterrupted)
        assert continued.episode_makespans == uninterrupted.episode_makespans
        assert continued.episode_rewards == uninterrupted.episode_rewards

        # a checkpoint written when the spec still had the inference-engine
        # knobs: the stale keys are ignored and the resume stays row-identical
        legacy = load_checkpoint(path)
        legacy.spec = dict(legacy.spec, compiled=True, compiled_dtype="float32")
        legacy_path = str(tmp_path / "legacy.pkl")
        save_checkpoint(legacy, legacy_path)
        resumed = ReadysTrainer.from_checkpoint(legacy_path)
        assert resumed.spec == SPEC
        continued = resumed.train_updates(3)
        assert rows(continued) == rows(uninterrupted)
        assert continued.episode_makespans == uninterrupted.episode_makespans

    def test_periodic_checkpoints_overwrite_atomically(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        trainer = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        trainer.train_updates(4, checkpoint_every=2, checkpoint_path=path)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 4
        assert not os.path.exists(path + ".tmp")

    def test_optimizer_state_round_trips(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        trainer = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        trainer.train_updates(2)
        trainer.save_checkpoint(path)
        restored = ReadysTrainer.from_checkpoint(path)
        saved = trainer.updater.optimizer.state_dict()
        loaded = restored.updater.optimizer.state_dict()
        assert saved["t"] == loaded["t"] == 2
        assert all((a == b).all() for a, b in zip(saved["m"], loaded["m"]))
        assert all((a == b).all() for a, b in zip(saved["v"], loaded["v"]))

    def test_component_trainer_checkpoints_without_spec(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        trainer = ReadysTrainer(SPEC.make_train_env(), rng=0)
        trainer.train_updates(1)
        trainer.save_checkpoint(path)
        restored = trainer_from_checkpoint(load_checkpoint(path))
        assert restored.spec is None
        assert restored.completed_updates == 1


class TestCheckpointFiles:
    def test_load_rejects_foreign_pickles(self, tmp_path):
        path = str(tmp_path / "junk.pkl")
        with open(path, "wb") as fh:
            pickle.dump({"not": "a checkpoint"}, fh)
        with pytest.raises(ValueError, match="TrainingCheckpoint"):
            load_checkpoint(path)

    def test_load_rejects_future_versions(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        from repro.rl.checkpoint import checkpoint_of_trainer

        trainer = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        trainer.train_updates(1)
        frozen = checkpoint_of_trainer(trainer)
        frozen.version = CHECKPOINT_VERSION + 1
        save_checkpoint(frozen, path)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        path = str(tmp_path / "ckpt.pkl")
        trainer = ReadysTrainer.from_spec(SPEC, config=CONFIG)
        trainer.train_updates(1)
        trainer.save_checkpoint(path)
        return path

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda data: data[: len(data) // 2], id="half"),
            pytest.param(lambda data: data[:10], id="ten-bytes"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(lambda data: b"not a checkpoint\n" * 4, id="garbage"),
        ],
    )
    def test_unreadable_file_is_a_value_error(self, tmp_path, damage):
        path = self._saved(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(data))
        with pytest.raises(ValueError, match="truncated or corrupt") as info:
            load_checkpoint(path)
        assert repr(path) in str(info.value)
        assert info.value.__cause__ is not None

    def test_corrupt_env_bundle_is_a_value_error(self, tmp_path):
        frozen = load_checkpoint(self._saved(tmp_path))
        frozen.env_bundle = frozen.env_bundle[:-20]
        with pytest.raises(ValueError, match="env bundle is corrupt"):
            trainer_from_checkpoint(frozen)

    def test_rollout_pool_checkpoint_is_refused(self, tmp_path):
        """A checkpoint pickled by the removed worker pool does not load."""
        path = self._saved(tmp_path)
        frozen = load_checkpoint(path)
        frozen.num_workers = 2
        frozen.worker_states = [b"rank0", b"rank1"]
        save_checkpoint(frozen, path)
        with pytest.raises(ValueError, match="2-worker.*num_envs"):
            load_checkpoint(path)

    def test_single_process_checkpoint_of_the_pool_era_loads(self, tmp_path):
        """Pickles that still carry the pool's fields load and resume."""
        path = self._saved(tmp_path)
        frozen = load_checkpoint(path)
        frozen.num_workers = 1
        frozen.worker_states = None
        save_checkpoint(frozen, path)
        loaded = load_checkpoint(path)
        assert not hasattr(loaded, "num_workers")
        assert not hasattr(loaded, "worker_states")
        assert trainer_from_checkpoint(loaded).completed_updates == 1


class TestResumeTargetUpdates:
    def test_arithmetic(self):
        assert resume_target_updates(3, 10) == 7
        assert resume_target_updates(10, 10) == 0
        assert resume_target_updates(12, 10) == 0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            resume_target_updates(0, -1)
