"""Training callbacks: eval curves, best snapshots, early stopping."""

import numpy as np
import pytest

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import Platform
from repro.rl.a2c import A2CConfig
from repro.rl.callbacks import (
    Callback,
    EarlyStopping,
    EvalCallback,
    train_with_callbacks,
)
from repro.rl.trainer import ReadysTrainer
from repro.sim.env import SchedulingEnv


def make_env(tiles=3, rng=0):
    return SchedulingEnv(
        cholesky_dag(tiles), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(),
        window=1, rng=rng,
    )


def make_trainer(rng=0):
    return ReadysTrainer(
        make_env(rng=rng), config=A2CConfig(unroll_length=10), rng=rng
    )


class TestEvalCallback:
    def test_records_every_n(self):
        trainer = make_trainer()
        cb = EvalCallback(make_env(rng=1), every=2, episodes=1, rng=0)
        train_with_callbacks(trainer, 6, [cb])
        assert [p.update for p in cb.history] == [2, 4, 6]

    def test_tracks_best_state(self):
        trainer = make_trainer()
        cb = EvalCallback(make_env(rng=1), every=1, episodes=1, rng=0)
        train_with_callbacks(trainer, 4, [cb])
        assert cb.best_state is not None
        assert cb.best_makespan == min(p.mean_makespan for p in cb.history)
        # restoring the snapshot must be accepted by the agent
        trainer.agent.load_state_dict(cb.best_state)

    def test_best_state_is_a_snapshot_not_a_reference(self):
        trainer = make_trainer()
        cb = EvalCallback(make_env(rng=1), every=1, episodes=1, rng=0)
        train_with_callbacks(trainer, 1, [cb])
        frozen = {k: v.copy() for k, v in cb.best_state.items()}
        train_with_callbacks(trainer, 3, [cb])
        if cb.best_makespan == cb.history[0].mean_makespan:
            for k in frozen:
                np.testing.assert_array_equal(frozen[k], cb.best_state[k])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            EvalCallback(make_env(), every=0)
        with pytest.raises(ValueError):
            EvalCallback(make_env(), episodes=0)

    def test_no_tracking_flag(self):
        trainer = make_trainer()
        cb = EvalCallback(make_env(rng=1), every=1, episodes=1,
                          track_best=False, rng=0)
        train_with_callbacks(trainer, 2, [cb])
        assert cb.best_state is None


class TestEarlyStopping:
    def test_stops_on_plateau(self):
        trainer = make_trainer()
        # aggressive settings: any non-improvement stops immediately
        cb = EarlyStopping(patience=1, window=1, min_delta=0.5)
        ran = train_with_callbacks(trainer, 200, [cb])
        assert ran < 200
        assert cb.stopped_at == ran

    def test_does_not_stop_before_window_filled(self):
        trainer = make_trainer()
        cb = EarlyStopping(patience=1, window=10_000)
        ran = train_with_callbacks(trainer, 3, [cb])
        assert ran == 3
        assert cb.stopped_at is None

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-0.1)


class TestTrainWithCallbacks:
    def test_runs_all_updates_without_callbacks(self):
        trainer = make_trainer()
        assert train_with_callbacks(trainer, 3, []) == 3
        assert len(trainer.result.update_stats) == 3

    def test_negative_updates_raise(self):
        with pytest.raises(ValueError):
            train_with_callbacks(make_trainer(), -1, [])

    def test_stop_signal_respected(self):
        class StopAt2(Callback):
            def __call__(self, trainer, update_index):
                return update_index == 1

        trainer = make_trainer()
        assert train_with_callbacks(trainer, 10, [StopAt2()]) == 2

    def test_base_callback_abstract(self):
        with pytest.raises(NotImplementedError):
            Callback()(make_trainer(), 0)
