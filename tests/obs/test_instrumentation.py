"""Instrumentation threaded through the stack: coverage and non-interference."""

import numpy as np
import pytest

from repro import obs
from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag, workloads
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import check_span_nesting, load_trace
from repro.platforms import GaussianNoise, NoNoise, Platform
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.schedulers import get as get_runner
from repro.sim.engine import Simulation
from repro.sim.env import SchedulingEnv, StepResult
from repro.sim.streaming import (
    PoissonArrivals,
    StreamingSchedulingEnv,
    VecStreamingEnv,
)
from repro.sim.vec_env import VecSchedulingEnv, VecStepResult
from repro.utils.seeding import spawn_generators

#: spans the acceptance criteria require a traced training run to cover
REQUIRED_SPANS = {"update", "unroll", "decision", "state_build", "forward"}


def _vec_env(kind: str, num_envs: int) -> VecSchedulingEnv:
    rngs = spawn_generators(0, num_envs)
    if kind == "streaming":
        return VecStreamingEnv([
            StreamingSchedulingEnv(
                workloads.get("mixed-families", families=("cholesky", "lu"),
                              tile_choices=(2,)),
                Platform(2, 2), arrival=PoissonArrivals(rate=0.05), num_jobs=3,
                noise=GaussianNoise(0.2), window=2, rng=rng,
            )
            for rng in rngs
        ])
    return VecSchedulingEnv([
        SchedulingEnv(
            cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS,
            GaussianNoise(0.2), window=2, rng=rng,
        )
        for rng in rngs
    ])


def _train(
    updates: int = 2, num_envs: int = 2, kind: str = "static"
) -> ReadysTrainer:
    trainer = ReadysTrainer(
        _vec_env(kind, num_envs), config=A2CConfig(unroll_length=10), rng=0
    )
    trainer.train_updates(updates)
    return trainer


class TestSpanCoverage:
    def test_traced_training_covers_required_spans(self, tmp_path):
        path = str(tmp_path / "train.jsonl")
        obs.start_trace(path, metadata={"command": "train"})
        obs.METRICS.enabled = True
        try:
            _train()
        finally:
            obs.stop_trace()
            obs.METRICS.enabled = False
        trace = load_trace(path)
        check_span_nesting(trace)
        assert REQUIRED_SPANS <= set(trace.span_names())
        # spans nest: decisions sit under an unroll, unrolls under an update
        by_id = {s["id"]: s for s in trace.spans}
        decisions = [s for s in trace.spans if s["name"] == "decision"]
        assert decisions
        for span in decisions:
            parent = by_id[span["parent"]]
            assert parent["name"] == "unroll"
            assert by_id[parent["parent"]]["name"] == "update"
        # training metrics were recorded alongside
        assert len(obs.METRICS.series("train/policy_loss")) == 2
        assert obs.METRICS.timer("train/update_time").count == 2
        assert len(obs.METRICS.series("episode/makespan")) > 0

    def test_traced_baseline_run_emits_decisions(self, tmp_path):
        path = str(tmp_path / "mct.jsonl")
        sim = Simulation(
            cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS, NoNoise(), rng=0
        )
        obs.start_trace(path)
        obs.METRICS.enabled = True
        try:
            get_runner("mct")(sim, rng=0)
        finally:
            obs.stop_trace()
            obs.METRICS.enabled = False
        trace = load_trace(path)
        decisions = [s for s in trace.spans if s["name"] == "decision"]
        assert decisions
        assert all(s["attrs"]["scheduler"] == "mct" for s in decisions)
        timer = obs.METRICS.timer("scheduler/decision_time", scheduler="mct")
        assert timer.count == len(decisions)


class TestNonInterference:
    @pytest.mark.parametrize("kind", ["static", "streaming"])
    def test_traced_training_is_bit_identical(self, tmp_path, kind):
        """Instrumentation must not perturb RNG streams or numerics.

        A fully observed run (tracing + metrics on) must produce exactly the
        same weights and episode history as a bare run — the obs layer only
        watches the clock, never the math.  Both runs take the same stepping
        path, so the trace shows one ``decision`` span per lockstep step.
        """
        bare = _train(kind=kind)

        path = str(tmp_path / "t.jsonl")
        obs.start_trace(path)
        obs.METRICS.enabled = True
        obs.METRICS.reset()
        try:
            observed = _train(kind=kind)
        finally:
            obs.stop_trace()
            obs.METRICS.enabled = False
            obs.METRICS.reset()

        trace = load_trace(path)
        check_span_nesting(trace)
        by_id = {s["id"]: s for s in trace.spans}
        decisions = [s for s in trace.spans if s["name"] == "decision"]
        # 2 updates x unroll_length 10 lockstep steps of K=2 members
        assert len(decisions) == 20
        for span in decisions:
            assert span["attrs"]["batch"] == 2
            assert by_id[span["parent"]]["name"] == "unroll"
        batched = [
            s for s in trace.spans
            if s["name"] == "state_build" and "batch" in s["attrs"]
        ]
        assert batched
        assert all(by_id[s["parent"]]["name"] == "decision" for s in batched)
        assert bare.result.episode_makespans, "an episode must end in the run"

        assert bare.result.episode_makespans == observed.result.episode_makespans
        assert bare.result.episode_rewards == observed.result.episode_rewards
        for a, b in zip(bare.result.update_stats, observed.result.update_stats):
            assert a.policy_loss == b.policy_loss
            assert a.value_loss == b.value_loss
            assert a.grad_norm == b.grad_norm
        sa, sb = bare.agent.state_dict(), observed.agent.state_dict()
        assert sa.keys() == sb.keys()
        for key in sa:
            np.testing.assert_array_equal(sa[key], sb[key])

    def test_observed_baseline_makespan_unchanged(self, tmp_path):
        def run() -> float:
            sim = Simulation(
                cholesky_dag(3), Platform(2, 2), CHOLESKY_DURATIONS,
                GaussianNoise(0.2), rng=3,
            )
            return get_runner("heft")(sim, rng=3)

        bare = run()
        obs.start_trace(str(tmp_path / "t.jsonl"))
        obs.METRICS.enabled = True
        try:
            observed = run()
        finally:
            obs.stop_trace()
            obs.METRICS.enabled = False
        assert bare == observed


class TestStepResult:
    def test_env_step_returns_named_tuple(self):
        env = SchedulingEnv(
            cholesky_dag(2), Platform(1, 1), CHOLESKY_DURATIONS, NoNoise(),
            window=1, rng=0,
        )
        env.reset().obs
        result = env.step(0)
        assert isinstance(result, StepResult)
        # historical 4-tuple unpacking keeps working
        observation, reward, done, info = result
        assert observation is result.obs
        assert reward == result.reward
        assert done is result.done
        assert info is result.info

    def test_vec_step_returns_named_tuple(self):
        env = VecSchedulingEnv(
            [
                SchedulingEnv(
                    cholesky_dag(2), Platform(1, 1), CHOLESKY_DURATIONS,
                    NoNoise(), window=1, rng=s,
                )
                for s in (0, 1)
            ]
        )
        env.reset().obs
        result = env.step([0, 0])
        assert isinstance(result, VecStepResult)
        observations, rewards, dones, infos = result
        assert observations is result.obs
        assert rewards.shape == (2,) and dones.shape == (2,)
        assert len(infos) == 2


class TestLearningCurveCallback:
    def test_writes_curve_via_registry(self, tmp_path):
        from repro.obs.metrics import iter_series, load_metrics_rows
        from repro.rl.callbacks import LearningCurveCallback, train_with_callbacks

        env = SchedulingEnv(
            cholesky_dag(2), Platform(1, 1), CHOLESKY_DURATIONS, NoNoise(),
            window=1, rng=0,
        )
        trainer = ReadysTrainer(env, config=A2CConfig(unroll_length=10), rng=0)
        path = str(tmp_path / "curve.csv")
        cb = LearningCurveCallback(path, every=2)
        ran = train_with_callbacks(trainer, 4, [cb])
        assert ran == 4
        assert cb.writes == 2
        rows = load_metrics_rows(path)
        losses = list(iter_series(rows, "train/policy_loss"))
        assert [step for step, _ in losses] == [0.0, 1.0, 2.0, 3.0]
        makespans = list(iter_series(rows, "episode/makespan"))
        assert len(makespans) == trainer.result.num_episodes

    def test_flush_and_every_validation(self, tmp_path):
        from repro.rl.callbacks import LearningCurveCallback

        with pytest.raises(ValueError):
            LearningCurveCallback("x.csv", every=0)
        env = SchedulingEnv(
            cholesky_dag(2), Platform(1, 1), CHOLESKY_DURATIONS, NoNoise(),
            window=1, rng=0,
        )
        trainer = ReadysTrainer(env, config=A2CConfig(unroll_length=5), rng=0)
        cb = LearningCurveCallback(str(tmp_path / "curve.jsonl"), every=100)
        cb(trainer, 0)  # not a multiple of `every` — no write
        assert cb.writes == 0
        cb.flush(trainer)
        assert cb.writes == 1


class TestRegistryMetricsFromTraining:
    def test_registry_only_mode(self):
        """Metrics can be recorded without any trace file open."""
        obs.METRICS.enabled = True
        obs.METRICS.reset()
        try:
            _train(updates=1, num_envs=1)
        finally:
            obs.METRICS.enabled = False
        assert obs.METRICS.counter("sim/tasks_started").value > 0
        assert obs.METRICS.gauge("train/env_steps_per_second").value > 0
        util = obs.METRICS.gauge("sim/utilization").value
        assert 0.0 < util <= 1.0
        obs.METRICS.reset()

    def test_private_registry_unaffected_by_global(self):
        reg = MetricsRegistry()
        assert not reg.enabled
        _train(updates=1, num_envs=1)
        assert len(reg) == 0
