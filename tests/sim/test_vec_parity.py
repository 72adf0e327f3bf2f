"""Vec-vs-standalone parity: the row-equality suite for VecSchedulingEnv.

``VecSchedulingEnv.step`` drives all members through one wave loop: batched
observation builds, one ``advance_rows`` per kernel, and per-member hooks
for events that are not completions (streaming arrivals).  The contract is
that the loop is an *implementation detail* — rewards, observations,
episode boundaries and info dicts must be bit-identical to stepping K
standalone environments (each on its own private kernel) one by one.  These
tests pin that contract (they are what the CI ``sim-parity`` job runs),
plus the gym ``terminal_observation`` convention and the batched
``build_observations`` against the frozen reference build.
"""

import numpy as np
import pytest

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag, workloads
from repro.platforms import CPU, GPU, GaussianNoise, NoNoise, Platform
from repro.sim import SchedulingEnv, VecSchedulingEnv
from repro.sim.state import build_observations
from repro.sim.streaming import (
    PoissonArrivals,
    StreamingSchedulingEnv,
    TraceArrivals,
    VecStreamingEnv,
)
from repro.utils.seeding import spawn_generators
from tests.sim.reference_state import assert_matches_reference

PLATFORM = Platform(2, 2)


def _twin_vecs(k, noise=None, tiles=4, **env_kw):
    """Two identically-seeded vec envs (independent member RNG streams)."""
    graph = cholesky_dag(tiles)

    def make():
        return VecSchedulingEnv.from_factory(
            lambda rng: SchedulingEnv(
                graph, PLATFORM, CHOLESKY_DURATIONS,
                noise=noise or NoNoise(), rng=rng, **env_kw,
            ),
            k,
            seed=123,
        )

    return make(), make()


def _assert_obs_equal(a, b, member):
    assert np.array_equal(a.features, b.features), f"features differ (member {member})"
    for pa, pb in zip(a.adjacency_parts(), b.adjacency_parts()):
        assert np.array_equal(pa, pb)
    assert np.array_equal(a.ready_positions, b.ready_positions)
    assert np.array_equal(a.ready_tasks, b.ready_tasks)
    assert np.array_equal(a.proc_features, b.proc_features)
    assert a.current_proc == b.current_proc
    assert a.allow_pass == b.allow_pass
    assert a.window_fingerprint == b.window_fingerprint


# --------------------------------------------------------------------- #
# member factories: ``make(k, rng) -> env`` for member k
# --------------------------------------------------------------------- #


def _static(noise):
    graph = cholesky_dag(4)

    def make(k, rng):
        return SchedulingEnv(graph, PLATFORM, CHOLESKY_DURATIONS, noise=noise, rng=rng)

    return make


def _heterogeneous(k, rng):
    """Alternating platforms: members cannot share a kernel."""
    platform = Platform(2, 2) if k % 2 == 0 else Platform(3, 1)
    return SchedulingEnv(
        cholesky_dag(4), platform, CHOLESKY_DURATIONS,
        noise=GaussianNoise(0.25), rng=rng,
    )


def _poisson(reward_mode):
    def make(k, rng):
        return StreamingSchedulingEnv(
            workloads.get("mixed-families", families=("cholesky", "lu"),
                          tile_choices=(2, 3)),
            PLATFORM, arrival=PoissonArrivals(rate=0.05), num_jobs=3,
            noise=GaussianNoise(0.2), rng=rng, reward_mode=reward_mode,
        )

    return make


def _tie_trace():
    """Arrivals at the first task's CPU and GPU durations: with no noise, a
    POTRF started at t=0 completes exactly when a job arrives."""
    potrf = CHOLESKY_DURATIONS.kernel_names.index("POTRF")
    return TraceArrivals(sorted([
        0.0,
        CHOLESKY_DURATIONS.expected(potrf, CPU),
        CHOLESKY_DURATIONS.expected(potrf, GPU),
    ]))


def _tie(reward_mode):
    def make(k, rng):
        return StreamingSchedulingEnv(
            workloads.get("single", kernel="cholesky", tiles=3),
            PLATFORM, arrival=_tie_trace(), noise=NoNoise(), rng=rng,
            reward_mode=reward_mode,
        )

    return make


_STATIC = {
    f"sparse-{noise_id}": (_static(noise), VecSchedulingEnv)
    for noise_id, noise in (("deterministic", NoNoise()), ("noisy", GaussianNoise(0.25)))
}
_STREAMING = {
    f"stream-{name}-{mode}": (factory(mode), VecStreamingEnv)
    for name, factory in (("poisson", _poisson), ("tie", _tie))
    for mode in ("jct", "slowdown", "makespan")
}
PARITY_CASES = {
    **_STATIC,
    **_STREAMING,
    "heterogeneous": (_heterogeneous, VecSchedulingEnv),
}


def _count_ties(env, counter):
    """Count completions that land exactly on a pending arrival instant."""
    before, after = env._before_advance, env._after_advance
    completing = [False]

    def counted_before():
        completing[0] = before()
        return completing[0]

    def counted_after():
        if (
            completing[0]
            and env._released < env._episode_jobs
            and env._arrival_times[env._released] == env.sim.time
        ):
            counter[0] += 1
        after()

    env._before_advance = counted_before
    env._after_advance = counted_after


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_fused_step_matches_member_step(case):
    """vec.step row-equals K standalone environments stepped one by one.

    The standalone members are built from the same seed streams and own
    private kernels; auto-reset is replayed by hand (terminal observation,
    then ``reset()``), the way the gym convention defines it.
    """
    make, vec_cls = PARITY_CASES[case]
    k = 4
    vec = vec_cls([make(i, rng) for i, rng in enumerate(spawn_generators(123, k))])
    solo = [make(i, rng) for i, rng in enumerate(spawn_generators(123, k))]
    assert (vec.kernel is None) == (case == "heterogeneous")
    ties = [0]
    if case.startswith("stream-tie"):
        for env in solo:
            _count_ties(env, ties)
    obs_v = vec.reset().obs
    obs_s = [env.reset().obs for env in solo]
    assert all(env.sim._kernel is not vec.kernel for env in solo)
    action_rng = np.random.default_rng(7)
    episodes = 0
    for _ in range(150):
        for i, (a, b) in enumerate(zip(obs_v, obs_s)):
            _assert_obs_equal(a, b, i)
        actions = [int(action_rng.integers(0, ob.num_actions)) for ob in obs_v]
        step = vec.step(actions)
        for i, (env, action) in enumerate(zip(solo, actions)):
            result = env.step(action)
            assert step.rewards[i] == result.reward
            assert bool(step.dones[i]) == result.done
            info = step.infos[i]
            if result.done:
                episodes += 1
                _assert_obs_equal(
                    info.pop("terminal_observation"),
                    env.state_builder.build_terminal(env.sim),
                    i,
                )
                obs_s[i] = env.reset().obs
            else:
                obs_s[i] = result.obs
            assert info == result.info
        obs_v = step.obs
    assert episodes >= 4, "the loop must cross several episode boundaries"
    if case.startswith("stream-tie"):
        assert ties[0] > 0, "the tie trace must make a completion meet an arrival"


def test_step_dispatches_to_fused_path():
    """Homogeneous members share a kernel, so step() advances them together."""
    fused, _ = _twin_vecs(3)
    fused.reset()
    assert fused.kernel is not None
    assert all(e.sim._kernel is fused.kernel for e in fused.envs)


def test_terminal_observation_present_only_on_done_members():
    """Gym convention: the dropped terminal obs rides in infos[k]."""
    vec, _ = _twin_vecs(4)
    observations = vec.reset().obs
    rng = np.random.default_rng(3)
    saw_done = 0
    for _ in range(200):
        actions = [int(rng.integers(0, ob.num_actions)) for ob in observations]
        step = vec.step(actions)
        for i, info in enumerate(step.infos):
            if step.dones[i]:
                saw_done += 1
                term = info["terminal_observation"]
                # terminal state: empty window, no actions, all procs idle
                assert term.num_nodes == 0
                assert term.num_actions == 0
                assert term.current_proc == -1
                assert not term.allow_pass
                # the in-slot observation already belongs to the next episode
                assert step.obs[i].num_nodes > 0
            else:
                assert "terminal_observation" not in info
        observations = step.obs
        if saw_done >= 3:
            break
    assert saw_done >= 3


def test_batched_build_matches_reference():
    """One ``build_observations`` call over a shared kernel equals the
    frozen per-member reference build, member by member."""
    vec, _ = _twin_vecs(3)
    vec.reset()
    envs = vec.envs
    sims = [e.sim for e in envs]
    procs = [int(s.idle_processors()[0]) for s in sims]
    batched = build_observations(
        [e.state_builder for e in envs], sims, procs, [True] * 3
    )
    assert_matches_reference(envs, batched)


def test_build_observations_mixed_kernels():
    """Members from different kernels batch correctly (per-kernel passes)."""
    vec_a, vec_b = _twin_vecs(2)
    vec_a.reset()
    vec_b.reset()
    envs = vec_a.envs + vec_b.envs
    sims = [e.sim for e in envs]
    procs = [int(s.idle_processors()[0]) for s in sims]
    built = build_observations(
        [e.state_builder for e in envs], sims, procs, [True] * 4
    )
    assert_matches_reference(envs, built)


def test_heterogeneous_members_run_the_wave_loop():
    """Different platforms cannot share a kernel: kernel is None, and each
    member advances through its own private kernel in the same loop."""
    graph = cholesky_dag(4)
    envs = [
        SchedulingEnv(graph, Platform(2, 2), CHOLESKY_DURATIONS, rng=0),
        SchedulingEnv(graph, Platform(3, 1), CHOLESKY_DURATIONS, rng=1),
    ]
    vec = VecSchedulingEnv(envs)
    assert vec.kernel is None
    observations = vec.reset().obs
    step = vec.step([0] * 2)
    assert len(step.obs) == 2
    assert np.isfinite(step.rewards).all()
    del observations


def test_k1_fused_matches_single_env_stream():
    """A K=1 fused vec env consumes the same RNG stream as a plain env."""
    graph = cholesky_dag(4)
    vec = VecSchedulingEnv.from_factory(
        lambda rng: SchedulingEnv(
            graph, PLATFORM, CHOLESKY_DURATIONS, noise=GaussianNoise(0.2), rng=rng
        ),
        1,
        seed=5,
    )
    from repro.utils.seeding import spawn_generators

    plain = SchedulingEnv(
        graph, PLATFORM, CHOLESKY_DURATIONS, noise=GaussianNoise(0.2),
        rng=spawn_generators(5, 1)[0],
    )
    obs_v = vec.reset().obs[0]
    obs_p = plain.reset().obs
    rng = np.random.default_rng(0)
    for _ in range(60):
        action = int(rng.integers(0, obs_v.num_actions))
        _assert_obs_equal(obs_v, obs_p, 0)
        step_v = vec.step([action])
        step_p = plain.step(action)
        assert step_v.rewards[0] == step_p.reward
        assert bool(step_v.dones[0]) == step_p.done
        obs_v = step_v.obs[0]
        obs_p = step_p.obs if not step_p.done else plain.reset().obs
