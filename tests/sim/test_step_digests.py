"""Frozen per-step digests of the scheduling environments.

The vec-vs-standalone parity suite (``test_vec_parity.py``) holds
``VecSchedulingEnv`` to standalone ``SchedulingEnv`` instances, but both
step through the same decision loop, so a change that moves both sides
alike passes it.  This file holds both to digests recorded from the
environments before they shared that loop: every step of a seeded
random-action rollout is hashed (every observation array, the rewards, the
done flags and the info dicts without ``terminal_observation``) and
compared with ``fixtures/env_step_digests.json``.

Regenerate the fixture only when a change is meant to move these bits::

    PYTHONPATH=src python -m tests.sim.test_step_digests --write
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag, workloads
from repro.platforms import GaussianNoise, NoNoise, PerResourceNoise, Platform
from repro.sim import SchedulingEnv, VecSchedulingEnv
from repro.sim.streaming import (
    PoissonArrivals,
    StreamingSchedulingEnv,
    VecStreamingEnv,
)
from repro.utils.seeding import spawn_generators

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "env_step_digests.json"
)
EPISODES = 3


def _static(noise, platform=Platform(2, 2), tiles=4):
    def make(rng):
        return SchedulingEnv(
            cholesky_dag(tiles), platform, CHOLESKY_DURATIONS, noise=noise, rng=rng
        )

    return make


def _poisson(rng):
    return StreamingSchedulingEnv(
        workloads.get("mixed-families", families=("cholesky", "lu"),
                      tile_choices=(2, 3)),
        Platform(2, 2), arrival=PoissonArrivals(rate=0.05), num_jobs=3,
        noise=GaussianNoise(0.2), rng=rng,
    )


def _heterogeneous(k, rng):
    platform = Platform(2, 2) if k % 2 == 0 else Platform(3, 1)
    return _static(GaussianNoise(0.25), platform)(rng)


#: standalone cases: one env factory each
STANDALONE = {
    "static-deterministic": _static(NoNoise()),
    "static-gaussian": _static(GaussianNoise(0.25)),
    "static-per-resource": _static(PerResourceNoise((0.4, 0.1))),
    "static-platform-3-1": _static(GaussianNoise(0.25), Platform(3, 1)),
    "stream-poisson": _poisson,
}

#: vec cases: ``make() -> vec env``
VEC = {
    "vec-k4-autoreset": lambda: VecSchedulingEnv.from_factory(
        _static(GaussianNoise(0.25), tiles=3), 4, seed=11
    ),
    "vec-heterogeneous": lambda: VecSchedulingEnv(
        [_heterogeneous(k, rng) for k, rng in enumerate(spawn_generators(12, 4))]
    ),
    "vec-stream-k2": lambda: VecStreamingEnv(
        [_poisson(rng) for rng in spawn_generators(13, 2)]
    ),
}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"unexpected info value {value!r}")


def _update_obs(digest, ob):
    if ob is None:
        digest.update(b"none")
        return
    arrays = (
        ob.features, *ob.adjacency_parts(), ob.ready_positions, ob.ready_tasks,
        ob.proc_features,
    )
    for array in arrays:
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((
        ob.current_proc, ob.allow_pass, ob.window_fingerprint,
        ob.extra_node_features,
    )).encode())


def _step_digest(observations, rewards, dones, infos):
    digest = hashlib.sha256()
    for ob in observations:
        _update_obs(digest, ob)
    digest.update(np.asarray(rewards, dtype=np.float64).tobytes())
    digest.update(np.asarray(dones, dtype=bool).tobytes())
    for info in infos:
        info = {k: v for k, v in info.items() if k != "terminal_observation"}
        digest.update(json.dumps(info, sort_keys=True, default=_plain).encode())
    return digest.hexdigest()


def standalone_digests(make):
    """Digests of ``EPISODES`` seeded random-action episodes of one env."""
    env = make(np.random.default_rng(5))
    actions = np.random.default_rng(7)
    out = []
    for episode in range(EPISODES):
        reset = env.reset(seed=21) if episode == 0 else env.reset()
        out.append(_step_digest([reset.obs], [0.0], [False], [reset.info]))
        observation = reset.obs
        while observation is not None:
            result = env.step(int(actions.integers(0, observation.num_actions)))
            out.append(_step_digest(
                [result.obs], [result.reward], [result.done], [result.info]
            ))
            observation = result.obs
    return out


def vec_digests(make):
    """Digests of a seeded random-action vec rollout until every member has
    finished ``EPISODES`` episodes (auto-resets included)."""
    vec = make()
    actions = np.random.default_rng(7)
    reset = vec.reset(seed=31)
    out = [_step_digest(reset.obs, np.zeros(vec.num_envs), np.zeros(vec.num_envs),
                        reset.infos)]
    finished = np.zeros(vec.num_envs, dtype=np.int64)
    observations = reset.obs
    while finished.min() < EPISODES:
        step = vec.step(
            [int(actions.integers(0, ob.num_actions)) for ob in observations]
        )
        out.append(_step_digest(step.obs, step.rewards, step.dones, step.infos))
        finished += step.dones
        observations = step.obs
    return out


def vec_final_digests():
    """Digests of ``_step_members`` with per-member episode quotas: a member
    of ``final`` whose episode ends is not reset (lockstep evaluation)."""
    vec = VEC["vec-k4-autoreset"]()
    actions = np.random.default_rng(8)
    quotas = [1, 2, 3, 1]
    done_count = [0] * vec.num_envs
    active = list(range(vec.num_envs))
    observations = list(vec.reset(seed=41).obs)
    out = []
    while active:
        final = {i for i in active if done_count[i] + 1 == quotas[i]}
        step = vec._step_members(
            active,
            [int(actions.integers(0, ob.num_actions)) for ob in observations],
            final,
        )
        out.append(_step_digest(
            [] if step.obs is None else step.obs, step.rewards, step.dones,
            step.infos,
        ))
        for i, done in zip(active, step.dones):
            done_count[i] += int(done)
        active = [
            i for i, done in zip(active, step.dones) if not (done and i in final)
        ]
        observations = [] if step.obs is None else list(step.obs)
    return out


def all_digests():
    cases = {name: standalone_digests(make) for name, make in STANDALONE.items()}
    cases.update({name: vec_digests(make) for name, make in VEC.items()})
    cases["vec-final-quotas"] = vec_final_digests()
    return cases


@pytest.fixture(scope="module")
def frozen():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _assert_same(name, got, want):
    for step, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"{name}: step {step} differs from the frozen digest"
    assert len(got) == len(want), f"{name}: {len(got)} steps, frozen {len(want)}"


@pytest.mark.parametrize("name", list(STANDALONE))
def test_standalone_matches_frozen_digests(name, frozen):
    _assert_same(name, standalone_digests(STANDALONE[name]), frozen[name])


@pytest.mark.parametrize("name", list(VEC))
def test_vec_matches_frozen_digests(name, frozen):
    _assert_same(name, vec_digests(VEC[name]), frozen[name])


def test_vec_final_members_match_frozen_digests(frozen):
    _assert_same("vec-final-quotas", vec_final_digests(), frozen["vec-final-quotas"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sim.test_step_digests --write")
    with open(FIXTURE, "w") as fh:
        json.dump(all_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
