"""Differential suite: batched observation building against the frozen oracle.

``build_observations`` stacks the K members' graphs into one id space and
builds every window, feature row, adjacency entry and descriptor in array
passes.  These tests drive vectorised environments through random episodes
(auto-resets included) and assert, after every reset and step, that each
member of the returned batch is bit-identical to the per-member reference
build of ``reference_state.py``, and that the batch glue of the forward
equals the reference glue over the reference observations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import workloads
from repro.platforms import GaussianNoise, NoNoise, Platform
from repro.policy.codec import decode_observation, encode_observation
from repro.sim import SchedulingEnv, VecSchedulingEnv
from repro.sim.state import BatchObservation, build_observations
from repro.sim.streaming import (
    PoissonArrivals,
    StreamingSchedulingEnv,
    VecStreamingEnv,
)
from repro.utils.seeding import spawn_generators
from tests.sim.reference_state import (
    assert_matches_reference,
    reference_of,
    same_adjacency,
    same_array,
)

# --------------------------------------------------------------------- #
# member factories
# --------------------------------------------------------------------- #


def _workload(family, tiles):
    if family == "mixed":
        return workloads.get(
            "mixed-families", families=["cholesky", "lu", "qr"], tile_choices=[tiles]
        )
    return workloads.get("single", kernel=family, tiles=tiles)


def make_vec(family, tiles, window, sigma, streaming, k, mixed_kernels, seed):
    """K members; ``mixed_kernels`` alternates two platforms, so no kernel
    is shared and the batch spans one kernel per member."""
    workload = _workload(family, tiles)
    platforms = [Platform(2, 2), Platform(3, 1)] if mixed_kernels else [Platform(2, 2)]
    envs = []
    for i, rng in enumerate(spawn_generators(seed, k)):
        noise = GaussianNoise(sigma) if sigma else NoNoise()
        platform = platforms[i % len(platforms)]
        if streaming:
            envs.append(StreamingSchedulingEnv(
                workload, platform, arrival=PoissonArrivals(0.02), num_jobs=3,
                noise=noise, window=window, rng=rng,
            ))
        else:
            envs.append(SchedulingEnv(
                workload.sample, platform, workload.durations, noise=noise,
                window=window, rng=rng,
            ))
    return (VecStreamingEnv if streaming else VecSchedulingEnv)(envs)


def drive(vec, steps, seed):
    """Reset and step ``vec`` with random legal actions, checking every
    batch against the oracle; returns the number of auto-resets seen."""
    rng = np.random.default_rng(seed)
    batch = vec.reset().obs
    assert_matches_reference(vec.envs, batch)
    resets = 0
    for _ in range(steps):
        actions = [int(rng.integers(ob.num_actions)) for ob in batch]
        step = vec.step(actions)
        batch = step.obs
        resets += int(step.dones.sum())
        assert_matches_reference(vec.envs, batch)
    return resets


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(["cholesky", "lu", "qr", "mixed"]),
    tiles=st.integers(2, 4),
    window=st.integers(0, 3),
    sigma=st.sampled_from([0.0, 0.3]),
    streaming=st.booleans(),
    k=st.integers(1, 8),
    mixed_kernels=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_batch_matches_reference(
    family, tiles, window, sigma, streaming, k, mixed_kernels, seed
):
    vec = make_vec(family, tiles, window, sigma, streaming, k, mixed_kernels, seed)
    assert (vec.kernel is None) == (mixed_kernels and k > 1)
    drive(vec, steps=25, seed=seed)


@pytest.mark.parametrize("streaming", [False, True])
@pytest.mark.parametrize("mixed_kernels", [False, True])
def test_auto_reset_members_join_the_step_batch(streaming, mixed_kernels):
    """Members that finish inside a step are re-initialised and built in
    the same batch as the members that merely advanced, whether they share
    one kernel or each own one."""
    vec = make_vec("cholesky", 2, 2, 0.3, streaming, 5, mixed_kernels, 7)
    resets = drive(vec, steps=120, seed=7)
    assert resets >= 5


def test_build_observations_mixes_kernels_and_graphs():
    """One call over members of two vec envs (two kernels), each member on
    its own graph; members of different feature widths are refused."""
    a = make_vec("mixed", 3, 2, 0.3, False, 3, False, 1)
    b = make_vec("mixed", 3, 2, 0.3, False, 2, False, 2)
    c = make_vec("mixed", 3, 2, 0.3, True, 1, False, 3)
    for vec in (a, b, c):
        vec.reset()
    envs = a.envs + b.envs
    procs = [int(env.sim.idle_processors()[0]) for env in envs]
    batch = build_observations(
        [e.state_builder for e in envs], [e.sim for e in envs], procs,
        [None, True, False, None, True],
    )
    assert_matches_reference(envs, batch)
    envs = a.envs + c.envs
    with pytest.raises(ValueError, match="feature width"):
        build_observations(
            [e.state_builder for e in envs], [e.sim for e in envs], procs[:4],
            [True] * 4,
        )


def test_single_environment_build_is_the_k1_batch():
    """``StateBuilder.build`` (the single-env path) returns a batch view."""
    workload = _workload("qr", 3)
    env = SchedulingEnv(workload.sample, Platform(2, 2), workload.durations,
                        noise=GaussianNoise(0.2), window=3, rng=4)
    rng = np.random.default_rng(4)
    ob = env.reset().obs
    for _ in range(200):
        assert isinstance(ob, BatchObservation)
        assert_matches_reference([env], ob._batch)
        result = env.step(int(rng.integers(ob.num_actions)))
        ob = env.reset().obs if result.done else result.obs


@pytest.mark.parametrize("mixed_kernels", [False, True])
@pytest.mark.parametrize("streaming", [False, True])
def test_codec_payload_of_a_view_equals_the_reference(mixed_kernels, streaming):
    vec = make_vec("mixed", 3, 2, 0.3, streaming, 3, mixed_kernels, 11)
    batch = vec.reset().obs
    for env, ob in zip(vec.envs, batch):
        payload = encode_observation(ob)
        assert payload == encode_observation(reference_of(env, ob))
        back = decode_observation(payload)
        same_array(back.features, ob.features, "decoded features")
        same_adjacency(back.norm_adj, ob.norm_adj, "decoded norm_adj")


def test_views_read_the_batch_lazily_and_accept_writes():
    vec = make_vec("cholesky", 3, 2, 0.0, False, 2, False, 3)
    batch = vec.reset().obs
    view = batch[1]
    assert "norm_adj" not in view.__dict__
    assert view.norm_adj is view.norm_adj  # built once, then cached
    assert not any(a.flags.writeable for a in view.adjacency_parts())
    assert not view.norm_adj.data.flags.writeable
    assert view.features.base is batch.feats or view.features.base is batch.feats.base
    view.features = np.zeros((1, 1))  # a plain attribute once assigned
    assert view.features.shape == (1, 1)
    assert batch[-1].current_proc == batch[1].current_proc
    assert [o.num_nodes for o in batch[0:2]] == batch.sizes
    with pytest.raises(IndexError):
        batch[2]
