"""Differential suite: the tape-free forward against the autograd tape.

Every no-grad decision runs :mod:`repro.nn.array_forward` — the tape's op
sequence on plain parameter arrays.  These tests hold its logits and values
**bitwise** equal to the tape forward over live environment batches
(``ObservationBatch`` and plain observation lists, windows 0..3, with and
without the ∅ action) and over synthetic windows whose CSR adjacency is a
matrix or its raw parts and over synthetic windows —
the policy helpers' NumPy path, and ``batch_forward`` with the C fusion core
(the training replay's path) on and off; check structurally that the policy
helpers make no ``Tensor``; refuse observations whose adjacency does not
match their feature rows; and hold the batched sampler to per-observation
``Generator.choice`` draws.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import workloads
from repro.nn.array_forward import batch_forward, fusion_for
from repro.nn.tensor import Tensor, no_grad
from repro.platforms import GaussianNoise, Platform
from repro.policy import AgentPolicy
from repro.rl.agent import segment_argmax, segment_choice
from repro.rl.trainer import default_agent
from repro.sim import SchedulingEnv, VecSchedulingEnv
from repro.sim.state import ObservationBatch
from repro.utils.seeding import spawn_generators
from tests.rl.test_agent import make_agent
from tests.rl.test_forward_batch import FEATURE_DIM, random_obs


def randomize(agent, seed):
    """Non-zero biases and weights of varied scale, so no term is trivial."""
    rng = np.random.default_rng(seed)
    agent.load_state_dict({
        name: rng.normal(scale=0.4, size=value.shape)
        for name, value in agent.state_dict().items()
    })
    return agent


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_tape(agent, observations, fused):
    """Batched and single-observation tape-free results equal the tape's;
    ``batch_forward`` with the fusion core when ``fused`` (and the machine
    can build it), else its NumPy path."""
    with no_grad():
        if len(observations) > 1:
            glue = agent._batch_glue(observations)
            bf = agent._forward_glue(glue)
            logits, values, offsets = agent._batch_arrays(observations)
            same_bits(logits, bf.logits.data)
            same_bits(values, bf.values.data)
            same_bits(offsets, bf.action_offsets)
            fu = fusion_for(agent.config.hidden_dim) if fused else None
            fwd = batch_forward(agent._weights(), glue, fu)
            same_bits(fwd.logits, bf.logits.data)
            same_bits(fwd.values, bf.values.data)
        for obs in observations:
            tape_logits, tape_value = agent.forward(obs)
            logits, value = agent._forward_arrays(obs)
            same_bits(logits, tape_logits.data)
            same_bits(value, tape_value.data)


def make_vec(k, window, seed):
    workload = workloads.get(
        "mixed-families", families=["cholesky", "lu", "qr"], tile_choices=[3]
    )
    envs = [
        SchedulingEnv(
            workload.sample, Platform(2, 2), workload.durations,
            noise=GaussianNoise(0.2), window=window, rng=rng,
        )
        for rng in spawn_generators(seed, k)
    ]
    return VecSchedulingEnv(envs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    k=st.integers(1, 8),
    window=st.integers(0, 3),
    steps=st.integers(0, 12),
    as_list=st.booleans(),
    fused=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_environment_batches_match_the_tape(k, window, steps, as_list, fused, seed):
    vec = make_vec(k, window, seed)
    agent = randomize(default_agent(vec, hidden_dim=16, rng=seed), seed)
    rng = np.random.default_rng(seed)
    batch = vec.reset().obs
    for _ in range(steps):
        batch = vec.step([int(rng.integers(ob.num_actions)) for ob in batch]).obs
    assert isinstance(batch, ObservationBatch)
    observations = list(batch) if as_list else batch
    assert_matches_tape(agent, observations, fused)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 8),
    layers=st.integers(1, 3),
    parts_probability=st.sampled_from([0.0, 0.5, 1.0]),
    fused=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_synthetic_windows_match_the_tape(k, layers, parts_probability, fused, seed):
    """Mixed window sizes, matrix- and parts-built members and ∅ legality
    per member."""
    rng = np.random.default_rng(seed)
    observations = [
        random_obs(rng, int(rng.integers(1, 14)), as_parts=bool(rng.random() < parts_probability))
        for _ in range(k)
    ]
    agent = randomize(make_agent(feature_dim=FEATURE_DIM, layers=layers, rng=seed), seed)
    assert_matches_tape(agent, observations, fused)


def test_policy_helpers_make_no_tensor(monkeypatch):
    made = []
    init = Tensor.__init__
    make = Tensor._make

    def counting_init(self, *args, **kwargs):
        made.append("init")
        init(self, *args, **kwargs)

    def counting_make(self, *args, **kwargs):
        made.append("make")
        return make(self, *args, **kwargs)

    rng = np.random.default_rng(3)
    observations = [random_obs(rng, n, as_parts=n % 2 == 0) for n in (3, 7, 5, 9)]
    agent = make_agent(feature_dim=FEATURE_DIM, rng=1)
    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(Tensor, "_make", counting_make)
    for batch in (observations[:1], observations):
        agent.action_distributions(batch)
        agent.sample_actions(batch, np.random.default_rng(0))
        agent.greedy_actions(batch)
        agent.state_values(batch)
    agent.action_distribution(observations[0])
    agent.sample_action(observations[0], np.random.default_rng(0))
    agent.greedy_action(observations[0])
    agent.state_value(observations[0])
    assert made == []
    agent.forward(observations[0])  # the counters do see the tape
    assert made


def test_forwards_read_weights_loaded_after_construction():
    """The agent binds its Parameters once, but reads ``p.data`` per call:
    ``load_state_dict`` rebinds the arrays, and the next decisions follow."""
    rng = np.random.default_rng(5)
    observations = [random_obs(rng, n, as_parts=n % 2 == 0, allow_pass=True) for n in (4, 7, 5)]
    agent = make_agent(feature_dim=FEATURE_DIM, rng=1)
    before = (agent.greedy_actions(observations), agent.state_value(observations[0]))
    agent.load_state_dict(randomize(make_agent(feature_dim=FEATURE_DIM, rng=2), 9).state_dict())
    actions, value = agent.greedy_actions(observations), agent.state_value(observations[0])
    assert value != before[1]
    assert not np.array_equal(actions, before[0])
    with no_grad():
        logits, values = agent._forward_batch_tensors(agent._batch_glue(observations))
        tape_value = agent.forward(observations[0])[1]
    offsets = agent._batch_glue(observations).action_offsets
    same_bits(actions, segment_argmax(logits.data, offsets))
    same_bits(value, float(tape_value.data[0]))


# --------------------------------------------------------------------- #
# adjacency / feature size mismatch
# --------------------------------------------------------------------- #


def resize_adjacency(obs, delta, as_parts):
    """``obs`` with its adjacency one row (and column) short or long, as a
    matrix or as its CSR parts."""
    m = obs.num_nodes + delta
    adj = obs.norm_adj.toarray()
    resized = np.zeros((m, m))
    k = min(m, adj.shape[0])
    resized[:k, :k] = adj[:k, :k]
    resized = sp.csr_matrix(resized)
    if as_parts:
        resized = (resized.data, resized.indices, resized.indptr)
    return replace(obs, norm_adj=resized)


@pytest.mark.parametrize("as_parts", [False, True])
@pytest.mark.parametrize("delta", [-1, 1])
def test_adjacency_size_mismatch_is_refused(as_parts, delta):
    """The spmm kernels index rows unchecked: a window whose adjacency does
    not match its feature rows raises before any kernel runs, on its own
    and inside a batch of several, whether the observation holds a matrix
    or the CSR parts."""
    rng = np.random.default_rng(2)
    good = [random_obs(rng, n, as_parts=as_parts) for n in (4, 6)]
    bad = resize_adjacency(random_obs(rng, 5, as_parts=as_parts), delta, as_parts)
    agent = make_agent(feature_dim=FEATURE_DIM, rng=1)
    with pytest.raises(ValueError, match="adjacency size"):
        agent.greedy_action(bad)
    for batch in ([good[0], bad], [good[0], bad, good[1]]):
        with pytest.raises(ValueError, match="adjacency size"):
            agent.greedy_actions(batch)
        with pytest.raises(ValueError, match="adjacency size"):
            AgentPolicy(agent).decide_many(batch)
    agent.greedy_actions(good)  # the well-formed batch still decides


def test_batch_forward_refuses_a_short_adjacency():
    rng = np.random.default_rng(4)
    agent = make_agent(feature_dim=FEATURE_DIM, rng=1)
    glue = agent._batch_glue([random_obs(rng, n) for n in (3, 5)])
    glue.adj_indptr = glue.adj_indptr[:-1]
    for fu in (None, fusion_for(agent.config.hidden_dim)):
        with pytest.raises(ValueError, match="adjacency size"):
            batch_forward(agent._weights(), glue, fu)


# --------------------------------------------------------------------- #
# batched sampling
# --------------------------------------------------------------------- #


def per_observation_choice(segments, rng):
    return [int(rng.choice(len(p), p=p)) for p in segments]


@st.composite
def segment_layouts(draw):
    """Probability vectors of 1..12 entries, some with zeros and ties."""
    segments = []
    for _ in range(draw(st.integers(1, 10))):
        weights = np.array(
            draw(st.lists(
                st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 10.0)),
                min_size=1, max_size=12,
            ))
        )
        if weights.sum() == 0.0:
            weights[draw(st.integers(0, weights.size - 1))] = 1.0
        segments.append(weights / weights.sum())
    return segments


@settings(max_examples=200, deadline=None)
@given(segments=segment_layouts(), seed=st.integers(0, 2**32 - 1))
def test_segment_choice_is_per_observation_choice(segments, seed):
    flat = np.concatenate(segments)
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in segments])))
    rng = np.random.default_rng(seed)
    got = segment_choice(flat, offsets, rng)
    reference = np.random.default_rng(seed)
    assert got.dtype == np.int64
    assert got.tolist() == per_observation_choice(segments, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_sample_actions_draw_like_sample_action():
    rng = np.random.default_rng(11)
    observations = [random_obs(rng, n) for n in (1, 4, 2, 8, 3)]
    agent = make_agent(feature_dim=FEATURE_DIM, rng=5)
    for batch in (observations[:1], observations):
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = agent.sample_actions(batch, got_rng)
        want = [agent.sample_action(obs, want_rng) for obs in batch]
        assert got.tolist() == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, -0.25])
def test_segment_choice_keeps_the_input_check(bad):
    flat = np.array([0.5, 0.5, 0.25, 0.75])
    flat[2] = bad
    offsets = np.array([0, 2, 4])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=flat[2:])
    with pytest.raises(ValueError):
        segment_choice(flat, offsets, np.random.default_rng(0))
