"""Batched agent forward: equivalence with the per-observation path.

The vectorised rollout stack stands on one invariant: a block-diagonally
batched GCN pass computes the *same* logits and values as B independent
forwards.  These tests pin that down property-style on random mixed-size
windows (dense and CSR adjacency), plus the gradient side and the batched
policy helpers built on top.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import gcn_normalize_adjacency
from repro.rl.agent import segment_argmax
from repro.sim.state import PROC_FEATURE_DIM, Observation
from tests.rl.test_agent import make_agent

FEATURE_DIM = 8
TOL = 1e-10


def random_obs(rng, num_nodes, sparse=False, allow_pass=None):
    """A synthetic window observation with a random DAG adjacency."""
    adj = np.triu((rng.random((num_nodes, num_nodes)) < 0.4).astype(float), 1)
    norm_adj = gcn_normalize_adjacency(adj)
    if sparse:
        norm_adj = sp.csr_matrix(norm_adj)
    num_ready = int(rng.integers(1, num_nodes + 1))
    ready = rng.choice(num_nodes, size=num_ready, replace=False)
    return Observation(
        features=rng.normal(size=(num_nodes, FEATURE_DIM)),
        norm_adj=norm_adj,
        ready_positions=np.sort(ready),
        ready_tasks=np.sort(ready),
        proc_features=rng.normal(size=PROC_FEATURE_DIM),
        current_proc=0,
        allow_pass=bool(rng.integers(0, 2)) if allow_pass is None else allow_pass,
    )


def random_batch(seed, batch, sparse_probability=0.5):
    rng = np.random.default_rng(seed)
    return [
        random_obs(
            rng,
            num_nodes=int(rng.integers(2, 12)),
            sparse=bool(rng.random() < sparse_probability),
        )
        for _ in range(batch)
    ]


class TestForwardBatchEquivalence:
    @given(seed=st.integers(0, 10_000), batch=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_observation_forward(self, seed, batch):
        """Property: batched logits/values ≡ per-obs forward to 1e-10.

        Mixed window sizes, mixed dense/CSR adjacency, mixed allow_pass —
        the exact shape of a VecEnv decision wave.
        """
        agent = make_agent(feature_dim=FEATURE_DIM, rng=3)
        obs_list = random_batch(seed, batch)
        logits_list, values = agent.forward_batch(obs_list)
        assert values.shape == (batch,)
        for i, obs in enumerate(obs_list):
            single_logits, single_value = agent.forward(obs)
            np.testing.assert_allclose(
                logits_list[i].data, single_logits.data, atol=TOL, rtol=0
            )
            np.testing.assert_allclose(
                values.data[i], single_value.data[0], atol=TOL, rtol=0
            )

    @pytest.mark.parametrize("sparse", [False, True])
    def test_uniform_format_batches(self, sparse):
        """All-dense and all-CSR batches both agree with the single path."""
        rng = np.random.default_rng(5)
        agent = make_agent(feature_dim=FEATURE_DIM, rng=1)
        obs_list = [random_obs(rng, n, sparse=sparse) for n in (3, 9, 5)]
        logits_list, values = agent.forward_batch(obs_list)
        for i, obs in enumerate(obs_list):
            single_logits, single_value = agent.forward(obs)
            np.testing.assert_allclose(
                logits_list[i].data, single_logits.data, atol=TOL, rtol=0
            )
            np.testing.assert_allclose(
                values.data[i], single_value.data[0], atol=TOL, rtol=0
            )

    def test_single_element_batch_is_bit_identical(self):
        """B=1 routes through forward() — exact equality, not just 1e-10."""
        rng = np.random.default_rng(9)
        agent = make_agent(feature_dim=FEATURE_DIM, rng=2)
        obs = random_obs(rng, 6)
        logits_list, values = agent.forward_batch([obs])
        single_logits, single_value = agent.forward(obs)
        np.testing.assert_array_equal(logits_list[0].data, single_logits.data)
        np.testing.assert_array_equal(values.data, single_value.data)

    def test_gradients_match_sum_of_singles(self):
        """d(Σ logits + Σ values)/dθ agrees between batched and looped passes."""
        agent = make_agent(feature_dim=FEATURE_DIM, rng=4)
        obs_list = random_batch(seed=17, batch=4)

        agent.zero_grad()
        logits_list, values = agent.forward_batch(obs_list)
        loss = values.sum()
        for logits in logits_list:
            loss = loss + logits.sum()
        loss.backward()
        batched_grads = [p.grad.copy() for p in agent.parameters()]

        agent.zero_grad()
        for obs in obs_list:
            logits, value = agent.forward(obs)
            (logits.sum() + value.sum()).backward()
        for got, expected in zip(batched_grads, (p.grad for p in agent.parameters())):
            np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            make_agent(feature_dim=FEATURE_DIM, rng=0).forward_batch([])

    def test_no_ready_task_raises(self):
        rng = np.random.default_rng(2)
        agent = make_agent(feature_dim=FEATURE_DIM, rng=0)
        good = random_obs(rng, 4)
        bad = random_obs(rng, 4)
        object.__setattr__(bad, "ready_positions", np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            agent.forward_batch([good, bad])


class TestBatchedPolicyHelpers:
    def setup_method(self):
        self.agent = make_agent(feature_dim=FEATURE_DIM, rng=6)
        self.obs_list = random_batch(seed=23, batch=5)

    def test_action_distributions_match_single(self):
        dists = self.agent.action_distributions(self.obs_list)
        for obs, p in zip(self.obs_list, dists):
            assert p.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(
                p, self.agent.action_distribution(obs), atol=TOL, rtol=0
            )

    def test_greedy_actions_match_single(self):
        actions = self.agent.greedy_actions(self.obs_list)
        assert actions.dtype == np.int64
        for obs, a in zip(self.obs_list, actions):
            assert int(a) == self.agent.greedy_action(obs)

    def test_segment_argmax_keeps_the_first_maximum(self):
        flat = np.array([1.0, 3.0, 3.0, 0.5, -2.0, -2.0, 7.0, 7.0, 7.0])
        offsets = np.array([0, 3, 4, 6, 9])
        got = segment_argmax(flat, offsets)
        want = [int(np.argmax(flat[a:b])) for a, b in zip(offsets[:-1], offsets[1:])]
        assert got.dtype == np.int64
        assert got.tolist() == want == [1, 0, 0, 0]
        flat[4] = np.nan  # argmax answers the first NaN
        assert segment_argmax(flat, offsets).tolist() == [1, 0, 0, 0]
        flat[5] = np.nan
        flat[1] = np.nan
        assert segment_argmax(flat, offsets).tolist() == [1, 0, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=6),
                    min_size=1, max_size=8))
    def test_segment_argmax_matches_argmax(self, segments):
        flat = np.concatenate([np.asarray(s, dtype=np.float64) for s in segments])
        offsets = np.concatenate(([0], np.cumsum([len(s) for s in segments])))
        want = [int(np.argmax(np.asarray(s, dtype=np.float64))) for s in segments]
        assert segment_argmax(flat, offsets).tolist() == want

    def test_state_values_match_single(self):
        values = self.agent.state_values(self.obs_list)
        for obs, v in zip(self.obs_list, values):
            assert v == pytest.approx(self.agent.state_value(obs), abs=TOL)

    def test_sample_actions_one_draw_per_env_in_order(self):
        # the batched sampler must consume the rng exactly as K sequential
        # single-obs samplers would — that is the K=1 reproducibility contract
        actions = self.agent.sample_actions(
            self.obs_list, np.random.default_rng(42)
        )
        rng = np.random.default_rng(42)
        expected = [self.agent.sample_action(obs, rng) for obs in self.obs_list]
        np.testing.assert_array_equal(actions, expected)

    def test_flat_offsets_partition_logits(self):
        bf = self.agent.forward_batch_flat(self.obs_list)
        num_actions = [obs.num_actions for obs in self.obs_list]
        np.testing.assert_array_equal(
            bf.action_offsets, np.concatenate(([0], np.cumsum(num_actions)))
        )
        np.testing.assert_array_equal(
            bf.action_segments, np.repeat(np.arange(len(self.obs_list)), num_actions)
        )
        assert bf.logits.shape == (sum(num_actions),)
        for i, n in enumerate(num_actions):
            assert bf.logits_of(i).shape == (n,)
