"""Differential suite: ``ObservationBatch.of`` against the batches it stands for.

Every batched forward and training step reads one ``ObservationBatch``:
the state builder's, or ``ObservationBatch.of`` a list of observations
(the A2C/PPO updates over stored transitions, the server's flushes, the
bootstrap values of open members).  Two properties hold the two kinds
together:

* a builder batch and ``ObservationBatch.of(list(batch))`` hold the same
  arrays, action layout and block-diagonal matrix byte for byte, over
  static and streaming members, shared and per-member kernels and steps
  with auto-resets, and forward to the same bits on the NumPy kernels and
  on the fusion core;
* every view of ``ObservationBatch.of(observations)`` returns every field
  of its source observation.

Observations also refuse CSR adjacencies the forwards' kernels would read
out of bounds, at construction, before any forward.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn.array_forward import batch_forward, fusion_for
from repro.rl.trainer import default_agent
from repro.sim.state import PROC_FEATURE_DIM, Observation, ObservationBatch
from tests.sim.reference_state import assert_same_batch, same_array
from tests.sim.test_state_batch import make_vec


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["cholesky", "lu", "qr", "mixed"]),
    tiles=st.integers(2, 3),
    window=st.integers(0, 3),
    streaming=st.booleans(),
    k=st.integers(1, 6),
    mixed_kernels=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_batch_of_builder_members_is_the_builder_batch(
    family, tiles, window, streaming, k, mixed_kernels, seed
):
    """Also forwarded: the two batches give the same logits and values on
    the NumPy kernels and on the fusion core (when it is loaded)."""
    vec = make_vec(family, tiles, window, 0.3, streaming, k, mixed_kernels, seed)
    weights = default_agent(vec, hidden_dim=16, rng=seed)._weights()
    rng = np.random.default_rng(seed)
    batch = vec.reset().obs
    for step in range(41):
        if step:
            batch = vec.step([int(rng.integers(ob.num_actions)) for ob in batch]).obs
        rebuilt = ObservationBatch.of(list(batch))
        assert_same_batch(rebuilt, batch)
        for fu in (None, fusion_for(16)):
            want, got = batch_forward(weights, batch, fu), batch_forward(weights, rebuilt, fu)
            same_array(got.logits, want.logits, "logits")
            same_array(got.values, want.values, "values")
    assert ObservationBatch.of(batch) is batch


@st.composite
def observations(draw):
    """A standalone observation: random CSR window (a matrix or its int32
    parts), ready set, descriptor, ∅ legality, extra columns and an
    optional fingerprint."""
    m = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dense = rng.random((m, m)) * (rng.random((m, m)) < 0.4)
    adj = sp.csr_matrix(dense)
    if draw(st.booleans()):
        adj = (adj.data, adj.indices, adj.indptr)
    ready = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
    fingerprint = draw(st.one_of(st.none(), st.binary(min_size=1, max_size=16)))
    return Observation(
        features=rng.normal(size=(m, 5)),
        norm_adj=adj,
        ready_positions=ready.astype(np.int64),
        ready_tasks=rng.integers(0, 1000, size=ready.size),
        proc_features=rng.normal(size=PROC_FEATURE_DIM),
        current_proc=int(rng.integers(0, 8)),
        allow_pass=draw(st.booleans()),
        window_fingerprint=fingerprint,
        extra_node_features=draw(st.integers(0, 2)),
    )


@settings(max_examples=80, deadline=None)
@given(sources=st.lists(observations(), min_size=1, max_size=6))
def test_views_of_a_batch_of_observations_return_their_fields(sources):
    batch = ObservationBatch.of(sources)
    assert len(batch) == len(sources)
    for i, (view, src) in enumerate(zip(batch, sources)):
        assert view is not src
        for field in ("features", "ready_positions", "ready_tasks", "proc_features"):
            same_array(getattr(view, field), getattr(src, field), f"member {i} {field}")
        for got, want, part in zip(view.adjacency_parts(), src.adjacency_parts(),
                                   ("data", "indices", "indptr")):
            same_array(got, want, f"member {i} {part}")
        assert view.current_proc == src.current_proc
        assert view.allow_pass == src.allow_pass
        assert view.extra_node_features == src.extra_node_features
        assert view.window_fingerprint == src.window_fingerprint
        assert view.num_nodes == src.num_nodes
        assert view.num_actions == src.num_actions


def test_a_batch_refuses_a_window_that_is_not_a_decision_point():
    src = Observation(
        features=np.ones((2, 3)),
        norm_adj=sp.csr_matrix(np.eye(2)),
        ready_positions=np.zeros(0, dtype=np.int64),
        ready_tasks=np.zeros(0, dtype=np.int64),
        proc_features=np.zeros(PROC_FEATURE_DIM),
        current_proc=0,
        allow_pass=True,
    )
    with pytest.raises(ValueError, match="no ready task"):
        ObservationBatch.of([src])


# --------------------------------------------------------------------- #
# CSR adjacencies refused at construction
# --------------------------------------------------------------------- #

BAD_PARTS = {
    "column past the window": ([0, 1, 100000], [0, 1, 2, 3]),
    "negative column": ([0, -1, 2], [0, 1, 2, 3]),
    "decreasing row pointer": ([0, 1, 2], [0, 2, 1, 3]),
    "row pointers wrapping in int32": ([0, 1, 2], [0, 2**31 - 1, -(2**31), 3]),
    "row pointers short of nnz": ([0, 1, 2], [0, 1, 2, 2]),
}


@pytest.mark.parametrize("as_parts", [False, True])
@pytest.mark.parametrize("case", sorted(BAD_PARTS))
def test_out_of_bounds_csr_is_refused_at_construction(case, as_parts):
    """Three feature rows over CSR parts the spmm kernels would read out
    of bounds (the first case crashed the interpreter in a forward): the
    Observation raises, so no forward ever runs on it."""
    indices, indptr = (np.array(a, dtype=np.int32) for a in BAD_PARTS[case])
    adj = (np.ones(3), indices, indptr)
    if not as_parts:  # a matrix holds whatever parts are set on it
        adj = sp.csr_matrix((3, 3))
        adj.data, adj.indices, adj.indptr = np.ones(3), indices, indptr
    with pytest.raises(ValueError, match="indptr|column"):
        Observation(
            features=np.ones((3, 4)),
            norm_adj=adj,
            ready_positions=np.array([0]),
            ready_tasks=np.array([0]),
            proc_features=np.zeros(PROC_FEATURE_DIM),
            current_proc=0,
            allow_pass=True,
        )
