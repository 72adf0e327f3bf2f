"""Differential suite: the array training step against the autograd tape.

Every A2C and PPO update runs :func:`repro.nn.compile.array_step`, a
hand-written forward and backward over the parameter arrays.  Its bitwise
equality with the tape is a property of the code, held here rather than
checked at run time: over live batches of mixed-family environments (K
2..16, windows 0..3, 1..3 GCN layers, advantage normalisation on and off,
the C fusion core on and off, with and without dead GCN units) the step's
loss, per-term stats and every parameter gradient equal
:func:`tests.reference_tape.tape_terms` byte for byte, and so do the
weights after the owner's flat clip + Adam against the tape's
``clip_grad_norm`` + ``Adam.step``.

The four updates the step does not take — grad disabled, anomaly mode, a
batch of one, a batch without a pass head — each run on the tape, give the
tape's weights and add one to ``fallbacks``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.nn import TrainingCompiler, detect_anomaly, no_grad
from repro.nn.array_forward import fusion_for
from repro.nn.compile import array_step
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.a2c import A2CConfig, A2CUpdater, Transition
from repro.rl.trainer import default_agent
from repro.sim.state import ObservationBatch
from tests.reference_tape import reference_tape, tape_terms
from tests.rl.test_agent import make_agent
from tests.rl.test_array_forward import make_vec, randomize, same_bits
from tests.rl.test_forward_batch import FEATURE_DIM, random_obs

# the anomaly fallback is pinned explicitly below; an ambient
# detect_anomaly() would turn every array step into a fallback
pytestmark = pytest.mark.no_auto_anomaly

MAX_GRAD_NORM = 0.5  # small enough that the clip binds on some draws


def collect(vec, steps, rng):
    """Every observation of ``steps`` random lockstep decisions."""
    observations = []
    batch = vec.reset().obs
    for _ in range(steps):
        observations.extend(batch)
        batch = vec.step([int(rng.integers(ob.num_actions)) for ob in batch]).obs
    return observations


def kill_units(agent):
    """Dead units in the last GCN layer: their columns are all zero, so
    every window's max pool ties on every node there."""
    state = agent.state_dict()
    name = f"gcn.convs.{agent.config.num_gcn_layers - 1}.bias"
    state[name][:3] = -1e3
    agent.load_state_dict(state)
    return agent


def step_consts(kind, n, rng, normalize, value_coef, entropy_coef):
    consts = {
        "returns": rng.normal(scale=3.0, size=n),
        "value_coef": value_coef,
        "entropy_coef": entropy_coef,
        "max_grad_norm": MAX_GRAD_NORM,
    }
    if kind == "a2c":
        consts["normalize_advantage"] = normalize
    else:
        advantages = rng.normal(size=n)
        consts["advantages"] = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        consts["old_log_probs"] = rng.normal(loc=-1.0, scale=0.5, size=n)
        consts["clip_epsilon"] = float(rng.uniform(0.1, 0.3))
    return consts


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["a2c", "ppo"]),
    k=st.integers(2, 16),
    window=st.integers(0, 3),
    layers=st.integers(1, 3),
    steps=st.integers(1, 3),
    normalize=st.booleans(),
    fused=st.booleans(),
    dead=st.booleans(),
    coefs=st.tuples(st.sampled_from([0.0, 0.5, 1.3]), st.sampled_from([0.0, 5e-3, 0.1])),
    seed=st.integers(0, 2**16),
)
def test_array_step_equals_the_tape(
    kind, k, window, layers, steps, normalize, fused, dead, coefs, seed
):
    rng = np.random.default_rng(seed)
    vec = make_vec(k, window, seed)
    observations = collect(vec, steps, rng)
    agents = []
    for _ in range(2):
        agent = randomize(default_agent(vec, hidden_dim=16, num_gcn_layers=layers, rng=seed), seed)
        agents.append(kill_units(agent) if dead else agent)
    tape_agent, array_agent = agents
    batch = ObservationBatch.of(observations)
    assume(batch.pass_idx.size > 0)  # the array step needs a pass head
    n = len(observations)
    actions = np.array([rng.integers(ob.num_actions) for ob in observations], dtype=np.int64)
    consts = step_consts(kind, n, rng, normalize, *coefs)
    fu = fusion_for(16) if fused else None

    # loss, per-term stats and every gradient, byte for byte
    loss, stats, grads = tape_terms(tape_agent, kind, batch, actions, consts)
    got_grads = [np.empty_like(w) for w in array_agent._weights()]
    got = array_step(
        array_agent._weights(), batch, actions, consts, kind=kind, grads=got_grads, fu=fu,
    )
    same_bits(got["loss"], loss)
    assert set(got) == set(stats)
    for name, value in stats.items():
        same_bits(got[name], value)
    for got_grad, grad in zip(got_grads, grads):
        same_bits(got_grad, grad)

    # the weights after clip + Adam
    tape_opt = Adam(tape_agent.parameters(), lr=1e-2)
    tape_norm = clip_grad_norm(tape_agent.parameters(), MAX_GRAD_NORM)
    tape_opt.step()
    owner = TrainingCompiler(array_agent, Adam(array_agent.parameters(), lr=1e-2))
    owner._fusion = fu
    out = owner.update(kind, batch, actions, consts)
    same_bits(out["grad_norm"], tape_norm)
    assert owner.stats_dict()["array_steps"] == 1
    for a, b in zip(array_agent._weights(), tape_agent._weights()):
        same_bits(a, b)


# --------------------------------------------------------------------- #
# the four tape fallbacks
# --------------------------------------------------------------------- #


def fallback_case(seed, sizes, allow_pass=None):
    """A tape updater, an array-step updater (equal weights) and one unroll
    of synthetic windows."""
    rng = np.random.default_rng(seed)
    unroll = [
        Transition(random_obs(rng, size, allow_pass=allow_pass), 0, float(rng.normal()), False)
        for size in sizes
    ]
    config = A2CConfig(unroll_length=len(sizes))
    tape = A2CUpdater(randomize(make_agent(feature_dim=FEATURE_DIM, rng=seed), seed), config)
    array = A2CUpdater(randomize(make_agent(feature_dim=FEATURE_DIM, rng=seed), seed), config)
    return tape, array, unroll


def assert_fell_back(tape, array):
    stats = array.train_compile_stats()
    assert stats["fallbacks"] == 1 and stats["array_steps"] == 0, stats
    for a, b in zip(array.agent._weights(), tape.agent._weights()):
        same_bits(a, b)


def test_a_batch_of_one_runs_on_the_tape():
    tape, array, unroll = fallback_case(1, [5])
    with reference_tape():
        want = tape.update(unroll, 0.7)
    got = array.update(unroll, 0.7)
    assert got == want
    assert_fell_back(tape, array)


def test_a_batch_without_a_pass_head_runs_on_the_tape():
    tape, array, unroll = fallback_case(2, [4, 6, 3], allow_pass=False)
    with reference_tape():
        want = tape.update(unroll, 0.7)
    got = array.update(unroll, 0.7)
    assert got == want
    assert_fell_back(tape, array)


def test_anomaly_mode_runs_on_the_tape():
    tape, array, unroll = fallback_case(3, [4, 6, 3], allow_pass=True)
    with detect_anomaly():
        with reference_tape():
            want = tape.update(unroll, 0.7)
        got = array.update(unroll, 0.7)
    assert got == want
    assert_fell_back(tape, array)


def test_grad_disabled_runs_on_the_tape():
    """With grad off there is no graph to differentiate: the tape raises as
    it always has, and the weights stay as they were."""
    tape, array, unroll = fallback_case(4, [4, 6, 3], allow_pass=True)
    before = [w.copy() for w in array.agent._weights()]
    with no_grad():
        with reference_tape(), pytest.raises(RuntimeError, match="without grad"):
            tape.update(unroll, 0.7)
        with pytest.raises(RuntimeError, match="without grad"):
            array.update(unroll, 0.7)
    assert_fell_back(tape, array)
    for a, b in zip(array.agent._weights(), before):
        same_bits(a, b)


def test_a_batch_with_a_pass_head_takes_the_array_step():
    tape, array, unroll = fallback_case(5, [4, 6, 3], allow_pass=True)
    with reference_tape():
        want = tape.update(unroll, 0.7)
    got = array.update(unroll, 0.7)
    assert got == want
    stats = array.train_compile_stats()
    assert stats["array_steps"] == 1 and stats["fallbacks"] == 0, stats
    for a, b in zip(array.agent._weights(), tape.agent._weights()):
        same_bits(a, b)
