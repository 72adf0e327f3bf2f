"""Windowed state extraction (Observation / StateBuilder)."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.graphs.cholesky import cholesky_dag
from repro.graphs.durations import CHOLESKY_DURATIONS
from repro.platforms.noise import NoNoise
from repro.platforms.resources import CPU, GPU, NUM_RESOURCE_TYPES, Platform
from repro.sim.engine import Simulation
from repro.sim.state import (
    PROC_FEATURE_DIM,
    Observation,
    StateBuilder,
    observation_feature_dim,
)


def fresh_sim(tiles=4, cpus=2, gpus=2, rng=0):
    return Simulation(
        cholesky_dag(tiles), Platform(cpus, gpus), CHOLESKY_DURATIONS, NoNoise(), rng=rng
    )


class TestWindowNodes:
    def test_initial_window_depth0(self):
        sim = fresh_sim()
        builder = StateBuilder(CHOLESKY_DURATIONS, window=0)
        nodes = builder.window_nodes(sim)
        np.testing.assert_array_equal(nodes, sim.ready_tasks())

    def test_window_grows_with_depth(self):
        sim = fresh_sim(tiles=6)
        sizes = [
            StateBuilder(CHOLESKY_DURATIONS, window=w).window_nodes(sim).size
            for w in (0, 1, 2, 3)
        ]
        assert sizes == sorted(sizes)
        assert sizes[1] > sizes[0]

    def test_window_includes_running(self):
        sim = fresh_sim()
        sim.start(0, 0)
        builder = StateBuilder(CHOLESKY_DURATIONS, window=1)
        nodes = builder.window_nodes(sim)
        assert 0 in nodes

    def test_window_excludes_finished(self):
        sim = fresh_sim()
        sim.start(0, 0)
        sim.advance()
        builder = StateBuilder(CHOLESKY_DURATIONS, window=3)
        assert 0 not in builder.window_nodes(sim)

    def test_empty_system_raises(self):
        sim = fresh_sim(tiles=1, cpus=1, gpus=0)
        sim.start(0, 0)
        sim.advance()
        with pytest.raises(RuntimeError):
            StateBuilder(CHOLESKY_DURATIONS, window=1).window_nodes(sim)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            StateBuilder(CHOLESKY_DURATIONS, window=-1)


class TestObservation:
    def test_feature_dims(self):
        sim = fresh_sim()
        builder = StateBuilder(CHOLESKY_DURATIONS, window=2)
        obs = builder.build(sim, current_proc=0)
        assert obs.features.shape[1] == observation_feature_dim(4)
        assert obs.proc_features.shape == (PROC_FEATURE_DIM,)

    def test_adjacency_square_and_symmetric(self):
        sim = fresh_sim()
        obs = StateBuilder(CHOLESKY_DURATIONS, window=2).build(sim, 0)
        m = obs.num_nodes
        assert obs.norm_adj.shape == (m, m)
        np.testing.assert_allclose(obs.norm_adj.toarray(), obs.norm_adj.T.toarray())

    def test_ready_positions_align_with_tasks(self):
        sim = fresh_sim()
        obs = StateBuilder(CHOLESKY_DURATIONS, window=2).build(sim, 0)
        # the ready rows carry the ready flag (column 2 of raw features)
        np.testing.assert_allclose(obs.features[obs.ready_positions, 2], 1.0)
        assert len(obs.ready_positions) == len(obs.ready_tasks)

    def test_current_proc_type_encoded(self):
        sim = fresh_sim(cpus=2, gpus=2)
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        obs_cpu = b.build(sim, 0)
        obs_gpu = b.build(sim, 2)
        # last two node-feature columns are the broadcast current-proc one-hot
        assert (obs_cpu.features[:, -2] == 1.0).all()
        assert (obs_cpu.features[:, -1] == 0.0).all()
        assert (obs_gpu.features[:, -1] == 1.0).all()
        # proc descriptor leads with the same one-hot
        assert obs_cpu.proc_features[CPU] == 1.0
        assert obs_gpu.proc_features[GPU] == 1.0

    def test_exp_duration_on_current_column(self):
        sim = fresh_sim()
        b = StateBuilder(CHOLESKY_DURATIONS, window=0)
        obs = b.build(sim, 0)  # CPU
        scale = CHOLESKY_DURATIONS.table.mean()
        root_type = int(sim.graph.task_types[obs.ready_tasks[0]])
        expected = CHOLESKY_DURATIONS.expected(root_type, CPU) / scale
        assert obs.features[obs.ready_positions[0], -3] == pytest.approx(expected)

    def test_running_remaining_column(self):
        sim = fresh_sim()
        sim.start(0, 2)  # POTRF on GPU (9ms)
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        obs = b.build(sim, 0)
        pos = int(np.flatnonzero(obs.features[:, 3] == 1.0)[0])  # running row
        scale = CHOLESKY_DURATIONS.table.mean()
        assert obs.features[pos, -6 + NUM_RESOURCE_TYPES] == pytest.approx(9.0 / scale)

    def test_allow_pass_default(self):
        sim = fresh_sim()
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        assert not b.build(sim, 0).allow_pass  # nothing running
        sim.start(0, 0)
        # (not a decision point in practice, but the builder reflects state)
        sim2 = fresh_sim(tiles=6)
        sim2.start(0, 0)
        sim2.advance()
        assert b.build(sim2, 0).allow_pass is False or sim2.running_tasks().size == 0

    def test_allow_pass_override(self):
        sim = fresh_sim()
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        obs = b.build(sim, 0, allow_pass=True)
        assert obs.allow_pass
        assert obs.num_actions == len(obs.ready_tasks) + 1

    def test_num_actions_without_pass(self):
        sim = fresh_sim()
        obs = StateBuilder(CHOLESKY_DURATIONS, window=1).build(sim, 0, allow_pass=False)
        assert obs.num_actions == len(obs.ready_tasks)


class TestProcDescriptor:
    def test_idle_fraction(self):
        sim = fresh_sim(cpus=2, gpus=2)
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        assert b.proc_descriptor(sim, 0)[NUM_RESOURCE_TYPES] == 1.0
        sim.start(0, 0)
        assert b.proc_descriptor(sim, 1)[NUM_RESOURCE_TYPES] == pytest.approx(0.75)

    def test_mean_remaining_zero_when_idle(self):
        sim = fresh_sim()
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        assert b.proc_descriptor(sim, 0)[-1] == 0.0

    def test_mean_remaining_positive_when_busy(self):
        sim = fresh_sim()
        sim.start(0, 0)
        b = StateBuilder(CHOLESKY_DURATIONS, window=1)
        assert b.proc_descriptor(sim, 1)[-1] > 0.0


class TestCaching:
    def test_fraction_cache_lives_on_graph(self):
        b = StateBuilder(CHOLESKY_DURATIONS, window=2)
        sim = fresh_sim()
        b.build(sim, 0)
        cached = sim.graph.__dict__["_cached_type_fractions"]
        b.build(sim, 1)
        assert sim.graph.__dict__["_cached_type_fractions"] is cached

    def test_different_graphs_cached_separately(self):
        b = StateBuilder(CHOLESKY_DURATIONS, window=2)
        s1, s2 = fresh_sim(4), fresh_sim(5)
        b.build(s1, 0)
        b.build(s2, 0)
        f1 = s1.graph.__dict__["_cached_type_fractions"]
        f2 = s2.graph.__dict__["_cached_type_fractions"]
        assert f1.shape != f2.shape

    def test_no_stale_reuse_across_graph_lifetimes(self):
        """Fresh graph objects never see another graph's cached constants
        (the id()-reuse hazard a global cache would have)."""
        import gc

        from repro.graphs.cholesky import cholesky_dag
        from repro.schedulers.heft import heft_makespan

        plat = Platform(2, 2)
        mk4 = heft_makespan(cholesky_dag(4), plat, CHOLESKY_DURATIONS)
        gc.collect()
        mk5 = heft_makespan(cholesky_dag(5), plat, CHOLESKY_DURATIONS)
        assert mk4 != mk5


class TestFrozenMemos:
    """Memoised per-graph arrays are read-only: aliasing writes must raise."""

    def test_cached_arrays_are_write_protected(self):
        sim = fresh_sim()
        builder = StateBuilder(CHOLESKY_DURATIONS, window=2)
        builder.build(sim, current_proc=0)  # populate the memo caches
        graph = sim.graph
        memos = {
            key: graph.__dict__[key]
            for key in (
                "_cached_type_fractions",
                "_cached_neighbours",
                "_cached_static_features",
            )
        }
        memos["_cached_expected_norm"] = graph.__dict__["_cached_expected_norm"][1]
        for key, cached in memos.items():
            assert not cached.flags.writeable, key
            with pytest.raises(ValueError):
                cached[(0,) * cached.ndim] = 99.0

    def test_window_adjacency_memo_is_write_protected(self):
        sim = fresh_sim()
        builder = StateBuilder(CHOLESKY_DURATIONS, window=2)
        obs = builder.build(sim, current_proc=0)
        assert not obs.norm_adj.data.flags.writeable
        with pytest.raises(ValueError):
            obs.norm_adj[0, 0] = 99.0

    def test_observation_features_stay_writable(self):
        # the per-observation feature matrix is a fresh buffer, not a memo
        sim = fresh_sim()
        builder = StateBuilder(CHOLESKY_DURATIONS, window=2)
        obs = builder.build(sim, current_proc=0)
        obs.features[0, 0] = 0.5  # must not raise


class TestProcDescriptorAgreement:
    """``proc_descriptor`` standalone equals the descriptor ``build`` embeds
    (they share one implementation; this pins the dedup)."""

    @pytest.mark.parametrize("window", [1, 2])
    def test_agrees_with_build_mid_episode(self, window):
        sim = fresh_sim()
        b = StateBuilder(CHOLESKY_DURATIONS, window=window)
        rng = np.random.default_rng(7)
        checked = 0
        while not sim.done and checked < 10:
            ready = sim.ready_tasks()
            idle = sim.idle_processors()
            if ready.size and idle.size:
                proc = int(idle[-1])
                np.testing.assert_array_equal(
                    b.build(sim, proc).proc_features,
                    b.proc_descriptor(sim, proc),
                )
                checked += 1
                sim.start(int(rng.choice(ready)), proc)
            else:
                sim.advance()
        assert checked == 10


class TestHandBuiltAdjacency:
    """``norm_adj`` is CSR: a csr_matrix or its (data, indices, indptr)."""

    @staticmethod
    def build(norm_adj):
        return Observation(
            features=np.zeros((2, 1)), norm_adj=norm_adj,
            ready_positions=np.array([0]), ready_tasks=np.array([0]),
            proc_features=np.zeros(PROC_FEATURE_DIM), current_proc=0, allow_pass=False,
        )

    def test_dense_adjacency_names_the_sparse_normaliser(self):
        with pytest.raises(ValueError, match="gcn_normalize_adjacency_sparse"):
            self.build(np.eye(2))

    def test_dense_adjacency_assigned_later_is_refused_at_use(self):
        obs = self.build(sp.identity(2, format="csr"))
        obs.norm_adj = np.eye(2)
        with pytest.raises(ValueError, match="gcn_normalize_adjacency_sparse"):
            obs.adjacency_parts()

    def test_parts_and_matrix_describe_one_adjacency(self):
        matrix = sp.csr_matrix(np.array([[0.5, 0.25], [0.0, 1.0]]))
        parts = (matrix.data, matrix.indices, matrix.indptr)
        from_parts = self.build(parts)
        assert "norm_adj" not in from_parts.__dict__  # built on first read
        assert from_parts.adjacency_parts() is parts
        np.testing.assert_array_equal(from_parts.norm_adj.toarray(), matrix.toarray())
        from_matrix = self.build(matrix)
        assert from_matrix.norm_adj is matrix
        for a, b in zip(from_matrix.adjacency_parts(), parts):
            assert a is b

    def test_parts_need_csr_dtypes(self):
        with pytest.raises(ValueError, match="int32"):
            self.build((np.ones(2), np.arange(2), np.arange(3)))

    def test_non_csr_sparse_and_non_square_are_refused(self):
        with pytest.raises(ValueError, match="csr_matrix"):
            self.build(sp.identity(2, format="coo"))
        with pytest.raises(ValueError, match="square"):
            self.build(sp.csr_matrix((2, 3)))
