"""Wire codec: bitwise float round-trips and malformed-payload rejection."""

import json
import math

import numpy as np
import pytest

from repro.policy.codec import (
    REPLY_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    CodecError,
    DecisionReply,
    DecisionRequest,
    decode_observation,
    decode_reply,
    decode_request,
    encode_observation,
    encode_reply,
    encode_request,
)
from repro.sim.state import Observation


def make_obs(allow_pass=True, sparse=False):
    """A small hand-built observation with deliberately awkward floats."""
    features = np.array(
        [
            [0.1, 1.0 / 3.0, math.pi],
            [np.nextafter(1.0, 2.0), 1e-300, 2.0 / 7.0],
            [0.2, 0.3, 0.4],
        ]
    )
    adj = np.array(
        [[0.5, 0.1, 0.0], [0.0, 1.0 / 3.0, 0.0], [0.0, 0.0, 0.25]]
    )
    if sparse:
        sp = pytest.importorskip("scipy.sparse")
        adj = sp.csr_matrix(adj)
    return Observation(
        features=features,
        norm_adj=adj,
        ready_positions=np.array([0, 2], dtype=np.int64),
        ready_tasks=np.array([7, 11], dtype=np.int64),
        proc_features=np.array([0.1, 0.9]),
        current_proc=1,
        allow_pass=allow_pass,
        window_fingerprint=b"local-only",
    )


class TestObservationRoundTrip:
    def test_dense_bitwise_exact(self):
        obs = make_obs()
        back = decode_observation(encode_observation(obs))
        assert np.array_equal(back.features, obs.features)  # bitwise
        assert np.array_equal(back.norm_adj, obs.norm_adj)
        assert np.array_equal(back.ready_positions, obs.ready_positions)
        assert np.array_equal(back.ready_tasks, obs.ready_tasks)
        assert np.array_equal(back.proc_features, obs.proc_features)
        assert back.current_proc == obs.current_proc
        assert back.allow_pass is True

    def test_survives_a_real_json_transport(self):
        obs = make_obs(allow_pass=False)
        wire = json.dumps(encode_observation(obs))  # what the socket carries
        back = decode_observation(json.loads(wire))
        assert np.array_equal(back.features, obs.features)
        assert back.allow_pass is False

    def test_csr_round_trip(self):
        obs = make_obs(sparse=True)
        back = decode_observation(encode_observation(obs))
        assert back.norm_adj.format == "csr"
        assert np.array_equal(
            back.norm_adj.toarray(), obs.norm_adj.toarray()
        )

    def test_process_local_fields_do_not_cross_the_wire(self):
        payload = encode_observation(make_obs())
        assert "window_fingerprint" not in payload
        back = decode_observation(payload)
        assert back.window_fingerprint is None

    def test_decoded_adjacency_is_frozen(self):
        back = decode_observation(encode_observation(make_obs()))
        with pytest.raises((ValueError, RuntimeError)):
            back.norm_adj[0, 0] = 99.0


class TestObservationRejection:
    def test_non_finite_features_rejected_at_encode(self):
        obs = make_obs()
        bad = obs.features.copy()
        bad[0, 0] = np.nan
        broken = Observation(
            features=bad,
            norm_adj=obs.norm_adj,
            ready_positions=obs.ready_positions,
            ready_tasks=obs.ready_tasks,
            proc_features=obs.proc_features,
            current_proc=obs.current_proc,
            allow_pass=obs.allow_pass,
        )
        with pytest.raises(CodecError, match="non-finite"):
            encode_observation(broken)

    def test_non_object_payload(self):
        with pytest.raises(CodecError, match="object"):
            decode_observation([1, 2, 3])

    def test_missing_field(self):
        payload = encode_observation(make_obs())
        del payload["ready_tasks"]
        with pytest.raises(CodecError):
            decode_observation(payload)

    def test_unknown_adjacency_format(self):
        payload = encode_observation(make_obs())
        payload["adj"] = {"format": "coo", "data": []}
        with pytest.raises(CodecError, match="coo"):
            decode_observation(payload)

    @pytest.mark.parametrize("part, value", [
        ("indices", [0, 1, 7, 2]),
        ("indices", [0, -1, 1, 2]),
        ("indptr", [0, 3, 1, 4]),
    ])
    def test_csr_adjacency_out_of_range(self, part, value):
        payload = encode_observation(make_obs(sparse=True))
        payload["adj"][part] = value
        with pytest.raises(CodecError, match="malformed"):
            decode_observation(payload)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_adjacency_must_match_the_feature_rows(self, sparse, delta):
        """A square adjacency one row short or long would send the
        forward's spmm kernels past the end of their buffers."""
        obs = make_obs(sparse=sparse)
        m = obs.features.shape[0] + delta
        adj = np.zeros((m, m))
        k = min(m, 3)
        adj[:k, :k] = make_obs().norm_adj[:k, :k]
        if sparse:
            adj = pytest.importorskip("scipy.sparse").csr_matrix(adj)
        obs.norm_adj = adj
        with pytest.raises(CodecError, match="feature rows"):
            decode_observation(encode_observation(obs))

    def test_empty_ready_set_is_not_a_decision_point(self):
        payload = encode_observation(make_obs())
        payload["ready_positions"] = []
        payload["ready_tasks"] = []
        with pytest.raises(CodecError, match="no ready task"):
            decode_observation(payload)

    def test_length_mismatch(self):
        payload = encode_observation(make_obs())
        payload["ready_tasks"] = payload["ready_tasks"][:1]
        with pytest.raises(CodecError, match="mismatch"):
            decode_observation(payload)

    def test_positions_out_of_window(self):
        payload = encode_observation(make_obs())
        payload["ready_positions"] = [0, 99]
        with pytest.raises(CodecError, match="range"):
            decode_observation(payload)


class TestRequestReply:
    def test_request_round_trip_with_deadline(self):
        req = DecisionRequest(
            session="s1", seq=5, obs=make_obs(), deadline_ms=250.0
        )
        back = decode_request(encode_request(req))
        assert back.session == "s1"
        assert back.seq == 5
        # codec round-trips are bitwise by contract, not approximate
        assert back.deadline_ms == 250.0  # repro-lint: disable=RPR007 -- bitwise codec contract
        assert np.array_equal(back.obs.features, req.obs.features)

    def test_deadline_none_is_omitted(self):
        payload = encode_request(
            DecisionRequest(session="s1", seq=1, obs=make_obs())
        )
        assert "deadline_ms" not in payload
        assert decode_request(payload).deadline_ms is None

    def test_request_needs_a_session(self):
        payload = encode_request(
            DecisionRequest(session="s1", seq=1, obs=make_obs())
        )
        payload["session"] = ""
        with pytest.raises(CodecError, match="session"):
            decode_request(payload)

    def test_reply_round_trip(self):
        reply = DecisionReply(session="s1", seq=3, status=STATUS_OK, action=2)
        back = decode_reply(encode_reply(reply))
        assert back == reply
        assert back.ok

    def test_reply_action_only_when_ok(self):
        payload = encode_reply(
            DecisionReply(
                session="s1", seq=3, status=STATUS_ERROR, detail="boom"
            )
        )
        assert "action" not in payload
        back = decode_reply(payload)
        assert not back.ok
        assert back.action == -1
        assert back.detail == "boom"

    def test_reply_status_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="status"):
            DecisionReply(session="s1", seq=1, status="maybe")
        assert len(REPLY_STATUSES) == 4


class TestStreamingExtensions:
    """PR 9 wire additions: job attribution + extra node features.

    Both are strictly additive — payloads from pre-streaming clients decode
    unchanged, and single-job payloads stay byte-identical."""

    def test_extra_node_features_round_trip(self):
        obs = make_obs()
        obs.extra_node_features = 2
        back = decode_observation(encode_observation(obs))
        assert back.extra_node_features == 2
        assert np.array_equal(back.features, obs.features)

    def test_zero_extra_features_omitted_from_wire(self):
        payload = encode_observation(make_obs())
        assert "extra_node_features" not in payload
        assert decode_observation(payload).extra_node_features == 0

    def test_job_block_round_trip(self):
        req = DecisionRequest(
            session="s1", seq=2, obs=make_obs(), job_id=3, arrived_at=17.25
        )
        payload = encode_request(req)
        assert payload["job"] == {"id": 3, "arrived_at": 17.25}
        back = decode_request(payload)
        assert back.job_id == 3
        # codec round-trips are bitwise by contract, not approximate
        assert back.arrived_at == 17.25  # repro-lint: disable=RPR007 -- bitwise codec contract

    def test_job_block_omitted_when_unset(self):
        payload = encode_request(
            DecisionRequest(session="s1", seq=1, obs=make_obs())
        )
        assert "job" not in payload
        back = decode_request(payload)
        assert back.job_id is None
        assert back.arrived_at is None

    def test_old_payloads_decode_unchanged(self):
        """A payload with neither block — what a pre-streaming client sends —
        decodes exactly as before."""
        payload = json.loads(json.dumps(encode_request(
            DecisionRequest(session="legacy", seq=9, obs=make_obs())
        )))
        back = decode_request(payload)
        assert back.session == "legacy"
        assert back.job_id is None
        assert back.obs.extra_node_features == 0

    def test_job_block_without_id_rejected(self):
        payload = encode_request(
            DecisionRequest(session="s1", seq=1, obs=make_obs(), job_id=0)
        )
        del payload["job"]["id"]
        with pytest.raises(CodecError, match="'id'"):
            decode_request(payload)

    def test_malformed_job_block_rejected(self):
        payload = encode_request(
            DecisionRequest(session="s1", seq=1, obs=make_obs(), job_id=0)
        )
        payload["job"] = {"id": "not-a-number"}
        with pytest.raises(CodecError, match="job block"):
            decode_request(payload)
