"""Wire codec: bitwise float round-trips and malformed-payload rejection."""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
        obs = make_obs(sparse=True)
        setattr(obs.norm_adj, part, np.array(value, dtype=np.int32))
        payload = encode_observation(obs)
        with pytest.raises(CodecError, match="malformed"):
            decode_observation(payload)

    def test_decreasing_indptr_without_entries(self):
        """scipy's full format check skips monotonicity when the last row
        pointer is 0; row 0 would then read one entry past ``indices``."""
        sp = pytest.importorskip("scipy.sparse")
        obs = make_obs()
        obs.norm_adj = sp.csr_matrix((3, 3))
        obs.norm_adj.indptr = np.array([0, 1, 0, 0], dtype=np.int32)
        with pytest.raises(CodecError, match="never decrease"):
            decode_observation(encode_observation(obs))

    def test_decreasing_indptr_hidden_by_int32_wraparound(self):
        """Each step of this row-pointer array wraps to a positive int32
        difference, yet the pointers fall; row 0 would read 2**31 - 1
        entries past an empty ``indices``."""
        sp = pytest.importorskip("scipy.sparse")
        obs = make_obs()
        obs.features = np.vstack([obs.features, obs.features[:1]])
        obs.norm_adj = sp.csr_matrix((4, 4))
        obs.norm_adj.indptr = np.array(
            [0, 2**31 - 1, -(2**31), -1, 0], dtype=np.int32
        )
        with pytest.raises(CodecError, match="never decrease"):
            decode_observation(encode_observation(obs))

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
        obs = make_obs()
        obs.ready_positions = obs.ready_tasks = np.zeros(0, dtype=np.int64)
        payload = encode_observation(obs)
        with pytest.raises(CodecError, match="no ready task"):
            decode_observation(payload)

    def test_length_mismatch(self):
        obs = make_obs()
        obs.ready_tasks = obs.ready_tasks[:1]
        payload = encode_observation(obs)
        with pytest.raises(CodecError, match="mismatch"):
            decode_observation(payload)

    def test_positions_out_of_window(self):
        obs = make_obs()
        obs.ready_positions = np.array([0, 99])
        payload = encode_observation(obs)
        with pytest.raises(CodecError, match="range"):
            decode_observation(payload)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_floats_rejected_at_decode(self, value):
        payload = encode_observation(make_obs())
        raw = bytearray(base64.b64decode(payload["buf"]))
        raw[:8] = np.float64(value).tobytes()  # features[0, 0]
        payload["buf"] = base64.b64encode(bytes(raw)).decode()
        with pytest.raises(CodecError, match="non-finite"):
            decode_observation(payload)

    def test_wide_csr_index_is_refused_before_narrowing(self):
        """An int64 index of 2**32 + 1 would wrap to column 1 on the cast
        to int32 and pass scipy's format check."""
        obs = make_obs(sparse=True)
        indices = obs.norm_adj.indices.astype(np.int64)
        indices[1] += 2**32
        obs.norm_adj.indices = indices
        with pytest.raises(CodecError, match="int32"):
            encode_observation(obs)

    def test_json_list_payload_names_the_wire_version(self):
        """What a client of the JSON float-list format sends."""
        obs = make_obs()
        legacy = {
            "features": obs.features.tolist(),
            "adj": {"format": "dense", "data": obs.norm_adj.tolist()},
            "ready_positions": obs.ready_positions.tolist(),
            "ready_tasks": obs.ready_tasks.tolist(),
            "proc_features": obs.proc_features.tolist(),
            "current_proc": 1,
            "allow_pass": True,
        }
        with pytest.raises(CodecError, match="wire version 1.*wire version 2"):
            decode_observation(legacy)


def observations():
    """Hypothesis observations: random window sizes, dense or CSR."""

    @st.composite
    def build(draw):
        m = draw(st.integers(1, 6))
        f = draw(st.integers(1, 4))
        floats = st.floats(allow_nan=False, allow_infinity=False)
        features = draw(arrays(np.float64, (m, f), elements=floats))
        adj = draw(arrays(np.float64, (m, m), elements=st.sampled_from([0.0, 0.5, 1.0 / 3.0])))
        if draw(st.booleans()):
            adj = pytest.importorskip("scipy.sparse").csr_matrix(adj)
        ready = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        return Observation(
            features=features,
            norm_adj=adj,
            ready_positions=np.array(ready, dtype=np.int64),
            ready_tasks=np.array(ready, dtype=np.int64) * 3 + 1,
            proc_features=draw(arrays(np.float64, (draw(st.integers(0, 4)),), elements=floats)),
            current_proc=draw(st.integers(0, 3)),
            allow_pass=draw(st.booleans()),
            extra_node_features=draw(st.integers(0, f)),
        )

    return build()


def with_buffer(payload, raw):
    return {**payload, "buf": base64.b64encode(raw).decode("ascii")}


class TestTypedDecoderFuzz:
    """Every broken typed payload is a ``CodecError``: the decoder returns no
    observation, so nothing it built can reach the spmm kernels."""

    @settings(max_examples=60, deadline=None)
    @given(obs=observations())
    def test_round_trip_is_bitwise(self, obs):
        back = decode_observation(json.loads(json.dumps(encode_observation(obs))))
        for name in ("features", "ready_positions", "ready_tasks", "proc_features"):
            a, b = getattr(back, name), getattr(obs, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        if isinstance(obs.norm_adj, np.ndarray):
            assert back.norm_adj.tobytes() == obs.norm_adj.tobytes()
        else:
            assert back.norm_adj.format == "csr"
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(back.norm_adj, part), getattr(obs.norm_adj, part))
        assert (back.current_proc, back.allow_pass, back.extra_node_features) == (
            obs.current_proc, obs.allow_pass, obs.extra_node_features
        )

    @settings(max_examples=60, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_truncated_buffer(self, obs, data):
        payload = encode_observation(obs)
        raw = base64.b64decode(payload["buf"])
        keep = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(CodecError, match="bytes"):
            decode_observation(with_buffer(payload, raw[:keep]))
        cut = data.draw(st.integers(1, len(payload["buf"])))
        with pytest.raises(CodecError):
            decode_observation({**payload, "buf": payload["buf"][:-cut]})

    @settings(max_examples=60, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_one_garbled_base64_character(self, obs, data):
        payload = encode_observation(obs)
        text = payload["buf"]
        at = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from(list("!*-_.~ \n\t=é\x00")))
        if char == "=" and text[at:].strip("=") == "":
            char = "!"  # a pad character in the padding is not garbled
        with pytest.raises(CodecError, match="malformed"):
            decode_observation({**payload, "buf": text[:at] + char + text[at + 1:]})

    @settings(max_examples=80, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_size_fields_that_disagree_with_the_buffer(self, obs, data):
        payload = encode_observation(obs)
        holder, key = locate(payload, data.draw(st.sampled_from(size_fields(payload))))
        delta = data.draw(st.integers(-holder[key], 5).filter(lambda d: d != 0))
        holder[key] += delta
        with pytest.raises(CodecError):
            decode_observation(payload)

    @settings(max_examples=60, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_negative_sizes(self, obs, data):
        payload = encode_observation(obs)
        holder, key = locate(payload, data.draw(st.sampled_from(size_fields(payload))))
        holder[key] = data.draw(st.integers(-(2**40), -1))
        with pytest.raises(CodecError, match="non-negative"):
            decode_observation(payload)

    @settings(max_examples=30, deadline=None)
    @given(obs=observations(), fmt=st.text(max_size=8).filter(lambda t: t not in ("dense", "csr")))
    def test_unknown_adjacency_format(self, obs, fmt):
        payload = encode_observation(obs)
        payload["adj"]["format"] = fmt
        with pytest.raises(CodecError, match="unknown adjacency format"):
            decode_observation(payload)

    @settings(max_examples=30, deadline=None)
    @given(obs=observations(), version=st.one_of(st.none(), st.integers(), st.text(max_size=3)))
    def test_other_wire_versions(self, obs, version):
        payload = encode_observation(obs)
        if version is None:
            del payload["wire"]  # the JSON-list payloads carried no version
        elif version == 2:
            return
        else:
            payload["wire"] = version
        with pytest.raises(CodecError, match="wire version"):
            decode_observation(payload)

    @settings(max_examples=80, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_csr_indices_or_indptr_out_of_range(self, obs, data):
        sp = pytest.importorskip("scipy.sparse")
        obs.norm_adj = sp.csr_matrix(np.asarray(
            obs.norm_adj.toarray() if sp.issparse(obs.norm_adj) else obs.norm_adj
        ))
        m, nnz = obs.features.shape[0], obs.norm_adj.nnz
        payload = encode_observation(obs)
        raw = base64.b64decode(payload["buf"])
        tail = np.frombuffer(raw, "<i4", nnz + m + 1, len(raw) - 4 * (nnz + m + 1)).copy()
        if nnz and data.draw(st.booleans()):
            bad = st.one_of(st.integers(m, 2**31 - 1), st.integers(-(2**31), -1))
            tail[data.draw(st.integers(0, nnz - 1))] = data.draw(bad)
        else:
            at = data.draw(st.integers(0, m))
            bad = st.integers(-(2**31), 2**31 - 1).filter(
                lambda v: v != tail[nnz + at] and (at == 0 or v < tail[nnz + at - 1] or v > nnz)
            )
            tail[nnz + at] = data.draw(bad)
        payload = with_buffer(payload, raw[: len(raw) - tail.nbytes] + tail.tobytes())
        with pytest.raises(CodecError, match="malformed"):
            decode_observation(payload)

    @settings(max_examples=80, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_whole_random_indptr_decodes_only_when_valid(self, obs, data):
        """Every row pointer drawn at once, int32 extremes included: the
        decoder refuses the array or returns pointers that run from 0 to
        nnz without decreasing."""
        sp = pytest.importorskip("scipy.sparse")
        obs.norm_adj = sp.csr_matrix(np.asarray(
            obs.norm_adj.toarray() if sp.issparse(obs.norm_adj) else obs.norm_adj
        ))
        m, nnz = obs.features.shape[0], obs.norm_adj.nnz
        payload = encode_observation(obs)
        raw = base64.b64decode(payload["buf"])
        extremes = st.sampled_from([0, nnz, -1, 2**31 - 1, -(2**31)])
        indptr = data.draw(arrays(np.dtype("<i4"), m + 1, elements=st.one_of(
            extremes, st.integers(-(2**31), 2**31 - 1)
        )))
        payload = with_buffer(payload, raw[: len(raw) - indptr.nbytes] + indptr.tobytes())
        try:
            back = decode_observation(payload)
        except CodecError:
            return
        ptr = back.norm_adj.indptr
        assert ptr[0] == 0 and ptr[-1] == nnz and (ptr[1:] >= ptr[:-1]).all()

    @settings(max_examples=30, deadline=None)
    @given(obs=observations(), data=st.data())
    def test_csr_index_that_wraps_when_narrowed(self, obs, data):
        sp = pytest.importorskip("scipy.sparse")
        adj = obs.norm_adj.toarray() if sp.issparse(obs.norm_adj) else obs.norm_adj
        csr = sp.csr_matrix(np.ones_like(adj))  # nnz >= 1
        part = data.draw(st.sampled_from(["indices", "indptr"]))
        wide = getattr(csr, part).astype(np.int64)
        wide[data.draw(st.integers(0, wide.size - 1))] += data.draw(
            st.sampled_from([2**32, -(2**32), 2**31, 2**40])
        )
        setattr(csr, part, wide)
        obs.norm_adj = csr
        with pytest.raises(CodecError, match="int32"):
            encode_observation(obs)


def size_fields(payload):
    """Paths of every size field of a typed payload, for :func:`locate`."""
    fields = ["features.0", "features.1", "proc_features", "ready_positions",
              "ready_tasks", "adj.shape.0", "adj.shape.1"]
    return fields + (["adj.nnz"] if payload["adj"]["format"] == "csr" else [])


def locate(payload, path):
    """``"adj.shape.0"`` → (the container, the key) inside ``payload``."""
    *parents, last = path.split(".")
    holder = payload
    for part in parents:
        holder = holder[int(part)] if part.isdigit() else holder[part]
    return holder, int(last) if last.isdigit() else last


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

    @pytest.mark.parametrize("payload", [[], "decide", None])
    def test_non_object_request(self, payload):
        with pytest.raises(CodecError, match="must be an object"):
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
