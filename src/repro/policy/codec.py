"""Wire types and the JSON observation codec.

:class:`DecisionRequest` / :class:`DecisionReply` are the frozen value types
every transport shares: the in-process client, the NDJSON socket protocol of
:mod:`repro.serve`, and the tests that pin their round-trip.  The codec maps
them to plain JSON-able dicts.

Exactness
---------
``json`` serialises floats through ``repr``, which since Python 3.1 emits the
shortest decimal string that round-trips to the identical IEEE-754 double.
Every float in an observation therefore survives encode→decode **bitwise**,
which is what makes "greedy evaluation against the server is row-identical
to in-process evaluation" a meaningful guarantee rather than a tolerance.
(NaN/Inf never appear in observations — features are finite by construction;
the codec rejects them rather than emitting non-standard JSON.)

The process-local ``window_fingerprint`` is deliberately *not* serialised: it
keys the producing process's state-builder adjacency memo and must never leak
across a transport into another process's caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.sim.state import Observation

#: reply status values (the protocol's closed vocabulary)
STATUS_OK = "ok"
STATUS_RETRY_AFTER = "retry_after"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
REPLY_STATUSES = (STATUS_OK, STATUS_RETRY_AFTER, STATUS_TIMEOUT, STATUS_ERROR)


@dataclass(frozen=True)
class DecisionRequest:
    """One decision point travelling from a client episode to a policy."""

    session: str
    """session handle the request decides for (admission: ``open`` verb)"""
    seq: int
    """client-chosen sequence number echoed in the reply"""
    obs: Observation
    """the decision point (transport-neutral observation value)"""
    deadline_ms: Optional[float] = None
    """per-request answer deadline; ``None`` defers to the server default"""
    job_id: Optional[int] = None
    """streaming job attribution: the job the decision's current processor is
    being offered work for (``None`` on single-job sessions — old clients
    simply never set it and old servers never see the block)"""
    arrived_at: Optional[float] = None
    """arrival instant of ``job_id`` on the shared platform (requires
    ``job_id``; carried for server-side logging/fairness policies)"""


@dataclass(frozen=True)
class DecisionReply:
    """The answer to one :class:`DecisionRequest`."""

    session: str
    seq: int
    status: str
    """one of :data:`REPLY_STATUSES`"""
    action: int = -1
    """action index (valid iff ``status == "ok"``)"""
    detail: str = ""
    """human-readable context for non-ok statuses"""

    def __post_init__(self) -> None:
        if self.status not in REPLY_STATUSES:
            raise ValueError(
                f"status must be one of {REPLY_STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class CodecError(ValueError):
    """Malformed wire payload (bad type, missing field, non-finite float)."""


def _finite_list(array: np.ndarray, field: str) -> list:
    arr = np.asarray(array, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise CodecError(f"observation field {field!r} contains non-finite values")
    return arr.tolist()


def encode_observation(obs: Observation) -> Dict[str, Any]:
    """Observation → JSON-able dict (floats round-trip bitwise)."""
    adj = obs.norm_adj
    if isinstance(adj, np.ndarray):
        adj_payload: Dict[str, Any] = {
            "format": "dense",
            "data": _finite_list(adj, "norm_adj"),
        }
    else:  # scipy CSR (the sparse_state builder mode)
        adj_payload = {
            "format": "csr",
            "shape": [int(adj.shape[0]), int(adj.shape[1])],
            "data": _finite_list(adj.data, "norm_adj.data"),
            "indices": np.asarray(adj.indices).tolist(),
            "indptr": np.asarray(adj.indptr).tolist(),
        }
    return {
        "features": _finite_list(obs.features, "features"),
        "adj": adj_payload,
        "ready_positions": np.asarray(obs.ready_positions).tolist(),
        "ready_tasks": np.asarray(obs.ready_tasks).tolist(),
        "proc_features": _finite_list(obs.proc_features, "proc_features"),
        "current_proc": int(obs.current_proc),
        "allow_pass": bool(obs.allow_pass),
        # emitted only when set: keeps single-job payloads byte-identical to
        # the pre-streaming wire format (old servers/tests never see the key)
        **(
            {"extra_node_features": int(obs.extra_node_features)}
            if obs.extra_node_features
            else {}
        ),
    }


def decode_observation(payload: Dict[str, Any]) -> Observation:
    """Inverse of :func:`encode_observation`.

    The decoded observation carries no ``window_fingerprint`` (a
    process-local cache key), so a serving process can never
    cross-contaminate its memoisation with a client's keys.
    """
    if not isinstance(payload, dict):
        raise CodecError(
            f"observation payload must be an object, got {type(payload).__name__}"
        )
    try:
        features = np.asarray(payload["features"], dtype=np.float64)
        adj_payload = payload["adj"]
        fmt = adj_payload["format"]
        if fmt == "dense":
            norm_adj: Any = np.asarray(adj_payload["data"], dtype=np.float64)
            if norm_adj.ndim != 2:
                raise CodecError("dense adjacency must be 2-D")
            norm_adj.setflags(write=False)
        elif fmt == "csr":
            import scipy.sparse as sp

            m, n = (int(v) for v in adj_payload["shape"])
            norm_adj = sp.csr_matrix(
                (
                    np.asarray(adj_payload["data"], dtype=np.float64),
                    np.asarray(adj_payload["indices"], dtype=np.int32),
                    np.asarray(adj_payload["indptr"], dtype=np.int32),
                ),
                shape=(m, n),
            )
            # the forward's spmm kernels index rows by these arrays
            # unchecked: a column or row pointer out of range raises here
            norm_adj.check_format(full_check=True)
            for arr in (norm_adj.data, norm_adj.indices, norm_adj.indptr):
                arr.setflags(write=False)
        else:
            raise CodecError(f"unknown adjacency format {fmt!r}")
        obs = Observation(
            features=features,
            norm_adj=norm_adj,
            ready_positions=np.asarray(payload["ready_positions"], dtype=np.int64),
            ready_tasks=np.asarray(payload["ready_tasks"], dtype=np.int64),
            proc_features=np.asarray(payload["proc_features"], dtype=np.float64),
            current_proc=int(payload["current_proc"]),
            allow_pass=bool(payload["allow_pass"]),
            extra_node_features=int(payload.get("extra_node_features", 0)),
        )
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed observation payload: {exc}") from None
    if features.ndim != 2:
        raise CodecError("features must be a 2-D array")
    m = features.shape[0]
    if norm_adj.shape != (m, m):
        # the forward's spmm kernels size their row loop from the features
        raise CodecError(
            f"adjacency shape {norm_adj.shape} does not match the {m} feature rows"
        )
    if obs.ready_positions.size == 0:
        raise CodecError("observation has no ready task — not a decision point")
    if obs.ready_positions.size != obs.ready_tasks.size:
        raise CodecError("ready_positions and ready_tasks length mismatch")
    if (obs.ready_positions < 0).any() or (
        obs.ready_positions >= features.shape[0]
    ).any():
        raise CodecError("ready_positions out of window range")
    return obs


# --------------------------------------------------------------------------- #
# request / reply wire forms
# --------------------------------------------------------------------------- #


def encode_request(req: DecisionRequest) -> Dict[str, Any]:
    """DecisionRequest → JSON-able dict (without the transport ``op`` field)."""
    payload: Dict[str, Any] = {
        "session": req.session,
        "seq": int(req.seq),
        "obs": encode_observation(req.obs),
    }
    if req.deadline_ms is not None:
        payload["deadline_ms"] = float(req.deadline_ms)
    if req.job_id is not None:
        job: Dict[str, Any] = {"id": int(req.job_id)}
        if req.arrived_at is not None:
            job["arrived_at"] = float(req.arrived_at)
        payload["job"] = job
    return payload


def decode_request(payload: Dict[str, Any]) -> DecisionRequest:
    """Inverse of :func:`encode_request`."""
    try:
        session = payload["session"]
        seq = int(payload["seq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed decision request: {exc}") from None
    if not isinstance(session, str) or not session:
        raise CodecError("decision request needs a non-empty string session")
    deadline = payload.get("deadline_ms")
    job = payload.get("job")
    job_id: Optional[int] = None
    arrived_at: Optional[float] = None
    if job is not None:
        if not isinstance(job, dict) or "id" not in job:
            raise CodecError("decision request 'job' block needs an 'id'")
        try:
            job_id = int(job["id"])
            raw_arrived = job.get("arrived_at")
            arrived_at = float(raw_arrived) if raw_arrived is not None else None
        except (TypeError, ValueError) as exc:
            raise CodecError(f"malformed decision request job block: {exc}") from None
    return DecisionRequest(
        session=session,
        seq=seq,
        obs=decode_observation(payload.get("obs")),
        deadline_ms=float(deadline) if deadline is not None else None,
        job_id=job_id,
        arrived_at=arrived_at,
    )


def encode_reply(reply: DecisionReply) -> Dict[str, Any]:
    """DecisionReply → JSON-able dict."""
    payload: Dict[str, Any] = {
        "session": reply.session,
        "seq": int(reply.seq),
        "status": reply.status,
    }
    if reply.status == STATUS_OK:
        payload["action"] = int(reply.action)
    if reply.detail:
        payload["detail"] = reply.detail
    return payload


def decode_reply(payload: Dict[str, Any]) -> DecisionReply:
    """Inverse of :func:`encode_reply`."""
    try:
        return DecisionReply(
            session=str(payload["session"]),
            seq=int(payload["seq"]),
            status=str(payload["status"]),
            action=int(payload.get("action", -1)),
            detail=str(payload.get("detail", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed decision reply: {exc}") from None
