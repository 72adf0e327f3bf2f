"""Wire types and the typed-buffer observation codec.

:class:`DecisionRequest` / :class:`DecisionReply` are the frozen value types
every transport shares: the in-process client, the NDJSON socket protocol of
:mod:`repro.serve`, and the tests that pin their round-trip.  The codec maps
them to plain JSON-able dicts.

Observation payload (wire version :data:`WIRE_VERSION`)
-------------------------------------------------------
An observation travels as one base64 field, ``buf``, holding one
little-endian buffer: a float64 region (``features`` row-major,
``proc_features``, then the CSR adjacency ``data``) followed by an int64
region (``ready_positions``, ``ready_tasks``) and an int32 region (the CSR
``indices`` and ``indptr``).  Small JSON fields next to it carry the sizes
(``features: [m, F]``, ``proc_features``, ``ready_positions``,
``ready_tasks``), the adjacency header (``{"format": "csr", "shape":
[m, m], "nnz"}``), ``current_proc``, ``allow_pass``,
``extra_node_features`` (only when set) and ``wire``.  Decoding is one
strict base64 decode plus ``np.frombuffer`` views, so every decoded array
is read-only, and the decoded observation holds the adjacency as those CSR
parts (``norm_adj`` becomes a matrix only when read).  CSR is the only
adjacency format: a ``"dense"`` header is refused with a
:class:`CodecError`.  A payload without ``wire`` is the JSON float-list
format of version 1, and is refused with a :class:`CodecError` that names
both versions.

Exactness
---------
The raw float64 bytes travel, so every float in an observation survives
encode→decode **bitwise** by construction (``-0.0`` and every NaN payload
included).  That is what makes "greedy evaluation against the server is
row-identical to in-process evaluation" a meaningful guarantee rather than
a tolerance.  Features are finite by construction; both sides refuse a
non-finite float with a :class:`CodecError`.

Hardening
---------
The forward's spmm kernels index rows by a served adjacency unchecked, so
the decoder refuses, before any array reaches them: size fields that are
negative or disagree with the buffer length, an adjacency whose shape is
not ``(m, m)`` for the ``m`` feature rows, an ``indptr`` that does not
run from 0 up to ``nnz`` without decreasing, a column index outside the
window (scipy's full format check, plus the first and last row pointer,
tested directly on the arrays), an empty or ragged ready set, and ready
positions outside the window.  The encoder range-checks CSR index arrays
before narrowing them to int32, so a wide index cannot wrap into a
valid-looking one.

The process-local ``window_fingerprint`` is deliberately *not* serialised: it
keys the producing process's state-builder adjacency memo and must never leak
across a transport into another process's caches.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.sim.state import Observation

#: reply status values (the protocol's closed vocabulary)
STATUS_OK = "ok"
STATUS_RETRY_AFTER = "retry_after"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
REPLY_STATUSES = (STATUS_OK, STATUS_RETRY_AFTER, STATUS_TIMEOUT, STATUS_ERROR)

#: observation wire format: 1 was JSON float lists, 2 is one typed buffer
WIRE_VERSION = 2


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
    """Malformed wire payload (bad type, missing field, bad size, non-finite
    float, wrong wire version)."""


_I32 = np.iinfo(np.int32)


def _finite(array: Any, field: str) -> np.ndarray:
    arr = np.ascontiguousarray(array, dtype="<f8")
    if not np.isfinite(arr).all():
        raise CodecError(f"observation field {field!r} contains non-finite values")
    return arr


def _int32(array: Any, field: str) -> np.ndarray:
    arr = np.asarray(array)
    # narrowing would wrap an out-of-range index into a plausible one
    if arr.dtype != np.int32 and arr.size and (
        arr.min() < _I32.min or arr.max() > _I32.max
    ):
        raise CodecError(f"observation field {field!r} does not fit int32")
    return np.ascontiguousarray(arr, dtype="<i4")


def encode_observation(obs: Observation) -> Dict[str, Any]:
    """Observation → JSON-able dict carrying one base64 typed buffer."""
    features = _finite(obs.features, "features")
    if features.ndim != 2:
        raise CodecError("features must be a 2-D array")
    proc = _finite(obs.proc_features, "proc_features").ravel()
    data, indices, indptr = obs.adjacency_parts()
    values = _finite(data, "norm_adj.data")
    m = int(indptr.size) - 1
    positions = np.ascontiguousarray(obs.ready_positions, dtype="<i8")
    tasks = np.ascontiguousarray(obs.ready_tasks, dtype="<i8")
    parts = (
        features, proc, values, positions, tasks,
        _int32(indices, "norm_adj.indices"), _int32(indptr, "norm_adj.indptr"),
    )
    payload: Dict[str, Any] = {
        "wire": WIRE_VERSION,
        "features": [int(features.shape[0]), int(features.shape[1])],
        "proc_features": int(proc.size),
        "ready_positions": int(positions.size),
        "ready_tasks": int(tasks.size),
        "adj": {"format": "csr", "shape": [m, m], "nnz": int(values.size)},
        "current_proc": int(obs.current_proc),
        "allow_pass": bool(obs.allow_pass),
        "buf": base64.b64encode(b"".join(a.tobytes() for a in parts)).decode("ascii"),
    }
    if obs.extra_node_features:
        payload["extra_node_features"] = int(obs.extra_node_features)
    return payload


def _size(value: Any, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CodecError(f"size field {field!r} must be a non-negative integer, got {value!r}")
    return value


def _shape(value: Any, field: str) -> Tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise CodecError(f"size field {field!r} must be a [rows, columns] pair, got {value!r}")
    return _size(value[0], field), _size(value[1], field)


def decode_observation(payload: Dict[str, Any]) -> Observation:
    """Inverse of :func:`encode_observation`.

    Every array of the result is a read-only view of the one decoded buffer.
    The decoded observation carries no ``window_fingerprint`` (a
    process-local cache key), so a serving process can never
    cross-contaminate its memoisation with a client's keys.
    """
    if not isinstance(payload, dict):
        raise CodecError(
            f"observation payload must be an object, got {type(payload).__name__}"
        )
    version = payload.get("wire", 1)  # the JSON-list payloads carried none
    if version != WIRE_VERSION:
        raise CodecError(
            f"observation payload is wire version {version!r}; this codec reads "
            f"wire version {WIRE_VERSION} (one base64 typed buffer)"
        )
    try:
        m, f = _shape(payload["features"], "features")
        n_proc = _size(payload["proc_features"], "proc_features")
        n_pos = _size(payload["ready_positions"], "ready_positions")
        n_tasks = _size(payload["ready_tasks"], "ready_tasks")
        adj_head = payload["adj"]
        fmt = adj_head["format"]
        if fmt != "csr":
            what = (
                "the dense adjacency format is no longer accepted" if fmt == "dense"
                else f"unknown adjacency format {fmt!r}"
            )
            raise CodecError(f"{what}; CSR is the only format")
        shape = _shape(adj_head["shape"], "adj.shape")
        nnz = _size(adj_head["nnz"], "adj.nnz")
        raw = base64.b64decode(payload["buf"], validate=True)
        current_proc = int(payload["current_proc"])
        allow_pass = bool(payload["allow_pass"])
        extra = int(payload.get("extra_node_features", 0))
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed observation payload: {exc}") from None
    if shape != (m, m):
        # the forward's spmm kernels size their row loop from the features
        raise CodecError(
            f"adjacency shape {shape} does not match the {m} feature rows"
        )
    n_float = m * f + n_proc + nnz
    n_i64 = n_pos + n_tasks
    n_i32 = nnz + m + 1
    expected = 8 * (n_float + n_i64) + 4 * n_i32
    if len(raw) != expected:
        raise CodecError(
            f"observation buffer holds {len(raw)} bytes but its size fields "
            f"describe {expected}"
        )
    floats = np.frombuffer(raw, "<f8", n_float)
    if not np.isfinite(floats).all():
        raise CodecError("observation buffer contains non-finite floats")
    ints = np.frombuffer(raw, "<i8", n_i64, 8 * n_float)
    ready_positions = ints[:n_pos]
    if n_pos == 0:
        raise CodecError("observation has no ready task — not a decision point")
    if n_pos != n_tasks:
        raise CodecError("ready_positions and ready_tasks length mismatch")
    if ready_positions.min() < 0 or ready_positions.max() >= m:
        raise CodecError("ready_positions out of window range")
    i32 = np.frombuffer(raw, "<i4", n_i32, 8 * (n_float + n_i64))
    indices, indptr = i32[:nnz], i32[nnz:]
    # the forward's spmm kernels index rows and columns by these arrays
    # unchecked.  Neighbours are compared rather than np.diff taken, whose
    # int32 subtraction wraps and hides a decreasing step.
    if indptr[0] != 0 or indptr[-1] != nnz or (indptr[1:] < indptr[:-1]).any():
        raise CodecError(
            "malformed observation payload: indptr must run from 0 to nnz "
            "and never decrease"
        )
    if nnz and (indices.min() < 0 or indices.max() >= m):
        raise CodecError(
            f"malformed observation payload: column indices must lie in [0, {m})"
        )
    return Observation(
        features=floats[: m * f].reshape(m, f),
        norm_adj=(floats[m * f + n_proc:], indices, indptr),
        ready_positions=ready_positions,
        ready_tasks=ints[n_pos:],
        proc_features=floats[m * f: m * f + n_proc],
        current_proc=current_proc,
        allow_pass=allow_pass,
        extra_node_features=extra,
    )


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
    if not isinstance(payload, dict):
        raise CodecError("decision request payload must be an object")
    try:
        session = payload["session"]
        seq = payload["seq"]
    except KeyError as exc:
        raise CodecError(f"malformed decision request: missing {exc}") from None
    if type(seq) is not int:
        raise CodecError(f"decision request seq must be an integer, got {seq!r}")
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
