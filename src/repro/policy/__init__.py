"""``repro.policy`` — the transport-neutral decision API.

One interface for every decision maker (trained agents, baseline-scheduler
adapters, remote serving clients): the :class:`Policy` protocol.  See
DESIGN.md §13 for the contract and :mod:`repro.serve` for the socket server
built on top of it.
"""

from repro.policy.api import (
    AgentPolicy,
    Policy,
    PolicyBase,
    action_for_task,
    agent_policy_from_checkpoint,
    checkpoint_fingerprint,
    policy_fingerprint,
)
from repro.policy.clients import InProcessClient
from repro.policy.codec import (
    REPLY_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY_AFTER,
    STATUS_TIMEOUT,
    WIRE_VERSION,
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
from repro.policy.evaluate import (
    EpisodeRecord,
    StreamingEpisodeRecord,
    evaluate_policy,
)

# the scheduler adapter is defined next to the schedulers themselves (layer
# order: policy sits above schedulers) and re-exported here as part of the
# one decision API
from repro.schedulers.base import SchedulerPolicy

__all__ = [
    "AgentPolicy",
    "CodecError",
    "DecisionReply",
    "DecisionRequest",
    "EpisodeRecord",
    "InProcessClient",
    "Policy",
    "PolicyBase",
    "REPLY_STATUSES",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_RETRY_AFTER",
    "STATUS_TIMEOUT",
    "SchedulerPolicy",
    "StreamingEpisodeRecord",
    "WIRE_VERSION",
    "action_for_task",
    "agent_policy_from_checkpoint",
    "checkpoint_fingerprint",
    "decode_observation",
    "decode_reply",
    "decode_request",
    "encode_observation",
    "encode_reply",
    "encode_request",
    "evaluate_policy",
    "policy_fingerprint",
]
