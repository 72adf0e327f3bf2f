"""The in-process decision client.

:class:`InProcessClient` wraps any :class:`~repro.policy.api.Policy` behind
the same surface the socket :class:`~repro.serve.client.RemoteClient`
exposes — ``decide``/``decide_many`` plus ``stats``/``close`` — so an
environment-driven evaluation loop can run against either without changing a
line.  Every observation round-trips through the wire codec first: the local
client then exercises *the identical numeric path* the wire does, which is
what makes "local vs remote greedy evaluation is row-identical" a
by-construction property rather than a coincidence.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.policy.api import Policy
from repro.policy.codec import decode_observation, encode_observation
from repro.sim.state import Observation


class InProcessClient:
    """A :class:`Policy` client that answers from a policy in this process.

    Every observation is encoded to the wire dict and decoded back before
    ``policy`` sees it — the same transformation a remote request undergoes.
    The round-trip is float-bitwise exact (see :mod:`repro.policy.codec`),
    so it changes no decision.
    """

    def __init__(self, policy: Policy) -> None:
        self.policy = policy
        self._decisions = 0
        self._closed = False

    # -- Policy interface ------------------------------------------------ #

    def decide(self, obs: Observation) -> int:
        self._check_open()
        obs = decode_observation(encode_observation(obs))
        self._decisions += 1
        return int(self.policy.decide(obs))

    def decide_many(self, obs_list: Sequence[Observation]) -> List[int]:
        self._check_open()
        obs_list = [decode_observation(encode_observation(obs)) for obs in obs_list]
        self._decisions += len(obs_list)
        return [int(a) for a in self.policy.decide_many(list(obs_list))]

    # -- client surface (mirrors RemoteClient) --------------------------- #

    def reset(self) -> None:
        """Episode boundary: forwarded to the policy when it keeps state."""
        self._check_open()
        inner = getattr(self.policy, "reset", None)
        if callable(inner):
            inner()

    def stats(self) -> Dict[str, float]:
        """Local decision counters (the in-process analogue of ``stats``)."""
        return {"decisions_total": float(self._decisions)}

    def close(self) -> None:
        """Release the client; further decisions raise."""
        self._closed = True

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("client is closed")
