"""Optional communication-cost models (extension beyond the paper).

The paper neglects communication (§III-A): with tiles of order N the data
moved per dependency is O(N²) against O(N³) compute, so transfers overlap
with computation.  This module makes that assumption *testable*: a
:class:`CommunicationModel` charges a delay on every dependency whose
producer and consumer ran on different processors, and the ablation bench
``benchmarks/test_ablation_comm.py`` measures at what delay magnitude the
zero-communication conclusions start to bend.

Models are deliberately simple — a latency per cross-processor edge,
optionally dependent on the (source type, destination type) pair (e.g.
CPU→GPU PCIe transfers cost more than CPU→CPU shared memory).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.platforms.resources import NUM_RESOURCE_TYPES


class CommunicationModel:
    """Base: delay charged when a dependency crosses processors."""

    def delay(self, src_proc: int, dst_proc: int, src_type: int, dst_type: int) -> float:
        """Transfer time for one dependency edge (0 within a processor)."""
        raise NotImplementedError

    def delay_many(
        self,
        src_procs: np.ndarray,
        dst_proc: int,
        src_types: np.ndarray,
        dst_type: int,
    ) -> np.ndarray:
        """Vectorised :meth:`delay` for many source processors, one destination.

        The simulator kernel charges all predecessor arrivals of a starting
        task in one call.  The base implementation loops over :meth:`delay`
        so custom models stay correct without overriding; the built-in models
        override with closed forms that produce the identical floats.
        """
        src_procs = np.asarray(src_procs, dtype=np.int64)
        src_types = np.asarray(src_types, dtype=np.int64)
        return np.asarray(
            [
                self.delay(int(s), int(dst_proc), int(st), int(dst_type))
                for s, st in zip(src_procs, src_types)
            ],
            dtype=np.float64,
        )

    @property
    def is_free(self) -> bool:
        """True when the model never charges anything (fast-path flag)."""
        return False

    def mean_delay(self) -> float:
        """Average cross-processor delay — used by HEFT's rank as c̄."""
        raise NotImplementedError


class NoComm(CommunicationModel):
    """The paper's model: communication fully overlapped, zero cost."""

    def delay(self, src_proc: int, dst_proc: int, src_type: int, dst_type: int) -> float:
        return 0.0

    def delay_many(
        self,
        src_procs: np.ndarray,
        dst_proc: int,
        src_types: np.ndarray,
        dst_type: int,
    ) -> np.ndarray:
        return np.zeros(np.asarray(src_procs).size, dtype=np.float64)

    @property
    def is_free(self) -> bool:
        return True

    def mean_delay(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoComm()"


class UniformComm(CommunicationModel):
    """Constant delay per cross-processor dependency edge."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._delay = float(delay)

    def delay(self, src_proc: int, dst_proc: int, src_type: int, dst_type: int) -> float:
        return 0.0 if src_proc == dst_proc else self._delay

    def delay_many(
        self,
        src_procs: np.ndarray,
        dst_proc: int,
        src_types: np.ndarray,
        dst_type: int,
    ) -> np.ndarray:
        src_procs = np.asarray(src_procs, dtype=np.int64)
        return np.where(src_procs == int(dst_proc), 0.0, self._delay)

    @property
    def is_free(self) -> bool:
        return self._delay == 0.0

    def mean_delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"UniformComm({self._delay})"


class TypePairComm(CommunicationModel):
    """Delay depending on the (source, destination) resource-type pair.

    ``matrix[s, d]`` is the cross-processor delay from a type-s processor to
    a type-d processor; transfers within one processor are free.  Typical
    instantiation: cheap CPU→CPU (shared memory), expensive CPU↔GPU (PCIe),
    moderate GPU→GPU (NVLink).
    """

    def __init__(self, matrix: Sequence[Sequence[float]]) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (NUM_RESOURCE_TYPES, NUM_RESOURCE_TYPES):
            raise ValueError(
                f"matrix must be {NUM_RESOURCE_TYPES}x{NUM_RESOURCE_TYPES}, got {m.shape}"
            )
        if (m < 0).any():
            raise ValueError("delays must be >= 0")
        self.matrix = m

    def delay(self, src_proc: int, dst_proc: int, src_type: int, dst_type: int) -> float:
        if src_proc == dst_proc:
            return 0.0
        return float(self.matrix[src_type, dst_type])

    def delay_many(
        self,
        src_procs: np.ndarray,
        dst_proc: int,
        src_types: np.ndarray,
        dst_type: int,
    ) -> np.ndarray:
        src_procs = np.asarray(src_procs, dtype=np.int64)
        src_types = np.asarray(src_types, dtype=np.int64)
        return np.where(
            src_procs == int(dst_proc), 0.0, self.matrix[src_types, int(dst_type)]
        )

    @property
    def is_free(self) -> bool:
        return bool((self.matrix == 0).all())

    def mean_delay(self) -> float:
        return float(self.matrix.mean())

    def __repr__(self) -> str:
        return f"TypePairComm({self.matrix.tolist()})"
