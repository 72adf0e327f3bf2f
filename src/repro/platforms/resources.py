"""Compute resources: processors of heterogeneous types and platforms.

The paper targets a single node with a few CPUs and GPUs (§III-A).
Performance is *unrelated* across resource types: the CPU/GPU duration ratio
depends on the kernel, which is captured by
:class:`repro.graphs.durations.DurationTable` rather than a per-processor
speed scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

CPU = 0
GPU = 1
NUM_RESOURCE_TYPES = 2
RESOURCE_TYPE_NAMES = ("CPU", "GPU")


@dataclass(frozen=True)
class Processor:
    """One computing unit: an index and a resource type (CPU or GPU)."""

    index: int
    resource_type: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.resource_type not in (CPU, GPU):
            raise ValueError(f"resource_type must be CPU(0) or GPU(1), got {self.resource_type}")

    @property
    def type_name(self) -> str:
        return RESOURCE_TYPE_NAMES[self.resource_type]

    def __repr__(self) -> str:
        return f"Processor({self.index}, {self.type_name})"


class Platform:
    """A heterogeneous node made of ``num_cpus`` CPUs and ``num_gpus`` GPUs.

    The three platforms of the paper's evaluation are ``Platform(4, 0)``
    (Fig. 4), ``Platform(2, 2)`` (Figs. 3 and 5), and ``Platform(0, 4)``
    (Fig. 6).
    """

    def __init__(self, num_cpus: int, num_gpus: int) -> None:
        if num_cpus < 0 or num_gpus < 0:
            raise ValueError("processor counts must be >= 0")
        if num_cpus + num_gpus == 0:
            raise ValueError("platform needs at least one processor")
        self.num_cpus = int(num_cpus)
        self.num_gpus = int(num_gpus)
        self.processors: List[Processor] = [
            Processor(i, CPU) for i in range(num_cpus)
        ] + [Processor(num_cpus + i, GPU) for i in range(num_gpus)]
        # resource type per processor index — used to index DurationTables.
        self.resource_types = np.array(
            [p.resource_type for p in self.processors], dtype=np.int64
        )

    @property
    def num_processors(self) -> int:
        return len(self.processors)

    def type_of(self, proc: int) -> int:
        """Resource type (CPU/GPU) of processor ``proc``."""
        return int(self.resource_types[proc])

    def processors_of_type(self, resource_type: int) -> np.ndarray:
        """Indices of all processors of the given resource type."""
        return np.flatnonzero(self.resource_types == resource_type)

    def one_hot_types(self) -> np.ndarray:
        """(num_processors, NUM_RESOURCE_TYPES) one-hot type encoding."""
        eye = np.eye(NUM_RESOURCE_TYPES, dtype=np.float64)
        return eye[self.resource_types]

    @property
    def name(self) -> str:
        return f"{self.num_cpus}CPU_{self.num_gpus}GPU"

    def __repr__(self) -> str:
        return f"Platform(cpus={self.num_cpus}, gpus={self.num_gpus})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Platform)
            and other.num_cpus == self.num_cpus
            and other.num_gpus == self.num_gpus
        )

    def __hash__(self) -> int:
        return hash((self.num_cpus, self.num_gpus))
