"""Expected kernel durations on CPU and GPU resources.

The paper (§V-B) takes expected durations "from real measurements of the
literature" [Agullo et al. 2011a, 2011b, 2016].  Those measurements are not
distributed with the paper, so this module encodes duration tables with the
literature's well-known *acceleration-factor structure* — the property that
actually shapes the scheduling problem on unrelated machines:

* Cholesky (tile ≈ 960, Xeon core vs K40-class GPU): GEMM ≈ 29× faster on
  GPU, SYRK ≈ 26×, TRSM ≈ 11.5×, POTRF only ≈ 1.8× (panel factorizations are
  a poor fit for GPUs);
* LU: GETRF ≈ 1.8×, both TRSMs ≈ 11.5×, GEMM ≈ 29×;
* QR: GEQRT/TSQRT weakly accelerated (≈1.5–2.5×), UNMQR/TSMQR strongly
  (≈12–18×).

Absolute values are milliseconds; they scale the makespan but do not change
which scheduler wins (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.platforms.resources import CPU, GPU, NUM_RESOURCE_TYPES


class DurationTable:
    """Expected duration of each kernel type on each resource type.

    Parameters
    ----------
    kernel_names:
        Kernel names, indexed by task-type id (must match the generator).
    cpu, gpu:
        Expected durations (ms) per kernel on a CPU core / a GPU.
    """

    def __init__(
        self,
        kernel_names: Sequence[str],
        cpu: Sequence[float],
        gpu: Sequence[float],
    ) -> None:
        self.kernel_names = tuple(kernel_names)
        k = len(self.kernel_names)
        cpu = np.asarray(cpu, dtype=np.float64)
        gpu = np.asarray(gpu, dtype=np.float64)
        if cpu.shape != (k,) or gpu.shape != (k,):
            raise ValueError("cpu and gpu must have one entry per kernel")
        if (cpu <= 0).any() or (gpu <= 0).any():
            raise ValueError("durations must be strictly positive")
        # table[type_id, resource_type] — resource types indexed by CPU/GPU.
        self.table = np.zeros((k, NUM_RESOURCE_TYPES), dtype=np.float64)
        self.table[:, CPU] = cpu
        self.table[:, GPU] = gpu

    @property
    def num_kernels(self) -> int:
        return len(self.kernel_names)

    def expected(self, task_type: int, resource_type: int) -> float:
        """Expected duration of one task of ``task_type`` on ``resource_type``."""
        return float(self.table[task_type, resource_type])

    def expected_vector(self, task_types: np.ndarray) -> np.ndarray:
        """(n_tasks, n_resource_types) expected durations for many tasks."""
        return self.table[np.asarray(task_types, dtype=np.int64)]

    def acceleration_factors(self) -> np.ndarray:
        """GPU speed-up per kernel: cpu_time / gpu_time."""
        return self.table[:, CPU] / self.table[:, GPU]

    def mean_over_resources(self, task_types: np.ndarray) -> np.ndarray:
        """Average duration across resource types (used by HEFT's rank_u)."""
        return self.table[np.asarray(task_types, dtype=np.int64)].mean(axis=1)

    def scaled(self, factor: float) -> "DurationTable":
        """A copy with every duration multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return DurationTable(
            self.kernel_names, self.table[:, CPU] * factor, self.table[:, GPU] * factor
        )

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{name}: cpu={self.table[i, CPU]:g} gpu={self.table[i, GPU]:g}"
            for i, name in enumerate(self.kernel_names)
        )
        return f"DurationTable({rows})"


# --------------------------------------------------------------------- #
# Literature-shaped tables (ms per kernel at tile size ~960)
# --------------------------------------------------------------------- #

CHOLESKY_DURATIONS = DurationTable(
    kernel_names=("POTRF", "TRSM", "SYRK", "GEMM"),
    cpu=(16.0, 75.0, 95.0, 170.0),
    gpu=(9.0, 6.5, 3.65, 5.95),
)

LU_DURATIONS = DurationTable(
    kernel_names=("GETRF", "TRSM_L", "TRSM_U", "GEMM"),
    cpu=(80.0, 75.0, 75.0, 170.0),
    gpu=(45.0, 6.5, 6.5, 5.95),
)

QR_DURATIONS = DurationTable(
    kernel_names=("GEQRT", "UNMQR", "TSQRT", "TSMQR"),
    cpu=(90.0, 150.0, 100.0, 180.0),
    gpu=(60.0, 12.0, 40.0, 10.0),
)

GENERIC_DURATIONS = DurationTable(
    kernel_names=("K0", "K1", "K2", "K3"),
    cpu=(50.0, 100.0, 150.0, 200.0),
    gpu=(40.0, 20.0, 10.0, 8.0),
)

_TABLES: Dict[str, DurationTable] = {
    "cholesky": CHOLESKY_DURATIONS,
    "lu": LU_DURATIONS,
    "qr": QR_DURATIONS,
    "generic": GENERIC_DURATIONS,
}


def duration_table_for(family: str) -> DurationTable:
    """Duration table matching a DAG family (``cholesky``/``lu``/``qr``/``generic``)."""
    try:
        return _TABLES[family]
    except KeyError:
        raise KeyError(
            f"unknown duration family {family!r}; options: {sorted(_TABLES)}"
        ) from None
