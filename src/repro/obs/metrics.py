"""Metrics registry: counters, gauges, timers and series with labeled keys.

Every metric lives in a :class:`MetricsRegistry` under ``(name, labels)``;
the process-global default registry is :data:`METRICS`.  Like the tracer,
the default registry is **disabled by default** and instrumented hot paths
guard recording with a single attribute check (``if registry.enabled:``), so
the off-path cost stays one global load and one attribute read.  Explicit
calls (``counter(...)``, ``record(...)``) always work regardless of the
flag — ``enabled`` is the switch the built-in instrumentation consults, not
an interlock.

Metric kinds
------------
* :class:`Counter` — monotonically accumulating float (event counts,
  busy/idle seconds);
* :class:`Gauge` — last-write-wins value (utilization, env-steps/s);
* :class:`Timer` — accumulating interval timer; each ``with`` block or
  :meth:`Timer.record` call appends one duration sample;
* series — append-only ``(step, value)`` points via
  :meth:`MetricsRegistry.record` (learning curves).

Sinks
-----
:meth:`MetricsRegistry.write_csv` / :meth:`MetricsRegistry.write_jsonl`
flatten the registry into rows ``(kind, name, labels, step, value, count)``
sorted by ``(name, labels)`` with points in insertion order — byte-identical
across runs whenever the recorded values are (seeded-run determinism is
covered by ``tests/obs/test_metrics.py``).
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import clock

#: canonical labeled-key form: name plus sorted (label, value) pairs
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class Timer:
    """Accumulating monotonic-clock timer.

    Usage::

        t = Timer()
        with t:
            do_work()
        t.mean, t.total, t.count

    Each ``with`` block records one sample; statistics are computed over all
    recorded samples.  Used to measure per-decision scheduling overhead
    (paper Fig. 7).  Timestamps come from :mod:`repro.obs.clock` — this class
    is the repo's timer primitive and the only interval-measurement path.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = clock.now()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None, "Timer.__exit__ without __enter__"
        self.samples.append(clock.now() - self._start)
        self._start = None

    def record(self, seconds: float) -> None:
        """Append one externally measured duration sample."""
        self.samples.append(float(seconds))

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Total recorded time in seconds."""
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        """Mean sample duration in seconds (0.0 when empty)."""
        return self.total / self.count if self.samples else 0.0

    def reset(self) -> None:
        """Forget all samples."""
        self.samples.clear()
        self._start = None


class Counter:
    """Accumulating value; negative increments are rejected."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only accumulate; got increment {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins value (``nan`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)


class Series:
    """Append-only ``(step, value)`` points — learning curves and the like."""

    __slots__ = ("points",)

    def __init__(self) -> None:
        self.points: List[Tuple[Optional[float], float]] = []

    def append(self, value: float, step: Optional[float] = None) -> None:
        self.points.append(
            (float(step) if step is not None else None, float(value))
        )

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def __len__(self) -> int:
        return len(self.points)


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "timer": Timer, "series": Series}


def _labels_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    return ";".join(f"{k}={v}" for k, v in labels)


class MetricsRegistry:
    """Holds labeled metrics; the process-global default is :data:`METRICS`."""

    def __init__(self) -> None:
        self.enabled: bool = False
        #: (kind, key) insertion-ordered; one flat dict keeps lookups one-hop
        self._metrics: Dict[Tuple[str, MetricKey], Any] = {}
        #: bumped by :meth:`reset` — hot paths that bind metric handles once
        #: (e.g. the sim kernel) compare generations to detect staleness, so
        #: a reset can never leave them incrementing orphaned objects
        self.generation: int = 0

    # ------------------------------------------------------------------ #
    # accessors (create on first use)
    # ------------------------------------------------------------------ #

    def _get(self, kind: str, name: str, labels: Dict[str, Any]) -> Any:
        key = (kind, (name, _labels_key(labels)))
        metric = self._metrics.get(key)
        if metric is None:
            other = next(
                (k for (k, (n, l)) in self._metrics if n == name and k != kind), None
            )
            if other is not None:
                raise TypeError(
                    f"metric {name!r} already registered as a {other}, "
                    f"cannot reuse the name as a {kind}"
                )
            metric = _METRIC_KINDS[kind]()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``(name, labels)`` (created on demand)."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``(name, labels)`` (created on demand)."""
        return self._get("gauge", name, labels)

    def timer(self, name: str, **labels: Any) -> Timer:
        """The timer registered under ``(name, labels)`` (created on demand)."""
        return self._get("timer", name, labels)

    def series(self, name: str, **labels: Any) -> Series:
        """The series registered under ``(name, labels)`` (created on demand)."""
        return self._get("series", name, labels)

    def record(
        self, name: str, value: float, step: Optional[float] = None, **labels: Any
    ) -> None:
        """Append one point to the series ``(name, labels)``."""
        self.series(name, **labels).append(value, step=step)

    def reset(self) -> None:
        """Drop every metric (the enabled flag is left untouched)."""
        self._metrics.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------ #
    # sinks
    # ------------------------------------------------------------------ #

    def rows(self) -> List[Dict[str, Any]]:
        """Flatten into sink rows, deterministically ordered by (name, labels).

        Row schema: ``kind, name, labels, step, value, count`` — counters and
        gauges yield one row (count empty), timers one aggregate row
        (value = total seconds, count = samples), series one row per point in
        insertion order.
        """
        out: List[Dict[str, Any]] = []
        ordered = sorted(self._metrics.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        for (kind, (name, labels)), metric in ordered:
            base = {"kind": kind, "name": name, "labels": _labels_str(labels)}
            if kind == "counter" or kind == "gauge":
                out.append({**base, "step": None, "value": metric.value, "count": None})
            elif kind == "timer":
                out.append(
                    {**base, "step": None, "value": metric.total, "count": metric.count}
                )
            else:  # series
                for step, value in metric.points:
                    out.append({**base, "step": step, "value": value, "count": None})
        return out

    def write_csv(self, path: str) -> str:
        """Write all metrics as CSV; returns ``path``."""
        fields = ["kind", "name", "labels", "step", "value", "count"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self.rows():
                writer.writerow(
                    {k: ("" if row[k] is None else row[k]) for k in fields}
                )
        return path

    def write_jsonl(self, path: str) -> str:
        """Write all metrics as JSONL (one row object per line); returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")
        return path

    def write(self, path: str) -> str:
        """Write to ``path``, format chosen by suffix (``.jsonl`` else CSV)."""
        if str(path).endswith(".jsonl"):
            return self.write_jsonl(path)
        return self.write_csv(path)


#: the process-global default registry instrumented layers consult
METRICS = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return METRICS


def load_metrics_rows(path: str) -> List[Dict[str, Any]]:
    """Parse a CSV/JSONL metrics sink back into row dicts (inverse of sinks)."""
    rows: List[Dict[str, Any]] = []
    if str(path).endswith(".jsonl"):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        return rows
    with open(path, encoding="utf-8", newline="") as fh:
        for raw in csv.DictReader(fh):
            row: Dict[str, Any] = dict(raw)
            for field in ("step", "value", "count"):
                row[field] = float(row[field]) if row.get(field) not in ("", None) else None
            rows.append(row)
    return rows


def iter_series(
    rows: List[Dict[str, Any]], name: str
) -> Iterator[Tuple[Optional[float], float]]:
    """Yield the ``(step, value)`` points of series ``name`` from sink rows."""
    for row in rows:
        if row.get("kind") == "series" and row.get("name") == name:
            value = row.get("value")
            if value is not None:
                yield row.get("step"), float(value)


def scalar_value(
    rows: List[Dict[str, Any]], name: str, kind: Optional[str] = None
) -> Optional[float]:
    """First counter/gauge/timer value recorded under ``name`` (None if absent)."""
    for row in rows:
        if row.get("name") == name and row.get("kind") in (
            (kind,) if kind else ("counter", "gauge", "timer")
        ):
            value = row.get("value")
            return float(value) if value is not None else None
    return None
