"""Render a trace (+ optional metrics sink) into a markdown run report.

``python -m repro report-run trace.jsonl [--metrics metrics.csv]`` produces
one readable document per run: the run metadata header, per-span-name
latency statistics (count / total / mean / p50 / p90 / p99 — the paper's
Fig. 7 per-decision numbers fall out of the ``decision``/``forward`` rows;
in a vectorised run one ``decision`` span is one lockstep step of all K
members, ``batch=K``, and a ``state_build`` span carrying ``batch`` is one
batched build),
the gradient-update phase breakdown (forward / backward / optimizer shares,
emitted by both the array training step and the reference tape an update
falls back to, so the two paths' per-phase costs are directly comparable), the
learning curve (bucketed episode makespans, from the metrics series when
available, else from ``episode_end`` trace events), training diagnostics
and simulator utilization.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import iter_series, load_metrics_rows, scalar_value

#: gradient-update phases timed inside every ``update`` span (reference tape
#: and array step alike): graph forward, backward closures, clip + Adam
UPDATE_PHASES = ("update/forward", "update/backward", "update/optimizer")

#: span names whose latency distribution gets a percentile row
LATENCY_SPANS = (
    "decision", "state_build", "forward", "unroll", "update", *UPDATE_PHASES
)


class TraceData:
    """Parsed contents of one trace JSONL file."""

    def __init__(
        self,
        meta: Dict[str, Any],
        spans: List[Dict[str, Any]],
        events: List[Dict[str, Any]],
    ) -> None:
        self.meta = meta
        self.spans = spans
        self.events = events

    def span_names(self) -> List[str]:
        return sorted({s["name"] for s in self.spans})

    def durations(self, name: str) -> np.ndarray:
        """Durations (seconds) of every span called ``name``."""
        return np.array(
            [s["dur"] for s in self.spans if s["name"] == name], dtype=np.float64
        )

    def events_named(self, name: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["name"] == name]


def load_trace(path: str) -> TraceData:
    """Parse a trace file; raises ``ValueError`` on malformed content."""
    meta: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "event":
                events.append(record)
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    if meta is None:
        raise ValueError(f"{path}: missing metadata header line")
    return TraceData(meta, spans, events)


def check_span_nesting(trace: TraceData) -> None:
    """Assert the structural invariants of a trace's span tree.

    * ids are unique; every non-null parent id refers to a span in the file;
    * children lie within their parent's ``[ts, ts+dur]`` interval (small
      float slack); durations are non-negative.

    Raises ``ValueError`` on violation — used by tests and by consumers that
    want to fail fast on a truncated file.
    """
    by_id: Dict[int, Dict[str, Any]] = {}
    for span in trace.spans:
        if span["dur"] < 0:
            raise ValueError(f"span {span['id']} has negative duration")
        if span["id"] in by_id:
            raise ValueError(f"duplicate span id {span['id']}")
        by_id[span["id"]] = span
    eps = 1e-9
    for span in trace.spans:
        parent_id = span.get("parent")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            raise ValueError(f"span {span['id']} has unknown parent {parent_id}")
        if span["ts"] < parent["ts"] - eps or (
            span["ts"] + span["dur"] > parent["ts"] + parent["dur"] + eps
        ):
            raise ValueError(
                f"span {span['id']} ({span['name']}) escapes its parent "
                f"{parent_id} ({parent['name']}) interval"
            )


# --------------------------------------------------------------------------- #
# markdown helpers
# --------------------------------------------------------------------------- #


def _flatten(value: Any, prefix: str = "") -> List[Tuple[str, Any]]:
    """``(dotted.key, leaf)`` rows of nested run metadata, keys sorted."""
    if not isinstance(value, dict):
        return [(prefix or "run", value)]
    rows: List[Tuple[str, Any]] = []
    for key, item in sorted(value.items()):
        rows.extend(_flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return rows


def _md_table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _latency_rows(trace: TraceData) -> List[List[str]]:
    rows: List[List[str]] = []
    for name in LATENCY_SPANS:
        durs = trace.durations(name)
        if durs.size == 0:
            continue
        p50, p90, p99 = np.percentile(durs, [50, 90, 99])
        rows.append(
            [
                name,
                str(durs.size),
                _ms(float(durs.sum())),
                _ms(float(durs.mean())),
                _ms(float(p50)),
                _ms(float(p90)),
                _ms(float(p99)),
                _ms(float(durs.max())),
            ]
        )
    return rows


def _phase_rows(trace: TraceData) -> List[List[str]]:
    """Per-phase share of gradient-update time (forward/backward/optimizer)."""
    totals = {name: trace.durations(name) for name in UPDATE_PHASES}
    denom = float(sum(d.sum() for d in totals.values()))
    if denom <= 0.0:
        return []
    rows: List[List[str]] = []
    for name, durs in totals.items():
        if durs.size == 0:
            continue
        p50, p90 = np.percentile(durs, [50, 90])
        rows.append(
            [
                name.split("/", 1)[1],
                str(durs.size),
                _ms(float(durs.sum())),
                _ms(float(p50)),
                _ms(float(p90)),
                f"{float(durs.sum()) / denom:.1%}",
            ]
        )
    return rows


def _learning_curve(
    points: List[Tuple[Optional[float], float]], max_rows: int = 12
) -> List[List[str]]:
    """Bucket (episode, makespan) points into ≤ ``max_rows`` summary rows."""
    if not points:
        return []
    values = np.array([v for _, v in points], dtype=np.float64)
    n = len(values)
    bucket = max(1, int(np.ceil(n / max_rows)))
    rows: List[List[str]] = []
    for start in range(0, n, bucket):
        chunk = values[start: start + bucket]
        rows.append(
            [
                f"{start}–{min(start + bucket, n) - 1}",
                str(chunk.size),
                f"{chunk.mean():.2f}",
                f"{chunk.min():.2f}",
            ]
        )
    return rows


def _episode_points(
    trace: TraceData, metrics_rows: Optional[List[Dict[str, Any]]]
) -> List[Tuple[Optional[float], float]]:
    if metrics_rows is not None:
        points = list(iter_series(metrics_rows, "episode/makespan"))
        if points:
            return points
    return [
        (e.get("attrs", {}).get("episode"), float(e["attrs"]["makespan"]))
        for e in trace.events_named("episode_end")
        if "makespan" in e.get("attrs", {})
    ]


# --------------------------------------------------------------------------- #
# the report
# --------------------------------------------------------------------------- #


def render_report(
    trace_path: str,
    metrics_path: Optional[str] = None,
    title: str = "Run report",
) -> str:
    """Render the trace (+ metrics) pair as one markdown document.

    Raises ``ValueError`` when the trace holds no spans — an empty report
    means the instrumented run never executed, and the CLI turns that into a
    non-zero exit for CI smoke jobs.
    """
    trace = load_trace(trace_path)
    if not trace.spans:
        raise ValueError(f"{trace_path}: trace contains no spans — nothing ran?")
    metrics_rows = load_metrics_rows(metrics_path) if metrics_path else None

    lines: List[str] = [f"# {title}", ""]

    run = trace.meta.get("run") or {}
    lines.append("## Run")
    lines.append("")
    if run:
        lines.extend(_md_table(["field", "value"], _flatten(run)))
    else:
        lines.append("*(no run metadata recorded)*")
    lines.append("")

    lines.append("## Span latencies")
    lines.append("")
    rows = _latency_rows(trace)
    other = sorted(set(trace.span_names()) - set(LATENCY_SPANS))
    lines.extend(
        _md_table(
            ["span", "count", "total ms", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms"],
            rows,
        )
    )
    if other:
        lines.append("")
        lines.append(f"*Other spans:* {', '.join(other)}")
    lines.append("")

    phase_rows = _phase_rows(trace)
    if phase_rows:
        lines.append("## Update phase breakdown")
        lines.append("")
        lines.extend(
            _md_table(
                ["phase", "count", "total ms", "p50 ms", "p90 ms", "share"],
                phase_rows,
            )
        )
        lines.append("")

    episodes = _episode_points(trace, metrics_rows)
    if episodes:
        lines.append("## Learning curve")
        lines.append("")
        lines.extend(
            _md_table(
                ["episodes", "count", "mean makespan", "best"],
                _learning_curve(episodes),
            )
        )
        lines.append("")

    if metrics_rows is not None:
        diag_rows: List[List[str]] = []
        for series_name in (
            "train/policy_loss",
            "train/value_loss",
            "train/entropy",
            "train/grad_norm",
        ):
            points = list(iter_series(metrics_rows, series_name))
            if points:
                diag_rows.append(
                    [series_name, str(len(points)), f"{points[-1][1]:.4f}"]
                )
        sps = scalar_value(metrics_rows, "train/env_steps_per_second", "gauge")
        if sps is not None:
            diag_rows.append(["train/env_steps_per_second", "", f"{sps:.1f}"])
        if diag_rows:
            lines.append("## Training diagnostics")
            lines.append("")
            lines.extend(_md_table(["metric", "points", "last value"], diag_rows))
            lines.append("")

        busy = scalar_value(metrics_rows, "sim/busy_time", "counter")
        idle = scalar_value(metrics_rows, "sim/idle_time", "counter")
        events = scalar_value(metrics_rows, "sim/events", "counter")
        if busy is not None and idle is not None and busy + idle > 0:
            lines.append("## Simulator utilization")
            lines.append("")
            util_rows = [
                ["processor utilization", f"{busy / (busy + idle):.1%}"],
                ["busy processor-seconds (sim time)", f"{busy:.2f}"],
                ["idle processor-seconds (sim time)", f"{idle:.2f}"],
            ]
            if events is not None:
                util_rows.append(["simulator events", f"{int(events)}"])
            lines.extend(_md_table(["quantity", "value"], util_rows))
            lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def write_report(
    trace_path: str,
    output_path: str,
    metrics_path: Optional[str] = None,
    title: str = "Run report",
) -> str:
    """Render and write the report; returns ``output_path``."""
    text = render_report(trace_path, metrics_path=metrics_path, title=title)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return output_path
