"""The run-report renderer and the trace/metrics integration behind it."""

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    LATENCY_SPANS,
    check_span_nesting,
    load_trace,
    render_report,
    write_report,
)


def _record_small_run(trace_path: str, metrics_path: str) -> None:
    """Hand-write a trace + metrics pair with every section's inputs."""
    obs.start_trace(trace_path, metadata={
        "command": "train", "spec": {"seed": 0, "workload": {"tiles": 3}},
    })
    for update in range(2):
        u = obs.TRACER.begin("update", update=update)
        r = obs.TRACER.begin("unroll")
        for _ in range(3):
            d = obs.TRACER.begin("decision")
            s = obs.TRACER.begin("state_build")
            obs.TRACER.end(s)
            f = obs.TRACER.begin("forward")
            obs.TRACER.end(f)
            obs.TRACER.end(d)
        obs.TRACER.event("episode_end", episode=update, makespan=100.0 - update)
        obs.TRACER.end(r)
        # the gradient-update phase spans both engines emit
        for phase in ("update/forward", "update/backward", "update/optimizer"):
            p = obs.TRACER.begin(phase)
            obs.TRACER.end(p)
        obs.TRACER.end(u)
    obs.stop_trace()

    reg = MetricsRegistry()
    reg.enabled = True
    for update in range(2):
        reg.record("train/policy_loss", -0.1 * update, step=update)
        reg.record("train/value_loss", 1.0 + update, step=update)
        reg.record("episode/makespan", 100.0 - update, step=update)
    reg.gauge("train/env_steps_per_second").set(1234.5)
    reg.counter("sim/busy_time").inc(30.0)
    reg.counter("sim/idle_time").inc(10.0)
    reg.counter("sim/events").inc(17)
    reg.write(metrics_path)


class TestRenderReport:
    def test_all_sections_render(self, tmp_path):
        trace, metrics = str(tmp_path / "t.jsonl"), str(tmp_path / "m.csv")
        _record_small_run(trace, metrics)
        report = render_report(trace, metrics_path=metrics)
        for heading in (
            "# Run report",
            "## Run",
            "## Span latencies",
            "## Update phase breakdown",
            "## Learning curve",
            "## Training diagnostics",
            "## Simulator utilization",
        ):
            assert heading in report
        assert "spec.seed | 0" in report
        assert "spec.workload.tiles | 3" in report
        # every latency span name got a percentile row
        for name in LATENCY_SPANS:
            assert f"| {name} |" in report
        assert "p99 ms" in report
        # the phase table rows drop the "update/" prefix
        for phase in ("forward", "backward", "optimizer"):
            assert f"| {phase} |" in report
        assert "75.0%" in report  # busy 30 / (30 + 10)

    def test_phase_breakdown_absent_without_phase_spans(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        obs.start_trace(trace)
        d = obs.TRACER.begin("decision")
        obs.TRACER.end(d)
        obs.stop_trace()
        report = render_report(trace)
        assert "## Update phase breakdown" not in report

    def test_trace_only_report(self, tmp_path):
        trace, metrics = str(tmp_path / "t.jsonl"), str(tmp_path / "m.csv")
        _record_small_run(trace, metrics)
        report = render_report(trace)
        assert "## Span latencies" in report
        assert "## Training diagnostics" not in report
        assert "## Simulator utilization" not in report
        # learning curve falls back to episode_end trace events
        assert "## Learning curve" in report

    def test_empty_trace_raises(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        obs.start_trace(path)
        obs.stop_trace()
        with pytest.raises(ValueError, match="no spans"):
            render_report(path)

    def test_write_report(self, tmp_path):
        trace, metrics = str(tmp_path / "t.jsonl"), str(tmp_path / "m.csv")
        _record_small_run(trace, metrics)
        out = str(tmp_path / "report.md")
        assert write_report(trace, out, metrics_path=metrics) == out
        with open(out) as fh:
            assert "## Span latencies" in fh.read()

    def test_recorded_trace_passes_nesting_check(self, tmp_path):
        trace, metrics = str(tmp_path / "t.jsonl"), str(tmp_path / "m.csv")
        _record_small_run(trace, metrics)
        check_span_nesting(load_trace(trace))


class TestNestingCheck:
    def _base(self, tmp_path, lines):
        import json

        path = tmp_path / "t.jsonl"
        header = {"type": "meta", "version": 1, "clock": "perf_counter",
                  "t0": 0.0, "run": {}}
        path.write_text(
            "\n".join(json.dumps(rec) for rec in [header, *lines]) + "\n"
        )
        return load_trace(str(path))

    @staticmethod
    def _span(id, parent, ts, dur, name="s"):
        return {"type": "span", "name": name, "id": id, "parent": parent,
                "ts": ts, "dur": dur}

    def test_duplicate_id_rejected(self, tmp_path):
        trace = self._base(
            tmp_path, [self._span(1, None, 0, 1), self._span(1, None, 2, 1)]
        )
        with pytest.raises(ValueError, match="duplicate"):
            check_span_nesting(trace)

    def test_unknown_parent_rejected(self, tmp_path):
        trace = self._base(tmp_path, [self._span(2, 99, 0, 1)])
        with pytest.raises(ValueError, match="unknown parent"):
            check_span_nesting(trace)

    def test_child_outside_parent_rejected(self, tmp_path):
        trace = self._base(
            tmp_path,
            [self._span(1, None, 0.0, 1.0), self._span(2, 1, 0.5, 2.0)],
        )
        with pytest.raises(ValueError, match="escapes"):
            check_span_nesting(trace)

    def test_negative_duration_rejected(self, tmp_path):
        trace = self._base(tmp_path, [self._span(1, None, 0.0, -0.1)])
        with pytest.raises(ValueError, match="negative"):
            check_span_nesting(trace)
