"""Metrics registry: kinds, labels, sinks and seeded-run determinism."""

import numpy as np
import pytest

from repro import obs
from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Series,
    Timer,
    iter_series,
    load_metrics_rows,
    scalar_value,
)
from repro.platforms import GaussianNoise, Platform
from repro.schedulers import get as get_runner
from repro.sim.engine import Simulation


class TestKinds:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="accumulate"):
            Counter().inc(-1.0)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        assert np.isnan(g.value)
        g.set(1.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_timer_record_and_stats(self):
        t = Timer()
        t.record(0.5)
        t.record(1.5)
        assert t.count == 2
        assert t.total == 2.0
        assert t.mean == 1.0
        t.reset()
        assert t.count == 0 and t.mean == 0.0

    def test_timer_context_manager_samples(self):
        t = Timer()
        with t:
            pass
        assert t.count == 1
        assert t.samples[0] >= 0.0

    def test_series_points(self):
        s = Series()
        s.append(3.0, step=0)
        s.append(4.0)
        assert s.points == [(0.0, 3.0), (None, 4.0)]
        assert s.values() == [3.0, 4.0]
        assert len(s) == 2


class TestRegistry:
    def test_create_on_demand_and_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", proc=1) is not reg.counter("x", proc=2)
        assert len(reg) == 3

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_name_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_record_appends_series(self):
        reg = MetricsRegistry()
        reg.record("loss", 1.0, step=0)
        reg.record("loss", 0.5, step=1)
        assert reg.series("loss").values() == [1.0, 0.5]

    def test_reset_clears_but_keeps_flag(self):
        reg = MetricsRegistry()
        reg.enabled = True
        reg.counter("x").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.enabled

    def test_default_registry_disabled(self):
        assert obs.METRICS.enabled is False
        assert obs.get_registry() is obs.METRICS


class TestSinks:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("sim/events").inc(5)
        reg.gauge("sim/utilization").set(0.75)
        reg.timer("decision", scheduler="mct").record(0.25)
        reg.record("episode/makespan", 100.0, step=0)
        reg.record("episode/makespan", 90.0, step=1)
        return reg

    @pytest.mark.parametrize("suffix", ["csv", "jsonl"])
    def test_round_trip(self, tmp_path, suffix):
        path = str(tmp_path / f"m.{suffix}")
        self._populated().write(path)
        rows = load_metrics_rows(path)
        assert scalar_value(rows, "sim/events", "counter") == 5.0
        assert scalar_value(rows, "sim/utilization", "gauge") == 0.75
        timer_row = next(r for r in rows if r["kind"] == "timer")
        assert timer_row["labels"] == "scheduler=mct"
        assert timer_row["count"] == 1
        assert list(iter_series(rows, "episode/makespan")) == [
            (0.0, 100.0),
            (1.0, 90.0),
        ]

    def test_rows_deterministically_ordered(self):
        a, b = self._populated(), self._populated()
        assert a.rows() == b.rows()
        names = [r["name"] for r in a.rows()]
        assert names == sorted(names)

    def test_seeded_sim_runs_write_identical_sinks(self, tmp_path):
        """Two identical seeded runs must produce byte-identical sinks.

        Only simulation-time metrics (counters, gauges) are compared — timers
        hold wall-clock samples and legitimately vary run to run.
        """
        graph = cholesky_dag(3)

        def run(path: str) -> None:
            obs.METRICS.enabled = True
            obs.METRICS.reset()
            sim = Simulation(
                graph, Platform(2, 2), CHOLESKY_DURATIONS, GaussianNoise(0.2), rng=7
            )
            get_runner("mct")(sim, rng=7)
            reg = MetricsRegistry()
            reg.enabled = True
            for (kind, (name, _)), metric in obs.METRICS._metrics.items():
                if kind == "counter":
                    reg.counter(name).inc(metric.value)
                elif kind == "gauge":
                    reg.gauge(name).set(metric.value)
            reg.write(path)
            obs.METRICS.enabled = False
            obs.METRICS.reset()

        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(a)
        run(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
        rows = load_metrics_rows(a)
        assert scalar_value(rows, "sim/events", "counter") > 0
        assert scalar_value(rows, "sim/tasks_started", "counter") == graph.num_tasks
        assert scalar_value(rows, "sim/task_completions", "counter") == graph.num_tasks
        util = scalar_value(rows, "sim/utilization", "gauge")
        assert 0.0 < util <= 1.0
