"""Smoke, drift and fault tests of the perf ledger (about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

The smoke runs use ``--seconds 1``, which shrinks every workload's work per
repeat while keeping its repeats, processes and checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.ledger import definition as d
from benchmarks.ledger import harness, worker

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK == d.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", d.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _ledger("--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    # the traced repeat's spans render through the program's own viewer
    from repro import obs

    path = harness.LEDGER_DIR / "traces" / f"{workload}-seed0-r1.jsonl"
    assert path.stat().st_mtime > time.time() - 170
    obs.check_span_nesting(obs.load_trace(str(path)))
    assert "attr.unattributed_frac" in obs.render_report(str(path))


def _repeat(**changes):
    base = {"failures": [], "digest": "a", "traced": False, "setup_s": 1.0,
            "decisions": 10, "wall_s": 1.0, "latencies_ms": [1.0, 2.0],
            "peak_rss_mb": 100.0, "attempted": 10, "failed": 0, "layers": {}}
    return dict(base, **changes)


def test_summary_fails_on_a_digest_mismatch_or_a_failed_check():
    workload = d.workload("stream-j8")
    ok = harness.summarize(workload, 0, [_repeat(), _repeat()], {}, False)
    assert ok["result"]["correct"]
    drift = harness.summarize(workload, 0, [_repeat(), _repeat(digest="b")], {}, False)
    assert not drift["result"]["correct"]
    failed = harness.summarize(workload, 0, [_repeat(failures=["x"])], {}, False)
    assert not failed["result"]["correct"]
    assert "CHECK FAILED: x" in failed["lines"]


def _config(name: str, work: int) -> dict:
    return {"workload": name, "seed": 0, "index": 0, "root": str(ROOT), "work": work,
            "traced": False, "trace_path": "", "spawned_at": time.monotonic()}


def test_train_checks_fire(monkeypatch):
    from repro.nn.compile import TrainingCompiler
    from repro.sim.engine import Simulation

    def broken_trace(self):
        raise AssertionError("precedence violated")

    def fallen_back(self):
        return {"fallbacks": 1, "validation_failures": 0}

    monkeypatch.setenv("REPRO_FUSION_CACHE", str(harness.LEDGER_DIR / "fusion"))
    monkeypatch.setattr(Simulation, "check_trace", broken_trace)
    monkeypatch.setattr(TrainingCompiler, "stats_dict", fallen_back)
    rep = worker.Repeat(_config("train-c6", 1))
    worker.run_train(rep)
    assert any("fell back" in f for f in rep.failures)
    assert any("violates an invariant" in f for f in rep.failures)


def test_served_action_check_fires(monkeypatch):
    import repro.policy.api as api
    from benchmarks.ledger import serve_load

    class Wrong:
        def decide(self, obs):
            return -1

    monkeypatch.setattr(api, "agent_policy_from_checkpoint", lambda path: Wrong())
    rep = worker.Repeat(_config("serve-light", 4))
    serve_load.run_serve(rep)
    assert any("differ from the in-process policy" in f for f in rep.failures)
    assert rep.attempted == 4


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _ledger("--workload", "train-c6", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
