"""Run the ledger: repeats of one workload, or every workload.

One run of one workload (the driver's unit) pre-warms the program in an
untimed process, then starts one worker process per repeat and reduces the
repeats to the end-to-end metrics:

* ``setup_s``, ``decisions_per_s`` and ``peak_rss_mb``: the median of the
  repeats;
* ``latency_p50_ms`` / ``latency_tail_ms``: percentiles of every operation
  of every repeat, pooled (the sample count is printed).

A traced run (``--trace 1``) alternates untraced and traced repeats of the
same work and reports the per-layer metrics of the traced ones, plus the
tracing cost: the ratio of their mean operation latencies.

Every repeat checks its own outputs; a run also requires that all its
repeats agree on their result digest (the same seed must give bitwise the
same training curve, streaming returns and served actions).  A failed check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.ledger import definition as d

ROOT = Path(__file__).resolve().parents[2]
LEDGER_DIR = ROOT / ".ledger"
WORKER_TIMEOUT_S = 150
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts: the program
    from this checkout's ``src``, and caches and temporary files inside the
    checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_FUSION_CACHE"] = str(LEDGER_DIR / "fusion")
    env["TMPDIR"] = str(LEDGER_DIR / "tmp")
    env.pop("REPRO_DETECT_ANOMALY", None)
    # one BLAS thread: the matrices are small, and on a 2-core box a
    # spinning BLAS helper competes with the load generator and the server
    env.update(BLAS_THREADS)
    return env


def _run_worker(cfg: Dict[str, Any]) -> Dict[str, Any]:
    cfg["spawned_at"] = time.monotonic()
    # a session of its own, so a timeout also stops the server it started
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger.worker", json.dumps(cfg)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise RuntimeError(f"{cfg['workload']} repeat {cfg.get('index')} "
                           f"exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def prewarm() -> Dict[str, Any]:
    """Untimed: compile bytecode and the fusion core into the checkout."""
    for sub in ("fusion", "tmp", "traces"):
        (LEDGER_DIR / sub).mkdir(parents=True, exist_ok=True)
    pin = _run_worker({"workload": "prewarm"})
    if not Path(pin.pop("repro")).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError("the program was not imported from this checkout's src/")
    pin["blas_threads"] = 1
    return pin


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def plan(workload: d.Workload, seconds: float) -> Tuple[int, int]:
    """(repeats, work per repeat) of an untraced run of ``seconds``."""
    total = seconds * workload.work_per_s
    repeats = d.REPEATS
    if workload.max_work:
        repeats = max(repeats, math.ceil(total / workload.max_work))
    work = max(2, round(total / repeats))
    return repeats, work + work % 2  # serve-heavy splits work over 2 connections


def run_one(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """All repeats of one workload run, each in a fresh worker process."""
    workload = d.workload(name)
    pin = prewarm()
    repeats, work = plan(workload, seconds)
    if traced:
        repeats = d.TRACE_REPEATS
    results = []
    for index in range(repeats):
        cfg = {
            "workload": name, "seed": seed, "index": index, "root": str(ROOT),
            "work": work,
            "traced": traced and index % 2 == 1,
            "trace_path": str(LEDGER_DIR / "traces" / f"{name}-seed{seed}-r{index}.jsonl"),
        }
        result = _run_worker(cfg)
        result["traced"] = cfg["traced"]
        results.append(result)
    return summarize(workload, seed, results, pin, traced)


def summarize(
    workload: d.Workload, seed: int, results: List[Dict[str, Any]],
    pin: Dict[str, Any], traced: bool,
) -> Dict[str, Any]:
    """Reduce the repeats to the driver's result object (``result``) and the
    human-readable lines printed before it (``lines``)."""
    failures = [f for r in results for f in r["failures"]]
    if len({r["digest"] for r in results}) != 1:
        failures.append("repeats with the same seed produced different results")
    lines = [f"env {json.dumps(pin, sort_keys=True)}"]
    plain = [r for r in results if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies_ms"]]
    if traced:
        metrics = _layer_metrics(results)
        units = {m.name: m.unit for m in d.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "decisions_per_s": statistics.median(r["decisions"] / r["wall_s"] for r in plain),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_tail_ms": percentile(latencies, workload.tail),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = {m.name: m.unit for m in d.END_TO_END}
        lines.append(f"{workload.name} seed {seed}: {len(plain)} repeats x "
                     f"{plain[0]['attempted']} decisions, {len(latencies)} latency "
                     f"samples, tail = p{workload.tail:g}")
    for key, value in metrics.items():
        lines.append(f"  {key:32s} {value:14.4f} {units[key]}")
    for failure in failures:
        lines.append(f"CHECK FAILED: {failure}")
    return {
        "lines": lines,
        "env": pin,
        "result": {
            "correct": not failures,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _layer_metrics(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: means over the traced repeats, 0 for layers the
    workload never enters, and the tracing cost against the untraced ones."""
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    out = {}
    for metric in d.PER_LAYER:
        values = [r["layers"].get(metric.name, 0.0) for r in traced]
        out[metric.name] = sum(values) / len(values)

    def mean_latency(rs: List[Dict[str, Any]]) -> float:
        return statistics.median(statistics.fmean(r["latencies_ms"]) for r in rs)

    out["obs.trace_overhead_frac"] = mean_latency(traced) / mean_latency(plain) - 1.0
    return out


# --------------------------------------------------------------------- #
# the whole ledger: every workload, several seeds, one traced run each
# --------------------------------------------------------------------- #


def run_all(runs: int, seed: int, seconds: float, out: Optional[str]) -> int:
    """Run every workload ``runs`` times (seeds ``seed``..) plus one traced
    run; write the results for ``compare``."""
    ledger: Dict[str, Any] = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in d.WORKLOADS:
        entry: Dict[str, Any] = {"runs": []}
        plans = [(s, False) for s in range(seed, seed + runs)] + [(seed, True)]
        for run_seed, traced in plans:
            run = run_one(workload.name, run_seed, seconds, traced)
            print("\n".join(run["lines"]), flush=True)
            ledger["env"] = run["env"]
            result = dict(run["result"], seed=run_seed)
            ok = ok and result["correct"]
            if traced:
                entry["trace"] = result
            else:
                entry["runs"].append(result)
        ledger["workloads"][workload.name] = entry
    path = Path(out) if out else LEDGER_DIR / "ledger.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"results written to {path}")
    return 0 if ok else 1
