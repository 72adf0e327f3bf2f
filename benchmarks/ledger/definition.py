"""What the ledger measures: its workloads and metrics, in one place.

``BENCHMARK.json`` at the repository root is rendered from these tables
(:func:`benchmark_json`); ``test_ledger.py`` fails when the two drift apart.
Every end-to-end metric is reported on every workload, so each one is phrased
so that it means something on all four: a *decision* is one action applied
to a scheduling episode (a training transition, a greedy streaming step of
one member, or one served reply), and an *operation* is the unit a user
waits for (one unroll+update cycle, one lockstep step, one request).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: the command the driver runs, relative to the repository root
COMMAND = ["python3", "-m", "benchmarks.ledger"]
PATHS = ["benchmarks/ledger"]
#: seconds one run measures; the work of a run is derived from it (see
#: ``Workload.work_per_s``), so both commits of a comparison do equal work
RUN_SECONDS = 12
#: fewest measured repeats per untraced run, each in a fresh process
REPEATS = 3
#: repeats of a traced run: untraced and traced alternate, so the two
#: halves see the same machine state and their ratio is the tracing cost
TRACE_REPEATS = 4


class Workload(NamedTuple):
    name: str
    why: str
    work_per_s: float
    """units of work per second of ``--seconds`` (updates, lockstep steps or
    requests); calibrated once on a 2-core x86 container, then fixed"""
    tail: float
    """the percentile ``latency_tail_ms`` reports: one with at least ten of
    the run's operations beyond it, and the steadiest such across seeds
    (README.md, "Spread")"""
    max_work: Optional[int] = None
    """most work in one repeat; more work takes more repeats"""


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "train-c6",
        "A2C on Cholesky T=6, K=8 fused vec env, compiled rollouts and "
        "updates: the reference training scenario, every training layer runs",
        work_per_s=8.0,
        tail=90.0,
        max_work=32,  # the compiled update's arena grows ~20 MB per update
    ),
    Workload(
        "stream-j8",
        "greedy rollouts on a K=4 streaming env, 8 mixed-family jobs per "
        "episode: per-member stepping and plan-cache misses, no update",
        work_per_s=340.0,
        tail=99.0,
    ),
    Workload(
        "serve-light",
        "decision server under open-loop Poisson load at 100 Hz on 1 "
        "connection: latency is flush timer plus one forward, no batching",
        work_per_s=100.0,
        tail=90.0,
    ),
    Workload(
        "serve-heavy",
        "the same server under a closed loop of 2 connections x 16 requests "
        "in flight: batching and the codec bound throughput",
        work_per_s=3000.0,
        tail=90.0,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0
    """end-to-end only: the share of the parent's median by which the
    metric may worsen before a change counts as a regression"""
    layer: str = ""
    moves: str = ""
    """per-layer only: the end-to-end metric and workload it should move"""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("decisions_per_s", "1/s", "higher", 0.20),
    Metric("latency_p50_ms", "ms", "lower", 0.20),
    Metric("latency_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("sim.step.self_us", "us", "lower", layer="sim",
           moves="decisions_per_s on train-c6 and stream-j8"),
    Metric("sim.step.calls", "count", "lower", layer="sim",
           moves="decisions_per_s on stream-j8"),
    Metric("sim.state.build_us_per_obs", "us", "lower", layer="sim.state",
           moves="decisions_per_s on stream-j8"),
    Metric("sim.state.window_nodes_mean", "count", "lower", layer="sim.state",
           moves="decisions_per_s on stream-j8, peak_rss_mb"),
    Metric("rl.forward.us", "us", "lower", layer="rl.agent",
           moves="decisions_per_s on stream-j8, latency_p50_ms on serve-light"),
    Metric("rl.forward.obs_per_call", "count", "higher", layer="rl.agent",
           moves="decisions_per_s on serve-heavy"),
    Metric("nn.compile.plan_hit_rate", "ratio", "higher", layer="nn.compile",
           moves="decisions_per_s and peak_rss_mb on stream-j8"),
    Metric("nn.compile.arena_mb", "MB", "lower", layer="nn.compile",
           moves="peak_rss_mb on stream-j8"),
    Metric("nn.compile.train_arena_mb", "MB", "lower", layer="nn.compile",
           moves="peak_rss_mb on train-c6"),
    Metric("nn.compile.train_fallbacks", "count", "lower", layer="nn.compile",
           moves="decisions_per_s on train-c6"),
    Metric("nn.fusion.loaded", "flag", "higher", layer="nn.fusion",
           moves="decisions_per_s on train-c6"),
    Metric("rl.update.us", "us", "lower", layer="rl.a2c",
           moves="decisions_per_s on train-c6; no change elsewhere"),
    Metric("rl.final_makespan_vs_heft", "ratio", "lower", layer="rl.a2c",
           moves="none: a quality guard for arithmetic changes on train-c6"),
    Metric("schedulers.heft_makespan.us", "us", "lower", layer="schedulers",
           moves="decisions_per_s on stream-j8"),
    Metric("schedulers.heft_makespan.calls", "count", "lower", layer="schedulers",
           moves="decisions_per_s on stream-j8"),
    Metric("policy.codec.encode_us", "us", "lower", layer="policy.codec",
           moves="decisions_per_s on serve-heavy"),
    Metric("policy.codec.frame_bytes", "bytes", "lower", layer="policy.codec",
           moves="decisions_per_s on serve-heavy"),
    Metric("serve.decode_us", "us", "lower", layer="serve",
           moves="decisions_per_s on serve-heavy"),
    Metric("serve.decide_many_us", "us", "lower", layer="serve",
           moves="decisions_per_s on serve-heavy"),
    Metric("serve.batch_size_mean", "count", "higher", layer="serve",
           moves="decisions_per_s on serve-heavy"),
    Metric("serve.queue_wait_ms", "ms", "lower", layer="serve",
           moves="latency_p50_ms on serve-light (flush timer)"),
    Metric("serve.retry_after", "count", "lower", layer="serve",
           moves="failed replies on serve-heavy"),
    Metric("loadgen.late_ms_max", "ms", "lower", layer="loadgen",
           moves="none: shows whether the open loop held its schedule"),
    Metric("attr.unattributed_frac", "ratio", "lower", layer="attribution",
           moves="none: wall-clock share no layer span covers"),
    Metric("obs.trace_overhead_frac", "ratio", "lower", layer="attribution",
           moves="none: the cost of the benchmark's own spans"),
)


def _metric_entry(metric: Metric, end_to_end: bool) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "name": metric.name,
        "unit": metric.unit,
        "better": metric.better,
    }
    if end_to_end:
        entry["bound"] = metric.bound
    return entry


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [_metric_entry(m, True) for m in END_TO_END],
        "per_layer": [_metric_entry(m, False) for m in PER_LAYER],
    }


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; options: {list(WORKLOAD_NAMES)}")
