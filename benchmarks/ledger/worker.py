"""One repeat of one workload, in a fresh process.

``python -m benchmarks.ledger.worker '<json config>'`` sets the workload up,
measures it, checks its outputs and prints one JSON object as its last line.
The harness starts one worker per repeat, so every repeat pays the full
set-up (interpreter, imports, construction, warm-up) and reports its own
peak RSS.  Set-up time runs from the harness's spawn instant (passed in as a
``time.monotonic`` reading, a system-wide clock) to the first timed
operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from benchmarks.ledger.layers import SpanRecorder, install_program_layers, ratio

#: agent weights of the streaming and serving workloads; the workload seed
#: varies the inputs (arrivals, jobs, noise, the recorded episode) only
AGENT_SEED = 0

TRAIN_ENVS = 8
UNROLL = 40
STREAM_ENVS = 4
STREAM_WARMUP_STEPS = 50


class Repeat:
    """What one repeat measured, in the shape the harness aggregates."""

    def __init__(self, cfg: Dict[str, Any]) -> None:
        self.cfg = cfg
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.decisions = 0
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        self.failures: List[str] = []
        self.digest = ""
        self.layers: Dict[str, float] = {}
        self.recorder: Optional[SpanRecorder] = None

    def ready(self, record: bool = True) -> None:
        """Mark the end of set-up; start recording spans on a traced repeat."""
        self.setup_s = time.monotonic() - self.cfg["spawned_at"]
        if record and self.cfg["traced"]:
            self.recorder = SpanRecorder()
            install_program_layers(self.recorder)
            self.recorder.enabled = True

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def as_dict(self, peak_rss_mb: float) -> Dict[str, Any]:
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "decisions": self.decisions,
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies_ms": self.latencies_ms,
            "peak_rss_mb": peak_rss_mb,
            "failures": self.failures,
            "digest": self.digest,
            "layers": self.layers,
        }


def _timed_loop(rep: Repeat, count: int, op: Callable[[], None]) -> None:
    """Run ``op`` ``count`` times, recording each call's latency."""
    latencies = rep.latencies_ms
    clock = time.perf_counter
    start = clock()
    for _ in range(count):
        t = clock()
        op()
        latencies.append((clock() - t) * 1e3)
    rep.wall_s = clock() - start
    if rep.recorder is not None:
        rep.recorder.enabled = False


def _program_layers(rep: Repeat, agent: Any, updater: Any = None) -> None:
    """Per-layer figures of an in-process repeat (traced repeats only)."""
    from repro.nn import fusion

    assert rep.recorder is not None
    totals, top = rep.recorder.layer_totals()
    step, state, fwd = totals["sim.step"], totals["sim.state"], totals["rl.forward"]
    update, heft = totals["rl.update"], totals["schedulers.heft_makespan"]
    compile_stats = getattr(agent, "compile_stats", lambda: None)() or {}
    train_stats = getattr(updater, "train_compile_stats", lambda: None)() or {}
    rep.layers.update({
        "sim.step.self_us": ratio(step["self"], step["calls"], 1e6),
        "sim.step.calls": step["calls"],
        "sim.state.build_us_per_obs": ratio(state["total"], state["items"], 1e6),
        "sim.state.window_nodes_mean": ratio(state["size"], state["items"]),
        "rl.forward.us": ratio(fwd["total"], fwd["calls"], 1e6),
        "rl.forward.obs_per_call": ratio(fwd["items"], fwd["calls"]),
        "nn.compile.plan_hit_rate": float(compile_stats.get("hit_rate", 0.0)),
        "nn.compile.arena_mb": float(compile_stats.get("arena_bytes", 0)) / 1e6,
        "nn.compile.train_arena_mb": float(train_stats.get("arena_bytes", 0)) / 1e6,
        "nn.compile.train_fallbacks": float(train_stats.get("fallbacks", 0)),
        "nn.fusion.loaded": 1.0 if fusion.load() is not None else 0.0,
        "rl.update.us": ratio(update["total"], update["calls"], 1e6),
        "schedulers.heft_makespan.us": ratio(heft["total"], heft["calls"], 1e6),
        "schedulers.heft_makespan.calls": heft["calls"],
        "attr.unattributed_frac": 1.0 - ratio(top, rep.wall_s),
    })
    rep.recorder.write_jsonl(rep.cfg["trace_path"], {
        "workload": rep.cfg["workload"], "seed": rep.cfg["seed"],
        "layers": dict(rep.layers),
    })


# --------------------------------------------------------------------- #
# train-c6
# --------------------------------------------------------------------- #


def run_train(rep: Repeat) -> None:
    import numpy as np

    from repro.rl.a2c import A2CConfig
    from repro.rl.trainer import ReadysTrainer
    from repro.sim.env import run_policy
    from repro.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict({
        "workload": {"name": "single", "kernel": "cholesky", "tiles": 6,
                     "sigma": 0.0},
        "cpus": 2, "gpus": 2, "num_envs": TRAIN_ENVS, "seed": rep.cfg["seed"],
        "compiled": True, "compiled_train": True,
    })
    trainer = ReadysTrainer.from_spec(spec, config=A2CConfig(unroll_length=UNROLL))
    trainer.train_updates(1)  # warm-up: captures and validates the update plan
    rep.ready()
    updates = rep.cfg["work"]
    _timed_loop(rep, updates, lambda: trainer.train_updates(1))
    rep.decisions = rep.attempted = updates * TRAIN_ENVS * UNROLL

    stats = getattr(trainer.updater, "train_compile_stats", lambda: None)()
    rep.check(stats is not None, "compiled training engine is off")
    if stats is not None:
        rep.check(stats["fallbacks"] == 0 and stats["validation_failures"] == 0,
                  f"compiled update fell back or failed validation: {stats}")
    env = spec.make_env()
    info = run_policy(env, trainer.agent.greedy_action)
    try:
        env.sim.check_trace()
    except AssertionError as exc:
        rep.check(False, f"final greedy schedule violates an invariant: {exc}")
    result = trainer.result
    digest = hashlib.sha256(np.asarray(result.episode_makespans).tobytes())
    digest.update(np.asarray([s.policy_loss for s in result.update_stats]).tobytes())
    rep.digest = digest.hexdigest()
    if rep.recorder is not None:
        rep.layers["rl.final_makespan_vs_heft"] = info["makespan"] / info["heft_makespan"]
        _program_layers(rep, trainer.agent, trainer.updater)


# --------------------------------------------------------------------- #
# stream-j8
# --------------------------------------------------------------------- #


def run_stream(rep: Repeat) -> None:
    from repro.rl.trainer import default_agent
    from repro.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict({
        "workload": {"name": "mixed-families", "families": ["cholesky", "lu", "qr"],
                     "tile_choices": [4], "arrival": "poisson", "rate": 0.01,
                     "num_jobs": 8, "sigma": 0.2},
        "cpus": 2, "gpus": 2, "num_envs": STREAM_ENVS, "seed": rep.cfg["seed"],
    })
    env = spec.make_train_env()
    agent = default_agent(env, rng=AGENT_SEED)
    enable = getattr(agent, "enable_compiled", None)
    if enable is not None:
        enable()
    obs = env.reset().obs
    for _ in range(STREAM_WARMUP_STEPS):
        obs = env.step(agent.greedy_actions(obs)).obs

    digest = hashlib.sha256()
    missing_jobs: List[int] = []
    state = {"obs": obs}

    def step() -> None:
        result = env.step(agent.greedy_actions(state["obs"]))
        state["obs"] = result.obs
        digest.update(result.rewards.tobytes())
        if result.dones.any():
            for k in result.dones.nonzero()[0]:
                info = result.infos[k]
                missing_jobs.append(info["num_jobs"] - info["completed_jobs"])
                digest.update(repr((int(k), info["makespan"], info["jcts"])).encode())

    rep.ready()
    steps = rep.cfg["work"]
    _timed_loop(rep, steps, step)
    rep.decisions = rep.attempted = steps * STREAM_ENVS
    rep.digest = digest.hexdigest()
    rep.check(not any(missing_jobs), "a streaming episode ended with jobs left incomplete")
    if rep.recorder is not None:
        _program_layers(rep, agent)


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def prewarm() -> Dict[str, Any]:
    """Import every module a repeat uses and build the fusion core, so set-up
    time never includes bytecode compilation or a cold fusion cache."""
    import numpy

    import repro
    import repro.rl.trainer  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.nn import fusion

    return {
        "nn.fusion.loaded": fusion.load() is not None,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "repro": os.path.dirname(repro.__file__),
    }


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[0])
    if cfg["workload"] == "prewarm":
        print(json.dumps(prewarm()))
        return 0
    rep = Repeat(cfg)
    if cfg["workload"] == "train-c6":
        run_train(rep)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif cfg["workload"] == "stream-j8":
        run_stream(rep)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from benchmarks.ledger.serve_load import run_serve

        run_serve(rep)
        # the server is this process's only child; it has been waited for
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps(rep.as_dict(peak)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
