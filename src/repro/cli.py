"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``    — run baseline schedulers (and optionally a checkpointed agent)
                 on one (kernel, T, platform, σ) cell and print the table;
``train``      — train a READYS agent and optionally checkpoint it;
``evaluate``   — evaluate a checkpointed agent against the baselines;
``info``       — print the problem instance (task counts, HEFT makespan, …);
``report-run`` — render a recorded trace (+ optional metrics) as markdown;
``lint``       — run the repo-specific reproducibility linter (RPR rules).

``compare``/``train``/``evaluate`` accept ``--trace FILE`` (structured JSONL
trace of spans and events, headed by the run's :class:`ExperimentSpec`) and
``--metrics FILE`` (metrics-registry dump, ``.csv`` or ``.jsonl``); both are
off by default and add no measurable overhead when unused.  Instance
arguments are gathered into an :class:`repro.spec.ExperimentSpec`, the single
description of the experiment cell shared by every subcommand.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

import numpy as np

from repro import obs
from repro.analysis import runner as analysis_runner
from repro.eval.compare import compare_spec
from repro.policy import AgentPolicy, evaluate_policy
from repro.rl.a2c import A2CConfig
from repro.rl.trainer import ReadysTrainer
from repro.rl.transfer import load_agent, save_agent
from repro.schedulers import EnvBoundSchedulerPolicy, available, heft_makespan
from repro.schedulers.registry import get_entry
from repro.spec import ARRIVALS, KERNELS, NOISE_MODELS, ExperimentSpec, ServeSpec
from repro.utils.tables import format_table


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="cholesky", choices=list(KERNELS))
    parser.add_argument("--tiles", type=int, default=4, help="T, tiles per dimension")
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--gpus", type=int, default=2)
    parser.add_argument("--sigma", type=float, default=0.0, help="relative noise level")
    parser.add_argument("--noise", default="gaussian", choices=list(NOISE_MODELS))
    parser.add_argument("--seed", type=int, default=0)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """Workload/arrival flags: streaming multi-job episodes (DESIGN.md §14)."""
    parser.add_argument(
        "--workload", default=None, metavar="NAME",
        help="registered workload name (repro.graphs.workloads); defaults to "
             "'single' from --kernel/--tiles, or 'mixed-families'/"
             "'size-mixture' when --families/--tile-choices are given",
    )
    parser.add_argument(
        "--arrival", default=None, choices=list(ARRIVALS),
        help="job arrival process; anything but 'none' makes episodes "
             "streaming (multi-job)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="Poisson arrival rate in jobs/ms (with --arrival poisson)",
    )
    parser.add_argument(
        "--num-jobs", dest="num_jobs", type=int, default=None,
        help="jobs per streaming episode (the job-count horizon)",
    )
    parser.add_argument(
        "--arrival-trace", dest="arrival_trace", default=None, metavar="FILE",
        help="trace file of arrival instants, one per line (implies "
             "--arrival trace)",
    )
    parser.add_argument(
        "--horizon-time", dest="horizon_time", type=float, default=None,
        help="drop jobs arriving after this instant (time horizon)",
    )
    parser.add_argument(
        "--tile-choices", dest="tile_choices", type=int, nargs="+", default=None,
        help="tile counts sampled per job (size-mixture workloads)",
    )
    parser.add_argument(
        "--families", nargs="+", default=None, metavar="FAMILY",
        help="graph families mixed per job, e.g. cholesky lu qr random",
    )


#: workload flags beyond the instance flags (only some subcommands have them)
_WORKLOAD_CLI_FLAGS = (
    "workload", "arrival", "rate", "num_jobs", "arrival_trace",
    "horizon_time", "tile_choices", "families",
)


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Gather a spec: the instance and workload flags become its WorkloadSpec."""
    given = {name: getattr(args, name, None) for name in _WORKLOAD_CLI_FLAGS}
    if given["workload"]:
        name = given["workload"]
    elif given["families"]:
        name = "mixed-families"
    elif given["tile_choices"]:
        name = "size-mixture"
    else:
        name = "single"
    wl = {
        "name": name, "kernel": args.kernel, "tiles": args.tiles,
        "noise": args.noise, "sigma": args.sigma,
    }
    if given["tile_choices"]:
        wl["tile_choices"] = tuple(given["tile_choices"])
    if given["families"]:
        wl["families"] = tuple(given["families"])
    if given["arrival_trace"]:
        wl["trace_file"] = given["arrival_trace"]
        wl["arrival"] = given["arrival"] or "trace"
    elif given["arrival"]:
        wl["arrival"] = given["arrival"]
    if given["rate"] is not None:
        wl["rate"] = given["rate"]
    if given["num_jobs"] is not None:
        wl["num_jobs"] = given["num_jobs"]
    if given["horizon_time"] is not None:
        wl["horizon_time"] = given["horizon_time"]
    args.workload = wl
    return ExperimentSpec.from_args(args)


def _print_train_compile_stats(trainer) -> None:
    """One status line of training-step counters (array steps, fallbacks)."""
    stats = trainer.updater.train_compile_stats()
    print(
        f"compiled-train: {stats['array_steps']} array steps, "
        f"{stats['fallbacks']} tape fallbacks, "
        f"arena {stats['arena_bytes'] / 1024.0:.1f} KiB"
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a structured span/event trace (JSONL) of this run",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the metrics registry on exit (.csv or .jsonl)",
    )


@contextmanager
def _observed(args: argparse.Namespace, spec: ExperimentSpec, command: str) -> Iterator[None]:
    """Enable tracing/metrics for the body when the flags ask for them.

    The trace file is headed by the command name and the full spec, so a
    recorded run carries its instance description; the metrics registry is
    reset on entry and dumped on exit (even when the body raises, so a
    failed run still leaves its partial telemetry behind).
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path:
        obs.start_trace(
            trace_path, metadata={"command": command, "spec": spec.to_dict()}
        )
    if metrics_path:
        obs.METRICS.reset()
        obs.METRICS.enabled = True
    try:
        yield
    finally:
        if trace_path:
            obs.stop_trace()
        if metrics_path:
            obs.METRICS.write(metrics_path)
            obs.METRICS.enabled = False


def cmd_info(args) -> int:
    spec = _spec_from_args(args)
    graph, platform, durations, _ = spec.make_instance()
    rows = [
        ["tasks", graph.num_tasks],
        ["edges", graph.num_edges],
        ["depth", graph.longest_path_length()],
        ["platform", platform.name],
        ["HEFT makespan (σ=0)", heft_makespan(graph, platform, durations)],
    ]
    for i, name in enumerate(durations.kernel_names):
        rows.append(
            [f"{name} cpu/gpu (ms)",
             f"{durations.table[i, 0]:g} / {durations.table[i, 1]:g}"]
        )
    print(format_table(["property", "value"], rows, floatfmt=".2f"))
    return 0


def cmd_compare(args) -> int:
    spec = _spec_from_args(args)
    agent = load_agent(args.agent) if args.agent else None
    with _observed(args, spec, "compare"):
        result = compare_spec(
            spec, baselines=tuple(args.baselines), agent=agent, seeds=args.runs
        )
    rows = []
    for method in result.methods():
        rows.append([method, result.mean(method), min(result.makespans[method])])
    print(
        f"instance: {result.label} on {spec.cpus}CPU_{spec.gpus}GPU, "
        f"sigma={spec.workload.sigma}"
    )
    print(format_table(["scheduler", "mean makespan", "best"], rows, floatfmt=".2f"))
    if agent is not None:
        for base in args.baselines:
            ratio = result.improvement(base, "readys")
            print(f"improvement over {base}: {ratio:.3f}x")
    return 0


def cmd_train(args) -> int:
    if args.num_envs < 1:
        raise SystemExit("--num-envs must be >= 1")
    spec = _spec_from_args(args)
    if spec.checkpoint_every and not args.checkpoint:
        raise SystemExit("--checkpoint-every needs --checkpoint PATH")
    if spec.resume:
        # the checkpoint carries its own spec/config/RNG state; --updates is
        # the *total* budget of the logical run, not an increment
        from repro.rl.checkpoint import (
            load_checkpoint,
            resume_target_updates,
            trainer_from_checkpoint,
        )

        try:
            trainer = trainer_from_checkpoint(load_checkpoint(spec.resume))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot resume: {exc}") from exc
        remaining = resume_target_updates(trainer.completed_updates, args.updates)
        print(
            f"resumed from {spec.resume} at update {trainer.completed_updates}; "
            f"{remaining} updates remaining"
        )
    else:
        config = A2CConfig(entropy_coef=args.entropy, learning_rate=args.lr)
        trainer = ReadysTrainer.from_spec(spec, config=config)
        remaining = args.updates
    with _observed(args, spec, "train"):
        trainer.train_updates(
            remaining,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=args.checkpoint,
        )
        trainer.updater._train_compiler.publish_metrics(obs.METRICS)
    ms = trainer.result.episode_makespans
    _print_train_compile_stats(trainer)
    if spec.workload.is_streaming:
        tail = f"{np.mean(ms[-10:]):.2f}" if len(ms) else "n/a (none finished)"
        print(
            f"trained {remaining} updates / {len(ms)} episodes on streaming "
            f"workload {spec.workload.name!r} ({spec.workload.arrival} "
            f"arrivals, reward {spec.reward_mode}); "
            f"last-10 mean episode makespan {tail}"
        )
    else:
        graph, platform, durations, _ = spec.make_instance()
        print(
            f"trained {remaining} updates / {len(ms)} episodes; "
            f"last-10 mean makespan {np.mean(ms[-10:]):.2f}, "
            f"HEFT {heft_makespan(graph, platform, durations):.2f}"
        )
    if args.out:
        save_agent(trainer.agent, args.out, workload=spec.workload.to_json())
        print(f"checkpoint written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    """Roll ``--runs`` seeded episodes of the agent, in process or served.

    Local and ``--server`` evaluation run the same :func:`evaluate_policy`
    episodes (episode *i* is seeded from child *i* of ``--seed``), so they
    print the same numbers.  On a streaming workload the ``--baselines``
    (online re-invocation adapters) are rolled over the identical episode
    stream and a mean JCT / slowdown table is printed.
    """
    spec = _spec_from_args(args)
    env = spec.make_env()

    def run(policy):
        return evaluate_policy(env, policy, episodes=args.runs, seed=spec.seed)

    stats = None
    with _observed(args, spec, "evaluate"):
        if args.server:
            from repro.serve import RemoteClient

            with RemoteClient.for_checkpoint(args.server, args.agent) as client:
                records = run(client)
                stats = client.stats()
        else:
            records = run(AgentPolicy(load_agent(args.agent)))
        methods = [("readys", records)]
        if spec.workload.is_streaming:
            for base in args.baselines:
                entry = get_entry(base)
                if entry.cls is None:
                    raise SystemExit(
                        f"baseline {base!r} has no scheduler class to adapt"
                    )
                methods.append(
                    (base, run(EnvBoundSchedulerPolicy(entry.cls(), env)))
                )
    served = f" (served via {args.server})" if args.server else ""
    if spec.workload.is_streaming:
        print(
            f"streaming workload {spec.workload.name!r}: {spec.workload.arrival} "
            f"arrivals, {args.runs} episodes{served}"
        )
        rows = [
            [
                name,
                float(np.mean([r.mean_jct for r in rs])),
                float(np.mean([r.mean_slowdown for r in rs])),
                float(np.mean([r.makespan for r in rs])),
            ]
            for name, rs in methods
        ]
        print(format_table(
            ["method", "mean JCT", "mean slowdown", "mean makespan"],
            rows, floatfmt=".2f",
        ))
    else:
        graph, platform, durations, _ = spec.make_instance()
        mean = np.mean([r.makespan for r in records])
        heft = heft_makespan(graph, platform, durations)
        print(
            f"readys{served} mean {mean:.2f} over {len(records)} episodes "
            f"(HEFT σ=0 plan: {heft:.2f}, ratio {heft / mean:.3f})"
        )
    if stats is not None:
        print(
            "server: {d:.0f} decisions, mean batch {b:.2f}".format(
                d=stats.get("decisions_total", 0.0),
                b=stats.get("mean_batch_size", 0.0),
            )
        )
    return 0


def cmd_serve(args) -> int:
    """Run the decision server until SIGTERM/SIGINT, then drain."""
    from repro.serve import serve_main

    serve_spec = ServeSpec.from_args(args)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        obs.METRICS.reset()
        obs.METRICS.enabled = True
    try:
        return serve_main(
            serve_spec, checkpoint=args.checkpoint, mode=args.mode
        )
    finally:
        if metrics_path:
            obs.METRICS.write(metrics_path)
            obs.METRICS.enabled = False


def cmd_report_run(args) -> int:
    try:
        report = obs.render_report(args.trace_file, metrics_path=args.metrics)
    except (OSError, ValueError) as exc:
        print(f"report-run: {exc}", file=sys.stderr)
        return 1
    if not report.strip():
        print("report-run: empty report", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"report written to {args.out}")
    else:
        try:
            print(report)
        except BrokenPipeError:  # e.g. `report-run ... | head`
            pass
    return 0


def cmd_lint(args) -> int:
    return analysis_runner.run(
        args.paths,
        list_rules=args.list_rules,
        strict=args.strict,
        output_format=args.output_format,
        baseline_path=args.baseline_path,
        no_baseline=args.no_baseline,
        write_baseline=args.write_baseline,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="READYS reproduction: RL-based dynamic DAG scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a problem instance")
    _add_instance_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_cmp = sub.add_parser("compare", help="compare schedulers on one instance")
    _add_instance_args(p_cmp)
    p_cmp.add_argument("--baselines", nargs="+", default=["heft", "mct"],
                       choices=available())
    p_cmp.add_argument("--agent", default=None, help="checkpoint (.npz) to include")
    p_cmp.add_argument("--runs", type=int, default=5)
    p_cmp.add_argument("--window", type=int, default=2)
    _add_obs_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    # exact flag names only: a mistyped or retired flag fails instead of
    # resolving to a live one by prefix
    p_train = sub.add_parser(
        "train", help="train a READYS agent", allow_abbrev=False
    )
    _add_instance_args(p_train)
    p_train.add_argument("--updates", type=int, default=600)
    p_train.add_argument("--window", type=int, default=2)
    p_train.add_argument("--lr", type=float, default=1e-2)
    p_train.add_argument("--entropy", type=float, default=1e-2)
    p_train.add_argument("--reward-mode", default="dense",
                         choices=["dense", "terminal",
                                  "jct", "slowdown", "makespan"],
                         help="dense = telescoped shaping (default); "
                              "terminal = the paper's eq. 1 exactly; "
                              "jct/slowdown/makespan = streaming modes "
                              "(require an arrival process)")
    p_train.add_argument("--num-envs", type=int, default=1,
                         help="K lockstep environments per update "
                              "(batched rollouts; 1 = historical loop)")
    p_train.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="training-checkpoint file (model + optimizer + "
                              "RNG + env state); written per --checkpoint-every")
    p_train.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                         help="write --checkpoint every N updates (0 = never)")
    p_train.add_argument("--resume", default=None, metavar="PATH",
                         help="resume a run from a training checkpoint; "
                              "--updates is the total budget of the logical "
                              "run, instance/config flags are taken from the "
                              "checkpoint")
    p_train.add_argument("--out", default=None,
                         help="weight-only agent checkpoint (.npz) output path")
    _add_obs_args(p_train)
    _add_workload_args(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a trained agent")
    _add_instance_args(p_eval)
    p_eval.add_argument("--agent", required=True)
    p_eval.add_argument("--runs", type=int, default=5)
    p_eval.add_argument("--window", type=int, default=2)
    p_eval.add_argument(
        "--server", default=None, metavar="ENDPOINT",
        help="evaluate against a running decision server instead of "
             "in-process ('unix:<path>' or 'host:port'); --agent then names "
             "the checkpoint path as the *server* sees it",
    )
    _add_obs_args(p_eval)
    _add_workload_args(p_eval)
    p_eval.add_argument(
        "--baselines", nargs="+", default=["online-heft", "online-mct"],
        metavar="NAME",
        help="baseline schedulers evaluated alongside the agent; streaming "
             "workloads only (online re-invocation adapters), static "
             "workloads ignore it",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_serve = sub.add_parser(
        "serve", help="run the decision server (drains cleanly on SIGTERM)"
    )
    p_serve.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="agent checkpoint (.npz) preloaded as the "
                              "default model for {'kind': 'default'} sessions")
    p_serve.add_argument("--mode", default="greedy",
                         choices=["greedy", "sample"],
                         help="decision mode of agent policies")
    p_serve.add_argument("--host", default=None,
                         help="TCP bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port (0 = OS-assigned; default 8641)")
    p_serve.add_argument("--unix-socket", dest="unix_socket", default=None,
                         metavar="PATH", help="serve on an AF_UNIX socket "
                         "instead of TCP")
    p_serve.add_argument("--max-batch", dest="max_batch", type=int,
                         default=None, help="flush at this many queued "
                         "requests (1 disables cross-episode batching)")
    p_serve.add_argument("--max-wait-us", dest="max_wait_us", type=int,
                         default=None, help="longest a flush keeps "
                         "collecting after its first request, in microseconds "
                         "(default 2000)")
    p_serve.add_argument("--queue-cap", dest="queue_cap", type=int,
                         default=None, help="pending-request cap; beyond it "
                         "requests get retry_after replies")
    p_serve.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                         default=None, help="default per-request deadline")
    p_serve.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the serve metrics registry on exit (.csv or .jsonl)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_report = sub.add_parser(
        "report-run", help="render a recorded --trace file as markdown"
    )
    p_report.add_argument("trace_file", help="trace JSONL written by --trace")
    p_report.add_argument(
        "--metrics", default=None,
        help="metrics dump written by --metrics (adds learning-curve and "
             "utilization sections)",
    )
    p_report.add_argument("--out", default=None, help="write markdown here "
                          "instead of stdout")
    p_report.set_defaults(func=cmd_report_run)

    p_lint = sub.add_parser(
        "lint", help="run the repo-specific reproducibility linter"
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src tests)"
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="gate baseline drift: any unbaselined finding (warnings "
             "included) or stale baseline entry fails",
    )
    p_lint.add_argument(
        "--format", dest="output_format", default="text",
        choices=["text", "json"],
        help="output format (json schema version is pinned)",
    )
    p_lint.add_argument(
        "--baseline", dest="baseline_path", default=None, metavar="FILE",
        help="baseline file (default: .repro-lint-baseline.json in the "
             "working directory, when present)",
    )
    p_lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report accepted findings too)",
    )
    p_lint.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write the current findings as a baseline (existing "
             "justifications are carried over; new entries get a TODO)",
    )
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
