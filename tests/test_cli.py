"""Command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import make_dag
from repro.spec import WorkloadSpec
from tests.reference_tape import reference_tape


def _saved_workload(path):
    """The WorkloadSpec ``train --out`` recorded next to the weights."""
    with np.load(path) as archive:
        return WorkloadSpec.from_dict(json.loads(str(archive["__meta__workload"])))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.kernel == "cholesky"
        assert args.tiles == 4

    def test_invalid_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--kernel", "svd"])


class TestCommands:
    def test_info_prints_instance(self, capsys):
        assert main(["info", "--kernel", "lu", "--tiles", "3"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out and "HEFT" in out
        tasks = make_dag("lu", 3).num_tasks
        assert tasks != make_dag("cholesky", 4).num_tasks  # not the default
        assert ["tasks", str(tasks)] in [line.split() for line in out.splitlines()]

    def test_compare_runs(self, capsys):
        rc = main([
            "compare", "--tiles", "3", "--runs", "2",
            "--baselines", "heft", "mct", "--sigma", "0.2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "heft" in out and "mct" in out
        assert "sigma=0.2" in out.splitlines()[0]

    def test_train_and_evaluate_roundtrip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "agent.npz")
        rc = main([
            "train", "--tiles", "2", "--updates", "3", "--out", ckpt,
        ])
        assert rc == 0
        assert _saved_workload(ckpt) == WorkloadSpec(tiles=2)
        rc = main([
            "evaluate", "--tiles", "2", "--agent", ckpt, "--runs", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "readys mean" in out
        # a streaming run records its mixture, not the single-DAG defaults
        mixed = str(tmp_path / "mixed.npz")
        rc = main([
            "train", "--families", "lu", "qr", "--tile-choices", "2",
            "--arrival", "poisson", "--num-jobs", "2", "--updates", "1",
            "--out", mixed,
        ])
        assert rc == 0
        assert _saved_workload(mixed) == WorkloadSpec(
            name="mixed-families", families=("lu", "qr"), tile_choices=(2,),
            arrival="poisson", num_jobs=2,
        )

    def test_evaluate_prints_the_seeded_evaluate_policy_mean(self, tmp_path, capsys):
        """Episode i is seeded from child i of --seed, as --server rolls it."""
        from repro.policy import AgentPolicy, evaluate_policy
        from repro.rl.trainer import default_agent
        from repro.rl.transfer import load_agent, save_agent
        from repro.spec import ExperimentSpec

        spec = ExperimentSpec(seed=1, workload={"tiles": 3, "sigma": 0.3})
        ckpt = str(tmp_path / "agent.npz")
        save_agent(default_agent(spec.make_env(), rng=0), ckpt)
        rc = main([
            "evaluate", "--tiles", "3", "--sigma", "0.3", "--seed", "1",
            "--agent", ckpt, "--runs", "4",
        ])
        assert rc == 0
        records = evaluate_policy(
            spec.make_env(), AgentPolicy(load_agent(ckpt)), episodes=4, seed=1
        )
        mean = np.mean([r.makespan for r in records])
        assert f"readys mean {mean:.2f} over 4 episodes" in capsys.readouterr().out

    def test_train_terminal_reward_and_sparse(self, tmp_path, capsys):
        rc = main([
            "train", "--tiles", "2", "--updates", "2",
            "--reward-mode", "terminal",
        ])
        assert rc == 0
        assert "trained" in capsys.readouterr().out

    def test_retired_sparse_state_flag_is_refused(self, capsys):
        """Every observation is CSR; the old switch is an unknown option."""
        with pytest.raises(SystemExit) as info:
            main(["train", "--tiles", "2", "--updates", "1", "--sparse-state"])
        assert info.value.code == 2
        assert "--sparse-state" in capsys.readouterr().err

    def test_compare_with_agent(self, tmp_path, capsys):
        ckpt = str(tmp_path / "agent.npz")
        main(["train", "--tiles", "2", "--updates", "2", "--out", ckpt])
        rc = main([
            "compare", "--tiles", "2", "--runs", "1", "--agent", ckpt,
        ])
        assert rc == 0
        assert "improvement over" in capsys.readouterr().out

    def test_resume_from_truncated_checkpoint_is_one_line(self, tmp_path):
        ckpt = tmp_path / "ck.pkl"
        main([
            "train", "--tiles", "2", "--updates", "1",
            "--checkpoint", str(ckpt), "--checkpoint-every", "1",
        ])
        ckpt.write_bytes(ckpt.read_bytes()[:40])
        with pytest.raises(SystemExit) as info:
            main(["train", "--tiles", "2", "--updates", "2",
                  "--resume", str(ckpt)])
        message = str(info.value.code)
        assert "truncated or corrupt" in message
        assert str(ckpt) in message
        assert "\n" not in message

    def test_train_rows_equal_reference_tape(self, tmp_path, capsys):
        """A default run compiles its updates, and its printed rows and
        saved weights equal a run whose updates all take the tape."""

        def run(name):
            out = str(tmp_path / f"{name}.npz")
            rc = main([
                "train", "--tiles", "4", "--updates", "5", "--num-envs", "2",
                "--out", out,
            ])
            assert rc == 0
            lines = capsys.readouterr().out.replace(out, "agent.npz").splitlines()
            summary = [ln for ln in lines if ln.startswith("compiled-train:")]
            rows = [ln for ln in lines if not ln.startswith("compiled-train:")]
            return summary, rows, np.load(out)

        with reference_tape():
            tape_summary, tape_rows, tape_weights = run("tape")
        (summary,), rows, weights = run("compiled")

        assert "compiled-train: 0 array steps" in tape_summary[0]
        assert "compiled-train: 5 array steps, 0 tape fallbacks" in summary
        assert rows and rows == tape_rows
        assert sorted(weights.files) == sorted(tape_weights.files)
        for name in weights.files:
            np.testing.assert_array_equal(weights[name], tape_weights[name])


class TestObservability:
    def test_train_trace_metrics_report_roundtrip(self, tmp_path, capsys):
        from repro import obs
        from repro.obs.report import check_span_nesting, load_trace

        trace = str(tmp_path / "run.jsonl")
        metrics = str(tmp_path / "run.csv")
        rc = main([
            "train", "--tiles", "2", "--updates", "2", "--num-envs", "2",
            "--trace", trace, "--metrics", metrics,
        ])
        assert rc == 0
        # the CLI must leave the global switches off afterwards
        assert not obs.TRACER.enabled and not obs.METRICS.enabled
        parsed = load_trace(trace)
        check_span_nesting(parsed)
        assert {"update", "unroll", "decision", "state_build", "forward"} <= set(
            parsed.span_names()
        )
        assert parsed.meta["run"]["command"] == "train"
        assert parsed.meta["run"]["spec"]["workload"]["tiles"] == 2

        capsys.readouterr()
        rc = main(["report-run", trace, "--metrics", metrics])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Span latencies" in out
        assert "p99 ms" in out
        assert "## Learning curve" in out

    def test_report_run_to_file(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        out_md = str(tmp_path / "report.md")
        main(["compare", "--tiles", "2", "--runs", "1",
              "--baselines", "mct", "--trace", trace])
        rc = main(["report-run", trace, "--out", out_md])
        assert rc == 0
        with open(out_md) as fh:
            assert "decision" in fh.read()

    def test_report_run_missing_file_fails(self, tmp_path, capsys):
        rc = main(["report-run", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "report-run:" in capsys.readouterr().err

    def test_report_run_empty_trace_fails(self, tmp_path, capsys):
        from repro import obs

        trace = str(tmp_path / "empty.jsonl")
        obs.start_trace(trace)
        obs.stop_trace()
        rc = main(["report-run", trace])
        assert rc == 1
        assert "no spans" in capsys.readouterr().err

    def test_unknown_baseline_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--baselines", "round-robin"]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--compiled"],
            ["train", "--no-compiled"],
            ["evaluate", "--agent", "a.npz", "--compiled"],
            ["compare", "--compiled-dtype", "float32"],
            ["train", "--workers", "2"],
            ["train", "--compiled-train"],
            ["train", "--no-compiled-train"],
        ],
    )
    def test_inference_engine_flags_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_evaluate_with_metrics(self, tmp_path, capsys):
        from repro.obs.metrics import load_metrics_rows, scalar_value

        ckpt = str(tmp_path / "agent.npz")
        main(["train", "--tiles", "2", "--updates", "2", "--out", ckpt])
        metrics = str(tmp_path / "eval.csv")
        rc = main([
            "evaluate", "--tiles", "2", "--agent", ckpt, "--runs", "1",
            "--metrics", metrics,
        ])
        assert rc == 0
        rows = load_metrics_rows(metrics)
        assert scalar_value(rows, "sim/tasks_started", "counter") > 0
