"""Tests for the repo-specific linter (repro.analysis.lint).

Every rule gets at least one positive (violation detected) and one negative
(clean code accepted) case, via inline snippets and the fixture files under
``lint_fixtures/`` (which the lint driver itself must skip).
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    Violation,
    iter_python_files,
    lint_file,
    lint_source,
)
from repro.analysis.runner import run

FIXTURES = Path(__file__).parent / "lint_fixtures"


def rule_ids(violations):
    return [v.rule for v in violations]


def lint_snippet(source, path="tests/snippet.py"):
    return lint_source(source, path)


# --------------------------------------------------------------------------- #
# RPR001 — global-state RNG
# --------------------------------------------------------------------------- #


class TestGlobalRng:
    def test_numpy_legacy_call_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rule_ids(lint_snippet(src)) == ["RPR001"]

    def test_numpy_seed_flagged(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert rule_ids(lint_snippet(src)) == ["RPR001"]

    def test_stdlib_random_flagged(self):
        src = "import random\nrandom.shuffle([1, 2])\n"
        assert rule_ids(lint_snippet(src)) == ["RPR001"]

    def test_from_import_alias_resolved(self):
        src = "from numpy import random as npr\nx = npr.normal()\n"
        assert rule_ids(lint_snippet(src)) == ["RPR001"]

    def test_default_rng_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.normal()\n"
        assert lint_snippet(src) == []

    def test_generator_and_seedsequence_allowed(self):
        src = (
            "import numpy as np\n"
            "seq = np.random.SeedSequence(7)\n"
            "g = np.random.Generator(np.random.PCG64(seq))\n"
        )
        assert lint_snippet(src) == []

    def test_unrelated_module_named_random_not_flagged(self):
        # only *imported* modules resolve; a local object named random is fine
        src = "random = object()\nrandom.seed = 1\n"
        assert lint_snippet(src) == []


# --------------------------------------------------------------------------- #
# RPR002 — Tensor buffer mutation outside nn
# --------------------------------------------------------------------------- #


class TestTensorMutation:
    @pytest.mark.parametrize(
        "stmt",
        [
            "t.data += 1.0",
            "t.data[0] = 3.0",
            "t.data = fresh",
            "t.grad *= 0.5",
            "t.grad[ix] = 0.0",
            "t.data.fill(0.0)",
            "t.data.setflags(write=True)",
        ],
    )
    def test_mutations_flagged_outside_nn(self, stmt):
        found = lint_snippet(f"{stmt}\n", path="src/repro/rl/a2c.py")
        assert rule_ids(found) == ["RPR002"]

    @pytest.mark.parametrize(
        "stmt",
        [
            "t.data += 1.0",
            "t.data = fresh",
            "t.data.fill(0.0)",
        ],
    )
    def test_nn_internal_files_are_allowlisted(self, stmt):
        assert lint_snippet(f"{stmt}\n", path="src/repro/nn/optim.py") == []

    def test_grad_rebinding_allowed_everywhere(self):
        # seeding .grad with a fresh array is the accumulation contract
        assert lint_snippet("p.grad = g\n", path="tests/nn/test_optim.py") == []

    def test_reading_data_allowed(self):
        assert lint_snippet("x = t.data + 1.0\ny = t.data[0]\n") == []


# --------------------------------------------------------------------------- #
# RPR003 — wall clock in sim/nn/rl
# --------------------------------------------------------------------------- #


class TestWallClock:
    @pytest.mark.parametrize(
        "src",
        [
            "import time\nt0 = time.time()\n",
            "import time\nt0 = time.perf_counter()\n",
            "from time import monotonic\nt0 = monotonic()\n",
            "from datetime import datetime\nnow = datetime.now()\n",
        ],
    )
    @pytest.mark.parametrize(
        "path",
        ["src/repro/sim/engine.py", "src/repro/nn/tensor.py", "src/repro/rl/a2c.py"],
    )
    def test_wall_clock_flagged_in_logic_dirs(self, src, path):
        assert rule_ids(lint_source(src, path)) == ["RPR003"]

    def test_wall_clock_allowed_in_measurement_utils(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_source(src, "src/repro/obs/clock.py") == []
        assert lint_source(src, "src/repro/eval/profiling.py") == []

    def test_simulated_time_attribute_not_flagged(self):
        assert lint_source("t = sim.time\n", "src/repro/sim/engine.py") == []


# --------------------------------------------------------------------------- #
# RPR004 — set iteration
# --------------------------------------------------------------------------- #


class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        assert rule_ids(lint_snippet("for x in set(items):\n    pass\n")) == ["RPR004"]

    def test_for_over_set_literal_flagged(self):
        assert rule_ids(lint_snippet("for x in {1, 2}:\n    pass\n")) == ["RPR004"]

    def test_comprehension_over_setcomp_flagged(self):
        src = "ys = [y for y in {t for t in items}]\n"
        assert rule_ids(lint_snippet(src)) == ["RPR004"]

    def test_local_variable_flow_tracked(self):
        src = "def f(items):\n    seen = set(items)\n    for x in seen:\n        pass\n"
        assert rule_ids(lint_snippet(src)) == ["RPR004"]

    def test_set_union_flagged(self):
        src = "for x in set(a) | set(b):\n    pass\n"
        assert rule_ids(lint_snippet(src)) == ["RPR004"]

    def test_sorted_set_allowed(self):
        assert lint_snippet("for x in sorted(set(items)):\n    pass\n") == []

    def test_membership_test_allowed(self):
        assert lint_snippet("ok = 3 in set(items)\n") == []

    def test_reassigned_local_forgotten(self):
        src = (
            "def f(items):\n"
            "    seen = set(items)\n"
            "    seen = sorted(seen)\n"
            "    for x in seen:\n"
            "        pass\n"
        )
        assert lint_snippet(src) == []


# --------------------------------------------------------------------------- #
# RPR005 — mutable defaults
# --------------------------------------------------------------------------- #


class TestMutableDefault:
    @pytest.mark.parametrize(
        "sig", ["history=[]", "table={}", "seen=set()", "items=list()", "kv=dict()"]
    )
    def test_mutable_defaults_flagged(self, sig):
        assert rule_ids(lint_snippet(f"def f({sig}):\n    pass\n")) == ["RPR005"]

    def test_keyword_only_default_flagged(self):
        src = "def f(*, history=[]):\n    pass\n"
        assert rule_ids(lint_snippet(src)) == ["RPR005"]

    def test_none_and_scalar_defaults_allowed(self):
        src = "def f(history=None, scale=1.0, name='x', flags=()):\n    pass\n"
        assert lint_snippet(src) == []


# --------------------------------------------------------------------------- #
# RPR006 — bare except
# --------------------------------------------------------------------------- #


class TestBareExcept:
    def test_bare_except_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert rule_ids(lint_snippet(src)) == ["RPR006"]

    def test_typed_except_allowed(self):
        src = "try:\n    pass\nexcept (ValueError, KeyError):\n    pass\n"
        assert lint_snippet(src) == []


# --------------------------------------------------------------------------- #
# RPR007 — float equality on durations
# --------------------------------------------------------------------------- #


class TestFloatEquality:
    @pytest.mark.parametrize(
        "expr",
        [
            "sim.makespan == 60.0",
            "10.5 == trace.duration",
            "sim.expected_remaining(0) != 0.0",
            "start_time == 1.5",
        ],
    )
    def test_duration_vs_float_literal_flagged(self, expr):
        assert rule_ids(lint_snippet(f"ok = {expr}\n")) == ["RPR007"]

    def test_computed_vs_computed_allowed(self):
        # bit-exact determinism checks compare two computed makespans
        assert lint_snippet("ok = a.makespan == b.makespan\n") == []

    def test_approx_wrapper_allowed(self):
        assert lint_snippet("assert sim.makespan == pytest.approx(60.0)\n") == []

    def test_integer_literal_allowed(self):
        # exact small-int comparisons (counts, sentinel 0) stay legal
        assert lint_snippet("ok = num_tasks == 3\n") == []

    def test_non_duration_float_compare_allowed(self):
        assert lint_snippet("ok = probability == 1.0\n") == []


# --------------------------------------------------------------------------- #
# escape hatch & drivers
# --------------------------------------------------------------------------- #


class TestDisableComments:
    def test_single_rule_disable(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=RPR001\n"
        assert lint_snippet(src) == []

    def test_disable_all(self):
        src = "import numpy as np\nnp.random.seed(0)  # repro-lint: disable=all\n"
        assert lint_snippet(src) == []

    def test_disable_with_reason_suffix(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro-lint: disable=RPR001 -- fuzz helper\n"
        )
        assert lint_snippet(src) == []

    def test_disable_wrong_rule_still_reports(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=RPR006\n"
        assert rule_ids(lint_snippet(src)) == ["RPR001"]

    def test_disable_is_line_scoped(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro-lint: disable=RPR001\n"
            "y = np.random.rand(3)\n"
        )
        found = lint_snippet(src)
        assert rule_ids(found) == ["RPR001"] and found[0].line == 3


# --------------------------------------------------------------------------- #
# RPR008 — compile-engine internals
# --------------------------------------------------------------------------- #


class TestCompileInternals:
    """RPR008 is path-scoped: nn/, tests/ and benchmarks/ are exempt, so the
    positive cases lint snippets under a production path explicitly."""

    PROD = "src/repro/rl/some_module.py"

    def test_module_import_flagged(self):
        src = "import repro.nn.compile\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    def test_module_import_alias_flagged(self):
        src = "import repro.nn.compile as c\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    def test_internal_name_flagged(self):
        src = "from repro.nn.compile import array_step\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    def test_from_nn_import_compile_module_flagged(self):
        src = "from repro.nn import compile\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    def test_public_name_direct_import_allowed(self):
        # the public names may be taken from the submodule directly
        src = "from repro.nn.compile import TrainingCompiler\n"
        assert lint_snippet(src, path=self.PROD) == []

    def test_reexport_allowed(self):
        src = "from repro.nn import Tensor, TrainingCompiler\n"
        assert lint_snippet(src, path=self.PROD) == []

    def test_mixed_import_flags_only_internals(self):
        src = "from repro.nn.compile import TrainingCompiler, array_step\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/nn/layers.py",
            "tests/nn/test_compile.py",
            "benchmarks/test_microbench.py",
        ],
    )
    def test_exempt_paths(self, path):
        src = "from repro.nn.compile import array_step\nimport repro.nn.compile\n"
        assert lint_snippet(src, path=path) == []

    def test_disable_comment_respected(self):
        src = "import repro.nn.compile  # repro-lint: disable=RPR008\n"
        assert lint_snippet(src, path=self.PROD) == []

    # -- training-compiler surface / C fusion core ---------------------- #

    def test_training_compiler_public_names_allowed(self):
        src = "from repro.nn.compile import TrainingCompiler as Step\n"
        assert lint_snippet(src, path=self.PROD) == []

    def test_training_compiler_reexport_allowed(self):
        src = "from repro.nn import TrainingCompiler\n"
        assert lint_snippet(src, path=self.PROD) == []

    def test_fusion_module_import_flagged(self):
        src = "import repro.nn.fusion\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    def test_fusion_from_import_flagged(self):
        # the fusion core has *no* public names — even load() is fenced
        src = "from repro.nn.fusion import load\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    def test_from_nn_import_fusion_module_flagged(self):
        src = "from repro.nn import fusion\n"
        assert rule_ids(lint_snippet(src, path=self.PROD)) == ["RPR008"]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/nn/compile.py",
            "tests/nn/test_fusion.py",
            "benchmarks/test_bench_train.py",
        ],
    )
    def test_fusion_exempt_paths(self, path):
        src = "from repro.nn.fusion import load\nimport repro.nn.fusion\n"
        assert lint_snippet(src, path=path) == []


class TestFixtureFiles:
    def test_violations_fixture_counts(self):
        found = lint_file(FIXTURES / "violations.py")
        counts = Counter(rule_ids(found))
        assert counts == Counter(
            {"RPR001": 3, "RPR002": 5, "RPR004": 3, "RPR005": 1, "RPR006": 1, "RPR007": 1}
        )

    def test_clean_fixture_passes(self):
        assert lint_file(FIXTURES / "clean.py") == []

    def test_disabled_fixture_passes(self):
        assert lint_file(FIXTURES / "disabled.py") == []


class TestDrivers:
    def test_fixture_dir_excluded_from_walks(self):
        files = iter_python_files([Path(__file__).parent])
        assert all("lint_fixtures" not in f.parts for f in files)
        assert any(f.name == "test_lint.py" for f in files)

    def test_lint_paths_over_shipped_source_is_clean(self):
        # every finding in shipped source must be covered by the committed
        # baseline (with a justification), and no baseline entry may be stale
        from repro.analysis import Baseline, analyze_paths

        repo_root = Path(__file__).resolve().parents[2]
        baseline = Baseline.load(repo_root / ".repro-lint-baseline.json")
        report = analyze_paths([repo_root / "src"], baseline=baseline)
        assert report.violations == []
        assert report.stale == []

    def test_run_exit_codes(self, capsys):
        assert run([str(FIXTURES / "clean.py")]) == 0
        assert run([str(FIXTURES / "violations.py")]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "violations.py" in out

    def test_run_missing_path_is_usage_error(self):
        assert run(["does/not/exist.py"]) == 2
        assert run([]) == 2

    def test_list_rules_mentions_every_rule(self, capsys):
        assert run([], list_rules=True) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_parse_error_reported_not_crashed(self):
        found = lint_snippet("def broken(:\n")
        assert rule_ids(found) == ["RPR000"]

    def test_violation_str_format(self):
        v = Violation("a/b.py", 3, 7, "RPR001", "msg")
        assert str(v) == "a/b.py:3:7: RPR001 [global-rng] msg"
