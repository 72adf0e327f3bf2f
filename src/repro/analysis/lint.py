"""Per-file analysis pass — ``python -m repro lint <paths>``.

This module owns the **single-file** half of the static-analysis framework:
the syntactic checker for RPR001–RPR008 plus the dataflow rule families
RPR110 (RNG provenance) and RPR120 (buffer write-hazards), which need only
one file's AST and its layer.  The whole-project pass (RPR100 layer
contract) and the baseline/strict drivers live in
:mod:`repro.analysis.runner`; the authoritative rule table — ids, names,
severities, rationales — is :data:`repro.analysis.registry.RULES`.

Suppression comments (see :mod:`repro.analysis.suppress`)::

    x = np.random.rand(3)  # repro-lint: disable=RPR001 -- reason
    # repro-lint: disable-next-line=RPR007 -- reason
    assert sim.makespan == 60.0

Unknown rule ids in a disable comment are reported as RPR009, never
silently ignored.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.analysis.dataflow import AliasTable
from repro.analysis.registry import RULES, Violation
from repro.analysis.rules_project import (
    buffer_hazard_violations,
    rng_provenance_violations,
)
from repro.analysis.suppress import Suppressions, parse_suppressions

#: names of repro.nn.compile that are re-exported from repro.nn (public API)
_COMPILE_PUBLIC = {"TrainingCompiler"}

#: engine-internal nn submodules fenced by RPR008 alongside repro.nn.compile;
#: the C fusion core has no public surface at all — its kernels are only
#: sound behind the loader's known-answer check and the differential suite
_ENGINE_INTERNAL_MODULES = ("repro.nn.fusion",)

#: path fragments allowed to reach into repro.nn.compile directly
_COMPILE_ALLOWED_DIRS = ("repro/nn/", "tests/", "benchmarks/")

#: directory names never linted (fixture trees hold deliberate violations)
EXCLUDED_DIR_NAMES = {"lint_fixtures", "__pycache__", ".git", ".ruff_cache"}

#: np.random attributes that are *not* the legacy global-state API
_NP_RANDOM_ALLOWED = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "default_rng",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: wall-clock callables, as fully-resolved dotted names
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: path fragments marking modules that must stay wall-clock free
_SIM_LOGIC_DIRS = ("repro/sim/", "repro/nn/", "repro/rl/")

#: ndarray methods that mutate their buffer in place
_NDARRAY_MUTATORS = {
    "fill",
    "sort",
    "partition",
    "put",
    "itemset",
    "resize",
    "setflags",
    "byteswap",
}

#: identifier fragments marking duration-valued expressions (RPR007)
_DURATION_WORDS = re.compile(
    r"(makespan|duration|elapsed|remaining|deadline|span"
    r"|(^|_)time(s)?($|_)|(^|_)start($|_)|(^|_)finish($|_))",
    re.IGNORECASE,
)


def _is_nn_internal(path: str) -> bool:
    return "repro/nn/" in Path(path).as_posix()


def _is_sim_logic(path: str) -> bool:
    posix = Path(path).as_posix()
    return any(fragment in posix for fragment in _SIM_LOGIC_DIRS)


class _Checker(ast.NodeVisitor):
    """Single-pass AST walk collecting RPR001–RPR008 findings for one module."""

    def __init__(self, path: str) -> None:
        self.path = Path(path).as_posix()
        self.violations: List[Violation] = []
        self.aliases = AliasTable()
        #: stack of per-scope {name: is-a-set} maps for RPR004 local flow
        self.set_locals: List[dict] = [{}]
        self.nn_internal = _is_nn_internal(self.path)
        self.sim_logic = _is_sim_logic(self.path)
        self.compile_allowed = any(
            fragment in self.path for fragment in _COMPILE_ALLOWED_DIRS
        )

    # -- reporting ------------------------------------------------------ #

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0) + 1,
                rule,
                message,
            )
        )

    # -- import alias tracking ------------------------------------------ #

    def visit_Import(self, node: ast.Import) -> None:
        self.aliases.record_import(node)
        for alias in node.names:
            if not self.compile_allowed and (
                alias.name == "repro.nn.compile"
                or alias.name.startswith("repro.nn.compile.")
                or any(
                    alias.name == mod or alias.name.startswith(mod + ".")
                    for mod in _ENGINE_INTERNAL_MODULES
                )
            ):
                self.report(
                    node,
                    "RPR008",
                    f"import of '{alias.name}' outside nn/, tests or "
                    "benchmarks; use the repro.nn re-export "
                    "(TrainingCompiler)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self.aliases.record_import_from(node)
            self._check_compile_import_from(node)
        self.generic_visit(node)

    def _check_compile_import_from(self, node: ast.ImportFrom) -> None:
        if self.compile_allowed:
            return
        module = node.module or ""
        if module == "repro.nn.compile" or module.startswith("repro.nn.compile."):
            for alias in node.names:
                if module == "repro.nn.compile" and alias.name in _COMPILE_PUBLIC:
                    continue  # public name — but prefer the repro.nn re-export
                self.report(
                    node,
                    "RPR008",
                    f"import of engine internal "
                    f"'{module}.{alias.name}' outside nn/, tests or "
                    f"benchmarks; the training step's internals are "
                    f"private — use the repro.nn public API",
                )
        elif any(
            module == mod or module.startswith(mod + ".")
            for mod in _ENGINE_INTERNAL_MODULES
        ):
            for alias in node.names:
                self.report(
                    node,
                    "RPR008",
                    f"import of engine internal '{module}.{alias.name}' "
                    f"outside nn/, tests or benchmarks; the C fusion core "
                    f"is only sound behind its load-time known-answer "
                    f"check — use the repro.nn public API",
                )
        elif module == "repro.nn":
            for alias in node.names:
                if alias.name in ("compile", "fusion"):
                    self.report(
                        node,
                        "RPR008",
                        f"importing the repro.nn.{alias.name} module outside "
                        "nn/, tests or benchmarks; import the public names "
                        "from repro.nn instead",
                    )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        return self.aliases.resolve(node)

    # -- RPR001 / RPR003: calls ----------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_global_rng(node, resolved)
            self._check_wall_clock(node, resolved)
        self._check_data_mutator_call(node)
        self.generic_visit(node)

    def _check_global_rng(self, node: ast.Call, resolved: str) -> None:
        if resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail.split(".")[0] not in _NP_RANDOM_ALLOWED:
                self.report(
                    node,
                    "RPR001",
                    f"call to global-state RNG 'np.random.{tail}'; build a "
                    f"Generator with repro.utils.seeding.as_generator instead",
                )
        elif resolved == "random" or resolved.startswith("random."):
            self.report(
                node,
                "RPR001",
                f"call into the stdlib 'random' module ('{resolved}'); all "
                f"randomness must flow through np.random.Generator objects",
            )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK_CALLS and self.sim_logic:
            self.report(
                node,
                "RPR003",
                f"wall-clock call '{resolved}' inside simulator/nn/rl logic; "
                f"only simulated time may be observed here",
            )

    # -- RPR002: Tensor buffer mutation --------------------------------- #

    @staticmethod
    def _tensor_buffer(node: ast.AST) -> Optional[str]:
        """Return 'data'/'grad' if ``node`` is an ``<expr>.data``/``.grad``."""
        if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
            return node.attr
        return None

    def _report_mutation(self, node: ast.AST, attr: str, how: str) -> None:
        if self.nn_internal:
            return
        self.report(
            node,
            "RPR002",
            f"{how} of '.{attr}' outside src/repro/nn/; backward closures "
            f"capture tensor buffers by reference — route the change through "
            f"the nn API or clone first",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self._tensor_buffer(target)
            # rebinding `.grad` is the engine's own accumulation contract
            # (tests seed gradients this way); rebinding `.data` invalidates
            # every closure that captured the old buffer.
            if attr == "data":
                self._report_mutation(target, attr, "rebinding")
            if isinstance(target, ast.Subscript):
                attr = self._tensor_buffer(target.value)
                if attr is not None:
                    self._report_mutation(target, attr, "indexed write")
        self._track_set_assign(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target: ast.AST = node.target
        attr = self._tensor_buffer(target)
        if attr is None and isinstance(target, ast.Subscript):
            attr = self._tensor_buffer(target.value)
        if attr is not None:
            self._report_mutation(node, attr, "augmented in-place write")
        self.generic_visit(node)

    def _check_data_mutator_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _NDARRAY_MUTATORS:
            return
        attr = self._tensor_buffer(func.value)
        if attr is not None:
            self._report_mutation(node, attr, f"mutating call '.{func.attr}()'")

    # -- RPR004: set iteration ------------------------------------------ #

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset") and not self.aliases.resolve_name(
                node.func.id
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            for scope in reversed(self.set_locals):
                if node.id in scope:
                    return scope[node.id]
        return False

    def _track_set_assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self.set_locals[-1][node.targets[0].id] = self._is_set_expr(node.value)

    def _check_iteration_source(self, node: ast.AST, where: str) -> None:
        source = node
        if (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Name)
            and source.func.id == "enumerate"
            and source.args
        ):
            source = source.args[0]
        if self._is_set_expr(source):
            self.report(
                node,
                "RPR004",
                f"iteration over a bare set in {where}; set order is "
                f"non-deterministic — wrap in sorted(...) before any "
                f"decision depends on it",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration_source(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iteration_source(gen.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- RPR005: mutable defaults / scope handling ----------------------- #

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            )
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "defaultdict", "deque")
            ):
                mutable = True
            if mutable:
                self.report(
                    default,
                    "RPR005",
                    "mutable default argument is shared across calls; "
                    "default to None and allocate inside the function",
                )

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self.set_locals.append({})
        self.generic_visit(node)
        self.set_locals.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPR006: bare except -------------------------------------------- #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "RPR006",
                "bare 'except:' swallows KeyboardInterrupt and hides "
                "invariant violations; catch a specific exception",
            )
        self.generic_visit(node)

    # -- RPR007: float equality on durations ----------------------------- #

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
        )

    @staticmethod
    def _duration_flavoured(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.Name):
                name = sub.id
            if name is not None and _DURATION_WORDS.search(name):
                return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands[:-1], operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for literal, other in ((left, right), (right, left)):
                if self._is_float_literal(literal) and self._duration_flavoured(other):
                    self.report(
                        node,
                        "RPR007",
                        "float == on a duration/makespan value against a float "
                        "literal; event times are float sums — use "
                        "pytest.approx or math.isclose",
                    )
                    break
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# single-file engine
# --------------------------------------------------------------------------- #


@dataclass
class FileAnalysis:
    """Result of the per-file passes over one source file.

    ``tree`` is ``None`` when the file failed to parse (the RPR000 finding
    is then the only violation); the project passes consume ``tree`` and
    ``suppressions`` so nothing is parsed twice.
    """

    path: str
    source: str
    tree: Optional[ast.AST]
    suppressions: Suppressions
    violations: List[Violation] = field(default_factory=list)


def analyze_source(source: str, path: str = "<string>") -> FileAnalysis:
    """Run every per-file pass over ``source``."""
    posix = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        violation = Violation(
            posix,
            exc.lineno or 0,
            (exc.offset or 0) or 1,
            "RPR000",
            f"file does not parse: {exc.msg}",
        )
        return FileAnalysis(posix, source, None, Suppressions(), [violation])

    suppressions = parse_suppressions(source)
    checker = _Checker(path)
    checker.visit(tree)
    violations = list(checker.violations)
    violations += rng_provenance_violations(tree, posix)
    violations += buffer_hazard_violations(tree, posix)
    for lineno, col, bad_id in suppressions.unknown:
        violations.append(
            Violation(
                posix,
                lineno,
                col,
                "RPR009",
                f"unknown rule id '{bad_id}' in repro-lint disable comment — "
                f"nothing is suppressed; see --list-rules for valid ids",
            )
        )
    violations = [
        v for v in violations if not suppressions.is_suppressed(v.line, v.rule)
    ]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return FileAnalysis(posix, source, tree, suppressions, violations)


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Per-file findings for ``source``; ``path`` scopes the layered rules."""
    return analyze_source(source, path).violations


def lint_file(path: Union[str, Path]) -> List[Violation]:
    """Lint one file on disk (per-file passes only)."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def iter_python_files(
    paths: Iterable[Union[str, Path]],
    exclude: Iterable[str] = EXCLUDED_DIR_NAMES,
) -> List[Path]:
    """Expand files/directories into the sorted list of lintable .py files."""
    excluded = set(exclude)
    out: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not excluded.intersection(f.parts):
                    out.append(f)
        elif p.suffix == ".py":
            out.append(p)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {p}")
    return out


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Violation]:
    """All findings under ``paths`` — per-file *and* project passes.

    Convenience API over :func:`repro.analysis.runner.analyze_paths` with
    no baseline applied; use the runner directly for baseline/strict
    workflows.
    """
    from repro.analysis import runner

    return runner.analyze_paths(paths).violations


__all__ = [
    "EXCLUDED_DIR_NAMES",
    "FileAnalysis",
    "RULES",
    "Violation",
    "analyze_source",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
