"""Rule registry for the static-analysis framework.

Every diagnostic the analyzers can emit is declared here, once, as a
:class:`Rule`: id, short name, per-rule severity and the rationale shown in
the generated documentation (:mod:`repro.analysis.docgen` renders the rule
table in DESIGN §12 from this registry, so docs cannot drift from code).

Severities
----------
``error``
    Violates an invariant the reproduction's bit-exactness claims rest on;
    fails the lint exit code on every run.
``warning``
    Heuristic or advisory; reported, but only gates the exit code under
    ``--strict`` (the baseline-drift CI mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """One registered diagnostic."""

    id: str
    name: str
    summary: str
    severity: str = "error"
    #: longer doc paragraph rendered into the generated rule reference
    rationale: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r} for {self.id}")


def _rule(id: str, name: str, summary: str, severity: str = "error",
          rationale: str = "") -> Tuple[str, Rule]:
    return id, Rule(id, name, summary, severity, rationale)


#: rule id -> Rule.  Ordered; iteration order is the documentation order.
RULES: Dict[str, Rule] = dict(
    [
        _rule(
            "RPR000",
            "parse-error",
            "file does not parse as Python",
            rationale="Unparseable files are reported (never crash the run) "
            "and skip every other pass.",
        ),
        _rule(
            "RPR001",
            "global-rng",
            "use np.random.Generator via repro.utils.seeding, not global-state RNG",
            rationale="Calls into `np.random.*` convenience functions or the "
            "stdlib `random` module draw from hidden global state: results "
            "stop being reproducible from a seed and streams "
            "cross-contaminate between components.",
        ),
        _rule(
            "RPR002",
            "tensor-mutation",
            "Tensor.data/.grad may only be mutated inside src/repro/nn/",
            rationale="Backward closures capture tensor buffers by reference; "
            "mutating them from user code silently corrupts gradients. The "
            "runtime version counters catch this at backward time; the lint "
            "catches it at review time.",
        ),
        _rule(
            "RPR003",
            "wall-clock",
            "no wall-clock reads inside sim/, nn/ or rl/ logic",
            rationale="Simulated time is the only clock those layers may "
            "observe; wall-clock reads break replayability. Measurement "
            "code (`obs/clock`, `eval/profiling`) lives outside.",
        ),
        _rule(
            "RPR004",
            "set-iteration",
            "no iteration over bare sets (non-deterministic order)",
            rationale="Set iteration order depends on hash seeding/history; "
            "any scheduling decision fed from it is non-deterministic. Wrap "
            "in `sorted(...)` or use arrays.",
        ),
        _rule(
            "RPR005",
            "mutable-default",
            "no mutable default arguments",
            rationale="The default is shared across calls — episode state "
            "leaks between runs.",
        ),
        _rule(
            "RPR006",
            "bare-except",
            "no bare except clauses",
            rationale="Swallows KeyboardInterrupt/SystemExit and hides "
            "simulator invariant violations.",
        ),
        _rule(
            "RPR007",
            "float-equality",
            "no float == on duration/makespan values against float literals",
            rationale="Accumulated event times are sums of floats; compare "
            "with `pytest.approx` or `math.isclose`. Comparing two "
            "*computed* makespans exactly — a determinism check — is "
            "allowed.",
        ),
        _rule(
            "RPR008",
            "compile-internals",
            "repro.nn.compile / repro.nn.fusion internals may only be "
            "imported from nn/, tests or benchmarks — use the repro.nn "
            "re-exports",
            rationale="The array training step and its kernels are private: "
            "the C fusion core is only sound behind `fusion.load()`'s "
            "load-time known-answer check and the array step behind the "
            "differential test against the tape "
            "(`tests/rl/test_array_step.py`); consumers use the public "
            "`repro.nn` re-export (`TrainingCompiler`) so the step can evolve "
            "freely. "
            "Generalized by RPR100's whole-project layer contract.",
        ),
        _rule(
            "RPR009",
            "unknown-disable",
            "unknown rule id in a repro-lint disable comment",
            severity="warning",
            rationale="A typo'd id in `# repro-lint: disable=...` used to be "
            "silently ignored, leaving the author believing a finding was "
            "suppressed. Unknown ids are now reported at the comment.",
        ),
        _rule(
            "RPR100",
            "layer-contract",
            "imports must follow the allowed layer-dependency DAG, and "
            "asyncio/socket/selectors may only be imported from serve/",
            rationale="The project model resolves every import (including "
            "`from repro import obs`-style attribute imports and lazy "
            "function-level imports) to a target module and checks the edge "
            "against the allowed DAG over "
            "utils/obs/platforms/graphs/nn/sim/schedulers/spec/rl/eval/"
            "policy/serve/analysis/cli. Upward or sideways imports couple "
            "layers the bit-exactness claims need isolated. The stdlib "
            "fence keeps every layer below `repro.serve` transport-neutral "
            "— the Policy API must behave identically in-process and over "
            "a socket — and binds even the otherwise-unconstrained cli. "
            "The one tolerated upward edge is sim → schedulers.heft for "
            "reward normalisers (the static env's HEFT baseline and the "
            "streaming env's per-job ideal JCTs); both imports are pinned "
            "in the baseline file rather than allowed in the DAG, so any "
            "new sim-layer scheduler import still fails strict lint.",
        ),
        _rule(
            "RPR110",
            "rng-provenance",
            "Generators used by sim/nn/rl must descend from repro.utils.seeding",
            rationale="A bare `np.random.default_rng()` (ambient entropy) or "
            "ad-hoc `Generator(...)` construction bypasses the single "
            "SeedSequence root every stream must descend from — rollouts "
            "stop being reproducible from a seed. Dataflow "
            "tracking also flags unblessed generators flowing into "
            "sim/rl/nn calls from other layers.",
        ),
        _rule(
            "RPR120",
            "buffer-hazard",
            "no aliased out= targets and no writes to setflags-frozen arrays",
            rationale="In nn/sim kernel code, an `out=` buffer that aliases "
            "another operand of a non-elementwise op reads partially "
            "overwritten input (elementwise ufuncs are exempt — in-place "
            "chains are well-defined); and an array frozen via "
            "`setflags(write=False)` is shared across every later "
            "observation, so any subsequent in-place write (or use as an "
            "out= target) is a hazard the dataflow pass tracks "
            "statement-by-statement.",
        ),
    ]
)


@dataclass(frozen=True)
class Violation:
    """One finding.

    ``severity``/``rule_name`` are derived from the registry so the
    positional constructor stays compatible with the original
    ``Violation(path, line, col, rule, message)`` shape.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def rule_name(self) -> str:
        return RULES[self.rule].name

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.rule_name}] {self.message}"
        )


__all__ = ["RULES", "Rule", "SEVERITIES", "Violation"]
