"""Scheduler registry: one canonical name → runner mapping.

The CLI, the evaluation harness and the benchmarks all resolve baseline
schedulers by name; this registry is the single source of truth they share
(the old per-module ``name → callable`` dicts duplicated it).  Entries pair
the runner (``runner(sim, rng=None) -> makespan``) with the scheduler class
when one exists — classes carry their canonical name as a ``name`` class
attribute, and registration cross-checks the two so they cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: runner signature: drive a fresh Simulation to completion, return makespan
Runner = Callable[..., float]

#: policy-factory signature: ``make_policy(spec=None, rng=None) -> Policy``.
#: ``spec`` is an :class:`~repro.spec.ExperimentSpec` (duck-typed here — the
#: registry sits below the spec layer) for factories that must rebuild the
#: instance (e.g. HEFT planning its static schedule); stateless
#: observation-only schedulers ignore it.
PolicyFactory = Callable[..., Any]


@dataclass(frozen=True)
class SchedulerEntry:
    """One registered scheduler."""

    name: str
    runner: Runner
    cls: Optional[type] = None
    description: str = ""
    make_policy: Optional[PolicyFactory] = None
    """factory building a Policy-protocol adapter, or ``None`` when the
    scheduler has no observation-servable form (e.g. queue-driven batch
    heuristics, which answer "where does this new task go", not "which ready
    task for this processor")"""


_REGISTRY: Dict[str, SchedulerEntry] = {}


def register(
    name: str,
    runner: Optional[Runner] = None,
    cls: Optional[type] = None,
    description: str = "",
    make_policy: Optional[PolicyFactory] = None,
):
    """Register a runner (and optionally its scheduler class) under ``name``.

    Two forms:

    * direct — ``register("heft", run_heft, description=...)``;
    * decorator (omit ``runner``) — the idiom for built-ins, placed on the
      runner in its defining module so registration lives next to the code::

          @register("mct", cls=MCTScheduler, description="minimum completion time")
          def run_mct(sim, rng=None) -> float: ...

    ``make_policy`` (optional) is a ``(spec=None, rng=None) -> Policy``
    factory making the scheduler servable through the unified Policy API;
    when omitted but ``cls`` declares ``servable = True``, a default factory
    (``cls().as_policy()``) is derived.

    Raises ``ValueError`` on duplicate names and when ``cls.name`` disagrees
    with the registry name — the class attribute is the canonical spelling.
    """
    if runner is None:
        def decorator(fn: Runner) -> Runner:
            register(
                name, fn, cls=cls, description=description,
                make_policy=make_policy,
            )
            return fn

        return decorator
    if name in _REGISTRY:
        raise ValueError(f"scheduler {name!r} is already registered")
    if cls is not None:
        cls_name = getattr(cls, "name", None)
        if cls_name != name:
            raise ValueError(
                f"scheduler class {cls.__name__} declares name={cls_name!r} "
                f"but is being registered as {name!r}"
            )
    if make_policy is None and cls is not None and getattr(cls, "servable", False):
        def make_policy(spec: Any = None, rng: Any = None, _cls: type = cls):
            return _cls().as_policy()
    _REGISTRY[name] = SchedulerEntry(name, runner, cls, description, make_policy)


def get(name: str) -> Runner:
    """The runner registered under ``name``; unknown names raise with the list."""
    return get_entry(name).runner


def get_entry(name: str) -> SchedulerEntry:
    """The full registry entry for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {available()}"
        ) from None


def get_policy(name: str, spec: Any = None, rng: Any = None) -> Any:
    """A fresh Policy-protocol adapter for the scheduler ``name``.

    The construction path of served baselines: the decision server calls this
    once per session, so stateful adapters (e.g. static-replay cursors) are
    per-session by construction.  Raises ``ValueError`` for schedulers with
    no servable form, listing those that have one.
    """
    entry = get_entry(name)
    if entry.make_policy is None:
        raise ValueError(
            f"scheduler {name!r} has no Policy adapter (it cannot decide "
            f"from observations alone); servable schedulers: {servable()}"
        )
    return entry.make_policy(spec=spec, rng=rng)


def available() -> List[str]:
    """Sorted names of every registered scheduler."""
    return sorted(_REGISTRY)


def servable() -> List[str]:
    """Sorted names of schedulers that expose a Policy factory."""
    return sorted(
        name for name, entry in _REGISTRY.items() if entry.make_policy is not None
    )


def entries() -> List[SchedulerEntry]:
    """Every registry entry, sorted by name."""
    return [_REGISTRY[name] for name in available()]
