"""Layer spans recorded from outside the program.

The ledger times each layer by wrapping a public name where its caller
binds it (a class attribute such as ``VecSchedulingEnv.step``, or a module
attribute such as ``repro.sim.streaming.heft_makespan``).  The program's own
``repro.obs`` tracer stays off: turning it on would switch the vec env to its
per-member stepping path and change what is measured.

Spans are kept in memory while the workload runs and written at the end in
the ``repro.obs`` trace format, so ``python -m repro report-run`` renders
them.  A layer's self time is its span minus the spans of its direct
children; a call that re-enters the layer it is already inside (a batched
helper delegating to its single-observation twin, a subclass calling
``super()``) is not a new span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(args, result) -> (items, size)``: what one call of a layer did,
#: e.g. observations built and window nodes across them
Counter = Callable[[tuple, Any], Tuple[float, float]]


def _one(args: tuple, result: Any) -> Tuple[float, float]:
    return 1.0, 0.0


def batch_size(args: tuple, result: Any) -> Tuple[float, float]:
    """Counter of a method taking a batch of observations."""
    return float(len(args[1])), 0.0


def ratio(a: float, b: float, scale: float = 1.0) -> float:
    """``a / b * scale``, or 0 when ``b`` is 0 (a layer never entered)."""
    return a / b * scale if b else 0.0


class SpanRecorder:
    """In-memory span stack; wraps callables so each call becomes a span."""

    def __init__(self) -> None:
        self.enabled = False
        # (id, parent, layer, start, end, items, size)
        self.spans: List[Tuple[int, Optional[int], str, float, float, float, float]] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 1

    def wrap(self, owner: Any, attr: str, layer: str, count: Counter = _one) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        span-recording wrapper for the rest of the process."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            if not recorder.enabled or (stack and stack[-1][1] == layer):
                return original(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items, size = count(args, result)
            recorder.spans.append((span_id, parent, layer, start, end, items, size))
            return result

        setattr(owner, attr, wrapper)

    def layer_totals(
        self, window: Optional[Tuple[float, float]] = None
    ) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per layer ``calls``, ``total`` and ``self`` seconds, ``items`` and
        ``size`` (all 0 for a layer never entered), and the summed time of
        the top-level spans, clipped to ``window`` when given: the share of
        the wall-clock the layers account for."""
        child_time: Dict[int, float] = {}
        for span_id, parent, _layer, start, end, _i, _s in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "total": 0.0, "self": 0.0, "items": 0.0, "size": 0.0}
        )
        top = 0.0
        for span_id, parent, layer, start, end, items, size in self.spans:
            row = out[layer]
            duration = end - start
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child_time.get(span_id, 0.0)
            row["items"] += items
            row["size"] += size
            if parent is None:
                lo, hi = (start, end) if window is None else (
                    max(start, window[0]), min(end, window[1])
                )
                top += max(0.0, hi - lo)
        return out, top

    def write_jsonl(self, path: str, run: Dict[str, Any]) -> None:
        """Write the spans as a ``repro.obs`` trace (meta header first)."""
        from repro.obs import TRACE_FORMAT_VERSION

        t0 = self.spans[0][3] if self.spans else time.perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "type": "meta", "version": TRACE_FORMAT_VERSION,
                "clock": "perf_counter", "t0": t0, "run": run,
            }
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, layer, start, end, items, size in self.spans:
                record = {
                    "type": "span", "name": layer, "id": span_id, "parent": parent,
                    "ts": start, "dur": end - start,
                    "attrs": {"items": items, "size": size},
                }
                fh.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------- #
# the layers of the in-process workloads
# --------------------------------------------------------------------- #


def _observations(args: tuple, result: Any) -> Tuple[float, float]:
    return float(len(result)), float(sum(o.num_nodes for o in result))


def _observation(args: tuple, result: Any) -> Tuple[float, float]:
    return 1.0, float(result.num_nodes)


def install_program_layers(recorder: SpanRecorder) -> None:
    """Wrap the simulator, state, agent, update and scheduler layers."""
    import repro.sim.env as env_mod
    import repro.sim.streaming as streaming_mod
    import repro.sim.vec_env as vec_mod
    from repro.rl.a2c import A2CUpdater
    from repro.rl.agent import ReadysAgent
    from repro.sim.state import StateBuilder

    recorder.wrap(vec_mod.VecSchedulingEnv, "step", "sim.step")
    recorder.wrap(vec_mod, "build_observations", "sim.state", _observations)
    recorder.wrap(StateBuilder, "build", "sim.state", _observation)
    recorder.wrap(streaming_mod.JobStateBuilder, "build", "sim.state", _observation)
    for name in ("sample_actions", "greedy_actions", "state_values"):
        recorder.wrap(ReadysAgent, name, "rl.forward", batch_size)
    recorder.wrap(A2CUpdater, "update_batch", "rl.update")
    recorder.wrap(env_mod, "heft_makespan", "schedulers.heft_makespan")
    recorder.wrap(streaming_mod, "heft_makespan", "schedulers.heft_makespan")
