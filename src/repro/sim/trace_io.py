"""Execution-trace serialization (JSON / CSV).

Completed simulations carry the full execution trace; persisting it lets
schedules be compared offline, re-plotted, or diffed across scheduler
versions without re-running the simulation.  JSON keeps instance metadata
(graph name, platform, makespan) alongside the entries; CSV is a flat export
for spreadsheet/pandas analysis.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict

from repro.sim.engine import ScheduledTask, Simulation

_FORMAT_VERSION = 1


def trace_to_dict(sim: Simulation) -> Dict:
    """Serializable representation of a completed simulation's schedule."""
    if not sim.done:
        raise RuntimeError("trace export requires a completed simulation")
    return {
        "version": _FORMAT_VERSION,
        "graph": sim.graph.name,
        "num_tasks": sim.graph.num_tasks,
        "platform": sim.platform.name,
        "makespan": sim.makespan,
        "entries": [
            {
                "task": e.task,
                "proc": e.proc,
                "start": e.start,
                "finish": e.finish,
                "kernel": sim.graph.type_names[sim.graph.task_types[e.task]],
                "resource": sim.platform.processors[e.proc].type_name,
            }
            for e in sorted(sim.trace, key=lambda e: (e.start, e.proc))
        ],
    }


def save_trace_json(sim: Simulation, path: str) -> None:
    """Write the schedule of a completed simulation to a JSON file."""
    payload = trace_to_dict(sim)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def load_trace_json(path: str) -> Dict:
    """Load a schedule written by :func:`save_trace_json`.

    Returns the payload dict with ``entries`` additionally materialised as
    :class:`ScheduledTask` objects under ``"tasks"``.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace version {payload.get('version')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    payload["tasks"] = [
        ScheduledTask(e["task"], e["proc"], e["start"], e["finish"])
        for e in payload["entries"]
    ]
    return payload


def save_trace_csv(sim: Simulation, path: str) -> None:
    """Flat CSV export: one row per executed task."""
    payload = trace_to_dict(sim)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["task", "kernel", "proc", "resource", "start", "finish"],
        )
        writer.writeheader()
        for entry in payload["entries"]:
            writer.writerow({k: entry[k] for k in writer.fieldnames})
