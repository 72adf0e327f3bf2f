"""``python -m benchmarks.ledger compare A.json B.json``: parent vs change.

``A`` and ``B`` are ledgers written by ``python -m benchmarks.ledger --runs
N``.  For every workload and end-to-end metric this prints both medians,
both quartiles and a verdict against the metric's bound:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound, unless every run of B reads better than every run of A
  (then ``better``);
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B wins at least nine tenths of the run pairs and the medians
  differ by more than A's quartile distance;
* ``same`` -- otherwise: no regression beyond the bound, no resolved gain.

The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

from benchmarks.ledger import definition as d


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: Sequence[float], b: Sequence[float], metric: d.Metric) -> str:
    sign = 1.0 if metric.better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    if spread(a) > metric.bound or spread(b) > metric.bound:
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "better"
        return "unresolved"
    if sign * (b_med - a_med) < -metric.bound * abs(a_med):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "better"
    return "same"


def _values(ledger: Dict, workload: str, metric: str) -> List[float]:
    runs = ledger["workloads"].get(workload, {}).get("runs", [])
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        ledger_a = json.load(fh)
    with open(path_b) as fh:
        ledger_b = json.load(fh)
    header = (f"{'workload':12s} {'metric':16s} {'A median':>11s} {'A Q1..Q3':>23s} "
              f"{'B median':>11s} {'B Q1..Q3':>23s} {'bound':>6s}  verdict")
    print(header)
    worse = 0
    for workload in d.WORKLOAD_NAMES:
        for metric in d.END_TO_END:
            a = _values(ledger_a, workload, metric.name)
            b = _values(ledger_b, workload, metric.name)
            if not a or not b:
                print(f"{workload:12s} {metric.name:16s} missing in {'A' if not a else 'B'}")
                continue
            verdict_ = verdict(a, b, metric)
            worse += verdict_ == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:12s} {metric.name:16s} {qa[1]:11.4f} "
                  f"{qa[0]:11.4f}..{qa[2]:<10.4f} {qb[1]:11.4f} "
                  f"{qb[0]:11.4f}..{qb[2]:<10.4f} {metric.bound:6.2f}  {verdict_}")
    return 1 if worse else 0
