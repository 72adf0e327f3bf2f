"""Command line of the perf ledger.

    python -m benchmarks.ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python -m benchmarks.ledger [--runs N] [--seed N] [--seconds S] [--out FILE]
    python -m benchmarks.ledger compare A.json B.json

The first form is one run of one workload; its last line of output is the
result object (``correct``, ``attempted``, ``failed``, ``metrics``).  The
second runs every workload ``--runs`` times plus one traced run each, and
writes a ledger file that the third compares.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from benchmarks.ledger import definition as d


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.ledger.compare import compare

        parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare")
        parser.add_argument("parent", help="ledger of the parent commit")
        parser.add_argument("change", help="ledger of the change")
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--workload", choices=d.WORKLOAD_NAMES,
                        help="run this workload once (default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=d.RUN_SECONDS,
                        help="measured seconds per run; sets the work per repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="whole ledger: untraced runs per workload")
    parser.add_argument("--out", default=None,
                        help="whole ledger: results file (default .ledger/ledger.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be > 0 and --runs >= 1")

    from benchmarks.ledger import harness

    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {harness.ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return harness.run_all(args.runs, args.seed, args.seconds, args.out)
    run = harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
