"""Run one workload of the whole-tick benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fish-compiled --seed 1 --seconds 25 --trace 0

A run is a series of rounds.  Each round builds the workload's world from
``--seed``, times set-up (session construction through the first tick),
runs two untimed warm-up ticks with the layer tracer installed so the
workload guards see which paths ran, then times a fixed range of ticks one
by one from the benchmark's side, each scaled to a nominal machine speed by
a speed probe run next to it.  Rounds repeat until another would end past
``--seconds``, once the ticks its tail percentile needs are timed.  With
``--trace 0`` tracing is off.  With ``--trace 1`` untraced and traced rounds
alternate: the traced ones give the per-layer split, the difference gives
the tracing overhead.  Every round's final state must match the sequential
engine's.  On ``predator-history`` the run then issues seeded ``state_at``
queries against the recorded history.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
details: machine fingerprint, seed, sample counts, guards and digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result.pop("detail"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
