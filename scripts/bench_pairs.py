"""Compare the benchmark on two checkouts in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --workload cli-27 \
        --seed-base 1

It runs ten pairs.  Pair ``k`` runs ``perfbench/run.py --workload W --seed
(seed-base + k) --seconds S --trace 0``, with ``S`` the ``run_seconds`` of
this checkout's ``BENCHMARK.json``, once in the parent checkout and once
in this one, the parent first in even pairs and this checkout first in
odd ones, each from the root of its checkout, and reads each run's last
stdout line (one JSON object: correct, attempted, failed, metrics).

For every metric both sides report, it prints each side's median and
quartiles and the number of pairs the change wins, ties counting for
neither side, in the direction ``BENCHMARK.json`` gives (lower when it
names none).  A gain is claimed only when at least ten pairs ran, the
change wins at least nine tenths of them, the medians differ, in the
change's favour, by more than the distance between the parent's
quartiles, and the change fails no larger share of its operations than
the parent.  It also says whether the change's median is worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, a
share of the parent's median in the metric's better direction: a change
that does so regresses.  A change that does not is unresolved, not within
bound, when the distance between the parent's quartiles exceeds that share
of the parent's median, unless every change run beats every parent run:
the parent's own runs then spread too widely to tell.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as perfbench reports them."""
    median = statistics.median(values)
    if len(values) == 1:
        return median, median, median
    q1, _, q3 = statistics.quantiles(sorted(values), n=4)
    return q1, median, q3


def verdict(
    parent: list[float],
    change: list[float],
    lower_is_better: bool = True,
    parent_failed: float = 0.0,
    change_failed: float = 0.0,
    bound: float = 0.0,
) -> dict:
    """Wins, the gain rule and the bound for one metric over pairs ``(parent[k], change[k])``.

    ``parent_failed`` and ``change_failed`` are the shares of each side's
    operations that failed over all its runs.  ``worse`` is how much worse
    the change's median is than the parent's, as a share of the parent's;
    the change regresses when that exceeds ``bound``.  ``unresolved`` is
    true when the parent's quartile distance exceeds ``bound`` times its
    median, unless every change run beats every parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    parent_q = quartiles(parent)
    change_q = quartiles(change)
    spread = parent_q[2] - parent_q[0]
    gain = sign * (parent_q[1] - change_q[1])
    worse = -gain / abs(parent_q[1]) if parent_q[1] else (math.inf if gain < 0 else 0.0)
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent": parent_q,
        "change": change_q,
        "spread": spread,
        "gain": gain,
        "holds": len(parent) >= PAIRS
        and 10 * wins >= 9 * len(parent)
        and gain > spread
        and change_failed <= parent_failed,
        "bound": bound,
        "worse": worse,
        "regresses": worse > bound,
        "unresolved": spread > bound * abs(parent_q[1]) and not separated,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at ``root``; its result object."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark() -> tuple[float, dict[str, bool], dict[str, float]]:
    """The run length, and per end-to-end metric whether lower is better and its bound.

    All are read from this checkout's ``BENCHMARK.json``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m.get("better", "lower") == "lower" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    return spec["run_seconds"], lower, bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    seconds, lower, bounds = benchmark()
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(PAIRS):
        seed = args.seed_base + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            results[side].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"# pair {k} seed {seed} {side}: {json.dumps(values, sort_keys=True)}", flush=True)
    failed_share = {}
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        # A side that attempted nothing counts as failing everything.
        failed_share[side] = failed / attempted if attempted else 1.0
        print(f"{side}: {failed} of {attempted} operations failed")
    names = [
        name
        for name in results["parent"][0]["metrics"]
        if all(name in r["metrics"] for side in results.values() for r in side)
    ]
    for name in names:
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        v = verdict(
            parent,
            change,
            lower.get(name, True),
            failed_share["parent"],
            failed_share["change"],
            bounds.get(name, 0.0),
        )
        standing = "unresolved" if v["unresolved"] else "within bound"
        print(
            f"{name}: parent {v['parent'][1]:.6g} (q1 {v['parent'][0]:.6g}, q3 {v['parent'][2]:.6g}); "
            f"change {v['change'][1]:.6g} (q1 {v['change'][0]:.6g}, q3 {v['change'][2]:.6g}); "
            f"change wins {v['wins']} of {v['pairs']}; median gain {v['gain']:.6g} "
            f"against parent spread {v['spread']:.6g}; gain rule {'holds' if v['holds'] else 'fails'}; "
            f"worse by {v['worse']:.2%} against bound {v['bound']:.0%}: "
            f"{'regresses' if v['regresses'] else standing}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
