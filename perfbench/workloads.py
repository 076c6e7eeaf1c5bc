"""Workload definitions shared by the harness (run.py) and its child probe.

Nothing here imports ``emergent``: the harness process stays out of the
engine, so every measured byte and second belongs to a child process.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import statistics
import time
from contextlib import contextmanager

S27 = "fixtures/s3x3x3.json"

# cli-27: the largest bundled theory through every subcommand except the
# full check, which takes about 5 min and so cannot be repeated run after
# run.  check-small: the lattice suite dominates, plus start-up and input
# validation on the invalid fixtures.
CLI_OPS = {
    "cli-27": (
        ("lattice", "--input", S27),
        ("lattice", "--format", "dot", "--input", S27),
        ("systems", "--input", S27),
        ("scan-mixed", "--input", S27),
        ("check", "--suite", "states", "--input", S27),
        ("check", "--suite", "systems", "--input", S27),
        ("check", "--suite", "processes", "--input", S27),
    ),
    "check-small": (
        ("check", "--suite", "all", "--input", "fixtures/s3.json"),
        ("check", "--suite", "all", "--input", "fixtures/s4.json"),
        ("check", "--suite", "all", "--input", "fixtures/s3_diagonal.json"),
        ("check", "--suite", "all", "--input", "fixtures/s3x3.json"),
        ("check", "--input", "fixtures/bad_permutation.json"),
        ("check", "--input", "fixtures/bad_syntax.json"),
        ("check", "--input", "fixtures/not_centreless.json"),
        ("check", "--input", "fixtures/not_transitive.json"),
        ("check", "--input", "fixtures/s3_capped.json"),
        ("quantum", "--decomposition", "2x2+1x3"),
        ("quantum", "--decomposition", "1x6"),
        ("quantum", "--decomposition", "3x1+2x1"),
    ),
}

# Valid theories each workload loads; their load is part of setup_s.
SETUP_THEORIES = {
    "cli-27": ("s3x3x3",),
    "check-small": ("s3", "s4", "s3_diagonal", "s3x3"),
    "pmcat-audit": ("s4", "s3_diagonal", "s3x3"),
}
WORKLOADS = tuple(SETUP_THEORIES)

# Each planted corruption and the violation kind that must flag it.
CORRUPTIONS = {
    "delete-compose": "category-composition",
    "reassign-compose": "category-composition",
    "delete-tensor_mor": "fullness",
    "delete-tensor_obj": "symmetry",
}
PER_KIND = 3


def fixture(name: str) -> str:
    return f"fixtures/{name}.json"


def op_id(argv) -> str:
    return " ".join(argv)


def dump(payload) -> str:
    """The CLI's JSON rendering."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_NOTICE_SIZES = re.compile(r"processes: (\d+) objects, (\d+) morphism classes")


def shapes(argv, stdout: str) -> dict:
    """Result sizes read back from one CLI operation's stdout."""
    if not stdout:
        return {}
    command = argv[0]
    if command == "lattice" and "dot" in argv:
        return {"nodes": stdout.count("[label=")}
    data = json.loads(stdout)
    if command == "lattice":
        return {
            "nodes": data["node_count"],
            "order": max(node["order"] for node in data["nodes"]),
        }
    if command == "systems":
        return {"systems": len(data["systems"]), "compatible": len(data["compatible"])}
    if command == "scan-mixed":
        return {"nodes": len(data["nodes"]), "nodes_with_both": len(data["nodes_with_both"])}
    if command == "check":
        out = {
            "violations": sum(len(s["violations"]) for s in data["suites"]),
            "notices": sum(len(s["notices"]) for s in data["suites"]),
        }
        for suite in data["suites"]:
            for notice in suite["notices"]:
                match = _NOTICE_SIZES.fullmatch(notice)
                if match:
                    out["objects"], out["classes"] = map(int, match.groups())
        return out
    if command == "quantum":
        return {"system_count": data["system_count"]}
    raise ValueError(f"no shape reader for {command!r}")


def plant(instances: dict, seed: int) -> list[tuple[str, str, tuple, int | None]]:
    """Choose PER_KIND corruptions of each kind for each instance.

    Returns (theory, kind, key, new value) tuples; the value is the new
    composite for a reassignment and None for a deletion.  A reassignment
    is drawn only from hom-sets with a second member, so every planted
    change alters its table.
    """
    rng = random.Random(seed)
    planted = []
    for name, inst in instances.items():
        homs = inst.hom_sets

        def hom_of(key):
            g, f = key
            return homs[(inst.dom[f], inst.cod[g])]

        candidates = {
            "delete-compose": sorted(inst.compose),
            "reassign-compose": [k for k in sorted(inst.compose) if len(hom_of(k)) > 1],
            "delete-tensor_mor": sorted(inst.tensor_mor),
            "delete-tensor_obj": [k for k in sorted(inst.tensor_obj) if k[0] != k[1]],
        }
        for kind in CORRUPTIONS:
            for key in rng.sample(candidates[kind], PER_KIND):
                value = None
                if kind == "reassign-compose":
                    old = inst.compose[key]
                    value = rng.choice([m for m in hom_of(key) if m != old])
                planted.append((name, kind, key, value))
    return planted


def corrupt(inst, kind: str, key: tuple, value: int | None):
    """A copy of the instance with one planted change."""
    field = kind.split("-", 1)[1]
    table = dict(getattr(inst, field))
    if value is None:
        del table[key]
    else:
        table[key] = value
    return dataclasses.replace(inst, **{field: table})


class Trace:
    """Flat spans (name, start, end) kept in memory, timed by perf_counter."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))


# The reference loop: permutation products on tuples, tuple-keyed dict
# lookups and set inserts, the engine's staple operations, written here so
# that no change to the engine changes it.  REFERENCE_S is about the median
# of reference_time() on the machine the benchmark was tuned on (2 vCPUs of
# a shared KVM host, Python 3.11, where it ranged from 0.55 to 1.2 ms), so
# scaled times read as seconds there.
_PERMS = tuple(tuple((i * k + 1) % 31 for i in range(31)) for k in range(1, 31))
_TABLE = {(a, b): (a * b) % 61 for a in range(61) for b in range(61)}
REFERENCE_ROUNDS = 10
REFERENCE_S = 0.001
# Loops timed between two operations, and the period of the loops timed
# while an operation runs in a child process.
BETWEEN_SAMPLES = 5
SAMPLE_EVERY_S = 0.1


def reference_time() -> float:
    """Seconds the reference loop takes now (about a millisecond)."""
    start = time.perf_counter()
    perms, table, seen = _PERMS, _TABLE, set()
    for r in range(REFERENCE_ROUNDS):
        for p in perms:
            q = perms[p[r % 31] % 30]
            pq = tuple(p[i] for i in q)
            seen.add(pq)
            table.get((pq[0], pq[-1]))
    return time.perf_counter() - start


class SpeedGauge:
    """Scales operation times to the speed the benchmark was tuned at.

    The CPU speed of a shared host drifts by tens of percent within
    seconds, and its two vCPUs drift apart, so whole runs made minutes
    apart differ by more than the benchmark's bounds.  The
    gauge times the reference loop on the operation's CPU, between
    operations and, while one runs in a child process, every
    SAMPLE_EVERY_S, and scales the operation's time by REFERENCE_S over
    the loop's mean time around and during it.  A change to the engine
    cannot change the loop, so a slower engine still reads slower.
    """

    def __init__(self) -> None:
        self.before = self._between()
        self.during: list[tuple[float, float]] = []  # (start, loop seconds)

    @staticmethod
    def _between() -> list[float]:
        return [reference_time() for _ in range(BETWEEN_SAMPLES)]

    def sample(self) -> None:
        """Time the loop once while an operation runs in a child process.

        The loop shares the child's CPU, so its time is taken out of the
        operation's.
        """
        start = time.perf_counter()
        self.during.append((start, reference_time()))

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(Scaled, unscaled) time of the operation from start to end.

        Call it right after the operation ends; the loops timed during it
        are taken out of its time.
        """
        seconds = end - start - sum(loop for t, loop in self.during if t < end)
        after = self._between()
        samples = self.before + [loop for _, loop in self.during] + after
        self.before, self.during = after, []
        return seconds * REFERENCE_S / statistics.fmean(samples), seconds


def another_round(started: float, now: float, last: float, seconds: float) -> bool:
    """Start another round if at least half of it should fit in the run.

    A run then ends at the round boundary nearest to its length in
    seconds, so it measures about that long whatever a round costs.
    """
    return now - started + last / 2 <= seconds
