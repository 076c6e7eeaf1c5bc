"""Fingerprint the CLI's output on every bundled fixture.

Runs ``lattice``, ``lattice --format dot``, ``systems``, ``scan-mixed`` and
``check --suite S`` for each of the six suite choices, on each of the ten
fixtures and on a missing file: 110 cases.  Each case runs in a fresh
interpreter from the repository root, with ``PYTHONHASHSEED=0`` and with
this checkout's ``src`` as the whole ``PYTHONPATH``.  One line per case
gives the argv, the exit code, and the SHA-256 of stdout and of stderr,
tab-separated.

To check that a change keeps the CLI's bytes, run it at both commits and
compare:

    python3 scripts/cli_matrix.py > before.txt   # at the parent
    python3 scripts/cli_matrix.py > after.txt    # at the change
    diff before.txt after.txt

The s3x3x3 ``check --suite pmcat|all`` cases take several seconds each.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURES = (
    "bad_permutation",
    "bad_syntax",
    "not_centreless",
    "not_transitive",
    "s3",
    "s3_capped",
    "s3_diagonal",
    "s3x3",
    "s3x3x3",
    "s4",
)
MISSING = "fixtures/missing.json"
INPUTS = tuple(f"fixtures/{name}.json" for name in FIXTURES) + (MISSING,)
COMMANDS = (
    ("lattice",),
    ("lattice", "--format", "dot"),
    ("systems",),
    ("scan-mixed",),
    *(
        ("check", "--suite", suite)
        for suite in ("lattice", "states", "systems", "processes", "pmcat", "all")
    ),
)
CASES = tuple((*command, "--input", path) for path in INPUTS for command in COMMANDS)


def run_case(argv: tuple[str, ...]) -> str:
    """One output line: argv, exit code, and the digests of both streams."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "emergent.cli", *argv],
        capture_output=True,
        cwd=ROOT,
        env=env,
    )
    digests = (hashlib.sha256(stream).hexdigest() for stream in (proc.stdout, proc.stderr))
    return "\t".join((" ".join(argv), str(proc.returncode), *digests))


def main() -> None:
    for argv in CASES:
        print(run_case(argv), flush=True)


if __name__ == "__main__":
    main()
