"""Fingerprint the CLI's output on every bundled fixture.

Runs ``lattice``, ``lattice --format dot``, ``systems``, ``scan-mixed`` and
``check --suite S`` for each of the six suite choices, on each of the ten
fixtures and on a missing file; ``quantum`` on three decompositions and on
a malformed one; and argparse's own output: ``--help`` for the program and
for each subcommand, and the usage error of ``check --suite bogus``.  That
is 121 cases.  Each case runs in a fresh interpreter from the root of the
checkout under test, with ``PYTHONHASHSEED=0``, with ``COLUMNS=80`` (help
text wraps at the terminal's width) and with that checkout's ``src`` as
the whole ``PYTHONPATH``.  One line per
case gives the argv, the exit code, and the SHA-256 of stdout and of
stderr, tab-separated.  A case still running after ``CASE_TIMEOUT``
seconds is killed, and its line gives the argv and ``timeout``.

``--root DIR`` runs the cases on the checkout at ``DIR`` (by default, the
one holding this script).  To check that a change keeps the CLI's bytes,
run this script's cases on both commits and compare:

    python3 scripts/cli_matrix.py --root ../parent > before.txt
    python3 scripts/cli_matrix.py > after.txt
    diff before.txt after.txt

The s3x3x3 ``check --suite pmcat|all`` cases take 0.61–0.88 s and
1.68–2.10 s (five runs each, 2-vCPU shared host, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Many times the slowest case, s3x3x3 ``check --suite all``.
CASE_TIMEOUT = 60.0

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
# The decompositions the benchmark's check-small workload runs, and one
# that does not parse (exit code 2).
DECOMPOSITIONS = ("2x2+1x3", "1x6", "3x1+2x1", "2x")
SUBCOMMANDS = ("lattice", "systems", "scan-mixed", "check", "quantum")
# The parser's own bytes: every help text (exit code 0) and a usage error
# (exit code 2).
PARSER_CASES = (
    ("--help",),
    *((command, "--help") for command in SUBCOMMANDS),
    ("check", "--suite", "bogus", "--input", "fixtures/s3.json"),
)
CASES = (
    tuple((*command, "--input", path) for path in INPUTS for command in COMMANDS)
    + tuple(("quantum", "--decomposition", text) for text in DECOMPOSITIONS)
    + PARSER_CASES
)


def run_case(
    argv: tuple[str, ...], root: Path = ROOT, timeout: float = CASE_TIMEOUT
) -> str:
    """One output line: argv, exit code, and the digests of both streams."""
    env = dict(os.environ, COLUMNS="80", PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "emergent.cli", *argv],
            capture_output=True,
            cwd=root,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "\t".join((" ".join(argv), "timeout"))
    digests = (hashlib.sha256(stream).hexdigest() for stream in (proc.stdout, proc.stderr))
    return "\t".join((" ".join(argv), str(proc.returncode), *digests))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--root", type=Path, default=ROOT, help="checkout to run (default: this one)"
    )
    root = parser.parse_args().root.resolve()
    for argv in CASES:
        print(run_case(argv, root), flush=True)


if __name__ == "__main__":
    main()
