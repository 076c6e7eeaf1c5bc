"""Command-line interface.

Subcommands:

    lattice     enumerate the subgroup lattice (JSON or DOT)
    systems     enumerate systems and their compatibilities (JSON)
    scan-mixed  classify global states as product or entangled per node
    check       run verification suites; nonzero exit on violations
    quantum     closed-form composability facts for a sector decomposition

Exit codes: 0 success, 1 property violation, 2 bad input, 3 resource cap,
141 stdout closed before the output was written (as a shell reports a tool
that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from .catalog import load_theory
from .checks import SUITES, SuiteResult, run_suites
from .errors import ResourceLimit, TheoryError
from .lattice import SbcLattice, enumerate_self_bicommutant
from .perms import GlobalTheory
from .sectors import (
    GENERAL,
    SpecialPairReport,
    centre_rank,
    check_special_pair_claims,
    classify,
    commutant_decomp,
    group_dimension,
    parse_decomposition,
    system_count,
)
from .states import purity_row
from .systems import compatibility_rows, enumerate_systems

# The exit code a shell reports for a tool that SIGPIPE ends.
BROKEN_PIPE = 141


def _dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, by joins.

    Takes None, bools, ints, strings, lists, tuples and dicts with string
    keys; anything else raises ``TypeError``.  Each distinct int list is
    written once per call: lattice nodes repeat the group's elements.
    """
    return _encode(payload, "\n", {}) + "\n"


def _encode(value, newline: str, memo: dict) -> str:
    """``value``'s JSON text, where ``newline`` starts each of its lines."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Only exact ints: True == 1 and 1.0 == 1 would share a memo entry.
        if all(type(x) is int for x in value):
            key = (newline, tuple(value))
            text = memo.get(key)
            if text is None:
                text = memo[key] = f"[{inner}{(',' + inner).join(map(str, value))}{newline}]"
            return text
        items = [_encode(x, inner, memo) for x in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [
            f"{encode_basestring_ascii(key)}: {_encode(value[key], inner, memo)}"
            for key in sorted(value)
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def lattice_json(theory: GlobalTheory, lattice: SbcLattice) -> dict:
    nodes = []
    for i, node in enumerate(lattice.nodes):
        nodes.append(
            {
                "index": i,
                "order": node.order,
                "members": node.members,
                "commutant": lattice.commutant_index[i],
                "self_commutant": lattice.commutant_index[i] == i,
            }
        )
    return {
        "degree": theory.degree,
        "node_count": len(lattice.nodes),
        "nodes": nodes,
        "hasse": [list(edge) for edge in lattice.hasse_edges],
    }


def lattice_dot(theory: GlobalTheory, lattice: SbcLattice) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, node in enumerate(lattice.nodes):
        shape = ' peripheries=2' if lattice.commutant_index[i] == i else ""
        lines.append(f'  n{i} [label="{i}: order {node.order}"{shape}];')
    for low, high in lattice.hasse_edges:
        lines.append(f"  n{low} -> n{high};")
    seen = set()
    for i, j in enumerate(lattice.commutant_index):
        if i == j or (j, i) in seen:
            continue
        seen.add((i, j))
        lines.append(f"  n{i} -> n{j} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_lattice(args) -> int:
    theory, _ = load_theory(args.input, args.max_order)
    lattice = enumerate_self_bicommutant(theory)
    if args.format == "dot":
        sys.stdout.write(lattice_dot(theory, lattice))
    else:
        sys.stdout.write(_dump(lattice_json(theory, lattice)))
    return 0


def cmd_systems(args) -> int:
    theory, _ = load_theory(args.input, args.max_order)
    lattice = enumerate_self_bicommutant(theory)
    systems = enumerate_systems(theory)
    payload = {
        "degree": theory.degree,
        "systems": [
            {
                "index": i,
                "node": lattice.node_index[s.transf],
                "order": s.transf.order,
                "pure_states": [list(st.sorted_points) for st in s.pure_orbit],
            }
            for i, s in enumerate(systems)
        ],
        "compatible": [
            [i, j, witness]
            for i, row in enumerate(compatibility_rows(theory, systems))
            for j, witness in row.items()
        ],
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_scan_mixed(args) -> int:
    theory, _ = load_theory(args.input, args.max_order)
    lattice = enumerate_self_bicommutant(theory)
    nodes = []
    both = []
    for i, node in enumerate(lattice.nodes):
        row = purity_row(theory, node)
        pure = [p for p in theory.points if row[p]]
        mixed = [p for p in theory.points if not row[p]]
        if pure and mixed:
            both.append(i)
        nodes.append(
            {
                "index": i,
                "order": node.order,
                "pure_points": pure,
                "mixed_points": mixed,
            }
        )
    payload = {"degree": theory.degree, "nodes": nodes, "nodes_with_both": both}
    sys.stdout.write(_dump(payload))
    return 0


def render_check_report(results: tuple[SuiteResult, ...]) -> tuple[str, int]:
    payload = {"suites": [r.as_dict() for r in results]}
    payload["ok"] = all(r.ok for r in results)
    code = 0 if payload["ok"] else 1
    return _dump(payload), code


def cmd_check(args) -> int:
    theory, _ = load_theory(args.input, args.max_order)
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    results = run_suites(theory, names)
    text, code = render_check_report(results)
    sys.stdout.write(text)
    return code


def quantum_report(text: str) -> dict:
    decomp = parse_decomposition(text)
    kind = classify(decomp)
    payload = {
        "decomposition": str(decomp),
        "commutant": str(commutant_decomp(decomp)),
        "kind": kind,
        "centre_rank": centre_rank(decomp),
        "system_count": system_count(decomp),
        "group_dimension": group_dimension(decomp),
        "total_dimension": decomp.total_dimension,
    }
    if kind == GENERAL:
        payload["claims"] = None
        payload["note"] = (
            "closed-form composability claims cover only the purely "
            "multiplicative and purely additive shapes"
        )
    else:
        report: SpecialPairReport = check_special_pair_claims(decomp)
        payload["claims"] = {
            "orthogonal": report.orthogonal,
            "orthocomplementary": report.orthocomplementary,
            "join": str(report.join),
            "join_full": report.join_full,
        }
    return payload


def cmd_quantum(args) -> int:
    sys.stdout.write(_dump(quantum_report(args.decomposition)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emergent",
        description="Finite-model engine for emergent subsystems of reversible theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p) -> None:
        p.add_argument("--input", required=True, help="JSON theory description")
        p.add_argument(
            "--max-order",
            type=int,
            default=None,
            help="cap on the generated group order",
        )

    p_lattice = sub.add_parser("lattice", help="enumerate the subgroup lattice")
    add_input(p_lattice)
    p_lattice.add_argument(
        "--format", choices=("json", "dot"), default="json", help="output format"
    )
    p_lattice.set_defaults(func=cmd_lattice)

    p_systems = sub.add_parser("systems", help="enumerate systems")
    add_input(p_systems)
    p_systems.set_defaults(func=cmd_systems)

    p_scan = sub.add_parser(
        "scan-mixed", help="classify global states as product or entangled"
    )
    add_input(p_scan)
    p_scan.set_defaults(func=cmd_scan_mixed)

    p_check = sub.add_parser("check", help="run verification suites")
    add_input(p_check)
    p_check.add_argument(
        "--suite",
        choices=("lattice", "states", "systems", "processes", "pmcat", "all"),
        default="all",
        help="which suite to run",
    )
    p_check.set_defaults(func=cmd_check)

    p_quantum = sub.add_parser(
        "quantum", help="sector-calculus claims for a decomposition"
    )
    p_quantum.add_argument(
        "--decomposition",
        required=True,
        help="sector list such as '2x3+1x1'",
    )
    p_quantum.set_defaults(func=cmd_quantum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send the interpreter's final flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TheoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
