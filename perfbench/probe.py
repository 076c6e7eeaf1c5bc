"""Child process of the benchmark harness; prints one JSON object.

    probe.py setup WORKLOAD SEED      start, import, load (and, for
                                      pmcat-audit, extract and plant)
    probe.py traced ARG...            one CLI operation, layer by layer
    probe.py audit SEED SECONDS TRACE the pmcat-audit checks

The harness runs it with ``src`` on PYTHONPATH.  ``traced`` mirrors the
CLI handler for its subcommand: it calls the same public functions in the
same order, times each call, and renders the same stdout, whose digest the
harness compares with the golden one.  Cross-process spans compare
``time.perf_counter`` values, which on Linux read CLOCK_MONOTONIC.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import sys
import time

import workloads as wl


def cache_totals() -> list[int]:
    """Summed cache_info() hits and misses of the engine's lru_caches."""
    hits = misses = 0
    seen = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("emergent"):
            continue
        for obj in vars(module).values():
            info = getattr(obj, "cache_info", None)
            if info is None or id(obj) in seen or not callable(info):
                continue
            seen.add(id(obj))
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return [hits, misses]


def setup(workload: str, seed: int, trace: wl.Trace, counts: dict) -> dict:
    from emergent import extract_instance, load_theory

    theories = {}
    for name in wl.SETUP_THEORIES[workload]:
        with trace.span("catalog.load"):
            theories[name], _ = load_theory(wl.fixture(name))
    out = {"orders": {name: t.group.order for name, t in theories.items()}}
    if workload != "pmcat-audit":
        return out
    clean = {}
    for name, theory in theories.items():
        with trace.span("pmcat.extract"):
            clean[name] = extract_instance(theory)
    counts["processes.objects"] = sum(len(i.objects) for i in clean.values())
    counts["processes.classes"] = sum(len(i.morphisms) for i in clean.values())
    planted = wl.plant(clean, seed)
    corrupted = [wl.corrupt(clean[name], kind, key, value) for name, kind, key, value in planted]
    out["extracted"] = {n: [len(i.objects), len(i.morphisms)] for n, i in clean.items()}
    out["planted"] = planted
    out["altered"] = [c != clean[p[0]] for c, p in zip(corrupted, planted)]
    out["instances"] = list(clean.values()) + corrupted
    return out


def cmd_setup(workload: str, seed: str) -> dict:
    import emergent  # noqa: F401  (start-up is part of set-up)

    out = setup(workload, int(seed), wl.Trace(), {})
    out.pop("instances", None)
    out["ready"] = time.perf_counter()
    return out


def cmd_traced(*argv) -> dict:
    from emergent import cli

    imported = time.perf_counter()
    trace = wl.Trace()
    counts: dict[str, int] = {}
    args = cli.build_parser().parse_args(argv)
    try:
        text, code = MIRRORS[args.command](args, trace, counts)
    except cli.ResourceLimit:
        text, code = "", 3
    except cli.TheoryError:  # every input error is one: exit code 2
        text, code = "", 2
    return {
        "imported": imported,
        "spans": trace.spans,
        "counts": counts,
        "exit": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "shapes": wl.shapes(argv, text),
        "cache": cache_totals(),
    }


def _load(args, trace):
    from emergent import load_theory

    with trace.span("catalog.load"):
        return load_theory(args.input)[0]


def _lattice(theory, trace, counts):
    from emergent import enumerate_self_bicommutant

    with trace.span("lattice.enumerate"):
        lattice = enumerate_self_bicommutant(theory)
    counts["lattice.nodes"] = counts.get("lattice.nodes", 0) + len(lattice.nodes)
    return lattice


def mirror_lattice(args, trace, counts):
    from emergent.cli import lattice_dot, lattice_json

    theory = _load(args, trace)
    lattice = _lattice(theory, trace, counts)
    with trace.span("cli.render"):
        if args.format == "dot":
            return lattice_dot(theory, lattice), 0
        return wl.dump(lattice_json(theory, lattice)), 0


def mirror_systems(args, trace, counts):
    from emergent import are_compatible, enumerate_systems

    theory = _load(args, trace)
    lattice = _lattice(theory, trace, counts)
    with trace.span("systems.enumerate"):
        systems = enumerate_systems(theory)
    with trace.span("systems.compat"):
        compatible = [
            [i, j, witness]
            for i, a in enumerate(systems)
            for j, b in enumerate(systems)
            if (witness := are_compatible(theory, a, b)) is not None
        ]
    counts["systems.count"] = len(systems)
    counts["systems.compat_probes"] = len(systems) ** 2
    counts["systems.compatible"] = len(compatible)
    with trace.span("cli.render"):
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
            "compatible": compatible,
        }
        return wl.dump(payload), 0


def mirror_scan_mixed(args, trace, counts):
    from emergent import is_product_state

    theory = _load(args, trace)
    lattice = _lattice(theory, trace, counts)
    with trace.span("states.scan"):
        pure = [
            [p for p in theory.points if is_product_state(theory, node, p).pure]
            for node in lattice.nodes
        ]
    counts["states.product_tests"] = len(lattice.nodes) * len(theory.points)
    counts["states.pure"] = sum(map(len, pure))
    with trace.span("cli.render"):
        nodes = []
        both = []
        for i, (node, pure_points) in enumerate(zip(lattice.nodes, pure)):
            mixed = [p for p in theory.points if p not in set(pure_points)]
            if pure_points and mixed:
                both.append(i)
            nodes.append(
                {
                    "index": i,
                    "order": node.order,
                    "pure_points": pure_points,
                    "mixed_points": mixed,
                }
            )
        payload = {"degree": theory.degree, "nodes": nodes, "nodes_with_both": both}
        return wl.dump(payload), 0


def mirror_check(args, trace, counts):
    from emergent.checks import SUITES, run_suites
    from emergent.cli import render_check_report

    theory = _load(args, trace)
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    results = []
    for name in names:
        with trace.span(f"checks.{name}"):
            results.extend(run_suites(theory, (name,)))
    with trace.span("cli.render"):
        return render_check_report(tuple(results))


def mirror_quantum(args, trace, counts):
    from emergent.cli import quantum_report

    # quantum_report is a sequence of sector-calculus calls, so it counts
    # as the sectors layer; only the JSON rendering is cli.render.
    with trace.span("sectors.quantum"):
        payload = quantum_report(args.decomposition)
    with trace.span("cli.render"):
        return wl.dump(payload), 0


MIRRORS = {
    "lattice": mirror_lattice,
    "systems": mirror_systems,
    "scan-mixed": mirror_scan_mixed,
    "check": mirror_check,
    "quantum": mirror_quantum,
}


def audit_pass(instances, traced: bool, gauge: wl.SpeedGauge) -> dict:
    """One check of every instance.

    ``start``/``end`` bound the pass; ``raw`` is the sum of the checks'
    times and ``scaled`` the same sum with each time scaled by the gauge,
    whose reference loop runs between checks, outside every check's time.
    """
    from emergent import check_partially_monoidal

    trace = wl.Trace()
    span = trace.span if traced else contextlib.nullcontext
    results = []
    raw = scaled = 0.0
    start = time.perf_counter()
    for inst in instances:
        begin = time.perf_counter()
        # A fresh copy, so the cached hom-set indexes are rebuilt each pass.
        fresh = dataclasses.replace(inst)
        with span("pmcat.check"):
            found = check_partially_monoidal(fresh)
        check_scaled, check_raw = gauge.scale(begin, time.perf_counter())
        raw += check_raw
        scaled += check_scaled
        results.append([len(found), sorted({v.kind for v in found})])
    end = time.perf_counter()
    return {
        "traced": traced,
        "start": start,
        "end": end,
        "raw": raw,
        "scaled": scaled,
        "results": results,
        "spans": trace.spans,
    }


def cmd_audit(seed: str, seconds: str, traced: str) -> dict:
    import emergent  # noqa: F401  (start-up is part of set-up)

    imported = time.perf_counter()
    trace = wl.Trace()
    counts: dict[str, int] = {}
    out = setup("pmcat-audit", int(seed), trace, counts)
    out["ready"] = time.perf_counter()
    instances = out.pop("instances")
    modes = (False, True) if traced == "1" else (False,)
    passes = []
    gauge = wl.SpeedGauge()
    started, last = time.perf_counter(), 0.0
    while not passes or wl.another_round(started, time.perf_counter(), last, float(seconds)):
        round_start = time.perf_counter()
        passes.extend(audit_pass(instances, mode, gauge) for mode in modes)
        last = time.perf_counter() - round_start
    out.update(
        imported=imported,
        setup_spans=trace.spans,
        counts=counts,
        passes=passes,
        cache=cache_totals(),
    )
    return out


def main(argv) -> int:
    commands = {"setup": cmd_setup, "traced": cmd_traced, "audit": cmd_audit}
    sys.stdout.write(json.dumps(commands[argv[0]](*argv[1:])) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
