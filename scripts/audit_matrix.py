"""Fingerprint the axiom checker's reports on the benchmark's pmcat instances.

The CLI checks only categories it builds itself, so ``cli_matrix.py``
never sees a report on a faulty instance.  This script does: for each of
the three instances that the pmcat-audit workload extracts (s4,
s3_diagonal, s3x3) and for each corruption that ``perfbench/workloads.py``
plants in them at seeds 1, 2 and 3, it runs ``check_partially_monoidal``
and prints one tab-separated line: the seed (``-`` for a clean instance),
the theory, the corruption kind, the planted key and value, the number of
violations, and the first 16 hex digits of the SHA-256 of the report's
``repr``, which holds every violation in order.

The workload plants no change that keeps the morphism tensor symmetric,
so at each seed the script plants two more in each instance: an
off-diagonal tensor entry and its swap reassigned to one other morphism
of their hom-set (``reassign-tensor_mor-pair``), which the checker reads
once per mirrored pair of interchange cells, and one such entry
reassigned alone (``reassign-tensor_mor``), which it reads cell by cell.
That is 3 + 42 lines per seed, 129 in all.

``--root DIR`` checks with the engine in ``DIR/src`` and its fixtures (by
default, the checkout holding this script); ``workloads.py`` is always
this checkout's, imported without writing bytecode.  To check that a
change keeps every report, run both commits and compare:

    python3 scripts/audit_matrix.py --root ../parent > before.txt
    python3 scripts/audit_matrix.py > after.txt
    diff before.txt after.txt

The whole run takes about 1 s.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def tensor_plants(inst, rng: random.Random):
    """(kind, key, value, instance) for a pair and a single tensor reassignment."""
    tensor = inst.tensor_mor

    def others(key):
        m = tensor[key]
        return [x for x in inst.hom_sets[(inst.dom[m], inst.cod[m])] if x != m]

    keys = [key for key in sorted(tensor) if key[0] != key[1] and others(key)]
    for kind, key in zip(("reassign-tensor_mor-pair", "reassign-tensor_mor"), rng.sample(keys, 2)):
        value = rng.choice(others(key))
        change = {key: value}
        if kind.endswith("pair"):
            change[key[::-1]] = value
        yield kind, key, value, dataclasses.replace(inst, tensor_mor={**tensor, **change})


def lines(root: Path):
    """The output lines, the clean instances' first."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(ROOT / "perfbench")]
    import workloads as wl
    from emergent import check_partially_monoidal, extract_instance, load_theory

    clean = {
        name: extract_instance(load_theory(root / wl.fixture(name))[0])
        for name in wl.SETUP_THEORIES["pmcat-audit"]
    }
    cases = [("-", name, "clean", "-", inst) for name, inst in clean.items()]
    for seed in SEEDS:
        for name, kind, key, value in wl.plant(clean, seed):
            planted = f"{key} -> {value}" if value is not None else str(key)
            cases.append((seed, name, kind, planted, wl.corrupt(clean[name], kind, key, value)))
        rng = random.Random(seed)
        for name, inst in clean.items():
            for kind, key, value, planted in tensor_plants(inst, rng):
                cases.append((seed, name, kind, f"{key} -> {value}", planted))
    for seed, name, kind, planted, inst in cases:
        report = check_partially_monoidal(inst)
        digest = hashlib.sha256(repr(report).encode()).hexdigest()[:16]
        yield "\t".join(map(str, (seed, name, kind, planted, len(report), digest)))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--root", type=Path, default=ROOT, help="checkout to run (default: this one)"
    )
    args = parser.parse_args()
    for line in lines(args.root.resolve()):
        print(line, flush=True)


if __name__ == "__main__":
    main()
