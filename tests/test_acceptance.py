"""Acceptance gate: one end-to-end check per numbered criterion.

Each test prints a single `[acceptance] Cn: PASS` or `FAIL` line (visible
with -s or in failure output); the pytest verdict per test is the
authoritative pass/fail signal.  Runtime budgets are asserted where the
criterion fixes one.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import defaultdict
from pathlib import Path

import pytest

import oracles
from test_pmcat import _repleteness_gap_instance, _skewed_tensor_instance

from emergent import (
    FiniteCategoryInstance,
    NotProductState,
    Perm,
    are_compatible,
    build_process_category,
    centre_rank,
    check_partially_monoidal,
    check_special_pair_claims,
    commutant,
    commutant_decomp,
    discard_process,
    enumerate_self_bicommutant,
    enumerate_systems,
    extract_instance,
    is_orthogonal,
    is_product_state,
    iterated_restrict,
    join,
    load_theory,
    make_decomposition,
    make_system,
    meet,
    parse_decomposition,
    pure_local_states,
    pure_stabilizer,
    restrict,
    subgroup_closure,
    tensor_pure_states,
    tensor_state_candidates,
    tensor_systems,
    verify_generation,
)
from emergent.cli import main
from emergent.processes import process_table
from emergent.states import act_local

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 20240801

ROWS = ((3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
COLS = ((1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return run

    return wrap


def _sub(theory, image_tuples):
    return subgroup_closure(theory.group, [Perm(t) for t in image_tuples])


def _coordinate_perm(sigma, axis):
    images = []
    for p in range(27):
        coords = [p // 9, (p // 3) % 3, p % 3]
        coords[axis] = sigma[coords[axis]]
        images.append(9 * coords[0] + 3 * coords[1] + coords[2])
    return tuple(images)


def _factor_systems(t4):
    cell_maps = [(1, 0, 2), (1, 2, 0)]
    factors = tuple(
        make_system(t4, _sub(t4, [_coordinate_perm(s, axis) for s in cell_maps]))
        for axis in range(3)
    )
    assert all(is_product_state(t4, f.transf, 0).pure for f in factors)
    return factors


@criterion("C1")
def test_c01_lattice_enumeration_matches_brute_force(t1, t2):
    for theory, expected in ((t1, 6), (t2, 36)):
        start = time.perf_counter()
        lattice = enumerate_self_bicommutant(theory)
        elements = {tuple(g) for g in theory.group.elements}
        oracle = oracles.self_bicommutant_subgroups(elements)
        elapsed = time.perf_counter() - start
        assert len(lattice.nodes) == expected
        node_sets = {
            frozenset(tuple(g) for g in node.members) for node in lattice.nodes
        }
        assert node_sets == oracle
        assert elapsed < 10.0


@criterion("C2")
def test_c02_lattice_laws(t1, t2, t5):
    start = time.perf_counter()
    for theory in (t1, t2, t5):
        lattice = enumerate_self_bicommutant(theory)
        nodes = lattice.nodes
        assert lattice.bottom.is_trivial
        assert lattice.top.member_set == theory.group.element_set
        assert commutant(theory, lattice.bottom) == lattice.top
        assert commutant(theory, lattice.top) == lattice.bottom
        for a in nodes:
            ca = commutant(theory, a)
            assert commutant(theory, commutant(theory, ca)) == ca
        for a, b in itertools.product(nodes, repeat=2):
            ca, cb = commutant(theory, a), commutant(theory, b)
            assert commutant(theory, join(theory, a, b)) == meet(theory, ca, cb)
            assert commutant(theory, meet(theory, a, b)) == join(theory, ca, cb)
            assert meet(theory, a, join(theory, a, b)) == a
            assert join(theory, a, meet(theory, a, b)) == a
    assert time.perf_counter() - start < 30.0


@criterion("C3")
def test_c03_exchange_and_swap_on_orthogonal_pairs(t1, t2):
    rng = random.Random(SEED)
    for theory in (t1, t2):
        nodes = enumerate_self_bicommutant(theory).nodes
        for a, b in itertools.product(nodes, repeat=2):
            if not is_orthogonal(theory, a, b):
                continue
            for h, k in itertools.product(a.members, b.members):
                assert h * k == k * h
            total = (a.order * b.order) ** 2
            if total <= 1_000_000:
                quads = itertools.product(
                    a.members, b.members, a.members, b.members
                )
            else:
                quads = (
                    (
                        rng.choice(a.members),
                        rng.choice(b.members),
                        rng.choice(a.members),
                        rng.choice(b.members),
                    )
                    for _ in range(10_000)
                )
            for h1, k1, h2, k2 in quads:
                assert (h1 * k1) * (h2 * k2) == (h1 * h2) * (k1 * k2)


@criterion("C4")
def test_c04_local_state_laws(t1, t2, t3):
    start = time.perf_counter()
    for theory in (t1, t2, t3):
        nodes = enumerate_self_bicommutant(theory).nodes
        for node in nodes:
            comm = commutant(theory, node)
            centre = [
                z
                for z in node.members
                if all(z * h == h * z for h in node.members)
            ]
            pure = set(pure_local_states(theory, node))
            for state in pure:
                for h in node.members:
                    assert act_local(theory, h, state) in pure
                local_stab, fixed_stab = pure_stabilizer(theory, state)
                assert local_stab == fixed_stab
            for point in theory.points:
                state = restrict(theory, node, point)
                for z in centre:
                    assert act_local(theory, z, state) == state
                verdict = is_product_state(theory, node, point)
                for k in comm.members:
                    moved = is_product_state(theory, node, k[point])
                    assert moved.pure == verdict.pure
        for small, big in itertools.product(nodes, repeat=2):
            if not small.is_subset_of(big):
                continue
            for point in theory.points:
                outer = restrict(theory, big, point)
                nested = iterated_restrict(theory, small, outer)
                assert nested == restrict(theory, small, point)
                for q in outer.points:
                    assert restrict(theory, small, q) == nested
    assert time.perf_counter() - start < 60.0


@criterion("C5")
def test_c05_purity_landscape_of_one_sided_factors(t2):
    rows = _sub(t2, ROWS)
    elements_2 = {tuple(g) for g in t2.group.elements}
    members_2 = {tuple(g) for g in rows.members}
    for point in t2.points:
        assert is_product_state(t2, rows, point).pure
        assert oracles.is_product_point(elements_2, members_2, point)

    t3, named = load_theory(FIXTURES / "s3_diagonal.json")
    left = named["left"]
    elements_3 = {tuple(g) for g in t3.group.elements}
    members_3 = {tuple(g) for g in left.members}
    for point in t3.points:
        assert not is_product_state(t3, left, point).pure
        assert not oracles.is_product_point(elements_3, members_3, point)
    with pytest.raises(NotProductState):
        make_system(t3, left)
    assert len(enumerate_systems(t3)) == 2


@criterion("C6")
def test_c06_factor_system_composition(t2, t4):
    start = time.perf_counter()
    rows = make_system(t2, _sub(t2, ROWS))
    cols = make_system(t2, _sub(t2, COLS))
    assert is_product_state(t2, rows.transf, 0).pure
    assert is_product_state(t2, cols.transf, 0).pure
    assert are_compatible(t2, rows, cols) is not None
    for a, b in ((rows, cols), (cols, rows)):
        for rho in a.pure_orbit:
            for sigma in b.pure_orbit:
                assert len(tensor_state_candidates(t2, a, b, rho, sigma)) == 1
    whole = tensor_systems(t2, rows, cols)
    assert whole == tensor_systems(t2, cols, rows)
    points = [s.representative for s in whole.pure_orbit]
    for psi, phi in itertools.product(points, repeat=2):
        same = restrict(t2, rows.transf, psi) == restrict(t2, rows.transf, phi)
        orbit_psi = frozenset(g[psi] for g in cols.transf.members)
        orbit_phi = frozenset(g[phi] for g in cols.transf.members)
        assert same == (orbit_psi == orbit_phi)

    factors = _factor_systems(t4)
    for a, b in itertools.permutations(factors, 2):
        assert are_compatible(t4, a, b) is not None
        composite = tensor_systems(t4, a, b)
        assert composite == tensor_systems(t4, b, a)
        for rho in a.pure_orbit:
            for sigma in b.pure_orbit:
                candidates = tensor_state_candidates(t4, a, b, rho, sigma)
                assert candidates
                states = {
                    restrict(t4, composite.transf, p) for p in candidates
                }
                assert len(states) == 1
                tau = tensor_pure_states(t4, a, b, rho, sigma)
                assert iterated_restrict(t4, a.transf, tau) == rho
                assert iterated_restrict(t4, b.transf, tau) == sigma
    composites = set()
    for a, b, c in itertools.permutations(factors, 3):
        report = oracles.check_associativity_triple(t4, a, b, c)
        assert report.holds
        composites.add(report.left)
    assert len(composites) == 1
    triple = composites.pop()
    assert triple.transf.order == 216
    assert len(triple.pure_orbit) == 27
    assert time.perf_counter() - start < 120.0


@criterion("C7")
def test_c07_category_laws(t2):
    cat = build_process_category(t2)
    for oi in range(len(cat.objects)):
        ident = cat.classes[cat.identity[oi]]
        assert ident.dom == oi and ident.cod == oi
    for ci, cls in enumerate(cat.classes):
        assert cat.compose[(ci, cat.identity[cls.dom])] == ci
        assert cat.compose[(cat.identity[cls.cod], ci)] == ci

    by_dom = defaultdict(list)
    for ci, cls in enumerate(cat.classes):
        by_dom[cls.dom].append(ci)
    for fi, f in enumerate(cat.classes):
        for gi in by_dom[f.cod]:
            gf = cat.compose[(gi, fi)]
            for hi in by_dom[cat.classes[gi].cod]:
                assert cat.compose[(hi, gf)] == cat.compose[(cat.compose[(hi, gi)], fi)]

    for (a, b), ab in cat.tensor_obj.items():
        assert cat.tensor_mor[(cat.identity[a], cat.identity[b])] == cat.identity[ab]
    by_dompair = defaultdict(list)
    for gi, gj in cat.tensor_mor:
        by_dompair[(cat.classes[gi].dom, cat.classes[gj].dom)].append((gi, gj))
    for fi, fj in cat.tensor_mor:
        f, f2 = cat.classes[fi], cat.classes[fj]
        for gi, gj in by_dompair[(f.cod, f2.cod)]:
            lhs = cat.tensor_mor[(cat.compose[(gi, fi)], cat.compose[(gj, fj)])]
            rhs = cat.compose[(cat.tensor_mor[(gi, gj)], cat.tensor_mor[(fi, fj)])]
            assert lhs == rhs

    rng = random.Random(SEED)
    composable = [
        (gi, fi)
        for fi, f in enumerate(cat.classes)
        for gi in by_dom[f.cod]
    ]
    from emergent import compose_process, tensor_processes

    for gi, fi in rng.sample(composable, 500):
        f, g = cat.classes[fi], cat.classes[gi]
        composite = compose_process(t2, g.representative, f.representative)
        assert process_table(t2, composite) == cat.classes[cat.compose[(gi, fi)]].table
    for (ci, cj), out in rng.sample(sorted(cat.tensor_mor.items()), 500):
        prod = tensor_processes(
            t2, cat.classes[ci].representative, cat.classes[cj].representative
        )
        assert process_table(t2, prod) == cat.classes[out].table


@criterion("C8")
def test_c08_generated_closures(t1, t2):
    full_t1 = build_process_category(t1, systems=enumerate_systems(t1))
    report = verify_generation(t1, full_t1)
    assert report.pure_ok and report.full_ok
    assert report.pure_generated == report.pure_total
    assert report.full_generated == report.full_total

    bounded_t2 = build_process_category(t2)
    report = verify_generation(t2, bounded_t2)
    assert report.pure_ok and report.full_ok
    assert report.pure_generated == report.pure_total
    assert report.full_generated == report.full_total


@criterion("C9")
def test_c09_exactly_one_effect_per_object(t2):
    cat = build_process_category(t2)
    assert len(cat.objects) == 9
    for obj in cat.objects:
        effects = oracles.enumerate_generalised_effects(t2, obj, ancillas=cat.universe)
        assert len(effects) == 1
        assert process_table(t2, effects[0]) == process_table(
            t2, discard_process(t2, obj)
        )


@criterion("C10")
def test_c10_axiom_checker_and_corruptions(t1, t2):
    assert check_partially_monoidal(extract_instance(t1)) == ()
    assert check_partially_monoidal(extract_instance(t2)) == ()

    inst = extract_instance(t1)
    key = sorted(inst.tensor_mor)[0]
    broken = dict(inst.tensor_mor)
    del broken[key]
    corrupted = FiniteCategoryInstance(
        objects=inst.objects,
        morphisms=inst.morphisms,
        dom=inst.dom,
        cod=inst.cod,
        identity=inst.identity,
        compose=inst.compose,
        tensor_obj=inst.tensor_obj,
        tensor_mor=broken,
        unit=inst.unit,
    )
    assert [v.kind for v in check_partially_monoidal(corrupted)] == ["fullness"]
    assert [v.kind for v in check_partially_monoidal(_repleteness_gap_instance())] == [
        "repleteness"
    ]
    assert [v.kind for v in check_partially_monoidal(_skewed_tensor_instance())] == [
        "associativity-definedness"
    ]


@criterion("C11")
def test_c11_sector_calculus():
    start = time.perf_counter()
    report = check_special_pair_claims(parse_decomposition("2x2"))
    assert report.orthocomplementary
    assert report.join_full
    report = check_special_pair_claims(parse_decomposition("2x1+1x3"))
    assert report.orthogonal
    assert not report.orthocomplementary

    rng = random.Random(SEED)
    for _ in range(100):
        sectors = tuple(
            (rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(rng.randint(1, 6))
        )
        if sum(a * b for a, b in sectors) < 2:
            sectors = ((2, 2),)
        decomp = make_decomposition(sectors)
        assert centre_rank(decomp) == decomp.sector_count - 1
        assert commutant_decomp(commutant_decomp(decomp)) == decomp
    assert time.perf_counter() - start < 1.0


@criterion("C12")
def test_c12_cli_contract(capsys):
    corpus = {
        "s3.json": 0,
        "s4.json": 0,
        "s3x3.json": 0,
        "s3_diagonal.json": 0,
        "bad_syntax.json": 2,
        "bad_permutation.json": 2,
        "not_transitive.json": 2,
        "not_centreless.json": 2,
        "s3_capped.json": 3,
    }
    assert len(corpus) >= 6
    for name, expected in corpus.items():
        runs = set()
        for _ in range(2):
            code = main(["lattice", "--input", str(FIXTURES / name)])
            captured = capsys.readouterr()
            runs.add((code, captured.out, captured.err))
            assert code == expected
        assert len(runs) == 1
    for argv in (
        ["systems", "--input", str(FIXTURES / "s3.json")],
        ["quantum", "--decomposition", "2x2+1x3"],
    ):
        runs = set()
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            runs.add((code, captured.out))
            assert code == 0
        assert len(runs) == 1
