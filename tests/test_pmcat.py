"""Axiom checker for partial tensor structure, on real and corrupted tables."""

from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import oracles
from emergent import (
    FiniteCategoryInstance,
    ResourceLimit,
    build_process_category,
    check_partially_monoidal,
    extract_instance,
    generate_group,
    instance_from_category,
    validate_global_theory,
)
import emergent.pmcat
from emergent.pmcat import Violation


def test_extracted_instances_satisfy_every_axiom(t1, t2):
    for theory in (t1, t2):
        report = check_partially_monoidal(extract_instance(theory))
        assert report == ()


def test_the_one_point_theory_extracts_to_a_single_identity():
    theory = validate_global_theory(generate_group(1, []))
    inst = extract_instance(theory)
    assert len(inst.objects) == 1
    assert len(inst.morphisms) == 1
    assert check_partially_monoidal(inst) == ()


def test_the_empty_instance_is_vacuously_valid():
    inst = FiniteCategoryInstance((), (), (), (), (), {}, {}, {}, -1)
    assert check_partially_monoidal(inst) == ()


def test_extraction_respects_the_object_cap(t1):
    with pytest.raises(ResourceLimit):
        extract_instance(t1, object_cap=2)


def test_an_instance_shares_the_category_tables_and_the_checker_only_reads_them(t2):
    cat = build_process_category(t2)
    inst = instance_from_category(cat)
    tables = ("compose", "tensor_obj", "tensor_mor")
    assert all(getattr(inst, table) is getattr(cat, table) for table in tables)
    before = {table: list(getattr(inst, table).items()) for table in tables}
    assert check_partially_monoidal(inst) == ()
    assert {table: list(getattr(inst, table).items()) for table in tables} == before


def test_the_checker_reads_a_built_category_s_rows_in_place(t2):
    # One composition table: no per-morphism dict of composites is built.
    # On s3x3 the check peaks at 0.18-0.22 MB under tracemalloc reading
    # the category's own rows; rebuilding them as dicts took 0.47-0.60 MB.
    cat = build_process_category(t2)
    inst = instance_from_category(cat)
    rows = emergent.pmcat._rows(inst)
    assert rows.row is cat.compose.rows
    assert rows.rank is cat.compose.rank
    tracemalloc.start()
    try:
        assert check_partially_monoidal(instance_from_category(cat)) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320_000


def test_rows_laid_out_for_other_endpoints_are_not_read_in_place(t1):
    # The category's rows run over the classes leaving its own codomains;
    # an instance given other endpoints is checked against them instead.
    inst = instance_from_category(build_process_category(t1))
    f = next(f for f in range(len(inst.morphisms)) if inst.cod[f] != inst.dom[f])
    cod = inst.cod[:f] + (inst.dom[f],) + inst.cod[f + 1 :]
    moved = dataclasses.replace(inst, cod=cod)
    report = check_partially_monoidal(moved)
    assert report
    assert report == oracles.pmcat_violations(moved)


def test_an_extracted_instance_holds_its_composition_as_a_dict(t2):
    # Copies of a dict share its key tuples; copies of the rows would not.
    inst = extract_instance(t2)
    assert type(inst.compose) is dict
    assert list(inst.compose.items()) == list(build_process_category(t2).compose.items())


def test_deleting_one_tensor_entry_breaks_fullness(t1):
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
    report = check_partially_monoidal(corrupted)
    assert len(report) == 1
    assert report[0].kind == "fullness"
    assert report[0].witness == key


def _repleteness_gap_instance() -> FiniteCategoryInstance:
    # Objects: unit, a, b, c, and d = a x b; c is isomorphic to a but
    # c x b is left undefined.
    unit_rows = {}
    for x in range(5):
        unit_rows[(0, x)] = x
        unit_rows[(x, 0)] = x
    tensor_obj = dict(unit_rows)
    tensor_obj[(1, 2)] = 4
    tensor_obj[(2, 1)] = 4
    compose = {(i, i): i for i in range(5)}
    compose.update(
        {
            (5, 3): 5,
            (1, 5): 5,
            (6, 1): 6,
            (3, 6): 6,
            (6, 5): 3,
            (5, 6): 1,
        }
    )
    tensor_mor = {}
    for m in range(7):
        tensor_mor[(0, m)] = m
        tensor_mor[(m, 0)] = m
    tensor_mor[(1, 2)] = 4
    tensor_mor[(2, 1)] = 4
    return FiniteCategoryInstance(
        objects=("e", "a", "b", "c", "d"),
        morphisms=("1e", "1a", "1b", "1c", "1d", "f", "g"),
        dom=(0, 1, 2, 3, 4, 3, 1),
        cod=(0, 1, 2, 3, 4, 1, 3),
        identity=(0, 1, 2, 3, 4),
        compose=compose,
        tensor_obj=tensor_obj,
        tensor_mor=tensor_mor,
        unit=0,
    )


def test_an_isomorphic_object_with_no_tensor_breaks_repleteness():
    report = check_partially_monoidal(_repleteness_gap_instance())
    assert len(report) == 1
    assert report[0].kind == "repleteness"
    assert report[0].witness == (2, 3)


def _skewed_tensor_instance() -> FiniteCategoryInstance:
    # One non-unit object with endomorphism monoid Z3; the morphism
    # tensor x (.) y = (x y)^2 respects composition and symmetry but is
    # not associative.
    square = {1: 1, 2: 3, 3: 2}
    compose = {(0, 0): 0}
    product = {}
    for i, x in ((1, 0), (2, 1), (3, 2)):
        for j, y in ((1, 0), (2, 1), (3, 2)):
            product[(i, j)] = 1 + (x + y) % 3
    compose.update(product)
    tensor_mor = {(0, 0): 0}
    for m in (1, 2, 3):
        tensor_mor[(0, m)] = m
        tensor_mor[(m, 0)] = m
    for pair, value in product.items():
        tensor_mor[pair] = square[value]
    return FiniteCategoryInstance(
        objects=("e", "a"),
        morphisms=("1e", "1a", "p", "q"),
        dom=(0, 1, 1, 1),
        cod=(0, 1, 1, 1),
        identity=(0, 1),
        compose=compose,
        tensor_obj={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        tensor_mor=tensor_mor,
        unit=0,
    )


def test_a_non_associative_tensor_is_caught_once():
    report = check_partially_monoidal(_skewed_tensor_instance())
    assert len(report) == 1
    assert report[0].kind == "associativity-definedness"
    assert report[0].witness == (1, 1, 1)


def test_every_violation_names_a_checkable_witness(t1):
    inst = extract_instance(t1)
    key = sorted(inst.tensor_mor)[-1]
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
    for violation in check_partially_monoidal(corrupted):
        f, g = violation.witness
        assert 0 <= f < len(inst.morphisms)
        assert 0 <= g < len(inst.morphisms)
        assert violation.message


@pytest.mark.parametrize(
    "table, kind, name",
    [
        ("compose", "category-composition", "composition"),
        ("tensor_mor", "functoriality", "morphism tensor"),
    ],
)
@pytest.mark.parametrize("past_the_end", [True, False])
def test_a_table_value_that_names_no_morphism_is_one_violation(t1, table, kind, name, past_the_end):
    inst = extract_instance(t1)
    value = len(inst.morphisms) if past_the_end else -1
    for key in sorted(getattr(inst, table)):
        broken = dict(getattr(inst, table))
        broken[key] = value
        report = check_partially_monoidal(dataclasses.replace(inst, **{table: broken}))
        assert report == (
            Violation(kind, key, f"{name} entry {key} -> {value} names no morphism"),
        )


@pytest.mark.parametrize(
    "table, kind, name",
    [
        ("compose", "category-composition", "composition"),
        ("tensor_mor", "functoriality", "morphism tensor"),
    ],
)
@pytest.mark.parametrize(
    "key, value",
    [
        (("a", 0), 0),
        ((0, "a"), 0),
        ((0, 0, 0), 0),
        ((0,), 0),
        (5, 0),
        (None, 0),
        ("ab", 0),
        ((0.5, 0), 0),
        ((0, 0.5), 0),
        ("existing", None),
        ("existing", "x"),
        ("existing", 0.5),
        ("existing", 1.0),
    ],
)
def test_a_table_entry_that_is_not_ints_is_one_violation(t1, table, kind, name, key, value):
    # Added under a key that is not a pair of ints, or given a value that is
    # not an int under a key already in the table.  A float passes a range
    # test but names no morphism.
    inst = extract_instance(t1)
    broken = dict(getattr(inst, table))
    if key == "existing":
        key = sorted(broken)[1]
    broken[key] = value
    report = check_partially_monoidal(dataclasses.replace(inst, **{table: broken}))
    assert report == (
        Violation(kind, key, f"{name} entry {key} -> {value!r} names no morphism"),
    )


# Each change rewrites one entry of one table.  The "within-hom"
# reassignment keeps the composite's endpoints and the "off-diagonal"
# deletion spares the (a, a) object tensors, as the benchmark's planted
# corruptions do.  A "stray" composition entry has a key (g, f) with
# dom g != cod f: the checker's rows hold no place for it, so it is read
# from the table where a composite with wrong endpoints leads there.
CHANGES = (
    ("compose", "delete"),
    ("compose", "reassign"),
    ("compose", "reassign-within-hom"),
    ("compose", "stray"),
    ("tensor_mor", "delete"),
    ("tensor_mor", "reassign"),
    ("tensor_obj", "delete"),
    ("tensor_obj", "delete-off-diagonal"),
    ("tensor_obj", "reassign"),
)


def _change(inst: FiniteCategoryInstance, rng: random.Random, table: str, change: str):
    entries = dict(getattr(inst, table))

    def hom_of(key):
        g, f = key
        return inst.hom_sets.get((inst.dom[f], inst.cod[g]), ())

    if change == "stray":
        # Give g f a value m with other endpoints, then add the key the
        # search term by term reads next to it: (h, m) for h after g, or
        # (m, k) for k before f.
        n = len(inst.morphisms)
        g, f = rng.choice(sorted(entries))
        m = rng.choice(
            [m for m in range(n) if (inst.dom[m], inst.cod[m]) != (inst.dom[f], inst.cod[g])]
        )
        entries[g, f] = m
        if inst.dom[m] != inst.dom[f] and (inst.cod[m] == inst.cod[g] or rng.random() < 0.5):
            key = (m, rng.choice([k for k in range(n) if inst.cod[k] == inst.dom[f]]))
        else:
            key = (rng.choice(inst.by_dom[inst.cod[g]]), m)
        entries[key] = rng.randrange(n)
        return dataclasses.replace(inst, **{table: entries})

    keys = sorted(entries)
    if change == "reassign-within-hom":
        keys = [k for k in keys if len(hom_of(k)) > 1]
    elif change == "delete-off-diagonal":
        keys = [k for k in keys if k[0] != k[1]]
    key = rng.choice(keys)
    if change.startswith("delete"):
        del entries[key]
    elif change == "reassign-within-hom":
        entries[key] = rng.choice([m for m in hom_of(key) if m != entries[key]])
    else:
        size = len(inst.objects) if table == "tensor_obj" else len(inst.morphisms)
        entries[key] = rng.randrange(size)
    return dataclasses.replace(inst, **{table: entries})


def _corrupted(clean: FiniteCategoryInstance, rng: random.Random, first: tuple[str, str]):
    """The given change plus up to two random ones; table order may be shuffled.

    Violations of one table are reported in that table's order, so a
    shuffle is a change the oracle must agree on too.
    """
    inst = _change(clean, rng, *first)
    for _ in range(rng.randrange(3)):
        inst = _change(inst, rng, *rng.choice(CHANGES))
    if rng.random() < 0.5:
        table = rng.choice(("compose", "tensor_obj", "tensor_mor"))
        items = list(getattr(inst, table).items())
        rng.shuffle(items)
        inst = dataclasses.replace(inst, **{table: dict(items)})
    return inst


@pytest.mark.parametrize("theory, per_change", [("t1", 16), ("t5", 8), ("t2", 1)])
def test_violations_match_the_brute_force_oracle(request, theory, per_change):
    clean = extract_instance(request.getfixturevalue(theory))
    rng = random.Random(20190)
    instances = [clean]
    for first in CHANGES:
        instances += [_corrupted(clean, rng, first) for _ in range(per_change)]
    found = 0
    for inst in instances:
        report = check_partially_monoidal(inst)
        assert report == oracles.pmcat_violations(inst)
        found += len(report)
    assert found > len(instances)


@pytest.mark.parametrize("theory", ["t1", "t5"])
def test_the_interchange_law_read_once_per_mirrored_pair_matches_the_oracle(request, theory):
    # A tensor entry and its swap reassigned to one other morphism of their
    # hom-set keep the table mirrored, so each mirrored pair of interchange
    # cells is read once; one entry reassigned alone is not mirrored, and
    # every cell is read.  The one diagonal entry, the unit identity's
    # (u, u), is reassigned in the first case; in the second, a planted
    # a u = b and a pair u x b = b x u = a break the law in its own block.
    clean = extract_instance(request.getfixturevalue(theory))
    tensor = clean.tensor_mor

    def hom_of(m):
        return clean.hom_sets[(clean.dom[m], clean.cod[m])]

    rng = random.Random(34)
    ((diagonal, u),) = ((key, m) for key, m in tensor.items() if key[0] == key[1])
    movable = [key for key in sorted(tensor) if key[0] < key[1] and len(hom_of(tensor[key])) > 1]
    pairs = []
    for key in rng.sample(movable, 4):
        value = rng.choice([m for m in hom_of(tensor[key]) if m != tensor[key]])
        pairs.append({key: value, key[::-1]: value})
    a, b = rng.sample([m for m in clean.by_dom[clean.unit] if m != u], 2)
    other = rng.choice([m for m in range(len(clean.morphisms)) if m != u])
    # (tensor change, composition change, mirrored)
    cases = [
        ({**pairs[0], diagonal: other}, {}, True),
        ({(u, b): a, (b, u): a}, {(a, u): b}, True),
        *((pair, {}, True) for pair in pairs[1:]),
        *(({key: value}, {}, False) for pair in pairs[1:] for key, value in [min(pair.items())]),
    ]
    for tensor_change, compose_change, mirrored in cases:
        inst = dataclasses.replace(
            clean,
            tensor_mor={**tensor, **tensor_change},
            compose={**clean.compose, **compose_change},
        )
        assert emergent.pmcat._rows(inst).mirrored is mirrored
        report = check_partially_monoidal(inst)
        assert report == oracles.pmcat_violations(inst)
        interchange = [v.witness for v in report if len(v.witness) == 4]
        assert interchange
        if compose_change:
            assert (u, u, a, u) in interchange and (a, u, u, u) in interchange


def test_a_composite_with_the_wrong_codomain_is_searched_term_by_term():
    # g f is recorded as k, which ends at D instead of C.  The rows of
    # h (g f) and (h g) f then run over different h and may look alike
    # -- here both are (k,) -- so only the term-by-term search sees that
    # the stray entry for idC after k breaks associativity.
    compose = {(i, i): i for i in range(4)}
    compose.update({(1, 4): 4, (4, 0): 4, (2, 5): 5, (5, 1): 5, (3, 6): 6, (6, 0): 6})
    compose[(5, 4)] = 6
    compose[(2, 6)] = 4
    inst = FiniteCategoryInstance(
        objects=("A", "B", "C", "D"),
        morphisms=("1A", "1B", "1C", "1D", "f", "g", "k"),
        dom=(0, 1, 2, 3, 0, 1, 0),
        cod=(0, 1, 2, 3, 1, 2, 3),
        identity=(0, 1, 2, 3),
        compose=compose,
        tensor_obj={(0, 0): 0},
        tensor_mor={(0, 0): 0},
        unit=0,
    )
    report = check_partially_monoidal(inst)
    assert report == oracles.pmcat_violations(inst)
    assert Violation(
        "category-composition", (2, 5, 4), "composition is not associative on this triple"
    ) in report


def test_a_tensor_with_wrong_endpoints_is_composed_through_a_stray_entry(t1):
    # The unit identity's tensor with itself is recorded as a preparation
    # m, so (1e x 1e)(1e x 1e) is read as m after m: the stray composition
    # key (m, m), which the rows hold no place for.
    inst = extract_instance(t1)
    e = inst.identity[inst.unit]
    m = next(
        m
        for m in range(len(inst.morphisms))
        if inst.dom[m] == inst.unit and inst.cod[m] != inst.unit
    )
    tensor_mor = dict(inst.tensor_mor)
    tensor_mor[e, e] = m
    compose = dict(inst.compose)
    compose[m, m] = e
    inst = dataclasses.replace(inst, compose=compose, tensor_mor=tensor_mor)
    report = check_partially_monoidal(inst)
    assert report == oracles.pmcat_violations(inst)
    assert Violation(
        "functoriality", (e, e, e, e), "tensor does not commute with composition"
    ) in report


def test_a_unit_that_is_not_an_object_is_one_unit_violation(t1):
    inst = extract_instance(t1)
    for unit in (len(inst.objects), -1, 0.5, None):
        report = check_partially_monoidal(dataclasses.replace(inst, unit=unit))
        assert report == (Violation("unit", (unit,), f"the unit {unit} is not an object"),)


# pmcat-audit's four planted corruption kinds, as single changes above.
AUDIT_CHANGES = (
    ("compose", "delete"),
    ("compose", "reassign-within-hom"),
    ("tensor_mor", "delete"),
    ("tensor_obj", "delete-off-diagonal"),
)


@pytest.mark.parametrize("theory, per_change", [("t1", 16), ("t5", 8), ("t2", 2)])
def test_some_generator_fails_exactly_when_the_row_search_finds_a_triple(
    request, monkeypatch, theory, per_change
):
    # Light's test, the search with the generating set as its middles, runs
    # only where every composite is present with the right endpoints; there
    # it must agree with the search over every middle, and the triples of
    # the first failing pair it stops at must be among that search's.
    clean = extract_instance(request.getfixturevalue(theory))
    rng = random.Random(20191)
    instances = [clean]
    for first in CHANGES:
        instances += [_corrupted(clean, rng, first) for _ in range(per_change)]
    for change in AUDIT_CHANGES:
        instances += [_change(clean, rng, *change) for _ in range(per_change)]
    search = emergent.pmcat._associativity_failures
    outcomes = []

    def spy(inst, rows, middles, first=False):
        found = search(inst, rows, middles, first)
        if first:
            outcomes.append(found == [])
            every = search(inst, rows, range(len(inst.morphisms)))
            assert (found == []) == (every == [])
            assert set(found) <= set(every)
        return found

    monkeypatch.setattr(emergent.pmcat, "_associativity_failures", spy)
    for inst in instances:
        check_partially_monoidal(inst)
    assert set(outcomes) == {True, False}
    assert len(outcomes) < len(instances)


def test_the_first_failing_pair_holds_triples_the_full_search_reports(t1):
    # A reassigned composite: the search with ``first`` stops at one pair
    # (g, f) and returns its triples, each one the full search reports too.
    clean = extract_instance(t1)
    key = max(clean.compose)
    g, f = key
    value = next(
        m for m in clean.hom_sets[(clean.dom[f], clean.cod[g])] if m != clean.compose[key]
    )
    inst = dataclasses.replace(clean, compose={**clean.compose, key: value})
    rows = emergent.pmcat._rows(inst)
    search = emergent.pmcat._associativity_failures
    every = range(len(inst.morphisms))
    full = search(inst, rows, every)
    found = search(inst, rows, every, first=True)
    assert found and len({(g, f) for _, g, f in found}) == 1
    assert set(found) <= set(full)
    # Ordered by f, then g, then h, as the report lists them.
    assert full == sorted(full, key=lambda t: t[::-1])
    assert full == [v.witness for v in check_partially_monoidal(inst) if len(v.witness) == 3]


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2"])
def test_the_greedy_generators_span_every_morphism(request, theory):
    inst = extract_instance(request.getfixturevalue(theory))
    generators = emergent.pmcat._generating_set(inst, emergent.pmcat._rows(inst))

    def span(members):
        spanned = set(members)
        while True:
            new = {
                h
                for (g, f), h in inst.compose.items()
                if g in spanned and f in spanned and h not in spanned
            }
            if not new:
                return spanned
            spanned |= new

    # Greedy, in morphism order: no generator is spanned by the ones
    # before it, and together they span every morphism.
    assert generators == sorted(generators)
    spanned: set[int] = set()
    for a in generators:
        assert a not in spanned
        spanned = span(spanned | {a})
    assert spanned == set(range(len(inst.morphisms)))


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2", "d5", "f20", "a4", "s3_regular"])
def test_a_clean_category_never_enters_the_row_search(request, monkeypatch, theory):
    cat = build_process_category(request.getfixturevalue(theory))
    search = emergent.pmcat._associativity_failures
    searched = []

    def spy(inst, rows, middles, first=False):
        searched.append(first)
        return search(inst, rows, middles, first)

    monkeypatch.setattr(emergent.pmcat, "_associativity_failures", spy)
    assert check_partially_monoidal(instance_from_category(cat)) == ()
    assert check_partially_monoidal(extract_instance(request.getfixturevalue(theory))) == ()
    # Only the generator search ran, once per check.
    assert searched == [True, True]


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2", "d5", "f20", "a4", "s3_regular"])
def test_a_built_category_s_morphism_tensor_is_mirrored(request, theory):
    # A composite system is the join of two commuting subgroups, so the
    # tensor is strictly symmetric and the checker reads the interchange
    # law once per mirrored pair of cells.
    cat = build_process_category(request.getfixturevalue(theory))
    assert emergent.pmcat._rows(emergent.pmcat.category_tables(cat)).mirrored


def test_a_bool_tensor_key_is_read_cell_by_cell(t1):
    # False names morphism 0 but prints otherwise, so a witness read off the
    # swap of a key holding it would not be the tuple that a full read
    # reports.  The entry (m, False) and its swap are reassigned together.
    clean = extract_instance(t1)
    key = max(k for k in clean.tensor_mor if k[1] == 0)
    m = clean.tensor_mor[key]
    value = min(x for x in clean.hom_sets[clean.dom[m], clean.cod[m]] if x != m)
    tensor = {((k[0], False) if k == key else k): m for k, m in clean.tensor_mor.items()}
    tensor[key] = tensor[key[::-1]] = value
    inst = dataclasses.replace(clean, tensor_mor=tensor)
    rows = emergent.pmcat._rows(inst)
    assert not rows.mirrored
    full = emergent.pmcat._check_functoriality(inst, rows._replace(mirrored=False))
    report = check_partially_monoidal(inst)
    assert any(type(x) is bool for v in full for x in v.witness)
    assert repr([v for v in report if v.kind == "functoriality"]) == repr(full)


@pytest.mark.parametrize("position", [0, 1])
def test_a_bool_tensor_key_gives_the_oracles_witnesses(t5, position):
    # True and False name morphisms 1 and 0 but print otherwise.  A witness
    # the checker reads off the table's keys is spelled as the table spells
    # it; one it reads off its own rows is the int it names, as in the
    # oracle: fullness's present entries and the interchange law's g and q.
    clean = extract_instance(t5)
    ends = [(clean.dom[1], clean.dom[1]), (clean.cod[1], clean.cod[1])]
    assert not all(pair in clean.tensor_obj for pair in ends)
    planted = dict(clean.tensor_mor)
    planted[(1, True) if position else (True, 1)] = 0
    # An entry with morphism 0 at ``position``, rekeyed to False and
    # reassigned alone, then together with its swap.
    key = max(k for k in clean.tensor_mor if k[position] == 0 and k[1 - position] != 0)
    spelled = (key[0], False) if position else (False, key[1])
    m = clean.tensor_mor[key]
    value = min(x for x in clean.hom_sets[clean.dom[m], clean.cod[m]] if x != m)
    rekeyed = {(spelled if k == key else k): v for k, v in clean.tensor_mor.items()}
    rekeyed[spelled] = value
    both = {**rekeyed, key[::-1]: value}
    kinds = []
    for tensor in (planted, rekeyed, both):
        inst = dataclasses.replace(clean, tensor_mor=tensor)
        report = check_partially_monoidal(inst)
        assert repr(report) == repr(oracles.pmcat_violations(inst))
        kinds.append({v.kind for v in report})
    assert "fullness" in kinds[0]
    assert {"functoriality", "symmetry"} <= kinds[1]
    assert "functoriality" in kinds[2] and "symmetry" not in kinds[2]


def test_an_identity_with_wrong_endpoints_is_reported_as_the_oracle_does(t1):
    # Object 1's identity planted as object 0's.
    clean = extract_instance(t1)
    identity = (clean.identity[0], clean.identity[0], *clean.identity[2:])
    inst = dataclasses.replace(clean, identity=identity)
    report = check_partially_monoidal(inst)
    assert repr(report) == repr(oracles.pmcat_violations(inst))
    assert report == (
        Violation(
            "category-identity", (1,), f"identity of {clean.objects[1]} has wrong endpoints"
        ),
    )


def test_a_fault_off_the_generators_is_still_reported(t1):
    # A reassigned composite whose report holds a triple (h, g, f) with g
    # outside the corrupted instance's generating set: Light's test fails
    # on some generator, and the search over every triple finds this one.
    clean = extract_instance(t1)
    found = None
    for key in sorted(clean.compose):
        g, f = key
        for value in clean.hom_sets[(clean.dom[f], clean.cod[g])]:
            if value == clean.compose[key]:
                continue
            compose = dict(clean.compose)
            compose[key] = value
            inst = dataclasses.replace(clean, compose=compose)
            generators = emergent.pmcat._generating_set(inst, emergent.pmcat._rows(inst))
            report = check_partially_monoidal(inst)
            off = [
                v
                for v in report
                if len(v.witness) == 3 and v.witness[1] not in generators
            ]
            if off:
                found = inst, report, off
                break
        if found:
            break
    assert found is not None
    inst, report, off = found
    assert report == oracles.pmcat_violations(inst)
    assert all(v.message == "composition is not associative on this triple" for v in off)


def _one_object_instance(**tables) -> FiniteCategoryInstance:
    inst = FiniteCategoryInstance(
        objects=("a",),
        morphisms=("1a",),
        dom=(0,),
        cod=(0,),
        identity=(0,),
        compose={(0, 0): 0},
        tensor_obj={(0, 0): 0},
        tensor_mor={(0, 0): 0},
        unit=0,
    )
    return dataclasses.replace(inst, **tables)


def test_the_one_object_instance_is_valid():
    assert check_partially_monoidal(_one_object_instance()) == ()


@pytest.mark.parametrize("value", [5, 1, -1, 0.0, None, "0"])
def test_an_identity_that_names_no_morphism_is_one_violation(value):
    report = check_partially_monoidal(_one_object_instance(identity=(value,)))
    assert report == (
        Violation("category-identity", (0,), f"identity entry 0 -> {value!r} names no morphism"),
    )


@pytest.mark.parametrize("table, name", [("dom", "domain"), ("cod", "codomain")])
@pytest.mark.parametrize("value", [3, 7, 1, -1, 0.0, None])
def test_an_endpoint_that_names_no_object_is_one_violation(table, name, value):
    report = check_partially_monoidal(_one_object_instance(**{table: (value,)}))
    assert report == (
        Violation("category-composition", (0,), f"{name} entry 0 -> {value!r} names no object"),
    )


@pytest.mark.parametrize(
    "table, kind, name",
    [
        ("identity", "category-identity", "identity"),
        ("dom", "category-composition", "domain"),
        ("cod", "category-composition", "codomain"),
    ],
)
@pytest.mark.parametrize("entries", [(), (0, 0)])
def test_an_endpoint_table_of_the_wrong_length_is_one_violation(table, kind, name, entries):
    report = check_partially_monoidal(_one_object_instance(**{table: entries}))
    assert report == (
        Violation(kind, (min(len(entries), 1),), f"{name} table has {len(entries)} entries, not 1"),
    )


def test_each_malformed_endpoint_entry_is_reported(t1):
    # A malformed endpoint table stops every other check, since each reads
    # the endpoints; every bad entry of every such table is still named.
    inst = extract_instance(t1)
    n_obj, n_mor = len(inst.objects), len(inst.morphisms)
    dom = (n_obj,) + inst.dom[1:-1] + (-1,)
    identity = inst.identity[:-1]
    report = check_partially_monoidal(dataclasses.replace(inst, dom=dom, identity=identity))
    assert report == (
        Violation("category-composition", (0,), f"domain entry 0 -> {n_obj} names no object"),
        Violation("category-composition", (n_mor - 1,), f"domain entry {n_mor - 1} -> -1 names no object"),
        Violation("category-identity", (n_obj - 1,), f"identity table has {n_obj - 1} entries, not {n_obj}"),
    )


@pytest.mark.parametrize("value", [4, 1, -1, 0.5, None])
def test_an_object_tensor_that_names_no_object_is_one_violation(value):
    report = check_partially_monoidal(_one_object_instance(tensor_obj={(0, 0): value}))
    assert report == (
        Violation(
            "associativity-definedness",
            (0, 0),
            f"object tensor entry (0, 0) -> {value!r} names no object",
        ),
    )


@pytest.mark.parametrize("theory", ["t1", "t2"])
@pytest.mark.parametrize("past_the_end", [True, False])
def test_an_object_tensor_value_that_names_no_object_is_one_violation(request, theory, past_the_end):
    # Its key is still defined for fullness, repleteness and symmetry, and
    # no check compares its value.
    inst = extract_instance(request.getfixturevalue(theory))
    value = len(inst.objects) if past_the_end else -1
    for key in sorted(inst.tensor_obj):
        broken = dict(inst.tensor_obj)
        broken[key] = value
        report = check_partially_monoidal(dataclasses.replace(inst, tensor_obj=broken))
        assert report == (
            Violation(
                "associativity-definedness",
                key,
                f"object tensor entry {key} -> {value} names no object",
            ),
        )


@pytest.mark.parametrize("key", [(0, 99), (-1, 0), (0.5, 0), (0, 0, 0), (0,), 5, None, "ab"])
def test_an_object_tensor_key_that_names_no_object_pair_is_one_violation(t1, key):
    inst = extract_instance(t1)
    broken = dict(inst.tensor_obj)
    broken[key] = 0
    report = check_partially_monoidal(dataclasses.replace(inst, tensor_obj=broken))
    assert report == (
        Violation(
            "associativity-definedness", key, f"object tensor entry {key} -> 0 names no object"
        ),
    )


def test_the_audit_matrix_fingerprints_every_planted_kind_at_each_seed():
    script = Path(__file__).resolve().parent.parent / "scripts" / "audit_matrix.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
    rows = [line.split("\t") for line in run.stdout.splitlines()]
    assert len(rows) == 129 and {len(row) for row in rows} == {6}
    # The three clean instances, with empty reports.
    assert [row[:3] + row[4:5] for row in rows[:3]] == [
        ["-", name, "clean", "0"] for name in ("s4", "s3_diagonal", "s3x3")
    ]
    # Then, at each seed, three plants of each of the workload's four kinds
    # in each instance, and the script's own pair and single tensor
    # reassignment in each, every one reported.
    for seed, start in zip("123", range(3, 129, 42)):
        block = rows[start : start + 42]
        assert {row[0] for row in block} == {seed}
        assert [row[2] for row in block[36:]] == 3 * [
            "reassign-tensor_mor-pair", "reassign-tensor_mor",
        ]
        assert {row[2] for row in block[:36]} == {
            "delete-compose", "reassign-compose", "delete-tensor_mor", "delete-tensor_obj",
        }
        assert "0" not in {row[4] for row in block}
