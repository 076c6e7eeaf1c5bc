"""Pure and full processes, typed pairs, effects, and generation."""

from __future__ import annotations

import array
import gc
import random

import pytest

import oracles
from emergent import (
    ElementNotInGroup,
    ElementNotInOwner,
    GenerationReport,
    IncompatibleSystems,
    MorphismClass,
    NotNested,
    PairState,
    Perm,
    Process,
    ProcessCategory,
    ResourceLimit,
    StateNotInPair,
    Subgroup,
    TypeMismatch,
    act_local,
    are_compatible,
    build_process_category,
    commutant,
    compose_process,
    discard_process,
    enumerate_self_bicommutant,
    enumerate_systems,
    generate_group,
    is_product_state,
    iterated_restrict,
    make_pair,
    make_process,
    make_system,
    pair_composite,
    pair_states,
    process_codomain,
    restrict,
    subgroup_closure,
    tensor_processes,
    tensor_pure_states,
    tensor_systems,
    trivial_system,
    validate_global_theory,
    verify_generation,
)
import emergent.checks
import emergent.pmcat
import emergent.processes
from emergent.checks import run_suites
from emergent.processes import (
    _names,
    _names_pair,
    default_system_seeds,
    process_table,
    system_universe,
)
from emergent.sectors import check_special_pair_claims, parse_decomposition
from emergent.states import state_key
from emergent.systems import system_key

ROWS = ((3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
COLS = ((1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))
ROW_SWAP_01 = Perm((3, 4, 5, 0, 1, 2, 6, 7, 8))
COL_SWAP_12 = Perm((0, 2, 1, 3, 5, 4, 6, 8, 7))


def _sub(theory, image_tuples):
    return subgroup_closure(theory.group, [Perm(t) for t in image_tuples])


def _rows_cols(t2):
    return (
        make_system(t2, _sub(t2, ROWS)),
        make_system(t2, _sub(t2, COLS)),
    )


def _pure(theory, system, ancilla, prep, transform):
    """A pure process on ``system``: between pairs with the trivial
    environment, it keeps the whole composite and discards nothing."""
    unit = trivial_system(theory)
    return make_process(
        theory,
        make_pair(theory, system, unit),
        ancilla,
        prep,
        transform,
        tensor_systems(theory, system, ancilla),
        unit,
    )


def _identity(theory, pair):
    """The process on ``pair`` that prepares, changes and discards nothing."""
    unit = trivial_system(theory)
    return make_process(
        theory, pair, unit, unit.pure_orbit[0], theory.group.identity, pair.system, unit
    )


def _pair_state(theory, pair, purification):
    """The state of ``pair`` purified by a pure state of its composite."""
    assert purification in pair_composite(theory, pair).pure_set
    value = iterated_restrict(theory, pair.system.transf, purification)
    return PairState(pair, value, purification)


def _state_map(theory, proc):
    """Each input state paired with ``apply_process`` of it."""
    return tuple(
        (state, oracles.apply_process(theory, proc, state))
        for state in pair_states(theory, proc.domain)
    )


def test_identity_pure_is_the_identity(t2):
    rows, _ = _rows_cols(t2)
    ident = _identity(t2, make_pair(t2, rows, trivial_system(t2)))
    for rho in rows.pure_orbit:
        state = _pair_state(t2, ident.domain, rho)
        assert oracles.apply_process(t2, ident, state).value == rho


def test_pure_preparation_maps_the_unit_state(t2):
    rows, _ = _rows_cols(t2)
    unit = trivial_system(t2)
    for sigma in rows.pure_orbit:
        prep = _pure(t2, unit, rows, sigma, t2.group.identity)
        state = _pair_state(t2, prep.domain, unit.pure_orbit[0])
        assert oracles.apply_process(t2, prep, state).value == sigma


def test_pure_process_with_an_active_ancilla(t2):
    rows, cols = _rows_cols(t2)
    u = ROW_SWAP_01 * COL_SWAP_12
    proc = _pure(t2, rows, cols, cols.pure_orbit[0], u)
    row0 = restrict(t2, rows.transf, 0)
    image = oracles.apply_process(t2, proc, _pair_state(t2, proc.domain, row0)).value
    assert image.points == frozenset({u[0]})
    assert u[0] == 3


def test_pure_process_rejects_foreign_input(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    ident = _identity(t2, make_pair(t2, rows, unit))
    foreign = _pair_state(t2, make_pair(t2, cols, unit), cols.pure_orbit[0])
    with pytest.raises(StateNotInPair):
        oracles.apply_process(t2, ident, foreign)


def test_compose_pure_type_checking_and_tables(t2):
    rows, _ = _rows_cols(t2)
    unit = trivial_system(t2)
    u = ROW_SWAP_01
    first = _pure(t2, rows, unit, unit.pure_orbit[0], u)
    second = _pure(t2, rows, unit, unit.pure_orbit[0], u)
    chained = compose_process(t2, second, first)
    for state in pair_states(t2, first.domain):
        assert oracles.apply_process(t2, chained, state) == oracles.apply_process(
            t2, second, oracles.apply_process(t2, first, state)
        )
    prep = _pure(t2, unit, rows, rows.pure_orbit[0], t2.group.identity)
    with pytest.raises(TypeMismatch):
        compose_process(t2, prep, first)


def test_compose_pure_with_identity_is_extensional_identity(t2):
    rows, _ = _rows_cols(t2)
    unit = trivial_system(t2)
    proc = _pure(t2, rows, unit, unit.pure_orbit[0], ROW_SWAP_01)
    ident = _identity(t2, proc.domain)
    composite = compose_process(t2, proc, ident)
    assert _state_map(t2, composite) == _state_map(t2, proc)


def test_interchange_of_tensor_and_composition(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    one = unit.pure_orbit[0]
    p = _pure(t2, rows, unit, one, ROW_SWAP_01)
    p2 = _pure(t2, rows, unit, one, Perm((6, 7, 8, 3, 4, 5, 0, 1, 2)))
    q = _pure(t2, cols, unit, one, COL_SWAP_12)
    q2 = _pure(t2, cols, unit, one, Perm((1, 0, 2, 4, 3, 5, 7, 6, 8)))
    left = tensor_processes(
        t2, compose_process(t2, p2, p), compose_process(t2, q2, q)
    )
    right = compose_process(
        t2, tensor_processes(t2, p2, q2), tensor_processes(t2, p, q)
    )
    assert _state_map(t2, left) == _state_map(t2, right)


def test_tensor_with_the_identity_on_the_unit(t2):
    rows, _ = _rows_cols(t2)
    unit = trivial_system(t2)
    proc = _pure(t2, rows, unit, unit.pure_orbit[0], ROW_SWAP_01)
    widened = tensor_processes(t2, proc, _identity(t2, make_pair(t2, unit, unit)))
    assert _state_map(t2, widened) == _state_map(t2, proc)


def test_pair_state_values(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    with_unit = pair_states(t2, make_pair(t2, rows, unit))
    assert tuple(s.value for s in with_unit) == rows.pure_orbit
    with_cols = pair_states(t2, make_pair(t2, rows, cols))
    assert tuple(s.value for s in with_cols) == rows.pure_orbit
    env_only = pair_states(t2, make_pair(t2, unit, cols))
    assert len(env_only) == 1
    assert env_only[0].value.points == frozenset(t2.points)


def test_pair_state_equality_ignores_the_purification(t2):
    rows, cols = _rows_cols(t2)
    pair = make_pair(t2, rows, cols)
    whole = tensor_systems(t2, rows, cols)
    same_row = [s for s in whole.pure_orbit if s.representative in (0, 1)]
    assert len(same_row) == 2
    first = _pair_state(t2, pair, same_row[0])
    second = _pair_state(t2, pair, same_row[1])
    assert first == second
    assert hash(first) == hash(second)
    assert first.purification != second.purification


def test_morphism_class_equality_ignores_the_representative(t1):
    cat = build_process_category(t1)
    c, other = cat.classes[0], cat.classes[-1]
    moved = MorphismClass(c.dom, c.cod, c.table, other.representative)
    assert moved.representative != c.representative
    assert moved == c
    assert hash(moved) == hash(c)
    assert moved != MorphismClass(c.dom, c.cod, other.table, c.representative)


def test_value_types_hash_as_the_fields_they_compare(t1):
    # Set iteration order feeds CLI output, so each value type keeps the
    # hash it has always had: that of the tuple of its compared fields.
    cat = build_process_category(t1)
    lattice = enumerate_self_bicommutant(t1)
    c = cat.classes[-1]
    proc = c.representative
    state = pair_states(t1, proc.domain)[-1]
    verdict = is_product_state(t1, lattice.nodes[1], 0)
    report = verify_generation(t1, cat)
    suite = run_suites(t1, ("processes",))[0]
    violation = emergent.pmcat.Violation("unit", (0,), "planted")
    decomp = parse_decomposition("2x3 + 1x1")
    special = check_special_pair_claims(parse_decomposition("2x3"))
    cases = [
        (t1.group, (t1.group.degree, t1.group.elements)),
        (lattice, (lattice.theory, lattice.nodes)),
        (proc.prep, (proc.prep.owner, proc.prep.points)),
        (proc.ancilla, (proc.ancilla.transf, proc.ancilla.pure_orbit)),
        (verdict, (verdict.state, verdict.pure)),
        (proc.domain, (proc.domain.system, proc.domain.environment)),
        (state, (state.pair, state.value)),
        (
            proc,
            (
                proc.domain, proc.ancilla, proc.prep, proc.transform,
                proc.codomain_system, proc.discarded,
            ),
        ),
        (c, (c.dom, c.cod, c.table)),
        (
            report,
            (
                report.pure_total, report.pure_generated, report.full_total,
                report.full_generated, report.transformation_generators,
                report.preparation_generators, report.discard_generators,
            ),
        ),
        (suite, (suite.name, suite.violations, suite.notices)),
        (violation, (violation.kind, violation.witness, violation.message)),
        (decomp, (decomp.sectors,)),
        (
            special,
            (
                special.decomposition, special.commutant, special.kind,
                special.orthogonal, special.orthocomplementary,
                special.centre_rank, special.join, special.join_full,
            ),
        ),
    ]
    for value, fields in cases:
        assert hash(value) == hash(fields), type(value).__name__
    # A theory hashes as its group; a category is an immutable tuple of its
    # fields, but its tables are mappings, so it is unhashable.
    assert hash(t1) == hash(t1.group)
    assert cat == tuple(getattr(cat, f) for f in ProcessCategory._fields)
    with pytest.raises(AttributeError):
        cat.unit = 0
    with pytest.raises(TypeError):
        hash(cat)


def test_identity_process_fixes_every_pair_state(t2):
    rows, cols = _rows_cols(t2)
    for env in (trivial_system(t2), cols):
        pair = make_pair(t2, rows, env)
        ident = _identity(t2, pair)
        for state in pair_states(t2, pair):
            assert oracles.apply_process(t2, ident, state) == state


def test_discard_process_collapses_everything(t2):
    rows, cols = _rows_cols(t2)
    pair = make_pair(t2, rows, cols)
    top = discard_process(t2, pair)
    outputs = {oracles.apply_process(t2, top, s).value for s in pair_states(t2, pair)}
    assert len(outputs) == 1
    assert next(iter(outputs)).points == frozenset(t2.points)


def test_make_process_type_constraint(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    pair = make_pair(t2, rows, unit)
    with pytest.raises(TypeMismatch):
        make_process(t2, pair, unit, unit.pure_orbit[0], t2.group.identity, cols, unit)


def test_process_table_rejects_a_transform_outside_the_joint_owner(t2):
    # ``make_process`` would refuse this process; built by hand, only the
    # owner check in ``process_table`` stands between it and a wrong table.
    rows, _ = _rows_cols(t2)
    unit = trivial_system(t2)
    pair = make_pair(t2, rows, unit)
    proc = Process(pair, unit, unit.pure_orbit[0], COL_SWAP_12, rows, unit)
    with pytest.raises(ElementNotInOwner):
        process_table(t2, proc)


def test_prepare_act_discard_table(t2):
    rows, cols = _rows_cols(t2)
    pair = make_pair(t2, rows, trivial_system(t2))
    proc = make_process(
        t2, pair, cols, cols.pure_orbit[0], ROW_SWAP_01, rows, cols
    )
    mapping = {
        src.value.sorted_points: dst.value.sorted_points
        for src, dst in _state_map(t2, proc)
    }
    assert mapping == {
        (0, 1, 2): (3, 4, 5),
        (3, 4, 5): (0, 1, 2),
        (6, 7, 8): (6, 7, 8),
    }


def test_causality_discard_after_anything_is_discard(t2):
    rows, cols = _rows_cols(t2)
    pair = make_pair(t2, rows, trivial_system(t2))
    proc = make_process(
        t2, pair, cols, cols.pure_orbit[0], ROW_SWAP_01, rows, cols
    )
    top_after = discard_process(t2, process_codomain(t2, proc))
    collapsed = compose_process(t2, top_after, proc)
    assert process_table(t2, collapsed) == process_table(t2, discard_process(t2, pair))


def test_compose_process_with_identity(t2):
    rows, _ = _rows_cols(t2)
    pair = make_pair(t2, rows, trivial_system(t2))
    ident = _identity(t2, pair)
    again = compose_process(t2, ident, ident)
    assert process_table(t2, again) == process_table(t2, ident)


def test_generalised_effects_are_unique(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    for pair in (
        make_pair(t2, unit, unit),
        make_pair(t2, rows, unit),
        make_pair(t2, rows, cols),
    ):
        effects = oracles.enumerate_generalised_effects(t2, pair)
        assert len(effects) == 1
        assert process_table(t2, effects[0]) == process_table(
            t2, discard_process(t2, pair)
        )


def test_category_sizes_for_the_smallest_theory(t1):
    everything = build_process_category(t1, systems=enumerate_systems(t1))
    assert len(everything.objects) == 12
    assert len(everything.classes) == 43
    default = build_process_category(t1)
    assert len(default.objects) == 3
    assert len(default.classes) == 13


def test_generation_for_the_smallest_theory(t1):
    everything = build_process_category(t1, systems=enumerate_systems(t1))
    report = verify_generation(t1, everything)
    assert report.pure_ok and report.full_ok
    assert (report.pure_generated, report.pure_total) == (16, 16)
    assert (report.full_generated, report.full_total) == (43, 43)
    assert report.transformation_generators == 17
    assert report.preparation_generators == 6
    assert report.discard_generators == 12


def test_generation_for_two_cells(t2):
    cat = build_process_category(t2)
    assert len(cat.objects) == 9
    assert len(cat.classes) == 169
    report = verify_generation(t2, cat)
    assert (report.pure_generated, report.pure_total) == (100, 100)
    assert (report.full_generated, report.full_total) == (169, 169)


def test_object_cap(t1):
    for cap in (0, 2):
        with pytest.raises(ResourceLimit):
            build_process_category(t1, object_cap=cap)


def test_the_one_point_theory_is_a_single_identity():
    theory = validate_global_theory(generate_group(1, []))
    cat = build_process_category(theory, systems=enumerate_systems(theory))
    assert len(cat.objects) == 1
    assert len(cat.classes) == 1
    report = verify_generation(theory, cat)
    assert report.pure_ok and report.full_ok


def test_tensorable_representatives_commute(t2):
    cat = build_process_category(t2)
    assert cat.tensor_mor
    for ci, cj in cat.tensor_mor:
        h = cat.classes[ci].representative.transform
        k = cat.classes[cj].representative.transform
        assert h * k == k * h


def _assert_same_category(new, old):
    assert new.theory is old.theory
    assert new.universe == old.universe
    assert new.objects == old.objects
    assert len(new.classes) == len(old.classes)
    for mine, theirs in zip(new.classes, old.classes):
        assert (mine.dom, mine.cod, mine.table) == (theirs.dom, theirs.cod, theirs.table)
        assert mine.representative == theirs.representative
    assert new.identity == old.identity
    assert new.unit == old.unit
    # pmcat reads the tables in order, so the item order must agree too.
    for table in ("compose", "tensor_obj", "tensor_mor"):
        assert list(getattr(new, table).items()) == list(getattr(old, table).items())


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2", "d5", "f20", "a4", "s3_regular"])
def test_category_equals_the_first_written_build(request, theory):
    theory = request.getfixturevalue(theory)
    _assert_same_category(
        build_process_category(theory), oracles.build_process_category(theory)
    )


def test_full_universe_category_equals_the_first_written_build(t1):
    systems = enumerate_systems(t1)
    cat = build_process_category(t1, systems=systems)
    _assert_same_category(cat, oracles.build_process_category(t1, systems=systems))
    # Objects with a single state make a one-index itemgetter return a
    # scalar; they must still compose and tensor like the others.
    single = [oi for oi, obj in enumerate(cat.objects) if len(pair_states(t1, obj)) == 1]
    assert single
    assert any(cat.classes[fi].dom in single for _, fi in cat.compose)
    assert any(cat.classes[ci].dom in single for ci, _ in cat.tensor_mor)


def _spy_on_keys(monkeypatch):
    """The names of the class-key routes a build then reads."""
    used = set()
    for keys in (emergent.processes._ByteKeys, emergent.processes._TupleKeys):

        def reader(key, name=keys.__name__, real=keys.reader):
            used.add(name)
            return real(key)

        monkeypatch.setattr(keys, "reader", staticmethod(reader))
    return used


@pytest.mark.parametrize(
    "theory", ["t1", "t2", "t3", "t4", "t5", "d5", "f20", "a4", "s5", "s3_regular"]
)
def test_byte_and_tuple_keys_build_the_same_category(request, theory, monkeypatch):
    theory = request.getfixturevalue(theory)
    used = _spy_on_keys(monkeypatch)
    by_bytes = build_process_category(theory)
    assert used == {"_ByteKeys"}
    used.clear()
    monkeypatch.setattr(emergent.processes, "BYTE_KEY_LIMIT", 0)
    by_tuples = build_process_category(theory)
    assert used == {"_TupleKeys"}
    _assert_same_category(by_tuples, by_bytes)
    assert by_tuples.compose.rows == by_bytes.compose.rows


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2"])
def test_compose_keys_are_the_composable_pairs_in_order(request, theory):
    # processes_suite samples its pairs by position in cat.compose's key
    # order, so the keys must be every composable (gi, fi), in ascending fi
    # and then gi.
    theory = request.getfixturevalue(theory)
    cat = build_process_category(theory)
    assert list(cat.compose) == [
        (gi, fi)
        for fi, f in enumerate(cat.classes)
        for gi, g in enumerate(cat.classes)
        if g.dom == f.cod
    ]


def _compose_dict(cat):
    """The composition from the class tables, as a dict: ascending f, then g."""
    class_index = {(c.dom, c.cod, c.table): i for i, c in enumerate(cat.classes)}
    maps = [dict(c.table) for c in cat.classes]
    return {
        (gi, fi): class_index[(f.dom, g.cod, tuple((k, maps[gi][v]) for k, v in f.table))]
        for fi, f in enumerate(cat.classes)
        for gi, g in enumerate(cat.classes)
        if g.dom == f.cod
    }


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2"])
def test_compose_is_a_read_only_mapping_equal_to_the_dict(request, theory):
    cat = build_process_category(request.getfixturevalue(theory))
    expected = _compose_dict(cat)
    view = cat.compose
    assert type(view) is emergent.processes.CompositionRows
    assert list(view) == list(expected)
    assert list(view.items()) == list(expected.items())
    assert len(view) == len(expected)
    assert dict(view) == expected
    n = len(cat.classes)
    pairs = [(g, f) for g in range(-1, n + 1) for f in range(-1, n + 1)]
    # Keys that are not pairs of ints are absent, as in the dict.
    malformed = [(1, 2, 3), 5, None, ("a", 0), (0.5, 0), (0,), "ab", frozenset({0, 1})]
    for key in pairs + malformed:
        if key in expected:
            assert view[key] == view.get(key) == expected[key]
            assert key in view
        else:
            with pytest.raises(KeyError):
                view[key]
            assert view.get(key) is None
            assert key not in view
    with pytest.raises(TypeError):
        view[(0, 0)] = 0


# 2 000 of s3x3's 5 041 pairs is random.sample's pool branch, 100 its set
# branch, the one s3x3x3's 357 911 pairs take.
@pytest.mark.parametrize("sample", [emergent.checks.COMPOSE_SAMPLE, 100])
def test_processes_suite_draws_the_pairs_the_key_list_draws(t2, monkeypatch, sample):
    cat = build_process_category(t2)
    compared = {compose_process: [], tensor_processes: []}
    per_pair_tables = emergent.checks._per_pair_tables

    def recording(cat, typing_of, combine, outputs_of):
        table = per_pair_tables(cat, typing_of, combine, outputs_of)

        def record(i, j):
            compared[combine].append((i, j))
            return table(i, j)

        return record

    monkeypatch.setattr(emergent.checks, "COMPOSE_SAMPLE", sample)
    monkeypatch.setattr(emergent.checks, "_per_pair_tables", recording)
    assert emergent.checks.processes_suite(cat).violations == ()

    rng = random.Random(emergent.checks.SAMPLE_SEED)
    assert len(cat.compose) > sample
    assert compared[compose_process] == rng.sample(list(cat.compose), sample)
    tensorable = list(cat.tensor_mor)
    if len(tensorable) > sample:
        tensorable = [key for key, _ in rng.sample(list(cat.tensor_mor.items()), sample)]
    assert compared[tensor_processes] == tensorable


@pytest.mark.parametrize("combine", ["compose_process", "tensor_processes"])
def test_processes_suite_types_each_typing_pair_once(t2, monkeypatch, combine):
    # Every make_process check still runs, on the first pair of each typing pair.
    cat = build_process_category(t2)
    made = []
    real = getattr(emergent.checks, combine)

    def counting(theory, a, b):
        made.append((emergent.processes.process_typing(a), emergent.processes.process_typing(b)))
        return real(theory, a, b)

    monkeypatch.setattr(emergent.checks, combine, counting)
    assert emergent.checks.processes_suite(cat).violations == ()
    assert made
    assert len(made) == len(set(made))


def test_processes_suite_numbers_each_class_typing_once(t2, monkeypatch):
    # The compose and the tensor tables read one numbering of the typings.
    cat = build_process_category(t2)
    typed = []

    def counting(process):
        typed.append(process)
        return emergent.processes.process_typing(process)

    monkeypatch.setattr(emergent.checks, "process_typing", counting)
    assert emergent.checks.processes_suite(cat).violations == ()
    assert typed == [c.representative for c in cat.classes]


@pytest.mark.parametrize("theory", ["t5", "t3", "t2"])
def test_the_build_makes_one_product_per_typing_pair(request, theory, monkeypatch):
    theory = request.getfixturevalue(theory)
    made = []

    def counting(theory, left, right):
        made.append((left, right))
        return tensor_processes(theory, left, right)

    monkeypatch.setattr(emergent.processes, "tensor_processes", counting)
    cat = build_process_category(theory)

    def typing(proc):
        return (proc.domain, proc.ancilla, proc.prep, proc.codomain_system, proc.discarded)

    reps = [c.representative for c in cat.classes]
    typing_pairs = {(typing(reps[ci]), typing(reps[cj])) for ci, cj in cat.tensor_mor}
    assert len(made) == len(typing_pairs) < len(cat.tensor_mor)
    assert {(typing(left), typing(right)) for left, right in made} == typing_pairs


def test_process_action_types_its_process_once(t2, monkeypatch):
    cat = build_process_category(t2)
    proc = max((c.representative for c in cat.classes), key=lambda p: len(pair_states(t2, p.domain)))
    states = pair_states(t2, proc.domain)
    assert len(states) > 1
    expected = [oracles.apply_process(t2, proc, s) for s in states]
    calls = []

    def counting(theory, proc):
        calls.append(proc)
        return process_codomain(theory, proc)

    monkeypatch.setattr(emergent.processes, "process_codomain", counting)
    act = emergent.processes.process_action(t2, proc)
    assert [act(s) for s in states] == expected
    assert len(calls) == 1
    other = next(obj for obj in cat.objects if obj != proc.domain)
    with pytest.raises(StateNotInPair):
        act(pair_states(t2, other)[0])


def test_the_tensor_check_catches_a_fault_shared_with_the_build(t1, monkeypatch):
    # With _output_route blind to the dynamics, the build registers each
    # tensor by that state map and process_table repeats it; only applying
    # the tensor to each input state tells them apart.
    output_route = emergent.processes._output_route

    def static(theory, *typing):
        restricted, acted = output_route(theory, *typing)
        return restricted, lambda u: acted(theory.group.identity)

    monkeypatch.setattr(emergent.processes, "_output_route", static)
    cat = build_process_category(t1)
    found = [
        v
        for v in emergent.checks.processes_suite(cat).violations
        if v.startswith("processes: tensoring representatives")
    ]
    reps = [c.representative for c in cat.classes]
    wrong = [
        (ci, cj)
        for (ci, cj), out in cat.tensor_mor.items()
        if oracles.process_table(t1, tensor_processes(t1, reps[ci], reps[cj]))
        != cat.classes[out].table
    ]
    assert wrong
    assert found == [
        f"processes: tensoring representatives of {ci}, {cj} "
        "disagrees with the registered class"
        for ci, cj in wrong
    ]


@pytest.mark.parametrize("theory", ["t1", "t2"])
def test_the_point_route_reads_what_acting_and_restricting_read(request, theory):
    # Every tensorable pair: the least image of a joint state's points gives
    # the state that acting on the joint state and restricting it gives.
    theory = request.getfixturevalue(theory)
    cat = build_process_category(theory)
    reps = [c.representative for c in cat.classes]
    for ci, cj in cat.tensor_mor:
        proc = tensor_processes(theory, reps[ci], reps[cj])
        composite = pair_composite(theory, proc.domain)
        out = proc.codomain_system.transf
        u = proc.transform
        expected = [
            state_key(
                iterated_restrict(
                    theory,
                    out,
                    act_local(
                        theory,
                        u,
                        tensor_pure_states(
                            theory, composite, proc.ancilla, s.purification, proc.prep
                        ),
                    ),
                )
            )
            for s in pair_states(theory, proc.domain)
        ]
        assert list(emergent.checks._purified_outputs(theory, proc)(u)) == expected


def test_the_point_route_raises_what_acting_and_restricting_raise(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    pair = make_pair(t2, rows, unit)
    proc = Process(pair, unit, unit.pure_orbit[0], COL_SWAP_12, rows, unit)
    joint = rows.pure_orbit[0]
    with pytest.raises(ElementNotInOwner) as acting:
        act_local(t2, COL_SWAP_12, joint)
    with pytest.raises(ElementNotInOwner) as reading:
        emergent.checks._purified_outputs(t2, proc)(COL_SWAP_12)
    assert str(reading.value) == str(acting.value)
    # An output system outside the joint owner, with a transformation inside.
    outside = proc._replace(transform=ROW_SWAP_01, codomain_system=cols)
    with pytest.raises(NotNested) as restricting:
        iterated_restrict(t2, cols.transf, joint)
    with pytest.raises(NotNested) as reading:
        emergent.checks._purified_outputs(t2, outside)(ROW_SWAP_01)
    assert str(reading.value) == str(restricting.value)


def test_the_compose_check_reads_each_pairs_dynamics(t2):
    # Swap a representative's transformation for another member of its
    # total: its typing, and so each typing pair, stays, so only reading
    # every sampled pair's own product finds the pairs the swap changes.
    cat = build_process_category(t2)
    rng = random.Random(emergent.checks.SAMPLE_SEED)
    sampled = rng.sample(list(cat.compose), emergent.checks.COMPOSE_SAMPLE)

    def changed(ci, classes):
        reps = [c.representative for c in classes]
        return [
            (gi, fi)
            for gi, fi in sampled
            if ci in (gi, fi)
            and oracles.process_table(t2, compose_process(t2, reps[gi], reps[fi]))
            != cat.classes[cat.compose[(gi, fi)]].table
        ]

    def swaps():
        for ci, c in enumerate(cat.classes):
            rep = c.representative
            for v in tensor_systems(t2, rep.domain.system, rep.ancilla).transf.members:
                swapped = MorphismClass(c.dom, c.cod, c.table, rep._replace(transform=v))
                classes = cat.classes[:ci] + (swapped,) + cat.classes[ci + 1 :]
                pairs = changed(ci, classes)
                # The class is changed both as the first and the second factor.
                if {gi == ci for gi, _ in pairs} == {True, False}:
                    yield classes, pairs

    classes, pairs = next(swaps())
    found = [
        v
        for v in emergent.checks.processes_suite(_replaced(cat, classes=classes)).violations
        if v.startswith("processes: composing")
    ]
    assert found == [
        f"processes: composing representatives of {fi}, {gi} "
        "disagrees with the composite class"
        for gi, fi in pairs
    ]


def test_each_pair_checks_its_product_against_the_total(t2):
    # A pair whose typing pair is already typed skips compose_process, so
    # only the per-pair check sees that its product leaves the total.
    cat = build_process_category(t2)
    typing = [emergent.processes.process_typing(c.representative) for c in cat.classes]
    gi, fi, first = next(
        (gi, fi, other)
        for fi, f in enumerate(cat.classes)
        for other in range(fi)
        if typing[other] == typing[fi]
        for gi, g in enumerate(cat.classes)
        if g.dom == f.cod
    )
    g, f = cat.classes[gi].representative, cat.classes[fi].representative
    total = tensor_systems(t2, f.domain.system, compose_process(t2, g, f).ancilla)
    v = next(v for v in t2.group.elements if g.transform * v not in total.transf)
    c = cat.classes[fi]
    swapped = MorphismClass(c.dom, c.cod, c.table, f._replace(transform=v))
    classes = cat.classes[:fi] + (swapped,) + cat.classes[fi + 1 :]
    table = emergent.checks._per_pair_tables(
        _replaced(cat, classes=classes),
        [typing.index(t) for t in typing],
        compose_process,
        emergent.processes._restricted_outputs,
    )
    table(gi, first)
    with pytest.raises(ElementNotInGroup, match="does not belong to the composite"):
        table(gi, fi)


def test_composition_holds_no_object_per_pair(t2):
    cat = build_process_category(t2)
    containers = (tuple, list, dict, array.array)
    seen, stack = set(), [cat.compose]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if isinstance(ref, containers) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    assert len(seen) < len(cat.compose) // 4


def test_check_builds_the_category_once_for_both_suites(t2, monkeypatch):
    built = []

    def counting_build(*args, **kwargs):
        built.append(args)
        return build_process_category(*args, **kwargs)

    for module in (emergent.processes, emergent.checks, emergent.pmcat):
        monkeypatch.setattr(module, "build_process_category", counting_build)
    results = run_suites(t2, ("processes", "pmcat"))
    assert len(built) == 1
    monkeypatch.undo()
    assert results == run_suites(t2, ("processes",)) + run_suites(t2, ("pmcat",))


def _raising(error):
    def suite(_):
        raise error("planted")

    return suite


def test_an_engine_error_in_a_suite_is_that_suites_violation(t1, monkeypatch):
    monkeypatch.setitem(emergent.checks.SUITES, "states", _raising(IncompatibleSystems))
    results = run_suites(t1, ("lattice", "states", "systems"))
    assert [r.name for r in results] == ["lattice", "states", "systems"]
    assert results[1] == emergent.checks.SuiteResult(
        "states", ("states: engine error: planted",), ()
    )
    assert results[0].ok and results[2].ok


def test_a_failed_category_build_is_a_violation_of_both_suites(t1, monkeypatch):
    built = []

    def failing_build(theory):
        built.append(theory)
        raise IncompatibleSystems("planted")

    monkeypatch.setattr(emergent.checks, "build_process_category", failing_build)
    results = run_suites(t1, ("processes", "pmcat"))
    assert [r.violations for r in results] == [
        ("processes: engine error: planted",),
        ("pmcat: engine error: planted",),
    ]
    assert len(built) == 1


def test_a_resource_limit_in_a_suite_still_raises(t1, monkeypatch):
    monkeypatch.setitem(emergent.checks.SUITES, "lattice", _raising(ResourceLimit))
    with pytest.raises(ResourceLimit, match="^planted$"):
        run_suites(t1, ("lattice",))


@pytest.mark.parametrize(
    "theory, composites", [("t1", True), ("t5", True), ("t3", True), ("t2", False)]
)
def test_process_table_equals_applying_the_process_to_each_state(
    request, theory, composites
):
    # process_table reads restriction tables at the acted joint point; the
    # oracle applies the process to every input state through its
    # purification.  Composites are checked where every pair is cheap.
    theory = request.getfixturevalue(theory)
    cat = build_process_category(theory)
    reps = [c.representative for c in cat.classes]
    procs = reps + [tensor_processes(theory, reps[i], reps[j]) for i, j in cat.tensor_mor]
    if composites:
        procs += [compose_process(theory, reps[gi], reps[fi]) for gi, fi in cat.compose]
    for proc in procs:
        assert process_table(theory, proc) == oracles.process_table(theory, proc)


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2"])
def test_effects_read_from_the_category_are_the_enumerated_effects(request, theory):
    theory = request.getfixturevalue(theory)
    cat = build_process_category(theory)
    assert emergent.checks._effect_violations(cat) == []
    for oi, obj in enumerate(cat.objects):
        effects = oracles.enumerate_generalised_effects(theory, obj, ancillas=cat.universe)
        assert {
            c.table
            for c in cat.classes
            if c.dom == oi and cat.objects[c.cod].system.is_trivial
        } == {oracles.process_table(theory, e) for e in effects}


def _replaced(cat, **changes):
    """A copy of ``cat`` with the named fields changed."""
    fields = (
        "theory", "universe", "objects", "classes", "identity",
        "compose", "tensor_obj", "tensor_mor", "unit",
    )
    return ProcessCategory(**{f: changes.get(f, getattr(cat, f)) for f in fields})


def test_representatives_that_do_not_commute_are_a_processes_violation(t2):
    # A tensor entry's first representative planted with a transformation
    # of the second's total that does not commute with the second's own.
    # It lies outside the totals of the first class's other composites and
    # tensors, so that entry is the only one kept.
    cat = build_process_category(t2)
    ci, cj, out, v = next(
        (ci, cj, out, v)
        for (ci, cj), out in cat.tensor_mor.items()
        for d in [cat.classes[cj].representative]
        for v in tensor_systems(t2, d.domain.system, d.ancilla).transf.members
        if v * d.transform != d.transform * v
    )
    c = cat.classes[ci]
    swapped = MorphismClass(c.dom, c.cod, c.table, c.representative._replace(transform=v))
    classes = cat.classes[:ci] + (swapped,) + cat.classes[ci + 1 :]
    planted = _replaced(cat, classes=classes, compose={}, tensor_mor={(ci, cj): out})
    violations = emergent.checks.processes_suite(planted).violations
    assert (
        f"processes: the transformations of representatives of {ci}, {cj} do not commute"
        in violations
    )


def test_effect_check_counts_the_planted_effects(t2):
    cat = build_process_category(t2)
    effects = [
        c for c in cat.classes if c.dom == 0 and cat.objects[c.cod].system.is_trivial
    ]
    ((src, out),) = effects[0].table
    extra = MorphismClass(0, effects[0].cod, ((src, out[:1]),), effects[0].representative)
    planted = _replaced(cat, classes=cat.classes + (extra,))
    assert emergent.checks._effect_violations(planted) == [
        "processes: object 0 has 2 distinct effects instead of exactly one"
    ]
    dropped = _replaced(cat, classes=tuple(c for c in cat.classes if c not in effects))
    assert emergent.checks._effect_violations(dropped) == [
        "processes: object 0 has 0 distinct effects instead of exactly one"
    ]


def test_identity_faults_are_reported_by_the_pmcat_suite(t1):
    # The identity laws are the pmcat suite's; the processes suite reads no
    # identity composite, so a missing one does not make it raise.
    cat = build_process_category(t1)
    ci, other = next(
        (ci, oi)
        for ci, c in enumerate(cat.classes)
        for oi, o in enumerate(cat.classes)
        if ci not in cat.identity and oi != ci and (o.dom, o.cod) == (c.dom, c.cod)
    )
    ident = cat.identity[cat.classes[ci].dom]
    names = emergent.pmcat.instance_from_category(cat).morphisms

    compose = dict(cat.compose)
    del compose[(ci, ident)]
    missing = _replaced(cat, compose=compose)
    assert emergent.checks.processes_suite(missing).violations == ()
    assert (
        f"category-composition: composite of {names[ident]} then {names[ci]} "
        f"is missing (witness {(ci, ident)})"
    ) in emergent.checks.pmcat_suite(missing).violations

    compose = dict(cat.compose)
    compose[(ci, ident)] = other
    reassigned = _replaced(cat, compose=compose)
    assert (
        f"category-identity: pre-composing {names[ci]} with an identity changes it "
        f"(witness {(ci,)})"
    ) in emergent.checks.pmcat_suite(reassigned).violations
    assert emergent.checks.processes_suite(reassigned).violations == (
        f"processes: composing representatives of {ident}, {ci} "
        "disagrees with the composite class",
    )


@pytest.mark.parametrize("table, noun", [("compose", "composition"), ("tensor_mor", "tensor")])
def test_an_entry_naming_no_class_is_a_processes_violation(t1, table, noun):
    # Only a hand-made category has one; the entry is reported and skipped,
    # and the rest of the table is still checked.
    cat = build_process_category(t1)
    first = next(iter(getattr(cat, table)))
    for key, value in ((first, 10**6), ((10**6, 0), 0), ((0, -1), 0), (first, 1.0)):
        entries = dict(getattr(cat, table))
        entries[key] = value
        assert emergent.checks.processes_suite(_replaced(cat, **{table: entries})).violations == (
            f"processes: {noun} entry {key!r} -> {value!r} names no class",
        )
    # Beside a composite that names the wrong class.
    ci, other = next(
        (ci, oi)
        for ci, c in enumerate(cat.classes)
        for oi, o in enumerate(cat.classes)
        if ci not in cat.identity and oi != ci and (o.dom, o.cod) == (c.dom, c.cod)
    )
    ident = cat.identity[cat.classes[ci].dom]
    compose = dict(cat.compose)
    compose[(ci, ident)] = other
    stray = dict(compose if table == "compose" else cat.tensor_mor)
    stray[(10**6, 0)] = 0
    changed = _replaced(cat, **{"compose": compose, table: stray})
    assert set(emergent.checks.processes_suite(changed).violations) == {
        f"processes: {noun} entry {(10**6, 0)!r} -> 0 names no class",
        f"processes: composing representatives of {ident}, {ci} "
        "disagrees with the composite class",
    }
    # A key that is not a pair, with composites missing, so that the
    # generation check falls back to the closure over the tables.
    compose = dict(list(cat.compose.items())[40:])
    stray = dict(compose if table == "compose" else cat.tensor_mor)
    stray[5] = 0
    changed = _replaced(cat, **{"compose": compose, table: stray})
    assert emergent.checks.processes_suite(changed).violations == (
        f"processes: {noun} entry 5 -> 0 names no class",
        "processes: adding discards generates only 12 of 13 classes",
    )


def test_generation_counts_only_table_values_that_name_a_class(t2):
    # Composites set to numbers that name no class: the closure skips them,
    # as if the entries were absent, and never counts more than every class.
    cat = build_process_category(t2)
    keys = list(cat.compose)[:50]
    planted = dict(cat.compose)
    planted.update((key, 10**6 + i) for i, key in enumerate(keys))
    absent = {key: out for key, out in cat.compose.items() if key not in keys}
    report = verify_generation(t2, _replaced(cat, compose=planted))
    assert report.full_generated <= report.full_total
    assert report == verify_generation(t2, _replaced(cat, compose=absent))


def test_the_closure_skips_entries_that_name_no_class(t1):
    # Only (0, 0) -> 4 names classes; 1.0 equals class 1 but is no class,
    # and neither 5 nor "ab" is a pair of classes.
    cat = build_process_category(t1)
    stray = {(0, 0): 1.0, 5: 2, "ab": 3, (0, 10**6): 5, (0, 0.5): 6}
    tables = _replaced(cat, compose=stray, tensor_mor={(0, 0): 4})
    assert emergent.processes._closure(tables, {0}) == {0, 4}


def _fixpoint_closure(cat, start):
    """The span as a fixpoint over the tables: passes until one adds nothing."""
    named = tuple(range(len(cat.classes)))
    span = set(start)
    missing = set(named) - span
    changed = True
    while changed and missing:
        changed = False
        for table in (cat.compose, cat.tensor_mor):
            for key, out in table.items():
                if not _names(named, out) or out not in missing or not _names_pair(named, key):
                    continue
                a, b = key
                if a in span and b in span:
                    span.add(out)
                    missing.discard(out)
                    if not missing:
                        return span
                    changed = True
    return span


@pytest.fixture(autouse=True)
def _closure_is_the_fixpoint(monkeypatch):
    # Every span a test in this module asks for, planted categories
    # included, is also found by the fixpoint over the tables.
    closure = emergent.processes._closure

    def checked(cat, start):
        span = closure(cat, start)
        assert span == _fixpoint_closure(cat, start)
        return span

    monkeypatch.setattr(emergent.processes, "_closure", checked)


@pytest.mark.parametrize("theory", ["t1", "t2"])
@pytest.mark.parametrize("seed", range(6))
def test_the_closure_is_the_fixpoint_with_entries_deleted(request, theory, seed):
    # Deleting entries leaves spans that take several passes of the fixpoint
    # and stop short of every class.
    cat = build_process_category(request.getfixturevalue(theory))
    rng = random.Random(seed)
    keep = (0.3, 0.5, 0.7, 0.9)[seed % 4]
    compose = {k: v for k, v in cat.compose.items() if rng.random() < keep}
    tensor = {k: v for k, v in cat.tensor_mor.items() if rng.random() < keep}
    planted = _replaced(cat, compose=compose, tensor_mor=tensor)
    n = len(cat.classes)
    spans = set()
    for size in (1, 3, n // 10):
        start = {*rng.sample(range(n), size)}
        span = emergent.processes._closure(planted, start)
        assert span == _fixpoint_closure(planted, start)
        spans.add(len(span))
    assert 1 < max(spans) < n


@pytest.mark.parametrize("theory", ["t1", "t2", "t3", "t4", "t5"])
def test_default_seeds_are_the_orthocomplemented_systems(request, theory):
    # Orthocomplemented nodes meet their commutant only in the identity.
    theory = request.getfixturevalue(theory)
    seeds = [
        make_system(theory, node)
        for node in enumerate_self_bicommutant(theory).nodes
        if len(node.member_set & commutant(theory, node).member_set) == 1
        and any(is_product_state(theory, node, p).pure for p in theory.points)
    ]
    assert default_system_seeds(theory) == tuple(sorted(seeds, key=system_key))


GENERATION_CATEGORIES = ["t1", "t5", "t3", "t2", "t1-full", "one-point"]


def _generation_category(request, name):
    if name == "one-point":
        theory = validate_global_theory(generate_group(1, []))
        return build_process_category(theory, systems=enumerate_systems(theory))
    if name == "t1-full":
        theory = request.getfixturevalue("t1")
        return build_process_category(theory, systems=enumerate_systems(theory))
    return build_process_category(request.getfixturevalue(name))


def _fixed_point(cat, start):
    span = set(start)
    edges = [*cat.compose.items(), *cat.tensor_mor.items()]
    while True:
        new = {out for (a, b), out in edges if a in span and b in span} - span
        if not new:
            return span
        span |= new


def _two_closure_generation(theory, cat):
    """``verify_generation`` as first written: one closure for each count."""
    class_index = {(c.dom, c.cod, c.table): i for i, c in enumerate(cat.classes)}
    env_trivial = {i for i, obj in enumerate(cat.objects) if obj.environment.is_trivial}
    pure_ids = {
        i
        for i, c in enumerate(cat.classes)
        if c.dom in env_trivial and c.cod in env_trivial
    }
    transf_gens, prep_gens, discard_gens = set(cat.identity), set(), set()
    for oi in env_trivial:
        obj = cat.objects[oi]
        states = pair_states(theory, obj)
        for u in obj.system.transf.members:
            table = tuple(
                (state_key(s.value), state_key(act_local(theory, u, s.value)))
                for s in states
            )
            transf_gens.add(class_index[(oi, oi, table)])
        if not obj.system.is_trivial:
            theta = pair_states(theory, cat.objects[cat.unit])[0]
            for target in states:
                table = ((state_key(theta.value), state_key(target.value)),)
                prep_gens.add(class_index[(cat.unit, oi, table)])
    for oi, obj in enumerate(cat.objects):
        proc = discard_process(theory, obj)
        cod = cat.objects.index(process_codomain(theory, proc))
        discard_gens.add(class_index[(oi, cod, process_table(theory, proc))])
    pure_span = _fixed_point(cat, transf_gens | prep_gens) & pure_ids
    full_span = _fixed_point(cat, transf_gens | prep_gens | discard_gens)
    return GenerationReport(
        pure_total=len(pure_ids),
        pure_generated=len(pure_span),
        full_total=len(cat.classes),
        full_generated=len(full_span),
        transformation_generators=len(transf_gens),
        preparation_generators=len(prep_gens),
        discard_generators=len(discard_gens),
    )


@pytest.mark.parametrize("name", GENERATION_CATEGORIES)
def test_pure_generation_is_the_pure_part_of_the_full_closure(request, name):
    # Discards only widen the environment, so they cannot help build a class
    # between trivial environments.
    cat = _generation_category(request, name)
    assert verify_generation(cat.theory, cat) == _two_closure_generation(cat.theory, cat)


@pytest.mark.parametrize("name", GENERATION_CATEGORIES)
def test_system_and_ancilla_lie_inside_the_pair_and_ancilla(request, name):
    # The build reads restrictions to the owner (pair x ancilla) at points
    # acted on by the total (system x ancilla), so the total must lie inside.
    cat = _generation_category(request, name)
    theory = cat.theory
    checked = 0
    for obj in cat.objects:
        composite = pair_composite(theory, obj)
        for anc in cat.universe:
            try:
                total = tensor_systems(theory, obj.system, anc)
                owner = tensor_systems(theory, composite, anc)
            except IncompatibleSystems:
                continue
            assert total.transf.is_subset_of(owner.transf)
            checked += 1
    assert checked >= len(cat.objects)


@pytest.mark.parametrize("name", GENERATION_CATEGORIES)
def test_tensored_dynamics_lie_in_the_product_total(request, name):
    # The build reads each tensor pair's outputs at ``h * k`` without
    # checking that it lies in the product's total (system x ancilla).
    cat = _generation_category(request, name)
    theory = cat.theory
    reps = [c.representative for c in cat.classes]
    for ci, cj in cat.tensor_mor:
        prod = tensor_processes(theory, reps[ci], reps[cj])
        total = tensor_systems(theory, prod.domain.system, prod.ancilla)
        assert reps[ci].transform * reps[cj].transform in total.transf


def _two_order_universe(theory, seeds):
    """``system_universe`` as first written: every pair probed in both orders."""
    universe = set(seeds) | {trivial_system(theory)}
    while True:
        new = {
            tensor_systems(theory, *pair)
            for a in universe
            for b in universe
            for pair in ((a, b), (b, a))
            if are_compatible(theory, *pair) is not None
        } - universe
        if not new:
            return tuple(sorted(universe, key=system_key))
        universe |= new


@pytest.mark.parametrize("theory", ["t1", "t5", "t3", "t2"])
@pytest.mark.parametrize("seeds", [default_system_seeds, enumerate_systems])
def test_one_compatibility_probe_per_pair_closes_the_universe(request, theory, seeds):
    theory = request.getfixturevalue(theory)
    seeds = seeds(theory)
    universe = system_universe(theory, seeds)
    assert universe == _two_order_universe(theory, seeds)
    for a in universe:
        for b in universe:
            assert are_compatible(theory, a, b) == are_compatible(theory, b, a)


def test_process_reprs_name_the_parent_group_instead_of_printing_it(t4):
    # A subgroup's repr used to embed its whole parent group, about 23 KB
    # on s3x3x3 and up to 1.3 MB for one class representative.
    group = t4.group
    assert len(repr(Subgroup(group, group.elements))) < 200
    cat = build_process_category(t4)
    assert max(len(repr(c.representative)) for c in cat.classes) < 16_000


GENERATION_THEORIES = ["t4", "d5", "f20", "a4", "s5", "s3_regular"]


@pytest.mark.parametrize("name", [*GENERATION_CATEGORIES, *GENERATION_THEORIES])
def test_generation_by_factorisation_is_the_closures_report(request, monkeypatch, name):
    # Every class of a valid category is its preparation, then its dynamics,
    # then its discard, so the closure is not walked; with the argument
    # switched off, the closure gives the same report.
    cat = _generation_category(request, name)
    walked = []
    closure = emergent.processes._closure

    def spy(*args):
        walked.append(args)
        return closure(*args)

    monkeypatch.setattr(emergent.processes, "_closure", spy)
    report = verify_generation(cat.theory, cat)
    assert walked == []
    monkeypatch.setattr(emergent.processes, "_factorises", lambda *args: False)
    assert verify_generation(cat.theory, cat) == report
    assert len(walked) == 1


class _RecordingDict(dict):
    """A dict that lists the keys it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def __getitem__(self, key):
        self.asked.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", ["t1-full", "t5"])
def test_a_planted_factorisation_fault_falls_back_to_the_closure(request, monkeypatch, name):
    cat = _generation_category(request, name)
    recorded = _replaced(cat, compose=_RecordingDict(cat.compose))
    assert verify_generation(cat.theory, recorded) == verify_generation(cat.theory, cat)
    # Two composites per class, in class order: U . P, then D . (U . P).
    asked = recorded.compose.asked
    assert len(asked) == 2 * len(cat.classes)
    # The last class that shares its ends with another, from a domain with
    # a nontrivial environment where there is one.
    ends = [(c.dom, c.cod) for c in cat.classes]
    ci, other = max(
        ((i, j) for i, e in enumerate(ends) for j, f in enumerate(ends) if i != j and e == f),
        key=lambda pair: (not cat.objects[ends[pair[0]][0]].environment.is_trivial, pair),
    )
    key = asked[2 * ci + 1]
    compose = dict(cat.compose)
    compose[key] = other
    planted = _replaced(cat, compose=compose)
    walked = []
    closure = emergent.processes._closure

    def spy(*args):
        walked.append(args)
        return closure(*args)

    monkeypatch.setattr(emergent.processes, "_closure", spy)
    assert verify_generation(cat.theory, planted) == _two_closure_generation(cat.theory, planted)
    assert len(walked) == 1


def test_a_value_equal_to_a_class_but_not_naming_one_does_not_factorise(t1, monkeypatch):
    # 1.0 == 1, so a dict lookup keyed by it finds class 1's entries; the
    # argument reads each value through ``_names``, as the closure does.
    cat = build_process_category(t1)
    floats = _replaced(cat, compose={key: float(h) for key, h in cat.compose.items()})
    factorises = emergent.processes._factorises
    answers = []

    def spy(*args):
        answers.append(factorises(*args))
        return answers[-1]

    monkeypatch.setattr(emergent.processes, "_factorises", spy)
    report = verify_generation(t1, floats)
    assert answers == [False]
    assert report.full_generated < report.full_total == len(cat.classes)
    monkeypatch.setattr(emergent.processes, "_factorises", lambda *args: False)
    assert verify_generation(t1, floats) == report
