"""Systems, compatibility, and the partial tensor product."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

import oracles
from emergent import checks
from emergent import systems as systems_module
from emergent.perms import reduce_generators, theory_memo
from emergent.states import local_row, purity_row
from emergent import (
    IncompatibleSystems,
    LocalState,
    NotProductState,
    Perm,
    StateNotInSystem,
    System,
    act_local,
    are_compatible,
    enumerate_self_bicommutant,
    enumerate_systems,
    is_product_state,
    load_theory,
    make_system,
    restrict,
    subgroup_closure,
    tensor_pure_states,
    tensor_state_candidates,
    tensor_systems,
    trivial_system,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ROWS = ((3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
COLS = ((1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))


def _sub(theory, image_tuples):
    return subgroup_closure(theory.group, [Perm(t) for t in image_tuples])


def _rows_cols(t2):
    return (
        make_system(t2, _sub(t2, ROWS)),
        make_system(t2, _sub(t2, COLS)),
    )


def test_system_counts(t1, t2, t3):
    assert len(enumerate_systems(t1)) == 5
    assert len(enumerate_systems(t2)) == 25
    assert len(enumerate_systems(t3)) == 2


def test_trivial_system_shape(t1):
    unit = trivial_system(t1)
    assert unit.is_trivial
    assert len(unit.pure_orbit) == 1
    assert unit.pure_orbit[0].points == frozenset(t1.points)


def test_make_system_rows(t2):
    rows, _ = _rows_cols(t2)
    assert len(rows.pure_orbit) == 3
    assert [s.sorted_points for s in rows.pure_orbit] == [
        (0, 1, 2),
        (3, 4, 5),
        (6, 7, 8),
    ]


def test_make_system_rejects_mixed_witness(t1):
    a3 = _sub(t1, [(1, 2, 0)])
    with pytest.raises(NotProductState):
        make_system(t1, a3)


def test_free_factors_make_no_system(t3):
    ident = Perm.identity(6)
    free = [
        node
        for node in enumerate_self_bicommutant(t3).nodes
        if node.order == 6
        and all(g[p] != p for g in node.members if g != ident for p in t3.points)
    ]
    assert free
    for node in free:
        with pytest.raises(NotProductState):
            make_system(t3, node)


def test_unit_is_compatible_with_everything(t1, t2):
    for theory in (t1, t2):
        unit = trivial_system(theory)
        for system in enumerate_systems(theory):
            assert are_compatible(theory, unit, system) is not None
            assert are_compatible(theory, system, unit) is not None


def test_rows_and_columns_are_compatible(t2):
    rows, cols = _rows_cols(t2)
    witness = are_compatible(t2, rows, cols)
    assert witness == 0
    assert are_compatible(t2, rows, rows) is None


def test_compatible_pair_counts(t1, t3):
    for theory, expected in ((t1, 12), (t3, 3)):
        systems = enumerate_systems(theory)
        count = sum(
            1
            for a, b in itertools.product(systems, repeat=2)
            if are_compatible(theory, a, b) is not None
        )
        assert count == expected


@pytest.mark.parametrize(
    "theory", ["t1", "t5", "t3", "t2", "t4", "d5", "f20", "a4", "s5", "s3_regular"]
)
def test_compatibility_rows_equal_the_pair_loop(request, theory):
    theory = request.getfixturevalue(theory)
    systems = enumerate_systems(theory)
    expected = [
        {
            j: witness
            for j, b in enumerate(systems)
            if (witness := are_compatible(theory, a, b)) is not None
        }
        for a in systems
    ]
    rows = systems_module.compatibility_rows(theory, systems)
    assert rows == expected
    assert all(list(row) == sorted(row) for row in rows)


@pytest.mark.parametrize(
    "theory", ["t1", "t2", "t3", "t5", "d5", "f20", "a4", "s5", "s3_regular"]
)
def test_composability_equals_the_raw_tuple_oracles(request, theory):
    theory = request.getfixturevalue(theory)
    elements = oracles.raw_elements(theory)
    systems = enumerate_systems(theory)
    raw = {s: oracles.raw_members(s) for s in systems}
    for a, b in itertools.product(systems, repeat=2):
        witness = oracles.are_compatible(elements, raw[a], raw[b])
        assert are_compatible(theory, a, b) == witness
        if witness is None:
            with pytest.raises(IncompatibleSystems):
                tensor_state_candidates(theory, a, b, a.pure_orbit[0], b.pure_orbit[0])
            continue
        points = oracles.product_points(elements, raw[a], raw[b])
        assert systems_module._product_points(theory, a, b) == points
        for rho, sigma in itertools.product(a.pure_orbit, b.pure_orbit):
            assert tensor_state_candidates(
                theory, a, b, rho, sigma
            ) == oracles.tensor_state_candidates(
                elements, raw[a], raw[b], rho.points, sigma.points
            )


def test_tensor_unit_laws(t2):
    unit = trivial_system(t2)
    for system in enumerate_systems(t2):
        assert tensor_systems(t2, system, unit) == system
        assert tensor_systems(t2, unit, system) == system


def test_tensor_rows_with_columns(t2):
    rows, cols = _rows_cols(t2)
    whole = tensor_systems(t2, rows, cols)
    assert whole.transf.order == 36
    assert len(whole.pure_orbit) == 9
    assert all(len(s.points) == 1 for s in whole.pure_orbit)
    assert tensor_systems(t2, cols, rows) == whole


def test_tensor_rejects_incompatible(t2):
    rows, _ = _rows_cols(t2)
    with pytest.raises(IncompatibleSystems):
        tensor_systems(t2, rows, rows)


def test_tensor_pure_states_grid(t2):
    rows, cols = _rows_cols(t2)
    for i in range(3):
        for j in range(3):
            rho = restrict(t2, rows.transf, 3 * i)
            sigma = restrict(t2, cols.transf, j)
            combined = tensor_pure_states(t2, rows, cols, rho, sigma)
            assert combined.points == frozenset({3 * i + j})
            assert tensor_state_candidates(t2, rows, cols, rho, sigma) == (3 * i + j,)


def test_tensor_with_the_unit_state(t2):
    rows, _ = _rows_cols(t2)
    unit = trivial_system(t2)
    one = unit.pure_orbit[0]
    for rho in rows.pure_orbit:
        assert tensor_pure_states(t2, rows, unit, rho, one) == rho
        assert tensor_pure_states(t2, unit, rows, one, rho) == rho


def test_tensor_pure_states_rejects_foreign_states(t2):
    rows, cols = _rows_cols(t2)
    with pytest.raises(StateNotInSystem):
        tensor_pure_states(t2, rows, cols, cols.pure_orbit[0], cols.pure_orbit[0])


def test_restriction_agreement_across_a_compatible_pair(t2):
    rows, cols = _rows_cols(t2)
    whole = tensor_systems(t2, rows, cols)
    points = [s.representative for s in whole.pure_orbit]
    for psi, phi in itertools.product(points, repeat=2):
        same_restriction = restrict(t2, rows.transf, psi) == restrict(t2, rows.transf, phi)
        orbit_psi = frozenset(g[psi] for g in cols.transf.members)
        orbit_phi = frozenset(g[phi] for g in cols.transf.members)
        assert same_restriction == (orbit_psi == orbit_phi)


def _coordinate_perm(sigma, axis):
    images = []
    for p in range(27):
        coords = [p // 9, (p // 3) % 3, p % 3]
        coords[axis] = sigma[coords[axis]]
        images.append(9 * coords[0] + 3 * coords[1] + coords[2])
    return tuple(images)


def _factor_systems(t4):
    cell_maps = [(1, 0, 2), (1, 2, 0)]
    return tuple(
        make_system(t4, _sub(t4, [_coordinate_perm(s, axis) for s in cell_maps]))
        for axis in range(3)
    )


def test_associativity_for_three_independent_cells(t4):
    a, b, c = _factor_systems(t4)
    report = oracles.check_associativity_triple(t4, a, b, c)
    assert report.holds
    assert report.left is not None
    assert report.left.transf.order == 216
    assert len(report.left.pure_orbit) == 27
    permuted = oracles.check_associativity_triple(t4, c, a, b)
    assert permuted.left == report.left


def test_associativity_with_a_unit_factor(t2):
    rows, cols = _rows_cols(t2)
    unit = trivial_system(t2)
    report = oracles.check_associativity_triple(t2, rows, cols, unit)
    assert report.holds
    assert report.left == tensor_systems(t2, rows, cols)


def test_undefined_bracketing_is_reported(t2):
    rows, cols = _rows_cols(t2)
    report = oracles.check_associativity_triple(t2, rows, rows, cols)
    assert report.left is None


def test_every_state_pair_has_exactly_one_composite_state(t2):
    systems = enumerate_systems(t2)
    pairs = 0
    for a, b in itertools.product(systems, repeat=2):
        if are_compatible(t2, a, b) is None:
            continue
        composite = tensor_systems(t2, a, b)
        for rho, sigma in itertools.product(a.pure_orbit, b.pure_orbit):
            candidates = tensor_state_candidates(t2, a, b, rho, sigma)
            restricted = {restrict(t2, composite.transf, p) for p in candidates}
            assert restricted == {tensor_pure_states(t2, a, b, rho, sigma)}
            pairs += 1
    assert pairs


def test_systems_suite_equals_the_member_loops(t1, t5, t3, t2, d5, f20, a4, s5, a5):
    # A5's state pairs without a composite state make its suite report.
    for theory in (t1, t5, t3, t2, d5, f20, a4, s5, a5):
        assert checks.systems_suite(theory) == oracles.systems_suite(theory)


def _suite_with_verdicts(theory, monkeypatch):
    """The systems suite's result, and the generator test's verdict on each
    compatible pair in the suite's order, with the pair's first state pair."""
    verdicts = []
    generator_test = checks._generators_move_composites

    def spy(theory, taus, first, a_moves, b_moves):
        verdicts.append((first, generator_test(theory, taus, first, a_moves, b_moves)))
        return verdicts[-1][1]

    monkeypatch.setattr(checks, "_generators_move_composites", spy)
    return checks.systems_suite(theory), verdicts


def test_planted_closure_fault_gives_the_member_loop_violations(t2, monkeypatch):
    rows, _ = _rows_cols(t2)
    first = rows.pure_orbit[0]
    ident = t2.group.identity

    def bad_act_local(theory, h, state):
        # Every state of the rows system but the first leaves its orbit; the
        # moved-factors loop starts from the first state, so it is unharmed.
        if state.owner == rows.transf and state != first and h != ident:
            return LocalState(rows.transf, frozenset())
        return act_local(theory, h, state)

    monkeypatch.setattr(checks, "act_local", bad_act_local)
    monkeypatch.setattr(oracles, "act_local", bad_act_local)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    i = enumerate_systems(t2).index(rows)
    closure = (
        f"systems: the pure states of system {i} are not closed under its "
        "transformations"
    )
    assert found.violations == (closure, closure)


def test_planted_moving_fault_is_counted_once_per_failing_h(t2, monkeypatch):
    rows, cols = _rows_cols(t2)
    rho = rows.pure_orbit[0]
    # Two of the six row transformations move rho but are ignored on it;
    # the other four act as they should.
    ignored = {Perm(ROWS[0]), Perm(ROWS[1])}
    assert all(act_local(t2, h, rho) != rho for h in ignored)

    def bad_act_local(theory, h, state):
        if state == rho and h in ignored:
            return state
        return act_local(theory, h, state)

    monkeypatch.setattr(checks, "act_local", bad_act_local)
    monkeypatch.setattr(oracles, "act_local", bad_act_local)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    systems = enumerate_systems(t2)
    r, c = systems.index(rows), systems.index(cols)

    def moving(i, j):
        message = (
            f"systems: moving the factors of {i}, {j} disagrees with moving "
            "the composite"
        )
        return found.violations.count(message)

    # The loop stops at the first failing k of each h, not at the first
    # failing pair: one violation per h of rows that is ignored, and one
    # per h of cols when rows is the second factor, as every h then meets
    # an ignored k.
    assert rows.transf.order == cols.transf.order == 6
    assert moving(r, c) == len(ignored)
    assert moving(c, r) == cols.transf.order


def _moving(found, i, j):
    message = (
        f"systems: moving the factors of {i}, {j} disagrees with moving the composite"
    )
    return found.violations.count(message)


def test_a_planted_fault_at_a_later_state_pair_fails_the_generator_test(t2, monkeypatch):
    # The composite of (rho1, sigma0) is wrong; tau, from the first pair,
    # is not.  So a generator of rows that moves rho0 to rho1, or rho1 to
    # another state, does not move the composites with it, and the member
    # loop then reports once per h that moves rho0 to rho1.
    rows, cols = _rows_cols(t2)
    rho0, rho1 = rows.pure_orbit[:2]
    sigma0 = cols.pure_orbit[0]
    wrong = tensor_pure_states(t2, rows, cols, rho0, sigma0)
    assert wrong != tensor_pure_states(t2, rows, cols, rho1, sigma0)

    def bad_tensor_pure_states(theory, a, b, rho, sigma):
        if (a, b, rho, sigma) == (rows, cols, rho1, sigma0):
            return wrong
        return tensor_pure_states(theory, a, b, rho, sigma)

    monkeypatch.setattr(checks, "tensor_pure_states", bad_tensor_pure_states)
    monkeypatch.setattr(oracles, "tensor_pure_states", bad_tensor_pure_states)
    found, verdicts = _suite_with_verdicts(t2, monkeypatch)
    assert found == oracles.systems_suite(t2)
    assert dict(verdicts)[rho0, sigma0] is False
    systems = enumerate_systems(t2)
    reaching = [h for h in rows.transf.members if act_local(t2, h, rho0) == rho1]
    assert _moving(found, systems.index(rows), systems.index(cols)) == len(reaching) == 2


def _first_members(theory, members, state):
    first = {}
    for g in members:
        first.setdefault(act_local(theory, g, state), g)
    return first


def test_a_planted_fault_at_the_first_state_pair_fails_the_generator_test(t2, monkeypatch):
    # The first pair's composite is another pure state of the composite,
    # and every other pair's is moved from it by the first members that
    # move the factors there.  So the composites agree with those first
    # members, but not with every generator, and the generator test sends
    # the suite to the member loop.
    rows, cols = _rows_cols(t2)
    rho0, sigma0 = rows.pure_orbit[0], cols.pure_orbit[0]
    tau = tensor_pure_states(t2, rows, cols, rho0, sigma0)
    wrong = next(
        state for state in tensor_systems(t2, rows, cols).pure_orbit if state != tau
    )
    h_first = _first_members(t2, rows.transf.members, rho0)
    k_first = _first_members(t2, cols.transf.members, sigma0)

    def bad_tensor_pure_states(theory, a, b, rho, sigma):
        if (a, b) == (rows, cols):
            return act_local(theory, h_first[rho] * k_first[sigma], wrong)
        return tensor_pure_states(theory, a, b, rho, sigma)

    monkeypatch.setattr(checks, "tensor_pure_states", bad_tensor_pure_states)
    monkeypatch.setattr(oracles, "tensor_pure_states", bad_tensor_pure_states)
    found, verdicts = _suite_with_verdicts(t2, monkeypatch)
    assert found == oracles.systems_suite(t2)
    assert dict(verdicts)[rho0, sigma0] is False
    systems = enumerate_systems(t2)
    assert _moving(found, systems.index(rows), systems.index(cols)) > 0


def test_a_planted_fault_on_the_second_factor_fails_the_generator_test(t2, monkeypatch):
    # The unit has one pure state and no generators, so only the
    # generators of cols, the second factor, can show that the composite
    # of (rho0, sigma1) is wrong, sigma1 being a generator's image of sigma0.
    unit, (_, cols) = trivial_system(t2), _rows_cols(t2)
    rho0, sigma0 = unit.pure_orbit[0], cols.pure_orbit[0]
    assert unit.pure_orbit == (rho0,)
    assert reduce_generators(unit.transf.members, t2.degree) == []
    sigma1 = next(
        act_local(t2, g, sigma0)
        for g in reduce_generators(cols.transf.members, t2.degree)
        if act_local(t2, g, sigma0) != sigma0
    )
    wrong = tensor_pure_states(t2, unit, cols, rho0, sigma0)
    assert wrong != tensor_pure_states(t2, unit, cols, rho0, sigma1)

    def bad_tensor_pure_states(theory, a, b, rho, sigma):
        if (a, b, rho, sigma) == (unit, cols, rho0, sigma1):
            return wrong
        return tensor_pure_states(theory, a, b, rho, sigma)

    monkeypatch.setattr(checks, "tensor_pure_states", bad_tensor_pure_states)
    monkeypatch.setattr(oracles, "tensor_pure_states", bad_tensor_pure_states)
    found, verdicts = _suite_with_verdicts(t2, monkeypatch)
    assert found == oracles.systems_suite(t2)
    assert dict(verdicts)[rho0, sigma0] is False
    systems = enumerate_systems(t2)
    assert _moving(found, systems.index(unit), systems.index(cols)) == 1


@pytest.mark.parametrize(
    "theory", ["t1", "t5", "t3", "t2", "t4", "d5", "f20", "a4", "s5", "s3_regular"]
)
def test_clean_theories_never_enter_the_member_loop(request, theory, monkeypatch):
    # The member loop runs only where the generator test is false.
    theory = request.getfixturevalue(theory)
    found, verdicts = _suite_with_verdicts(theory, monkeypatch)
    assert not found.violations
    pairs = sum(
        are_compatible(theory, a, b) is not None
        for a, b in itertools.product(enumerate_systems(theory), repeat=2)
    )
    assert [verdict for _, verdict in verdicts] == [True] * pairs


def test_one_sided_compatibility_row_is_reported_both_ways(t2, monkeypatch):
    rows, cols = _rows_cols(t2)
    systems = enumerate_systems(t2)
    r, c = systems.index(rows), systems.index(cols)

    def one_sided(theory, listed):
        found = systems_module.compatibility_rows(theory, listed)
        del found[r][c]
        return found

    monkeypatch.setattr(checks, "compatibility_rows", one_sided)
    violations = checks.systems_suite(t2).violations
    assert [v for v in violations if "symmetric" in v] == [
        f"systems: compatibility of {i}, {j} is not symmetric"
        for i, j in sorted([(r, c), (c, r)])
    ]


def test_act_local_is_a_group_action(t2):
    # The premise of the generator test: moving by g h is moving by h,
    # then by g, on every local state of every system, pure or not, for
    # every pair of its members.
    for system in enumerate_systems(t2):
        members = system.transf.members
        for state in set(local_row(t2, system.transf)):
            moved = {h: act_local(t2, h, state) for h in members}
            for g, h in itertools.product(members, repeat=2):
                assert act_local(t2, g * h, state) == act_local(t2, g, moved[h])


def test_planted_tensor_fault_gives_the_triple_loop_result(t2, monkeypatch):
    # Tensoring system 19 with the unit, in either order, gives system 2.
    # Its triples differ in an order that any other loop nesting would
    # change, and one is defined only on the left, one only on the right.
    # tensor_pure_states restricts to the join, not to tensor_systems, so
    # no cached function keeps a result of the patch.
    systems = enumerate_systems(t2)
    unit, big, small = systems[0], systems[19], systems[2]
    assert unit == trivial_system(t2)

    def bad_tensor_systems(theory, a, b):
        if {a, b} == {unit, big}:
            return small
        return tensor_systems(theory, a, b)

    for module in (checks, oracles, systems_module):
        monkeypatch.setattr(module, "tensor_systems", bad_tensor_systems)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    assert [v for v in found.violations if "bracketings" in v] == [
        f"systems: the two bracketings of systems {i}, {j}, {k} differ"
        for i, j, k in ((0, 2, 19), (2, 0, 19), (19, 0, 2), (19, 2, 0))
    ]
    assert (
        "systems: one-sided definedness of triple composites in 2 cases"
        in found.notices
    )


def test_unlisted_composite_is_reported(t2, monkeypatch):
    systems = enumerate_systems(t2)
    whole = systems[-1]
    partial = System(whole.transf, whole.pure_orbit[:1])

    def bad_tensor_systems(theory, a, b):
        if (a, b) == (systems[16], systems[17]):
            return partial
        return tensor_systems(theory, a, b)

    monkeypatch.setattr(checks, "tensor_systems", bad_tensor_systems)
    found = checks.systems_suite(t2)
    assert "systems: the composite of 16, 17 is not listed" in found.violations


@pytest.mark.parametrize(
    "fixture",
    ["s3", "s4", "s3_diagonal", "s3x3"],
    ids=["theory_s3", "theory_s4", "theory_s3_diagonal_cosets", "theory_s3_squared"],
)
def test_composites_are_the_enumerated_systems(fixture):
    # A freshly loaded theory, so the memo holds nothing yet.
    theory, _ = load_theory(FIXTURES / f"{fixture}.json")
    systems = enumerate_systems(theory)
    for a, b in itertools.product(systems, repeat=2):
        if are_compatible(theory, a, b) is not None:
            composite = tensor_systems(theory, a, b)
            assert any(composite is s for s in systems)


def test_systems_suite_builds_one_product_point_row_per_compatible_pair(monkeypatch):
    # A freshly loaded theory, so the memo holds no row yet.  Every orbit
    # meet of two factors is in the row build, so counting the orbit-meet
    # rows the systems layer reads counts every such scan.
    theory, _ = load_theory(FIXTURES / "s3x3.json")
    build = systems_module._product_points.__wrapped__
    meets_once = systems_module._meets_once
    rows, meet_rows = [], []

    def spy_build(theory, a, b):
        rows.append((a, b))
        return build(theory, a, b)

    def spy_meets_once(theory, a, b):
        meet_rows.append((a, b))
        return meets_once(theory, a, b)

    product_points = theory_memo(spy_build)
    monkeypatch.setattr(systems_module, "_product_points", product_points)
    monkeypatch.setattr(checks, "_product_points", product_points)
    monkeypatch.setattr(systems_module, "_meets_once", spy_meets_once)
    assert not checks.systems_suite(theory).violations
    compatible = [
        (a, b)
        for a, b in itertools.product(enumerate_systems(theory), repeat=2)
        if are_compatible(theory, a, b) is not None
    ]
    assert len(rows) == len(set(rows)) == len(compatible) == 78
    assert set(rows) == set(compatible)
    assert meet_rows == [(a.transf, b.transf) for a, b in rows]


def test_a_listed_state_that_is_not_pure_is_a_violation(t2, monkeypatch):
    # Purity over the rows node planted false everywhere: each listed pure
    # state of the rows system is reported once.
    rows, _ = _rows_cols(t2)

    def bad_purity_row(theory, sub):
        row = purity_row(theory, sub)
        return (False,) * len(row) if sub == rows.transf else row

    def bad_is_product_state(theory, sub, point):
        verdict = is_product_state(theory, sub, point)
        return verdict._replace(pure=False) if sub == rows.transf else verdict

    monkeypatch.setattr(checks, "purity_row", bad_purity_row)
    monkeypatch.setattr(oracles, "is_product_state", bad_is_product_state)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    i = enumerate_systems(t2).index(rows)
    message = f"systems: a listed state of system {i} is not pure"
    assert found.violations.count(message) == len(rows.pure_orbit)


def test_a_state_pair_without_a_composite_is_a_violation(t2, monkeypatch):
    # The tensor of (rho1, sigma0) fails on its first call only, the state
    # pair loop's, so the moved-factors check still finds every composite.
    rows, cols = _rows_cols(t2)
    target = (rows, cols, rows.pure_orbit[1], cols.pure_orbit[0])
    failed = []

    def bad_tensor_pure_states(theory, a, b, rho, sigma):
        if (a, b, rho, sigma) == target and not failed:
            failed.append(target)
            raise IncompatibleSystems("planted")
        return tensor_pure_states(theory, a, b, rho, sigma)

    monkeypatch.setattr(checks, "tensor_pure_states", bad_tensor_pure_states)
    found = checks.systems_suite(t2)
    failed.clear()
    monkeypatch.setattr(oracles, "tensor_pure_states", bad_tensor_pure_states)
    assert found == oracles.systems_suite(t2)
    systems = enumerate_systems(t2)
    i, j = systems.index(rows), systems.index(cols)
    assert found.violations == (f"systems: no composite state for a state pair of {i}, {j}",)


def test_a_first_state_pair_without_a_composite_raises_as_the_member_loop_does(
    t2, monkeypatch
):
    # The unit with itself has one state pair and no generators, so the
    # generator test has nothing to compare once that pair's tensor fails:
    # it must still send the suite to the member loop, which raises.
    unit = trivial_system(t2)

    def bad_tensor_pure_states(theory, a, b, rho, sigma):
        if (a, b) == (unit, unit):
            raise IncompatibleSystems("planted")
        return tensor_pure_states(theory, a, b, rho, sigma)

    monkeypatch.setattr(checks, "tensor_pure_states", bad_tensor_pure_states)
    monkeypatch.setattr(oracles, "tensor_pure_states", bad_tensor_pure_states)
    with pytest.raises(IncompatibleSystems):
        oracles.systems_suite(t2)
    with pytest.raises(IncompatibleSystems):
        checks.systems_suite(t2)


def test_a_state_pair_with_two_composites_is_a_violation(t2, monkeypatch):
    # The rows node planted to see point 4 alone at point 4.  A unit factor
    # and the rows system compose to the rows system, and a unit state with
    # the rows state {3, 4, 5} has the product points 3, 4 and 5, which now
    # restrict to two composite states.
    rows, _ = _rows_cols(t2)
    bogus = LocalState(rows.transf, frozenset({4}))
    assert restrict(t2, rows.transf, 4).points == {3, 4, 5}

    def bad_local_row(theory, sub):
        row = local_row(theory, sub)
        return row[:4] + (bogus,) + row[5:] if sub == rows.transf else row

    def bad_restrict(theory, sub, point):
        return bogus if (sub, point) == (rows.transf, 4) else restrict(theory, sub, point)

    monkeypatch.setattr(checks, "local_row", bad_local_row)
    monkeypatch.setattr(oracles, "restrict", bad_restrict)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    systems = enumerate_systems(t2)
    i, u = systems.index(rows), systems.index(trivial_system(t2))
    assert found.violations == tuple(
        f"systems: a state pair of {a}, {b} has more than one composite state"
        for a, b in sorted([(u, i), (i, u)])
    )


def test_a_state_pair_with_no_product_point_is_a_violation(t2, monkeypatch):
    # The rows and columns systems planted to have no product points, in
    # that order only: each of their nine state pairs has no candidate
    # composite, which is not the same fault as having two.
    rows, cols = _rows_cols(t2)
    raw_rows, raw_cols = oracles.raw_members(rows), oracles.raw_members(cols)
    engine_points, oracle_points = checks._product_points, oracles.product_points

    def bad_product_points(theory, a, b):
        return () if (a, b) == (rows, cols) else engine_points(theory, a, b)

    def bad_oracle_points(elements, a, b):
        planted = (a, b) == (raw_rows, raw_cols)
        return () if planted else oracle_points(elements, a, b)

    monkeypatch.setattr(checks, "_product_points", bad_product_points)
    monkeypatch.setattr(oracles, "product_points", bad_oracle_points)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    systems = enumerate_systems(t2)
    i, j = systems.index(rows), systems.index(cols)
    message = f"systems: a state pair of {i}, {j} has no product point in both states"
    assert found.violations == (message,) * 9


def test_a_missing_trivial_system_is_a_violation(t2, monkeypatch):
    unit = trivial_system(t2)
    listed = tuple(s for s in enumerate_systems(t2) if s != unit)
    monkeypatch.setattr(checks, "enumerate_systems", lambda theory: listed)
    monkeypatch.setattr(oracles, "enumerate_systems", lambda theory: listed)
    found = checks.systems_suite(t2)
    assert found == oracles.systems_suite(t2)
    assert found.violations == ("systems: the trivial system is missing",)
