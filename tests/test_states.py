"""Local states, restriction, and the product-state test."""

from __future__ import annotations

import pytest

import oracles
from emergent import checks, states
from emergent import (
    ElementNotInOwner,
    LocalState,
    NotNested,
    NotOrthogonal,
    NotPure,
    NotSelfBicommutant,
    Perm,
    PointOutOfRange,
    Subgroup,
    SubgroupNotInTheory,
    act_local,
    commutant,
    enumerate_self_bicommutant,
    factorizes,
    is_orthogonal,
    is_product_state,
    iterated_restrict,
    pure_local_states,
    pure_stabilizer,
    restrict,
    subgroup_closure,
)

ROWS = ((3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
COLS = ((1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))


def _sub(theory, image_tuples):
    return subgroup_closure(theory.group, [Perm(t) for t in image_tuples])


def test_restriction_to_the_full_group_is_a_singleton(t1):
    full = Subgroup(t1.group, t1.group.elements)
    for p in t1.points:
        assert restrict(t1, full, p).points == frozenset({p})


def test_restriction_to_the_trivial_subgroup_sees_nothing(t1):
    trivial = t1.group.trivial_subgroup()
    for p in t1.points:
        assert restrict(t1, trivial, p).points == frozenset(t1.points)


def test_row_restriction(t2):
    rows = _sub(t2, ROWS)
    assert restrict(t2, rows, 0).points == frozenset({0, 1, 2})
    assert restrict(t2, rows, 5).points == frozenset({3, 4, 5})


def test_restriction_is_a_commutant_orbit(t1, t5, t3, t2):
    # ``restrict`` reads the engine's own commutant and its orbit
    # partition, so the commutant here comes from the brute-force oracle.
    for theory in (t1, t5, t3, t2):
        elements = [tuple(g) for g in theory.group.elements]
        for node in enumerate_self_bicommutant(theory).nodes:
            members = [tuple(h) for h in node.members]
            comm = oracles.centralizer_in(elements, members)
            for p in theory.points:
                assert restrict(theory, node, p).points == oracles.orbit_of(comm, p)


def test_rows_hold_one_state_per_commutant_orbit(t1, t5, t3, t2):
    # Every node and point against the brute-force commutant orbit and
    # orbit-counting purity; points of one orbit share one state object.
    for theory in (t1, t5, t3, t2):
        elements = [tuple(g) for g in theory.group.elements]
        for node in enumerate_self_bicommutant(theory).nodes:
            members = [tuple(h) for h in node.members]
            comm = oracles.centralizer_in(elements, members)
            orbits = [frozenset(oracles.orbit_of(comm, p)) for p in theory.points]
            for p in theory.points:
                state = restrict(theory, node, p)
                assert state == LocalState(node, orbits[p])
                assert is_product_state(theory, node, p).pure == (
                    oracles.is_product_point(elements, members, p)
                )
                for q in theory.points:
                    shared = restrict(theory, node, q) is state
                    assert shared == (orbits[q] == orbits[p])


def test_argument_checks_keep_their_order(t1, t5):
    foreign = t1.group.trivial_subgroup()
    with pytest.raises(SubgroupNotInTheory):
        restrict(t5, foreign, 99)
    with pytest.raises(SubgroupNotInTheory):
        is_product_state(t5, foreign, 99)
    # A single transposition is not its own double commutant in S4:
    # restriction accepts it, and only the purity test refuses it.
    swap = _sub(t5, [(1, 0, 2, 3)])
    with pytest.raises(PointOutOfRange):
        is_product_state(t5, swap, 4)
    assert restrict(t5, swap, 0).points == frozenset({0, 1})
    with pytest.raises(NotSelfBicommutant):
        is_product_state(t5, swap, 0)
    with pytest.raises(NotSelfBicommutant):
        pure_local_states(t5, swap)


def test_act_local_examples(t2):
    rows = _sub(t2, ROWS)
    row0 = restrict(t2, rows, 0)
    ident = Perm.identity(9)
    assert act_local(t2, ident, row0) == row0
    swap_left = Perm((3, 4, 5, 0, 1, 2, 6, 7, 8))
    assert act_local(t2, swap_left, row0).points == frozenset({3, 4, 5})
    with pytest.raises(ElementNotInOwner):
        act_local(t2, Perm((1, 0, 2, 4, 3, 5, 7, 6, 8)), row0)


def test_act_local_matches_global_action(t1):
    for node in enumerate_self_bicommutant(t1).nodes:
        for p in t1.points:
            state = restrict(t1, node, p)
            for h in node.members:
                assert act_local(t1, h, state) == restrict(t1, node, h(p))


def test_local_orbit_of_a_row(t2):
    rows = _sub(t2, ROWS)
    row0 = restrict(t2, rows, 0)
    orbit = {act_local(t2, h, row0) for h in rows.members}
    assert sorted(s.sorted_points for s in orbit) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


def test_iterated_restrict_identity_and_errors(t2):
    rows = _sub(t2, ROWS)
    cols = _sub(t2, COLS)
    row0 = restrict(t2, rows, 0)
    assert iterated_restrict(t2, rows, row0) == row0
    with pytest.raises(NotNested):
        iterated_restrict(t2, cols, row0)


def _coordinate_perm(sigma, axis):
    images = []
    for p in range(27):
        coords = [p // 9, (p // 3) % 3, p % 3]
        coords[axis] = sigma[coords[axis]]
        images.append(9 * coords[0] + 3 * coords[1] + coords[2])
    return tuple(images)


def test_iterated_restrict_through_an_intermediate_level(t4):
    cell_maps = [(1, 0, 2), (1, 2, 0)]
    first = _sub(t4, [_coordinate_perm(s, 0) for s in cell_maps])
    first_two = _sub(
        t4, [_coordinate_perm(s, axis) for s in cell_maps for axis in (0, 1)]
    )
    assert first.order == 6 and first_two.order == 36
    for point in (0, 5, 22):
        direct = restrict(t4, first, point)
        nested = iterated_restrict(t4, first, restrict(t4, first_two, point))
        assert nested == direct
        assert len(direct.points) == 9


def test_iterated_restrict_is_representative_independent(t2):
    lattice = enumerate_self_bicommutant(t2)
    for small in lattice.nodes:
        for big in lattice.nodes:
            if not small.is_subset_of(big):
                continue
            for p in t2.points:
                state = restrict(t2, big, p)
                expected = restrict(t2, small, p)
                for q in state.points:
                    assert restrict(t2, small, q) == expected


def test_purity_for_the_bounds(t1):
    full = Subgroup(t1.group, t1.group.elements)
    trivial = t1.group.trivial_subgroup()
    for p in t1.points:
        assert is_product_state(t1, full, p).pure
        assert is_product_state(t1, trivial, p).pure


def test_purity_matches_oracle_everywhere(t1, t2, t5):
    for theory in (t1, t2, t5):
        elements = [tuple(g) for g in theory.group.elements]
        for node in enumerate_self_bicommutant(theory).nodes:
            raw = {tuple(g) for g in node.members}
            for p in theory.points:
                expected = oracles.is_product_point(elements, raw, p)
                assert is_product_state(theory, node, p).pure == expected


def test_product_rows_against_diagonal_rows(t2, t3):
    rows2 = _sub(t2, ROWS)
    assert all(is_product_state(t2, rows2, p).pure for p in t2.points)
    ident = Perm.identity(6)
    free_factors = [
        node
        for node in enumerate_self_bicommutant(t3).nodes
        if node.order == 6
        and all(
            g[p] != p for g in node.members if g != ident for p in t3.points
        )
    ]
    assert len(free_factors) >= 2
    for node in free_factors:
        assert not any(is_product_state(t3, node, p).pure for p in t3.points)


def test_purity_is_symmetric_and_orbit_constant(t2):
    for node in enumerate_self_bicommutant(t2).nodes:
        comm = commutant(t2, node)
        for p in t2.points:
            verdict = is_product_state(t2, node, p)
            assert verdict.pure == is_product_state(t2, comm, p).pure
            for q in verdict.state.points:
                assert is_product_state(t2, node, q).pure == verdict.pure


def test_split_stabilizer_is_weaker_than_purity(t1):
    fix0 = _sub(t1, [(0, 2, 1)])
    comm = commutant(t1, fix0)
    verdict = is_product_state(t1, fix0, 0)
    splits = states._splits_row(t1, fix0, comm)
    assert verdict.pure and splits[0]
    mixed = is_product_state(t1, fix0, 1)
    assert not mixed.pure
    assert splits[1]


def test_factorizes_requires_a_commuting_pair(t1):
    with pytest.raises(NotOrthogonal):
        factorizes(t1, _sub(t1, [(1, 0, 2)]), _sub(t1, [(2, 1, 0)]), 0)


def test_factorizes_agrees_with_the_commutant_case(t2):
    rows = _sub(t2, ROWS)
    cols = _sub(t2, COLS)
    for p in t2.points:
        assert factorizes(t2, rows, cols, p) == is_product_state(t2, rows, p).pure


def test_pure_local_states_examples(t1, t2, t3):
    full = Subgroup(t1.group, t1.group.elements)
    assert len(pure_local_states(t1, full)) == 3
    a3 = _sub(t1, [(1, 2, 0)])
    assert pure_local_states(t1, a3) == ()
    rows = _sub(t2, ROWS)
    assert [s.sorted_points for s in pure_local_states(t2, rows)] == [
        (0, 1, 2),
        (3, 4, 5),
        (6, 7, 8),
    ]


def test_pure_orbit_closure(t2):
    for node in enumerate_self_bicommutant(t2).nodes:
        pure = set(pure_local_states(t2, node))
        for state in pure:
            for h in node.members:
                assert act_local(t2, h, state) in pure


def test_pure_stabilizer_routes_agree(t1, t2):
    trivial = t1.group.trivial_subgroup()
    whole = restrict(t1, trivial, 0)
    assert pure_stabilizer(t1, whole) == (trivial, trivial)
    rows = _sub(t2, ROWS)
    local_stab, fixed_stab = pure_stabilizer(t2, restrict(t2, rows, 0))
    assert local_stab == fixed_stab
    assert local_stab.order == 2
    assert all(g(0) == 0 for g in local_stab.members)


def test_pure_stabilizer_rejects_mixed_states(t1):
    a3 = _sub(t1, [(1, 2, 0)])
    with pytest.raises(NotPure):
        pure_stabilizer(t1, restrict(t1, a3, 0))


def test_orbit_census_matches_the_pair_enumeration(t1, t5, t3, t2):
    outcomes = set()
    for theory in (t1, t5, t3, t2):
        nodes = enumerate_self_bicommutant(theory).nodes
        pairs = [(node, commutant(theory, node)) for node in nodes]
        pairs += [
            (a, b) for a in nodes for b in nodes if is_orthogonal(theory, a, b)
        ]
        for a, b in pairs:
            for p in theory.points:
                joint, stab_a, stab_b, split = oracles._joint_split(theory, a, b, p)
                expected = (joint == stab_a.order * stab_b.order, split)
                found = (
                    factorizes(theory, a, b, p),
                    states._splits_row(theory, a, b)[p],
                )
                assert found == expected
                outcomes.add(expected)
    # A product state's stabilizer always splits; the other three outcomes
    # all occur (s3_diagonal has the non-split ones), so neither formula
    # is vacuous.
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_states_suite_equals_the_member_loops(t1, t5, t3, t2):
    for theory in (t1, t5, t3, t2):
        assert checks.states_suite(theory) == oracles.states_suite(theory)


@pytest.mark.parametrize("fault", ["act_local", "restrict"])
def test_planted_faults_give_the_member_loops_violations(t2, monkeypatch, fault):
    rows = _sub(t2, ROWS)
    ident = t2.group.identity

    def bad_act_local(theory, h, state):
        # Owner transformations send the lower two rows nowhere.
        if state.owner == rows and h != ident and state.representative >= 3:
            return LocalState(rows, frozenset())
        return act_local(theory, h, state)

    def bad_restrict(theory, sub, point):
        if sub == rows and point == 4:
            return LocalState(rows, frozenset({4}))
        return restrict(theory, sub, point)

    def bad_local_row(theory, sub):
        row = states.local_row(theory, sub)
        if sub == rows:
            return row[:4] + (LocalState(rows, frozenset({4})),) + row[5:]
        return row

    # The suite reads each node's states from its row, and the oracle
    # restricts point by point: both see the faulty state at point 4.
    if fault == "act_local":
        monkeypatch.setattr(checks, "act_local", bad_act_local)
        monkeypatch.setattr(oracles, "act_local", bad_act_local)
    else:
        monkeypatch.setattr(checks, "local_row", bad_local_row)
        monkeypatch.setattr(oracles, "restrict", bad_restrict)
    # The suite restricts a state of a larger node by restricting its
    # representative, which is what iterated_restrict does; the oracle's
    # iterated_restrict must restrict through the same, faulty, function.
    monkeypatch.setattr(
        oracles,
        "iterated_restrict",
        lambda theory, sub, state: oracles.restrict(theory, sub, state.representative),
    )
    found = checks.states_suite(t2)
    assert found == oracles.states_suite(t2)
    assert any("local action on node" in v for v in found.violations)
    if fault == "restrict":
        assert any("distinguishes states" in v for v in found.violations)
        assert any("restricting through node" in v for v in found.violations)


def _node_numbers(violations, message):
    return {int(v.split("node ")[1].split()[0]) for v in violations if message in v}


def test_planted_central_fault_gives_the_member_loops_violations(t2, monkeypatch):
    ident = t2.group.identity

    def bad_act_local(theory, h, state):
        # A central transformation lies in the commutant, so it fixes every
        # commutant orbit; the planted action sends the state nowhere.
        if h != ident and h in state.owner and h in commutant(theory, state.owner):
            return LocalState(state.owner, frozenset())
        return act_local(theory, h, state)

    monkeypatch.setattr(checks, "act_local", bad_act_local)
    monkeypatch.setattr(oracles, "act_local", bad_act_local)
    found = checks.states_suite(t2)
    assert found == oracles.states_suite(t2)
    nodes = enumerate_self_bicommutant(t2).nodes
    central = {
        i
        for i, node in enumerate(nodes)
        if any(h != ident for h in node.members if h in commutant(t2, node))
    }
    assert len(central) == 32
    moved = [v for v in found.violations if "central transformation" in v]
    assert len(moved) == len(central) * t2.degree
    assert _node_numbers(moved, "moves the local state") == central
    assert _node_numbers(found.violations, "local action on node") == central


def test_planted_purity_fault_gives_the_member_loops_violations(t2, monkeypatch):
    rows = _sub(t2, ROWS)
    cols = commutant(t2, rows)
    assert is_product_state(t2, rows, 4).pure

    def bad_is_product_state(theory, sub, point):
        verdict = is_product_state(theory, sub, point)
        if sub == rows and point == 4:
            return verdict._replace(pure=False)
        return verdict

    def bad_purity_row(theory, sub):
        row = states.purity_row(theory, sub)
        if sub == rows:
            return row[:4] + (False,) + row[5:]
        return row

    # The suite reads purity by rows, the oracle point by point.
    monkeypatch.setattr(checks, "purity_row", bad_purity_row)
    monkeypatch.setattr(oracles, "is_product_state", bad_is_product_state)
    found = checks.states_suite(t2)
    assert found == oracles.states_suite(t2)
    nodes = enumerate_self_bicommutant(t2).nodes
    i, j = nodes.index(rows), nodes.index(cols)

    def symmetric(k):
        return (
            f"states: the product-state test on node {k} is not "
            "symmetric in the pair at point 4"
        )

    def constant(p):
        return (
            f"states: purity at node {i} is not constant on the "
            f"commutant orbit of point {p}"
        )

    at_rows = [constant(3), symmetric(i), constant(4), constant(5)]
    at_cols = [symmetric(j)]
    expected = at_rows + at_cols if i < j else at_cols + at_rows
    assert found.violations == tuple(expected)


def test_planted_stabilizer_fault_gives_the_member_loops_violations(t2, monkeypatch):
    # The two routes to the stabilizer of the pure state of the rows node at
    # point 4 planted apart: the pointwise one is the trivial subgroup.
    rows = _sub(t2, ROWS)
    target = restrict(t2, rows, 4)
    assert is_product_state(t2, rows, 4).pure

    def bad_pure_stabilizer(theory, state):
        local_stab, fixed_stab = pure_stabilizer(theory, state)
        if state == target:
            return local_stab, theory.group.trivial_subgroup()
        return local_stab, fixed_stab

    monkeypatch.setattr(checks, "pure_stabilizer", bad_pure_stabilizer)
    monkeypatch.setattr(oracles, "pure_stabilizer", bad_pure_stabilizer)
    found = checks.states_suite(t2)
    assert found == oracles.states_suite(t2)
    i = enumerate_self_bicommutant(t2).nodes.index(rows)
    assert found.violations == tuple(
        f"states: the stabilizer of a pure state of node {i} "
        f"differs from the pointwise stabilizer at point {p}"
        for p in sorted(target.points)
    )
