"""Commutants, the self-bicommutant lattice, and joint transformations."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import oracles
from emergent import checks
from emergent import (
    NotNested,
    NotOrthogonal,
    NotSelfBicommutant,
    Perm,
    ResourceLimit,
    SbcLattice,
    Subgroup,
    SubgroupNotInTheory,
    commutant,
    enumerate_self_bicommutant,
    generate_group,
    is_orthocomplementary,
    is_orthocomplemented,
    is_orthogonal,
    is_self_bicommutant,
    join,
    load_theory,
    meet,
    product_set,
    subgroup_closure,
    validate_global_theory,
)


def _sub(theory, *image_tuples):
    return subgroup_closure(theory.group, [Perm(t) for t in image_tuples])


def _alternating(theory):
    return _sub(theory, (1, 2, 0))


def _full(theory):
    return Subgroup(theory.group, theory.group.elements)


def test_commutant_of_bounds(t1):
    full = _full(t1)
    trivial = t1.group.trivial_subgroup()
    assert commutant(t1, full) == trivial
    assert commutant(t1, trivial) == full


def test_commutant_of_alternating_is_itself(t1):
    a3 = _alternating(t1)
    assert commutant(t1, a3) == a3


def test_commutant_matches_oracle_on_every_subgroup(t1, t5):
    for theory in (t1, t5):
        elements = [tuple(g) for g in theory.group.elements]
        for raw in oracles.all_subgroups(elements):
            sub = Subgroup(theory.group, tuple(sorted(Perm(g) for g in raw)))
            expected = oracles.centralizer_in(elements, raw)
            assert {tuple(g) for g in commutant(theory, sub).members} == expected


def test_self_bicommutant_detection(t1, t5):
    assert is_self_bicommutant(t1, _alternating(t1))
    swap = _sub(t5, (1, 0, 2, 3))
    assert not is_self_bicommutant(t5, swap)
    assert commutant(t5, commutant(t5, swap)) == _sub(t5, (1, 0, 2, 3), (0, 1, 3, 2))


def test_every_commutant_is_self_bicommutant(t1, t5):
    for theory in (t1, t5):
        elements = [tuple(g) for g in theory.group.elements]
        for raw in oracles.all_subgroups(elements):
            sub = Subgroup(theory.group, tuple(sorted(Perm(g) for g in raw)))
            assert is_self_bicommutant(theory, commutant(theory, sub))


def test_bicommutant_contains_and_commutant_reverses(t5):
    elements = [tuple(g) for g in t5.group.elements]
    subs = [
        Subgroup(t5.group, tuple(sorted(Perm(g) for g in raw)))
        for raw in oracles.all_subgroups(elements)
    ]
    for sub in subs:
        assert sub.is_subset_of(commutant(t5, commutant(t5, sub)))
    for a in subs:
        for b in subs:
            if a.is_subset_of(b):
                assert commutant(t5, b).is_subset_of(commutant(t5, a))


def test_enumeration_matches_brute_force(t1):
    lattice = enumerate_self_bicommutant(t1)
    assert [n.order for n in lattice.nodes] == [1, 2, 2, 2, 3, 6]
    elements = [tuple(g) for g in t1.group.elements]
    expected = oracles.self_bicommutant_subgroups(elements)
    got = {frozenset(tuple(g) for g in n.members) for n in lattice.nodes}
    assert got == expected


def test_enumeration_counts(t2, t5):
    assert len(enumerate_self_bicommutant(t2)) == 36
    assert len(enumerate_self_bicommutant(t5)) == 19


def test_lattice_bounds(t1, t2, t5):
    for theory in (t1, t2, t5):
        lattice = enumerate_self_bicommutant(theory)
        assert lattice.bottom.is_trivial
        assert lattice.top == _full(theory)


def test_lattice_node_cap(t2):
    with pytest.raises(ResourceLimit, match="^lattice exceeds cap of 10 subgroups$"):
        enumerate_self_bicommutant(t2, max_nodes=10)


def test_commutant_map_is_an_involution(t2):
    lattice = enumerate_self_bicommutant(t2)
    pairing = lattice.commutant_index
    assert all(pairing[pairing[i]] == i for i in range(len(lattice)))


def test_hasse_edges_cover_exactly_the_covering_relation(t1):
    lattice = enumerate_self_bicommutant(t1)
    assert set(lattice.hasse_edges) == {
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 5),
        (2, 5),
        (3, 5),
        (4, 5),
    }


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
VALID_FIXTURES = ("s3.json", "s4.json", "s3_diagonal.json", "s3x3.json", "s3x3x3.json")
GENERATED = ("d5", "f20", "a4", "s5", "s3_regular")


def _named_theory(request, name):
    if name == "s6":
        return validate_global_theory(
            generate_group(6, [Perm((1, 0, 2, 3, 4, 5)), Perm((1, 2, 3, 4, 5, 0))])
        )
    if name.endswith(".json"):
        return load_theory(FIXTURES / name)[0]
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", VALID_FIXTURES + GENERATED + ("s6",))
def test_order_and_covers_match_the_triple_loop_oracle(request, name):
    # S6 has 513 nodes and 1 542 covers.
    lattice = enumerate_self_bicommutant(_named_theory(request, name))
    node_sets = [node.member_set for node in lattice.nodes]
    assert lattice.above == tuple(
        sum(1 << j for j, b in enumerate(node_sets) if a < b) for a in node_sets
    )
    assert lattice.hasse_edges == oracles.hasse_covers(node_sets)


def test_join_and_meet_examples(t1):
    swap_a = _sub(t1, (1, 0, 2))
    swap_b = _sub(t1, (2, 1, 0))
    assert join(t1, swap_a, swap_b) == _full(t1)
    assert meet(t1, _alternating(t1), swap_a).is_trivial
    for node in enumerate_self_bicommutant(t1).nodes:
        assert join(t1, t1.group.trivial_subgroup(), node) == node
        assert meet(t1, _full(t1), node) == node


def test_join_requires_self_bicommutant_inputs(t5):
    swap = _sub(t5, (1, 0, 2, 3))
    with pytest.raises(NotSelfBicommutant):
        join(t5, swap, swap)


def test_orthogonality(t1, t2):
    for theory in (t1, t2):
        for node in enumerate_self_bicommutant(theory).nodes:
            assert is_orthogonal(theory, node, commutant(theory, node))
    assert not is_orthogonal(t1, _sub(t1, (1, 0, 2)), _sub(t1, (2, 1, 0)))
    # Either side from another theory is refused.
    trivial = t2.group.trivial_subgroup()
    for a, b in ((_full(t1), trivial), (trivial, _full(t1))):
        with pytest.raises(SubgroupNotInTheory):
            is_orthogonal(t2, a, b)


def test_factor_subgroups_are_orthogonal(t2):
    rows = _sub(t2, (3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
    cols = _sub(t2, (1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))
    assert rows.order == 6 and cols.order == 6
    assert is_orthogonal(t2, rows, cols)
    assert commutant(t2, rows) == cols


def test_orthocomplemented(t1, t2):
    assert is_orthocomplemented(t1, _full(t1))
    assert is_orthocomplemented(t1, t1.group.trivial_subgroup())
    assert not is_orthocomplemented(t1, _alternating(t1))
    rows = _sub(t2, (3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
    assert is_orthocomplemented(t2, rows)


def test_orthocomplemented_joins_with_commutant_to_top(t2):
    lattice = enumerate_self_bicommutant(t2)
    for node in lattice.nodes:
        if is_orthocomplemented(t2, node):
            assert join(t2, node, commutant(t2, node)) == lattice.top


def test_orthocomplementary_pairs(t1, t2):
    for theory in (t1, t2):
        for node in enumerate_self_bicommutant(theory).nodes:
            assert is_orthocomplementary(theory, node, commutant(theory, node))
    a3 = _alternating(t1)
    assert is_orthocomplementary(t1, a3, a3)
    swap = _sub(t1, (1, 0, 2))
    assert is_orthocomplementary(t1, swap, swap)


@pytest.mark.parametrize("theory", ["t1", "t3", "t5", "t2", "t4"])
def test_orthocomplementary_on_masks_equals_the_join_and_meet_formula(request, theory):
    # Every node pair, but a sample of the 46 656 on the 27-point theory.
    theory = request.getfixturevalue(theory)
    nodes = enumerate_self_bicommutant(theory).nodes
    pairs = [(a, b) for a in nodes for b in nodes]
    if len(pairs) > 2_000:
        pairs = random.Random(len(nodes)).sample(pairs, 2_000)
    verdicts = [is_orthocomplementary(theory, a, b) for a, b in pairs]
    assert verdicts == [oracles.is_orthocomplementary(theory, a, b) for a, b in pairs]
    assert any(verdicts) and not all(verdicts)


def test_orthocomplementary_refuses_what_join_refuses(t1, t5):
    # A transposition commutes with the trivial subgroup but is not its own
    # double commutant in S4; a subgroup of S3 is not one of S4.
    swap = _sub(t5, (1, 0, 2, 3))
    trivial = t5.group.trivial_subgroup()
    for a, b in ((swap, trivial), (trivial, swap)):
        with pytest.raises(NotSelfBicommutant):
            is_orthocomplementary(t5, a, b)
    foreign = _alternating(t1)
    for a, b in ((foreign, trivial), (trivial, foreign)):
        with pytest.raises(SubgroupNotInTheory):
            is_orthocomplementary(t5, a, b)


def test_orthomodular_check(t1):
    a3 = _alternating(t1)
    full = _full(t1)
    assert oracles.check_orthomodular(t1, a3, a3)
    assert oracles.check_orthomodular(t1, t1.group.trivial_subgroup(), a3)
    assert not oracles.check_orthomodular(t1, a3, full)
    with pytest.raises(NotNested):
        oracles.check_orthomodular(t1, full, a3)


def _relative_commutant(theory, a, b):
    """The commutant of ``a`` inside ``b``."""
    return meet(theory, commutant(theory, a), b)


def test_relative_commutant(t1, t2):
    a3 = _alternating(t1)
    assert _relative_commutant(t1, a3, _full(t1)) == commutant(t1, a3)
    rows = _sub(t2, (3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
    cols = _sub(t2, (1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))
    assert _relative_commutant(t2, rows, _full(t2)) == cols
    assert _relative_commutant(t2, rows, rows).is_trivial


def test_relative_commutant_inside_the_join(t2):
    lattice = enumerate_self_bicommutant(t2)
    for a in lattice.nodes:
        for b in lattice.nodes:
            if is_orthocomplementary(t2, a, b):
                p = join(t2, a, b)
                assert _relative_commutant(t2, a, p) == b
                assert _relative_commutant(t2, b, p) == a


def test_product_set_examples(t1, t2):
    a3 = _alternating(t1)
    assert product_set(t1, a3, a3) == a3
    rows = _sub(t2, (3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
    cols = _sub(t2, (1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))
    assert product_set(t2, rows, cols) == _full(t2)
    with pytest.raises(NotOrthogonal):
        product_set(t1, _sub(t1, (1, 0, 2)), _sub(t1, (2, 1, 0)))


def test_product_set_matches_oracle(t1):
    lattice = enumerate_self_bicommutant(t1)
    for a in lattice.nodes:
        for b in lattice.nodes:
            if not is_orthogonal(t1, a, b):
                continue
            expected = oracles.product_elements(
                [tuple(g) for g in a.members], [tuple(g) for g in b.members]
            )
            got = {tuple(g) for g in product_set(t1, a, b).members}
            assert got == expected


def test_tensor_element(t2):
    # The joint transformation of local transformations h of rows and k of
    # columns is h k: each one is a distinct element of their product set.
    rows = _sub(t2, (3, 4, 5, 0, 1, 2, 6, 7, 8), (3, 4, 5, 6, 7, 8, 0, 1, 2))
    cols = _sub(t2, (1, 0, 2, 4, 3, 5, 7, 6, 8), (1, 2, 0, 4, 5, 3, 7, 8, 6))
    joint = [h * k for h in rows.members for k in cols.members]
    assert len(set(joint)) == rows.order * cols.order
    assert set(joint) == product_set(t2, rows, cols).member_set
    assert all(h * k == k * h for h in rows.members for k in cols.members)


def test_orthogonality_is_symmetric_on_every_node_pair(t1, t2, t3, t5):
    for theory in (t1, t5, t3, t2):
        nodes = enumerate_self_bicommutant(theory).nodes
        for a in nodes:
            for b in nodes:
                found = is_orthogonal(theory, a, b)
                assert found == is_orthogonal(theory, b, a)
                assert found == all(h * k == k * h for h in a.members for k in b.members)


def test_product_set_of_commuting_nodes_is_a_subgroup(t1, t2, t3, t5):
    for theory in (t1, t5, t3, t2):
        nodes = enumerate_self_bicommutant(theory).nodes
        for a in nodes:
            for b in nodes:
                if not is_orthogonal(theory, a, b):
                    continue
                product = product_set(theory, a, b)
                assert product == subgroup_closure(theory.group, product.members)


def test_lattice_suite_flags_a_planted_non_commuting_pair(monkeypatch, t1):
    # Declare every node pair orthogonal: the commutation checks must then
    # flag exactly the pairs that an exhaustive element search finds.
    monkeypatch.setattr(checks, "is_orthogonal", lambda theory, a, b: True)
    monkeypatch.setattr(checks, "product_set", checks.join)
    result = checks.lattice_suite(t1)
    nodes = enumerate_self_bicommutant(t1).nodes
    expected = []
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes[i:], start=i):
            if any(h * k != k * h for h in a.members for k in b.members):
                expected += [
                    f"lattice: swapping the factors of nodes {i}, {j} "
                    "changes the joint transformation",
                    f"lattice: joint transformations of nodes {i}, {j} "
                    "do not multiply factorwise",
                ]
    flagged = [
        v for v in result.violations if "swapping" in v or "factorwise" in v
    ]
    assert expected
    assert flagged == expected
    assert len(result.violations) == 37


def test_lattice_suite_equals_the_triple_loop(t1, t5, t3, t2):
    for theory in (t1, t5, t3, t2):
        assert checks.lattice_suite(theory) == oracles.lattice_suite(theory)


def test_planted_join_fault_gives_the_triple_loop_result(monkeypatch, t2):
    nodes = enumerate_self_bicommutant(t2).nodes
    pair, target = {nodes[1], nodes[2]}, nodes[-2]
    assert join(t2, nodes[1], nodes[2]) != target

    def bad_join(theory, a, b):
        # One node pair, in either order, joins to the wrong node.
        if {a, b} == pair:
            return target
        return join(theory, a, b)

    monkeypatch.setattr(checks, "join", bad_join)
    monkeypatch.setattr(oracles, "join", bad_join)
    found = checks.lattice_suite(t2)
    assert found == oracles.lattice_suite(t2)
    assert found.violations
    (count,) = [x for x in found.notices if "distributivity" in x]
    monkeypatch.undo()
    assert count not in checks.lattice_suite(t2).notices


def _plant(monkeypatch, name, pair, target):
    """``checks.<name>`` and ``oracles.<name>`` send one node pair, in either
    order, to ``target``."""
    right = getattr(checks, name)

    def planted(theory, a, b):
        if {a, b} == pair:
            return target
        return right(theory, a, b)

    monkeypatch.setattr(checks, name, planted)
    monkeypatch.setattr(oracles, name, planted)


def test_planted_meet_fault_breaks_absorption_on_the_second_node_only(
    monkeypatch, t1
):
    # Nodes 1 and 2 join to the top; meet(2, top) goes wrong and meet(1, top)
    # does not, so only the second half of the check sees the pair (1, 2).
    nodes = enumerate_self_bicommutant(t1).nodes
    top = nodes[-1]
    assert join(t1, nodes[1], nodes[2]) == top
    _plant(monkeypatch, "meet", {nodes[2], top}, top)
    found = checks.lattice_suite(t1)
    assert found == oracles.lattice_suite(t1)
    assert "lattice: meet does not absorb the join on nodes 1, 2" in found.violations


def test_planted_join_fault_breaks_absorption_on_the_second_node_only(
    monkeypatch, t5
):
    # Nodes 8 and 16 meet in node 1; join(16, node 1) goes wrong and
    # join(8, node 1) does not.  In s3 every meet of two distinct proper
    # nodes is trivial, and a planted join with the trivial node also
    # moves the orthomodular count, which the oracle reads unplanted.
    nodes = enumerate_self_bicommutant(t5).nodes
    low = nodes[1]
    assert meet(t5, nodes[8], nodes[16]) == low
    _plant(monkeypatch, "join", {nodes[16], low}, nodes[-1])
    found = checks.lattice_suite(t5)
    assert found == oracles.lattice_suite(t5)
    assert "lattice: join does not absorb the meet on nodes 8, 16" in found.violations


def test_planted_commutant_fault_breaks_the_order_reversal(monkeypatch, t1):
    # The commutant of the trivial node 0 goes to node 1 instead of the top.
    # Node 0 lies inside node 2, whose commutant, node 2 itself, does not lie
    # inside node 1, so taking commutants no longer reverses that inclusion;
    # both this check and the orthomodular count read the inclusion bitsets.
    nodes = enumerate_self_bicommutant(t1).nodes
    clean = checks.lattice_suite(t1)
    right = checks.commutant

    def planted(theory, sub):
        return nodes[1] if sub == nodes[0] else right(theory, sub)

    monkeypatch.setattr(checks, "commutant", planted)
    monkeypatch.setattr(oracles, "commutant", planted)
    found = checks.lattice_suite(t1)
    assert found == oracles.lattice_suite(t1)
    assert (
        "lattice: taking commutants does not reverse the inclusion of nodes 0, 2"
        in found.violations
    )
    (count,) = [x for x in found.notices if "orthomodular" in x]
    assert count not in clean.notices


def test_planted_commutant_fault_breaks_the_order_reversal_the_other_way(monkeypatch, t5):
    # Nodes are listed by order, so a node inside a later one is seen only
    # in the first direction.  Listed with node 8 ahead of node 1, which it
    # contains, the pair is seen in the second.  The commutant of node 1
    # goes to node 11, which meets node 1 as before but does not contain
    # the commutant of node 8, node 8 itself.
    nodes = enumerate_self_bicommutant(t5).nodes
    small, big = nodes[1], nodes[8]
    assert small.is_subset_of(big) and commutant(t5, big) == big
    assert small.is_subset_of(nodes[11]) and not big.is_subset_of(nodes[11])
    order = list(nodes)
    order[1], order[8] = big, small
    planted_lattice = SbcLattice(t5, tuple(order))
    right = checks.commutant

    def planted(theory, sub):
        return nodes[11] if sub == small else right(theory, sub)

    for module in (checks, oracles):
        monkeypatch.setattr(module, "enumerate_self_bicommutant", lambda theory: planted_lattice)
        monkeypatch.setattr(module, "commutant", planted)
    found = checks.lattice_suite(t5)
    assert found == oracles.lattice_suite(t5)
    # Node 8 of the planted list is node 1, and node 1 is node 8.
    assert (
        "lattice: taking commutants does not reverse the inclusion of nodes 8, 1"
        in found.violations
    )


def test_a_product_that_is_not_a_node_is_a_notice(monkeypatch, t5):
    # The product of the commuting nodes 0 and 1 planted as A4, which is
    # not its own double commutant in S4.
    nodes = enumerate_self_bicommutant(t5).nodes
    a4 = _sub(t5, (1, 2, 0, 3), (0, 2, 3, 1))
    assert a4 not in nodes
    _plant(monkeypatch, "product_set", {nodes[0], nodes[1]}, a4)
    found = checks.lattice_suite(t5)
    assert found == oracles.lattice_suite(t5)
    assert "lattice: product of commuting nodes 0, 1 is not a node" in found.notices


def test_lattice_suite_reports_a_missing_node_without_a_traceback(
    monkeypatch, t1
):
    # Drop the trivial subgroup: meets of the order-2 nodes are then not
    # nodes, the meet table has holes, and distributivity is not counted.
    nodes = enumerate_self_bicommutant(t1).nodes
    partial = SbcLattice(t1, nodes[1:])
    monkeypatch.setattr(checks, "enumerate_self_bicommutant", lambda theory: partial)
    found = checks.lattice_suite(t1)
    assert "lattice: meet of nodes 0, 1 is not a node" in found.violations
    assert not any("distributivity" in x for x in found.notices)


def test_lattice_suite_reports_a_node_that_is_not_its_own_double_commutant(
    monkeypatch, t5
):
    # A4 has a trivial commutant in S4, so its double commutant is all of S4.
    # Planted ahead of the top node, it is reported and no meet or join of
    # it is attempted, so nothing raises.
    nodes = enumerate_self_bicommutant(t5).nodes
    a4 = _sub(t5, (1, 2, 0, 3), (0, 2, 3, 1))
    assert a4.order == 12
    planted = SbcLattice(t5, nodes[:-1] + (a4,) + nodes[-1:])
    monkeypatch.setattr(checks, "enumerate_self_bicommutant", lambda theory: planted)
    found = checks.lattice_suite(t5)
    assert found.violations == (
        f"lattice: node {len(nodes) - 1} is not its own double commutant",
    )
    assert found.notices == (f"lattice: {len(planted)} nodes",)


def test_lattice_suite_skips_the_laws_when_a_commutant_is_not_a_node(
    monkeypatch, t1
):
    # Drop the full group: the commutant of the trivial node and the joins
    # of complementary nodes are then not nodes, so the tables have holes
    # and no law is evaluated, not even the join to the top.
    nodes = enumerate_self_bicommutant(t1).nodes
    partial = SbcLattice(t1, nodes[:-1])
    monkeypatch.setattr(checks, "enumerate_self_bicommutant", lambda theory: partial)
    found = checks.lattice_suite(t1)
    holes = [
        f"lattice: join of nodes {i}, {j} is not a node"
        for i, a in enumerate(partial.nodes)
        for j, b in enumerate(partial.nodes[i:], start=i)
        if join(t1, a, b) not in partial.node_index
    ]
    assert holes
    assert found.violations == (
        "lattice: the greatest node is not the full group",
        "lattice: commutant of node 0 is not a node",
        *holes,
    )
    assert found.notices == ("lattice: 5 nodes",)
