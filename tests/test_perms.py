"""Permutations, group generation, centralizers, and theory validation."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from emergent import (
    DegreeMismatch,
    FiniteGroup,
    InvalidTheory,
    NotCentreless,
    NotTransitive,
    Perm,
    PointOutOfRange,
    ResourceLimit,
    Subgroup,
    centralizer,
    centre,
    enumerate_self_bicommutant,
    enumerate_systems,
    generate_group,
    pure_stabilizer,
    restrict,
    subgroup_closure,
    symmetric_group,
    validate_global_theory,
)
import emergent.perms
from emergent.perms import close, reduce_generators
from emergent.states import _orbits


def test_perm_rejects_non_bijections():
    with pytest.raises(DegreeMismatch):
        Perm((0, 0, 1))
    with pytest.raises(DegreeMismatch):
        Perm((0, 3, 1))


def test_composition_applies_the_left_factor_last():
    swap = Perm((1, 0, 2))
    cycle = Perm((1, 2, 0))
    assert tuple(swap * cycle) == oracles.compose(swap, cycle)
    assert (swap * cycle)(0) == swap(cycle(0))


def test_inverse_and_identity():
    cycle = Perm((1, 2, 0))
    assert cycle * cycle.inverse() == Perm.identity(3)
    assert tuple(cycle.inverse()) == oracles.inverse(cycle)


def test_from_cycles():
    assert Perm.from_cycles(4, [[0, 1], [2, 3]]) == Perm((1, 0, 3, 2))
    assert Perm.from_cycles(3, []) == Perm.identity(3)


def test_generate_group_orders():
    assert generate_group(3, []).order == 1
    assert generate_group(3, [Perm((1, 0, 2))]).order == 2
    group = generate_group(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    assert group.element_set == frozenset(
        map(Perm, oracles.mulclose({(1, 0, 2), (1, 2, 0)}))
    )


def test_generate_group_respects_cap():
    with pytest.raises(ResourceLimit, match="^group order exceeds cap of 4 elements$"):
        generate_group(3, [Perm((1, 0, 2)), Perm((1, 2, 0))], max_order=4)


def test_close_grows_a_set_under_a_map():
    span = {1}
    close(span, lambda x: [2 * x % 11])
    assert span == set(range(1, 11))


def test_close_skips_a_successor_already_in_the_set():
    calls = []

    def successors(x):
        calls.append(x)
        return [x, (x + 1) % 3]

    span = {0}
    close(span, successors)
    assert span == {0, 1, 2}
    assert sorted(calls) == [0, 1, 2]


def test_close_expands_only_the_frontier_and_what_joins():
    calls = []

    def successors(x):
        calls.append(x)
        return [(x + 2) % 6]

    # {0, 2, 4} is closed already; 1 joins it and brings 3 and 5.
    span = {0, 2, 4, 1}
    close(span, successors, frontier=[1])
    assert span == set(range(6))
    assert calls == [1, 3, 5]


def test_close_raises_the_callers_message_only_past_the_cap():
    at_cap = {0}
    close(at_cap, lambda x: [min(x + 1, 4)], cap=5, message="too many")
    assert at_cap == {0, 1, 2, 3, 4}
    past_cap = {0}
    with pytest.raises(ResourceLimit, match="^too many$"):
        close(past_cap, lambda x: [min(x + 1, 5)], cap=5, message="too many")
    assert len(past_cap) == 6


def test_generated_group_is_closed(t5):
    group = t5.group
    elems = group.element_set
    for g in group.elements:
        assert g.inverse() in elems
        for h in group.elements:
            assert g * h in elems


def test_centralizer_matches_oracle(t1, t5):
    for theory in (t1, t5):
        elements = [tuple(g) for g in theory.group.elements]
        for g in theory.group.elements:
            expected = oracles.centralizer_in(elements, {tuple(g)})
            got = centralizer(theory.group, (g,))
            assert {tuple(x) for x in got.members} == expected


def test_centralizer_of_empty_set_is_everything(t1):
    assert centralizer(t1.group, ()).order == 6


def test_centre_examples(t1):
    assert centre(t1.group).order == 1
    order_two = generate_group(2, [Perm((1, 0))])
    assert centre(order_two) == Subgroup(order_two, order_two.elements)


def test_validate_global_theory_accepts_the_three_state_model():
    group = generate_group(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    theory = validate_global_theory(group)
    assert theory.degree == 3
    assert tuple(theory.points) == (0, 1, 2)


def test_validate_rejects_abelian_groups():
    group = generate_group(2, [Perm((1, 0))])
    with pytest.raises(NotCentreless):
        validate_global_theory(group)


def test_validate_rejects_intransitive_actions():
    group = generate_group(4, [Perm((1, 0, 2, 3))])
    with pytest.raises(NotTransitive):
        validate_global_theory(group)


def test_theory_violations_lists_every_failure():
    group = generate_group(4, [Perm((1, 0, 2, 3))])
    with pytest.raises(InvalidTheory) as info:
        validate_global_theory(group)
    reasons = info.value.violations
    assert len(reasons) >= 2
    joined = " ".join(reasons)
    assert "transitive" in joined
    assert "centre" in joined


def test_stabilizer_example(t1):
    # Both bounds see only pure states; the pointwise stabilizer of a state's
    # representative is the second route of ``pure_stabilizer``.
    full = Subgroup(t1.group, t1.group.elements)
    _, stab = pure_stabilizer(t1, restrict(t1, full, 0))
    assert stab.members == (Perm((0, 1, 2)), Perm((0, 2, 1)))
    trivial = t1.group.trivial_subgroup()
    assert pure_stabilizer(t1, restrict(t1, trivial, 2))[1] == trivial
    with pytest.raises(PointOutOfRange):
        restrict(t1, trivial, 3)


def test_orbit_stabilizer_relation_everywhere(t5):
    # The engine's orbit partition of every subgroup, against the oracle's
    # stabilizers.
    elements = [tuple(g) for g in t5.group.elements]
    for raw in oracles.all_subgroups(elements):
        sub = Subgroup(t5.group, tuple(sorted(Perm(g) for g in raw)))
        orbits = _orbits(t5, sub)
        for point in t5.points:
            assert orbits[point] == oracles.orbit_of(raw, point)
            assert len(orbits[point]) * len(oracles.stabilizer_in(raw, point)) == sub.order


def test_subgroup_closure_inside_parent(t1):
    closed = subgroup_closure(t1.group, [Perm((1, 0, 2))])
    assert closed.members == (Perm((0, 1, 2)), Perm((1, 0, 2)))


def _digit_generators(groups):
    """Each factor's generators acting on its own digit of the product point.

    The point ``(x_0, ..., x_k)`` is ``x_0*n_1*...*n_k + ...``, with the
    last factor varying fastest, as in the product fixtures.
    """
    total = math.prod(group.degree for group in groups)
    gens = []
    stride = total
    for group in groups:
        n = group.degree
        stride //= n
        for g in reduce_generators(group.elements, n):
            gens.append(
                [p + (g[p // stride % n] - p // stride % n) * stride for p in range(total)]
            )
    return gens


def test_direct_product_action_encoding(t2, t4):
    # The product fixtures are the direct product actions of S3 on two and
    # three digits.
    s3 = symmetric_group(3)
    assert t2.group.elements == _mixed_radix_product([s3, s3])
    assert t4.group.elements == _mixed_radix_product([s3, s3, s3])
    left = Perm((1, 0, 2))
    embedded_left = Perm(3 * left(i // 3) + i % 3 for i in range(9))
    assert embedded_left in t2.group
    assert embedded_left(0) == 3
    assert embedded_left(5) == 2


def _mixed_radix_product(groups):
    """Every tuple of factor elements, each acting on its own digit."""
    degrees = [g.degree for g in groups]
    strides = [math.prod(degrees[i + 1 :]) for i in range(len(groups))]
    elements = []
    for combo in itertools.product(*(g.elements for g in groups)):
        images = []
        for point in range(math.prod(degrees)):
            digits = [point // s % n for s, n in zip(strides, degrees)]
            images.append(sum(g[d] * s for g, d, s in zip(combo, digits, strides)))
        elements.append(Perm(images))
    return tuple(sorted(elements))


@pytest.mark.parametrize("degrees", [(3, 4), (4, 3), (2, 3, 4)])
def test_direct_product_action_is_the_mixed_radix_enumeration(degrees):
    groups = [symmetric_group(n) for n in degrees]
    product = generate_group(math.prod(degrees), _digit_generators(groups))
    assert product.degree == math.prod(degrees)
    assert product.elements == _mixed_radix_product(groups)


def test_direct_product_action_answers_to_the_order_cap():
    gens = _digit_generators([symmetric_group(3)] * 2)
    assert generate_group(9, gens, max_order=36).order == 36
    with pytest.raises(ResourceLimit, match="group order exceeds cap of 35 elements"):
        generate_group(9, gens, max_order=35)


def _reduce_generators_reclosing(members, degree):
    """The greedy generating subset, re-closing the whole span per generator."""
    gens, span = [], {Perm.identity(degree)}
    for m in members:
        if m in span:
            continue
        gens.append(m)
        frontier = list(span)
        while frontier:
            new = [h * g for h in frontier for g in gens]
            frontier = [h for h in new if h not in span]
            span.update(frontier)
        if len(span) == len(members):
            break
    return gens


@pytest.mark.parametrize("theory", ["t1", "t5", "t2", "t4", "t3", "s5"])
def test_reduce_generators_closes_each_member_once_per_generator(request, theory, monkeypatch):
    theory = request.getfixturevalue(theory)
    subgroups = [node for node in enumerate_self_bicommutant(theory).nodes]
    subgroups += [system.transf for system in enumerate_systems(theory)]
    products = [0]
    tuple_getter = emergent.perms._tuple_getter

    def counting(positions):
        step = tuple_getter(positions)

        def counted(h):
            products[0] += 1
            return step(h)

        return counted

    monkeypatch.setattr(emergent.perms, "_tuple_getter", counting)
    for sub in subgroups:
        products[0] = 0
        gens = reduce_generators(sub.members, theory.degree)
        assert gens == _reduce_generators_reclosing(sub.members, theory.degree)
        assert products[0] == len(sub.members) * len(gens)


def test_canonical_order_is_stable(t2):
    rebuilt = FiniteGroup(t2.degree, tuple(sorted(t2.group.elements)))
    assert rebuilt.elements == t2.group.elements


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_product_matches_oracle_on_random_pairs(a, b):
    assert tuple(Perm(a) * Perm(b)) == oracles.compose(tuple(a), tuple(b))


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_inverse_matches_oracle_on_random_perms(a):
    assert tuple(Perm(a).inverse()) == oracles.inverse(tuple(a))
