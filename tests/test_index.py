"""Element numbering and bitmask subgroups, checked against the oracles."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from emergent import (
    Perm,
    Subgroup,
    centralizer,
    commutant,
    enumerate_self_bicommutant,
    generate_group,
    join,
    load_theory,
    meet,
    subgroup_closure,
)
from emergent.perms import GroupIndex, reduce_generators

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SMALL = ("s3.json", "s4.json", "s3_diagonal.json", "s3x3.json")
VALID = SMALL + ("s3x3x3.json",)
# Theories built from generators in conftest; s3_regular has a one-point base.
GENERATED = ("d5", "f20", "a4", "s5", "s6", "s3_regular")
# s3x3x3 has 216 nodes; its node pairs are sampled for the join oracle.
PAIR_LIMIT = 2_000
PAIR_SAMPLE = 300


def _theory(name):
    theory, _ = load_theory(FIXTURES / name)
    return theory


def _group(request, name):
    """The group of a fixture file, of a conftest theory, or of degree one."""
    if name == "degree-one":
        return generate_group(1, [])
    if name.endswith(".json"):
        return _theory(name).group
    return request.getfixturevalue(name).group


def _raw(sub):
    return {tuple(g) for g in sub.members}


@pytest.mark.parametrize("name", SMALL)
def test_positions_round_trip_in_sorted_order(name):
    group = _theory(name).group
    index = group.index
    raw = [tuple(g) for g in group.elements]
    assert raw == sorted(raw)
    assert raw[0] == oracles.identity(group.degree)
    for i, g in enumerate(group.elements):
        assert index.position[g] == i
        assert index.position[tuple(g)] == i
        assert index.indices(1 << i) == [i]
    assert index.indices(index.full) == list(range(group.order))


@pytest.mark.parametrize("name", SMALL)
def test_composition_and_inverse_match_oracle(name):
    group = _theory(name).group
    index = group.index
    raw = [tuple(g) for g in group.elements]
    for i, g in enumerate(raw):
        assert raw[index.inverse[i]] == oracles.inverse(g)
        for j, h in enumerate(raw):
            assert raw[index.mul(i, j)] == oracles.compose(g, h)


@pytest.mark.parametrize("name", SMALL)
def test_point_images_match_elements(name):
    group = _theory(name).group
    images = group.index.images
    for i, g in enumerate(group.elements):
        assert [images[p][i] for p in range(group.degree)] == list(g)


def _assert_centralizers_match_oracle(group, numbers):
    """Each listed element's centralizer mask, on a fresh index, is the oracle's."""
    index = GroupIndex(group.elements)
    raw = [tuple(g) for g in group.elements]
    for i in numbers:
        got = {raw[j] for j in index.indices(index.element_centralizer(i))}
        assert got == oracles.centralizer_in(raw, {raw[i]})


@pytest.mark.parametrize("name", VALID + GENERATED + ("degree-one",))
def test_element_centralizer_masks_match_oracle(request, name):
    group = _group(request, name)
    _assert_centralizers_match_oracle(group, range(group.order))
    assert group.index.element_centralizer(0) == group.index.full


@pytest.mark.parametrize(
    ("generators", "order"),
    [
        ("s7_generators", 5040),
        ("gl42_generators", 20160),
        ("s6_regular_generators", 720),
    ],
)
def test_sampled_element_centralizers_match_oracle(request, generators, order):
    degree, gens = request.getfixturevalue(generators)
    group = generate_group(degree, [Perm(g) for g in gens])
    assert group.order == order
    _assert_centralizers_match_oracle(group, random.Random(order).sample(range(order), 8))


@pytest.mark.parametrize("name", VALID + GENERATED)
def test_a_centre_check_builds_only_the_transfer_rows_it_reads(request, name):
    # The rows of the base points and of their images under the generators;
    # none where degree^3 > order^2 (d5, s3_regular), whose test reads the
    # point images.
    group = _group(request, name)
    index = GroupIndex(group.elements)
    gens = reduce_generators(group.elements, group.degree)
    assert index.centralizer(index.mask_of(gens)) == 1
    read = {g[b] for g in (group.identity, *gens) for b in index.base}
    if group.degree**3 > group.order**2:
        read = set()
    built = {p for p in range(group.degree) if index._transfers[p] is not None}
    assert built == read
    if name == "s3x3x3.json":
        assert len(built) < group.degree


@pytest.mark.parametrize("name", VALID)
def test_mask_commutant_meet_and_join_match_oracle(name):
    theory = _theory(name)
    raw = [tuple(g) for g in theory.group.elements]
    nodes = enumerate_self_bicommutant(theory).nodes
    for node in nodes:
        expected = oracles.centralizer_in(raw, _raw(node))
        assert _raw(commutant(theory, node)) == expected
    pairs = [(a, b) for a in nodes for b in nodes]
    if len(pairs) > PAIR_LIMIT:
        pairs = random.Random(len(nodes)).sample(pairs, PAIR_SAMPLE)
    for a, b in pairs:
        assert _raw(meet(theory, a, b)) == _raw(a) & _raw(b)
        outer = oracles.centralizer_in(raw, _raw(a) | _raw(b))
        assert _raw(join(theory, a, b)) == oracles.centralizer_in(raw, outer)


@pytest.mark.parametrize("name", VALID + GENERATED + ("degree-one",))
def test_only_the_identity_fixes_every_base_point(request, name):
    group = _group(request, name)
    base = group.index.base
    fixing = [g for g in group.elements if all(g[b] == b for b in base)]
    assert fixing == [group.identity]
    expected_size = {"s3_regular": 1, "degree-one": 0}.get(name)
    if expected_size is not None:
        assert len(base) == expected_size


def test_subgroup_from_members_equals_subgroup_from_mask(t2):
    group = t2.group
    for node in enumerate_self_bicommutant(t2).nodes:
        by_members = Subgroup(group, node.members)
        by_mask = Subgroup.from_mask(group, node.mask)
        assert by_members == by_mask
        assert hash(by_members) == hash(by_mask)
        assert by_members.members == by_mask.members
        assert repr(by_members) == repr(by_mask)
        assert {by_members: 1}[by_mask] == 1


def test_degree_one_group():
    group = generate_group(1, [])
    assert group.elements == (Perm((0,)),)
    index = group.index
    assert index.mul(0, 0) == 0
    assert index.inverse == (0,)
    assert index.element_centralizer(0) == 1
    full = Subgroup(group, group.elements)
    assert centralizer(group, group.elements) == full
    closed = subgroup_closure(group, [Perm((0,))])
    assert closed == group.trivial_subgroup() == full
    assert generate_group(1, [Perm((0,))]) == group


@st.composite
def _generating_sets(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    points = list(range(degree))
    return draw(st.lists(st.permutations(points), min_size=1, max_size=3))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=2, max_size=2)
    )
)
def test_element_centralizers_match_oracle_on_random_groups(gens):
    group = generate_group(len(gens[0]), [Perm(g) for g in gens])
    _assert_centralizers_match_oracle(group, range(group.order))


@settings(max_examples=25, deadline=None)
@given(_generating_sets())
def test_random_small_groups_match_oracles(gens):
    raw_gens = [tuple(g) for g in gens]
    group = generate_group(len(raw_gens[0]), [Perm(g) for g in raw_gens])
    raw = [tuple(g) for g in group.elements]
    generated = oracles.mulclose(set(raw_gens))
    assert set(raw) == generated
    for g in raw_gens:
        got = centralizer(group, (Perm(g),))
        assert _raw(got) == oracles.centralizer_in(raw, {g})
    got = centralizer(group, [Perm(g) for g in raw_gens])
    assert _raw(got) == oracles.centralizer_in(raw, set(raw_gens))
    for size in range(1, len(raw_gens) + 1):
        seed = raw_gens[:size]
        closed = subgroup_closure(group, [Perm(g) for g in seed])
        expected = generated if size == len(raw_gens) else oracles.mulclose(set(seed))
        assert _raw(closed) == expected
