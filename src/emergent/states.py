"""Local states of a subsystem and the product-state test.

The local state a subgroup H can see at a global state p is the orbit of
p under the commutant of H: two global states related by a transformation
H commutes with are indistinguishable to H.  A global state is a product
state for H when its joint stabilizer over H and the commutant splits as
a direct product of the marginal stabilizers, that is, when its H-orbit
and its commutant orbit meet only in the state itself.  Restriction and
the test both read the orbit partition of each subgroup, computed once
per subgroup and kept in the theory's memo.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import ElementNotInOwner, NotNested, NotOrthogonal, NotPure
from .lattice import commutant, is_orthogonal, require_self_bicommutant
from .perms import GlobalTheory, Perm, Subgroup, require_point, require_subgroup, theory_memo


class LocalState:
    """A state of the subsystem with transformations ``owner``.

    ``points`` is the set of global states the owner cannot tell apart;
    it is always a single orbit of the owner's commutant.
    """

    def __init__(self, owner: Subgroup, points: frozenset[int]) -> None:
        self.owner = owner
        self.points = points
        self._hash = hash((owner, points))

    def __repr__(self) -> str:
        return f"LocalState(owner={self.owner!r}, points={self.points!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.owner, self.points) == (other.owner, other.points)

    @cached_property
    def sorted_points(self) -> tuple[int, ...]:
        return tuple(sorted(self.points))

    @property
    def representative(self) -> int:
        return min(self.points)


def state_key(state: LocalState) -> tuple[int, ...]:
    """Deterministic sort key for local states of a common owner."""
    return state.sorted_points


@theory_memo
def _orbits(theory: GlobalTheory, sub: Subgroup) -> tuple[frozenset[int], ...]:
    """The orbit of every point under ``sub``; points of one orbit share it."""
    images = theory.group.index.images
    orbits: list[frozenset[int] | None] = [None] * theory.degree
    for p in theory.points:
        if orbits[p] is None:
            image = images[p]
            orbit = frozenset(image[h] for h in sub.indices)
            for q in orbit:
                orbits[q] = orbit
    return tuple(orbits)


@theory_memo
def restrict(theory: GlobalTheory, sub: Subgroup, point: int) -> LocalState:
    """The local state ``sub`` sees at the global state ``point``."""
    require_subgroup(theory, sub)
    require_point(theory, point)
    return LocalState(sub, _orbits(theory, commutant(theory, sub))[point])


def act_local(theory: GlobalTheory, h: Perm, state: LocalState) -> LocalState:
    """Apply a transformation of the owner to a local state.

    Well defined because the owner commutes with the commutant orbit that
    defines the state.
    """
    if h not in state.owner:
        raise ElementNotInOwner(f"{h!r} does not belong to the state's owner")
    return LocalState(state.owner, frozenset(h[p] for p in state.points))


def iterated_restrict(theory: GlobalTheory, sub: Subgroup, state: LocalState) -> LocalState:
    """Restrict a local state further, to a subgroup of its owner.

    Restricting via any global representative gives the same answer, so
    the minimum point of the state is used.
    """
    require_subgroup(theory, sub)
    if not sub.is_subset_of(state.owner):
        raise NotNested("can only restrict a state to a subgroup of its owner")
    return restrict(theory, sub, state.representative)


def _orbits_meet_once(theory: GlobalTheory, a: Subgroup, b: Subgroup, point: int) -> bool:
    """Whether the A-orbit and the B-orbit of ``point`` meet only in it."""
    return len(_orbits(theory, a)[point] & _orbits(theory, b)[point]) == 1


def _stabilizer_splits(theory: GlobalTheory, a: Subgroup, b: Subgroup, point: int) -> bool:
    """Whether the stabilizer of ``point`` in AB is the product A_p B_p.

    A_p B_p lies in (AB)_p, so the two are equal exactly when
    |AB|/|ABp| = |A_p|·|B_p|/|(A∩B)_p|.  Here |AB| = |A|·|B|/|A∩B| and
    ABp, the orbit of p under AB, is the union of the B-orbits over Ap.
    Purity does not read it: only the states suite's divergence notice does.
    """
    both = Subgroup.from_mask(a.parent, a.mask & b.mask)
    orbits_b = _orbits(theory, b)
    orbit_a = _orbits(theory, a)[point]
    fixed_a = a.order // len(orbit_a)
    fixed_b = b.order // len(orbits_b[point])
    fixed_both = both.order // len(_orbits(theory, both)[point])
    orbit_product = set().union(*(orbits_b[q] for q in orbit_a))
    product_order = a.order * b.order // both.order
    return product_order * fixed_both == len(orbit_product) * fixed_a * fixed_b


class PurityVerdict(NamedTuple):
    """Outcome of the product-state test at one global state."""

    state: LocalState
    pure: bool


@theory_memo
def is_product_state(theory: GlobalTheory, sub: Subgroup, point: int) -> PurityVerdict:
    """Test whether a global state splits over ``sub`` and its commutant.

    Write A for ``sub``, B for its commutant, Ap for the A-orbit of the
    point p and A_p for its stabilizer.  The joint stabilizer
    {(h, k) : h k p = p} has |Ap ∩ Bp|·|A_p|·|B_p| members and projects
    onto the two witness stabilizers {h ∈ A : h p ∈ Bp} and
    {k ∈ B : k p ∈ Ap}, which have |Ap ∩ Bp|·|A_p| and |Ap ∩ Bp|·|B_p|.
    The state is a product state when the joint stabilizer is their full
    direct product, which holds exactly when |Ap ∩ Bp| = 1: the two orbits
    meet only in p.
    """
    require_subgroup(theory, sub)
    require_point(theory, point)
    require_self_bicommutant(theory, sub)
    comm = commutant(theory, sub)
    return PurityVerdict(
        state=restrict(theory, sub, point),
        pure=_orbits_meet_once(theory, sub, comm, point),
    )


def factorizes(theory: GlobalTheory, a: Subgroup, b: Subgroup, point: int) -> bool:
    """Product-state test for an arbitrary commuting pair of subgroups."""
    if not is_orthogonal(theory, a, b):
        raise NotOrthogonal("the factorization test requires commuting subgroups")
    require_point(theory, point)
    return _orbits_meet_once(theory, a, b, point)


@theory_memo
def pure_local_states(theory: GlobalTheory, sub: Subgroup) -> tuple[LocalState, ...]:
    """All distinct local states of ``sub`` arising from product states."""
    require_subgroup(theory, sub)
    states = {
        restrict(theory, sub, p)
        for p in theory.points
        if is_product_state(theory, sub, p).pure
    }
    return tuple(sorted(states, key=state_key))


def pure_stabilizer(
    theory: GlobalTheory, state: LocalState
) -> tuple[Subgroup, Subgroup]:
    """Two routes to the stabilizer of a pure local state in its owner.

    The first entry fixes the state under the local action; the second is
    the pointwise stabilizer of a global representative.  For pure states
    the two agree, so the stabilizer can be read off either way.
    """
    point = state.representative
    if not is_product_state(theory, state.owner, point).pure:
        raise NotPure("the stabilizer shortcut only applies to pure local states")
    owner = state.owner
    index = owner.parent.index
    image = index.images[point]
    local = index.pack(h for h in owner.indices if image[h] in state.points)
    fixed = index.pack(h for h in owner.indices if image[h] == point)
    return (
        Subgroup.from_mask(owner.parent, local),
        Subgroup.from_mask(owner.parent, fixed),
    )
