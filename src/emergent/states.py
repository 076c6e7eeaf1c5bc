"""Local states of a subsystem and the product-state test.

The local state a subgroup H can see at a global state p is the orbit of
p under the commutant of H: two global states related by a transformation
H commutes with are indistinguishable to H.  A global state is a product
state for H when its joint stabilizer over H and the commutant splits as
a direct product of the marginal stabilizers, that is, when its H-orbit
and its commutant orbit meet only in the state itself.

Both facts are kept per lattice node as rows indexed by point, read from
the orbit partition of each subgroup (``_orbits``) and kept in the
theory's memo: ``local_row`` holds one shared ``LocalState`` per commutant
orbit, and ``purity_row`` the product-state verdict at each point.  A
node's states are built once per commutant orbit, not once per point.
``restrict`` and ``is_product_state`` are unmemoised conveniences that
check their arguments and index these rows; code that reads many points
of one node reads the row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

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
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.owner, self.points) == (other.owner, other.points)

    @cached_property
    def sorted_points(self) -> tuple[int, ...]:
        return tuple(sorted(self.points))

    @property
    def representative(self) -> int:
        """The least point."""
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
def local_row(theory: GlobalTheory, sub: Subgroup) -> tuple[LocalState, ...]:
    """The local state ``sub`` sees at each point, one object per state.

    Points of one commutant orbit share the same ``LocalState``.
    """
    require_subgroup(theory, sub)
    orbits = _orbits(theory, commutant(theory, sub))
    states = {orbit: LocalState(sub, orbit) for orbit in set(orbits)}
    return tuple(map(states.__getitem__, orbits))


def restrict(theory: GlobalTheory, sub: Subgroup, point: int) -> LocalState:
    """The local state ``sub`` sees at the global state ``point``."""
    require_subgroup(theory, sub)
    require_point(theory, point)
    return local_row(theory, sub)[point]


def act_local(theory: GlobalTheory, h: Perm, state: LocalState) -> LocalState:
    """Apply a transformation of the owner to a local state.

    Well defined because the owner commutes with the commutant orbit that
    defines the state.
    """
    require_in_owner(state.owner, h)
    return LocalState(state.owner, frozenset(h[p] for p in state.points))


def require_in_owner(owner: Subgroup, h: Sequence[int]) -> None:
    """Raise ``act_local``'s error unless ``h`` belongs to ``owner``."""
    if h not in owner:
        raise ElementNotInOwner(f"{h!r} does not belong to the state's owner")


def iterated_restrict(theory: GlobalTheory, sub: Subgroup, state: LocalState) -> LocalState:
    """Restrict a local state further, to a subgroup of its owner.

    Restricting via any global representative gives the same answer, so
    the minimum point of the state is used.
    """
    require_nested(theory, sub, state.owner)
    return restrict(theory, sub, state.representative)


def require_nested(theory: GlobalTheory, sub: Subgroup, owner: Subgroup) -> None:
    """Raise ``iterated_restrict``'s error unless ``sub`` lies in ``owner``."""
    require_subgroup(theory, sub)
    if not sub.is_subset_of(owner):
        raise NotNested("can only restrict a state to a subgroup of its owner")


@theory_memo
def _splits_row(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> tuple[bool, ...]:
    """Whether the stabilizer of each point p in AB is the product A_p B_p.

    A_p B_p lies in (AB)_p, so the two are equal exactly when
    |AB|/|ABp| = |A_p|·|B_p|/|(A∩B)_p|.  Here |AB| = |A|·|B|/|A∩B| and
    ABp, the orbit of p under AB, is the union of the B-orbits over Ap, so
    it is formed once per A-orbit.  Purity does not read it: only the
    states suite's divergence notice does.
    """
    both = Subgroup.from_mask(a.parent, a.mask & b.mask)
    orbits_a = _orbits(theory, a)
    orbits_b = _orbits(theory, b)
    orbits_both = _orbits(theory, both)
    product_order = a.order * b.order // both.order
    product_sizes = {
        orbit: len(frozenset().union(*{orbits_b[q] for q in orbit}))
        for orbit in set(orbits_a)
    }
    return tuple(
        product_order * (both.order // len(orbits_both[p]))
        == product_sizes[orbits_a[p]]
        * (a.order // len(orbits_a[p]))
        * (b.order // len(orbits_b[p]))
        for p in theory.points
    )


PurityVerdict = namedtuple("PurityVerdict", "state pure")
PurityVerdict.__doc__ = """Outcome of the product-state test at one global state.

``state`` is the ``LocalState`` tested and ``pure`` a bool.
"""


@theory_memo
def purity_row(theory: GlobalTheory, sub: Subgroup) -> tuple[bool, ...]:
    """Whether each point is a product state over ``sub`` and its commutant.

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
    require_self_bicommutant(theory, sub)
    orbits_b = _orbits(theory, commutant(theory, sub))
    return tuple(
        len(orbit_a & orbit_b) == 1
        for orbit_a, orbit_b in zip(_orbits(theory, sub), orbits_b)
    )


def is_product_state(theory: GlobalTheory, sub: Subgroup, point: int) -> PurityVerdict:
    """Test whether a global state splits over ``sub`` and its commutant.

    Reads ``purity_row``, so ``sub`` must be its own double commutant.
    """
    require_subgroup(theory, sub)
    require_point(theory, point)
    pure = purity_row(theory, sub)[point]
    return PurityVerdict(local_row(theory, sub)[point], pure)


def factorizes(theory: GlobalTheory, a: Subgroup, b: Subgroup, point: int) -> bool:
    """Product-state test for an arbitrary commuting pair of subgroups."""
    if not is_orthogonal(theory, a, b):
        raise NotOrthogonal("the factorization test requires commuting subgroups")
    require_point(theory, point)
    return len(_orbits(theory, a)[point] & _orbits(theory, b)[point]) == 1


@theory_memo
def pure_local_states(theory: GlobalTheory, sub: Subgroup) -> tuple[LocalState, ...]:
    """All distinct local states of ``sub`` arising from product states."""
    require_subgroup(theory, sub)
    pure = purity_row(theory, sub)
    states = {state for state, is_pure in zip(local_row(theory, sub), pure) if is_pure}
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
