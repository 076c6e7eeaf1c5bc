"""Emergent systems and their partial tensor product.

A system packages a lattice node, a subgroup equal to its double
commutant, with its full set of pure local states.  Two systems compose
exactly when they are mutual complements inside their join and some
global state restricts to a pure state of each factor; the trivial system
composes with everything and acts as a strict unit.
"""

from __future__ import annotations

from functools import cached_property

from .errors import IncompatibleSystems, NotProductState, StateNotInSystem
from .lattice import (
    enumerate_self_bicommutant,
    is_orthocomplementary,
    join,
    require_self_bicommutant,
)
from .perms import GlobalTheory, Subgroup, theory_memo
from .states import (
    LocalState,
    _orbits,
    local_row,
    pure_local_states,
    purity_row,
    restrict,
)


class System:
    """A subsystem: local transformations plus all of its pure states."""

    def __init__(self, transf: Subgroup, pure_orbit: tuple[LocalState, ...]) -> None:
        self.transf = transf
        self.pure_orbit = pure_orbit
        self._hash = hash((transf, pure_orbit))

    def __repr__(self) -> str:
        return f"System(transf={self.transf!r}, pure_orbit={self.pure_orbit!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.transf, self.pure_orbit) == (other.transf, other.pure_orbit)

    @property
    def is_trivial(self) -> bool:
        return self.transf.is_trivial

    @cached_property
    def pure_set(self) -> frozenset[LocalState]:
        """The pure states as a set, for membership tests."""
        return frozenset(self.pure_orbit)


def system_key(system: System) -> tuple:
    """Deterministic sort key for systems of a common theory."""
    return (system.transf.order, system.transf.members)


@theory_memo
def make_system(theory: GlobalTheory, sub: Subgroup) -> System:
    """Build the system on ``sub``; requires at least one product state."""
    require_self_bicommutant(theory, sub)
    orbit = pure_local_states(theory, sub)
    if not orbit:
        raise NotProductState(
            f"subgroup of order {sub.order} admits no product state"
        )
    return System(sub, orbit)


@theory_memo
def trivial_system(theory: GlobalTheory) -> System:
    """The unit system: no transformations, one completely mixed state."""
    return make_system(theory, theory.group.trivial_subgroup())


@theory_memo
def enumerate_systems(theory: GlobalTheory) -> tuple[System, ...]:
    """All systems of the theory, one per lattice node with a product state."""
    lattice = enumerate_self_bicommutant(theory)
    found = []
    for node in lattice.nodes:
        if pure_local_states(theory, node):
            found.append(make_system(theory, node))
    return tuple(sorted(found, key=system_key))


@theory_memo
def _product_points(theory: GlobalTheory, a: System, b: System) -> tuple[int, ...]:
    """The pair's product points, ascending: the one composability rule.

    A product point is pure over the join, and the factors' orbits meet
    only in it.  A unit factor needs no case: its join with ``b`` is ``b``
    and its orbits are single points.
    """
    pure_j = purity_row(theory, join(theory, a.transf, b.transf))
    orbits_a = _orbits(theory, a.transf)
    orbits_b = _orbits(theory, b.transf)
    return tuple(
        point
        for point in theory.points
        if pure_j[point] and len(orbits_a[point] & orbits_b[point]) == 1
    )


@theory_memo
def are_compatible(theory: GlobalTheory, a: System, b: System) -> int | None:
    """Witness global state if the two systems compose, else None.

    The trivial system is compatible with everything.  Otherwise the two
    transformation subgroups must be mutual complements inside their join,
    and the witness is the first product point whose two factor states are
    pure.
    """
    if a.is_trivial:
        return b.pure_orbit[0].representative
    if b.is_trivial:
        return a.pure_orbit[0].representative
    if not is_orthocomplementary(theory, a.transf, b.transf):
        return None
    row_a = local_row(theory, a.transf)
    row_b = local_row(theory, b.transf)
    for point in _product_points(theory, a, b):
        if row_a[point] in a.pure_set and row_b[point] in b.pure_set:
            return point
    return None


def compatibility_rows(
    theory: GlobalTheory, systems: tuple[System, ...]
) -> list[dict[int, int]]:
    """``rows[i][j]`` is the witness of every compatible ordered pair, in ascending ``j``.

    ``systems`` are systems of ``theory``.  Compatibility needs ``b`` inside
    the commutant of ``a`` first (``is_orthogonal``'s mask test, here with
    the centralizer of ``a`` found once per row), so a pair whose mask
    leaves that commutant is incompatible without a call; a unit factor
    never leaves it, since the identity commutes with everything and the
    unit's commutant is the whole group.  Every other pair goes to
    ``are_compatible``.
    """
    centralizer = theory.group.index.centralizer
    masks = [s.transf.mask for s in systems]
    rows = []
    for a in systems:
        outside = ~centralizer(a.transf.mask)
        row = {}
        for j, mask in enumerate(masks):
            if mask & outside:
                continue
            witness = are_compatible(theory, a, systems[j])
            if witness is not None:
                row[j] = witness
        rows.append(row)
    return rows


@theory_memo
def tensor_systems(theory: GlobalTheory, a: System, b: System) -> System:
    """The composite system of a compatible pair; unit factors vanish."""
    if are_compatible(theory, a, b) is None:
        raise IncompatibleSystems(
            "the systems are not mutual complements with a joint product state"
        )
    # The witness is a product state of the join, so it needs no second
    # proof; the memo returns the listed system, the other one for a unit.
    return make_system(theory, join(theory, a.transf, b.transf))


def tensor_state_candidates(
    theory: GlobalTheory, a: System, b: System, rho: LocalState, sigma: LocalState
) -> tuple[int, ...]:
    """Global states realizing the given pair of pure local states."""
    if rho not in a.pure_set:
        raise StateNotInSystem("first state does not belong to the first system")
    if sigma not in b.pure_set:
        raise StateNotInSystem("second state does not belong to the second system")
    if are_compatible(theory, a, b) is None:
        raise IncompatibleSystems("cannot tensor states of incompatible systems")
    both = rho.points & sigma.points
    return tuple(point for point in _product_points(theory, a, b) if point in both)


@theory_memo
def tensor_pure_states(
    theory: GlobalTheory, a: System, b: System, rho: LocalState, sigma: LocalState
) -> LocalState:
    """The unique composite pure state restricting to the given factors."""
    candidates = tensor_state_candidates(theory, a, b, rho, sigma)
    if not candidates:
        raise IncompatibleSystems(
            "no joint global state realizes the given pair of pure states"
        )
    # The composite's transformations are the join, unit factors included.
    return restrict(theory, join(theory, a.transf, b.transf), candidates[0])
