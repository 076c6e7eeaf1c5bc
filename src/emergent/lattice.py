"""Commutants and the lattice of subgroups equal to their double commutant.

The commutant of a subgroup is its centralizer in the global group.  A
subgroup equal to its own double commutant is the basic carrier of
subsystem structure; the set of all such subgroups forms a complete
lattice under inclusion, with meet given by intersection and join by the
double commutant of the union.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotOrthogonal, NotSelfBicommutant
from .perms import (
    GlobalTheory,
    GroupIndex,
    Subgroup,
    close,
    require_subgroup,
    theory_memo,
)

DEFAULT_MAX_NODES = 4096


@theory_memo
def commutant(theory: GlobalTheory, sub: Subgroup) -> Subgroup:
    """Centralizer of ``sub`` inside the global group."""
    require_subgroup(theory, sub)
    group = theory.group
    return Subgroup.from_mask(group, group.index.centralizer(sub.mask))


def is_self_bicommutant(theory: GlobalTheory, sub: Subgroup) -> bool:
    require_subgroup(theory, sub)
    index = theory.group.index
    return index.centralizer(index.centralizer(sub.mask)) == sub.mask


def require_self_bicommutant(theory: GlobalTheory, sub: Subgroup) -> None:
    if not is_self_bicommutant(theory, sub):
        raise NotSelfBicommutant(
            f"subgroup of order {sub.order} is not its own double commutant"
        )


@theory_memo
def enumerate_self_bicommutant(
    theory: GlobalTheory, max_nodes: int = DEFAULT_MAX_NODES
) -> "SbcLattice":
    """All subgroups of the global group equal to their double commutant.

    Every commutant is its own double commutant, and every such subgroup
    is an intersection of single-element centralizers, so
    ``perms.close`` enumerates the lattice exactly by intersecting each node
    with every centralizer, under ``max_nodes``.  The full group and the
    trivial subgroup appear as centralizer(identity) and the centre.  Each
    element's centralizer is ``GroupIndex.element_centralizer``: for each
    base point ``b``, the elements ``x`` that send ``g b`` to ``g`` of their
    image of ``b``, read as the OR over points ``q`` of
    ``transfers(b)[q] & transfers(g b)[g q]``, and ANDed over the base.
    """
    group = theory.group
    index = group.index
    seeds = tuple(set(map(index.element_centralizer, range(group.order))))
    nodes = set(seeds)
    message = f"lattice exceeds cap of {max_nodes} subgroups"
    close(nodes, lambda a: (a & b for b in seeds), max_nodes, message)
    # Element numbers follow the sorted element order, so the ascending
    # member numbers order nodes exactly as their member tuples do.
    ordered = sorted(nodes, key=lambda m: (m.bit_count(), index.indices(m)))
    return SbcLattice(
        theory, tuple(Subgroup.from_mask(group, m) for m in ordered)
    )


class SbcLattice:
    """The complete lattice of subgroups equal to their double commutant.

    Enumerated nodes are sorted by order.
    """

    def __init__(self, theory: GlobalTheory, nodes: tuple[Subgroup, ...]) -> None:
        self.theory = theory
        self.nodes = nodes
        self._hash = hash((theory, nodes))

    def __repr__(self) -> str:
        return f"SbcLattice(theory={self.theory!r}, nodes={self.nodes!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.theory, self.nodes) == (other.theory, other.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_index(self) -> dict[Subgroup, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def commutant_index(self) -> tuple[int, ...]:
        return tuple(
            self.node_index[commutant(self.theory, node)] for node in self.nodes
        )

    @cached_property
    def above(self) -> tuple[int, ...]:
        """The inclusion order, as one bitset per node.

        ``above[i]`` has bit ``j`` set exactly when node ``j`` strictly
        contains node ``i``; enumerated nodes are sorted by order, so every
        such ``j`` exceeds ``i``.  ``holders[e]`` is the mask of the nodes
        holding element ``e``, so the nodes containing node ``i`` are the
        AND of ``holders`` over its members.
        """
        holders = [0] * self.theory.group.order
        for j, node in enumerate(self.nodes):
            bit = 1 << j
            for e in node.indices:
                holders[e] |= bit
        everything = (1 << len(self.nodes)) - 1
        above = []
        for i, node in enumerate(self.nodes):
            mask = everything
            for e in node.indices:
                mask &= holders[e]
            above.append(mask & ~(1 << i))
        return tuple(above)

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (i, j) with node i immediately below node j.

        Node ``i``'s covers are the nodes above it that are above none of
        the others above it; edges are listed by ``i``, then ``j``.
        """
        above = self.above
        edges = []
        for i, up in enumerate(above):
            covered = 0
            for k in GroupIndex.indices(up):
                covered |= above[k]
            edges.extend((i, j) for j in GroupIndex.indices(up & ~covered))
        return tuple(edges)

    @property
    def bottom(self) -> Subgroup:
        return self.nodes[0]

    @property
    def top(self) -> Subgroup:
        return self.nodes[-1]


def intersection(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> Subgroup:
    """Set intersection of two subgroups, with no lattice preconditions."""
    require_subgroup(theory, a)
    require_subgroup(theory, b)
    return Subgroup.from_mask(theory.group, a.mask & b.mask)


def meet(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection of two lattice nodes, again a node."""
    require_self_bicommutant(theory, a)
    require_self_bicommutant(theory, b)
    return intersection(theory, a, b)


def join(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> Subgroup:
    """Smallest lattice node containing both inputs.

    Computed as the commutant of the intersection of commutants, which
    also realises the De Morgan dual of the meet.
    """
    require_self_bicommutant(theory, a)
    require_self_bicommutant(theory, b)
    index = theory.group.index
    outer = index.centralizer(a.mask) & index.centralizer(b.mask)
    return Subgroup.from_mask(theory.group, index.centralizer(outer))


def is_orthogonal(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> bool:
    """Whether every element of ``a`` commutes with every element of ``b``.

    Read on masks: ``b`` lies inside the centralizer of ``a``.
    """
    require_subgroup(theory, b)
    require_subgroup(theory, a)
    return not b.mask & ~theory.group.index.centralizer(a.mask)


def is_orthocomplemented(theory: GlobalTheory, sub: Subgroup) -> bool:
    """Whether the subgroup meets its commutant only in the identity."""
    return meet(theory, sub, commutant(theory, sub)).is_trivial


def is_orthocomplementary(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> bool:
    """Whether each input is the other's complement inside their join.

    Read on masks: with ``C`` the centralizer, the join is
    ``C(C(a) & C(b))``, and the complement of ``a`` in it is ``C(a) & join``.
    The inputs must be self-bicommutant, as for ``join``.
    """
    if not is_orthogonal(theory, a, b):
        return False
    require_self_bicommutant(theory, a)
    require_self_bicommutant(theory, b)
    centralizer = theory.group.index.centralizer
    comm_a, comm_b = centralizer(a.mask), centralizer(b.mask)
    j = centralizer(comm_a & comm_b)
    return comm_a & j == b.mask and comm_b & j == a.mask


@theory_memo
def product_set(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> Subgroup:
    """The set {h k : h in a, k in b}, a subgroup when the inputs commute."""
    if not is_orthogonal(theory, a, b):
        raise NotOrthogonal("the product set is only formed for commuting subgroups")
    index = theory.group.index
    return Subgroup.from_mask(
        theory.group,
        index.pack(index.mul(h, k) for h in a.indices for k in b.indices),
    )
