"""Finite permutation groups acting on {0, ..., n-1}.

Permutations are image tuples: ``p[i]`` is where ``p`` sends point ``i``.
Composition acts left-to-right on states, ``(g * h)(p) = g(h(p))``, so the
product tuple is ``g`` applied to every entry of ``h``.

Groups store their full element list in a canonical sorted order; all
derived structures (subgroup lattices, orbits, state sets) inherit
determinism from that order.  Every group is built by ``generate_group``
from generators.  One routine, :func:`close`, grows every set the package
closes breadth-first: groups (``generate_group``, ``subgroup_closure``,
``reduce_generators``), the lattice of subgroups equal to their double
commutant (``lattice.enumerate_self_bicommutant``), the system universe
(``processes.system_universe``), the generation span
(``processes._closure``) and the span of the axiom checker's generating
set (``pmcat._generating_set``); its cap, with a message each
caller gives, is the only cap on group order and on lattice size.

Element numbering: element ``i`` of a group is ``group.elements[i]``, so
the numbers follow the sorted order and the identity is element 0.
``group.index``, a :class:`GroupIndex` built on first use, maps elements
to their numbers and holds one compiled right multiplication per element.
It keeps nothing of size |G|^2, so every group order takes the same path.

Base: ``group.index.base`` is a short list of points that only the
identity fixes all of (a base of the group, in the sense of Sims), chosen
greedily when first read.  Two elements agreeing on the base are equal, so
a commutation test compares two products on the base points alone: 2 of
27 points on the 27-point product of three S3s, 1 point for a regular
action, none for the group of degree one.

Bitmasks: a set of elements is a Python int whose bit ``i`` is set
exactly when element ``i`` is in the set.  A :class:`Subgroup` is
identified by such a mask over its parent's numbering.  Intersection is
``a & b``, inclusion is ``a & ~b == 0``, and the centralizer of a set is
the AND of the centralizer masks of its elements, each computed on the
base once per group.  ``Subgroup.members`` is the sorted member tuple,
derived from the mask when first read.

Memoisation: :func:`theory_memo` stores ``fn(theory, *args)`` in a dict
held by the theory object itself, so what is computed from a theory lives
and dies with it, and an equal but distinct theory computes its own.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, partial, wraps
from math import gcd
from operator import itemgetter

from .errors import (
    DegreeMismatch,
    ElementNotInGroup,
    InvalidTheory,
    NotCentreless,
    NotTransitive,
    PointOutOfRange,
    ResourceLimit,
    SubgroupNotInTheory,
)

DEFAULT_MAX_ORDER = 250_000


class Perm(tuple):
    """A permutation of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        self = tuple.__new__(cls, images)
        n = len(self)
        seen = [False] * n
        for x in self:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise DegreeMismatch(f"not a permutation of 0..{n - 1}: {tuple(self)}")
            seen[x] = True
        return self

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Perm") -> "Perm":
        # Apply other first, then self; entries of a valid product need no
        # re-validation, so bypass __new__.
        if len(self) != len(other):
            raise DegreeMismatch("cannot compose permutations of different degrees")
        return tuple.__new__(Perm, map(self.__getitem__, other))

    def __call__(self, point: int) -> int:
        return self[point]

    def inverse(self) -> "Perm":
        images = [0] * len(self)
        for i, x in enumerate(self):
            images[x] = i
        return tuple.__new__(Perm, images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return tuple.__new__(Perm, range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        images = list(range(degree))
        for cycle in cycles:
            for pos, point in enumerate(cycle):
                if not 0 <= point < degree:
                    raise PointOutOfRange(f"cycle point {point} outside 0..{degree - 1}")
                images[point] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    def __repr__(self) -> str:
        return f"Perm{tuple(self)}"


# Wraps a known-valid image tuple without re-validating it.
_as_perm = partial(tuple.__new__, Perm)


def _tuple_getter(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*positions)`` returning a tuple for any number of positions.

    On a permutation ``g`` it is the map ``h -> h * g``.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    # itemgetter with a single index returns a scalar rather than a tuple.
    return lambda seq: tuple(seq[i] for i in positions)


def close(
    span: set,
    successors: Callable,
    cap: int | None = None,
    message: str = "",
    frontier: Iterable | None = None,
) -> None:
    """Grow ``span`` breadth-first until it is closed under ``successors``.

    Each member of ``frontier`` (by default, every member) and each member
    that joins is expanded once, in the order it joined; a member outside
    ``frontier`` must have its successors in ``span`` already.
    ``successors(x)`` may read ``span`` as grown so far, but not lazily.
    With ``cap`` set, growing ``span`` past ``cap`` members raises
    ResourceLimit(message).
    """
    frontier = list(span if frontier is None else frontier)
    while frontier:
        new = []
        for x in frontier:
            for y in successors(x):
                if y not in span:
                    span.add(y)
                    new.append(y)
                    if cap is not None and len(span) > cap:
                        raise ResourceLimit(message)
        frontier = new


def _times(gens: Sequence[Perm]) -> Callable[[tuple], Iterator[tuple]]:
    """The map ``h -> (h * g for g in gens)`` on plain image tuples."""
    steps = [_tuple_getter(g) for g in gens]
    return lambda h: (step(h) for step in steps)


def generate_group(
    degree: int,
    generators: Iterable[Sequence[int]],
    max_order: int = DEFAULT_MAX_ORDER,
) -> "FiniteGroup":
    """Close a generating set under composition (breadth-first)."""
    gens = []
    for g in generators:
        p = g if isinstance(g, Perm) else Perm(g)
        if p.degree != degree:
            raise DegreeMismatch(f"generator degree {p.degree} != {degree}")
        gens.append(p)
    elements = {Perm.identity(degree)}
    message = f"group order exceeds cap of {max_order} elements"
    close(elements, _times(gens), max_order, message)
    return FiniteGroup(degree, tuple(map(_as_perm, sorted(elements))))


class GroupIndex:
    """The numbering of a group's elements, in their sorted order.

    ``position[g]`` is the number of element ``g`` and ``right[i](h)`` is
    the product ``h * elements[i]`` as a plain tuple.  Inverses, point
    images, the base, products read on the base and single-element
    centralizer masks are computed on first use.  ``element_centralizer``
    computes one mask, so a centre check costs one per generator;
    ``element_centralizers`` computes every element's at once, one test
    per pair of cyclic subgroups.
    """

    def __init__(self, elements: tuple[Perm, ...]) -> None:
        self.elements = elements
        self.position = {g: i for i, g in enumerate(elements)}
        self.right = [_tuple_getter(g) for g in elements]
        self.full = (1 << len(elements)) - 1
        self._centralizers: list[int | None] = [None] * len(elements)
        self._set_centralizers: dict[int, int] = {}

    def mul(self, i: int, j: int) -> int:
        """The number of ``elements[i] * elements[j]``."""
        return self.position[self.right[j](self.elements[i])]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """``inverse[i]`` is the number of the inverse of element ``i``."""
        return tuple(self.position[g.inverse()] for g in self.elements)

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """``images[p][i]`` is the image of point ``p`` under element ``i``."""
        return tuple(zip(*self.elements))

    def pack(self, indices: Iterable[int]) -> int:
        """The mask with exactly the bits ``indices`` set."""
        bits = bytearray(b"0") * len(self.elements)
        for i in indices:
            bits[i] = ord("1")
        return int(bits[::-1], 2)

    @staticmethod
    def indices(mask: int) -> list[int]:
        """The numbers of the set bits of ``mask``, ascending."""
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def mask_of(self, items: Iterable[Perm]) -> int:
        """The mask of a set of elements, all of which must be in the group."""
        numbers = []
        for g in items:
            i = self.position.get(g)
            if i is None:
                raise ElementNotInGroup(f"{g!r} is not in the parent group")
            numbers.append(i)
        return self.pack(numbers)

    @cached_property
    def base(self) -> tuple[int, ...]:
        """A few points that only the identity fixes all of, chosen greedily.

        Each step takes the point that the most elements fixing every
        earlier point move.  Two elements agree on the base exactly when
        they are equal.
        """
        fixers = [
            self.pack(i for i, q in enumerate(images) if q == p)
            for p, images in enumerate(self.images)
        ]
        base = []
        unfixed = self.full & ~1  # every element but the identity
        while unfixed:
            p = max(range(len(fixers)), key=lambda p: (unfixed & ~fixers[p]).bit_count())
            base.append(p)
            unfixed &= fixers[p]
        return tuple(base)

    @cached_property
    def right_on_base(self) -> list[Callable[[Sequence], tuple]]:
        """``right_on_base[i](h)`` is ``h * elements[i]`` read on the base."""
        base = self.base
        return [_tuple_getter([g[b] for b in base]) for g in self.elements]

    def element_centralizer(self, i: int) -> int:
        """The mask of the elements commuting with element ``i``, memoised.

        ``x`` commutes with ``g`` exactly when ``x * g`` and ``g * x``
        agree on the base.
        """
        mask = self._centralizers[i]
        if mask is None:
            g = self.elements[i]
            on_base = self.right_on_base
            times_g = on_base[i]
            mask = self.pack(
                j
                for j, (x, times_x) in enumerate(zip(self.elements, on_base))
                if times_g(x) == times_x(g)
            )
            self._centralizers[i] = mask
        return mask

    def element_centralizers(self) -> tuple[int, ...]:
        """Every element's centralizer mask, in element order.

        ``x`` commutes with ``g`` exactly when every power of ``x`` commutes
        with every power of ``g``, so all generators of one cyclic subgroup
        share one centralizer, and a pair of cyclic subgroups either
        commutes elementwise or not at all.  Each unordered pair is tested
        once, through its least generators, on the base; a commuting pair
        adds each subgroup's generators to the other's centralizer.  Fills
        the masks ``element_centralizer`` reads.
        """
        if None in self._centralizers:
            elements = self.elements
            on_base = self.right_on_base
            identity = elements[0]
            cyclic = [-1] * len(elements)  # element -> its cyclic subgroup
            leads: list[Perm] = []  # each cyclic subgroup's least generator
            leads_on_base: list[Callable[[Sequence], tuple]] = []
            generators: list[int] = []  # the mask of each one's generators
            for i, g in enumerate(elements):
                if cyclic[i] >= 0:
                    continue
                # Elements come in ascending order, so the first one not yet
                # placed is the least generator of its cyclic subgroup.
                powers = [identity]
                times_g = self.right[i]
                power = times_g(identity)
                while power != identity:
                    powers.append(power)
                    power = times_g(power)
                order = len(powers)
                own = [
                    self.position[powers[k]] for k in range(1, order) if gcd(k, order) == 1
                ] or [0]
                for j in own:
                    cyclic[j] = len(leads)
                leads.append(g)
                leads_on_base.append(on_base[i])
                generators.append(self.pack(own))
            masks = [0] * len(leads)
            for c, (g, times_g) in enumerate(zip(leads, leads_on_base)):
                mask, bits = masks[c], generators[c]
                for d, x, times_x in zip(
                    range(c, len(leads)), leads[c:], leads_on_base[c:]
                ):
                    if times_g(x) == times_x(g):
                        mask |= generators[d]
                        masks[d] |= bits
                masks[c] = mask
            self._centralizers = [masks[c] for c in cyclic]
        return tuple(self._centralizers)

    def centralizer(self, mask: int) -> int:
        """The mask of the elements commuting with every element of ``mask``.

        Memoised per mask, so repeated commutants cost one dict lookup.
        """
        result = self._set_centralizers.get(mask)
        if result is None:
            result = self.full
            for i in self.indices(mask):
                result &= self.element_centralizer(i)
            self._set_centralizers[mask] = result
        return result


class FiniteGroup:
    """A finite permutation group with a canonical sorted element list."""

    def __init__(self, degree: int, elements: tuple[Perm, ...]) -> None:
        self.degree = degree
        self.elements = elements
        self._hash = hash((degree, elements))

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree!r}, elements={self.elements!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    @cached_property
    def element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    @cached_property
    def index(self) -> GroupIndex:
        return GroupIndex(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def __contains__(self, p: object) -> bool:
        return p in self.element_set

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,))


class Subgroup:
    """A subgroup of a fixed parent group, identified by its element mask.

    ``mask`` is a bitmask over the parent's element numbering (see the
    module docstring); ``members`` is the sorted member tuple.  Instances
    are immutable.  The repr names the parent by its degree and order and
    the subgroup by its mask, so it stays short on large groups.
    """

    def __init__(self, parent: FiniteGroup, members: Iterable[Perm]) -> None:
        self._bind(parent, parent.index.mask_of(members))

    @classmethod
    def from_mask(cls, parent: FiniteGroup, mask: int) -> "Subgroup":
        sub = cls.__new__(cls)
        sub._bind(parent, mask)
        return sub

    def _bind(self, parent: FiniteGroup, mask: int) -> None:
        self.parent = parent
        self.mask = mask
        self._hash = hash((parent, mask))

    def __repr__(self) -> str:
        # The parent is named by its degree and order, not printed whole.
        parent = self.parent
        return (
            f"Subgroup(parent=<degree {parent.degree}, order {parent.order}>, "
            f"order={self.order}, mask={self.mask:#x})"
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.mask == other.mask and (
            self.parent is other.parent or self.parent == other.parent
        )

    @cached_property
    def indices(self) -> tuple[int, ...]:
        """The numbers of the members in the parent, ascending."""
        return tuple(GroupIndex.indices(self.mask))

    @cached_property
    def members(self) -> tuple[Perm, ...]:
        elements = self.parent.elements
        return tuple(elements[i] for i in self.indices)

    @cached_property
    def member_set(self) -> frozenset[Perm]:
        return frozenset(self.members)

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, p: object) -> bool:
        i = self.parent.index.position.get(p)
        return i is not None and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.order

    def is_subset_of(self, other: "Subgroup") -> bool:
        if self.parent is not other.parent and self.parent != other.parent:
            return self.member_set <= other.member_set
        return (self.mask & ~other.mask) == 0


def subgroup_closure(parent: FiniteGroup, seed: Iterable[Perm]) -> Subgroup:
    """Smallest subgroup of ``parent`` containing every element of ``seed``."""
    gens = list(seed)
    for g in gens:
        if g not in parent.element_set:
            raise ElementNotInGroup(f"{g!r} is not in the parent group")
    elements = {parent.identity}
    close(elements, _times(gens))
    return Subgroup(parent, elements)


def reduce_generators(members: Sequence[Perm], degree: int) -> list[Perm]:
    """Greedy generating subset of the subgroup with elements ``members``.

    Commuting with the subgroup is the same as commuting with these few
    generators, so centralizers and commutation checks need far fewer
    products.
    """
    gens: list[Perm] = []
    span = {Perm.identity(degree)}
    for m in members:
        if m in span:
            continue
        gens.append(m)
        # ``span`` is closed under the earlier generators, so its members
        # need only ``m``; the members that join need every generator.
        fresh = [x for x in map(_tuple_getter(m), span) if x not in span]
        span.update(fresh)
        close(span, _times(gens), frontier=fresh)
        if len(span) == len(members):
            break
    return gens


def centralizer(group: FiniteGroup, subset: Iterable[Perm]) -> Subgroup:
    """All elements of ``group`` commuting with every element of ``subset``."""
    index = group.index
    return Subgroup.from_mask(group, index.centralizer(index.mask_of(subset)))


def centre(group: FiniteGroup) -> Subgroup:
    return centralizer(group, reduce_generators(group.elements, group.degree))


def orbit(elements: Iterable[Perm], point: int) -> frozenset[int]:
    """Orbit of ``point`` under a set of permutations closed under product."""
    return frozenset(p[point] for p in elements)


class GlobalTheory:
    """A centreless group acting transitively and faithfully on points.

    The point set is {0, ..., degree-1}; the group is the full set of
    reversible global transformations and its points are the global states.
    """

    def __init__(self, group: FiniteGroup) -> None:
        self.group = group
        self._hash = hash(group)
        # Equality, hashing and repr ignore the memo.
        self._memo: dict = {}

    def __repr__(self) -> str:
        return f"GlobalTheory(group={self.group!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group

    @property
    def degree(self) -> int:
        return self.group.degree

    @property
    def points(self) -> range:
        return range(self.group.degree)


_KEYWORDS = object()
_MISSING = object()


def theory_memo(fn):
    """Memoise ``fn(theory, *args, **kwargs)`` in the memo ``theory`` holds.

    As ``lru_cache(maxsize=None)`` with the theory kept out of the key: a
    call that raises stores nothing, and keyword calls are keyed apart.  A
    miss is found with ``dict.get`` and a private sentinel, so it raises
    nothing, and a stored ``None`` or ``False`` is served like any result.
    """

    @wraps(fn)
    def memoised(theory, *args, **kwargs):
        key = (*args, _KEYWORDS, *kwargs.items()) if kwargs else args
        table = theory._memo.get(memoised)
        if table is None:
            table = theory._memo[memoised] = {}
        found = table.get(key, _MISSING)
        if found is _MISSING:
            found = table[key] = fn(theory, *args, **kwargs)
        return found

    return memoised


def _failed_conditions(group: FiniteGroup) -> list[tuple[type[InvalidTheory], str]]:
    """Each global-theory condition ``group`` fails, with its error class.

    A permutation group acts faithfully by construction, so that condition
    is not checked.
    """
    failed = []
    n = group.degree
    if n < 1:
        failed.append((InvalidTheory, "the point set is empty"))
    elif len(orbit(group.elements, 0)) != n:
        failed.append((NotTransitive, "the action is not transitive on the point set"))
    z = centre(group)
    if not z.is_trivial:
        failed.append(
            (NotCentreless, f"the group has a non-trivial centre of order {z.order}")
        )
    return failed


def validate_global_theory(group: FiniteGroup) -> GlobalTheory:
    """Check the global-theory conditions, raising the first failure's error."""
    failed = _failed_conditions(group)
    if failed:
        raise failed[0][0]([message for _, message in failed])
    return GlobalTheory(group)


def require_subgroup(theory: GlobalTheory, sub: Subgroup) -> None:
    if sub.parent is not theory.group and sub.parent != theory.group:
        raise SubgroupNotInTheory("subgroup belongs to a different global group")


def require_point(theory: GlobalTheory, point: int) -> None:
    if not isinstance(point, int) or not 0 <= point < theory.degree:
        raise PointOutOfRange(f"point {point} outside 0..{theory.degree - 1}")
