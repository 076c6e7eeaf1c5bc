"""Processes between emergent systems.

A process acts on a typed pair (system, environment): it prepares an
ancilla, applies a reversible transformation of the system and ancilla
composite, and re-factorizes that composite into an output system and a
discarded system, which joins the environment.  Its action on states is
restriction after the reversible dynamics.  A pure process is a process
between pairs whose environment is trivial, so it discards nothing.
States of a typed pair are restrictions of pure states of the composite,
carried together with one purification so that dynamics can always be
computed upstairs: ``process_action`` acts on states that way.  A
process's whole state map, ``process_table``, is read from restriction
tables over the points instead, through ``_output_route``.  The category
build reads the same tables and the same route, and ``verify_generation``
finds each generator's class by its ``process_table``, so a class's state
map has one route.

The build finds classes by byte keys (``_ByteKeys``): a point, a state
position and an object number each fit one byte on every theory of at
most ``BYTE_KEY_LIMIT`` points whose category has at most that many
objects, and a larger one takes the same steps on tuple keys.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, ItemsView, Iterable, Mapping, Sequence
from itertools import chain, repeat

from .errors import (
    ElementNotInGroup,
    IncompatibleSystems,
    ResourceLimit,
    StateNotInPair,
    StateNotInSystem,
    TypeMismatch,
)
from .lattice import enumerate_self_bicommutant, is_orthocomplemented
from .perms import (
    GlobalTheory,
    Perm,
    Subgroup,
    _tuple_getter,
    close,
    theory_memo,
)
from .states import (
    LocalState,
    act_local,
    iterated_restrict,
    local_row,
    pure_local_states,
    require_in_owner,
    require_nested,
    state_key,
)
from .systems import (
    System,
    are_compatible,
    make_system,
    system_key,
    tensor_pure_states,
    tensor_systems,
    trivial_system,
)

DEFAULT_OBJECT_CAP = 64


# ---------------------------------------------------------------------------
# Typed pairs and their states


SystemEnvironmentPair = namedtuple("SystemEnvironmentPair", "system environment")
SystemEnvironmentPair.__doc__ = (
    "A system together with the environment it may later interact with."
)


@theory_memo
def make_pair(
    theory: GlobalTheory, system: System, environment: System
) -> SystemEnvironmentPair:
    if are_compatible(theory, system, environment) is None:
        raise IncompatibleSystems("system and environment do not compose")
    return SystemEnvironmentPair(system, environment)


def pair_composite(theory: GlobalTheory, pair: SystemEnvironmentPair) -> System:
    return tensor_systems(theory, pair.system, pair.environment)


class PairState:
    """A state of a typed pair: a system state with one chosen purification.

    Equality ignores the purification; two pair states are the same
    exactly when the system sees the same local state.
    """

    __slots__ = ("pair", "value", "purification")

    def __init__(
        self, pair: SystemEnvironmentPair, value: LocalState, purification: LocalState
    ) -> None:
        self.pair = pair
        self.value = value
        self.purification = purification

    def __repr__(self) -> str:
        return (
            f"PairState(pair={self.pair!r}, value={self.value!r}, "
            f"purification={self.purification!r})"
        )

    def __hash__(self) -> int:
        return hash((self.pair, self.value))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pair, self.value) == (other.pair, other.value)


@theory_memo
def pair_states(
    theory: GlobalTheory, pair: SystemEnvironmentPair
) -> tuple[PairState, ...]:
    """All states of the pair, each with the least pure state purifying it."""
    composite = pair_composite(theory, pair)
    seen: dict[LocalState, PairState] = {}
    for phi in composite.pure_orbit:
        value = iterated_restrict(theory, pair.system.transf, phi)
        if value not in seen:
            seen[value] = PairState(pair, value, phi)
    return tuple(sorted(seen.values(), key=lambda s: state_key(s.value)))


# ---------------------------------------------------------------------------
# Full processes


Process = namedtuple(
    "Process", "domain ancilla prep transform codomain_system discarded"
)
Process.__doc__ = """Ancilla preparation, joint reversible dynamics, then discarding.

``domain`` is a ``SystemEnvironmentPair``, ``prep`` the ancilla's
``LocalState``, ``transform`` a ``Perm``, and ``ancilla``,
``codomain_system`` and ``discarded`` are ``System``s.  The composite of
domain system and ancilla must re-factorize as the codomain system with
the discarded system; the environment is untouched and simply absorbs
what was discarded.
"""


def make_process(
    theory: GlobalTheory,
    domain: SystemEnvironmentPair,
    ancilla: System,
    prep: LocalState,
    transform: Perm,
    codomain_system: System,
    discarded: System,
) -> Process:
    if prep not in ancilla.pure_set:
        raise StateNotInSystem("the preparation is not a pure state of the ancilla")
    total = tensor_systems(theory, domain.system, ancilla)
    require_in_total(total, transform)
    if tensor_systems(theory, codomain_system, discarded) != total:
        raise TypeMismatch(
            "codomain and discarded systems do not re-factorize the composite"
        )
    # The environment must also compose with everything the dynamics touches.
    tensor_systems(theory, pair_composite(theory, domain), ancilla)
    proc = Process(domain, ancilla, prep, transform, codomain_system, discarded)
    process_codomain(theory, proc)
    return proc


def require_in_total(total: System, transform: Perm) -> None:
    """Raise ``make_process``'s error unless ``transform`` acts on ``total``."""
    if transform not in total.transf:
        raise ElementNotInGroup(
            "the transformation does not belong to the composite of domain and ancilla"
        )


def process_typing(proc: Process) -> tuple:
    """A process's fields bar its transformation: all that its type reads."""
    return (proc.domain, proc.ancilla, proc.prep, proc.codomain_system, proc.discarded)


def process_codomain(theory: GlobalTheory, proc: Process) -> SystemEnvironmentPair:
    """The output pair: codomain system facing environment plus discards."""
    env_out = tensor_systems(theory, proc.domain.environment, proc.discarded)
    return make_pair(theory, proc.codomain_system, env_out)


def process_action(theory: GlobalTheory, proc: Process) -> Callable[[PairState], PairState]:
    """The action of ``proc`` on the states of its domain pair.

    The domain's composite and the codomain pair are the process's own, so
    they are found once; each state is then purified, joined with the
    ancilla's preparation, acted on and restricted to the codomain.  A state
    of another pair raises ``StateNotInPair``.
    """
    domain, ancilla, prep, transform = proc.domain, proc.ancilla, proc.prep, proc.transform
    composite = pair_composite(theory, domain)
    codomain = process_codomain(theory, proc)
    out = proc.codomain_system.transf

    def act(state: PairState) -> PairState:
        if state.pair != domain:
            raise StateNotInPair("the state has a different type than the process domain")
        joint = tensor_pure_states(theory, composite, ancilla, state.purification, prep)
        acted = act_local(theory, transform, joint)
        return PairState(codomain, iterated_restrict(theory, out, acted), acted)

    return act


def process_table(theory: GlobalTheory, proc: Process) -> tuple:
    """The state map of a process keyed by underlying point sets.

    Read from the state tables, not through ``process_action``.  A joint
    state is an orbit of its owner's commutant, which ``u`` in the owner
    permutes, so the joint state at ``p`` acted on by ``u`` holds ``u[p]``.
    The output system lies inside the owner, so every point of the acted
    joint state gives it the same local state: the restriction at ``u[p]``.
    """
    keys = (state_key(s.value) for s in pair_states(theory, proc.domain))
    return tuple(zip(keys, _restricted_outputs(theory, proc)(proc.transform)))


def compose_process(theory: GlobalTheory, after: Process, before: Process) -> Process:
    if process_codomain(theory, before) != after.domain:
        raise TypeMismatch("codomain of the first process is not the domain of the second")
    ancilla = tensor_systems(theory, before.ancilla, after.ancilla)
    prep = tensor_pure_states(
        theory, before.ancilla, after.ancilla, before.prep, after.prep
    )
    discarded = tensor_systems(theory, before.discarded, after.discarded)
    return make_process(
        theory,
        before.domain,
        ancilla,
        prep,
        after.transform * before.transform,
        after.codomain_system,
        discarded,
    )


def tensor_processes(theory: GlobalTheory, left: Process, right: Process) -> Process:
    domain = make_pair(
        theory,
        tensor_systems(theory, left.domain.system, right.domain.system),
        tensor_systems(theory, left.domain.environment, right.domain.environment),
    )
    ancilla = tensor_systems(theory, left.ancilla, right.ancilla)
    prep = tensor_pure_states(
        theory, left.ancilla, right.ancilla, left.prep, right.prep
    )
    return make_process(
        theory,
        domain,
        ancilla,
        prep,
        left.transform * right.transform,
        tensor_systems(theory, left.codomain_system, right.codomain_system),
        tensor_systems(theory, left.discarded, right.discarded),
    )


def discard_process(theory: GlobalTheory, pair: SystemEnvironmentPair) -> Process:
    """Throw the whole system to the environment, keeping the trivial system."""
    unit = trivial_system(theory)
    return make_process(
        theory,
        pair,
        unit,
        unit.pure_orbit[0],
        theory.group.identity,
        unit,
        pair.system,
    )


# ---------------------------------------------------------------------------
# State tables: state maps on point indices


@theory_memo
def _restriction(
    theory: GlobalTheory, sub: Subgroup, owner: Subgroup
) -> tuple[tuple[int, ...], ...]:
    """Point -> key of the local state ``sub`` sees, for states of ``owner``.

    Checks what ``iterated_restrict`` checks, once for every state.
    """
    require_nested(theory, sub, owner)
    return tuple(map(state_key, local_row(theory, sub)))


@theory_memo
def _joint_points(
    theory: GlobalTheory, pair: SystemEnvironmentPair, ancilla: System, prep: LocalState
) -> tuple[int, ...]:
    """One point of each input's joint state with ``prep``, in input order."""
    composite = pair_composite(theory, pair)
    return tuple(
        tensor_pure_states(theory, composite, ancilla, s.purification, prep).representative
        for s in pair_states(theory, pair)
    )


def _output_route(
    theory: GlobalTheory,
    domain: SystemEnvironmentPair,
    ancilla: System,
    prep: LocalState,
    codomain_system: System,
) -> tuple[tuple[tuple[int, ...], ...], Callable[[Sequence[int]], tuple[int, ...]]]:
    """The one route to the outputs of a process of this typing.

    Returns ``(restricted, acted)``: ``restricted[p]`` is the key of the
    local state the output system sees at point ``p``, and ``acted(u)`` is
    one point of each input's joint state acted on by the transformation
    ``u``, in input order, so ``process_table`` reads the restriction at
    each.  The joint states' owner, the restriction and one point of each
    joint state depend on the typing alone, so processes that differ only
    in their transformation share them; ``acted`` checks the owner on every
    call, and ``u`` may be a plain image tuple.
    """
    owner = tensor_systems(theory, pair_composite(theory, domain), ancilla).transf
    restricted = _restriction(theory, codomain_system.transf, owner)
    joint_points = _tuple_getter(_joint_points(theory, domain, ancilla, prep))

    def acted(u: Sequence[int]) -> tuple[int, ...]:
        require_in_owner(owner, u)
        return joint_points(u)

    return restricted, acted


def _restricted_outputs(theory: GlobalTheory, proc: Process) -> Callable[[Sequence], Iterable]:
    """``u`` -> the outputs of ``proc``'s typing, acted on by ``u``, in input order.

    The one output map: the restriction at each acted joint point.
    """
    restricted, acted = _output_route(
        theory, proc.domain, proc.ancilla, proc.prep, proc.codomain_system
    )
    return lambda u: map(restricted.__getitem__, acted(u))


# ---------------------------------------------------------------------------
# Class keys

# Byte keys hold an object number, a point or a state position in one byte,
# and keep the byte _MARK free to mark; a build takes them when every such
# number of the theory and the category is at most this limit.
BYTE_KEY_LIMIT = 255
_MARK = 255


class _ByteKeys:
    """A class's key within its domain: its codomain, then its positions.

    The positions are where each input's output lies in the codomain's
    state list, and the key holds all of them in one ``bytes``.  A class
    ``g``'s ``table`` maps position ``i`` to ``g``'s position ``i`` and the
    mark to ``g``'s codomain, so a class ``f``'s ``reader``, the mark then
    ``f``'s positions, translates through it into the key of ``g . f``.
    ``points`` reads the key of the outputs at acted joint points through
    one 256-byte table from each point to its codomain position; a point
    whose state the codomain does not list maps to the mark, which no key
    holds as a position.
    """

    @staticmethod
    def of(cod: int, where: Iterable[int]) -> bytes:
        return bytes((cod, *where))

    @staticmethod
    def table(key: bytes) -> bytes:
        return key[1:].ljust(_MARK, b"\0") + key[:1]

    @staticmethod
    def reader(key: bytes) -> Callable[[bytes], bytes]:
        return (bytes((_MARK,)) + key[1:]).translate

    @staticmethod
    def points(cod: int, restricted: Sequence, position: dict) -> Callable[[tuple], bytes]:
        prefix = bytes((cod,))
        table = bytes(position.get(k, _MARK) for k in restricted).ljust(256, bytes((_MARK,)))
        return lambda acted: prefix + bytes(acted).translate(table)


class _TupleKeys:
    """The same keys as tuples of ints, for theories too large for bytes.

    A table is the positions then the codomain, which a reader reads at
    index -1; an unlisted state's position is -1.
    """

    @staticmethod
    def of(cod: int, where: Iterable[int]) -> tuple[int, ...]:
        return (cod, *where)

    @staticmethod
    def table(key: tuple[int, ...]) -> tuple[int, ...]:
        return key[1:] + key[:1]

    @staticmethod
    def reader(key: tuple[int, ...]) -> Callable[[Sequence], tuple]:
        return _tuple_getter((-1, *key[1:]))

    @staticmethod
    def points(cod: int, restricted: Sequence, position: dict) -> Callable[[tuple], tuple]:
        at = tuple(position.get(k, -1) for k in restricted)
        return lambda acted: (cod, *map(at.__getitem__, acted))


# ---------------------------------------------------------------------------
# The category of processes over a finite object universe


class MorphismClass:
    """Processes identified by domain, codomain, and state map.

    Equality ignores the representative.
    """

    __slots__ = ("dom", "cod", "table", "representative")

    def __init__(self, dom: int, cod: int, table: tuple, representative: Process) -> None:
        self.dom = dom
        self.cod = cod
        self.table = table
        self.representative = representative

    def __repr__(self) -> str:
        return (
            f"MorphismClass(dom={self.dom!r}, cod={self.cod!r}, table={self.table!r}, "
            f"representative={self.representative!r})"
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.table))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.table) == (other.dom, other.cod, other.table)


def _names(named: tuple[int, ...], x) -> bool:
    # named[x] == x exactly when x is one of the numbers named holds.
    # Indexing raises on a number that is too large or not an integer,
    # such as 1.0, and a negative one reads another entry.
    try:
        return named[x] == x
    except (TypeError, IndexError):
        return False


def _names_pair(named: tuple[int, ...], key) -> bool:
    try:
        a, b = key
    except (TypeError, ValueError):
        return False
    return _names(named, a) and _names(named, b)


class _CompositionItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, chain.from_iterable(self._mapping.rows))


class CompositionRows(Mapping):
    """``g . f`` for every composable pair, held as one row per class.

    ``rows[f]`` holds ``g . f`` for each class ``g`` leaving ``cod f``, in
    ascending ``g``, and ``rank[g]`` is ``g``'s position among the classes
    leaving ``dom g``; ``dom``, ``cod``, ``leaving``, ``rank`` and ``rows``
    are those tables.  Keys run in ascending ``f``, then ``g``.  The
    mapping is read-only: copy it with ``dict`` before changing an entry.
    """

    __slots__ = ("dom", "cod", "leaving", "rank", "rows", "_len")

    def __init__(self, dom, cod, leaving, rank, rows):
        # ``leaving[x]``: the classes leaving object ``x``, ascending.
        self.dom, self.cod, self.leaving = dom, cod, leaving
        self.rank, self.rows = rank, rows
        self._len = sum(map(len, rows))

    def __getitem__(self, key):
        # As in a dict, any key but a composable pair of in-range ints is absent.
        if isinstance(key, tuple) and len(key) == 2:
            g, f = key
            n = len(self.rows)
            if isinstance(g, int) and isinstance(f, int) and 0 <= g < n and 0 <= f < n:
                if self.dom[g] == self.cod[f]:
                    return self.rows[f][self.rank[g]]
        raise KeyError(key)

    def __iter__(self):
        keys_after = map(self.leaving.__getitem__, self.cod)
        return chain.from_iterable(map(zip, keys_after, map(repeat, range(len(self.cod)))))

    def __len__(self):
        return self._len

    def items(self):
        return _CompositionItems(self)


ProcessCategory = namedtuple(
    "ProcessCategory",
    "theory universe objects classes identity compose tensor_obj tensor_mor unit",
)
ProcessCategory.__doc__ = """A finite, tensor-closed fragment of the full process theory.

``universe`` is a tuple of ``System``s, ``objects`` one of
``SystemEnvironmentPair``s and ``classes`` one of ``MorphismClass``es;
``identity`` gives each object's identity class and ``unit`` the unit
object.  ``compose`` (a ``CompositionRows``), ``tensor_obj`` and
``tensor_mor`` map int pairs to ints.  Immutable, iterable and equal to
the tuple of its fields; the mappings make it unhashable.
"""


def default_system_seeds(theory: GlobalTheory) -> tuple[System, ...]:
    """Systems on orthocomplemented lattice nodes that admit product states."""
    # Pure states are computed on the orthocomplemented nodes only; filtering
    # ``enumerate_systems`` would compute them on every node, which raised the
    # peak memory of ``check --suite processes`` on s3x3x3 by about 5 %.
    lattice = enumerate_self_bicommutant(theory)
    seeds = []
    for node in lattice.nodes:
        if is_orthocomplemented(theory, node) and pure_local_states(theory, node):
            seeds.append(make_system(theory, node))
    return tuple(sorted(seeds, key=system_key))


def system_universe(
    theory: GlobalTheory, seeds: tuple[System, ...]
) -> tuple[System, ...]:
    """Close ``seeds`` and the unit under the partial tensor product.

    ``perms.close`` tensors each member with all members present when it is
    expanded; the tensor is symmetric, so every compatible pair is met.  The
    lattice bounds the universe: each composite is the system of a node.
    """
    universe = {*seeds, trivial_system(theory)}

    def tensors(a: System) -> list[System]:
        partners = [b for b in universe if are_compatible(theory, a, b) is not None]
        return [tensor_systems(theory, a, b) for b in partners]

    close(universe, tensors)
    return tuple(sorted(universe, key=system_key))


def build_process_category(
    theory: GlobalTheory,
    systems: tuple[System, ...] | None = None,
    object_cap: int = DEFAULT_OBJECT_CAP,
) -> ProcessCategory:
    """Enumerate objects and morphism classes over a closed system universe.

    Every typing question reads one table of the universe's partial tensor,
    ``tensor[(a, b)] = a x b`` over its compatible pairs: its keys are the
    objects, its inverse gives each total's output splits, and ancilla
    composites, codomain objects, the object tensor and the unit are
    lookups in it.  The rest runs on state tables (see ``process_table``).
    A class is found, among the classes leaving its domain, by its key:
    its codomain, then the positions of its outputs in the codomain's
    state list, in one ``bytes`` string (see ``_ByteKeys``).  So ``g . f``
    is ``f``'s positions translated through ``g``'s table, and only the
    pairs that compose or tensor are visited.  The loops establish every
    condition ``make_process`` checks, so each representative is built as
    a ``Process`` directly.

    Tensors are typed once per typing pair: what a product is, bar its
    dynamics, depends only on its factors' typings.  Per typing pair,
    ``tensor_processes`` proves that the product of the dynamics lies in
    the product's total, and ``_output_route`` gives the joint points and
    the restriction, read into a table from each point to its codomain
    position.  That total contains both factors' totals, so no class pair
    proves it again.  Per class pair, ``h * k`` comes from the group's
    right-multiplication getters, the route checks it against the joint
    owner, and its acted points are translated into the product's key.
    """
    seeds = default_system_seeds(theory) if systems is None else tuple(systems)
    universe = system_universe(theory, seeds)
    # The universe is closed, so every value is in it; keys run in the
    # objects' sorted order.
    tensor = {
        (a, b): tensor_systems(theory, a, b)
        for a in universe
        for b in universe
        if are_compatible(theory, a, b) is not None
    }
    if len(tensor) > object_cap:
        raise ResourceLimit(
            f"category would have {len(tensor)} objects, above the cap of {object_cap}"
        )
    objects = tuple(make_pair(theory, a, b) for a, b in tensor)
    object_index = {key: i for i, key in enumerate(tensor)}
    # For each total, its outputs and the discards that re-factorize it.
    splits: dict[System, dict[System, list[System]]] = {}
    for (k, m), total in tensor.items():
        splits.setdefault(total, {}).setdefault(k, []).append(m)
    state_keys = [
        tuple(state_key(s.value) for s in pair_states(theory, obj)) for obj in objects
    ]
    state_position = [{key: i for i, key in enumerate(keys)} for keys in state_keys]

    # Classes are found by their key within their domain (see _ByteKeys).
    keys = _ByteKeys if max(theory.degree, len(objects)) <= BYTE_KEY_LIMIT else _TupleKeys
    classes: list[MorphismClass] = []
    class_keys: list = []
    found: list[dict] = [{} for _ in objects]
    for oi, obj in enumerate(objects):
        in_keys = state_keys[oi]
        at_dom = found[oi]
        composite = tensor[(obj.system, obj.environment)]
        for anc in universe:
            total = tensor.get((obj.system, anc))
            joint = tensor.get((composite, anc))
            if total is None or joint is None:
                continue
            outs = []
            for out_sys, discards in splits[total].items():
                restricted = _restriction(theory, out_sys.transf, joint.transf)
                for disc in discards:
                    cod = object_index.get((out_sys, tensor.get((obj.environment, disc))))
                    if cod is not None:
                        read = keys.points(cod, restricted, state_position[cod])
                        outs.append((out_sys, disc, cod, restricted, read))
            # The classes a tuple of acted points gives were all made when it
            # was first met, so a repeat under another ``prep`` or ``u`` is
            # skipped.
            met: set[tuple[int, ...]] = set()
            for prep in anc.pure_orbit:
                joint_points = _tuple_getter(_joint_points(theory, obj, anc, prep))
                for u in total.transf.members:
                    acted = joint_points(u)
                    if acted in met:
                        continue
                    met.add(acted)
                    for out_sys, disc, cod, restricted, read in outs:
                        key = read(acted)
                        if key in at_dom:
                            continue
                        at_dom[key] = len(classes)
                        class_keys.append(key)
                        values = map(restricted.__getitem__, acted)
                        rep = Process(obj, anc, prep, u, out_sys, disc)
                        classes.append(MorphismClass(oi, cod, tuple(zip(in_keys, values)), rep))

    identity = tuple(
        found[oi][keys.of(oi, range(len(in_keys)))] for oi, in_keys in enumerate(state_keys)
    )

    # For each object, the classes leaving it in ascending order and their
    # tables; each class's rank among the classes leaving its domain.
    leaving: dict[int, list[int]] = {}
    rank: list[int] = []
    for ci, c in enumerate(classes):
        gis = leaving.setdefault(c.dom, [])
        rank.append(len(gis))
        gis.append(ci)
    tables = {x: [keys.table(class_keys[gi]) for gi in gis] for x, gis in leaving.items()}
    rows = [
        tuple(map(found[f.dom].__getitem__, map(keys.reader(key), tables[f.cod])))
        for f, key in zip(classes, class_keys)
    ]
    compose = CompositionRows(
        tuple(c.dom for c in classes),
        tuple(c.cod for c in classes),
        {x: tuple(gis) for x, gis in leaving.items()},
        rank,
        rows,
    )

    tensor_obj: dict[tuple[int, int], int] = {}
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            key = (
                tensor.get((a.system, b.system)),
                tensor.get((a.environment, b.environment)),
            )
            if key in object_index:
                tensor_obj[(i, j)] = object_index[key]

    # The classes ``d`` with c x d defined are those whose domain tensors
    # with c's and whose codomain tensors with c's, in ascending order.
    tensors_with: dict[int, list[int]] = {}
    for i, j in tensor_obj:
        tensors_with.setdefault(i, []).append(j)
    by_ends: dict[tuple[int, int], list[int]] = {}
    for ci, c in enumerate(classes):
        by_ends.setdefault((c.dom, c.cod), []).append(ci)
    # A product's objects, ancilla, preparation, output system, discard and
    # output route depend on its factors' typings alone, so the first class
    # pair of each typing pair builds them through ``tensor_processes``,
    # with every check ``make_process`` makes; each pair then reads the
    # outputs of its own ``h * k``, which lies in the product's total: that
    # total is a join containing both factors' totals.
    typing_ids: dict[tuple, int] = {}
    typing_of = [
        typing_ids.setdefault(process_typing(c.representative), len(typing_ids))
        for c in classes
    ]
    # ``times[cj](h)`` is ``h`` times class cj's transformation, as a tuple.
    index = theory.group.index
    times = [index.right[index.position[c.representative.transform]] for c in classes]
    typed: dict[tuple[int, int], tuple] = {}
    partners: dict[tuple[int, int], list[int]] = {}
    tensor_mor: dict[tuple[int, int], int] = {}
    for ci, c in enumerate(classes):
        ends = (c.dom, c.cod)
        if ends not in partners:
            partners[ends] = sorted(
                cj
                for j in tensors_with.get(c.dom, ())
                for k in tensors_with.get(c.cod, ())
                for cj in by_ends.get((j, k), ())
            )
        h = c.representative.transform
        for cj in partners[ends]:
            pair_typing = (typing_of[ci], typing_of[cj])
            if pair_typing not in typed:
                d = classes[cj]
                prod = tensor_processes(theory, c.representative, d.representative)
                cod = tensor_obj[(c.cod, d.cod)]
                restricted, acted = _output_route(
                    theory, prod.domain, prod.ancilla, prod.prep, prod.codomain_system
                )
                typed[pair_typing] = (
                    acted,
                    keys.points(cod, restricted, state_position[cod]),
                    found[tensor_obj[(c.dom, d.dom)]],
                )
            acted, read, at_dom = typed[pair_typing]
            tensor_mor[(ci, cj)] = at_dom[read(acted(times[cj](h)))]

    unit = trivial_system(theory)
    return ProcessCategory(
        theory,
        universe,
        objects,
        tuple(classes),
        identity,
        compose,
        tensor_obj,
        tensor_mor,
        object_index[(unit, unit)],
    )


# ---------------------------------------------------------------------------
# Generation of the full theory from its pure fragment


class GenerationReport(
    namedtuple(
        "GenerationReport",
        "pure_total pure_generated full_total full_generated"
        " transformation_generators preparation_generators discard_generators",
    )
):
    """Whether transformations, preparations, and discards generate everything.

    Every field is an int.
    """

    __slots__ = ()

    @property
    def pure_ok(self) -> bool:
        return self.pure_generated == self.pure_total

    @property
    def full_ok(self) -> bool:
        return self.full_generated == self.full_total


def _closure(cat: ProcessCategory, start: set[int]) -> set[int]:
    """The classes that composition and tensor generate from ``start``.

    ``perms.close`` expands each class that joins the span into the values
    of the entries that pair it with a spanned class, so each entry is met
    once both of its classes are spanned.  It adds classes only: an entry
    whose key or value names no class is skipped.
    """
    named = tuple(range(len(cat.classes)))
    # For each class, (other class, value) of every entry pairing the two.
    pairs: dict[int, list[tuple[int, int]]] = {}
    for table in (cat.compose, cat.tensor_mor):
        for key, out in table.items():
            if _names(named, out) and _names_pair(named, key):
                a, b = key
                pairs.setdefault(a, []).append((b, out))
                pairs.setdefault(b, []).append((a, out))
    span = set(start)
    close(span, lambda x: [out for other, out in pairs.get(x, ()) if other in span])
    return span


def _factorises(
    cat: ProcessCategory,
    object_index: dict[SystemEnvironmentPair, int],
    transf_of: dict[tuple[int, Perm], int],
    prep_of: dict[tuple[System, LocalState], int],
    discard_of: list[int],
) -> bool:
    """Whether the tables show every class as prepare, then act, then discard.

    A class with representative ``((S, E), A, prep, u, out, disc)`` acts
    on ``T = S x A``; it is ``D . (U . P)`` with

    - ``P = id_(S, E) x prep(A, prep)``, or ``id_(S, E)`` when ``A`` is trivial,
    - ``U = u on (T, unit) x id_(unit, E)``,
    - ``D = id_(out, E) x discard(disc, unit)``.

    Each of P, U and D is a tensor of two generators (identities are
    transformation generators), so when the tables say so, the class lies
    in the span.  ``P``, ``D`` and ``id_(unit, E)`` depend on the typing
    alone, so they are looked up once per typing; a missing entry, or one
    whose value names no class (``1.0`` is not class 1), means the
    argument does not apply.
    """
    compose, tensor, identity = cat.compose, cat.tensor_mor, cat.identity
    unit = cat.objects[cat.unit].system
    named = tuple(range(len(cat.classes)))

    def read(table: Mapping, key: tuple[int, int]) -> int:
        value = table[key]
        if _names(named, value):
            return value
        raise KeyError(key)

    typed: dict[tuple, tuple[int, int, int, int]] = {}
    try:
        for ci, c in enumerate(cat.classes):
            proc = c.representative
            typing = (c.dom, proc.ancilla, proc.prep, proc.codomain_system, proc.discarded)
            if typing not in typed:
                env = proc.domain.environment
                prep = identity[c.dom]
                if not proc.ancilla.is_trivial:
                    prep = read(tensor, (prep, prep_of[(proc.ancilla, proc.prep)]))
                total = cat.objects[cat.classes[prep].cod].system
                discard = read(
                    tensor,
                    (
                        identity[object_index[(proc.codomain_system, env)]],
                        discard_of[object_index[(proc.discarded, unit)]],
                    ),
                )
                typed[typing] = (
                    prep,
                    object_index[(total, unit)],
                    identity[object_index[(unit, env)]],
                    discard,
                )
            prep, total, env_id, discard = typed[typing]
            act = read(tensor, (transf_of[(total, proc.transform)], env_id))
            if read(compose, (discard, read(compose, (act, prep)))) != ci:
                return False
    except (KeyError, IndexError):
        return False
    return True


def verify_generation(theory: GlobalTheory, cat: ProcessCategory) -> GenerationReport:
    """Check that reversible dynamics, preparations, and discards span the theory.

    Each generator is built as a ``Process`` and found by its ends and its
    ``process_table``, the state tables the build reads.  When every class
    factors as its preparation, dynamics and discard (``_factorises``), the
    span is every class; otherwise the closure over the tables decides.
    The pure span is the full span's pure part, so one span serves both.  A
    class's codomain environment is its domain environment with its
    discard, so a composite between trivial environments has factors
    between trivial environments, and a tensor has a trivial environment
    only when both factors do.  The one discard between trivial
    environments, the unit object's, is the unit identity.
    """
    object_index = {obj: i for i, obj in enumerate(cat.objects)}
    class_index = {(c.dom, c.cod, c.table): i for i, c in enumerate(cat.classes)}

    def class_of(proc: Process) -> int:
        ends = (object_index[proc.domain], object_index[process_codomain(theory, proc)])
        return class_index[(*ends, process_table(theory, proc))]

    env_trivial = {i for i, obj in enumerate(cat.objects) if obj.environment.is_trivial}
    pure_ids = {
        i
        for i, c in enumerate(cat.classes)
        if c.dom in env_trivial and c.cod in env_trivial
    }

    unit = trivial_system(theory)
    identity = theory.group.identity
    # Each generator's class, by its object and dynamics, by its prepared
    # system and state, and by the object it discards.
    transf_of: dict[tuple[int, Perm], int] = {}
    prep_of: dict[tuple[System, LocalState], int] = {}
    for oi in env_trivial:
        obj = cat.objects[oi]
        system = obj.system
        for u in system.transf.members:
            transf_of[(oi, u)] = class_of(Process(obj, unit, unit.pure_orbit[0], u, system, unit))
        if not system.is_trivial:
            for prep in system.pure_orbit:
                prep_of[(system, prep)] = class_of(
                    Process(cat.objects[cat.unit], system, prep, identity, system, unit)
                )
    discard_of = [class_of(discard_process(theory, obj)) for obj in cat.objects]
    transf_gens = {*cat.identity, *transf_of.values()}
    prep_gens = set(prep_of.values())
    discard_gens = set(discard_of)

    if _factorises(cat, object_index, transf_of, prep_of, discard_of):
        full_span = set(range(len(cat.classes)))
    else:
        full_span = _closure(cat, transf_gens | prep_gens | discard_gens)
    pure_span = full_span & pure_ids
    return GenerationReport(
        pure_total=len(pure_ids),
        pure_generated=len(pure_span),
        full_total=len(cat.classes),
        full_generated=len(full_span),
        transformation_generators=len(transf_gens),
        preparation_generators=len(prep_gens),
        discard_generators=len(discard_gens),
    )
