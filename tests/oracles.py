"""Independent brute-force reference computations.

Everything here works on raw image tuples and recomputes facts by the
most literal method available, so the package never verifies itself.
The composition convention matches the package: (g h)(p) = g(h(p)).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from emergent.checks import SuiteResult
from emergent.errors import IncompatibleSystems, NotNested, ResourceLimit, TypeMismatch
from emergent.lattice import (
    commutant,
    enumerate_self_bicommutant,
    intersection,
    is_orthocomplemented,
    is_orthogonal,
    is_self_bicommutant,
    join,
    meet,
    product_set,
    require_self_bicommutant,
)
from emergent.perms import GlobalTheory, Subgroup, reduce_generators
from emergent.pmcat import FiniteCategoryInstance, Violation
from emergent.processes import (
    DEFAULT_OBJECT_CAP,
    MorphismClass,
    Process,
    ProcessCategory,
    PairState,
    SystemEnvironmentPair,
    default_system_seeds,
    make_pair,
    make_process,
    pair_composite,
    pair_states,
    process_action,
    system_universe,
    tensor_processes,
)
from emergent.states import (
    act_local,
    is_product_state,
    iterated_restrict,
    pure_local_states,
    pure_stabilizer,
    restrict,
    state_key,
)
from emergent.systems import (
    System,
    enumerate_systems,
    system_key,
    tensor_pure_states,
    tensor_systems,
    trivial_system,
)
from emergent.systems import are_compatible as engine_are_compatible


def compose(g, h):
    return tuple(g[p] for p in h)


def inverse(g):
    out = [0] * len(g)
    for p, q in enumerate(g):
        out[q] = p
    return tuple(out)


def identity(degree):
    return tuple(range(degree))


def mulclose(perms):
    """Closure under products, growing a frontier until nothing is new."""
    result = set(perms)
    degree = len(next(iter(result)))
    result.add(identity(degree))
    frontier = set(result)
    while frontier:
        new = set()
        for a in frontier:
            for b in result:
                for c in (compose(a, b), compose(b, a)):
                    if c not in result:
                        new.add(c)
        result |= new
        frontier = new
    return result


def all_subgroups(elements):
    """Every subgroup, found by repeatedly adjoining one element."""
    elements = list(elements)
    degree = len(elements[0])
    start = frozenset([identity(degree)])
    seen = {start}
    queue = [start]
    while queue:
        sub = queue.pop()
        for g in elements:
            if g in sub:
                continue
            bigger = frozenset(mulclose(sub | {g}))
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return seen


def centralizer_in(elements, subset):
    return {
        g
        for g in elements
        if all(compose(g, s) == compose(s, g) for s in subset)
    }


def self_bicommutant_subgroups(elements):
    """Brute force over all subgroups, keeping those with H'' = H."""
    found = set()
    for sub in all_subgroups(elements):
        comm = centralizer_in(elements, sub)
        if frozenset(centralizer_in(elements, comm)) == sub:
            found.add(sub)
    return found


def hasse_covers(node_sets):
    """Covering pairs (i, j) of a list of sets, i then j ascending.

    Node i is covered by node j when i is inside j and no third node lies
    between them, searched over every triple.
    """
    n = len(node_sets)
    leq = [[a <= b for b in node_sets] for a in node_sets]
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(leq[i][k] and leq[k][j] for k in range(n) if k != i and k != j):
                continue
            edges.append((i, j))
    return tuple(edges)


def orbit_of(perms, point):
    seen = {point}
    frontier = [point]
    while frontier:
        p = frontier.pop()
        for g in perms:
            q = g[p]
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def stabilizer_in(perms, point):
    return {g for g in perms if g[point] == point}


def product_elements(h_elems, k_elems):
    return {compose(h, k) for h in h_elems for k in k_elems}


def is_product_point(elements, sub, point):
    """Purity by orbit counting alone.

    The joint orbit of a point under H and its centralizer splits into a
    product exactly when its size is the product of the two one-sided
    orbit sizes; no stabilizer or local-state machinery is involved.
    """
    comm = centralizer_in(elements, sub)
    joint = orbit_of(product_elements(sub, comm), point)
    return len(joint) == len(orbit_of(sub, point)) * len(orbit_of(comm, point))


# -- composability ---------------------------------------------------------
#
# The rule by which two systems compose, on raw tuples: ``a`` and ``b`` are
# the members of two systems' subgroups as image tuples, ``elements`` the
# whole group's, and a state is its set of points.


def join_of(elements, a, b):
    """The double commutant of ``a`` and ``b`` together."""
    return centralizer_in(elements, centralizer_in(elements, a | b))


def product_points(elements, a, b):
    """Points pure over the join whose ``a``- and ``b``-orbits meet only in the point."""
    joined = join_of(elements, a, b)
    degree = len(next(iter(elements)))
    return tuple(
        p
        for p in range(degree)
        if orbit_of(a, p) & orbit_of(b, p) == {p} and is_product_point(elements, joined, p)
    )


def are_compatible(elements, a, b):
    """The least product point where both factors are pure, if the two compose.

    The trivial subgroup composes with everything; any other pair must be
    each other's commutant inside their join.
    """
    if len(a) > 1 and len(b) > 1:
        # Commuting is implied by the complement test; it is the cheap exit.
        if centralizer_in(b, a) != b:
            return None
        joined = join_of(elements, a, b)
        if centralizer_in(joined, a) != b or centralizer_in(joined, b) != a:
            return None
    return next(
        (
            p
            for p in product_points(elements, a, b)
            if is_product_point(elements, a, p) and is_product_point(elements, b, p)
        ),
        None,
    )


def tensor_state_candidates(elements, a, b, rho, sigma):
    """The product points of ``a`` and ``b`` that lie in both states."""
    return tuple(p for p in product_points(elements, a, b) if p in rho and p in sigma)


def raw_elements(theory: GlobalTheory) -> frozenset:
    return frozenset(map(tuple, theory.group.elements))


def raw_members(system: System) -> frozenset:
    return frozenset(map(tuple, system.transf.members))


# -- pmcat -----------------------------------------------------------------
#
# The seven axiom loops of ``emergent.pmcat`` as first written: every
# candidate pair, triple and quadruple is looked up in the raw tables,
# with no indexing beyond ``by_dom``.  They raise on a table value that
# names no morphism, so they serve only well-formed instances.


def _check_category(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    n_mor = len(inst.morphisms)
    for x, i in enumerate(inst.identity):
        if inst.dom[i] != x or inst.cod[i] != x:
            out.append(
                Violation(
                    "category-identity",
                    (x,),
                    f"identity of {inst.objects[x]} has wrong endpoints",
                )
            )
    for f in range(n_mor):
        for g in range(n_mor):
            if inst.cod[f] != inst.dom[g]:
                continue
            if (g, f) not in inst.compose:
                out.append(
                    Violation(
                        "category-composition",
                        (g, f),
                        f"composite of {inst.morphisms[f]} then {inst.morphisms[g]} is missing",
                    )
                )
                continue
            h = inst.compose[(g, f)]
            if inst.dom[h] != inst.dom[f] or inst.cod[h] != inst.cod[g]:
                out.append(
                    Violation(
                        "category-composition",
                        (g, f),
                        f"composite of {inst.morphisms[f]} then {inst.morphisms[g]} has wrong endpoints",
                    )
                )
    for f in range(n_mor):
        left = inst.compose.get((inst.identity[inst.cod[f]], f))
        right = inst.compose.get((f, inst.identity[inst.dom[f]]))
        if left is not None and left != f:
            out.append(
                Violation(
                    "category-identity",
                    (f,),
                    f"post-composing {inst.morphisms[f]} with an identity changes it",
                )
            )
        if right is not None and right != f:
            out.append(
                Violation(
                    "category-identity",
                    (f,),
                    f"pre-composing {inst.morphisms[f]} with an identity changes it",
                )
            )
    for f in range(n_mor):
        for g in inst.by_dom.get(inst.cod[f], ()):
            gf = inst.compose.get((g, f))
            if gf is None:
                continue
            for h in inst.by_dom.get(inst.cod[g], ()):
                hg = inst.compose.get((h, g))
                if hg is None:
                    continue
                lhs = inst.compose.get((h, gf))
                rhs = inst.compose.get((hg, f))
                if lhs is not None and rhs is not None and lhs != rhs:
                    out.append(
                        Violation(
                            "category-composition",
                            (h, g, f),
                            "composition is not associative on this triple",
                        )
                    )
    return out


def _check_fullness(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    n_mor = len(inst.morphisms)
    for f in range(n_mor):
        for g in range(n_mor):
            doms = (inst.dom[f], inst.dom[g])
            cods = (inst.cod[f], inst.cod[g])
            if doms in inst.tensor_obj and cods in inst.tensor_obj:
                if (f, g) not in inst.tensor_mor:
                    out.append(
                        Violation(
                            "fullness",
                            (f, g),
                            f"tensor of {inst.morphisms[f]} and {inst.morphisms[g]} "
                            "is missing although both endpoint tensors exist",
                        )
                    )
            elif (f, g) in inst.tensor_mor:
                out.append(
                    Violation(
                        "fullness",
                        (f, g),
                        f"tensor of {inst.morphisms[f]} and {inst.morphisms[g]} "
                        "is present although an endpoint tensor is undefined",
                    )
                )
    return out


def _check_functoriality(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    for (f, g), m in inst.tensor_mor.items():
        doms = inst.tensor_obj.get((inst.dom[f], inst.dom[g]))
        cods = inst.tensor_obj.get((inst.cod[f], inst.cod[g]))
        if doms is None or cods is None:
            continue
        if inst.dom[m] != doms or inst.cod[m] != cods:
            out.append(
                Violation(
                    "functoriality",
                    (f, g),
                    f"tensor of {inst.morphisms[f]} and {inst.morphisms[g]} has wrong endpoints",
                )
            )
    for (a, b), ab in inst.tensor_obj.items():
        m = inst.tensor_mor.get((inst.identity[a], inst.identity[b]))
        if m is not None and m != inst.identity[ab]:
            out.append(
                Violation(
                    "functoriality",
                    (a, b),
                    "tensor of identities is not the identity of the tensor",
                )
            )
    for (f, p), fp in inst.tensor_mor.items():
        for g in inst.by_dom.get(inst.cod[f], ()):
            gf = inst.compose.get((g, f))
            if gf is None:
                continue
            for q in inst.by_dom.get(inst.cod[p], ()):
                gq = inst.tensor_mor.get((g, q))
                if gq is None:
                    continue
                qp = inst.compose.get((q, p))
                if qp is None:
                    continue
                whole = inst.tensor_mor.get((gf, qp))
                if whole is None:
                    continue
                stepwise = inst.compose.get((gq, fp))
                if stepwise is not None and stepwise != whole:
                    out.append(
                        Violation(
                            "functoriality",
                            (g, f, q, p),
                            "tensor does not commute with composition",
                        )
                    )
    return out


def _check_repleteness(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    seen: set[frozenset[int]] = set()
    iso = inst.isomorphic_pairs
    n = len(inst.objects)
    for (a, b) in list(inst.tensor_obj):
        candidates = [(a2, b) for a2 in range(n) if (a, a2) in iso]
        candidates += [(a, b2) for b2 in range(n) if (b, b2) in iso]
        for pair in candidates:
            if pair in inst.tensor_obj:
                continue
            witness = frozenset(pair)
            if witness in seen:
                continue
            seen.add(witness)
            out.append(
                Violation(
                    "repleteness",
                    tuple(sorted(witness)),
                    f"tensor of {inst.objects[pair[0]]} and {inst.objects[pair[1]]} "
                    "is undefined although an isomorphic replacement is defined",
                )
            )
    return out


def _check_associativity(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    seen: set[tuple[int, int, int]] = set()
    n = len(inst.objects)

    def record(a: int, b: int, c: int, message: str) -> None:
        witness = (a, b, c)
        if witness in seen:
            return
        seen.add(witness)
        out.append(Violation("associativity-definedness", witness, message))

    for a in range(n):
        for b in range(n):
            ab = inst.tensor_obj.get((a, b))
            for c in range(n):
                bc = inst.tensor_obj.get((b, c))
                left = inst.tensor_obj.get((ab, c)) if ab is not None else None
                right = inst.tensor_obj.get((a, bc)) if bc is not None else None
                if left is not None and right is None:
                    record(
                        a,
                        b,
                        c,
                        f"({inst.objects[a]} x {inst.objects[b]}) x {inst.objects[c]} "
                        "is defined but the right-bracketed tensor is not",
                    )
                elif right is not None and left is None:
                    record(
                        a,
                        b,
                        c,
                        f"{inst.objects[a]} x ({inst.objects[b]} x {inst.objects[c]}) "
                        "is defined but the left-bracketed tensor is not",
                    )
                elif left is not None and right is not None and left != right:
                    record(a, b, c, "the two bracketings produce different objects")
    for f in range(len(inst.morphisms)):
        for g in range(len(inst.morphisms)):
            fg = inst.tensor_mor.get((f, g))
            if fg is None:
                continue
            for h in range(len(inst.morphisms)):
                gh = inst.tensor_mor.get((g, h))
                left = inst.tensor_mor.get((fg, h))
                right = inst.tensor_mor.get((f, gh)) if gh is not None else None
                if left is not None and right is not None and left != right:
                    record(
                        inst.dom[f],
                        inst.dom[g],
                        inst.dom[h],
                        "the two bracketings produce different morphisms",
                    )
    return out


def _check_unit(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    e = inst.unit
    for a in range(len(inst.objects)):
        for pair in ((e, a), (a, e)):
            if inst.tensor_obj.get(pair) != a:
                out.append(
                    Violation(
                        "unit",
                        pair,
                        f"tensoring {inst.objects[a]} with the unit does not return it",
                    )
                )
    for f in range(len(inst.morphisms)):
        for pair in ((inst.identity[e], f), (f, inst.identity[e])):
            m = inst.tensor_mor.get(pair)
            if m is not None and m != f:
                out.append(
                    Violation(
                        "unit",
                        pair,
                        f"tensoring {inst.morphisms[f]} with the unit identity changes it",
                    )
                )
    return out


def _check_symmetry(inst: FiniteCategoryInstance) -> list[Violation]:
    out: list[Violation] = []
    for (a, b), ab in inst.tensor_obj.items():
        ba = inst.tensor_obj.get((b, a))
        if ba is None:
            out.append(
                Violation(
                    "symmetry",
                    (b, a),
                    f"tensor of {inst.objects[a]} and {inst.objects[b]} is defined "
                    "but the swapped tensor is not",
                )
            )
        elif ba != ab:
            out.append(
                Violation(
                    "symmetry",
                    (a, b),
                    "the tensor is not commutative on this object pair",
                )
            )
    for (f, g), m in inst.tensor_mor.items():
        swapped = inst.tensor_mor.get((g, f))
        if swapped is not None and swapped != m:
            out.append(
                Violation(
                    "symmetry",
                    (f, g),
                    "the tensor is not commutative on this morphism pair",
                )
            )
    return out


def pmcat_violations(inst: FiniteCategoryInstance) -> tuple[Violation, ...]:
    """Every axiom violation, in the order ``check_partially_monoidal`` gives."""
    out: list[Violation] = []
    out.extend(_check_category(inst))
    out.extend(_check_fullness(inst))
    out.extend(_check_functoriality(inst))
    out.extend(_check_repleteness(inst))
    out.extend(_check_associativity(inst))
    out.extend(_check_unit(inst))
    out.extend(_check_symmetry(inst))
    return tuple(out)


# ---------------------------------------------------------------------------
# The process category as first written: every class pair is visited and
# each state map is computed through LocalState objects.  Kept verbatim as
# the reference the indexed build must equal field for field.


def _decompositions(
    theory: GlobalTheory, universe: tuple[System, ...], total: System
) -> dict[System, list[System]]:
    """For each candidate output, the discards re-factorizing ``total``."""
    options: dict[System, list[System]] = {}
    for k in universe:
        for m in universe:
            if engine_are_compatible(theory, k, m) is None:
                continue
            if tensor_systems(theory, k, m) == total:
                options.setdefault(k, []).append(m)
    return options


def build_process_category(
    theory: GlobalTheory,
    systems: tuple[System, ...] | None = None,
    object_cap: int = DEFAULT_OBJECT_CAP,
) -> ProcessCategory:
    """Enumerate objects and morphism classes over a closed system universe."""
    if object_cap == 0:
        return ProcessCategory(theory, (), (), (), (), {}, {}, {}, -1)
    seeds = default_system_seeds(theory) if systems is None else tuple(systems)
    universe = system_universe(theory, seeds)
    objects = []
    for a in universe:
        for b in universe:
            if engine_are_compatible(theory, a, b) is not None:
                objects.append(make_pair(theory, a, b))
    objects.sort(key=lambda p: (system_key(p.system), system_key(p.environment)))
    objects = tuple(objects)
    if len(objects) > object_cap:
        raise ResourceLimit(
            f"category would have {len(objects)} objects, above the cap of {object_cap}"
        )
    object_index = {obj: i for i, obj in enumerate(objects)}

    classes: list[MorphismClass] = []
    class_index: dict[tuple, int] = {}
    decomp_cache: dict[System, dict[System, list[System]]] = {}
    for oi, obj in enumerate(objects):
        inputs = pair_states(theory, obj)
        in_keys = tuple(state_key(s.value) for s in inputs)
        composite = pair_composite(theory, obj)
        for anc in universe:
            try:
                total = tensor_systems(theory, obj.system, anc)
                tensor_systems(theory, composite, anc)
            except IncompatibleSystems:
                continue
            if total not in decomp_cache:
                decomp_cache[total] = _decompositions(theory, universe, total)
            decomps = decomp_cache[total]
            for prep in anc.pure_orbit:
                joints = [
                    tensor_pure_states(theory, composite, anc, s.purification, prep)
                    for s in inputs
                ]
                for u in total.transf.members:
                    acted = [act_local(theory, u, joint) for joint in joints]
                    for out_sys, discards in decomps.items():
                        values = tuple(
                            state_key(iterated_restrict(theory, out_sys.transf, a))
                            for a in acted
                        )
                        table = tuple(zip(in_keys, values))
                        for disc in discards:
                            try:
                                env_out = tensor_systems(
                                    theory, obj.environment, disc
                                )
                                cod_pair = make_pair(theory, out_sys, env_out)
                            except IncompatibleSystems:
                                continue
                            cod = object_index[cod_pair]
                            key = (oi, cod, table)
                            if key not in class_index:
                                rep = make_process(
                                    theory, obj, anc, prep, u, out_sys, disc
                                )
                                class_index[key] = len(classes)
                                classes.append(MorphismClass(oi, cod, table, rep))

    identity = []
    for oi, obj in enumerate(objects):
        table = tuple(
            (state_key(s.value), state_key(s.value))
            for s in pair_states(theory, obj)
        )
        identity.append(class_index[(oi, oi, table)])
    identity = tuple(identity)

    compose: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(classes):
        for gi, g in enumerate(classes):
            if f.cod != g.dom:
                continue
            g_map = dict(g.table)
            chained = tuple((src, g_map[mid]) for src, mid in f.table)
            compose[(gi, fi)] = class_index[(f.dom, g.cod, chained)]

    tensor_obj: dict[tuple[int, int], int] = {}
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            try:
                sys_t = tensor_systems(theory, a.system, b.system)
                env_t = tensor_systems(theory, a.environment, b.environment)
                pair = make_pair(theory, sys_t, env_t)
            except IncompatibleSystems:
                continue
            tensor_obj[(i, j)] = object_index[pair]

    tensor_mor: dict[tuple[int, int], int] = {}
    for ci, c in enumerate(classes):
        for cj, d in enumerate(classes):
            if (c.dom, d.dom) not in tensor_obj or (c.cod, d.cod) not in tensor_obj:
                continue
            prod = tensor_processes(theory, c.representative, d.representative)
            key = (
                tensor_obj[(c.dom, d.dom)],
                tensor_obj[(c.cod, d.cod)],
                process_table(theory, prod),
            )
            tensor_mor[(ci, cj)] = class_index[key]

    unit_pair = make_pair(theory, trivial_system(theory), trivial_system(theory))
    return ProcessCategory(
        theory,
        universe,
        objects,
        tuple(classes),
        identity,
        compose,
        tensor_obj,
        tensor_mor,
        object_index[unit_pair],
    )


def apply_process(theory: GlobalTheory, proc: Process, state: PairState) -> PairState:
    """Purify, adjoin the ancilla, act, and restrict to the codomain."""
    return process_action(theory, proc)(state)


def process_table(theory: GlobalTheory, proc: Process) -> tuple:
    """A process's state map by ``apply_process`` on every input state."""
    return tuple(
        (state_key(state.value), state_key(apply_process(theory, proc, state).value))
        for state in pair_states(theory, proc.domain)
    )


def enumerate_generalised_effects(
    theory: GlobalTheory,
    pair: SystemEnvironmentPair,
    ancillas: tuple[System, ...] | None = None,
) -> tuple[Process, ...]:
    """Processes from the pair to the trivial system, up to equal state maps.

    Different ancillas and dynamics all collapse to the same state map,
    so the result is the discarding effect alone.
    """
    if ancillas is None:
        ancillas = enumerate_systems(theory)
    unit = trivial_system(theory)
    composite = pair_composite(theory, pair)
    found: dict[tuple, Process] = {}
    for anc in sorted(ancillas, key=system_key):
        try:
            total = tensor_systems(theory, pair.system, anc)
            tensor_systems(theory, composite, anc)
        except IncompatibleSystems:
            continue
        for prep in anc.pure_orbit:
            for u in total.transf.members:
                try:
                    proc = make_process(theory, pair, anc, prep, u, unit, total)
                except (IncompatibleSystems, TypeMismatch):
                    continue
                table = process_table(theory, proc)
                if table not in found:
                    found[table] = proc
    return tuple(found.values())


# ---------------------------------------------------------------------------
# The lattice suite that calls meet and join on every node triple, exhaustive
# up to TRIPLE_LIMIT triples and sampled above it.  Kept verbatim as the
# reference the meet and join tables must equal.

SAMPLE_SEED = 20240801
TRIPLE_LIMIT = 300_000
TRIPLE_SAMPLE = 10_000


def is_orthocomplementary(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> bool:
    """Each input is the other's complement inside their join, by join and meet."""
    if not is_orthogonal(theory, a, b):
        return False
    j = join(theory, a, b)
    if meet(theory, commutant(theory, a), j) != b:
        return False
    return meet(theory, commutant(theory, b), j) == a


def check_orthomodular(theory: GlobalTheory, a: Subgroup, b: Subgroup) -> bool:
    """Test the orthomodular identity a v (a' ^ b) == b for nested a <= b."""
    require_self_bicommutant(theory, a)
    require_self_bicommutant(theory, b)
    if not a.is_subset_of(b):
        raise NotNested("orthomodularity is only tested for nested subgroups")
    return join(theory, a, meet(theory, commutant(theory, a), b)) == b


def lattice_suite(theory: GlobalTheory) -> SuiteResult:
    """Lattice structure: closure, duality, bounds, and product subgroups."""
    violations: list[str] = []
    notices: list[str] = []
    lattice = enumerate_self_bicommutant(theory)
    nodes = lattice.nodes
    node_set = set(nodes)

    if not lattice.bottom.is_trivial:
        violations.append("lattice: the least node is not the trivial subgroup")
    if lattice.top.member_set != theory.group.element_set:
        violations.append("lattice: the greatest node is not the full group")

    for i, a in enumerate(nodes):
        if not is_self_bicommutant(theory, a):
            violations.append(f"lattice: node {i} is not its own double commutant")
        ca = commutant(theory, a)
        if ca not in node_set:
            violations.append(f"lattice: commutant of node {i} is not a node")
        if is_orthocomplemented(theory, a) and join(theory, a, ca) != lattice.top:
            violations.append(
                f"lattice: node {i} and its commutant do not join to the top"
            )

    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if j < i:
                continue
            m = meet(theory, a, b)
            jn = join(theory, a, b)
            if m not in node_set:
                violations.append(f"lattice: meet of nodes {i}, {j} is not a node")
            if jn not in node_set:
                violations.append(f"lattice: join of nodes {i}, {j} is not a node")
            if meet(theory, a, jn) != a or meet(theory, b, jn) != b:
                violations.append(
                    f"lattice: meet does not absorb the join on nodes {i}, {j}"
                )
            if join(theory, a, m) != a or join(theory, b, m) != b:
                violations.append(
                    f"lattice: join does not absorb the meet on nodes {i}, {j}"
                )
            if a.is_subset_of(b) and not commutant(theory, b).is_subset_of(commutant(theory, a)):
                violations.append(
                    f"lattice: taking commutants does not reverse the "
                    f"inclusion of nodes {i}, {j}"
                )
            if b.is_subset_of(a) and not commutant(theory, a).is_subset_of(commutant(theory, b)):
                violations.append(
                    f"lattice: taking commutants does not reverse the "
                    f"inclusion of nodes {j}, {i}"
                )
            if commutant(theory, jn) != meet(
                theory, commutant(theory, a), commutant(theory, b)
            ):
                violations.append(
                    f"lattice: commutant of join breaks duality on nodes {i}, {j}"
                )
            if commutant(theory, m) != join(
                theory, commutant(theory, a), commutant(theory, b)
            ):
                violations.append(
                    f"lattice: commutant of meet breaks duality on nodes {i}, {j}"
                )

    # Every h in A commutes with every k in B exactly when their generators
    # do, and (h1 k1)(h2 k2) = (h1 h2)(k1 k2) reduces to k1 h2 = h2 k1 by
    # cancelling h1 and k2: one exact test settles both properties.
    gens = [reduce_generators(a.members, theory.degree) for a in nodes]
    centre_meet_gaps = 0
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if j < i or not is_orthogonal(theory, a, b):
                continue
            product = product_set(theory, a, b)
            if product not in node_set:
                notices.append(
                    f"lattice: product of commuting nodes {i}, {j} is not a node"
                )
            centre_a = intersection(theory, a, commutant(theory, a))
            centre_b = intersection(theory, b, commutant(theory, b))
            centre_product = intersection(theory, product, commutant(theory, product))
            if centre_product != product_set(theory, centre_a, centre_b):
                violations.append(
                    f"lattice: the centre of the product of nodes {i}, {j} "
                    "is not the product of their centres"
                )
            if centre_product != meet(theory, a, b):
                centre_meet_gaps += 1
            if (
                is_orthocomplemented(theory, a)
                or is_orthocomplemented(theory, b)
            ) and product.order != a.order * b.order:
                violations.append(
                    f"lattice: factorisation over nodes {i}, {j} is not unique"
                )
            if any(h * k != k * h for h in gens[i] for k in gens[j]):
                violations.append(
                    f"lattice: swapping the factors of nodes {i}, {j} "
                    "changes the joint transformation"
                )
                violations.append(
                    f"lattice: joint transformations of nodes {i}, {j} "
                    "do not multiply factorwise"
                )

    if centre_meet_gaps:
        notices.append(
            "lattice: the centre of the product differs from the meet for "
            f"{centre_meet_gaps} commuting pairs"
        )

    failures = 0
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j or not a.is_subset_of(b):
                continue
            if not check_orthomodular(theory, a, b):
                failures += 1
    if failures:
        notices.append(f"lattice: orthomodular identity fails for {failures} nested pairs")

    n = len(nodes)
    rng = random.Random(SAMPLE_SEED)
    triples = (
        itertools.product(range(n), repeat=3)
        if n**3 <= TRIPLE_LIMIT
        else (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(TRIPLE_SAMPLE)
        )
    )
    distributive_failures = 0
    for i, j, k in triples:
        lhs = meet(theory, nodes[i], join(theory, nodes[j], nodes[k]))
        rhs = join(
            theory,
            meet(theory, nodes[i], nodes[j]),
            meet(theory, nodes[i], nodes[k]),
        )
        if lhs != rhs:
            distributive_failures += 1
    if distributive_failures:
        notices.append(
            f"lattice: distributivity fails for {distributive_failures} node triples"
        )
    notices.append(f"lattice: {n} nodes")
    return SuiteResult("lattice", tuple(violations), tuple(notices))


# ---------------------------------------------------------------------------
# The product-state test by pair enumeration, and the states and systems
# suites that loop over every member of every group.  Kept verbatim as the
# reference the orbit census and the generator checks must equal.


def _joint_split(
    theory: GlobalTheory, a: Subgroup, b: Subgroup, point: int
) -> tuple[int, Subgroup, Subgroup, bool]:
    """Joint-stabilizer census of ``point`` over a commuting pair.

    Returns the size of {(h, k) : h k fixes point}, the two marginal local
    state stabilizers, and whether the pointwise stabilizer of the product
    subgroup splits as the product of the pointwise marginal stabilizers.
    """
    index = theory.group.index
    image = index.images[point]
    orbit_a = {image[h] for h in a.indices}
    orbit_b = {image[k] for k in b.indices}
    stab_a = index.pack(h for h in a.indices if image[h] in orbit_b)
    stab_b = index.pack(k for k in b.indices if image[k] in orbit_a)
    # h k fixes the point exactly when k sends it to h^-1(point), so
    # bucket the members of ``a`` by the preimage of the point.
    inverse = index.inverse
    by_preimage: dict[int, list[int]] = {}
    for h in a.indices:
        by_preimage.setdefault(image[inverse[h]], []).append(h)
    pairs = [(h, k) for k in b.indices for h in by_preimage.get(image[k], ())]
    fix_a = [h for h in a.indices if image[h] == point]
    fix_b = [k for k in b.indices if image[k] == point]
    product_fix = {index.mul(h, k) for h in fix_a for k in fix_b}
    joint_fix = {index.mul(h, k) for h, k in pairs}
    return (
        len(pairs),
        Subgroup.from_mask(a.parent, stab_a),
        Subgroup.from_mask(b.parent, stab_b),
        product_fix == joint_fix,
    )


def states_suite(theory: GlobalTheory) -> SuiteResult:
    """Restriction, local dynamics, and the product-state criterion."""
    violations: list[str] = []
    notices: list[str] = []
    lattice = enumerate_self_bicommutant(theory)
    nodes = lattice.nodes
    divergences = 0

    for i, sub in enumerate(nodes):
        comm = commutant(theory, sub)
        centre_local = meet(theory, sub, comm)
        for point in theory.points:
            state = restrict(theory, sub, point)
            for k in comm.members:
                if restrict(theory, sub, k[point]) != state:
                    violations.append(
                        f"states: restriction to node {i} distinguishes "
                        f"states related by its commutant at point {point}"
                    )
                    break
            for h in sub.members:
                if act_local(theory, h, state) != restrict(theory, sub, h[point]):
                    violations.append(
                        f"states: local action on node {i} disagrees with "
                        f"global action at point {point}"
                    )
                    break
            for z in centre_local.members:
                if act_local(theory, z, state) != state:
                    violations.append(
                        f"states: a central transformation of node {i} moves "
                        f"the local state at point {point}"
                    )
                    break
            verdict = is_product_state(theory, sub, point)
            if verdict.pure != is_product_state(theory, comm, point).pure:
                violations.append(
                    f"states: the product-state test on node {i} is not "
                    f"symmetric in the pair at point {point}"
                )
            for k in comm.members:
                if is_product_state(theory, sub, k[point]).pure != verdict.pure:
                    violations.append(
                        f"states: purity at node {i} is not constant on the "
                        f"commutant orbit of point {point}"
                    )
                    break
            if verdict.pure != _joint_split(theory, sub, comm, point)[3]:
                divergences += 1
            if verdict.pure:
                local_stab, fixed_stab = pure_stabilizer(theory, state)
                if local_stab != fixed_stab:
                    violations.append(
                        f"states: the stabilizer of a pure state of node {i} "
                        f"differs from the pointwise stabilizer at point {point}"
                    )

    for i, small in enumerate(nodes):
        for j, big in enumerate(nodes):
            if not small.is_subset_of(big):
                continue
            for point in theory.points:
                nested = iterated_restrict(
                    theory, small, restrict(theory, big, point)
                )
                if nested != restrict(theory, small, point):
                    violations.append(
                        f"states: restricting through node {j} to node {i} "
                        f"changes the answer at point {point}"
                    )
                    break

    if divergences:
        notices.append(
            "states: the splitting of pointwise stabilizers disagrees with "
            f"the product-state test in {divergences} cases"
        )
    pure_counts = sum(len(pure_local_states(theory, sub)) for sub in nodes)
    notices.append(f"states: {pure_counts} pure local states across all nodes")
    return SuiteResult("states", tuple(violations), tuple(notices))


@dataclass(frozen=True)
class AssociativityReport:
    """Both bracketings of a triple tensor, when they exist."""

    left: System | None
    right: System | None

    @property
    def holds(self) -> bool:
        return self.left == self.right


def check_associativity_triple(
    theory: GlobalTheory, a: System, b: System, c: System
) -> AssociativityReport:
    """Compare ((a x b) x c) with (a x (b x c)), tracking definedness."""
    try:
        left = tensor_systems(theory, tensor_systems(theory, a, b), c)
    except IncompatibleSystems:
        left = None
    try:
        right = tensor_systems(theory, a, tensor_systems(theory, b, c))
    except IncompatibleSystems:
        right = None
    return AssociativityReport(left=left, right=right)


def systems_suite(theory: GlobalTheory) -> SuiteResult:
    """System composition: units, symmetry, state tensors, associativity."""
    violations: list[str] = []
    notices: list[str] = []
    systems = enumerate_systems(theory)
    unit = trivial_system(theory)
    index = {s: i for i, s in enumerate(systems)}

    for i, system in enumerate(systems):
        orbit = set(system.pure_orbit)
        for state in system.pure_orbit:
            if not is_product_state(
                theory, system.transf, state.representative
            ).pure:
                violations.append(f"systems: a listed state of system {i} is not pure")
            for h in system.transf.members:
                if act_local(theory, h, state) not in orbit:
                    violations.append(
                        f"systems: the pure states of system {i} are not "
                        "closed under its transformations"
                    )
                    break
        if tensor_systems(theory, system, unit) != system:
            violations.append(f"systems: tensoring system {i} with the unit changes it")
        if tensor_systems(theory, unit, system) != system:
            violations.append(f"systems: tensoring the unit with system {i} changes it")

    compatible_pairs = []
    for i, a in enumerate(systems):
        for j, b in enumerate(systems):
            forward = engine_are_compatible(theory, a, b)
            backward = engine_are_compatible(theory, b, a)
            if (forward is None) != (backward is None):
                violations.append(f"systems: compatibility of {i}, {j} is not symmetric")
            if forward is not None:
                compatible_pairs.append((i, j))
                if tensor_systems(theory, a, b) != tensor_systems(theory, b, a):
                    violations.append(
                        f"systems: the composite of {i}, {j} depends on the order"
                    )

    elements = raw_elements(theory)
    for i, j in compatible_pairs:
        a, b = systems[i], systems[j]
        composite = tensor_systems(theory, a, b)
        composite_orbit = set(composite.pure_orbit)
        points = product_points(elements, raw_members(a), raw_members(b))
        for rho in a.pure_orbit:
            for sigma in b.pure_orbit:
                try:
                    tau = tensor_pure_states(theory, a, b, rho, sigma)
                except IncompatibleSystems:
                    violations.append(
                        f"systems: no composite state for a state pair of {i}, {j}"
                    )
                    continue
                candidates = [p for p in points if p in rho.points and p in sigma.points]
                if not candidates:
                    violations.append(
                        f"systems: a state pair of {i}, {j} has no product point "
                        "in both states"
                    )
                elif len({restrict(theory, composite.transf, p) for p in candidates}) > 1:
                    violations.append(
                        f"systems: a state pair of {i}, {j} has more than one "
                        "composite state"
                    )
                if tau not in composite_orbit:
                    violations.append(
                        f"systems: a composite state of {i}, {j} is not pure"
                    )
                if iterated_restrict(theory, a.transf, tau) != rho:
                    violations.append(
                        f"systems: the composite state of {i}, {j} does not "
                        "restrict back to its first factor"
                    )
                if iterated_restrict(theory, b.transf, tau) != sigma:
                    violations.append(
                        f"systems: the composite state of {i}, {j} does not "
                        "restrict back to its second factor"
                    )
        for h in a.transf.members:
            for k in b.transf.members:
                rho, sigma = a.pure_orbit[0], b.pure_orbit[0]
                moved = tensor_pure_states(
                    theory,
                    a,
                    b,
                    act_local(theory, h, rho),
                    act_local(theory, k, sigma),
                )
                joint = act_local(
                    theory, h * k, tensor_pure_states(theory, a, b, rho, sigma)
                )
                if moved != joint:
                    violations.append(
                        f"systems: moving the factors of {i}, {j} disagrees "
                        "with moving the composite"
                    )
                    break

    n = len(systems)
    rng = random.Random(SAMPLE_SEED)
    triples = (
        itertools.product(range(n), repeat=3)
        if n**3 <= TRIPLE_LIMIT
        else (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(TRIPLE_SAMPLE)
        )
    )
    associativity_gaps = 0
    for i, j, k in triples:
        report = check_associativity_triple(
            theory, systems[i], systems[j], systems[k]
        )
        if (report.left is None) != (report.right is None):
            associativity_gaps += 1
        elif not report.holds:
            violations.append(
                f"systems: the two bracketings of systems {i}, {j}, {k} differ"
            )
    if associativity_gaps:
        notices.append(
            "systems: one-sided definedness of triple composites in "
            f"{associativity_gaps} cases"
        )
    notices.append(
        f"systems: {n} systems, {len(compatible_pairs)} ordered compatible pairs"
    )
    if index.get(unit) is None:
        violations.append("systems: the trivial system is missing")
    return SuiteResult("systems", tuple(violations), tuple(notices))
