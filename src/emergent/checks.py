"""Verification suites: guarantee checks with violations and notices.

Violations are failures of properties the engine guarantees; a valid
theory should never produce one.  Notices report structural facts that
are allowed to vary between theories (orthomodularity, distributivity,
criterion divergences) and are informational only.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import islice

from .errors import IncompatibleSystems, ResourceLimit, TheoryError
from .lattice import (
    commutant,
    enumerate_self_bicommutant,
    intersection,
    is_orthogonal,
    is_self_bicommutant,
    join,
    meet,
    product_set,
)
from .perms import GlobalTheory, GroupIndex, Perm, reduce_generators
from .processes import (
    Process,
    ProcessCategory,
    _output_route,
    build_process_category,
    compose_process,
    pair_composite,
    pair_states,
    process_typing,
    require_in_total,
    tensor_processes,
    verify_generation,
)
from .states import (
    LocalState,
    _orbits,
    _splits_row,
    act_local,
    iterated_restrict,
    local_row,
    pure_local_states,
    pure_stabilizer,
    purity_row,
    require_in_owner,
    require_nested,
    state_key,
)
from .systems import (
    System,
    _product_points,
    compatibility_rows,
    enumerate_systems,
    tensor_pure_states,
    tensor_systems,
    trivial_system,
)

SAMPLE_SEED = 20240801
COMPOSE_SAMPLE = 2_000


class SuiteResult(namedtuple("SuiteResult", "name violations notices")):
    """Outcome of one verification suite: its name, and tuples of strings."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "violations": list(self.violations),
            "notices": list(self.notices),
        }


def lattice_suite(theory: GlobalTheory) -> SuiteResult:
    """Lattice structure: closure, duality, bounds, and product subgroups.

    One ``meet`` and one ``join`` per unordered node pair fill the meet and
    join tables, and each node's commutant is looked up once.  Node indices
    are equal exactly when the nodes are, so every law is then read from
    these tables and the inclusion bitsets ``SbcLattice.above``.  A node
    that is not its own double commutant, or a meet, join or commutant that
    is not a node, leaves the tables unable to settle the laws: the suite
    reports it and skips them.
    """
    violations: list[str] = []
    notices: list[str] = []
    lattice = enumerate_self_bicommutant(theory)
    nodes = lattice.nodes
    node_index = lattice.node_index
    above = lattice.above
    # Bit j of at_or_above[i] is set when node i is inside node j.
    at_or_above = [up | 1 << i for i, up in enumerate(above)]
    n = len(nodes)
    size = f"lattice: {n} nodes"

    if not lattice.bottom.is_trivial:
        violations.append("lattice: the least node is not the trivial subgroup")
    if lattice.top.member_set != theory.group.element_set:
        violations.append("lattice: the greatest node is not the full group")

    nodes_ok = True
    comm: list[int | None] = []
    for i, a in enumerate(nodes):
        if not is_self_bicommutant(theory, a):
            nodes_ok = False
            violations.append(f"lattice: node {i} is not its own double commutant")
        comm.append(node_index.get(commutant(theory, a)))
        if comm[i] is None:
            violations.append(f"lattice: commutant of node {i} is not a node")
    if not nodes_ok:
        return SuiteResult("lattice", tuple(violations), (size,))

    meets = [[0] * n for _ in range(n)]
    joins = [[0] * n for _ in range(n)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes[i:], start=i):
            meets[i][j] = meets[j][i] = node_index.get(meet(theory, a, b))
            joins[i][j] = joins[j][i] = node_index.get(join(theory, a, b))
            if meets[i][j] is None:
                violations.append(f"lattice: meet of nodes {i}, {j} is not a node")
            if joins[i][j] is None:
                violations.append(f"lattice: join of nodes {i}, {j} is not a node")
    if None in comm or any(None in row for row in meets + joins):
        return SuiteResult("lattice", tuple(violations), (size,))

    centre = [nodes[meets[i][c]] for i, c in enumerate(comm)]
    orthocomplemented = [z.is_trivial for z in centre]
    for i, c in enumerate(comm):
        if orthocomplemented[i] and joins[i][c] != n - 1:
            violations.append(
                f"lattice: node {i} and its commutant do not join to the top"
            )

    for i, ci in enumerate(comm):
        for j in range(i, n):
            cj, m, jn = comm[j], meets[i][j], joins[i][j]
            if meets[i][jn] != i or meets[j][jn] != j:
                violations.append(
                    f"lattice: meet does not absorb the join on nodes {i}, {j}"
                )
            if joins[i][m] != i or joins[j][m] != j:
                violations.append(
                    f"lattice: join does not absorb the meet on nodes {i}, {j}"
                )
            if at_or_above[i] >> j & 1 and not at_or_above[cj] >> ci & 1:
                violations.append(
                    f"lattice: taking commutants does not reverse the "
                    f"inclusion of nodes {i}, {j}"
                )
            if at_or_above[j] >> i & 1 and not at_or_above[ci] >> cj & 1:
                violations.append(
                    f"lattice: taking commutants does not reverse the "
                    f"inclusion of nodes {j}, {i}"
                )
            if comm[jn] != meets[ci][cj]:
                violations.append(
                    f"lattice: commutant of join breaks duality on nodes {i}, {j}"
                )
            if comm[m] != joins[ci][cj]:
                violations.append(
                    f"lattice: commutant of meet breaks duality on nodes {i}, {j}"
                )

    # Every h in A commutes with every k in B exactly when their generators
    # do, and (h1 k1)(h2 k2) = (h1 h2)(k1 k2) reduces to k1 h2 = h2 k1 by
    # cancelling h1 and k2: one exact test settles both properties.
    gens = [reduce_generators(a.members, theory.degree) for a in nodes]
    centre_meet_gaps = 0
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes[i:], start=i):
            if not is_orthogonal(theory, a, b):
                continue
            product = product_set(theory, a, b)
            if product not in node_index:
                notices.append(
                    f"lattice: product of commuting nodes {i}, {j} is not a node"
                )
            centre_product = intersection(theory, product, commutant(theory, product))
            if centre_product != product_set(theory, centre[i], centre[j]):
                violations.append(
                    f"lattice: the centre of the product of nodes {i}, {j} "
                    "is not the product of their centres"
                )
            if centre_product != nodes[meets[i][j]]:
                centre_meet_gaps += 1
            if (
                orthocomplemented[i] or orthocomplemented[j]
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

    # The orthomodular identity a v (a' ^ b) == b, for nested a < b.
    failures = sum(
        joins[i][meets[comm[i]][j]] != j
        for i, up in enumerate(above)
        for j in GroupIndex.indices(up)
    )
    if failures:
        notices.append(f"lattice: orthomodular identity fails for {failures} nested pairs")

    distributive_failures = 0
    for meet_i in meets:
        rhs = {m: list(map(joins[m].__getitem__, meet_i)) for m in set(meet_i)}
        for joins_j, m in zip(joins, meet_i):
            lhs = map(meet_i.__getitem__, joins_j)
            distributive_failures += sum(map(operator.ne, lhs, rhs[m]))
    if distributive_failures:
        notices.append(
            f"lattice: distributivity fails for {distributive_failures} node triples"
        )
    notices.append(size)
    return SuiteResult("lattice", tuple(violations), tuple(notices))


def states_suite(theory: GlobalTheory) -> SuiteResult:
    """Restriction, local dynamics, and the product-state criterion.

    Exact on orbits and generators: a commutant member k enters a test only
    through the point k[p], so the distinct points of the commutant orbit
    stand for all of its members.  ``act_local`` is a set image, so it
    agrees with the global action everywhere once it does so for the node's
    generators at every point, and a state's stabilizer is a subgroup, so
    the local centre fixes a state once its generators do.  Each generator
    acts once on each distinct state of the node, and every point showing
    that state reads the result.  Only a node
    whose generators fail is tested member by member, which gives the same
    violations as testing every member of every node.  Each node's rows
    are read once: its ``local_row`` and ``purity_row``, its commutant's
    ``purity_row`` and ``_orbits``, and the pair's ``_splits_row``.
    """
    violations: list[str] = []
    notices: list[str] = []
    lattice = enumerate_self_bicommutant(theory)
    nodes = lattice.nodes
    divergences = 0
    # local[i][p] is the state node i sees at point p.
    local = [local_row(theory, sub) for sub in nodes]

    for i, sub in enumerate(nodes):
        comm = commutant(theory, sub)
        centre_gens = reduce_generators(
            meet(theory, sub, comm).members, theory.degree
        )
        gens = reduce_generators(sub.members, theory.degree)
        row = local[i]
        # pure[p] says whether point p is a product state over node i.
        pure = purity_row(theory, sub)
        pure_comm = purity_row(theory, comm)
        comm_orbits = _orbits(theory, comm)
        splits = _splits_row(theory, sub, comm)
        distinct = dict.fromkeys(row)
        local_matches_global = True
        for h in gens:
            moved = {state: act_local(theory, h, state) for state in distinct}
            if any(moved[row[p]] != row[h[p]] for p in theory.points):
                local_matches_global = False
                break
        central_moves = {
            state: any(act_local(theory, z, state) != state for z in centre_gens)
            for state in distinct
        }
        for point in theory.points:
            state = row[point]
            comm_orbit = comm_orbits[point]
            for q in comm_orbit:
                if row[q] != state:
                    violations.append(
                        f"states: restriction to node {i} distinguishes "
                        f"states related by its commutant at point {point}"
                    )
                    break
            if not local_matches_global:
                for h in sub.members:
                    if act_local(theory, h, state) != row[h[point]]:
                        violations.append(
                            f"states: local action on node {i} disagrees with "
                            f"global action at point {point}"
                        )
                        break
            if central_moves[state]:
                violations.append(
                    f"states: a central transformation of node {i} moves "
                    f"the local state at point {point}"
                )
            if pure[point] != pure_comm[point]:
                violations.append(
                    f"states: the product-state test on node {i} is not "
                    f"symmetric in the pair at point {point}"
                )
            for q in comm_orbit:
                if pure[q] != pure[point]:
                    violations.append(
                        f"states: purity at node {i} is not constant on the "
                        f"commutant orbit of point {point}"
                    )
                    break
            if pure[point] != splits[point]:
                divergences += 1
            if pure[point]:
                local_stab, fixed_stab = pure_stabilizer(theory, state)
                if local_stab != fixed_stab:
                    violations.append(
                        f"states: the stabilizer of a pure state of node {i} "
                        f"differs from the pointwise stabilizer at point {point}"
                    )

    # Restricting a state of a larger node restricts its representative.
    reps = [tuple(state.representative for state in row) for row in local]
    for i, row in enumerate(local):
        for j in GroupIndex.indices(lattice.above[i] | 1 << i):
            # Tuple equality tries identity first, and each row shares one
            # object per state, so the whole row is compared at once.
            if tuple(map(row.__getitem__, reps[j])) == row:
                continue
            for point, rep in enumerate(reps[j]):
                if row[rep] != row[point]:
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


def systems_suite(theory: GlobalTheory) -> SuiteResult:
    """System composition: units, symmetry, state tensors, associativity.

    Moving the factors of a compatible pair's first state pair (rho, sigma)
    by every (h, k) must agree with moving their composite tau by h k.
    ``_moves_agree`` decides that with one comparison per moved pair
    (h0 rho, k0 sigma), h0 and k0 the first members that reach it, once it
    has seen that the stabilizer of sigma fixes tau (C1) and the stabilizer
    of rho fixes each k0 tau (C2).  When C1, C2 or a comparison fails, the
    loop over every (h, k) runs and reports as it always has.  Purity is
    read from each system's ``purity_row``.  A state pair's composites are
    the pair's product points (one ``_product_points`` row per pair) that
    lie in both states, restricted through the composite's ``local_row``.
    """
    violations: list[str] = []
    notices: list[str] = []
    systems = enumerate_systems(theory)
    unit = trivial_system(theory)
    index = {s: i for i, s in enumerate(systems)}

    for i, system in enumerate(systems):
        orbit = system.pure_set
        # A set of states is closed under a group exactly when it is closed
        # under the group's generators; only a system whose generators leave
        # it is tested member by member, for the same violations.
        closed = all(
            act_local(theory, g, state) in orbit
            for g in reduce_generators(system.transf.members, theory.degree)
            for state in system.pure_orbit
        )
        pure = purity_row(theory, system.transf)
        for state in system.pure_orbit:
            if not pure[state.representative]:
                violations.append(f"systems: a listed state of system {i} is not pure")
            if closed:
                continue
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
    # tensor[i][j] indexes the composite of systems i and j, in ascending j.
    tensor: list[dict[int, int]] = [{} for _ in systems]
    # Each side of the symmetry test is found from its own first factor's
    # commutant.
    rows = compatibility_rows(theory, systems)
    for i, a in enumerate(systems):
        for j, b in enumerate(systems):
            forward = rows[i].get(j)
            backward = rows[j].get(i)
            if (forward is None) != (backward is None):
                violations.append(f"systems: compatibility of {i}, {j} is not symmetric")
            if forward is not None:
                compatible_pairs.append((i, j))
                composite = tensor_systems(theory, a, b)
                if composite != tensor_systems(theory, b, a):
                    violations.append(
                        f"systems: the composite of {i}, {j} depends on the order"
                    )
                if composite not in index:
                    violations.append(f"systems: the composite of {i}, {j} is not listed")
                    continue
                tensor[i][j] = index[composite]

    # movers[i] is _first_movers of system i's first pure state, found on
    # first use.
    movers: list[tuple[dict[LocalState, Perm], list[Perm]] | None] = [None] * len(systems)
    for i, j in compatible_pairs:
        a, b = systems[i], systems[j]
        composite = tensor_systems(theory, a, b)
        composite_orbit = composite.pure_set
        composite_row = local_row(theory, composite.transf)
        product_points = _product_points(theory, a, b)
        for rho in a.pure_orbit:
            for sigma in b.pure_orbit:
                try:
                    tau = tensor_pure_states(theory, a, b, rho, sigma)
                except IncompatibleSystems:
                    violations.append(
                        f"systems: no composite state for a state pair of {i}, {j}"
                    )
                    continue
                composites = {
                    composite_row[p]
                    for p in product_points
                    if p in rho.points and p in sigma.points
                }
                if len(composites) != 1:
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
        # The identity leads every subgroup, so (rho, sigma) is also the
        # first pair the loop tensors: computing tau first raises no earlier.
        rho, sigma = a.pure_orbit[0], b.pure_orbit[0]
        tau = tensor_pure_states(theory, a, b, rho, sigma)
        try:
            for s in (i, j):
                if movers[s] is None:
                    movers[s] = _first_movers(
                        theory, systems[s].transf.members, systems[s].pure_orbit[0]
                    )
            agree = _moves_agree(theory, a, b, tau, movers[i], movers[j])
        except TheoryError:
            # The member loop then reports, or raises, in its own order.
            agree = False
        if agree:
            continue
        moved_sigmas = [act_local(theory, k, sigma) for k in b.transf.members]
        for h in a.transf.members:
            moved_rho = act_local(theory, h, rho)
            for k, moved_sigma in zip(b.transf.members, moved_sigmas):
                moved = tensor_pure_states(theory, a, b, moved_rho, moved_sigma)
                if moved != act_local(theory, h * k, tau):
                    violations.append(
                        f"systems: moving the factors of {i}, {j} disagrees "
                        "with moving the composite"
                    )
                    break

    # (i j) k is defined when j is in tensor[i] and k in tensor[tensor[i][j]],
    # i (j k) when k is in tensor[j] and tensor[j][k] in tensor[i]: walk the
    # left ones in ascending (i, j, k), then the right ones for right-only.
    n = len(systems)
    associativity_gaps = 0
    for i, row in enumerate(tensor):
        for j, ij in row.items():
            for k, left in tensor[ij].items():
                jk = tensor[j].get(k)
                if jk not in row:
                    associativity_gaps += 1
                elif row[jk] != left:
                    violations.append(
                        f"systems: the two bracketings of systems {i}, {j}, {k} differ"
                    )
    for j, row in enumerate(tensor):
        for k, jk in row.items():
            for outer in tensor:
                if jk in outer and (j not in outer or k not in tensor[outer[j]]):
                    associativity_gaps += 1
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


def _moves_agree(
    theory: GlobalTheory,
    a: System,
    b: System,
    tau: LocalState,
    a_movers: tuple[dict[LocalState, Perm], list[Perm]],
    b_movers: tuple[dict[LocalState, Perm], list[Perm]],
) -> bool:
    """Whether tensoring (h rho, k sigma) gives (h k) tau for all h in A, k in B.

    ``rho`` and ``sigma`` are the first pure states of ``a`` and ``b``, and
    ``a_movers`` and ``b_movers`` their ``_first_movers``.

    ``act_local`` is a group action, so each h with h rho = h0 rho is h0 s
    for an s fixing rho, and each k with k sigma = k0 sigma is k0 t for a t
    fixing sigma.  If every such t fixes tau (C1) and every such s fixes
    each k0 tau (C2), then (h k) tau = h0 (s (k0 (t tau))) = (h0 k0) tau,
    while the tensor of the moved factors is that of (h0 rho, k0 sigma).
    So one comparison per moved pair decides, with h0 and k0 the first
    members, in member order, that reach it.  False when C1, C2 or a
    comparison fails; what the engine raises propagates.
    """
    h_first, rho_fixers = a_movers
    k_first, sigma_fixers = b_movers
    if any(act_local(theory, t, tau) != tau for t in sigma_fixers):
        return False
    for k in k_first.values():
        k_tau = act_local(theory, k, tau)
        if any(act_local(theory, s, k_tau) != k_tau for s in rho_fixers):
            return False
    return all(
        tensor_pure_states(theory, a, b, h_rho, k_sigma)
        == act_local(theory, h * k, tau)
        for h_rho, h in h_first.items()
        for k_sigma, k in k_first.items()
    )


def _first_movers(
    theory: GlobalTheory, members: Iterable[Perm], state: LocalState
) -> tuple[dict[LocalState, Perm], list[Perm]]:
    """The first member reaching each image of ``state``, and the members fixing it."""
    first: dict[LocalState, Perm] = {}
    fixers = []
    for g in members:
        moved = act_local(theory, g, state)
        first.setdefault(moved, g)
        if moved == state:
            fixers.append(g)
    return first, fixers


def processes_suite(cat: ProcessCategory) -> SuiteResult:
    """Process category: composition semantics, generation, unique effect.

    The identity laws are the pmcat suite's: ``pmcat_suite`` reports an
    identity that changes a class, has the wrong endpoints or has a missing
    composite.  In a built category they hold by construction, since an
    identity's output positions are ``range(n)``.

    Each sampled pair's composite or tensor is typed once per typing pair
    (see ``_per_pair_tables``): ``compose_process`` and ``tensor_processes``
    run, with every check ``make_process`` makes, for the first pair of
    each typing pair only.  Every pair still multiplies its two
    transformations, checks the product against the total and reads its
    own outputs.  The compose check reads them through the build's output
    route; the tensor check applies the product to each input state's
    purification, a route the build, which registered tensors through the
    output route, does not share.
    """
    theory = cat.theory
    violations: list[str] = []
    notices: list[str] = []

    # ``random.sample`` draws from the population's length alone, so the
    # positions it draws from ``range`` are those of the pairs it would draw
    # from the key list; they are resolved in one pass over the keys, in
    # their order (ascending ``fi``, then ``gi``), without building the list.
    rng = random.Random(SAMPLE_SEED)
    composable = cat.compose
    if len(composable) > COMPOSE_SAMPLE:
        drawn = rng.sample(range(len(composable)), COMPOSE_SAMPLE)
        keys, at, last = iter(composable), {}, -1
        for position in sorted(drawn):
            at[position] = next(islice(keys, position - last - 1, None))
            last = position
        composable = map(at.__getitem__, drawn)
    # Both tables number the classes' typings in one list.
    typing_ids: dict[tuple, int] = {}
    typing_of = [
        typing_ids.setdefault(process_typing(c.representative), len(typing_ids))
        for c in cat.classes
    ]
    composite_table = _per_pair_tables(cat, typing_of, compose_process, _restricted_outputs)
    for gi, fi in composable:
        table = composite_table(gi, fi)
        if table != cat.classes[cat.compose[(gi, fi)]].table:
            violations.append(
                f"processes: composing representatives of {fi}, {gi} "
                "disagrees with the composite class"
            )

    tensorable = list(cat.tensor_mor.items())
    if len(tensorable) > COMPOSE_SAMPLE:
        tensorable = rng.sample(tensorable, COMPOSE_SAMPLE)
    product_table = _per_pair_tables(cat, typing_of, tensor_processes, _purified_outputs)
    for (ci, cj), out in tensorable:
        c, d = cat.classes[ci], cat.classes[cj]
        h, k = c.representative.transform, d.representative.transform
        if h * k != k * h:
            violations.append(
                f"processes: the transformations of representatives of {ci}, {cj} "
                "do not commute"
            )
        if cat.classes[out].table != product_table(ci, cj):
            violations.append(
                f"processes: tensoring representatives of {ci}, {cj} "
                "disagrees with the registered class"
            )

    report = verify_generation(theory, cat)
    if not report.pure_ok:
        violations.append(
            "processes: reversible dynamics and preparations generate only "
            f"{report.pure_generated} of {report.pure_total} pure classes"
        )
    if not report.full_ok:
        violations.append(
            "processes: adding discards generates only "
            f"{report.full_generated} of {report.full_total} classes"
        )

    violations.extend(_effect_violations(cat))

    notices.append(
        f"processes: {len(cat.objects)} objects, {len(cat.classes)} morphism classes"
    )
    notices.append(
        f"processes: generators {report.transformation_generators} reversible, "
        f"{report.preparation_generators} preparations, "
        f"{report.discard_generators} discards"
    )
    return SuiteResult("processes", tuple(violations), tuple(notices))


def _per_pair_tables(
    cat: ProcessCategory,
    typing_of: list[int],
    combine: Callable[[GlobalTheory, Process, Process], Process],
    outputs_of: Callable[[GlobalTheory, Process], Callable[[Perm], Iterable]],
) -> Callable[[int, int], tuple]:
    """``table(i, j)``: the state table of ``combine`` of classes i and j.

    Bar its transformation, the product of the two representatives'
    transformations, that process depends on the representatives' typings
    alone (``process_typing``), so ``combine`` runs once per typing pair
    and ``outputs_of`` gives that typing's map from a transformation to
    the outputs, in input order.  ``typing_of[i]`` numbers class i's
    typing: classes with one number have one typing.  Each call multiplies the two
    transformations, checks the product against the total with
    ``make_process``'s error, and reads its own outputs.
    """
    theory = cat.theory
    reps = [c.representative for c in cat.classes]
    typed: dict[tuple[int, int], tuple] = {}

    def table(i: int, j: int) -> tuple:
        a, b = reps[i], reps[j]
        typing = (typing_of[i], typing_of[j])
        if typing not in typed:
            proc = combine(theory, a, b)
            keys = tuple(state_key(s.value) for s in pair_states(theory, proc.domain))
            total = tensor_systems(theory, proc.domain.system, proc.ancilla)
            typed[typing] = (keys, total, outputs_of(theory, proc))
        keys, total, outputs = typed[typing]
        u = a.transform * b.transform
        require_in_total(total, u)
        return tuple(zip(keys, outputs(u)))

    return table


def _restricted_outputs(theory: GlobalTheory, proc: Process) -> Callable[[Perm], Iterable]:
    """Outputs by the build's route: the restriction at each acted joint point."""
    restricted, acted = _output_route(
        theory, proc.domain, proc.ancilla, proc.prep, proc.codomain_system
    )
    return lambda u: map(restricted.__getitem__, acted(u))


def _purified_outputs(theory: GlobalTheory, proc: Process) -> Callable[[Perm], Iterable]:
    """Outputs through purifications, read at the least image of each joint.

    Each input state's purification is joined with the preparation once.
    The joint states share one owner, the composite of the domain's pair
    and the ancilla; ``act_local`` would map one by ``u`` to the image of
    its points, and ``iterated_restrict`` restrict that at its least point.
    So each output is the local state the output system sees at the least
    image of the joint's points, with the owner test on every call and
    the nesting test on the first, raising as those two functions raise.
    The build reads ``u`` at one stored point of each joint state; this
    route takes the images of all of them.
    """
    composite = pair_composite(theory, proc.domain)
    ancilla, prep = proc.ancilla, proc.prep
    joints = [
        tuple(tensor_pure_states(theory, composite, ancilla, s.purification, prep).points)
        for s in pair_states(theory, proc.domain)
    ]
    owner = tensor_systems(theory, composite, ancilla).transf
    out = proc.codomain_system.transf
    row: tuple[LocalState, ...] = ()

    def outputs(u: Perm) -> list[tuple[int, ...]]:
        nonlocal row
        require_in_owner(owner, u)
        if not row:
            require_nested(theory, out, owner)
            row = local_row(theory, out)
        return [state_key(row[min(map(u.__getitem__, points))]) for points in joints]

    return outputs


def _effect_violations(cat: ProcessCategory) -> list[str]:
    """A violation for each object that has not exactly one effect.

    For every admissible ancilla, preparation and dynamic, the only
    trivial-output decomposition the build has is ``unit x total``, and it
    records one class per distinct (codomain, outputs).  So an object's
    classes into pairs with a trivial system hold every effect's state map
    over ``cat.universe``: the distinct tables are its distinct effects.
    """
    effects: list[set[tuple]] = [set() for _ in cat.objects]
    for c in cat.classes:
        if cat.objects[c.cod].system.is_trivial:
            effects[c.dom].add(c.table)
    return [
        f"processes: object {oi} has {len(tables)} distinct effects "
        "instead of exactly one"
        for oi, tables in enumerate(effects)
        if len(tables) != 1
    ]


def pmcat_suite(cat: ProcessCategory) -> SuiteResult:
    """Partially-monoidal category axioms on the process category."""
    from .pmcat import category_tables, check_partially_monoidal

    inst = category_tables(cat)
    found = check_partially_monoidal(inst)
    violations = tuple(
        f"{v.kind}: {v.message} (witness {v.witness})" for v in found
    )
    notices = (
        f"pmcat: {len(inst.objects)} objects, {len(inst.morphisms)} morphisms",
    )
    return SuiteResult("pmcat", violations, notices)


SUITES = {
    "lattice": lattice_suite,
    "states": states_suite,
    "systems": systems_suite,
    "processes": processes_suite,
    "pmcat": pmcat_suite,
}


def run_suites(theory: GlobalTheory, names: tuple[str, ...]) -> tuple[SuiteResult, ...]:
    """Run the named suites in order.

    The ``processes`` and ``pmcat`` suites check the process category, which
    is built once for both.  A valid theory should make the engine raise
    nothing but ``ResourceLimit``, so any other engine error a suite raises,
    a failed category build included, is reported as that suite's
    violation, not as bad input.  A failed build is not tried again: its
    error is each of the two suites' violation.
    """
    results = []
    cat: ProcessCategory | TheoryError | None = None
    for name in names:
        try:
            if name in ("processes", "pmcat"):
                if cat is None:
                    try:
                        cat = build_process_category(theory)
                    except TheoryError as exc:
                        cat = exc
                if isinstance(cat, TheoryError):
                    raise cat
                results.append(SUITES[name](cat))
            else:
                results.append(SUITES[name](theory))
        except ResourceLimit:
            raise
        except TheoryError as exc:
            results.append(SuiteResult(name, (f"{name}: engine error: {exc}",), ()))
    return tuple(results)
