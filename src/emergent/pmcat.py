"""Axiom checker for finite partially-monoidal category instances.

An instance is a plain table-driven category with a partial tensor on
objects and morphisms.  The checker reports violations of the category
axioms plus the conditions specific to a strict, symmetric, partial
tensor: fullness of the tensor on morphisms, invariance of definedness
under isomorphism, associativity including definedness, a strict unit,
and strict symmetry.

Every check but composition's associativity and the interchange law is
exhaustive: it visits every table entry, pair, triple or quadruple its
law names.  The hot loops read one row of composites per morphism, a
built category's own or built per call from a dict, and visit only the
table entries that exist.  Associativity of composition is one search
for failing triples over a set of middle morphisms: a generating set,
which by Light's test decides it exactly when every composable pair has
a composite with the right endpoints, and otherwise, or on a failure,
every morphism.  The interchange law is exact by the mirror argument:
when the swap of every morphism tensor is an entry with the same value,
as in every built category, the law at (g, f, q, p) and at its mirror
(q, p, g, f) compares the same two morphisms, so each mirrored pair of
cells is read once; otherwise every cell is read.  A
``compose``, ``tensor_mor`` or ``tensor_obj`` entry whose key or value
names no morphism or object, and a ``dom``, ``cod`` or ``identity``
value that does, is itself a violation of its table's kind; an instance
with a malformed ``dom``, ``cod`` or ``identity`` is checked for nothing
else.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import compress
from operator import itemgetter

from .lattice import enumerate_self_bicommutant
from .perms import _tuple_getter, close
from .processes import (
    DEFAULT_OBJECT_CAP,
    CompositionRows,
    _names,
    _names_pair,
    build_process_category,
)


Violation = namedtuple("Violation", "kind witness message")
Violation.__doc__ = "A single failed axiom with a witness locating it."


class CategoryTables:
    """A finite category with a partial tensor, given by explicit tables.

    ``compose`` maps (g, f) to g after f and must cover every composable
    pair; ``tensor_obj`` and ``tensor_mor`` are partial.  The checker only
    reads the tables, so tables made from a built category share that
    category's tables, and their composition is the category's read-only
    rows.  ``hom_sets``, ``by_dom`` and ``isomorphic_pairs`` are indexes
    derived from the tables on first use.

    A plain class, so that checking a category does not import
    ``dataclasses``; ``instance.FiniteCategoryInstance`` is its dataclass
    form, for callers that copy an instance with a planted table.
    """

    def __init__(
        self,
        objects: tuple[str, ...],
        morphisms: tuple[str, ...],
        dom: tuple[int, ...],
        cod: tuple[int, ...],
        identity: tuple[int, ...],
        compose: Mapping[tuple[int, int], int],
        tensor_obj: dict[tuple[int, int], int],
        tensor_mor: dict[tuple[int, int], int],
        unit: int,
    ) -> None:
        self.objects = objects
        self.morphisms = morphisms
        self.dom = dom
        self.cod = cod
        self.identity = identity
        self.compose = compose
        self.tensor_obj = tensor_obj
        self.tensor_mor = tensor_mor
        self.unit = unit

    @cached_property
    def hom_sets(self) -> dict[tuple[int, int], list[int]]:
        homs: dict[tuple[int, int], list[int]] = {}
        for m in range(len(self.morphisms)):
            homs.setdefault((self.dom[m], self.cod[m]), []).append(m)
        return homs

    @cached_property
    def by_dom(self) -> dict[int, list[int]]:
        table: dict[int, list[int]] = {}
        for m in range(len(self.morphisms)):
            table.setdefault(self.dom[m], []).append(m)
        return table

    @cached_property
    def isomorphic_pairs(self) -> frozenset[tuple[int, int]]:
        """Ordered object pairs related by a mutually inverse morphism pair."""
        pairs = set()
        n = len(self.objects)
        for a in range(n):
            for b in range(n):
                if a == b:
                    pairs.add((a, b))
                    continue
                for f in self.hom_sets.get((a, b), ()):
                    found = False
                    for g in self.hom_sets.get((b, a), ()):
                        if (
                            self.compose.get((g, f)) == self.identity[a]
                            and self.compose.get((f, g)) == self.identity[b]
                        ):
                            pairs.add((a, b))
                            found = True
                            break
                    if found:
                        break
        return frozenset(pairs)


# Row tables over one instance's composition and tensors.
#
# A built category's rows are read in place, a dict table's built for the
# call; ``lookup`` reads the table itself.  Entries whose key or value
# names no morphism or object are kept out and listed in ``bad_compose``,
# ``bad_tensor`` and ``bad_tensor_obj``; the definedness checks still see
# the keys that name a pair, the checks on values skip them.
#
#   succ[f]            the g composable after f, ascending
#   into[x]            the f arriving at object x, ascending
#   rank[g]            g's position among the morphisms leaving dom g (list or dict)
#   row[f][rank[g]]    g after f, or None
#   lookup(g, f)       g after f, or None
#   tens[f][g]         f x g, ascending g, keyed by the int g names
#   tensor_entries     (f, g, f x g) in table order
#   asymmetric         (f, g) of the entries whose swap (g, f) is an entry
#                      with another value, in table order
#   mirrored           no entry is asymmetric, every entry's swap is an
#                      entry, and every key is an exact int
#   tensor_obj         the object tensor's well-formed entries
#   obj_defined        every object-tensor entry keyed by a pair of objects
#   bad_compose, bad_tensor, bad_tensor_obj   (key, value) of malformed entries
_Rows = namedtuple(
    "_Rows",
    "succ into rank row lookup tens tensor_entries asymmetric mirrored tensor_obj obj_defined"
    " bad_compose bad_tensor bad_tensor_obj",
)


def _rows(inst: CategoryTables) -> _Rows:
    dom, cod, compose = inst.dom, inst.cod, inst.compose
    # named[x] == x exactly when x is a morphism number (see ``_names``);
    # the hot loops below test it inline.
    named = tuple(range(len(inst.morphisms)))
    bad_compose = []
    if isinstance(compose, CompositionRows) and (compose.dom, compose.cod) == (dom, cod):
        leaving, rank, row = compose.leaving, compose.rank, compose.rows
    else:
        leaving = inst.by_dom
        rank = {g: i for members in leaving.values() for i, g in enumerate(members)}
        row = [[None] * len(leaving.get(c, ())) for c in cod]
        for key, h in compose.items():
            # A key that is not a pair, or a key or value that is not a
            # morphism number, raises or fails here.
            try:
                g, f = key
                if named[g] == g and named[f] == f and named[h] == h:
                    if dom[g] == cod[f]:
                        row[f][rank[g]] = h
                    continue
            except (TypeError, ValueError, IndexError):
                pass
            bad_compose.append((key, h))
        row = list(map(tuple, row))
    succ = [leaving.get(c, ()) for c in cod]
    into: list[list[int]] = [[] for _ in inst.objects]
    for f, c in enumerate(cod):
        into[c].append(f)

    def lookup(g: int, f: int) -> int | None:
        h = compose.get((g, f))
        try:
            return h if named[h] == h else None
        except (TypeError, IndexError):  # absent, or malformed
            return None

    tensor_entries = []
    bad_tensor = []
    for key, fg in inst.tensor_mor.items():
        try:
            f, g = key
            if named[f] == f and named[g] == g and named[fg] == fg:
                tensor_entries.append((f, g, fg))
                continue
        except (TypeError, ValueError, IndexError):
            pass
        bad_tensor.append((key, fg))
    tens: list[dict[int, int]] = [{} for _ in named]
    for f, g, fg in sorted(tensor_entries):
        tens[f][named[g]] = fg
    # Each entry's swap is looked up once.  A bool key names a morphism
    # too; it is left to the full reads, so that a witness read off a
    # swapped entry is the tuple it stands for.
    asymmetric = []
    mirrored = True
    for f, g, fg in tensor_entries:
        gf = tens[g].get(f)
        if gf != fg:
            mirrored = False
            if gf is not None:
                asymmetric.append((f, g))
        elif type(f) is not int or type(g) is not int:
            mirrored = False

    objects = tuple(range(len(inst.objects)))
    tensor_obj = obj_defined = inst.tensor_obj
    bad_tensor_obj = [
        (key, ab)
        for key, ab in tensor_obj.items()
        if not (_names_pair(objects, key) and _names(objects, ab))
    ]
    if bad_tensor_obj:
        # Only a malformed table is copied.
        obj_defined = {key: ab for key, ab in tensor_obj.items() if _names_pair(objects, key)}
        tensor_obj = {key: ab for key, ab in obj_defined.items() if _names(objects, ab)}
    return _Rows(
        succ, into, rank, row, lookup, tens, tensor_entries, asymmetric, mirrored,
        tensor_obj, obj_defined, bad_compose, bad_tensor, bad_tensor_obj,
    )


def _malformed(
    kind: str, table: str, bad: list[tuple[tuple, object]], noun: str = "morphism"
) -> list[Violation]:
    return [
        Violation(kind, key, f"{table} entry {key} -> {value!r} names no {noun}")
        for key, value in bad
    ]


def _check_endpoint_tables(inst: CategoryTables) -> list[Violation]:
    """A violation for each ``dom``, ``cod`` or ``identity`` entry naming nothing.

    A table of the wrong length is one violation, at the first position
    where it and its index set part.
    """
    objects = tuple(range(len(inst.objects)))
    morphisms = tuple(range(len(inst.morphisms)))
    out = []
    for kind, name, table, index, named, noun in (
        ("category-composition", "domain", inst.dom, morphisms, objects, "object"),
        ("category-composition", "codomain", inst.cod, morphisms, objects, "object"),
        ("category-identity", "identity", inst.identity, objects, morphisms, "morphism"),
    ):
        if len(table) != len(index):
            out.append(
                Violation(
                    kind,
                    (min(len(table), len(index)),),
                    f"{name} table has {len(table)} entries, not {len(index)}",
                )
            )
        for i, x in enumerate(table):
            if not _names(named, x):
                out.append(Violation(kind, (i,), f"{name} entry {i} -> {x!r} names no {noun}"))
    return out


def _check_category(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    out = _malformed("category-composition", "composition", rows.bad_compose)
    n_mor = len(inst.morphisms)
    dom, cod = inst.dom, inst.cod
    succ, row, lookup = rows.succ, rows.row, rows.lookup
    for x, i in enumerate(inst.identity):
        if dom[i] != x or cod[i] != x:
            out.append(
                Violation(
                    "category-identity",
                    (x,),
                    f"identity of {inst.objects[x]} has wrong endpoints",
                )
            )
    for f in range(n_mor):
        for g, h in zip(succ[f], row[f]):
            if h is None:
                # A present key here named no morphism and is reported above.
                if (g, f) not in inst.compose:
                    out.append(
                        Violation(
                            "category-composition",
                            (g, f),
                            f"composite of {inst.morphisms[f]} then {inst.morphisms[g]} is missing",
                        )
                    )
                continue
            if dom[h] != dom[f] or cod[h] != cod[g]:
                out.append(
                    Violation(
                        "category-composition",
                        (g, f),
                        f"composite of {inst.morphisms[f]} then {inst.morphisms[g]} has wrong endpoints",
                    )
                )
    sound = not out
    for f in range(n_mor):
        left = lookup(inst.identity[cod[f]], f)
        right = lookup(f, inst.identity[dom[f]])
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
    # Light's test (A. H. Clifford and G. B. Preston, *The Algebraic Theory
    # of Semigroups*, vol. 1, 1961, section 1.2): if h (a f) == (h a) f and
    # h (b f) == (h b) f for every composable h and f, then
    # h ((a b) f) = h (a (b f)) = (h a) (b f) = ((h a) b) f = (h (a b)) f.
    # So when every composite is present with the right endpoints, a
    # generating set of middles decides associativity; only where that
    # finds a failure, or does not apply, is every middle searched.
    if not sound or _associativity_failures(inst, rows, _generating_set(inst, rows), True):
        out.extend(
            Violation("category-composition", t, "composition is not associative on this triple")
            for t in _associativity_failures(inst, rows, range(n_mor))
        )
    return out


def _generating_set(inst: CategoryTables, rows: _Rows) -> list[int]:
    """The morphisms, in order, that the earlier ones do not compose to.

    ``perms.close`` composes each morphism that joins the span with every
    spanned morphism on both sides, once, so the closure costs
    O(composable pairs).  Reads only present composites: it assumes that
    every composable pair has one.
    """
    dom, succ, rank, row, into = inst.dom, rows.succ, rows.rank, rows.row, rows.into
    span: set[int] = set()
    is_spanned = span.__contains__

    def products(y: int) -> list[int]:
        # s after y for each spanned s leaving cod y, then y after each
        # spanned s arriving at dom y.
        arriving = into[dom[y]]
        before = map(row.__getitem__, compress(arriving, map(is_spanned, arriving)))
        return [*compress(row[y], map(is_spanned, succ[y])), *map(itemgetter(rank[y]), before)]

    generators = []
    for m in range(len(row)):
        if m not in span:
            generators.append(m)
            span.add(m)
            close(span, products, frontier=(m,))
    return generators


def _associativity_failures(
    inst: CategoryTables, rows: _Rows, middles: Iterable[int], first: bool = False
) -> list[tuple[int, int, int]]:
    """Every triple (h, g, f) with g in ``middles`` where h (g f) != (h g) f.

    The triples are ordered by f, then g, then h; with ``first``, the
    search stops at the first pair (g, f) that has any.  row[g][i] is h g
    for the i-th h after g, so h (g f) and (h g) f agree for every h
    exactly when row[g f] equals row[g] composed after f -- provided g f
    ends where g does, so that both rows run over the same h.  When every
    h g is present and starts where g does, row[g] composed after f is
    row[f] read at the ranks of row[g]: a whole-row compare, and a row
    that differs is diffed cell by cell.  Any other row g is searched h
    by h.
    """
    dom, cod = inst.dom, inst.cod
    succ, rank, row, lookup, into = rows.succ, rows.rank, rows.row, rows.lookup, rows.into
    found: list[tuple[int, int, int]] = []
    for g in middles:
        row_g, succ_g, rank_g = row[g], succ[g], rank[g]
        if not row_g:
            continue
        pick = None
        if None not in row_g and all(dom[hg] == dom[g] for hg in row_g):
            pick = _tuple_getter([rank[hg] for hg in row_g])
        for f in into[dom[g]]:
            row_f = row[f]
            gf = row_f[rank_g]
            if gf is None:
                continue
            if pick is not None and cod[gf] == cod[g]:
                row_gf, picked = row[gf], pick(row_f)
                if row_gf == picked:
                    continue
                terms = zip(succ_g, row_gf, picked)
            else:
                pairs = ((h, hg) for h, hg in zip(succ_g, row_g) if hg is not None)
                terms = ((h, lookup(h, gf), lookup(hg, f)) for h, hg in pairs)
            bad = [h for h, lhs, rhs in terms if lhs is not None and rhs is not None and lhs != rhs]
            found += ((h, g, f) for h in bad)
            if first and bad:
                return found
    found.sort(key=itemgetter(2, 1, 0))
    return found


def _check_fullness(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    found: list[tuple[int, int, str]] = []
    dom, cod = inst.dom, inst.cod
    tensor_obj, tensor_mor = rows.obj_defined, inst.tensor_mor
    homs_from: dict[int, list[tuple[int, list[int]]]] = {}
    for (a, c), members in inst.hom_sets.items():
        homs_from.setdefault(a, []).append((c, members))
    # Every missing tensor in a pair of hom-set blocks whose endpoint
    # tensors both exist.
    for a, b in tensor_obj:
        for c, fs in homs_from.get(a, ()):
            for d, gs in homs_from.get(b, ()):
                if (c, d) not in tensor_obj:
                    continue
                for f in fs:
                    for g in gs:
                        if (f, g) not in tensor_mor:
                            found.append((f, g, "is missing although both endpoint tensors exist"))
    # Every present tensor of two morphisms with an undefined endpoint tensor,
    # by the ints its key names; a key that names no pair of morphisms is the
    # functoriality check's.  Indexing dom and cod raises on a number too
    # large or not an integer.
    for key in tensor_mor:
        try:
            f, g = key
            if f < 0 or g < 0:
                continue
            defined = (dom[f], dom[g]) in tensor_obj and (cod[f], cod[g]) in tensor_obj
        except (TypeError, ValueError, IndexError):
            continue
        if not defined:
            found.append((int(f), int(g), "is present although an endpoint tensor is undefined"))
    # Each (f, g) is found at most once, so this is the ascending scan order.
    found.sort()
    return [
        Violation(
            "fullness",
            (f, g),
            f"tensor of {inst.morphisms[f]} and {inst.morphisms[g]} {reason}",
        )
        for f, g, reason in found
    ]


def _check_functoriality(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    out = _malformed("functoriality", "morphism tensor", rows.bad_tensor)
    dom, cod = inst.dom, inst.cod
    rank, tens, tensor_obj = rows.rank, rows.tens, rows.tensor_obj
    for f, g, m in rows.tensor_entries:
        doms = tensor_obj.get((dom[f], dom[g]))
        cods = tensor_obj.get((cod[f], cod[g]))
        if doms is None or cods is None:
            continue
        if dom[m] != doms or cod[m] != cods:
            out.append(
                Violation(
                    "functoriality",
                    (f, g),
                    f"tensor of {inst.morphisms[f]} and {inst.morphisms[g]} has wrong endpoints",
                )
            )
    for (a, b), ab in tensor_obj.items():
        m = tens[inst.identity[a]].get(inst.identity[b])
        if m is not None and m != inst.identity[ab]:
            out.append(
                Violation(
                    "functoriality",
                    (a, b),
                    "tensor of identities is not the identity of the tensor",
                )
            )
    # (g f) x (q p) against (g x q)(f x p): (g, q) runs only over the
    # defined tensors g x q with dom g == cod f and dom q == cod p, ascending.
    # They are grouped once by (dom g, dom q), each with the ranks and the
    # domain that the loop reads.
    blocks: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for g, tens_g in enumerate(tens):
        for q, gq in tens_g.items():
            blocks.setdefault((dom[g], dom[q]), []).append(
                (g, q, gq, rank[g], rank[q], dom[gq], rank[gq])
            )
    entries = rows.tensor_entries
    if rows.mirrored:
        # The swap of every tensor is the same morphism, so the law at the
        # mirror (q, p, g, f) reads the same composites, g x q and f x p,
        # and compares the same two morphisms as at (g, f, q, p) (Mac Lane,
        # *Categories for the Working Mathematician*, section XI.1).  Each
        # mirrored pair of cells is read once: the entries f < p with their
        # whole block, the entries f == p with the cells g <= q.  The
        # mirrors are then added and put in the order of a full read.
        halves = {
            key: [cell for cell in block if cell[0] <= cell[1]]
            for key, block in blocks.items()
            if key[0] == key[1]
        }
        found = _interchange_failures(inst, rows, [e for e in entries if e[0] < e[1]], blocks)
        found += _interchange_failures(inst, rows, [e for e in entries if e[0] == e[1]], halves)
        if found:
            found += [(q, p, g, f) for g, f, q, p in found if (g, f) != (q, p)]
            position = {(f, p): i for i, (f, p, _) in enumerate(entries)}
            found.sort(key=lambda w: (position[w[1], w[3]], w[0], w[2]))
    else:
        found = _interchange_failures(inst, rows, entries, blocks)
    out += (
        Violation("functoriality", witness, "tensor does not commute with composition")
        for witness in found
    )
    return out


def _interchange_failures(
    inst: CategoryTables,
    rows: _Rows,
    entries: list[tuple[int, int, int]],
    blocks: dict[tuple[int, int], list[tuple[int, ...]]],
) -> list[tuple[int, int, int, int]]:
    """Every (g, f, q, p) where (g f) x (q p) != (g x q)(f x p), in read order.

    f x p runs over ``entries`` and (g, q) over the block of
    (cod f, cod p) in ``blocks``.
    """
    cod, row, lookup, tens = inst.cod, rows.row, rows.lookup, rows.tens
    found = []
    for f, p, fp in entries:
        block = blocks.get((cod[f], cod[p]))
        if block is None:
            continue
        row_f, row_p, row_fp = row[f], row[p], row[fp]
        cod_fp = cod[fp]
        for g, q, gq, rank_g, rank_q, dom_gq, rank_gq in block:
            gf = row_f[rank_g]
            if gf is None:
                continue
            qp = row_p[rank_q]
            if qp is None:
                continue
            whole = tens[gf].get(qp)
            if whole is None:
                continue
            stepwise = row_fp[rank_gq] if dom_gq == cod_fp else lookup(gq, fp)
            if stepwise is not None and stepwise != whole:
                found.append((g, f, q, p))
    return found


def _check_repleteness(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    out: list[Violation] = []
    seen: set[frozenset[int]] = set()
    iso = inst.isomorphic_pairs
    n = len(inst.objects)
    defined = rows.obj_defined
    for (a, b) in defined:
        candidates = [(a2, b) for a2 in range(n) if (a, a2) in iso]
        candidates += [(a, b2) for b2 in range(n) if (b, b2) in iso]
        for pair in candidates:
            if pair in defined:
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


def _check_associativity(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    out = _malformed("associativity-definedness", "object tensor", rows.bad_tensor_obj, "object")
    seen: set[tuple[int, int, int]] = set()
    n = len(inst.objects)

    def record(a: int, b: int, c: int, message: str) -> None:
        witness = (a, b, c)
        if witness in seen:
            return
        seen.add(witness)
        out.append(Violation("associativity-definedness", witness, message))

    # A bracketing through a tensor that is defined but names no object
    # is neither defined nor undefined, so its triple is not compared.
    t = rows.tensor_obj
    unknown = rows.obj_defined.keys() - t.keys()
    for a in range(n):
        for b in range(n):
            ab = t.get((a, b))
            for c in range(n):
                bc = t.get((b, c))
                left = t.get((ab, c)) if ab is not None else None
                right = t.get((a, bc)) if bc is not None else None
                if unknown and not unknown.isdisjoint(((a, b), (b, c), (ab, c), (a, bc))):
                    continue
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
    # (f x g) x h and f x (g x h) are both defined only for the h that
    # g and f x g both tensor with.
    tens = rows.tens
    for f, tens_f in enumerate(tens):
        for g, fg in tens_f.items():
            tens_g, tens_fg = tens[g], tens[fg]
            for h in sorted(tens_fg.keys() & tens_g.keys()):
                left = tens_fg[h]
                right = tens_f.get(tens_g[h])
                if right is not None and left != right:
                    record(
                        inst.dom[f],
                        inst.dom[g],
                        inst.dom[h],
                        "the two bracketings produce different morphisms",
                    )
    return out


def _check_unit(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    # An instance with no objects has nothing for the unit law to read.
    e = inst.unit
    if inst.objects and not _names(tuple(range(len(inst.objects))), e):
        return [Violation("unit", (e,), f"the unit {e} is not an object")]
    out: list[Violation] = []
    t, defined = rows.tensor_obj, rows.obj_defined
    for a in range(len(inst.objects)):
        for pair in ((e, a), (a, e)):
            # A defined tensor that names no object is not compared.
            if t.get(pair) != a and (pair in t or pair not in defined):
                out.append(
                    Violation(
                        "unit",
                        pair,
                        f"tensoring {inst.objects[a]} with the unit does not return it",
                    )
                )
    for f in range(len(inst.morphisms)):
        for pair in ((inst.identity[e], f), (f, inst.identity[e])):
            m = rows.tens[pair[0]].get(pair[1])
            if m is not None and m != f:
                out.append(
                    Violation(
                        "unit",
                        pair,
                        f"tensoring {inst.morphisms[f]} with the unit identity changes it",
                    )
                )
    return out


def _check_symmetry(inst: CategoryTables, rows: _Rows) -> list[Violation]:
    out: list[Violation] = []
    t, defined = rows.tensor_obj, rows.obj_defined
    for a, b in defined:
        if (b, a) not in defined:
            out.append(
                Violation(
                    "symmetry",
                    (b, a),
                    f"tensor of {inst.objects[a]} and {inst.objects[b]} is defined "
                    "but the swapped tensor is not",
                )
            )
        elif (a, b) in t and (b, a) in t and t[b, a] != t[a, b]:
            out.append(
                Violation(
                    "symmetry",
                    (a, b),
                    "the tensor is not commutative on this object pair",
                )
            )
    out += (
        Violation("symmetry", key, "the tensor is not commutative on this morphism pair")
        for key in rows.asymmetric
    )
    return out


def check_partially_monoidal(inst: CategoryTables) -> tuple[Violation, ...]:
    """Run every axiom check and return all violations found.

    Every check reads each morphism's endpoints and each object's
    identity, so where ``dom``, ``cod`` or ``identity`` is malformed only
    that is reported.
    """
    out = _check_endpoint_tables(inst)
    if out:
        return tuple(out)
    rows = _rows(inst)
    out.extend(_check_category(inst, rows))
    out.extend(_check_fullness(inst, rows))
    out.extend(_check_functoriality(inst, rows))
    out.extend(_check_repleteness(inst, rows))
    out.extend(_check_associativity(inst, rows))
    out.extend(_check_unit(inst, rows))
    out.extend(_check_symmetry(inst, rows))
    return tuple(out)


def extract_instance(theory, object_cap=DEFAULT_OBJECT_CAP):
    """Build the process category of a theory as a ``FiniteCategoryInstance``.

    The category is dropped on return, and callers plant changes in
    copies of the instance's tables, so its composition is a plain dict:
    a copy of a dict shares its key tuples, while a copy of the category's
    rows makes one per composable pair.
    """
    inst = instance_from_category(
        build_process_category(theory, object_cap=object_cap)
    )
    inst.compose = dict(inst.compose.items())
    return inst


def instance_from_category(cat):
    """A built process category as a ``FiniteCategoryInstance``."""
    from .instance import FiniteCategoryInstance

    return _from_category(cat, FiniteCategoryInstance)


def category_tables(cat) -> CategoryTables:
    """A built process category's tables, for ``check_partially_monoidal``."""
    return _from_category(cat, CategoryTables)


def _from_category(cat, kind: type[CategoryTables]) -> CategoryTables:
    lattice = enumerate_self_bicommutant(cat.theory)

    def system_label(system) -> str:
        return f"n{lattice.node_index[system.transf]}o{system.transf.order}"

    objects = tuple(
        f"({system_label(p.system)}|{system_label(p.environment)})"
        for p in cat.objects
    )
    morphisms = tuple(
        f"m{i}:{objects[c.dom]}->{objects[c.cod]}" for i, c in enumerate(cat.classes)
    )
    return kind(
        objects=objects,
        morphisms=morphisms,
        dom=tuple(c.dom for c in cat.classes),
        cod=tuple(c.cod for c in cat.classes),
        identity=cat.identity,
        compose=cat.compose,
        tensor_obj=cat.tensor_obj,
        tensor_mor=cat.tensor_mor,
        unit=cat.unit,
    )


def __getattr__(name: str):
    # The dataclass is defined apart, so that importing the checker does
    # not import ``dataclasses``.
    if name == "FiniteCategoryInstance":
        from .instance import FiniteCategoryInstance

        return FiniteCategoryInstance
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
