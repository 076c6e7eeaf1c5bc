"""The JSON theory format and its loader.

The bundled theories are the JSON files in ``fixtures/``, written by
``scripts/make_fixtures.py``; the CLI and the tests both read them through
:func:`load_theory`.  The JSON format for a theory is an object with

    degree      point count (int)
    generators  object of named permutation arrays; the "global" entry
                generates the global group (each permutation a list of
                point images)
    subgroups   optional map from names to lists of indices into the
                "global" generator array
    limits      optional object; "max_order" caps the generated order

Subgroups are closed inside the generated group and returned by name.
"""

from __future__ import annotations

import json

from .errors import DegreeMismatch, ElementNotInGroup, ParseError, ResourceLimit
from .perms import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GlobalTheory,
    Perm,
    Subgroup,
    generate_group,
    subgroup_closure,
    validate_global_theory,
)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 2:
        raise ParseError("the symmetric group needs at least two points")
    gens = [Perm.from_cycles(n, [[0, 1]])]
    if n > 2:
        gens.append(Perm.from_cycles(n, [list(range(n))]))
    return generate_group(n, gens)


def _is_int(value) -> bool:
    """Whether a parsed JSON value is an integer; JSON booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_perm_list(raw, degree: int, where: str) -> list[Perm]:
    if not isinstance(raw, list):
        raise ParseError(f"{where} must be a list of permutations")
    perms = []
    for entry in raw:
        if not isinstance(entry, list) or not all(_is_int(x) for x in entry):
            raise ParseError(f"{where} entries must be lists of integers")
        if len(entry) != degree:
            raise ParseError(
                f"{where} entry has length {len(entry)}, expected {degree}"
            )
        try:
            perms.append(Perm(entry))
        except DegreeMismatch as exc:
            raise ParseError(f"{where}: {exc}") from exc
    return perms


def theory_from_dict(
    data, max_order: int | None = None
) -> tuple[GlobalTheory, dict[str, Subgroup]]:
    """Validate a parsed theory description; ``max_order`` replaces its limit."""
    if not isinstance(data, dict):
        raise ParseError("a theory description must be a JSON object")
    if "degree" not in data or "generators" not in data:
        raise ParseError("a theory description needs 'degree' and 'generators'")
    degree = data["degree"]
    if not _is_int(degree) or degree < 1:
        raise ParseError("'degree' must be a positive integer")
    limits = data.get("limits", {})
    if not isinstance(limits, dict):
        raise ParseError("'limits' must be a JSON object")
    if max_order is None:
        max_order = limits.get("max_order", DEFAULT_MAX_ORDER)
    if not _is_int(max_order) or max_order < 1:
        raise ParseError("'max_order' must be a positive integer")
    arrays = data["generators"]
    if not isinstance(arrays, dict) or "global" not in arrays:
        raise ParseError("'generators' must be an object with a 'global' array")
    named_gens = {
        name: _parse_perm_list(raw, degree, f"generators[{name!r}]")
        for name, raw in arrays.items()
    }
    generators = named_gens["global"]
    if degree > max_order:
        raise ResourceLimit(
            f"a transitive group on {degree} points has at least {degree} "
            f"elements, above the cap of {max_order}"
        )
    group = generate_group(degree, generators, max_order=max_order)
    theory = validate_global_theory(group)
    named: dict[str, Subgroup] = {}
    subgroups = data.get("subgroups", {})
    if not isinstance(subgroups, dict):
        raise ParseError("'subgroups' must map names to generator index lists")
    for name, indices in subgroups.items():
        if not isinstance(indices, list) or not all(_is_int(i) for i in indices):
            raise ParseError(f"subgroup {name!r} must be a list of generator indices")
        bad = [i for i in indices if not 0 <= i < len(generators)]
        if bad:
            raise ParseError(
                f"subgroup {name!r} references generator {bad[0]}, "
                f"but only {len(generators)} are defined"
            )
        perms = [generators[i] for i in indices]
        try:
            named[name] = subgroup_closure(group, perms)
        except ElementNotInGroup as exc:
            raise ParseError(f"subgroup {name!r}: {exc}") from exc
    return theory, named


def load_theory(
    path, max_order: int | None = None
) -> tuple[GlobalTheory, dict[str, Subgroup]]:
    """Read and validate a theory from a UTF-8 JSON file."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ``ValueError`` covers syntax errors and over-long integers.
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return theory_from_dict(data, max_order)
