"""``FiniteCategoryInstance``, the engine's one dataclass.

It is ``pmcat.CategoryTables`` as a dataclass, so that
``dataclasses.replace`` copies an instance with a planted table, as the
tests and the benchmark do.  Only ``pmcat.extract_instance``,
``pmcat.instance_from_category`` and the name itself load this module, and
with it ``dataclasses``; the axiom check reads ``CategoryTables``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .pmcat import CategoryTables


@dataclass
class FiniteCategoryInstance(CategoryTables):
    """A finite category with a partial tensor, given by explicit tables.

    An instance made from a built category shares that category's tables,
    and its composition is the category's read-only rows: ``dict(...)`` a
    table before planting a change in it.  ``extract_instance`` holds its
    composition as a dict instead.  The derived indexes are
    ``CategoryTables``' cached properties, so a copy rebuilds them.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    identity: tuple[int, ...]
    compose: Mapping[tuple[int, int], int]
    tensor_obj: dict[tuple[int, int], int]
    tensor_mor: dict[tuple[int, int], int]
    unit: int
