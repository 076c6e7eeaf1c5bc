"""Sector calculus for subsystems of finite-dimensional quantum theory.

A subalgebra of a matrix algebra splits the space into sectors; the
decomposition ``a1 x b1 + a2 x b2 + ...`` records the dimensions seen by
the subsystem (left factors) and by its commutant (right factors).  For
the purely multiplicative and purely additive shapes the composability
questions have closed-form answers, which this module states and checks.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import GeneralCaseUnsupported, ParseError, ZeroDimension

MULTIPLICATIVE = "purely_multiplicative"
ADDITIVE = "purely_additive"
GENERAL = "general"

_SECTOR = re.compile(r"^\s*(\d+)\s*x\s*(\d+)\s*$")


class SectorDecomposition(NamedTuple):
    """Sector dimension pairs, sorted for a canonical form."""

    sectors: tuple[tuple[int, int], ...]

    @property
    def total_dimension(self) -> int:
        return sum(a * b for a, b in self.sectors)

    @property
    def sector_count(self) -> int:
        return len(self.sectors)

    def __str__(self) -> str:
        return " + ".join(f"{a}x{b}" for a, b in self.sectors)


def make_decomposition(pairs) -> SectorDecomposition:
    sectors = []
    for pair in pairs:
        a, b = pair
        if a == 0 or b == 0:
            raise ZeroDimension(f"sector {a}x{b} has a zero dimension")
        if a < 0 or b < 0:
            raise ParseError(f"sector {a}x{b} has a negative dimension")
        sectors.append((int(a), int(b)))
    if not sectors:
        raise ParseError("a decomposition needs at least one sector")
    decomp = SectorDecomposition(tuple(sorted(sectors, reverse=True)))
    if decomp.total_dimension < 2:
        raise ParseError("the global space must have dimension at least 2")
    return decomp


def parse_decomposition(text: str) -> SectorDecomposition:
    """Parse ``"a x b + a x b + ..."`` with optional whitespace."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty decomposition")
    pairs = []
    for chunk in text.split("+"):
        m = _SECTOR.match(chunk)
        if m is None:
            raise ParseError(f"cannot parse sector {chunk.strip()!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return make_decomposition(pairs)


def commutant_decomp(decomp: SectorDecomposition) -> SectorDecomposition:
    """The commutant sees the same sectors with the factors swapped."""
    return make_decomposition((b, a) for a, b in decomp.sectors)


def centre_rank(decomp: SectorDecomposition) -> int:
    """Independent central directions beyond the identity: one per extra sector."""
    return decomp.sector_count - 1


def system_count(decomp: SectorDecomposition) -> int:
    """Number of distinct subsystems the decomposition supports: one per sector."""
    return decomp.sector_count


def group_dimension(decomp: SectorDecomposition) -> int:
    """Real dimension of the subsystem's transformation group, modulo one phase."""
    return sum(a * a for a, _ in decomp.sectors) - 1


def _additive_shape(decomp: SectorDecomposition) -> tuple[int, int] | None:
    """Dimensions (a, b) when the sectors are exactly {(a, 1), (1, b)}."""
    if decomp.sector_count != 2:
        return None
    for s, t in (decomp.sectors, decomp.sectors[::-1]):
        if s[1] == 1 and t[0] == 1:
            return s[0], t[1]
    return None


def classify(decomp: SectorDecomposition) -> str:
    if decomp.sector_count == 1:
        return MULTIPLICATIVE
    if _additive_shape(decomp) is not None:
        return ADDITIVE
    return GENERAL


class SpecialPairReport(NamedTuple):
    """Closed-form composability facts for a special decomposition."""

    decomposition: SectorDecomposition
    commutant: SectorDecomposition
    kind: str
    orthogonal: bool
    orthocomplementary: bool
    centre_rank: int
    join: SectorDecomposition
    join_full: bool


def check_special_pair_claims(decomp: SectorDecomposition) -> SpecialPairReport:
    """Evaluate the subsystem-commutant pair for the two special shapes.

    Multiplicative decompositions give complementary factors whose join
    is everything; additive ones share a central direction, so the pair
    is not complementary and the join is the block-diagonal algebra, a
    proper part of the whole.
    """
    kind = classify(decomp)
    n = decomp.total_dimension
    if kind == MULTIPLICATIVE:
        return SpecialPairReport(
            decomposition=decomp,
            commutant=commutant_decomp(decomp),
            kind=kind,
            orthogonal=True,
            orthocomplementary=True,
            centre_rank=centre_rank(decomp),
            join=make_decomposition([(n, 1)]),
            join_full=True,
        )
    if kind == ADDITIVE:
        a, b = _additive_shape(decomp)
        return SpecialPairReport(
            decomposition=decomp,
            commutant=commutant_decomp(decomp),
            kind=kind,
            orthogonal=True,
            orthocomplementary=False,
            centre_rank=centre_rank(decomp),
            join=make_decomposition([(a, 1), (b, 1)]),
            join_full=False,
        )
    raise GeneralCaseUnsupported(
        "closed-form claims cover only the purely multiplicative and purely additive shapes"
    )
