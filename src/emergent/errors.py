"""Exception types shared across the engine.

Every error names the structural precondition that failed; callers can rely
on the class alone without parsing messages.
"""


class TheoryError(Exception):
    """Base class for all engine errors."""


class DegreeMismatch(TheoryError):
    """A permutation does not act on the expected point set."""


class ResourceLimit(TheoryError):
    """An enumeration exceeded its configured cap."""


class ElementNotInGroup(TheoryError):
    """A permutation was expected to be a member of a given group."""


class InvalidTheory(TheoryError):
    """The group action fails one of the global-theory conditions."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class NotTransitive(InvalidTheory):
    """The action has more than one orbit on the point set."""


class NotCentreless(InvalidTheory):
    """The global group has a non-trivial centre."""


class PointOutOfRange(TheoryError):
    """A point index lies outside 0..degree-1."""


class SubgroupNotInTheory(TheoryError):
    """A subgroup belongs to a different parent group."""


class NotSelfBicommutant(TheoryError):
    """A lattice operation was applied to a subgroup with H != H''."""


class NotNested(TheoryError):
    """An operation required one subgroup to contain the other."""


class NotOrthogonal(TheoryError):
    """An operation required two elementwise-commuting subgroups."""


class ElementNotInOwner(TheoryError):
    """A group element was applied to a local state it does not own."""


class NotPure(TheoryError):
    """A local state was expected to be a product (pure) state."""


class NotProductState(TheoryError):
    """A global state was expected to split over a subgroup and its commutant."""


class IncompatibleSystems(TheoryError):
    """Two systems do not admit a joint tensor product."""


class StateNotInSystem(TheoryError):
    """A local state does not belong to the system's pure orbit."""


class StateNotInPair(TheoryError):
    """A state does not belong to the given system-environment pair."""


class TypeMismatch(TheoryError):
    """Process composition or construction with mismatched types."""


class ParseError(TheoryError):
    """Malformed textual or JSON input."""


class ZeroDimension(TheoryError):
    """A sector with a zero dimension appeared in a decomposition."""


class GeneralCaseUnsupported(TheoryError):
    """A claim check is only defined for special decomposition shapes."""
