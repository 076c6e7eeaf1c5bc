"""Finite-model engine for emergent subsystems of reversible process theories.

Every public name is loaded on first use: ``_NAMES`` lists the names
each submodule defines, and ``__getattr__`` imports that submodule then
and binds the name here.  So ``import emergent`` imports no submodule, and
a CLI subcommand loads only the layers it runs.  ``emergent.<submodule>``
resolves the same way, ``__all__`` lists every name, and ``from emergent
import *`` binds them all, loading every layer.  ``FiniteCategoryInstance``,
the engine's one dataclass, lives in ``instance``, so only a caller that
asks for one imports ``dataclasses``.
"""

__version__ = "0.1.0"

_NAMES = {
    "errors": (
        "DegreeMismatch",
        "ElementNotInGroup",
        "ElementNotInOwner",
        "GeneralCaseUnsupported",
        "IncompatibleSystems",
        "InvalidTheory",
        "NotCentreless",
        "NotNested",
        "NotOrthogonal",
        "NotProductState",
        "NotPure",
        "NotSelfBicommutant",
        "NotTransitive",
        "ParseError",
        "PointOutOfRange",
        "ResourceLimit",
        "StateNotInPair",
        "StateNotInSystem",
        "SubgroupNotInTheory",
        "TheoryError",
        "TypeMismatch",
        "ZeroDimension",
    ),
    "perms": (
        "FiniteGroup",
        "GlobalTheory",
        "Perm",
        "Subgroup",
        "centralizer",
        "centre",
        "generate_group",
        "subgroup_closure",
        "validate_global_theory",
    ),
    "lattice": (
        "SbcLattice",
        "commutant",
        "enumerate_self_bicommutant",
        "is_orthocomplemented",
        "is_orthocomplementary",
        "is_orthogonal",
        "is_self_bicommutant",
        "join",
        "meet",
        "product_set",
    ),
    "states": (
        "LocalState",
        "PurityVerdict",
        "act_local",
        "factorizes",
        "is_product_state",
        "iterated_restrict",
        "pure_local_states",
        "pure_stabilizer",
        "restrict",
    ),
    "systems": (
        "System",
        "are_compatible",
        "enumerate_systems",
        "make_system",
        "tensor_pure_states",
        "tensor_state_candidates",
        "tensor_systems",
        "trivial_system",
    ),
    "processes": (
        "GenerationReport",
        "MorphismClass",
        "PairState",
        "Process",
        "ProcessCategory",
        "SystemEnvironmentPair",
        "build_process_category",
        "compose_process",
        "discard_process",
        "make_pair",
        "make_process",
        "pair_composite",
        "pair_states",
        "process_codomain",
        "tensor_processes",
        "verify_generation",
    ),
    "catalog": ("load_theory", "symmetric_group", "theory_from_dict"),
    "sectors": (
        "SectorDecomposition",
        "SpecialPairReport",
        "centre_rank",
        "check_special_pair_claims",
        "classify",
        "commutant_decomp",
        "group_dimension",
        "make_decomposition",
        "parse_decomposition",
        "system_count",
    ),
    "checks": ("SuiteResult", "run_suites"),
    "pmcat": (
        "Violation",
        "check_partially_monoidal",
        "extract_instance",
        "instance_from_category",
    ),
    "instance": ("FiniteCategoryInstance",),
}
# Each name, and each submodule's own name, to the submodule that defines it.
_HOME = {name: module for module, names in _NAMES.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    if name == module:
        return loaded
    value = globals()[name] = getattr(loaded, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
