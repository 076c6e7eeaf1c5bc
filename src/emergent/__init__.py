"""Finite-model engine for emergent subsystems of reversible process theories."""

from .errors import (
    DegreeMismatch,
    ElementNotInGroup,
    ElementNotInOwner,
    GeneralCaseUnsupported,
    IncompatibleSystems,
    InvalidTheory,
    NotCentreless,
    NotNested,
    NotOrthogonal,
    NotProductState,
    NotPure,
    NotSelfBicommutant,
    NotTransitive,
    ParseError,
    PointOutOfRange,
    ResourceLimit,
    StateNotInPair,
    StateNotInSystem,
    SubgroupNotInTheory,
    TheoryError,
    TypeMismatch,
    ZeroDimension,
)
from .perms import (
    FiniteGroup,
    GlobalTheory,
    Perm,
    Subgroup,
    centralizer,
    centre,
    generate_group,
    subgroup_closure,
    validate_global_theory,
)
from .lattice import (
    SbcLattice,
    commutant,
    enumerate_self_bicommutant,
    is_orthocomplemented,
    is_orthocomplementary,
    is_orthogonal,
    is_self_bicommutant,
    join,
    meet,
    product_set,
)
from .states import (
    LocalState,
    PurityVerdict,
    act_local,
    factorizes,
    is_product_state,
    iterated_restrict,
    pure_local_states,
    pure_stabilizer,
    restrict,
)
from .systems import (
    System,
    are_compatible,
    enumerate_systems,
    make_system,
    tensor_pure_states,
    tensor_state_candidates,
    tensor_systems,
    trivial_system,
)
from .processes import (
    GenerationReport,
    MorphismClass,
    PairState,
    Process,
    ProcessCategory,
    SystemEnvironmentPair,
    build_process_category,
    compose_process,
    discard_process,
    make_pair,
    make_process,
    pair_composite,
    pair_states,
    process_codomain,
    tensor_processes,
    verify_generation,
)
from .catalog import (
    load_theory,
    symmetric_group,
    theory_from_dict,
)
from .sectors import (
    SectorDecomposition,
    SpecialPairReport,
    centre_rank,
    check_special_pair_claims,
    classify,
    commutant_decomp,
    group_dimension,
    make_decomposition,
    parse_decomposition,
    system_count,
)
from .checks import SuiteResult, run_suites

__version__ = "0.1.0"

# ``pmcat`` is loaded on first use: its ``FiniteCategoryInstance`` is a
# dataclass, and a run that never checks the category axioms need not
# import ``dataclasses``.
_PMCAT_NAMES = frozenset({
    "FiniteCategoryInstance",
    "Violation",
    "check_partially_monoidal",
    "extract_instance",
    "instance_from_category",
})


def __getattr__(name: str):
    if name == "pmcat" or name in _PMCAT_NAMES:
        from importlib import import_module

        pmcat = import_module(".pmcat", __name__)
        return pmcat if name == "pmcat" else getattr(pmcat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
