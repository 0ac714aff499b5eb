"""Finite set-theoretic Yang-Baxter solutions: construction, validation,
diagonal maps, retracts, tower calculus, q-cycle sets, orbits and exhaustive
enumeration with machine-checked theorems."""

from .core import (
    FiniteSolution,
    PropertyReport,
    canonical_form,
    check_braid_routes,
    check_inverse,
    invert,
    is_isomorphic,
    properties,
    relabel,
    validate_braid,
)
from .diagonals import DiagonalMaps, check_diagonal_identities, check_diagonal_theorems, diagonal_maps
from .errors import (
    ClosedFormMismatch,
    CompatibilityError,
    DomainError,
    InputError,
    InvalidQCycle,
    MalformedTable,
    NotBijective,
    NotKPermutational,
    NotKReductive,
    NotLeftNondegenerate,
    NotNondegenerate,
    NotRightNondegenerate,
    ParseError,
    SizeMismatch,
    SizeTooLarge,
    SymbolUnavailable,
    YangBaxterError,
)
from .omega import (
    ALL_SYMBOLS,
    DEFAULT_ALPHABET,
    FULL_ALPHABET,
    check_omega_identities,
    check_star_conditions,
    closed_form_T_inverse,
    closed_form_U_inverse,
    is_k_permutational,
    is_k_reductive,
    omega_eval,
    permutational_levels,
    reductive_levels,
    tower_verdicts,
)
from .orbits import OrbitDecomposition, check_orbit_theorem, is_decomposable, orbit_decomposition
from .qcycle import (
    QCycleSet,
    check_qcycle_correspondence,
    from_solution,
    is_regular,
    qcycle_diagonals,
    to_solution,
    validate_qcycle,
)
from .retract import (
    Partition,
    RetractResult,
    check_compatibility,
    check_relation_coincidence,
    check_retract,
    check_retract_duality,
    is_irretractable,
    is_trivial,
    mpl,
    mpl_prime,
    retract,
    retract_relation,
    retract_tower,
)
from .search import (
    CensusResult,
    EnumFilter,
    census,
    check_frozen_census,
    enumerate_solutions,
    load_frozen_census,
    oracle_census,
    oracle_enumerate,
)
from .suite import SuiteReport, theorem_suite

__version__ = "0.1.0"
