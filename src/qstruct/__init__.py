"""Finite event structures: verification, classification, representation.

The discrete half handles posets with a partial difference (quasilogics),
partial products (semilogics), orthocomplemented logics and their boolean
semirings, including set representations via maximal filters. The numeric
half handles families of orthogonal projections, states on concrete
*-algebras with their cyclic representations, and dilations of positive
operator measures to projective ones. Every construction ships with a
``verify_*`` routine that returns a witness-carrying report.
"""

from .boolean_rep import (
    BooleanSemiring,
    StoneRepresentation,
    SubsetTopology,
    induced_homomorphism,
    maximal_filters,
    represent_distribution,
    stone_map,
    subset_semilogic,
    verify_semiring,
    verify_stone,
    verify_topology,
)
from .clan import (
    Clan,
    distributivity_criterion,
    operator_distribution,
    vector_state,
    verify_clan,
    verify_observable,
)
from .errors import (
    AxiomViolationError,
    ConstructionError,
    DomainError,
    ParseError,
    QstructError,
    StructuralError,
)
from .gns import (
    AlgebraState,
    ConcreteStarAlgebra,
    GnsRepresentation,
    gns_construct,
    gram_matrix,
    observable_norm,
    positive_parts,
    schwartz_check,
    state_value,
    verify_algebra,
    verify_gns,
    verify_state,
)
from .io_formats import (
    load_algebra,
    load_povm,
    load_structure,
    parse_algebra,
    parse_povm,
    parse_structure,
    serialize_algebra,
    serialize_dilation,
    serialize_povm,
    serialize_structure,
    structures_equal,
)
from .matrix_core import (
    Tolerance,
    canonical_phases,
    is_orthoprojection,
    op_norm,
    operator_order,
    pseudo_inverse,
    range_join,
    range_meet,
    range_projector,
    rank_decomposition,
)
from .naimark import (
    Dilation,
    FinitePovm,
    dilate,
    mobius_blocks,
    povm_from_outcomes,
    unitary_equivalence,
    verify_dilation,
    verify_povm,
)
from .order import (
    FinitePoset,
    atoms,
    is_upward_directed,
    join,
    join_of,
    meet,
    meet_of,
    segment,
    transitive_reduction,
    verify_poset,
)
from .ortho import (
    OrthoLogic,
    boolean_criterion,
    is_distributive,
    segment_logic,
    verify_logic,
)
from .properties import SUITES, SuiteResult, run_suite, run_suites
from .quasilogic import (
    CLASSIFICATION_LABELS,
    Quasilogic,
    build_quasilogic,
    check_de_morgan,
    check_sum_lattice_identity,
    classify,
    partial_sum,
    quasicommutes,
    quasiproduct,
    sum_family,
    summable,
    verify_quasilogic,
)
from .report import Check, VerificationReport
from .semilogic import (
    ClosurePair,
    DistributionTable,
    Filter,
    HomomorphismMap,
    Ideal,
    Semilogic,
    check_regularity,
    difference_table,
    relative_complement,
    summable_families,
    support,
    verify_closure,
    verify_distribution,
    verify_filter,
    verify_homomorphism,
    verify_ideal,
    verify_semilogic,
)
from .standard import (
    chain_quasilogic,
    diamond_semiring,
    mo2_logic,
    mo2_quasilogic,
    mo2_semilogic,
    o6_logic,
    powerset_logic,
    powerset_poset,
    powerset_quasilogic,
    powerset_semiring,
    shuffled_powerset_logic,
    shuffled_powerset_semiring,
)

__version__ = "0.1.0"
