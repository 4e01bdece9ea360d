"""Finite event structures: verification, classification, representation.

The discrete half handles posets with a partial difference (quasilogics),
partial products (semilogics), orthocomplemented logics and their boolean
semirings, including set representations via maximal filters. The numeric
half handles families of orthogonal projections, states on concrete
*-algebras with their cyclic representations, and dilations of positive
operator measures to projective ones. Every construction ships with a
``verify_*`` routine that returns a witness-carrying report.

The package namespace is lazy (PEP 562): ``qstruct.X`` and
``from qstruct import X`` import the one submodule that defines X on first
use, so a process that only checks a logic never loads the operator half.
"""

import importlib

# submodule -> the public names it re-exports at the package level
_EXPORTS = {
    "boolean_rep": """BooleanSemiring StoneRepresentation SubsetTopology
        induced_homomorphism maximal_filters represent_distribution stone_map
        subset_semilogic verify_semiring verify_stone verify_topology""",
    "clan": """Clan distributivity_criterion operator_distribution vector_state
        verify_clan verify_observable""",
    "errors": """AxiomViolationError ConstructionError DomainError ParseError
        QstructError StructuralError""",
    "gns": """AlgebraState ConcreteStarAlgebra GnsRepresentation gns_construct
        gram_matrix observable_norm positive_parts schwartz_check verify_algebra
        verify_gns verify_state""",
    "io_formats": """load_algebra load_povm load_structure parse_algebra
        parse_povm parse_structure serialize_algebra serialize_dilation
        serialize_povm serialize_structure structures_equal""",
    "matrix_core": """Tolerance canonical_phases is_orthoprojection op_norm
        operator_order pseudo_inverse range_join range_meet rank_decomposition""",
    "naimark": """Dilation FinitePovm dilate mobius_blocks povm_from_outcomes
        unitary_equivalence verify_dilation verify_povm""",
    "order": """FinitePoset atoms is_upward_directed join join_of meet segment
        transitive_reduction verify_poset""",
    "ortho": "OrthoLogic boolean_criterion is_distributive segment_logic verify_logic",
    "properties": "SUITES SuiteResult run_suite run_suites",
    "quasilogic": """CLASSIFICATION_LABELS Quasilogic check_de_morgan
        check_sum_lattice_identity classify partial_sum quasicommutes
        quasiproduct summable verify_quasilogic""",
    "report": "Check VerificationReport",
    "semilogic": """ClosurePair DistributionTable Filter HomomorphismMap Ideal
        Semilogic check_regularity difference_table summable_families support
        verify_closure verify_distribution verify_filter verify_homomorphism
        verify_ideal verify_semilogic""",
    "standard": """chain_quasilogic diamond_semiring mo2_logic mo2_quasilogic
        mo2_semilogic o6_logic powerset_logic powerset_poset powerset_quasilogic
        powerset_semiring shuffled_powerset_logic shuffled_powerset_semiring""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
