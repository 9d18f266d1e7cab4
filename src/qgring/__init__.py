"""Exact Wedderburn data of rational group algebras Q[G].

Highlights: subgroup-pair central idempotents and their component shapes,
Amitsur's division criterion for cyclic algebras, SN/SSN/NCN group
predicates, and nilpotent-decomposition verdicts for Z[G] with verified
witnesses.
"""

from .algebra import AlgElem, hat, one_minus, one_plus, tilde
from .catalog import build_named, build_spec, catalog_names
from .components import (
    AmitsurResult,
    ComponentDescriptor,
    MatrixCount,
    Prediction,
    amitsur_division,
    center_rank,
    classify_component,
    component_dimension,
    count_matrix_components,
    describe_component,
    nilpotent_probe,
    predict_nilpotent,
    predict_nonnilpotent,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    center,
    derived_subgroup,
    is_normal,
    maximal_abelian_over,
    normalizer,
    quotient,
    subgroup_generated,
    subgroups,
)
from .numutil import ord_mod, padic_valuation
from .props import (
    NDReport,
    SSNClass,
    classify_ssn,
    curated_witness,
    is_ncn,
    is_sn,
    is_ssn,
    nd_verdict,
    nd_witness_search,
    verify_witness,
)
from .shoda import (
    SanityReport,
    ShodaPair,
    e_idem,
    epsilon,
    is_shoda_pair,
    is_strong_shoda_pair,
    metabelian_pcis,
    pci_sanity,
)

__version__ = "0.1.0"

__all__ = [
    "AlgElem", "hat", "tilde", "one_minus", "one_plus",
    "build_named", "build_spec", "catalog_names",
    "AmitsurResult", "ComponentDescriptor", "MatrixCount", "Prediction",
    "amitsur_division", "center_rank", "classify_component",
    "component_dimension", "count_matrix_components", "describe_component",
    "nilpotent_probe", "predict_nilpotent", "predict_nonnilpotent",
    "FiniteGroup", "Subgroup", "center", "derived_subgroup", "is_normal",
    "maximal_abelian_over", "normalizer", "quotient", "subgroup_generated",
    "subgroups",
    "ord_mod", "padic_valuation",
    "NDReport", "SSNClass", "classify_ssn", "curated_witness", "is_ncn",
    "is_sn", "is_ssn", "nd_verdict", "nd_witness_search", "verify_witness",
    "SanityReport", "ShodaPair", "e_idem", "epsilon", "is_shoda_pair",
    "is_strong_shoda_pair", "metabelian_pcis", "pci_sanity",
]
