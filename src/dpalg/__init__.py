"""Exact kernel for divided power algebras over Z and Z/m.

Computes in weight-truncated free DP algebras, their enveloping algebras,
Beck modules and Kahler differentials, with an independent integer
linear-algebra oracle for the structure theorems.
"""

from .coeff import (
    Ring,
    ZZ,
    cartan_congruence_residue,
    gamma_compose_coeff,
    gcd_middle_binomials,
)
from .dpcore import (
    AlgebraSpec,
    DPElement,
    basis_of_weight,
    divided_power,
    divided_powers,
    dp_axiom_report,
    dp_map_apply,
    free_spec,
    gamma_gen,
)
from .envelope import (
    UElement,
    UNIT,
    env_algebra,
    env_phi,
    env_unit,
    phi_of,
    u0_basis_up_to,
)
from .beck import (
    SemidirectElement,
    UModule,
    semidirect_gamma,
    verify_abelian_structure,
    verify_beck_axioms,
)
from .kahler import (
    free_basis,
    indecomposables,
    is_dp_derivation,
    omega_free_basis,
    phi_inversion,
    presentation_of_omega,
    universal_derivation,
)
from .linalg import invariant_factor_chain, smith_diagonal
from .oracle import (
    coproduct,
    fold_kernel,
    verify_indecomposables,
    verify_main_theorem,
)

__all__ = [
    "AlgebraSpec",
    "DPElement",
    "Ring",
    "SemidirectElement",
    "UElement",
    "UModule",
    "UNIT",
    "ZZ",
    "basis_of_weight",
    "cartan_congruence_residue",
    "coproduct",
    "divided_power",
    "divided_powers",
    "dp_axiom_report",
    "dp_map_apply",
    "env_algebra",
    "env_phi",
    "env_unit",
    "fold_kernel",
    "free_basis",
    "free_spec",
    "gamma_compose_coeff",
    "gamma_gen",
    "gcd_middle_binomials",
    "indecomposables",
    "invariant_factor_chain",
    "is_dp_derivation",
    "omega_free_basis",
    "phi_inversion",
    "phi_of",
    "presentation_of_omega",
    "semidirect_gamma",
    "smith_diagonal",
    "u0_basis_up_to",
    "universal_derivation",
    "verify_abelian_structure",
    "verify_beck_axioms",
    "verify_indecomposables",
    "verify_main_theorem",
]
