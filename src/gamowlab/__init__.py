"""gamowlab: a numerical laboratory for non-unitary observable dynamics.

Heisenberg-picture quantum channels, finite resonance (Gamow) sectors with
an indefinite metric, non-unitary evolution operators, commutator-decay
analysis and projector-lattice checks.
"""

from .channels import (
    DensityMatrix,
    KrausChannel,
    apply_heisenberg,
    apply_schrodinger,
    damping_channel,
    damping_closed_form,
    damping_limit,
    iterate_heisenberg,
)
from .cmatrix import (
    adjoint,
    approx_eq,
    as_complex_matrix,
    as_complex_stack,
    commutator,
    frobenius_norm,
    mul,
    pair_commutator_norms,
)
from .commutators import (
    AnsatzReport,
    CommutatorTrajectory,
    DecayFit,
    ansatz_coefficients,
    ansatz_report,
    commutation_time,
    envelope_fit,
    factored_commutator,
    growth_witness,
    phase_constancy_check,
    trajectory,
)
from .evolution import (
    EvolutionOperator,
    EvolutionVariant,
    GamowHamiltonian,
    HamiltonianKind,
    TaqmValidity,
    VariantError,
    evolution_operator,
    full_hermitian_via_roots,
    hamiltonian,
    heisenberg_evolve,
    hermitian_square_law,
    inverse,
    semigroup_via_roots,
    taqm_validity,
)
from .gamow import GamowSpace, Resonance, basis_vector, dyad, new_space, pseudo_product
from .qlattice import (
    AbelianCertificate,
    DistributivityReport,
    Projector,
    abelian_certificate,
    compatible,
    distributivity_check,
    join,
    meet,
    ortho,
    projector_onto,
)

__version__ = "0.1.0"
