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
    as_complex_matrix,
    commutator,
    frobenius_norm,
    pair_commutator_norms,
)
from .commutators import (
    AnsatzReport,
    CommutatorTrajectory,
    DecayFit,
    ansatz_coefficients,
    ansatz_report,
    envelope_fit,
    growth_witness,
    phase_constancy_check,
    trajectory,
)
from .evolution import (
    EvolutionOperator,
    EvolutionVariant,
    evolution_operator,
    heisenberg_evolve,
    hermitian_square_law,
    semigroup_via_roots,
)
from .gamow import GamowSpace, Resonance, basis_vector, new_space, pseudo_product
from .qlattice import (
    AbelianCertificate,
    DistributivityReport,
    Projector,
    abelian_certificate,
    distributivity_check,
    join,
    meet,
)

__version__ = "0.1.0"
