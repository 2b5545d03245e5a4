"""Time evolution operators on the Gamow sector and their Heisenberg action.

Three operator variants are built from the resonance poles z_j:

* ``SEMIGROUP_D``: sum_j e^{-i t z_j} |D_j)(G_j| -- acts on the decaying
  sector only; singular (zero on the growing slots), a one-sided
  semigroup for t >= 0.
* ``INVERTIBLE``: diagonal (e^{-i t z_j}, e^{-i t z_j^*}) -- the
  exponential of the full pseudo-Hermitian Hamiltonian. It satisfies
  U(t) U(-t) = I, but conjugating an observable with it produces terms
  growing like e^{+t Gamma} (see ``growth_witness`` in the commutator
  module), which is why it is kept only as a counterexample.
* ``HERMITIAN``: diagonal (e^{-i t z_j}, e^{+i t z_j^*}) -- both entries
  have modulus e^{-t Gamma_j / 2} for t >= 0, so conjugation damps every
  observable entry. This is the default workhorse for commutator decay.

Heisenberg conjugation per variant: INVERTIBLE uses U(t) O U(-t);
HERMITIAN uses U(t) O U(t) (the operator equals its own pseudo-adjoint,
A U^dag A = U); SEMIGROUP_D has no canonical conjugation rule, so
U(t) O U(t)^dag is provided with a RuntimeWarning -- treat its results
as an extrapolation, not a prescription.

Every operator is stored as its diagonal ``diag`` (D slots [0::2], G
slots [1::2]), so each conjugation is the entrywise scaling O_ab u_a v_b.
Given a 1-d array of T times, ``evolution_operator`` returns one operator
whose ``diag`` is the (T, 2N) stack of those diagonals, and
``heisenberg_evolve`` then returns the (T, 2N, 2N) stack of evolved
observables.

Time is in inverse-energy units with hbar = 1, so widths are inverse
lifetimes. Negative t is always computed. The converted semigroup domain
of both Gamow kinds is t >= 0: decaying vectors propagate forward,
growing vectors backward, and the usual sign conversion maps the growing
rule onto forward time. The resonance CSV's ``taqm_valid`` column writes
this rule.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cmatrix import as_complex_matrix
from .gamow import GamowSpace, basis_index

__all__ = [
    "EvolutionVariant",
    "HamiltonianKind",
    "GamowHamiltonian",
    "EvolutionOperator",
    "VariantError",
    "hamiltonian",
    "evolution_operator",
    "inverse",
    "hermitian_square_law",
    "heisenberg_evolve",
    "semigroup_via_roots",
]


class VariantError(ValueError):
    """Raised when an operation is undefined for an evolution variant."""


class EvolutionVariant(enum.Enum):
    SEMIGROUP_D = "semigroup_d"
    INVERTIBLE = "invertible"
    HERMITIAN = "hermitian"


class HamiltonianKind(enum.Enum):
    #: z_j on the decaying slots, 0 on the growing slots.
    EFFECTIVE = "effective"
    #: z_j on the decaying slots, z_j^* on the growing slots (pseudo-Hermitian).
    FULL_HERMITIAN = "full_hermitian"


@dataclass(frozen=True)
class GamowHamiltonian:
    space: GamowSpace
    kind: HamiltonianKind
    diag: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EvolutionOperator:
    """U(t) as its diagonal; for a 1-d array ``t`` of T times, ``diag`` has shape (T, 2N)."""

    space: GamowSpace
    t: float | np.ndarray
    variant: EvolutionVariant
    diag: np.ndarray = field(repr=False)


def hamiltonian(space: GamowSpace, kind: HamiltonianKind) -> GamowHamiltonian:
    """Diagonal Hamiltonian on the Gamow sector, per ``kind``."""
    kind = HamiltonianKind(kind)
    diag = np.zeros(space.dim, dtype=complex)
    diag[0::2] = space.poles
    if kind is HamiltonianKind.FULL_HERMITIAN:
        diag[1::2] = space.poles.conj()
    return GamowHamiltonian(space=space, kind=kind, diag=diag)


def evolution_operator(space: GamowSpace, t, variant: EvolutionVariant) -> EvolutionOperator:
    """Evolution operator at time ``t`` for the given variant.

    ``t`` is a number, or a 1-d array of T times, which gives one operator
    with a (T, 2N) ``diag``: row k is the diagonal at ``t[k]``.
    """
    variant = EvolutionVariant(variant)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"time must be a number or a 1-d array, got shape {ts.shape}")
    if not np.isfinite(ts).all():
        raise ValueError(f"time must be finite, got {t}")
    column = ts[..., None]
    diag = np.zeros(ts.shape + (space.dim,), dtype=complex)
    diag[..., 0::2] = np.exp(-1j * column * space.poles)
    if variant is EvolutionVariant.INVERTIBLE:
        diag[..., 1::2] = np.exp(-1j * column * space.poles.conj())
    elif variant is EvolutionVariant.HERMITIAN:
        diag[..., 1::2] = np.exp(+1j * column * space.poles.conj())
    return EvolutionOperator(space=space, t=float(ts) if ts.ndim == 0 else ts, variant=variant, diag=diag)


def inverse(op: EvolutionOperator) -> EvolutionOperator:
    """U(t)^-1 = U(-t), defined for the INVERTIBLE variant only.

    The SEMIGROUP_D operator is singular; the HERMITIAN operator has a
    matrix inverse, but it is not U(-t), so treating it as a group
    element would be misleading.
    """
    if op.variant is not EvolutionVariant.INVERTIBLE:
        raise VariantError(f"inverse is only defined for INVERTIBLE, got {op.variant.name}")
    return evolution_operator(op.space, -op.t, EvolutionVariant.INVERTIBLE)


def hermitian_square_law(space: GamowSpace, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (U(t) @ U(t), D(t)) for the HERMITIAN variant, as dense matrices.

    D(t) is the predicted decay envelope: diagonal with e^{-t Gamma_j} on
    both slots of resonance j (for a single resonance, e^{-t Gamma} times
    the identity). The squared operator equals D(t) exactly when every
    resonance energy is zero; otherwise its diagonal carries the extra
    phases e^{-2 i t E_j} / e^{+2 i t E_j} and only the entry moduli
    follow D(t).
    """
    u = evolution_operator(space, t, EvolutionVariant.HERMITIAN).diag
    square, envelope = np.zeros((2, space.dim, space.dim), dtype=complex)
    np.fill_diagonal(square, u * u)
    np.fill_diagonal(envelope, np.repeat(np.exp(-t * space.widths), 2))
    return square, envelope


def heisenberg_evolve(op: EvolutionOperator, obs) -> np.ndarray:
    """Conjugate an observable with the evolution operator, per variant.

    An operator over T times gives the (T, d, d) stack of evolved observables.
    """
    obs = as_complex_matrix(obs)
    dim = op.space.dim
    if obs.shape != (dim, dim):
        raise ValueError(f"observable shape {obs.shape} does not match space dimension {dim}")
    u = op.diag
    if op.variant is EvolutionVariant.INVERTIBLE:
        v = inverse(op).diag
    elif op.variant is EvolutionVariant.HERMITIAN:
        v = u
    else:
        warnings.warn(
            "SEMIGROUP_D has no canonical Heisenberg conjugation; using U O U^dag as an "
            "extrapolation",
            RuntimeWarning,
            stacklevel=2,
        )
        v = u.conj()
    return u[..., :, None] * obs * v[..., None, :]


def _plain_dyad(space: GamowSpace, j: int) -> np.ndarray:
    """Coordinate matrix of the plain dyad |psi_j^D><psi_j^G|.

    With E the unit matrix at the D diagonal slot of resonance j, the root
    transport B |psi_j^D> = |psi_j^D) realizes the dyad as C E C, so that
    B (C E C) B collapses onto the round dyad.
    """
    e = np.zeros((space.dim, space.dim), dtype=complex)
    idx = basis_index(space, j, "D")
    e[idx, idx] = 1.0
    return space.root_c @ e @ space.root_c


def semigroup_via_roots(space: GamowSpace, t: float) -> np.ndarray:
    """Rebuild the SEMIGROUP_D operator by sandwiching with the metric roots.

    Computes B [ sum_j e^{-i t z_j} |D_j><G_j| ] B with the plain dyads
    realized through the root transport. Exercises B C = C B = I through
    the tiled complex arithmetic; agrees with
    ``evolution_operator(space, t, SEMIGROUP_D)`` to roundoff.
    """
    inner = np.zeros((space.dim, space.dim), dtype=complex)
    for j, res in enumerate(space.resonances, start=1):
        inner += np.exp(-1j * t * res.pole) * _plain_dyad(space, j)
    return space.root_b @ inner @ space.root_b
