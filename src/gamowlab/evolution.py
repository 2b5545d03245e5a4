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

Heisenberg conjugation has one rule, O(t) = U O U#, with the
pseudo-adjoint U# = A U^dag A, the adjoint under the indefinite pairing
(v|w) = v^dag A w. For INVERTIBLE, U# = U(-t) = U(t)^-1; HERMITIAN equals
its own pseudo-adjoint, so U# = U. SEMIGROUP_D has no canonical
conjugation rule, so U(t) O U(t)^dag is provided with a RuntimeWarning --
treat its results as an extrapolation, not a prescription.

Every operator is stored as its diagonal ``diag`` (D slots [0::2], G
slots [1::2]), so each conjugation is the entrywise scaling O_ab u_a v_b.
Given a 1-d array of T times, ``evolution_operator`` returns one operator
whose ``diag`` is the (T, 2N) stack of those diagonals, and
``heisenberg_evolve`` then returns the (T, 2N, 2N) stack of evolved
observables: of one observable at every time, or of a (T, 2N, 2N) stack
with one observable per time, member k conjugated by row k. A stack is
taken as it comes, with no finiteness scan: it is a computed operand,
such as the commutator tensor's middle factor, or an observable checked
once and broadcast over the times, and an entry of it past
the float range passes to the result as an overflowed operator entry
does.

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
from .gamow import _ROUND_D_BOX, GamowSpace, _swap_slots

__all__ = [
    "EvolutionVariant",
    "EvolutionOperator",
    "evolution_operator",
    "hermitian_square_law",
    "heisenberg_evolve",
    "semigroup_via_roots",
]


class EvolutionVariant(enum.Enum):
    SEMIGROUP_D = "semigroup_d"
    INVERTIBLE = "invertible"
    HERMITIAN = "hermitian"


@dataclass(frozen=True)
class EvolutionOperator:
    """U(t) as its diagonal; an operator over T times has a (T, 2N) ``diag``."""

    variant: EvolutionVariant
    diag: np.ndarray = field(repr=False)


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
    return EvolutionOperator(variant=variant, diag=diag)


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


def _observable(obs, dim: int) -> np.ndarray:
    """``obs`` as a finite (dim, dim) complex matrix, or ValueError."""
    obs = as_complex_matrix(obs)
    if obs.shape != (dim, dim):
        raise ValueError(f"observable shape {obs.shape} does not match the {dim}x{dim} space")
    return obs


def _sharp_diag(op: EvolutionOperator) -> np.ndarray:
    """The diagonal of U#, A U^dag A, the factor on the right of U O U#; U^dag's for SEMIGROUP_D, with no warning."""
    v = op.diag.conj()
    return v if op.variant is EvolutionVariant.SEMIGROUP_D else _swap_slots(v)


def heisenberg_evolve(op: EvolutionOperator, obs) -> np.ndarray:
    """Conjugate an observable with the evolution operator: U O U#, with U# = A U^dag A.

    SEMIGROUP_D takes U^dag in place of U# and warns, once per call. An
    operator over T times gives the (T, d, d) stack of evolved observables;
    ``obs`` is then one (d, d) observable or a (T, d, d) stack of them, one
    per time, which is not scanned for finiteness (see the module docstring).
    """
    u = op.diag
    dim = u.shape[-1]
    if np.ndim(obs) == 3:
        obs = np.asarray(obs, dtype=np.complex128)
        if obs.shape != u.shape[:-1] + (dim, dim):
            raise ValueError(f"stack shape {obs.shape} does not match the operator, which needs {u.shape[:-1] + (dim, dim)}")
    else:
        obs = _observable(obs, dim)
    if op.variant is EvolutionVariant.SEMIGROUP_D:
        warnings.warn(
            "SEMIGROUP_D has no canonical Heisenberg conjugation; using U O U^dag as an "
            "extrapolation",
            RuntimeWarning,
            stacklevel=2,
        )
    evolved = u[..., :, None] * obs
    evolved *= _sharp_diag(op)[..., None, :]
    return evolved


def semigroup_via_roots(space: GamowSpace, t: float) -> np.ndarray:
    """Rebuild the SEMIGROUP_D operator by sandwiching with the metric roots.

    Computes B [ sum_j e^{-i t z_j} |D_j><G_j| ] B one 2x2 box per
    resonance. With E the unit matrix at a box's D slot, the root transport
    B |psi_j^D> = |psi_j^D) realizes the plain dyad |psi_j^D><psi_j^G| as
    C E C, so that B (C E C) B collapses onto the round dyad. That box is the
    same for every resonance up to its phase e^{-i t z_j}, so the phases tile
    it. Exercises B C = C B = I through the complex box arithmetic; agrees
    with ``evolution_operator(space, t, SEMIGROUP_D)`` to roundoff.
    """
    return np.kron(np.diag(np.exp(-1j * t * space.poles)), _ROUND_D_BOX)
