"""Projector lattice operations and commutativity certificates.

Properties of a finite-dimensional system are orthogonal projectors.
Meet is the projector onto the intersection of ranges, join onto the
span of their union, orthocomplement is I - P. Every orthocomplemented
lattice obeys the distributive inequalities

    a ^ (b v c) >= (a ^ b) v (a ^ c),
    a v (b ^ c) <= (a v b) ^ (a v c),

with equality exactly on Boolean (mutually compatible) families; the
violation of the equalities by non-commuting projectors is the lattice
face of quantum incompatibility.

Meet is the only subspace computation: one SVD of the stacked
complements (I - p; I - q), whose null space is range(p) intersect
range(q), cut at a fixed singular-value cutoff of 1e-10 (projector
spectra sit near {0, 1}, so a mid-gap cutoff is robust). Join follows
from meet by De Morgan, p v q = ~(~p ^ ~q), and containment
range(q) subset range(p) is p q = q. Every result is B B^dagger for an
orthonormal SVD basis B, built through the Projector checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cmatrix import as_complex_matrix, commutator, frobenius_norm, pair_commutator_norms

__all__ = [
    "Projector",
    "DistributivityReport",
    "AbelianCertificate",
    "projector_onto",
    "meet",
    "join",
    "ortho",
    "distributivity_check",
    "compatible",
    "abelian_certificate",
    "RANK_CUTOFF",
    "COMPATIBILITY_TOL",
]

RANK_CUTOFF = 1e-10
COMPATIBILITY_TOL = 1e-10
EQUALITY_TOL = 1e-9

_HERMITIAN_TOL = 1e-12
_IDEMPOTENT_TOL = 1e-10


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector: Hermitian and idempotent."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"projector must be square, got {m.shape}")
        # |P_ij|^2 <= P_ii P_jj <= 1; larger entries would also overflow the checks below
        if max(np.abs(m.real).max(), np.abs(m.imag).max()) > 1 + _IDEMPOTENT_TOL:
            raise ValueError("projector entries need real and imaginary parts of size <= 1 + 1e-10")
        if frobenius_norm(m - m.conj().T) > _HERMITIAN_TOL:
            raise ValueError("projector is not Hermitian to 1e-12")
        if frobenius_norm(m @ m - m) > _IDEMPOTENT_TOL:
            raise ValueError("projector is not idempotent to 1e-10")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.mat).real))


class AbelianCertificate(NamedTuple):
    abelian: bool
    worst_pair: tuple[int, int] | None
    worst_norm: float


@dataclass(frozen=True)
class DistributivityReport:
    """Both sides of both distributive relations for a projector triple.

    ``inequality_holds`` asserts the theorem-level inequalities; a False
    here means a numerical rank bug, not physics.
    """

    lhs_meet: Projector
    rhs_meet: Projector
    lhs_join: Projector
    rhs_join: Projector
    meet_equal: bool
    join_equal: bool
    inequality_holds: bool


def projector_onto(vectors) -> Projector:
    """Orthogonal projector onto the span of a vector or sequence of vectors."""
    arr = np.asarray(vectors, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    elif arr.ndim == 2:
        arr = arr.T  # sequence of vectors comes in as rows
    else:
        raise ValueError(f"expected a vector or a sequence of vectors, got shape {arr.shape}")
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    basis = u[:, s > RANK_CUTOFF]
    return Projector(basis @ basis.conj().T)


def _check_same_dim(*ps: Projector) -> int:
    dims = {p.dim for p in ps}
    if len(dims) != 1:
        raise ValueError(f"projectors must share a dimension, got {sorted(dims)}")
    return dims.pop()


def meet(p: Projector, q: Projector) -> Projector:
    """Projector onto range(p) intersect range(q).

    Computed from the joint null space of (I - p) and (I - q): stack the
    two complements and take the right singular vectors with singular
    value at most the rank cutoff.
    """
    d = _check_same_dim(p, q)
    eye = np.eye(d)
    stacked = np.vstack([eye - p.mat, eye - q.mat])
    _, s, vh = np.linalg.svd(stacked)  # s has d entries for the 2d x d stack
    null_basis = vh[s <= RANK_CUTOFF].conj().T
    return Projector(null_basis @ null_basis.conj().T)


def join(p: Projector, q: Projector) -> Projector:
    """Projector onto the span of range(p) union range(q), by De Morgan: ~(~p ^ ~q)."""
    return ortho(meet(ortho(p), ortho(q)))


def ortho(p: Projector) -> Projector:
    """Orthocomplement I - p."""
    return Projector(np.eye(p.dim) - p.mat)


def _contains(larger: Projector, smaller: Projector, tol: float = EQUALITY_TOL) -> bool:
    """range(smaller) subset of range(larger), that is larger @ smaller == smaller."""
    return frobenius_norm(larger.mat @ smaller.mat - smaller.mat) <= tol


def distributivity_check(a: Projector, b: Projector, c: Projector) -> DistributivityReport:
    """Evaluate both distributive relations on the triple (a, b, c)."""
    _check_same_dim(a, b, c)
    lhs_meet = meet(a, join(b, c))
    rhs_meet = join(meet(a, b), meet(a, c))
    lhs_join = join(a, meet(b, c))
    rhs_join = meet(join(a, b), join(a, c))
    meet_equal = frobenius_norm(lhs_meet.mat - rhs_meet.mat) <= EQUALITY_TOL
    join_equal = frobenius_norm(lhs_join.mat - rhs_join.mat) <= EQUALITY_TOL
    inequality_holds = _contains(lhs_meet, rhs_meet) and _contains(rhs_join, lhs_join)
    return DistributivityReport(
        lhs_meet=lhs_meet,
        rhs_meet=rhs_meet,
        lhs_join=lhs_join,
        rhs_join=rhs_join,
        meet_equal=meet_equal,
        join_equal=join_equal,
        inequality_holds=inequality_holds,
    )


def compatible(p: Projector, q: Projector) -> bool:
    """True iff the projectors commute to COMPATIBILITY_TOL."""
    _check_same_dim(p, q)
    return frobenius_norm(commutator(p.mat, q.mat)) <= COMPATIBILITY_TOL


def abelian_certificate(observables: Sequence, tol: float) -> AbelianCertificate:
    """Check all pairwise commutators of a family of observables.

    Returns (abelian, worst_pair, worst_norm) with the indices of the
    pair realizing the largest commutator norm (None for a single
    observable).
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    mats = [as_complex_matrix(o) for o in observables]
    if len(mats) == 0:
        raise ValueError("abelian certificate needs at least one observable")
    dims = {m.shape for m in mats}
    if len(dims) != 1 or any(s[0] != s[1] for s in dims):
        raise ValueError(f"observables must be square and share a dimension, got {sorted(dims)}")
    norms = pair_commutator_norms(np.stack(mats))
    if norms.size == 0:
        return AbelianCertificate(abelian=True, worst_pair=None, worst_norm=0.0)
    worst = int(np.argmax(norms))
    i, j = np.triu_indices(len(mats), 1)
    worst_norm = float(norms[worst])
    return AbelianCertificate(
        abelian=worst_norm <= tol, worst_pair=(int(i[worst]), int(j[worst])), worst_norm=worst_norm
    )
