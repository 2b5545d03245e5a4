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

Meet is the only subspace computation. Its definition is the null space
of the stacked complements C = (I - p; I - q), which is range(p)
intersect range(q): the right singular vectors of C with singular value
at most the rank cutoff of 1e-10 (projector spectra sit near {0, 1}, so
a mid-gap cutoff is robust). Join follows from meet by De Morgan,
p v q = ~(~p ^ ~q), and containment range(q) subset range(p) is p q = q.
Every result is B B^dagger for an orthonormal basis B.

The null space is read off the triangular factor R of C = Q R (the
R-SVD: Chan, ACM TOMS 8, 1982; Golub and Van Loan, Matrix Computations,
5.4). R has the singular values and right singular vectors of C in half
the rows. The QR of C and the SVD of R are both backward stable, so
singular values near the cutoff are resolved to about 1e-15; nothing is
squared. Ranges at a principal angle theta (Bjorck and Golub, Math.
Comp. 27, 1973) give C a singular value sqrt(1 - cos(theta)), about
theta / sqrt(2), so ranges at a principal angle above about 1.4e-10 rad
never count as meeting, and a meet lies within the 1e-9 equality
tolerance of both ranges it was taken from.

The kernels work on (m, d, d) stacks: one QR and one SVD call serve m
meets, one masked product forms all their projectors, and each stack of
meets passes the projector checks once, as a stack, so a result checked
as part of its stack is not checked again. Complements are plain I - P
and are never checked: a :class:`Projector` is checked together with its
complement when it is built, and a computed meet B B^dagger, B
orthonormal, sits far inside the tolerances, its complement with it.
:func:`distributivity_check` makes its 10 meets in two such calls, one
per dependency level; :func:`meet` and :func:`join` are the same kernels
on stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cmatrix import _pairs, _sumsq, as_complex_matrix, pair_commutator_norms

__all__ = [
    "Projector",
    "DistributivityReport",
    "AbelianCertificate",
    "meet",
    "join",
    "distributivity_check",
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
    """An orthogonal projector: P and its complement I - P checked as one stack, Hermitian and idempotent."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"projector must be square, got {m.shape}")
        _check_projectors(np.stack([m, np.eye(m.shape[0]) - m]))
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


def _checked(mat: np.ndarray) -> Projector:
    """A Projector of a matrix that passed the checks as part of its stack, not checked again."""
    p = object.__new__(Projector)
    object.__setattr__(p, "mat", mat)
    return p


def _check_projectors(stack: np.ndarray) -> np.ndarray:
    """Run the projector checks on every member of an (m, d, d) stack; return the stack.

    Finite entries, the entry bound, Hermitian to 1e-12, idempotent to
    1e-10, in this order, each over the whole stack. Entries are bounded
    before any norm is taken, so the plain sums of squares cannot
    overflow, and any that underflow belong to norms far below both
    tolerances.
    """
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    # |P_ij|^2 <= P_ii P_jj <= 1; larger entries would also overflow the checks below
    if max(np.abs(stack.real).max(), np.abs(stack.imag).max()) > 1 + _IDEMPOTENT_TOL:
        raise ValueError("projector entries need real and imaginary parts of size <= 1 + 1e-10")
    if np.sqrt(_sumsq(stack - stack.conj().transpose(0, 2, 1))).max() > _HERMITIAN_TOL:
        raise ValueError("projector is not Hermitian to 1e-12")
    if np.sqrt(_sumsq(stack @ stack - stack)).max() > _IDEMPOTENT_TOL:
        raise ValueError("projector is not idempotent to 1e-10")
    return stack


def _meets(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Meets of the members of two (m, d, d) stacks of projectors, checked as a stack.

    One QR call on the (m, 2d, d) stack of complements C = (I - P; I - Q)
    gives each member's triangular factor R, and one SVD call on the
    (m, d, d) stack of R gives C's singular values and right singular
    vectors vh; one masked product (V mask) V^dagger, V = vh^dagger, with
    the mask s <= RANK_CUTOFF, forms every meet. A Hermitian eigensolver on
    C^dagger C would square the singular values and bring in LAPACK's
    zheevd and numpy's sort kernels, resident code no other step of a run
    uses.
    """
    eye = np.eye(p.shape[-1])
    _, s, vh = np.linalg.svd(np.linalg.qr(np.concatenate([eye - p, eye - q], axis=1), mode="r"))
    return _check_projectors((vh.conj().transpose(0, 2, 1) * (s <= RANK_CUTOFF)[:, None, :]) @ vh)


def _check_same_dim(*ps: Projector) -> int:
    dims = {p.dim for p in ps}
    if len(dims) != 1:
        raise ValueError(f"projectors must share a dimension, got {sorted(dims)}")
    return dims.pop()


def meet(p: Projector, q: Projector) -> Projector:
    """Projector onto range(p) intersect range(q).

    The right singular vectors of the stacked complements (I - p; I - q)
    with singular value at most the rank cutoff, so ranges at a principal
    angle above about 1.4e-10 rad do not meet. Computed from the SVD of the
    complements' triangular factor (see the module docstring).
    """
    _check_same_dim(p, q)
    return _checked(_meets(p.mat[None], q.mat[None])[0])


def join(p: Projector, q: Projector) -> Projector:
    """Projector onto the span of range(p) union range(q), by De Morgan: ~(~p ^ ~q)."""
    eye = np.eye(_check_same_dim(p, q))
    return _checked(eye - _meets(eye - p.mat[None], eye - q.mat[None])[0])


def distributivity_check(a: Projector, b: Projector, c: Projector) -> DistributivityReport:
    """Evaluate both distributive relations on the triple (a, b, c).

    The 10 meets run in two stacked calls, one per dependency level; every
    join is the complement of a meet of complements (De Morgan).
    """
    eye = np.eye(_check_same_dim(a, b, c))
    na, nb, nc = eye - np.stack([a.mat, b.mat, c.mat])
    # level 1: ~(b v c), a ^ b, a ^ c, b ^ c, ~(a v b), ~(a v c)
    first = _meets(np.stack([nb, a.mat, a.mat, b.mat, na, na]), np.stack([nc, b.mat, c.mat, c.mat, nb, nc]))
    b_or_c, n_ab, n_ac, n_bc, a_or_b, a_or_c = eye - first
    # level 2: a ^ (b v c), ~((a ^ b) v (a ^ c)), ~(a v (b ^ c)), (a v b) ^ (a v c)
    second = _meets(np.stack([a.mat, n_ab, na, a_or_b]), np.stack([b_or_c, n_ac, n_bc, a_or_c]))
    lhs_meet, rhs_join = second[0], second[3]
    rhs_meet, lhs_join = eye - second[1:3]
    # both equalities, then both containments range(q) subset range(p) as p q = q
    gaps = np.stack([lhs_meet - rhs_meet, lhs_join - rhs_join,
                     lhs_meet @ rhs_meet - rhs_meet, rhs_join @ lhs_join - lhs_join])
    meet_equal, join_equal, meet_contains, join_contains = (np.sqrt(_sumsq(gaps)) <= EQUALITY_TOL).tolist()
    return DistributivityReport(
        lhs_meet=_checked(lhs_meet),
        rhs_meet=_checked(rhs_meet),
        lhs_join=_checked(lhs_join),
        rhs_join=_checked(rhs_join),
        meet_equal=meet_equal,
        join_equal=join_equal,
        inequality_holds=meet_contains and join_contains,
    )


def abelian_certificate(observables: Sequence) -> AbelianCertificate:
    """Check all pairwise commutators of a family of observables against COMPATIBILITY_TOL.

    Returns (abelian, worst_pair, worst_norm) with the indices of the
    pair realizing the largest commutator norm (None for a single
    observable).
    """
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
    i, j = _pairs(len(mats))
    worst_norm = float(norms[worst])
    return AbelianCertificate(
        abelian=worst_norm <= COMPATIBILITY_TOL, worst_pair=(int(i[worst]), int(j[worst])), worst_norm=worst_norm
    )
