"""Dense complex-matrix kernel.

Every operator in this package (observables, density matrices, channels,
evolution operators, metric matrices) is a small dense complex matrix.
This module wraps the handful of primitives everything else consumes,
with explicit shape errors and finiteness checks on construction.

Dimensions stay tiny (a few dozen at most), so everything is dense
``numpy.complex128``. Families of observables travel as ``(k, d, d)``
stacks, so one numpy call serves the whole family.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "as_complex_matrix",
    "as_complex_stack",
    "mul",
    "adjoint",
    "commutator",
    "frobenius_norm",
    "pair_commutator_norms",
    "approx_eq",
]

# A plain sum of squared moduli inside [_SUMSQ_TINY, _SUMSQ_HUGE] is exact
# to roundoff; outside it, squares may have underflowed or overflowed, and
# the norm is recomputed on entries scaled by the largest modulus (Blue,
# ACM TOMS 4(1), 1978; Anderson, ACM TOMS 44(1), 2017).
_SUMSQ_TINY = 2.0**-600
_SUMSQ_HUGE = 2.0**600


def as_complex_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-d complex128 array, rejecting NaN/Inf entries."""
    mat = np.asarray(data, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {mat.shape}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {mat.shape}")
    # isfinite on complex checks both components in one pass
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return mat


def as_complex_stack(data) -> np.ndarray:
    """Coerce ``data`` to a (k, d, d) complex128 stack of square matrices, rejecting NaN/Inf."""
    stack = np.asarray(data, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"expected a (k, d, d) stack of square matrices, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return stack


def mul(a, b) -> np.ndarray:
    """Matrix product a @ b."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a for square matrices of equal dimension."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError(f"commutator needs square matrices, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"commutator needs equal dimensions, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def _scaled_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (P, n) array, each row divided by its largest modulus first."""
    moduli = np.abs(rows)
    scale = moduli.max(axis=1, keepdims=True)
    unit = np.divide(moduli, scale, out=np.zeros_like(moduli), where=scale > 0)
    return scale[:, 0] * np.sqrt((unit * unit).sum(axis=1))


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry moduli, safe from underflow and overflow."""
    a = as_complex_matrix(a)
    sumsq = np.vdot(a, a).real
    if _SUMSQ_TINY <= sumsq <= _SUMSQ_HUGE or not a.any():
        return math.sqrt(sumsq)
    return float(_scaled_norms(a.reshape(1, -1))[0])


@functools.lru_cache(maxsize=64)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair i < j, in row-major order; read-only, as they are shared."""
    pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs[:, 0], pairs[:, 1]


def pair_commutator_norms(stack) -> np.ndarray:
    """Frobenius norms of [X_i, X_j] for every pair i < j of a (k, d, d) stack.

    Pairs come in row-major order (0,1), (0,2), ..., (0,k-1), (1,2), ...,
    the order of ``np.triu_indices(k, 1)``, so ``np.argmax`` of the result
    names the first maximal pair. Norms are scaled like
    :func:`frobenius_norm`.
    """
    x = as_complex_stack(stack)
    i, j = _pairs(len(x))
    a, b = x[i], x[j]
    return _commutator_norms(a @ b - b @ a)


def _commutator_norms(comm: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (P, d, d) stack of computed commutators, scaled like :func:`frobenius_norm`.

    Shared by the pair kernel and the commutator trajectories. Raises
    ValueError if an entry overflowed (is not finite).
    """
    rows = comm.reshape(len(comm), comm.shape[1] * comm.shape[2])
    # Squared norms as batched inner products, and the range test by
    # Python's sum and min over a list: this keeps the kernel on numpy
    # routines a damping step already runs, with no numpy comparison or
    # reduction code mapped in just for it. The sum also catches NaN.
    sumsq = (rows.conj()[:, None, :] @ rows[:, :, None]).reshape(-1).real
    norms = np.sqrt(sumsq)
    listed = sumsq.tolist()
    if listed and not (sum(listed) <= _SUMSQ_HUGE and min(listed) >= _SUMSQ_TINY):
        rescale = ~((sumsq >= _SUMSQ_TINY) & (sumsq <= _SUMSQ_HUGE))
        norms[rescale] = _scaled_norms(rows[rescale])
        if not np.isfinite(norms).all():
            raise ValueError("commutator entries overflow")
    return norms


def approx_eq(a, b, tol: float) -> bool:
    """True iff the Frobenius norm of (a - b) is at most ``tol``."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"cannot compare shapes {a.shape} and {b.shape}")
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return frobenius_norm(a - b) <= tol
