"""Dense complex-matrix kernel.

Every operator in this package (observables, density matrices, channels,
evolution operators, metric matrices) is a small dense complex matrix.
This module wraps the handful of primitives everything else consumes,
with explicit shape errors and finiteness checks on construction.

Every scaled Frobenius norm comes from one kernel, :func:`_frobenius_norms`,
which also handles the numpy warnings of squares outside the float range.
Its sums of squares come from :func:`_sumsq`, the one place that fixes
their summation order, that of numpy's row reduction, rows of 8 (2x2
members) included. The qubit pair kernel (:func:`_pair_cross_norms`) has
two routes: complex Pauli vectors build the commutators and take this
kernel; real ones (Hermitian traceless parts) take
:func:`_real_cross_norms`, whose closed-form sum is :func:`_sumsq`'s, bit
for bit, and which sends each member out of the plain range to the complex
route. The one exception is the projector
lattice: its checks compare the plain sums of squares of :func:`_sumsq`
with their tolerances, on entries the checks have already bounded, so no
sum can overflow, and one that underflows belongs to a norm far below
every tolerance. The scaled kernel's range test would send each exactly
zero member, such as the defect of an empty meet, down its rescale path.

Dimensions stay tiny (a few dozen at most), so everything is dense
``numpy.complex128``. Families of observables travel as ``(k, d, d)``
stacks, so one numpy call serves the whole family; the pair kernel also
takes leading axes, so one call serves the family at several steps. A
qubit family can travel as its ``(k, 3)`` Pauli vectors instead, whose
pair norms come from cross products with no matrix product; the vectors
are real when the traceless parts are Hermitian.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = [
    "as_complex_matrix",
    "commutator",
    "frobenius_norm",
    "pair_commutator_norms",
]

# A plain sum of squared moduli inside [_SUMSQ_TINY, _SUMSQ_HUGE] is exact
# to roundoff; outside it, squares may have underflowed or overflowed, and
# the same sum is taken again on the member's float parts shifted by an exact
# power of two, that of its largest part (Blue, ACM TOMS 4(1), 1978;
# Anderson, ACM TOMS 44(1), 2017).
_SUMSQ_TINY = 2.0**-600
_SUMSQ_HUGE = 2.0**600

# sigma_x, sigma_y, sigma_z, each flattened row-major, so that O = (Tr O / 2) I + r.sigma
# for a 2x2 O with r_i = Tr(sigma_i O) / 2, that is vec(sigma_i)^* . vec(O) / 2.
_PAULIS = np.array([[0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]], dtype=np.complex128)
# Halved before the sum, so that no coordinate of a finite 2x2 matrix overflows; halved by a
# product, as complex division is numpy code that nothing else a damping run does maps in.
_HALF_PAULIS_H = _PAULIS.conj().T * 0.5
# c @ _TWO_I_PAULIS is 2i c.sigma, row-major: its weights 0, +-2 and +-2i scale exactly,
# so each entry is rounded once, whatever order the product sums in.
_TWO_I_PAULIS = 2j * _PAULIS


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


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a for square matrices of equal dimension."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError(f"commutator needs square matrices, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"commutator needs equal dimensions, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry moduli, safe from underflow and overflow.

    Raises ValueError when the norm itself passes the float range.
    """
    return float(_frobenius_norms(as_complex_matrix(a)[None])[0])


@functools.lru_cache(maxsize=64)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair i < j, in row-major order; read-only, as they are shared."""
    pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2)
    pairs.setflags(write=False)
    return pairs[:, 0], pairs[:, 1]


def pair_commutator_norms(stack) -> np.ndarray:
    """Frobenius norms of [X_i, X_j] for every pair i < j of a (..., k, d, d) stack.

    A (k, d, d) stack gives P = k(k-1)/2 norms; leading axes, such as the
    steps of a channel iteration, carry over, so an (s, k, d, d) block
    gives (s, P) norms, each row equal to the call on its own stack.
    Pairs come in row-major order (0,1), (0,2), ..., (0,k-1), (1,2), ...,
    the order of ``np.triu_indices(k, 1)``, so ``np.argmax`` of a row
    names the first maximal pair. Norms are scaled like
    :func:`frobenius_norm`.
    """
    x = np.asarray(stack, dtype=np.complex128)
    if x.ndim < 3 or x.shape[-1] != x.shape[-2] or x.shape[-1] < 1:
        raise ValueError(f"expected a (k, d, d) stack of square matrices, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    i, j = _pairs(x.shape[-3])
    a, b = x[..., i, :, :], x[..., j, :, :]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed product is the kernel's ValueError
        comm = a @ b - b @ a
    return _frobenius_norms(comm.reshape(-1, *comm.shape[-2:])).reshape(comm.shape[:-2])


def _pauli_vectors(stack: np.ndarray) -> np.ndarray:
    """The traceless Pauli coordinates r of each member of a (..., 2, 2) stack, as a (..., 3) complex array."""
    return stack.reshape(*stack.shape[:-2], 4) @ _HALF_PAULIS_H


@functools.lru_cache(maxsize=64)
def _cross_indices(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Indices into a flattened (..., 3k) stack of Pauli vectors of a_{m+1}, b_{m+2}, a_{m+2} and b_{m+1}.

    Each is a (P, 3) array over the pairs (a, b) of :func:`_pairs` and the
    components m of a x b. They stay writeable, as ``take`` copies a read-only
    index array on every call; only :func:`_pair_cross_norms` reads them.
    """
    i, j = _pairs(k)
    nxt, after = np.array([1, 2, 0]), np.array([2, 0, 1])
    return tuple(3 * side[:, None] + part for side, part in ((i, nxt), (j, after), (i, after), (j, nxt)))


def _pair_cross_norms(vectors: np.ndarray) -> np.ndarray:
    """Frobenius norms of [X_i, X_j] for every pair i < j of qubit matrices given by a (..., k, 3) stack of Pauli vectors.

    With X = x_0 I + r.sigma, [X_i, X_j] = 2i (r_i x r_j).sigma, so each pair
    takes one cross product and no 2x2 matrix product; pairs and leading axes
    are those of :func:`pair_commutator_norms`. Each operand of
    (a x b)_m = a_{m+1} b_{m+2} - a_{m+2} b_{m+1} is one ``take`` from the
    flattened vectors, which returns a C-ordered (..., P, 3) array, so the
    products and the later reshape run on contiguous memory (fancy indexing
    on the last axis would return it F-ordered, and the reshape would copy).

    The vectors' dtype picks the arithmetic. Complex vectors (non-Hermitian
    traceless parts) send all cross products through one 2-d product with the
    exact weights of :data:`_TWO_I_PAULIS` into commutators, whose norms come
    from :func:`_frobenius_norms`. Per pair and leading index that route holds
    at most three operands at once (144 bytes), then the 64-byte commutator,
    the 64 bytes of its squared float parts and the 32 bytes of their first
    sums: a one-step call peaks at 161 bytes per pair (tracemalloc, k = 64)
    and a 34-step call at 162 (k = 8). Real (float64) vectors take
    :func:`_real_cross_norms`, which gives the same bits from the real cross
    products and peaks at 72 bytes per pair (its three operands), at k = 8
    and k = 64 alike. Every row's bits are those of the call on its own
    stack, and a real stack's are those of the same stack made complex.
    """
    k = vectors.shape[-2]
    a1, b2, a2, b1 = _cross_indices(k)
    flat = vectors.reshape(*vectors.shape[:-2], 3 * k)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed product is the kernel's ValueError
        cross = flat.take(a1, axis=-1)
        cross *= flat.take(b2, axis=-1)
        other = flat.take(a2, axis=-1)
        other *= flat.take(b1, axis=-1)
        cross -= other
        del other
        if cross.dtype == np.float64:
            return _real_cross_norms(cross)
        comm = cross.reshape(-1, 3) @ _TWO_I_PAULIS
    shape = cross.shape[:-1]
    del cross
    return _frobenius_norms(comm.reshape(-1, 2, 2)).reshape(shape)


def _real_cross_norms(cross: np.ndarray) -> np.ndarray:
    """Frobenius norms of the commutators 2i c.sigma of a (..., P, 3) float64 stack of real cross products c.

    The float parts of 2i c.sigma, row-major, are (0, 2c_z, 2c_y, 2c_x,
    -2c_y, 2c_x, 0, -2c_z), so :func:`_sumsq`'s
    ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)) is (A + A) with
    A = (2c_z)^2 + ((2c_y)^2 + (2c_x)^2): adding 0 and doubling are exact,
    and so is the sign of -2c_y under squaring. The plain sum is thus
    2 ((2c_z)^2 + ((2c_y)^2 + (2c_x)^2)) bit for bit, with no commutator
    built. A member whose sum leaves [_SUMSQ_TINY, _SUMSQ_HUGE] or is not
    finite (a zero or tiny commutator, one near the float range's top, an
    overflowed or NaN product) takes the complex route, ``c @ _TWO_I_PAULIS``
    and :func:`_frobenius_norms`, on its own, so rescaled norms and the
    overflow ValueError are those of the complex route; when every such
    member is an exactly zero cross product, its norm, 0, is already that
    route's, and none is taken. The caller silences the numpy warnings.
    """
    doubled = cross + cross
    doubled *= doubled
    sumsq = doubled[..., 2] + (doubled[..., 1] + doubled[..., 0])
    del doubled
    sumsq += sumsq
    norms = np.sqrt(sumsq)
    if sumsq.size and not (sumsq.max() <= _SUMSQ_HUGE and sumsq.min() >= _SUMSQ_TINY):
        rescale = ~((sumsq >= _SUMSQ_TINY) & (sumsq <= _SUMSQ_HUGE))
        members = cross[rescale]
        if members.any():
            norms[rescale] = _frobenius_norms((members @ _TWO_I_PAULIS).reshape(-1, 2, 2))
    return norms


def _sumsq(stack: np.ndarray) -> np.ndarray:
    """Plain sums of squared entry moduli of the members of an (m, r, c) stack, in numpy's row-reduction order.

    Each member's real and imaginary parts are squared and summed along its
    row in the order of numpy's pairwise row reduction, whatever the BLAS
    thread count. A row of 8, a 2x2 member, is summed as
    ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)) by three strided adds, the
    reduction's own order without its per-row cost. The float view needs
    contiguous rows, which a caller's strided view, such as a reversed
    slice, may not have. No scaling: a sum may underflow or overflow (see
    :func:`_frobenius_norms`).
    """
    parts = np.ascontiguousarray(stack).reshape(len(stack), stack.shape[-2] * stack.shape[-1]).view(np.float64)
    squares = parts * parts
    if squares.shape[1] != 8:
        return squares.sum(axis=1)
    sums = squares[:, 0::2] + squares[:, 1::2]
    del squares
    sums = sums[:, 0::2] + sums[:, 1::2]
    return sums[:, 0] + sums[:, 1]


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of the members of an (m, r, c) stack: the norm kernel of the package.

    :func:`_real_cross_norms` reproduces its plain sums, bit for bit, for the
    commutators of real Pauli vectors, and hands it every other member.

    A member whose plain sum of squares falls outside [_SUMSQ_TINY,
    _SUMSQ_HUGE] takes the same sum, in the same row-reduction order, of
    its float parts shifted by 2^-e, where 2^e is the power of two just
    above its largest part (``np.frexp``); the square root is shifted back
    by 2^e. Shifts by powers of two are exact, so a norm has one definition
    at every scale: the norms of 2^k X are 2^k times those of X, bit for
    bit, unless a part, square or norm of either falls below the normal
    float range. An exactly zero member has e = 0 and norm 0, with no
    guard. The numpy warnings of squares that leave the float range are
    silenced here, as handling that range is the kernel's job. Raises
    ValueError if an entry or a norm overflowed (is not finite).
    """
    # The range test is one max and one min reduction; NaN fails it, as its
    # comparisons are false. The first max or min reduction of a process maps
    # ~64 kB of numpy code once, which the damping run's worst-pair max shares.
    # An all-zero stack, such as the exact completeness defect of most
    # damping channels, already has its exact norms, 0, and skips the
    # rescale.
    with np.errstate(over="ignore", invalid="ignore"):
        sumsq = _sumsq(stack)
        norms = np.sqrt(sumsq)
        if sumsq.size and not (sumsq.max() <= _SUMSQ_HUGE and sumsq.min() >= _SUMSQ_TINY) and stack.any():
            rescale = ~((sumsq >= _SUMSQ_TINY) & (sumsq <= _SUMSQ_HUGE))
            parts = stack[rescale].reshape(-1, stack.shape[1] * stack.shape[2]).view(np.float64)
            _, exponent = np.frexp(np.abs(parts).max(axis=1, keepdims=True))
            scaled = np.ldexp(parts, -exponent)
            norms[rescale] = np.ldexp(np.sqrt((scaled * scaled).sum(axis=1)), exponent[:, 0])
            if not np.isfinite(norms).all():
                raise ValueError("matrix entries or their norm overflow the float range")
    return norms
