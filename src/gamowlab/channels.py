"""Quantum operations in the Schrodinger and Heisenberg pictures.

A channel is a finite Kraus family {E_mu} with the completeness property
sum_mu E_mu^dag E_mu = I (trace preservation of the Schrodinger map).
Its Heisenberg dual

    O  ->  sum_mu E_mu^dag O E_mu

preserves every mean value Tr(rho(t) O) = Tr(rho_0 O(t)).

The amplitude damping channel on a qubit,

    E0 = [[1, 0       ],      E1 = [[0, sqrt(p)],
          [0, sqrt(1-p)]],          [0, 0      ]],

is the worked example of a commutation process: iterating its dual sends
every observable to a multiple of the identity, so any initially
non-commuting family becomes commuting in the limit.

Each channel carries its Liouville superoperator, one d^2 x d^2 matrix, so
a whole (k, d, d) stack of observables takes a step with one matrix
product.

The per-step probability p and the iteration count n are the primitive
parameters here; no relation between p and a physical interval tau is
imposed (calibrating p against a decay time is left to the caller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cmatrix import _PAULIS, as_complex_matrix, frobenius_norm

__all__ = [
    "KrausChannel",
    "DensityMatrix",
    "damping_channel",
    "apply_schrodinger",
    "apply_heisenberg",
    "iterate_heisenberg",
    "damping_closed_form",
    "damping_limit",
]

COMPLETENESS_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A finite Kraus family on a d-dimensional system.

    Attributes:
        dim: Hilbert-space dimension d.
        kraus: tuple of d x d complex matrices E_mu.
        superop: the d^2 x d^2 Heisenberg superoperator
            S = sum_mu E_mu^dag (x) E_mu^T, so that vec(sum_mu E_mu^dag O E_mu)
            = S vec(O) with row-major vec (Wood, Biamonte and Cory,
            arXiv:1111.6950). Its adjoint S^dag is the Schrodinger map.
    """

    dim: int
    kraus: tuple[np.ndarray, ...]
    superop: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"channel dimension must be positive, got {self.dim}")
        if len(self.kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = tuple(as_complex_matrix(k) for k in self.kraus)
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator of shape {k.shape} does not match dimension {self.dim}"
                )
        total = sum(k.conj().T @ k for k in ops)
        defect = frobenius_norm(total - np.eye(self.dim))
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus operators are not complete: sum E^dag E deviates from the identity "
                f"by {defect:.3e}"
            )
        object.__setattr__(self, "kraus", ops)
        # (E^dag (x) E^T)[(i, j), (k, l)] = conj(E[k, i]) E[l, j], as a broadcast product
        d2 = self.dim * self.dim
        superop = sum(
            (k.conj().T[:, None, :, None] * k.T[None, :, None, :]).reshape(d2, d2) for k in ops
        )
        object.__setattr__(self, "superop", superop)


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, unit trace, nonnegative spectrum.

    The eigenvalue floor is checked on the Hermitian part with LAPACK's
    Hermitian eigensolver (``numpy.linalg.eigvalsh``), tolerating -1e-10
    of numerical leakage.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if frobenius_norm(m - m.conj().T) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m):.6g}, expected 1")
        smallest = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
        if smallest < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def damping_channel(p: float) -> KrausChannel:
    """Amplitude damping channel with decay probability ``p``.

    E0 = [[1, 0], [0, sqrt(1-p)]], E1 = [[0, sqrt(p)], [0, 0]].
    p = 0 gives the identity channel.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping probability must lie in [0, 1], got {p}")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(dim=2, kraus=(e0, e1))


def apply_schrodinger(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schrodinger-picture action sum_mu E_mu rho E_mu^dag, as S^dag vec(rho)."""
    if rho.dim != ch.dim:
        raise ValueError(f"state dimension {rho.dim} does not match channel dimension {ch.dim}")
    out = ch.superop.conj().T @ rho.mat.reshape(-1)
    return DensityMatrix(out.reshape(ch.dim, ch.dim))


def _heisenberg(superop: np.ndarray, dim: int, obs) -> np.ndarray:
    """vec(O) -> superop vec(O) on one (d, d) observable or a (k, d, d) stack.

    The step is the mean of S(O) and S(O^dag)^dag, two (k, d^2) @ (d^2, d^2)
    products, both S(O) in exact arithmetic since the dual of a channel
    preserves Hermiticity. The mean is one linear formula for every input,
    commutes with the adjoint bit for bit, and so is exactly Hermitian for
    a Hermitian input.
    """
    obs = np.asarray(obs, dtype=np.complex128)
    if obs.ndim not in (2, 3) or obs.shape[-2:] != (dim, dim):
        raise ValueError(f"observable shape {obs.shape} does not match channel dimension {dim}")
    # One dot product stands in for the entrywise finiteness scan on the
    # common path, which matters to callers that step one small observable at
    # a time through apply_heisenberg, where per-call numpy overhead, not the
    # product, sets the cost. The dot product is finite exactly when the
    # entries are, unless their squares overflow; the entrywise check settles
    # that rare case. Only then can the step itself overflow, which it
    # reports without numpy warnings.
    if math.isfinite(np.vdot(obs, obs).real):
        return _heisenberg_step(superop, dim, obs)
    if not np.isfinite(obs).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _heisenberg_step(superop, dim, obs)
    if not np.isfinite(out).all():
        raise ValueError("evolved observable entries overflow the float range")
    return out


def _heisenberg_step(superop: np.ndarray, dim: int, obs: np.ndarray) -> np.ndarray:
    """The mean of S(O) and S(O^dag)^dag of :func:`_heisenberg` on a checked complex stack."""
    adjoint = obs.conj().swapaxes(-1, -2)
    out = (obs.reshape(-1, dim * dim) @ superop.T).reshape(obs.shape)
    out += (adjoint.reshape(-1, dim * dim) @ superop.T).reshape(obs.shape).conj().swapaxes(-1, -2)
    out *= 0.5
    return out


def _pauli_transfer(ch: KrausChannel) -> np.ndarray:
    """The real 3x3 block T_ij = Tr(sigma_i S(sigma_j)) / 2 of a qubit channel's Pauli transfer matrix.

    The Heisenberg dual S maps the traceless part r.sigma of any observable
    to (T r).sigma plus a multiple of the identity (Nielsen and Chuang,
    section 8.3). For amplitude damping T = diag(sqrt(1-p), sqrt(1-p), 1-p).
    """
    return (_PAULIS.conj() @ ch.superop @ _PAULIS.T).real * 0.5


def apply_heisenberg(ch: KrausChannel, obs) -> np.ndarray:
    """Heisenberg dual action sum_mu E_mu^dag O E_mu, as S vec(O).

    ``obs`` is one (d, d) observable or a (k, d, d) stack, evolved by
    products with the channel's superoperator; the result has the same
    shape. The step is exactly linear and, by S(O)^dag = S(O^dag), commutes
    with the adjoint bit for bit, so Hermitian inputs give exactly
    Hermitian outputs.
    """
    return _heisenberg(ch.superop, ch.dim, obs)


def iterate_heisenberg(ch: KrausChannel, obs, n: int) -> np.ndarray:
    """n-fold composition of the Heisenberg dual; n = 0 returns obs.

    S^n comes from ``np.linalg.matrix_power`` (repeated squaring), so the cost
    grows with log n; a negative n, which it would invert, is refused.
    """
    if n < 0:
        raise ValueError(f"iteration count must be nonnegative, got {n}")
    return _heisenberg(np.linalg.matrix_power(ch.superop, n), ch.dim, obs)


def damping_closed_form(p: float, n: int, obs) -> np.ndarray:
    """Closed form of the n-fold damped Heisenberg evolution of a qubit observable.

    [[O00,               sqrt(1-p)^n O01                ],
     [sqrt(1-p)^n O10,   (1-p)^n O11 + O00 (1-(1-p)^n)  ]]
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping probability must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"iteration count must be nonnegative, got {n}")
    obs = as_complex_matrix(obs)
    if obs.shape != (2, 2):
        raise ValueError(f"closed form needs a 2x2 observable, got shape {obs.shape}")
    half = np.sqrt(1.0 - p) ** n
    full = (1.0 - p) ** n
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = obs[0, 0]
    out[0, 1] = half * obs[0, 1]
    out[1, 0] = half * obs[1, 0]
    out[1, 1] = full * obs[1, 1] + obs[0, 0] * (1.0 - full)
    return out


def damping_limit(obs) -> np.ndarray:
    """n -> infinity limit of the damped evolution: O00 times the identity.

    This is the limit for every p in (0, 1]; at p = 0 the channel is the
    identity map and nothing converges.
    """
    obs = as_complex_matrix(obs)
    if obs.shape != (2, 2):
        raise ValueError(f"damping limit needs a 2x2 observable, got shape {obs.shape}")
    return obs[0, 0] * np.eye(2, dtype=complex)
