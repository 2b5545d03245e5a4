"""Finite-dimensional resonance sector spanned by Gamow vectors.

Each resonance carries a pair of generalized eigenvectors: a decaying one
|psi_j^D) with complex energy z_j = E_j - i Gamma_j / 2 and a growing one
|psi_j^G) with z_j^*. N resonances span a 2N-dimensional space with the
indefinite pairing

    (psi | phi) = <psi| A |phi>,

where A is block diagonal with 2x2 antidiagonal blocks [[0, 1], [1, 0]].
The pairing makes the D and G vectors mutually dual:

    (psi_i^D | psi_j^G) = (psi_i^G | psi_j^D) = delta_ij,
    (psi_i^D | psi_j^D) = (psi_i^G | psi_j^G) = 0.

Coordinate convention (fixed here, one consistent realization among many):
round kets are unit coordinate vectors, |psi_j^D) -> e_{2j-1} and
|psi_j^G) -> e_{2j} (1-based), in the listing order D1, G1, D2, G2, ...
Round bras act through the metric, (psi| = <psi| A, which turns the dyad
|psi_j^D)(psi_j^G| into the unit matrix at diagonal slot (2j-1, 2j-1) and
|psi_j^G)(psi_j^D| into the unit at (2j, 2j).

The pairing is conjugate-linear in its left argument. The duality table
above is real, so it cannot distinguish the two conventions; conjugate
linearity is what <psi| A |phi> literally reads as. Mind this when feeding
complex coefficient vectors.

``root_b`` is the principal square root of A obtained by tiling each 2x2
box with

    e^{-i pi/4} * (sqrt(2)/2) * [[i, 1], [1, i]]  =  (1/2) [[1+i, 1-i],
                                                            [1-i, 1+i]],

and ``root_c`` is its adjoint, the other square root (B^dag B^dag =
(B B)^dag = A^dag = A). The other branch of (-i)^(1/2) would square
correctly too; the principal branch is fixed so B is reproducible
bit for bit. The roots transport plain (angular-bracket) Gamow vectors
to round ones: B |psi_j^D> = |psi_j^D) and |psi_j^G) = C |psi_j^G>,
with the matching bras transported by the same factors, so that
sandwiching a plain dyad between B...B (or C...C) collapses onto the
corresponding round dyad.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Resonance",
    "GamowSpace",
    "new_space",
    "basis_vector",
    "pseudo_product",
    "MAX_RESONANCES",
]

MAX_RESONANCES = 64  # new_space's cap; scenario files supply the resonances

_SWAP_BOX = np.array([[0, 1], [1, 0]], dtype=complex)
_ROOT_BOX = np.exp(-1j * np.pi / 4) * (np.sqrt(2) / 2) * np.array([[1j, 1], [1, 1j]])
# B (C E C) B with E the unit at the D slot: one resonance's round dyad |D)(G|
# rebuilt through the root transport of a plain dyad (see semigroup_via_roots).
_ROUND_D_BOX = _ROOT_BOX @ np.outer(_ROOT_BOX.conj()[0], _ROOT_BOX.conj()[:, 0]) @ _ROOT_BOX


@dataclass(frozen=True)
class Resonance:
    """A resonance pole pair, parametrized by real energy and width > 0.

    Construction errors start with the offending field: ``width: ...``.
    """

    energy: float
    width: float

    def __post_init__(self) -> None:
        for name in ("energy", "width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name}: must be a finite number, got {value!r}")
        if self.width <= 0:
            raise ValueError(f"width: must be positive (> 0), got {self.width}")

    @property
    def pole(self) -> complex:
        """Lower-half-plane pole z = E - i Gamma / 2 (the decaying one)."""
        return complex(self.energy, -self.width / 2.0)

    @property
    def conjugate_pole(self) -> complex:
        """Upper-half-plane pole z^* = E + i Gamma / 2 (the growing one)."""
        return complex(self.energy, self.width / 2.0)


@dataclass(frozen=True)
class GamowSpace:
    """The 2N-dimensional pseudometric space of N resonances.

    Attributes:
        resonances: the N resonances, in basis order.
        poles, widths: the N decaying poles z_j and widths Gamma_j, in basis order.

    Properties, each a new 2N x 2N array tiled from its 2x2 box:
        metric: the block-antidiagonal pairing matrix A (A @ A = I).
        root_b: principal square root B of A.
        root_c: adjoint square root C = B^dag, also with C @ C = A.
    """

    resonances: tuple[Resonance, ...]
    poles: np.ndarray = field(repr=False)
    widths: np.ndarray = field(repr=False)

    @property
    def metric(self) -> np.ndarray:
        return np.kron(np.eye(self.n_resonances), _SWAP_BOX)

    @property
    def root_b(self) -> np.ndarray:
        return np.kron(np.eye(self.n_resonances), _ROOT_BOX)

    @property
    def root_c(self) -> np.ndarray:
        return self.root_b.conj().T

    @property
    def n_resonances(self) -> int:
        return len(self.resonances)

    @property
    def dim(self) -> int:
        return 2 * len(self.resonances)


def new_space(resonances) -> GamowSpace:
    """Build the pseudometric space for a list of at most MAX_RESONANCES resonances."""
    res = tuple(resonances)
    if len(res) == 0:
        raise ValueError("at least one resonance is required")
    if len(res) > MAX_RESONANCES:
        raise ValueError(f"{len(res)} resonances exceed the cap of {MAX_RESONANCES}")
    for r in res:
        if not isinstance(r, Resonance):
            raise TypeError(f"expected Resonance, got {type(r).__name__}")
    poles, widths = np.array([r.pole for r in res], dtype=complex), np.array([r.width for r in res], dtype=float)
    return GamowSpace(resonances=res, poles=poles, widths=widths)


def basis_vector(space: GamowSpace, j: int, kind: str) -> np.ndarray:
    """Coordinate vector of the round ket |psi_j^D) or |psi_j^G), j being 1-based."""
    if not 1 <= j <= space.n_resonances:
        raise ValueError(f"resonance index {j} out of range 1..{space.n_resonances}")
    k = kind.upper() if isinstance(kind, str) else kind
    if k not in ("D", "G"):
        raise ValueError(f"basis kind must be 'D' or 'G', got {kind!r}")
    vec = np.zeros(space.dim, dtype=complex)
    vec[2 * (j - 1) + (k == "G")] = 1.0
    return vec


def _as_vector(space: GamowSpace, v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1 or arr.shape[0] != space.dim:
        raise ValueError(f"expected a vector of length {space.dim}, got shape {np.shape(v)}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("vector entries must be finite")
    return arr


def pseudo_product(space: GamowSpace, v, w) -> complex:
    """Indefinite pairing (v | w) = v^dag A w, conjugate-linear in ``v``; A swaps each D and G slot."""
    v = _as_vector(space, v)
    w = _as_vector(space, w)
    return complex(v.conj() @ w.reshape(-1, 2)[:, ::-1].ravel())
