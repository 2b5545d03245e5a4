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

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Resonance",
    "GamowSpace",
    "new_space",
    "basis_vector",
    "pseudo_product",
    "dyad",
    "basis_index",
    "DEFAULT_MAX_RESONANCES",
]

DEFAULT_MAX_RESONANCES = 64

_ROOT_BOX = np.exp(-1j * np.pi / 4) * (np.sqrt(2) / 2) * np.array([[1j, 1], [1, 1j]])


@dataclass(frozen=True)
class Resonance:
    """A resonance pole pair, parametrized by real energy and width > 0.

    Construction errors start with the offending field: ``width: ...``.
    """

    energy: float
    width: float

    def __post_init__(self) -> None:
        for name in ("energy", "width"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
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
        metric: the 2N x 2N block-antidiagonal pairing matrix A (A @ A = I).
        root_b: principal square root B of A.
        root_c: adjoint square root C = B^dag, also with C @ C = A.
    """

    resonances: tuple[Resonance, ...]
    metric: np.ndarray = field(repr=False)
    root_b: np.ndarray = field(repr=False)
    root_c: np.ndarray = field(repr=False)

    @property
    def n_resonances(self) -> int:
        return len(self.resonances)

    @property
    def dim(self) -> int:
        return 2 * len(self.resonances)

    @property
    def poles(self) -> tuple[complex, ...]:
        return tuple(r.pole for r in self.resonances)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(r.width for r in self.resonances)


def new_space(resonances, max_resonances: int = DEFAULT_MAX_RESONANCES) -> GamowSpace:
    """Build the pseudometric space for a list of resonances."""
    res = tuple(resonances)
    if len(res) == 0:
        raise ValueError("at least one resonance is required")
    if len(res) > max_resonances:
        raise ValueError(f"{len(res)} resonances exceed the cap of {max_resonances}")
    for r in res:
        if not isinstance(r, Resonance):
            raise TypeError(f"expected Resonance, got {type(r).__name__}")
    n = len(res)
    metric = np.zeros((2 * n, 2 * n), dtype=complex)
    root_b = np.zeros((2 * n, 2 * n), dtype=complex)
    box = np.array([[0, 1], [1, 0]], dtype=complex)
    for j in range(n):
        sl = slice(2 * j, 2 * j + 2)
        metric[sl, sl] = box
        root_b[sl, sl] = _ROOT_BOX
    return GamowSpace(resonances=res, metric=metric, root_b=root_b, root_c=root_b.conj().T)


def basis_index(space: GamowSpace, j: int, kind: str) -> int:
    """0-based coordinate index of |psi_j^D) or |psi_j^G), j being 1-based."""
    if not 1 <= j <= space.n_resonances:
        raise ValueError(f"resonance index {j} out of range 1..{space.n_resonances}")
    k = kind.upper() if isinstance(kind, str) else kind
    if k == "D":
        return 2 * (j - 1)
    if k == "G":
        return 2 * (j - 1) + 1
    raise ValueError(f"basis kind must be 'D' or 'G', got {kind!r}")


def basis_vector(space: GamowSpace, j: int, kind: str) -> np.ndarray:
    """Coordinate vector of the round ket |psi_j^D) or |psi_j^G)."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[basis_index(space, j, kind)] = 1.0
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
    """Indefinite pairing (v | w) = v^dag A w, conjugate-linear in ``v``."""
    v = _as_vector(space, v)
    w = _as_vector(space, w)
    return complex(v.conj() @ (space.metric @ w))


def dyad(space: GamowSpace, left: tuple[int, str], right: tuple[int, str]) -> np.ndarray:
    """Matrix of |left)(right| in coordinates, the round bra acting via the metric.

    ``left`` and ``right`` are (j, kind) pairs with 1-based j and kind 'D'
    or 'G'. The round bra (x| sends w to (x | w), so the matrix is the
    outer product of e_left with the metric-partner row of e_right; for
    the dual pairs this lands on the diagonal:
    |psi_j^D)(psi_j^G| -> unit at (2j-1, 2j-1),
    |psi_j^G)(psi_j^D| -> unit at (2j, 2j) (1-based).
    """
    li = basis_index(space, *left)
    ri = basis_index(space, *right)
    # A swaps the D and G slots inside each block: e_r^dag A = e_partner^dag.
    partner = ri + 1 if ri % 2 == 0 else ri - 1
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[li, partner] = 1.0
    return mat


