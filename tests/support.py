"""Shared random factories and fixed matrices for the test suite."""

import numpy as np

from gamowlab import commutators
from gamowlab.channels import damping_channel
from gamowlab.cmatrix import _TWO_I_PAULIS, _frobenius_norms, _pairs, commutator, frobenius_norm
from gamowlab.commutators import UNDERFLOW_FLOOR
from gamowlab.evolution import EvolutionVariant, evolution_operator
from gamowlab.gamow import Resonance, new_space
from gamowlab.qlattice import RANK_CUTOFF, Projector

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

P_ZERO = np.array([[1, 0], [0, 0]], dtype=complex)
P_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
P_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def pauli_vector(obs):
    """Independent oracle for a 2x2 matrix: r = ((O01 + O10)/2, i(O01 - O10)/2, (O00 - O11)/2), so O = (Tr O / 2) I + r.sigma."""
    return np.array([(obs[0, 1] + obs[1, 0]) / 2, 1j * (obs[0, 1] - obs[1, 0]) / 2, (obs[0, 0] - obs[1, 1]) / 2])


def strided_pair_cross_norms(vectors):
    """Reference for ``cmatrix._pair_cross_norms``: its earlier form, one gather per pair side and each cross-product component written through a stride-3 view.

    The current kernel must give these bits: the same products, subtraction,
    commutator weights and norm kernel, in another memory layout.
    """
    i, j = _pairs(vectors.shape[-2])
    a, b = vectors[..., i, :], vectors[..., j, :]
    cross = np.empty(a.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, nxt, after in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(a[..., nxt], b[..., after], out=cross[..., m])
            cross[..., m] -= a[..., after] * b[..., nxt]
        comm = cross.reshape(-1, 3) @ _TWO_I_PAULIS
    return _frobenius_norms(comm.reshape(-1, 2, 2)).reshape(cross.shape[:-1])


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def random_hermitian(rng, dim, scale=1.0):
    m = random_complex(rng, (dim, dim), scale)
    return (m + m.conj().T) / 2.0


def random_density(rng, dim):
    g = random_complex(rng, (dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_family(rng, dim, n_ops=2):
    """A random completeness-normalized Kraus family."""
    raw = [random_complex(rng, (dim, dim)) for _ in range(n_ops)]
    total = sum(g.conj().T @ g for g in raw)
    vals, vecs = np.linalg.eigh(total)
    inv_half = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return [g @ inv_half for g in raw]


def random_projector(rng, dim, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim))
    u = random_unitary(rng, dim)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def span_projector(vectors):
    """The projector onto the span of a vector, or of a sequence of vectors given as rows."""
    u, s, _ = np.linalg.svd(np.atleast_2d(np.asarray(vectors, dtype=complex)).T, full_matrices=False)
    basis = u[:, s > RANK_CUTOFF]
    return Projector(basis @ basis.conj().T)


def generator(space, growing=True):
    """The diagonal generator of the Gamow sector: z_j at each D slot, z_j^* (or 0 if not ``growing``) at each G slot."""
    diag = np.zeros(space.dim, dtype=complex)
    diag[0::2] = space.poles
    if growing:
        diag[1::2] = space.poles.conj()
    return np.diag(diag)


def factored_snapshot(space, o1, o2, t):
    """The single-resonance factored form e^{-t Gamma} U(t) [O1, O2] U(t) of the HERMITIAN variant.

    It replaces U(t)^2 by e^{-t Gamma} I, so it equals the evolved commutator
    when the energy is zero and carries diagonal phases e^{-+2 i t E} otherwise.
    """
    u = evolution_operator(space, t, EvolutionVariant.HERMITIAN).diag
    return np.exp(-t * space.widths[0]) * (u[:, None] * commutator(o1, o2) * u)


def block_xy_pair(rng, n_res):
    """Per-resonance real combinations of sigma_x and sigma_y.

    The commutator of two such observables is diagonal in every 2x2
    block, so the evolved commutator stays diagonal for any energies.
    """
    dim = 2 * n_res
    o1 = np.zeros((dim, dim), dtype=complex)
    o2 = np.zeros((dim, dim), dtype=complex)
    for j in range(n_res):
        a, b, c, d = rng.normal(size=4)
        sl = slice(2 * j, 2 * j + 2)
        o1[sl, sl] = a * SIGMA_X + b * SIGMA_Y
        o2[sl, sl] = c * SIGMA_X + d * SIGMA_Y
    return o1, o2


def per_time_ansatz(space, traj, k):
    """The reference: diagonal coefficients and residual of grid index k, one matrix at a time."""
    t, val, total = traj.times[k], traj.values[k], traj.norms[k]
    scale = np.exp(2.0 * t * space.widths)
    if total <= UNDERFLOW_FLOOR:
        residual = 0.0
    else:
        off = val.copy()
        np.fill_diagonal(off, 0.0)
        residual = min(1.0, frobenius_norm(off) / total)
    return scale * np.diagonal(val)[0::2], scale * np.diagonal(val)[1::2], residual


def chunk_calls(run, *args):
    """Run ``run(*args)``; return the (item_bytes, slices) of every ``commutators._chunks`` call it made.

    ``item_bytes`` counts the bytes a call reserves for every chunk besides its
    items: it is what a chunk of one item holds.
    """
    calls, chunks = [], commutators._chunks
    def recorded(n_items, item_bytes, reserved_bytes=0):
        slices = list(chunks(n_items, item_bytes, reserved_bytes))
        calls.append((reserved_bytes + item_bytes, slices))
        return iter(slices)
    commutators._chunks = recorded
    try:
        run(*args)
    finally:
        commutators._chunks = chunks
    return calls


def chunk_length(dim):
    """Grid times in a full chunk of a (dim, dim) trajectory: the first slice ``commutators._chunks`` cuts from a grid longer than any chunk."""
    space = new_space([Resonance(0.0, 1.0)] * (dim // 2))
    eye = np.eye(dim, dtype=complex)
    grid = np.arange(commutators.CHUNK_BYTES // (16 * dim**2) + 2.0)  # a chunk holds its commutators at least
    ((_, slices),) = chunk_calls(commutators.trajectory, space, eye, eye, grid)
    return slices[0].stop


def damping_chunk_length(k, hermitian):
    """Steps in a full chunk of a damping run of k observables: the first slice ``commutators._chunks`` cuts from a run longer than any chunk.

    Hermitian observables have real Pauli vectors; the others, here i sigma_x, complex ones.
    """
    observables = np.array([SIGMA_X if hermitian else 1j * SIGMA_X] * k)
    n_max = commutators.CHUNK_BYTES // (24 * k)  # a step holds its k real vectors at least
    ((_, slices),) = chunk_calls(commutators._damping_norms, damping_channel(0.5), observables, n_max)
    return slices[0].stop
