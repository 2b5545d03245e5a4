"""Both commutator series: resonance trajectories with their envelope fits and diagonal-form reports, and damping norms.

The central object is the trajectory of [O1(t), O2(t)] under a chosen
evolution variant, where O(t) = heisenberg_evolve(U(t), O). The HERMITIAN
variant is the default for commutator studies; INVERTIBLE is kept for the
growth counterexample.

Every variant conjugates by diagonals, O(t) = U O U# with U = diag(u) and
U# = diag(v), so W = U# U = diag(w), w = u v, and

    [U O1 U#, U O2 U#] = U (O1 W O2 - O2 W O1) U# = U (sum_b w_b M_b) U#,
    M_b[a, c] = O1_ab O2_bc - O2_ab O1_bc,

where the tensor M does not depend on t. The grid is walked in chunks of
consecutive times, one evolution operator over each chunk's times. Where
M and one grid time's arrays fit in :data:`CHUNK_BYTES` together (d <= 20),
M is built once and a chunk's commutators take one GEMM, (c, d) @ (d, d^2),
and one stacked conjugation. Larger d, and runs whose M or evolved
observables could pass the float range, keep both observables evolved as
stacks and two stacked products per chunk. The norms come from the norm
kernel. :func:`trajectory` stacks the chunks; a scenario run reduces each
one as it comes, to its norms and :func:`ansatz_coefficients`.

The damping series lives here too: ``_damping_norms`` steps a qubit family's
Pauli vectors by a channel, a chunk of steps at a time, to worst-pair norms.
Both series size their chunks by :data:`CHUNK_BYTES`.

Exact structure for one resonance under the HERMITIAN conjugation, with
K = [O1, O2] and r = e^{-t Gamma}:

    [O1(t), O2(t)] = r^2 * [[K00,           phi P + conj(phi) Q],
                            [conj(...),     K11                ]],

where phi = e^{-2 i t E_R} and P + Q = K01 split by source (diagonal
versus off-diagonal parts of the factors). Consequences worth knowing:

* The diagonal coefficients alpha(t) = e^{+2 t Gamma} [O1(t),O2(t)]_DD
  and beta(t) are exactly time-independent: the energy phase cancels
  between the paired decay factors.
* Off-diagonal entries follow the envelope r^2 exactly only when the
  energy is zero or the entry vanishes; otherwise they oscillate inside
  the envelope.
* The factored form e^{-t Gamma} U(t) K U(t), which replaces U(t)^2 by
  e^{-t Gamma} I, agrees with the exact trajectory exactly when E_R = 0.
  Its diagonal coefficients carry the phases e^{-+ 2 i t E_R}; the exact
  ones do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, _pauli_transfer
from .cmatrix import _frobenius_norms, _pair_cross_norms, _pauli_vectors, as_complex_matrix
from .evolution import EvolutionVariant, _observable, _sharp_diag, evolution_operator, heisenberg_evolve
from .gamow import GamowSpace

__all__ = [
    "CommutatorTrajectory",
    "DecayFit",
    "AnsatzReport",
    "time_grid",
    "trajectory",
    "fit_window_start",
    "envelope_fit",
    "ansatz_coefficients",
    "ansatz_report",
    "phase_constancy_check",
    "growth_witness",
    "UNDERFLOW_FLOOR",
    "CHUNK_BYTES",
]

#: Norms at or below this are treated as zero when taking logs.
UNDERFLOW_FLOOR = 1e-280

#: :func:`phase_constancy_check` tolerances: the spread of |alpha(t)| and
#: |beta(t)| over the grid, and the deviation of arg alpha(t) from its line.
MODULUS_TOL = 1e-9
PHASE_TOL = 1e-6

#: Bytes that all the arrays of one chunk of either commutator series hold at
#: once, temporaries included; a chunk spans one grid time or step at least.
CHUNK_BYTES = 192 * 1024


@dataclass(frozen=True)
class CommutatorTrajectory:
    """Commutators [O1(t), O2(t)], stacked as one (T, d, d) array, and their norms."""

    space: GamowSpace
    times: np.ndarray
    values: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (t, log norm) points.

    ``max_abs_residual`` is the worst absolute deviation of the used
    points from the fitted line.
    """

    slope: float
    intercept: float
    max_abs_residual: float
    n_points: int


@dataclass(frozen=True)
class AnsatzReport:
    """Per-resonance diagonal coefficients of a commutator snapshot.

    ``alphas[j]`` and ``betas[j]`` are the diagonal entries at the D and G
    slots of resonance j+1, rescaled by e^{+2 t Gamma_j}. ``residual`` is
    the relative Frobenius distance from the commutator to its projection
    onto the diagonal dyad span {|D_j)(G_j|, |G_j)(D_j|}_j, in [0, 1]
    (zero when the commutator norm underflows). A nonzero residual
    measures the off-diagonal cross terms the diagonal form omits.
    """

    t: float
    alphas: np.ndarray
    betas: np.ndarray
    residual: float


def time_grid(times) -> np.ndarray:
    """The grid as a float array; it must be nonempty, 1-d and strictly increasing."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.diff(ts) > 0):
        raise ValueError("time grid must be a nonempty, strictly increasing 1-d sequence")
    return ts


def _chunks(n_items: int, item_bytes: int, reserved_bytes: int = 0):
    """Slices of consecutive indices, each spanning as many items of ``item_bytes`` as CHUNK_BYTES holds beside ``reserved_bytes``, one at least.

    ``item_bytes`` is all that one item has alive at the chunk's peak;
    ``reserved_bytes`` is what every chunk shares, alive throughout.
    """
    step = max(1, (CHUNK_BYTES - reserved_bytes) // item_bytes)
    return (slice(lo, min(lo + step, n_items)) for lo in range(0, n_items, step))


def _commutator_tensor(o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    """The time-independent tensor M of two (d, d) observables, as a C-ordered (d, d^2) array.

    Row b is M_b[a, c] = O1_ab O2_bc - O2_ab O1_bc, flattened. For a
    diagonal conjugation O(t) = U O U# with U# U = diag(w),
    [O1(t), O2(t)] = U (sum_b w_b M_b) U#. It is filled a row at a time,
    so that it holds no temporary of its own size. An entry past the float
    range is inf or nan, with no numpy warning.
    """
    dim = len(o1)
    tensor = np.empty((dim, dim, dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, row in enumerate(tensor):
            np.multiply(o1[:, b, None], o2[b], out=row)
            row -= o2[:, b, None] * o1[b]
    return tensor.reshape(dim, dim * dim)


def _commutator_chunks(space: GamowSpace, o1, o2, ts: np.ndarray, variant: EvolutionVariant):
    """Yield each chunk's slice of the grid ``ts``, its (c, d, d) commutators and their norms.

    The tensor path builds M once (:func:`_commutator_tensor`) and gives a
    chunk one GEMM, S = w @ M with w = u v the diagonals of U and U# over
    its times, then ``heisenberg_evolve`` of the stack S. It is taken where
    M (16 d^3 bytes) and one grid time's arrays fit in CHUNK_BYTES together,
    d <= 20, M counting against the budget and the chunks getting the rest;
    where M is finite; and where no entry u_a O_ab v_b of an evolved
    observable can pass the float range: |u| peaks at an end of the grid,
    and twice the bound peak^2 max|O| must be finite. Elsewhere each chunk
    evolves both observables and takes two stacked products. Both paths
    check each observable once, before one is chosen. An evolved
    entry or product past the float range reaches the commutators as inf or
    nan, with no numpy warning, and the norm kernel raises ValueError on it.
    """
    dim = space.dim
    # A grid time, with its consumer, holds up to seven (d, d) complex matrices' worth on the
    # product path: the two evolved observables, the commutator, one product, the norm
    # kernel's squared float parts (16 bytes per entry) and the copy ansatz_coefficients
    # makes, with its share of the small per-time arrays. On the tensor path it holds four
    # (S and its conjugation beside the consumer's last commutator, or later the commutator,
    # its squared parts and the copy) and four complex d-vectors' worth of diagonals and
    # coefficients; tracemalloc reads four matrices and up to 2.1 vectors at d = 2 to 16.
    tensor_time_bytes = 16 * (4 * dim**2 + 4 * dim)
    tensor = None
    o1, o2 = _observable(o1, dim), _observable(o2, dim)
    if 16 * dim**3 + tensor_time_bytes <= CHUNK_BYTES:
        with np.errstate(over="ignore", invalid="ignore"):
            peak = float(np.abs(evolution_operator(space, ts[[0, -1]], variant).diag).max())
        if math.isfinite(2.0 * peak * peak * float(max(np.abs(o1).max(), np.abs(o2).max()))):
            tensor = _commutator_tensor(o1, o2)
            if not np.isfinite(tensor).all():
                tensor = None
    if tensor is None:
        chunks = _chunks(ts.size, 7 * 16 * dim**2)
    else:
        chunks = _chunks(ts.size, tensor_time_bytes, tensor.nbytes)
    for chunk in chunks:
        with np.errstate(over="ignore", invalid="ignore"):
            op = evolution_operator(space, ts[chunk], variant)
            if tensor is None:  # each observable as a stack of itself, one per time, is not scanned again
                shape = (len(op.diag), dim, dim)
                a = heisenberg_evolve(op, np.broadcast_to(o1, shape))
                b = heisenberg_evolve(op, np.broadcast_to(o2, shape))
                comm = a @ b
                comm -= b @ a
            else:
                comm = heisenberg_evolve(op, ((op.diag * _sharp_diag(op)) @ tensor).reshape(-1, dim, dim))
        yield chunk, comm, _frobenius_norms(comm)


def _damping_norms(channel: KrausChannel, observables: np.ndarray, n_max: int) -> np.ndarray:
    """The worst pair's commutator norm of the (k, 2, 2) ``observables`` after each of 0..n_max channel steps.

    In Pauli coordinates a channel step maps each observable's traceless vector r
    by the channel's 3x3 transfer block, which for amplitude damping is diagonal:
    a step scales r. No cancellation against the identity part, which the
    commutators do not see, loses the decaying z component deep in the decay.
    """
    scale = _pauli_transfer(channel).diagonal()
    vectors = _pauli_vectors(observables)
    k = len(vectors)
    worst = np.empty(n_max + 1)
    # Per chunk of steps, a (steps, k, 3) block: row 0 holds the vectors at the
    # chunk's first step, the other rows hold scale, and one multiply.accumulate
    # fills in each step from the last; the next step after the last row goes on
    # to the next chunk. These are the same products in the same order as a loop
    # of steps. One cross-norm call per block gives its rows of norms. A step
    # holds its k vectors in the block (48 bytes each), and the budget counts
    # 192 bytes per pair for the cross-norm call, a bound on the 161 to 162
    # it peaks at (see its docstring).
    for chunk in _chunks(n_max + 1, 48 * k + 192 * k * (k - 1) // 2):
        block = np.empty((chunk.stop - chunk.start, *vectors.shape), dtype=np.complex128)
        block[0], block[1:] = vectors, scale
        np.multiply.accumulate(block, axis=0, out=block)
        vectors = block[-1] * scale
        worst[chunk] = _pair_cross_norms(block).max(axis=1)
    return worst


def trajectory(space: GamowSpace, o1, o2, times, variant=EvolutionVariant.HERMITIAN) -> CommutatorTrajectory:
    """[O1(t), O2(t)] at each grid time, a chunk of times at a time.

    For d <= 20 each chunk conjugates sum_b w_b(t) M_b, the time-independent
    commutator tensor weighted by W = U# U; for larger d, or where an evolved
    observable could pass the float range, it evolves both observables and
    commutes them (see the module docstring).
    """
    variant = EvolutionVariant(variant)
    ts = time_grid(times)
    values = np.empty((ts.size, space.dim, space.dim), dtype=complex)
    norms = np.empty(ts.size)
    for chunk, comm, chunk_norms in _commutator_chunks(space, o1, o2, ts, variant):
        values[chunk], norms[chunk] = comm, chunk_norms
    return CommutatorTrajectory(space=space, times=ts, values=values, norms=norms)


def fit_window_start(n_times: int, n_resonances: int, window_fraction: float | None = None) -> int:
    """Start index of the envelope fit's window: the trailing ``window_fraction`` of the grid.

    The default is the full grid for one resonance and the last half for several,
    so the slowest mode dominates. The window must hold two grid points or more.
    """
    if window_fraction is None:
        window_fraction = 1.0 if n_resonances == 1 else 0.5
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError(f"window fraction must lie in (0, 1], got {window_fraction}")
    start = int(round((1.0 - window_fraction) * (n_times - 1)))
    if n_times - start < 2:
        raise ValueError(f"window holds {n_times - start} grid point(s); the fit needs at least 2")
    return start


def _decay_fit(ts: np.ndarray, norms: np.ndarray, logs: np.ndarray) -> DecayFit:
    """Least-squares line of log norm versus time at the given increasing times.

    ``logs`` are the ``math.log`` of the ``norms``, as a resonance run writes
    them, so a run passes the ones it wrote: numpy's AVX-512 log rounds some
    of them one ulp apart. Points whose norm is at or below the underflow
    floor are dropped, whatever their log. The line is the centred two-pass
    closed form: slope = sum(dx dy) / sum(dx^2), with dx and dy the points
    less their means, from elementwise arithmetic and numpy row reductions
    only, so its bits follow no BLAS or LAPACK kernel. x is the time less the
    first usable one, over the usable span, and the slope is divided by that
    span after: x lies in [0, 1], so no sum or square leaves the float range
    at any grid offset or span. The logs are shifted by their first one
    before centring, so equal logs give dy = 0 and slope 0 exactly (the
    rounded mean of equal floats need not be that float).
    """
    usable = norms > UNDERFLOW_FLOOR
    if int(usable.sum()) < 2:
        raise ValueError("fewer than 2 usable points above the underflow floor; no fit")
    ts, logs = ts[usable], logs[usable]
    span = ts[-1] - ts[0]
    x, y = (ts - ts[0]) / span, logs - logs[0]
    dx, dy = x - x.mean(), y - y.mean()
    slope = (dx * dy).sum() / (dx * dx).sum() / span
    intercept = logs[0] + y.mean() - slope * (ts[0] + span * x.mean())
    resid = float(np.abs(logs - (slope * ts + intercept)).max())
    return DecayFit(slope=float(slope), intercept=float(intercept), max_abs_residual=resid, n_points=int(usable.sum()))


def envelope_fit(traj: CommutatorTrajectory, window_fraction: float | None = None) -> DecayFit:
    """The decay fit of the trajectory's norms on the :func:`fit_window_start` window; see :func:`_decay_fit`."""
    start = fit_window_start(traj.times.size, traj.space.n_resonances, window_fraction)
    norms = traj.norms[start:]
    logs = np.fromiter((math.log(norm) if norm > 0 else -math.inf for norm in norms.tolist()), float, norms.size)
    return _decay_fit(traj.times[start:], norms, logs)


def ansatz_coefficients(space: GamowSpace, times, commutators, norms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal coefficients and residuals of an (n, d, d) stack of commutators at n ``times``, with their ``norms``.

    Returns (alphas, betas, residuals) of shapes (n, N), (n, N) and (n,); row k
    holds what :class:`AnsatzReport` describes for ``times[k]``.
    """
    values = np.asarray(commutators)
    scale = np.exp(times[:, None] * (2.0 * space.widths))
    diagonal = np.diagonal(values, axis1=1, axis2=2)
    residuals = np.zeros(times.size)
    live = norms > UNDERFLOW_FLOOR
    off = values[live]
    off.reshape(-1, space.dim**2)[:, :: space.dim + 1] = 0.0
    residuals[live] = np.minimum(1.0, _frobenius_norms(off) / norms[live])
    return scale * diagonal[:, 0::2], scale * diagonal[:, 1::2], residuals


def ansatz_report(space: GamowSpace, traj: CommutatorTrajectory, k: int) -> AnsatzReport:
    """Extract the per-resonance diagonal coefficients at grid index ``k``."""
    if not 0 <= k < traj.times.size:
        raise ValueError(f"time index {k} out of range 0..{traj.times.size - 1}")
    row = slice(k, k + 1)
    alphas, betas, residuals = ansatz_coefficients(space, traj.times[row], traj.values[row], traj.norms[row])
    return AnsatzReport(t=float(traj.times[k]), alphas=alphas[0], betas=betas[0], residual=float(residuals[0]))


def phase_constancy_check(space: GamowSpace, traj: CommutatorTrajectory) -> bool:
    """Check the single-resonance claim that alpha(t) is a pure phase.

    True iff |alpha(t)| and |beta(t)| are constant over the grid to
    :data:`MODULUS_TOL` and arg alpha(t) advances linearly at angular rate
    -2 E_R (mod 2 pi) to :data:`PHASE_TOL`.

    Note: for the exact trajectory the diagonal coefficients are
    time-independent, so the phase clause holds only at E_R = 0. The
    stated rate is that of the factored form e^{-t Gamma} U(t) [O1, O2] U(t),
    whose diagonal coefficients rotate at -2 E_R; a trajectory built from
    such snapshots is checked as-is.
    """
    if space.n_resonances != 1:
        raise ValueError("phase constancy is a single-resonance check")
    alphas, betas, _ = ansatz_coefficients(space, traj.times, traj.values, traj.norms)
    alphas, betas = alphas[:, 0], betas[:, 0]
    for series in (alphas, betas):
        mods = np.abs(series)
        if mods.max() - mods.min() > MODULUS_TOL:
            return False
    if np.abs(alphas).max() <= UNDERFLOW_FLOOR:
        return True
    rate = -2.0 * space.resonances[0].energy
    expected = np.angle(alphas[0]) + rate * (traj.times - traj.times[0])
    deviation = np.angle(alphas * np.exp(-1j * expected))
    return bool(np.abs(deviation).max() <= PHASE_TOL)


def growth_witness(space: GamowSpace, obs, t: float) -> float:
    """Demonstrate the growing term of INVERTIBLE conjugation.

    Returns |O(t)[2,1]| / |O[2,1]| (1-based slots) for a single resonance,
    which equals e^{+t Gamma}: under the INVERTIBLE operator, the
    pseudo-adjoint conjugation U O U# = U(t) O U(-t) blows up the
    lower-left entry of an observable, the reason that variant is rejected
    for decay studies.
    """
    if space.n_resonances != 1:
        raise ValueError("growth witness is a single-resonance demonstration")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    obs = as_complex_matrix(obs)
    if obs.shape != (2, 2):
        raise ValueError(f"observable must be 2x2, got {obs.shape}")
    ref = abs(obs[1, 0])
    if ref == 0:
        raise ValueError("witness undefined: observable has zero lower-left entry")
    op = evolution_operator(space, t, EvolutionVariant.INVERTIBLE)
    evolved = heisenberg_evolve(op, obs)
    return float(abs(evolved[1, 0]) / ref)
