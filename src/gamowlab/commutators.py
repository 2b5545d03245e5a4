"""Commutator trajectories, decay-envelope fits and diagonal-form reports.

The central object is the trajectory of [O1(t), O2(t)] under a chosen
evolution variant, where O(t) = heisenberg_evolve(U(t), O). The HERMITIAN
variant is the default for commutator studies; INVERTIBLE is kept for the
growth counterexample.

The grid is walked in chunks of consecutive times whose (chunk, d, d)
stacks hold at most :data:`CHUNK_BYTES` each: one evolution operator over
the chunk's times, both observables evolved as stacks, the commutators
from two stacked products and their norms from batched inner products.
The diagonal-form coefficients (:func:`ansatz_coefficients`) are read off
the stored trajectory in the same chunks.

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
* The factored form e^{-t Gamma} U(t) K U(t) (see
  :func:`factored_commutator`) agrees with the exact trajectory exactly
  when E_R = 0, where U(t)^2 reduces to e^{-t Gamma} I. Its diagonal
  coefficients carry the phases e^{-+ 2 i t E_R}; the exact ones do not.
  Both routes are exposed so the difference can be measured instead of
  assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cmatrix import _commutator_norms, as_complex_matrix, commutator
from .evolution import EvolutionVariant, evolution_operator, heisenberg_evolve
from .gamow import GamowSpace

__all__ = [
    "CommutatorTrajectory",
    "DecayFit",
    "AnsatzReport",
    "time_grid",
    "trajectory",
    "factored_commutator",
    "fit_window_start",
    "envelope_fit",
    "ansatz_coefficients",
    "ansatz_report",
    "phase_constancy_check",
    "commutation_time",
    "growth_witness",
    "UNDERFLOW_FLOOR",
    "CHUNK_BYTES",
]

#: Norms at or below this are treated as zero when taking logs.
UNDERFLOW_FLOOR = 1e-280

#: Byte size of each (chunk, d, d) complex stack the chunked evaluation holds
#: at once: a chunk spans CHUNK_BYTES // (16 d^2) grid times, one at least.
CHUNK_BYTES = 16 * 1024


@dataclass(frozen=True)
class CommutatorTrajectory:
    """Commutators [O1(t), O2(t)], stacked as one (T, d, d) array, and their norms."""

    space: GamowSpace
    variant: EvolutionVariant
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


def _chunks(n_times: int, dim: int):
    """Slices of consecutive grid indices, each spanning a (chunk, dim, dim) stack of CHUNK_BYTES or less."""
    step = max(1, CHUNK_BYTES // (16 * dim * dim))
    return (slice(lo, min(lo + step, n_times)) for lo in range(0, n_times, step))


def _commute(space: GamowSpace, o1: np.ndarray, o2: np.ndarray, ts: np.ndarray, variant, out: np.ndarray) -> np.ndarray:
    """Write [O1(t), O2(t)] at the times ``ts`` into ``out``, a (len(ts), d, d) array; return their norms."""
    op = evolution_operator(space, ts, variant)
    a = heisenberg_evolve(op, o1)
    b = heisenberg_evolve(op, o2)
    np.matmul(a, b, out=out)
    out -= b @ a
    with np.errstate(over="ignore", invalid="ignore"):  # squares past the float range take the scaled path
        return _commutator_norms(out)


def trajectory(space: GamowSpace, o1, o2, times, variant=EvolutionVariant.HERMITIAN) -> CommutatorTrajectory:
    """Evolve both observables and commute them at each grid time, a chunk of times at a time."""
    variant = EvolutionVariant(variant)
    ts = time_grid(times)
    o1 = as_complex_matrix(o1)
    o2 = as_complex_matrix(o2)
    dim = space.dim
    if o1.shape != (dim, dim) or o2.shape != (dim, dim):
        raise ValueError(
            f"observables must be {dim}x{dim} for this space, got {o1.shape} and {o2.shape}"
        )
    values = np.empty((ts.size, dim, dim), dtype=complex)
    norms = np.empty(ts.size)
    for chunk in _chunks(ts.size, dim):
        norms[chunk] = _commute(space, o1, o2, ts[chunk], variant, values[chunk])
    return CommutatorTrajectory(space=space, variant=variant, times=ts, values=values, norms=norms)


def factored_commutator(space: GamowSpace, o1, o2, t: float) -> np.ndarray:
    """Single-resonance factored form e^{-t Gamma} U(t) [O1, O2] U(t).

    This is the HERMITIAN-variant shortcut obtained by replacing U(t)^2
    with e^{-t Gamma} I; it equals the exact evolved commutator when the
    resonance energy is zero, and carries diagonal phases e^{-+2 i t E_R}
    otherwise.
    """
    if space.n_resonances != 1:
        raise ValueError("factored form is defined for a single resonance")
    u = evolution_operator(space, t, EvolutionVariant.HERMITIAN).diag
    k = commutator(as_complex_matrix(o1), as_complex_matrix(o2))
    return np.exp(-t * space.resonances[0].width) * (u[:, None] * k * u)


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


def envelope_fit(traj: CommutatorTrajectory, window_fraction: float | None = None) -> DecayFit:
    """Least-squares slope of log norm versus time on the :func:`fit_window_start` window.

    Points at or below the underflow floor are dropped.
    """
    start = fit_window_start(traj.times.size, traj.space.n_resonances, window_fraction)
    ts = traj.times[start:]
    norms = traj.norms[start:]
    usable = norms > UNDERFLOW_FLOOR
    if int(usable.sum()) < 2:
        raise ValueError("fewer than 2 usable points above the underflow floor; no fit")
    ts = ts[usable]
    logs = np.log(norms[usable])
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = float(np.abs(logs - (slope * ts + intercept)).max())
    return DecayFit(slope=float(slope), intercept=float(intercept), max_abs_residual=resid, n_points=int(usable.sum()))


def ansatz_coefficients(
    space: GamowSpace, traj: CommutatorTrajectory, index: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal coefficients and residuals at the grid indices ``index``, as arrays.

    Returns (alphas, betas, residuals) of shapes (n, N), (n, N) and (n,) for the n
    indexed times; row k holds what :class:`AnsatzReport` describes for its time.
    """
    ts = traj.times[index]
    values = np.asarray(traj.values)[index]
    totals = traj.norms[index]
    alphas = np.empty((ts.size, space.n_resonances), dtype=complex)
    betas = np.empty_like(alphas)
    residuals = np.zeros(ts.size)
    for chunk in _chunks(ts.size, space.dim):
        val = values[chunk]
        scale = np.exp(2.0 * ts[chunk, None] * space.widths)
        diagonal = np.diagonal(val, axis1=1, axis2=2)
        alphas[chunk] = scale * diagonal[:, 0::2]
        betas[chunk] = scale * diagonal[:, 1::2]
        live = totals[chunk] > UNDERFLOW_FLOOR
        if live.any():
            off = val[live]
            off.reshape(len(off), -1)[:, :: space.dim + 1] = 0.0
            with np.errstate(over="ignore", invalid="ignore"):  # as in _commute
                off_norms = _commutator_norms(off)
            residuals[chunk][live] = np.minimum(1.0, off_norms / totals[chunk][live])
    return alphas, betas, residuals


def ansatz_report(space: GamowSpace, traj: CommutatorTrajectory, k: int) -> AnsatzReport:
    """Extract the per-resonance diagonal coefficients at grid index ``k``."""
    if not 0 <= k < traj.times.size:
        raise ValueError(f"time index {k} out of range 0..{traj.times.size - 1}")
    alphas, betas, residuals = ansatz_coefficients(space, traj, slice(k, k + 1))
    return AnsatzReport(t=float(traj.times[k]), alphas=alphas[0], betas=betas[0], residual=float(residuals[0]))


def phase_constancy_check(
    space: GamowSpace,
    traj: CommutatorTrajectory,
    modulus_tol: float = 1e-9,
    phase_tol: float = 1e-6,
) -> bool:
    """Check the single-resonance claim that alpha(t) is a pure phase.

    True iff |alpha(t)| and |beta(t)| are constant over the grid to
    ``modulus_tol`` and arg alpha(t) advances linearly at angular rate
    -2 E_R (mod 2 pi) to ``phase_tol``.

    Note: for the exact trajectory the diagonal coefficients are
    time-independent, so the phase clause holds only at E_R = 0; the
    stated rate is realized by :func:`factored_commutator` snapshots.
    A commutator trajectory built from such snapshots is checked as-is.
    """
    if space.n_resonances != 1:
        raise ValueError("phase constancy is a single-resonance check")
    alphas, betas, _ = ansatz_coefficients(space, traj)
    alphas, betas = alphas[:, 0], betas[:, 0]
    for series in (alphas, betas):
        mods = np.abs(series)
        if mods.max() - mods.min() > modulus_tol:
            return False
    if np.abs(alphas).max() <= UNDERFLOW_FLOOR:
        return True
    rate = -2.0 * space.resonances[0].energy
    expected = np.angle(alphas[0]) + rate * (traj.times - traj.times[0])
    deviation = np.angle(alphas * np.exp(-1j * expected))
    return bool(np.abs(deviation).max() <= phase_tol)


def commutation_time(
    space: GamowSpace,
    o1,
    o2,
    eps: float,
    variant=EvolutionVariant.HERMITIAN,
    t_max: float = 50.0,
    dt: float = 0.01,
) -> float | None:
    """First grid time at which the evolved commutator norm drops below ``eps``.

    Scans t = 0, dt, 2 dt, ... up to ``t_max`` in the chunks :func:`trajectory`
    uses, stopping after the first chunk that crosses; returns None if the
    threshold is never reached on the grid.
    """
    if eps <= 0:
        raise ValueError(f"threshold must be positive, got {eps}")
    if dt <= 0 or t_max <= 0:
        raise ValueError(f"grid parameters must be positive, got t_max={t_max}, dt={dt}")
    variant = EvolutionVariant(variant)
    o1 = as_complex_matrix(o1)
    o2 = as_complex_matrix(o2)
    steps = int(np.floor(t_max / dt + 1e-9))
    for chunk in _chunks(steps + 1, space.dim):
        ks = np.arange(chunk.start, chunk.stop)
        out = np.empty((ks.size, space.dim, space.dim), dtype=complex)
        below = np.flatnonzero(_commute(space, o1, o2, ks * dt, variant, out) < eps)
        if below.size:
            return int(ks[below[0]]) * dt
    return None


def growth_witness(space: GamowSpace, obs, t: float) -> float:
    """Demonstrate the growing term of INVERTIBLE conjugation.

    Returns |O(t)[2,1]| / |O[2,1]| (1-based slots) for a single resonance,
    which equals e^{+t Gamma}: the lower-left entry of an observable blows
    up under U(t) O U(-t), the reason that conjugation rule is rejected
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
