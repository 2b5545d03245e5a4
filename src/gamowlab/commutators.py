"""Commutator trajectories, decay-envelope fits and diagonal-form reports.

The central object is the trajectory of [O1(t), O2(t)] under a chosen
evolution variant, where O(t) = heisenberg_evolve(U(t), O). The HERMITIAN
variant is the default for commutator studies; INVERTIBLE is kept for the
growth counterexample.

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

from .cmatrix import as_complex_matrix, commutator, frobenius_norm
from .evolution import EvolutionVariant, evolution_operator, heisenberg_evolve
from .gamow import GamowSpace

__all__ = [
    "CommutatorTrajectory",
    "DecayFit",
    "AnsatzReport",
    "trajectory",
    "factored_commutator",
    "envelope_fit",
    "ansatz_report",
    "phase_constancy_check",
    "commutation_time",
    "growth_witness",
    "UNDERFLOW_FLOOR",
]

#: Norms at or below this are treated as zero when taking logs.
UNDERFLOW_FLOOR = 1e-280


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


def trajectory(space: GamowSpace, o1, o2, times, variant=EvolutionVariant.HERMITIAN) -> CommutatorTrajectory:
    """Evolve both observables and commute them at each grid time."""
    variant = EvolutionVariant(variant)
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("time grid must be a nonempty 1-d sequence")
    if ts.size > 1 and not np.all(np.diff(ts) > 0):
        raise ValueError("time grid must be strictly increasing")
    o1 = as_complex_matrix(o1)
    o2 = as_complex_matrix(o2)
    dim = space.dim
    if o1.shape != (dim, dim) or o2.shape != (dim, dim):
        raise ValueError(
            f"observables must be {dim}x{dim} for this space, got {o1.shape} and {o2.shape}"
        )
    values = np.empty((ts.size, dim, dim), dtype=complex)
    norms = np.empty(ts.size)
    for k, t in enumerate(ts):
        op = evolution_operator(space, t, variant)
        values[k] = commutator(heisenberg_evolve(op, o1), heisenberg_evolve(op, o2))
        norms[k] = frobenius_norm(values[k])
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


def envelope_fit(traj: CommutatorTrajectory, window_fraction: float | None = None) -> DecayFit:
    """Least-squares slope of log norm versus time.

    ``window_fraction`` selects the trailing fraction of the grid to fit
    on; the default is the full grid for a single resonance and the last
    half for several, so the slowest mode dominates. Points at or below
    the underflow floor are dropped.
    """
    if window_fraction is None:
        window_fraction = 1.0 if traj.space.n_resonances == 1 else 0.5
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError(f"window fraction must lie in (0, 1], got {window_fraction}")
    n = traj.times.size
    start = int(round((1.0 - window_fraction) * (n - 1)))
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


def ansatz_report(space: GamowSpace, traj: CommutatorTrajectory, k: int) -> AnsatzReport:
    """Extract the per-resonance diagonal coefficients at grid index ``k``."""
    if not 0 <= k < traj.times.size:
        raise ValueError(f"time index {k} out of range 0..{traj.times.size - 1}")
    t = float(traj.times[k])
    val = traj.values[k]
    scale = np.exp(2.0 * t * np.array(space.widths))
    alphas = scale * np.diagonal(val)[0::2]
    betas = scale * np.diagonal(val)[1::2]
    total = frobenius_norm(val)
    if total <= UNDERFLOW_FLOOR:
        residual = 0.0
    else:
        off = val.copy()
        np.fill_diagonal(off, 0.0)
        residual = min(1.0, frobenius_norm(off) / total)
    return AnsatzReport(t=t, alphas=alphas, betas=betas, residual=residual)


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
    reports = [ansatz_report(space, traj, k) for k in range(traj.times.size)]
    alphas = np.array([r.alphas[0] for r in reports])
    betas = np.array([r.betas[0] for r in reports])
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

    Scans t = 0, dt, 2 dt, ... up to ``t_max``; returns None if the
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
    for k in range(steps + 1):
        t = k * dt
        op = evolution_operator(space, t, variant)
        norm = frobenius_norm(commutator(heisenberg_evolve(op, o1), heisenberg_evolve(op, o2)))
        if norm < eps:
            return t
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
