import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gamowlab import cmatrix, commutators
from gamowlab.channels import damping_channel
from gamowlab.cmatrix import _pauli_vectors, as_complex_matrix, commutator, frobenius_norm
from gamowlab.commutators import (
    CHUNK_BYTES,
    CommutatorTrajectory,
    UNDERFLOW_FLOOR,
    _commutator_chunks,
    _commutator_tensor,
    _damping_norms,
    _decay_fit,
    ansatz_coefficients,
    ansatz_report,
    envelope_fit,
    growth_witness,
    phase_constancy_check,
    trajectory,
)
from gamowlab.evolution import EvolutionVariant, _sharp_diag, evolution_operator, heisenberg_evolve
from gamowlab.gamow import Resonance, new_space
from support import (
    SIGMA_X,
    SIGMA_Y,
    block_xy_pair,
    chunk_calls,
    chunk_length,
    damping_chunk_length,
    factored_snapshot,
    per_time_ansatz,
    random_hermitian,
)

HERM = EvolutionVariant.HERMITIAN


def space1(energy=0.0, width=0.5):
    return new_space([Resonance(energy=energy, width=width)])


def times(n=101, t_end=5.0):
    return np.linspace(0.0, t_end, n)


# ---------------------------------------------------------------- trajectory basics


def test_trajectory_starts_at_plain_commutator():
    # at t = 0, U = U# = W = I: the first commutator is the tensor's sum M_0 + M_1, one
    # rounding of each entry's two terms, within the sum's error bound of [O1, O2]
    rng = np.random.default_rng(1)
    space = space1(energy=1.0)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    traj = trajectory(space, o1, o2, times(11))
    np.testing.assert_array_equal(traj.values[0], _commutator_tensor(o1, o2).sum(axis=0).reshape(2, 2))
    assert traj.norms[0] == frobenius_norm(traj.values[0])
    assert_within_the_sum_bound(traj.values[0], o1, o2)


def test_commuting_pair_gives_zero_trajectory():
    space = space1()
    o1 = np.diag([1.0, 2.0]).astype(complex)
    o2 = np.diag([3.0, -1.0]).astype(complex)
    traj = trajectory(space, o1, o2, times(11))
    assert np.all(traj.norms == 0.0)


def test_trajectory_grid_validation():
    space = space1()
    with pytest.raises(ValueError, match="strictly increasing"):
        trajectory(space, SIGMA_X, SIGMA_Y, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        trajectory(space, SIGMA_X, SIGMA_Y, [])
    with pytest.raises(ValueError, match="2x2"):
        trajectory(space, np.eye(4), np.eye(4), [0.0, 1.0])


def test_pauli_trajectory_zero_energy():
    # exact per-entry oracle: sigma_x and sigma_y evolve to e^{-tG} times
    # themselves, so the commutator is e^{-2tG} [sigma_x, sigma_y]
    space = space1(energy=0.0, width=0.5)
    ts = times(21)
    traj = trajectory(space, SIGMA_X, SIGMA_Y, ts)
    for k, t in enumerate(ts):
        expected = np.exp(-2 * t * 0.5) * np.array([[2j, 0], [0, -2j]])
        np.testing.assert_allclose(traj.values[k], expected, atol=1e-15)


def test_pauli_trajectory_energy_phase_cancels():
    # the energy phase cancels between the paired decay factors, so the
    # exact diagonal is phase-free even at E != 0
    space = space1(energy=1.0, width=0.5)
    ts = times(21)
    traj = trajectory(space, SIGMA_X, SIGMA_Y, ts)
    for k, t in enumerate(ts):
        expected = np.exp(-2 * t * 0.5) * np.array([[2j, 0], [0, -2j]])
        np.testing.assert_allclose(traj.values[k], expected, atol=1e-14)


def test_scale_equivariance_exact_for_real_dyadic_scalars():
    rng = np.random.default_rng(3)
    space = space1(energy=0.5)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    ts = times(7)
    base = trajectory(space, o1, o2, ts)
    for c in (2.0, 0.25, -8.0):
        scaled = trajectory(space, c * o1, o2, ts)
        for k in range(ts.size):
            np.testing.assert_array_equal(scaled.values[k], c * base.values[k])


def test_scale_equivariance_complex_scalars_to_ulp():
    # complex scaling does not commute bitwise with BLAS's 3M complex
    # product, so the equality is to a few ulp rather than exact
    rng = np.random.default_rng(3)
    space = space1(energy=0.5)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    ts = times(7)
    base = trajectory(space, o1, o2, ts)
    for c in (1j, -2j):
        scaled = trajectory(space, c * o1, o2, ts)
        for k in range(ts.size):
            np.testing.assert_allclose(scaled.values[k], c * base.values[k], atol=1e-14)


def test_scale_equivariance_generic_scalar():
    rng = np.random.default_rng(4)
    space = space1()
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    ts = times(7)
    base = trajectory(space, o1, o2, ts)
    c = 0.7 + 0.3j
    scaled = trajectory(space, c * o1, o2, ts)
    for k in range(ts.size):
        np.testing.assert_allclose(scaled.values[k], c * base.values[k], atol=1e-14)


# ---------------------------------------------------------------- factored form


def test_factored_form_equals_exact_at_zero_energy():
    rng = np.random.default_rng(5)
    space = space1(energy=0.0, width=0.8)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    for t in (0.1, 1.0, 3.0):
        traj = trajectory(space, o1, o2, np.array([t]))
        fac = factored_snapshot(space, o1, o2, t)
        scale = max(1.0, np.abs(fac).max())
        assert np.abs(traj.values[0] - fac).max() <= 1e-12 * scale


def test_factored_form_carries_energy_phases():
    space = space1(energy=1.0, width=0.5)
    k = commutator(SIGMA_X, SIGMA_Y)
    for t in (0.3, 1.0):
        fac = factored_snapshot(space, SIGMA_X, SIGMA_Y, t)
        # diagonal of the factored form rotates at rate -2E inside e^{-2tG}
        expected = np.exp(-2 * t * 0.5) * np.diag(
            [k[0, 0] * np.exp(-2j * t), k[1, 1] * np.exp(2j * t)]
        )
        np.testing.assert_allclose(fac, expected, atol=1e-14)


def test_entry_moduli_follow_envelope_zero_energy():
    rng = np.random.default_rng(7)
    space = space1(energy=0.0, width=1.3)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    k = commutator(o1, o2)
    ts = times(26)
    traj = trajectory(space, o1, o2, ts)
    for idx, t in enumerate(ts):
        np.testing.assert_allclose(
            np.abs(traj.values[idx]), np.exp(-2 * t * 1.3) * np.abs(k), rtol=1e-12, atol=1e-250
        )


def test_monotone_decay():
    rng = np.random.default_rng(9)
    space = space1(energy=0.7, width=0.6)
    o1, o2 = block_xy_pair(rng, 1)
    traj = trajectory(space, o1, o2, times(51))
    assert traj.norms[0] > 0
    assert np.all(np.diff(traj.norms) < 0)


# ---------------------------------------------------------------- envelope fits


def test_envelope_fit_slope_single_resonance():
    rng = np.random.default_rng(11)
    space = space1(energy=0.0, width=0.5)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    fit = envelope_fit(trajectory(space, o1, o2, times()))
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.max_abs_residual <= 1e-9
    assert fit.n_points == 101


def test_envelope_fit_slope_independent_of_energy():
    for energy in (0.0, 1.0, -3.7):
        rng = np.random.default_rng(13)
        space = space1(energy=energy, width=2.0)
        o1, o2 = block_xy_pair(rng, 1)
        fit = envelope_fit(trajectory(space, o1, o2, times()))
        assert fit.slope == pytest.approx(-4.0, abs=1e-9)


def test_envelope_fit_multi_resonance_late_window():
    rng = np.random.default_rng(15)
    space = new_space([Resonance(0.0, 0.5), Resonance(0.0, 2.0)])
    o1 = random_hermitian(rng, 4)
    o2 = random_hermitian(rng, 4)
    fit = envelope_fit(trajectory(space, o1, o2, times()), window_fraction=0.25)
    assert abs(fit.slope - (-1.0)) <= 0.05


def test_envelope_fit_empty_error():
    space = space1()
    o1 = np.diag([1.0, 2.0]).astype(complex)
    o2 = np.diag([3.0, 4.0]).astype(complex)
    traj = trajectory(space, o1, o2, times(11))
    with pytest.raises(ValueError, match="usable points"):
        envelope_fit(traj)


def test_envelope_fit_window_validation():
    space = space1()
    traj = trajectory(space, SIGMA_X, SIGMA_Y, times(11))
    with pytest.raises(ValueError, match="window fraction"):
        envelope_fit(traj, window_fraction=0.0)


def exact_least_squares_slope(ts, logs):
    """The least-squares slope through the float points, in exact rational arithmetic."""
    t, y = [Fraction(float(v)) for v in ts], [Fraction(float(v)) for v in logs]
    t_mean, y_mean = sum(t) / len(t), sum(y) / len(y)
    return sum((a - t_mean) * (b - y_mean) for a, b in zip(t, y)) / sum((a - t_mean) ** 2 for a in t)


@pytest.mark.parametrize("span", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("t0", [0.0, -5.0, 1e3, 1e6, 1e10, 1e12])
def test_decay_fit_slope_is_the_exact_least_squares_slope(t0, span):
    # a noisy decaying line on [t0, t0 + span]; far from 0 the grid times agree in up to
    # 15 digits, and the fit still gives the least-squares slope of its float inputs, the
    # times and the math.log of the norms
    rng = np.random.default_rng(51)
    ts = np.linspace(t0, t0 + span, 51)
    norms = np.exp(rng.uniform(-5.0, 5.0) - rng.uniform(0.1, 5.0) / span * (ts - t0) + rng.normal(0.0, 1e-3, ts.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = _decay_fit(ts, norms, np.array([math.log(norm) for norm in norms]))
    exact = exact_least_squares_slope(ts, [math.log(norm) for norm in norms])
    assert abs(Fraction(fit.slope) - exact) <= Fraction(1e-12) * abs(exact)


@pytest.mark.parametrize(
    "t_start, t_end, rate, slope",
    [(0.0, 1e-200, 0.5, 0.0), (-1e300, 0.0, 1e-310, -2e-310), (1e308, 1.7e308, 1e-310, -2e-310)],
    ids=["tiny-span", "huge-span", "huge-times"],
)
def test_decay_fit_is_quiet_and_finite_on_extreme_grids(t_start, t_end, rate, slope):
    # norms 2 sqrt(2) e^{-2 rate (t - t_start)}, as the sigma_x, sigma_y run writes them:
    # over the tiny span they are all equal, so the least-squares slope is 0; over the
    # huge spans the log norms resolve the slope -2 rate, to about 2e-7 on [-1e300, 0],
    # where they vary by 2e-10 only
    ts = np.linspace(t_start, t_end, 101)
    norms = 2.0 * np.sqrt(2.0) * np.exp(-2.0 * rate * (ts - t_start))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = _decay_fit(ts, norms, np.array([math.log(norm) for norm in norms]))
    assert np.isfinite([fit.slope, fit.intercept, fit.max_abs_residual]).all()
    assert fit.n_points == 101
    assert fit.slope == pytest.approx(slope, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------- chunked evaluation


def random_space(rng, n_res):
    energies, widths = rng.uniform(-2, 2, n_res), rng.uniform(0.1, 1, n_res)
    return new_space([Resonance(float(e), float(w)) for e, w in zip(energies, widths)])


def per_time_products(space, o1, o2, ts, variant):
    """The product path's reference: one operator, two conjugations, a commutator and a norm per grid time."""
    values, norms = [], []
    for t in ts:
        op = evolution_operator(space, t, variant)
        values.append(commutator(heisenberg_evolve(op, o1), heisenberg_evolve(op, o2)))
        norms.append(frobenius_norm(values[-1]))
    return np.array(values), np.array(norms)


def per_time_trajectory(space, o1, o2, ts, variant):
    """The tensor path's reference: one operator, the product w @ M with w = u v, one conjugation and a norm per grid time."""
    tensor = _commutator_tensor(o1, o2)
    values, norms = [], []
    for t in ts:
        op = evolution_operator(space, t, variant)
        middle = (op.diag * _sharp_diag(op)) @ tensor
        values.append(heisenberg_evolve(op, middle.reshape(space.dim, space.dim)))
        norms.append(frobenius_norm(values[-1]))
    return np.array(values), np.array(norms)


def assert_within_the_sum_bound(values, o1, o2, space=None, ts=None, variant=HERM):
    """Each entry of ``values`` lies within (d + 4) eps of the condition of its sum from [O1(t), O2(t)] by products.

    The condition of entry (a, c) is sum_b |A_ab| |B_bc| + |B_ab| |A_bc| for the
    evolved pair A, B at each time (the observables themselves when ``ts`` is
    None); an entry deep in the subnormal range may also be off by d + 4
    subnormal quanta, the rounding of each product's terms.
    """
    if ts is None:
        pairs = [(np.asarray(o1), np.asarray(o2))]
        values = np.asarray(values)[None]
    else:
        ops = [evolution_operator(space, t, variant) for t in ts]
        pairs = [(heisenberg_evolve(op, o1), heisenberg_evolve(op, o2)) for op in ops]
    dim = len(pairs[0][0])
    for value, (a, b) in zip(values, pairs):
        cond = np.abs(a) @ np.abs(b) + np.abs(b) @ np.abs(a)
        bound = (dim + 4) * (np.finfo(float).eps * cond + np.finfo(float).smallest_subnormal)
        assert np.all(np.abs(value - commutator(a, b)) <= bound)


@pytest.mark.filterwarnings("ignore:SEMIGROUP_D has no canonical")
@pytest.mark.parametrize("variant", list(EvolutionVariant))
@pytest.mark.parametrize("n_res", [1, 2, 64])
def test_chunked_trajectory_equals_the_per_time_loop(variant, n_res):
    # N = 1 and 2 take the tensor, N = 64 (d = 128) the products; the tensor's values
    # lie within the products' rounding error
    rng = np.random.default_rng(31 + n_res)
    space = random_space(rng, n_res)
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    steps = 5 if n_res == 64 else 2 * chunk_length(space.dim) + 3  # one time per chunk at N = 64
    ts = np.linspace(-0.5, 4.0, steps)
    traj = trajectory(space, o1, o2, ts, variant)
    reference = per_time_products if n_res == 64 else per_time_trajectory
    values, norms = reference(space, o1, o2, ts, variant)
    np.testing.assert_array_equal(traj.values, values)
    np.testing.assert_array_equal(traj.norms, norms)
    assert_within_the_sum_bound(traj.values, o1, o2, space, ts, variant)


@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_chunked_norms_take_the_scaled_fallback(scale):
    # squared norms near 1e-640 underflow and near 1e600 overflow: both paths rescale
    rng = np.random.default_rng(37)
    space = random_space(rng, 2)
    o1, o2 = scale * random_hermitian(rng, 4), scale * random_hermitian(rng, 4)
    ts = np.linspace(0.0, 3.0, chunk_length(space.dim) + 7)
    traj = trajectory(space, o1, o2, ts)
    values, norms = per_time_trajectory(space, o1, o2, ts, HERM)
    np.testing.assert_array_equal(traj.values, values)
    np.testing.assert_array_equal(traj.norms, norms)
    assert np.all(np.isfinite(traj.norms)) and np.all(traj.norms > 0)
    assert_within_the_sum_bound(traj.values, o1, o2, space, ts)


def test_chunked_trajectory_rejects_overflow():
    # INVERTIBLE conjugation grows like e^{t G}: the evolved entries overflow, and the
    # norm kernel reports it with no numpy warning on the way
    space = space1(energy=0.0, width=2.0)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="overflow"):
        warnings.simplefilter("error")
        trajectory(space, SIGMA_X, SIGMA_Y, [0.0, 400.0], EvolutionVariant.INVERTIBLE)


@pytest.mark.parametrize(
    "widths, variant, t_end, tensor",
    [
        ((0.5,) * 10, HERM, 4.0, True),  # d = 20: M (128,000 bytes) and one grid time fit in CHUNK_BYTES
        ((0.5,) * 11, HERM, 4.0, False),  # d = 22: M alone takes 170,368 bytes
        ((2.0,), EvolutionVariant.INVERTIBLE, 400.0, False),  # |u_G| reaches e^{400}: the evolved pair overflows
        ((2.0,), HERM, -400.0, False),  # and so it does backwards in time under HERMITIAN
        ((2.0,), EvolutionVariant.INVERTIBLE, 300.0, True),  # e^{600} max|O| is finite
    ],
    ids=["N10", "N11", "invertible-growth", "hermitian-past", "invertible-finite"],
)
def test_the_tensor_path_is_taken_where_it_fits_and_the_evolved_pair_is_finite(monkeypatch, widths, variant, t_end, tensor):
    # the chunks are only scheduled, not run: a tensor path reserves M's bytes in each
    rng = np.random.default_rng(59)
    space = new_space([Resonance(float(e), w) for e, w in zip(rng.uniform(-2, 2, len(widths)), widths)])
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    ts = np.linspace(min(0.0, t_end), max(0.0, t_end), 9)
    scheduled = []
    monkeypatch.setattr(commutators, "_chunks", lambda n, item, reserved=0: scheduled.append(reserved) or iter(()))
    assert list(_commutator_chunks(space, o1, o2, ts, variant)) == []
    assert scheduled == [16 * space.dim**3 if tensor else 0]
    monkeypatch.undo()
    if abs(t_end) == 400.0:  # the products overflow, as the diagnostic says
        with pytest.raises(ValueError, match="overflow"):
            trajectory(space, o1, o2, ts, variant)


def test_an_overflowed_tensor_falls_back_to_the_products():
    # at |O| ~ 1e155 the peak guard passes (|u| <= 1 for t >= 0 under HERMITIAN), but M's
    # products pass the float range; from t = 10 on, over three product chunks, the
    # commutators themselves are finite again
    rng = np.random.default_rng(71)
    space = random_space(rng, 2)
    o1, o2 = 1e155 * random_hermitian(rng, 4), 1e155 * random_hermitian(rng, 4)
    ts = np.linspace(10.0, 20.0, 2 * chunk_length(space.dim) + 3)
    assert not np.isfinite(_commutator_tensor(o1, o2)).all()
    ((_, slices),) = chunk_calls(trajectory, space, o1, o2, ts)
    assert len(slices) > 1
    traj = trajectory(space, o1, o2, ts)
    values, norms = per_time_products(space, o1, o2, ts, HERM)
    np.testing.assert_array_equal(traj.values, values)
    np.testing.assert_array_equal(traj.norms, norms)
    assert np.all(np.isfinite(traj.norms))


@pytest.mark.parametrize("n_res, n_chunks", [(2, 1), (11, 4)], ids=["tensor", "products"])
def test_each_observable_is_checked_once_per_trajectory(monkeypatch, n_res, n_chunks):
    # 12 times: one tensor chunk at d = 4, four product chunks at d = 22; either way each
    # observable is converted and scanned once, not once per chunk
    rng = np.random.default_rng(61)
    space = random_space(rng, n_res)
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    ts = np.linspace(0.0, 4.0, 12)
    ((_, slices),) = chunk_calls(trajectory, space, o1, o2, ts)
    assert len(slices) == n_chunks
    scans = []
    monkeypatch.setattr(cmatrix, "as_complex_matrix", lambda obs: scans.append(obs) or as_complex_matrix(obs))
    trajectory(space, o1, o2, ts)
    assert len(scans) == 2


@pytest.mark.parametrize("n_res", [1, 2, 3, 64])
def test_ansatz_coefficients_equal_the_per_time_formula(n_res):
    rng = np.random.default_rng(41 + n_res)
    space = random_space(rng, n_res)
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    steps = 4 if n_res == 64 else chunk_length(space.dim) + 5
    traj = trajectory(space, o1, o2, np.linspace(0.0, 8.0, steps))
    alphas, betas, residuals = ansatz_coefficients(space, traj.times, traj.values, traj.norms)
    assert alphas.shape == betas.shape == (steps, n_res) and residuals.shape == (steps,)
    for k in range(steps):
        alpha, beta, residual = per_time_ansatz(space, traj, k)
        np.testing.assert_array_equal(alphas[k], alpha)
        np.testing.assert_array_equal(betas[k], beta)
        assert residuals[k] == residual
        rep = ansatz_report(space, traj, k)
        np.testing.assert_array_equal(rep.alphas, alpha)
        assert rep.residual == residual
    sub = ansatz_coefficients(space, traj.times[2:5], traj.values[2:5], traj.norms[2:5])
    np.testing.assert_array_equal(sub[2], residuals[2:5])
    # a commuting pair: every norm is below the underflow floor, every residual 0
    diagonal = np.diag(rng.normal(size=space.dim)).astype(complex)
    flat = trajectory(space, diagonal, 2 * diagonal, traj.times)
    assert np.all(flat.norms <= UNDERFLOW_FLOOR)
    np.testing.assert_array_equal(ansatz_coefficients(space, flat.times, flat.values, flat.norms)[2], np.zeros(steps))


@pytest.mark.parametrize("n_res, steps", [(64, 51), (2, 1001)])
def test_chunked_evaluation_holds_no_trajectory_sized_temporary(n_res, steps):
    # peak traced memory is the stacked trajectory plus one chunk's budget; a (T, d, d)
    # temporary on top of ``values`` would exceed it (13 MB at N = 64, 250 KB at N = 2)
    rng = np.random.default_rng(43)
    space = random_space(rng, n_res)
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    ts = np.linspace(0.0, 20.0, steps)
    ((item_bytes, _),) = chunk_calls(trajectory, space, o1, o2, ts[:1])
    tracemalloc.start()
    try:
        traj = trajectory(space, o1, o2, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= traj.values.nbytes + traj.norms.nbytes + max(CHUNK_BYTES, item_bytes) + 2**14


def streamed_resonance(space, o1, o2, ts):
    """The resonance run's loop without its CSV lines: each chunk reduced by ansatz_coefficients as it comes."""
    for chunk, comm, norms in _commutator_chunks(space, o1, o2, ts, HERM):
        ansatz_coefficients(space, ts[chunk], comm, norms)


def assert_chunks_keep_the_byte_budget(run, *args):
    # the first run records its chunks and fills the caches the second one reads
    ((item_bytes, chunks),) = chunk_calls(run, *args)
    assert len(chunks) > 1
    tracemalloc.start()
    try:
        kept = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept_bytes = 0 if kept is None else kept.nbytes  # the run's result, one entry per item, is no chunk's
    assert peak - kept_bytes <= max(CHUNK_BYTES, item_bytes) + 2**14


@pytest.mark.parametrize("k, n_max", [(2, 3500), (8, 100), (9, 100), (64, 3)])
def test_damping_chunks_keep_the_byte_budget(k, n_max):
    # CHUNK_BYTES bounds every array a chunk of steps holds at once, or one step's at k = 64;
    # Hermitian observables have real Pauli vectors, stepped and crossed in float64, so a
    # chunk holds 1,536 steps at k = 2; n_max is raised to a full chunk where a larger
    # budget would leave one chunk
    n_max = max(n_max, damping_chunk_length(k, hermitian=True))
    rng = np.random.default_rng(47 + k)
    observables = np.array([random_hermitian(rng, 2) for _ in range(k)])
    assert_chunks_keep_the_byte_budget(_damping_norms, damping_channel(0.03), observables, n_max)


@pytest.mark.parametrize("k, n_max", [(2, 1500), (8, 100), (9, 100), (64, 3)])
def test_non_hermitian_damping_chunks_keep_the_byte_budget(k, n_max):
    # complex Pauli vectors cross in complex arithmetic, twice the bytes per step of real
    # ones, so a chunk holds 768 steps at k = 2; n_max is raised as above
    n_max = max(n_max, damping_chunk_length(k, hermitian=False))
    rng = np.random.default_rng(59 + k)
    observables = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    assert _pauli_vectors(observables).imag.any()
    assert_chunks_keep_the_byte_budget(_damping_norms, damping_channel(0.03), observables, n_max)


@pytest.mark.parametrize("n_res, steps", [(1, 1001), (2, 1001), (10, 9), (64, 3)])
def test_resonance_chunks_keep_the_byte_budget(n_res, steps):
    # CHUNK_BYTES bounds every array a chunk of grid times holds at once, with the run's
    # ansatz_coefficients on it, or one grid time's at N = 64; at N = 10 (d = 20) the
    # commutator tensor's 128,000 bytes count against it
    rng = np.random.default_rng(53 + n_res)
    space = random_space(rng, n_res)
    o1, o2 = random_hermitian(rng, space.dim), random_hermitian(rng, space.dim)
    assert_chunks_keep_the_byte_budget(streamed_resonance, space, o1, o2, np.linspace(0.0, 8.0, steps))


# ---------------------------------------------------------------- ansatz reports


def test_ansatz_report_pauli_example():
    space = space1(energy=1.0, width=0.5)
    ts = times(21)
    traj = trajectory(space, SIGMA_X, SIGMA_Y, ts)
    for k in range(ts.size):
        rep = ansatz_report(space, traj, k)
        assert rep.residual == 0.0
        assert abs(rep.alphas[0]) == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.betas[0]) == pytest.approx(2.0, abs=1e-12)


def test_ansatz_report_detects_cross_terms():
    # a commutator with off-diagonal entries departs from the diagonal form
    rng = np.random.default_rng(17)
    space = space1(energy=0.0, width=0.5)
    o1, o2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    assert abs(commutator(o1, o2)[0, 1]) > 1e-3
    traj = trajectory(space, o1, o2, times(11))
    rep = ansatz_report(space, traj, 5)
    assert 0.0 < rep.residual <= 1.0


def test_ansatz_report_at_time_zero_reads_plain_commutator():
    space = space1(energy=0.3, width=0.9)
    rng = np.random.default_rng(19)
    o1, o2 = block_xy_pair(rng, 1)
    k = commutator(o1, o2)
    traj = trajectory(space, o1, o2, times(11))
    rep = ansatz_report(space, traj, 0)
    assert rep.alphas[0] == pytest.approx(k[0, 0])
    assert rep.betas[0] == pytest.approx(k[1, 1])


def test_ansatz_report_index_check():
    space = space1()
    traj = trajectory(space, SIGMA_X, SIGMA_Y, times(11))
    with pytest.raises(ValueError, match="out of range"):
        ansatz_report(space, traj, 11)


def test_ansatz_residual_zero_for_blockwise_xy_observables():
    rng = np.random.default_rng(21)
    space = new_space([Resonance(1.0, 0.5), Resonance(-2.0, 2.0), Resonance(0.3, 1.0)])
    o1, o2 = block_xy_pair(rng, 3)
    ts = times(21)
    traj = trajectory(space, o1, o2, ts)
    for k in range(ts.size):
        assert ansatz_report(space, traj, k).residual <= 1e-12


# ---------------------------------------------------------------- phase law


def test_phase_constancy_zero_energy():
    rng = np.random.default_rng(23)
    space = space1(energy=0.0, width=0.5)
    o1, o2 = block_xy_pair(rng, 1)
    assert phase_constancy_check(space, trajectory(space, o1, o2, times(51)))


def test_phase_constancy_exact_dynamics_has_constant_argument():
    # exact trajectories have time-independent diagonal coefficients, so
    # the -2E rate is only realized at E = 0; at E != 0 the check reports
    # the mismatch instead of hiding it
    space = space1(energy=1.0, width=0.5)
    traj = trajectory(space, SIGMA_X, SIGMA_Y, times(51))
    assert not phase_constancy_check(space, traj)
    reports = [ansatz_report(space, traj, k) for k in range(51)]
    args = np.array([np.angle(r.alphas[0]) for r in reports])
    np.testing.assert_allclose(args, args[0], atol=1e-12)


def test_phase_constancy_on_factored_snapshots():
    # the factored form does advance the argument at rate -2E
    space = space1(energy=1.0, width=0.5)
    ts = times(51)
    values = tuple(factored_snapshot(space, SIGMA_X, SIGMA_Y, t) for t in ts)
    traj = CommutatorTrajectory(
        space=space,
        times=ts,
        values=values,
        norms=np.array([frobenius_norm(v) for v in values]),
    )
    assert phase_constancy_check(space, traj)


def test_phase_constancy_rejects_multi_resonance():
    space = new_space([Resonance(0.0, 0.5), Resonance(0.0, 1.0)])
    o1, o2 = block_xy_pair(np.random.default_rng(25), 2)
    traj = trajectory(space, o1, o2, times(11))
    with pytest.raises(ValueError, match="single-resonance"):
        phase_constancy_check(space, traj)


# ---------------------------------------------------------------- growth witness


def test_growth_witness_values():
    rng = np.random.default_rng(27)
    obs = random_hermitian(rng, 2)
    for width, t in ((0.5, 2.0), (2.0, 1.0), (0.5, 1.0)):
        space = space1(energy=0.9, width=width)
        assert growth_witness(space, obs, t) == pytest.approx(np.exp(t * width), rel=1e-10)


def test_growth_witness_at_zero():
    space = space1()
    obs = np.array([[0, 1], [1, 0]], dtype=complex)
    assert growth_witness(space, obs, 0.0) == 1.0


def test_growth_witness_undefined_for_zero_entry():
    space = space1()
    with pytest.raises(ValueError, match="undefined"):
        growth_witness(space, np.diag([1.0, 2.0]).astype(complex), 1.0)


# ---------------------------------------------------------------- multi-resonance bound


def test_multi_resonance_norm_bound():
    for n_res, seed in ((2, 0), (3, 1), (4, 2)):
        rng = np.random.default_rng(seed)
        space = new_space([Resonance(0.0, 0.5 + 0.75 * j) for j in range(n_res)])
        o1 = random_hermitian(rng, 2 * n_res)
        o2 = random_hermitian(rng, 2 * n_res)
        k_norm = frobenius_norm(commutator(o1, o2))
        gamma_min = min(space.widths)
        traj = trajectory(space, o1, o2, times(51))
        bound = k_norm * np.exp(-2 * gamma_min * traj.times)
        assert np.all(traj.norms <= bound * (1 + 1e-12))


def test_trajectory_accepts_negative_times():
    space = space1(energy=0.0, width=0.5)
    ts = np.linspace(-1.0, 1.0, 9)
    traj = trajectory(space, SIGMA_X, SIGMA_Y, ts)
    # the envelope keeps growing into the past: e^{-2tG} > 1 for t < 0
    norms = traj.norms
    assert norms[0] > norms[4] > norms[-1]
    np.testing.assert_allclose(norms, 2 * np.sqrt(2) * np.exp(-2 * 0.5 * ts), rtol=1e-12)
