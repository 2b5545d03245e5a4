import warnings

import numpy as np
import pytest

from gamowlab.channels import (
    DensityMatrix,
    KrausChannel,
    _pauli_transfer,
    apply_heisenberg,
    apply_schrodinger,
    damping_channel,
    damping_closed_form,
    damping_limit,
    iterate_heisenberg,
)
from gamowlab.cmatrix import commutator, frobenius_norm
from support import SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_vector, random_density, random_hermitian, random_kraus_family


def direct_heisenberg(kraus, obs):
    """Independent oracle: the literal Kraus sum with inline adjoints."""
    return sum(k.conj().T @ obs @ k for k in kraus)


def direct_schrodinger(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


# ---------------------------------------------------------------- channel types


def test_damping_channel_endpoints():
    ch0 = damping_channel(0.0)
    np.testing.assert_array_equal(ch0.kraus[0], np.eye(2))
    np.testing.assert_array_equal(ch0.kraus[1], np.zeros((2, 2)))
    ch1 = damping_channel(1.0)
    np.testing.assert_array_equal(ch1.kraus[0], np.array([[1, 0], [0, 0]]))
    np.testing.assert_array_equal(ch1.kraus[1], np.array([[0, 1], [0, 0]]))


def test_damping_channel_sqrt_entry():
    ch = damping_channel(0.75)
    np.testing.assert_allclose(ch.kraus[0], np.array([[1, 0], [0, 0.5]]), atol=0)


@pytest.mark.parametrize("p", [-0.1, 1.0001, 2.0])
def test_damping_channel_rejects_bad_probability(p):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        damping_channel(p)


def test_kraus_channel_rejects_incomplete_family():
    with pytest.raises(ValueError, match="not complete"):
        KrausChannel(dim=2, kraus=(np.eye(2) * 0.5,))


def test_kraus_channel_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="does not match dimension"):
        KrausChannel(dim=2, kraus=(np.eye(3),))


def test_density_matrix_invariants():
    DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.5, 0.4]).astype(complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


# ---------------------------------------------------------------- schrodinger picture


def test_identity_channel_preserves_state():
    ch = KrausChannel(dim=2, kraus=(np.eye(2, dtype=complex),))
    rho = DensityMatrix(np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
    np.testing.assert_array_equal(apply_schrodinger(ch, rho).mat, rho.mat)


def test_full_damping_sends_excited_to_ground():
    rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    out = apply_schrodinger(damping_channel(1.0), rho)
    np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_damping_on_maximally_mixed(p):
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    out = apply_schrodinger(damping_channel(p), rho)
    np.testing.assert_allclose(out.mat, np.diag([0.5 + 0.5 * p, 0.5 * (1 - p)]), atol=1e-15)


def test_schrodinger_matches_direct_kraus_sum():
    rng = np.random.default_rng(3)
    ch = damping_channel(0.37)
    rho = DensityMatrix(random_density(rng, 2))
    out = apply_schrodinger(ch, rho)
    np.testing.assert_allclose(out.mat, direct_schrodinger(ch.kraus, rho.mat), atol=1e-15)


def test_schrodinger_shape_mismatch():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    with pytest.raises(ValueError, match="dimension"):
        apply_schrodinger(damping_channel(0.5), rho)


# ---------------------------------------------------------------- heisenberg picture


def test_heisenberg_matrix_form():
    # [[O00, sqrt(1-p) O01], [sqrt(1-p) O10, p O00 + (1-p) O11]]
    rng = np.random.default_rng(5)
    obs = random_hermitian(rng, 2)
    for p in (0.0, 0.25, 0.8, 1.0):
        s = np.sqrt(1 - p)
        expected = np.array(
            [
                [obs[0, 0], s * obs[0, 1]],
                [s * obs[1, 0], p * obs[0, 0] + (1 - p) * obs[1, 1]],
            ]
        )
        np.testing.assert_allclose(apply_heisenberg(damping_channel(p), obs), expected, atol=1e-14)


def test_heisenberg_frozen_example():
    out = apply_heisenberg(damping_channel(0.75), np.array([[1, 2], [3, 4]], dtype=complex))
    np.testing.assert_allclose(out, np.array([[1, 1], [1.5, 1.75]]), atol=1e-15)


def test_heisenberg_unital():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        ch = KrausChannel(dim=dim, kraus=tuple(random_kraus_family(rng, dim, 3)))
        np.testing.assert_allclose(apply_heisenberg(ch, np.eye(dim)), np.eye(dim), atol=1e-12)


def test_heisenberg_preserves_hermiticity_exactly():
    rng = np.random.default_rng(9)
    ch = KrausChannel(dim=3, kraus=tuple(random_kraus_family(rng, 3, 4)))
    obs = random_hermitian(rng, 3)
    out = apply_heisenberg(ch, obs)
    assert frobenius_norm(out - out.conj().T) <= 1e-14


def test_iterate_zero_returns_input():
    obs = np.array([[1, 2j], [-2j, 0]])
    np.testing.assert_array_equal(iterate_heisenberg(damping_channel(0.5), obs, 0), obs)


def test_iterate_two_steps_on_sigma_x():
    out = iterate_heisenberg(damping_channel(0.5), SIGMA_X, 2)
    np.testing.assert_allclose(out, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


def test_iterate_rejects_negative_count():
    with pytest.raises(ValueError, match="nonnegative"):
        iterate_heisenberg(damping_channel(0.5), SIGMA_X, -1)


# ---------------------------------------------------------------- closed form and limit


def test_closed_form_base_cases():
    rng = np.random.default_rng(13)
    obs = random_hermitian(rng, 2)
    ch = damping_channel(0.4)
    np.testing.assert_array_equal(damping_closed_form(0.4, 0, obs), obs)
    np.testing.assert_allclose(damping_closed_form(0.4, 1, obs), apply_heisenberg(ch, obs), atol=1e-15)


def test_closed_form_matches_iteration():
    rng = np.random.default_rng(17)
    for p in (0.1, 0.5, 0.9):
        ch = damping_channel(p)
        for _ in range(3):
            obs = random_hermitian(rng, 2) + 1j * 0  # keep Hermitian branch active
            current = obs
            for n in range(1, 51):
                current = apply_heisenberg(ch, current)
                np.testing.assert_allclose(
                    damping_closed_form(p, n, obs), current, atol=1e-12
                )


def test_closed_form_offdiagonal_scaling():
    obs = np.array([[0, 1], [1, 0]], dtype=complex)
    out = damping_closed_form(0.5, 40, obs)
    assert out[0, 1] == pytest.approx(2.0 ** (-20), rel=1e-12)


def test_closed_form_instant_damping():
    obs = np.array([[3, 7], [9, -2]], dtype=complex)
    np.testing.assert_allclose(
        damping_closed_form(1.0, 1, obs), np.array([[3, 0], [0, 3]]), atol=1e-15
    )


def test_closed_form_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        damping_closed_form(0.5, 1, np.eye(3))


def test_damping_limit():
    np.testing.assert_array_equal(
        damping_limit(np.array([[3, 7], [9, -2]])), 3.0 * np.eye(2)
    )
    np.testing.assert_array_equal(damping_limit(np.eye(2)), np.eye(2))


def test_damping_limits_commute():
    o1 = np.array([[3, 7], [9, -2]], dtype=complex)
    o2 = np.array([[1j, 2], [0, 5]], dtype=complex)
    np.testing.assert_array_equal(
        commutator(damping_limit(o1), damping_limit(o2)), np.zeros((2, 2))
    )


# ---------------------------------------------------------------- invariants


def test_duality_preserves_mean_values():
    rng = np.random.default_rng(23)
    families = [damping_channel(p).kraus for p in (0.0, 0.3, 0.7, 1.0)]
    families += [tuple(random_kraus_family(rng, 2, 3)) for _ in range(3)]
    for kraus in families:
        ch = KrausChannel(dim=2, kraus=tuple(kraus))
        for _ in range(10):
            rho = DensityMatrix(random_density(rng, 2))
            obs = random_hermitian(rng, 2)
            lhs = np.trace(apply_schrodinger(ch, rho).mat @ obs)
            rhs = np.trace(rho.mat @ apply_heisenberg(ch, obs))
            assert abs(lhs - rhs) <= 1e-12


def test_convergence_to_limit_bound():
    rng = np.random.default_rng(29)
    for p in (0.1, 0.5, 0.9):
        ch = damping_channel(p)
        obs = random_hermitian(rng, 2, scale=2.0)
        limit = damping_limit(obs)
        bound_base = 2.0 * frobenius_norm(obs)
        current = obs
        for n in range(1, 101):
            current = apply_heisenberg(ch, current)
            assert frobenius_norm(current - limit) <= bound_base * (1 - p) ** (n / 2) + 1e-15


def test_commutation_process_monotone():
    rng = np.random.default_rng(31)
    ch = damping_channel(0.5)
    o1 = random_hermitian(rng, 2)
    o2 = random_hermitian(rng, 2)
    assert frobenius_norm(commutator(o1, o2)) > 1e-3
    prev = frobenius_norm(commutator(o1, o2))
    for _ in range(100):
        o1 = apply_heisenberg(ch, o1)
        o2 = apply_heisenberg(ch, o2)
        norm = frobenius_norm(commutator(o1, o2))
        assert norm <= prev + 1e-15
        prev = norm
    assert prev < 1e-10


def test_pauli_commutators_die_under_damping():
    ch = damping_channel(0.5)
    evolved = [SIGMA_X, SIGMA_Y, SIGMA_Z]
    for _ in range(100):
        evolved = [apply_heisenberg(ch, o) for o in evolved]
    for i in range(3):
        for j in range(i + 1, 3):
            assert frobenius_norm(commutator(evolved[i], evolved[j])) < 1e-10


@pytest.mark.parametrize("exponent", [0, -40, -50, -60])
def test_heisenberg_leaves_non_hermitian_inputs_unsymmetrized(exponent):
    ch = damping_channel(0.5)
    upper = np.array([[0, 1], [0, 0]], dtype=complex)
    out = apply_heisenberg(ch, upper)
    # dual of a strictly upper-triangular input stays strictly upper-triangular
    np.testing.assert_allclose(out, np.array([[0, np.sqrt(0.5)], [0, 0]]), atol=1e-15)
    # at any scale: a power-of-two multiple steps to the same multiple, bit for bit
    c = 2.0**exponent
    np.testing.assert_array_equal(apply_heisenberg(ch, c * upper), c * out)


def test_heisenberg_step_commutes_with_the_adjoint_bit_for_bit():
    rng = np.random.default_rng(41)
    ch = KrausChannel(dim=3, kraus=tuple(random_kraus_family(rng, 3, 3)))
    stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    adjoint = stack.conj().swapaxes(-1, -2)
    np.testing.assert_array_equal(apply_heisenberg(ch, adjoint), apply_heisenberg(ch, stack).conj().swapaxes(-1, -2))
    for n in (1, 2, 5):
        np.testing.assert_array_equal(
            iterate_heisenberg(ch, adjoint, n), iterate_heisenberg(ch, stack, n).conj().swapaxes(-1, -2)
        )
    # so Hermitian members come out exactly Hermitian
    out = apply_heisenberg(ch, stack + adjoint)
    np.testing.assert_array_equal(out, out.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------- superoperator


def test_batched_heisenberg_matches_per_matrix_results():
    rng = np.random.default_rng(37)
    ch = KrausChannel(dim=3, kraus=tuple(random_kraus_family(rng, 3, 3)))
    mixed = [random_hermitian(rng, 3), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
    mixed += [random_hermitian(rng, 3), np.triu(np.ones((3, 3)), 1).astype(complex)]
    stack = np.stack(mixed)
    out = apply_heisenberg(ch, stack)
    assert out.shape == stack.shape
    for member, obs in zip(out, mixed):
        # one GEMM for the stack and one per matrix may round differently
        np.testing.assert_allclose(member, apply_heisenberg(ch, obs), rtol=0, atol=1e-15)
        np.testing.assert_allclose(member, direct_heisenberg(ch.kraus, obs), rtol=0, atol=1e-14)
    for k in (0, 2):
        np.testing.assert_array_equal(out[k], out[k].conj().T)
    assert frobenius_norm(out[1] - out[1].conj().T) > 1e-3


@pytest.mark.parametrize(
    "bad",
    [
        [[np.nan, 0], [0, 1]],
        [[np.inf, 0], [0, 1]],
        [[1, np.inf], [np.inf, 1]],
        [[complex(0, np.inf), 0], [0, 1]],
        [[[1, 0], [0, 1]], [[0, 1], [1, np.inf]]],
    ],
)
def test_heisenberg_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        apply_heisenberg(damping_channel(0.5), np.array(bad, dtype=complex))


def test_heisenberg_step_past_the_float_range_is_quiet():
    # entries whose squares overflow take the quiet path: a power-of-two scale
    # carries over exactly, and a step that overflows is a ValueError, not inf
    ch = damping_channel(0.5)
    paulis = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = apply_heisenberg(ch, 2.0**600 * paulis)
        np.testing.assert_array_equal(huge, 2.0**600 * apply_heisenberg(ch, paulis))
        with pytest.raises(ValueError, match="overflow"):
            apply_heisenberg(ch, 1.5e308 * paulis)


def test_batched_heisenberg_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match channel dimension"):
        apply_heisenberg(damping_channel(0.5), np.zeros((4, 3, 3)))


@pytest.mark.parametrize("p", [0.0, 0.2, 0.7, 1.0])
def test_damping_superoperator_spectrum(p):
    spectrum = np.sort_complex(np.linalg.eigvals(damping_channel(p).superop))
    expected = np.sort_complex(np.array([1.0, np.sqrt(1 - p), np.sqrt(1 - p), 1 - p], dtype=complex))
    np.testing.assert_allclose(spectrum, expected, atol=1e-12)


def test_superoperator_adjoint_is_the_schrodinger_map():
    rng = np.random.default_rng(41)
    ch = KrausChannel(dim=2, kraus=tuple(random_kraus_family(rng, 2, 3)))
    rho = random_density(rng, 2)
    out = (ch.superop.conj().T @ rho.reshape(-1)).reshape(2, 2)
    np.testing.assert_allclose(out, direct_schrodinger(ch.kraus, rho), atol=1e-15)


def test_iterate_by_squaring_matches_stepwise_iteration():
    rng = np.random.default_rng(43)
    ch = KrausChannel(dim=2, kraus=tuple(random_kraus_family(rng, 2, 2)))
    obs = random_hermitian(rng, 2)
    current = obs
    for n in range(1, 38):
        current = apply_heisenberg(ch, current)
        np.testing.assert_allclose(iterate_heisenberg(ch, obs, n), current, atol=1e-13)


# ---------------------------------------------------------------- Pauli transfer block


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
def test_damping_transfer_block_is_diagonal_and_acts_as_the_channel(p):
    # the damping run steps Pauli vectors by this block, read off the superoperator
    # validation builds; it must act on them as the channel acts on the matrices
    ch = damping_channel(p)
    block = _pauli_transfer(ch)
    assert block.shape == (3, 3)
    np.testing.assert_array_equal(block[~np.eye(3, dtype=bool)], 0.0)
    s = np.sqrt(1.0 - p)
    np.testing.assert_allclose(np.diagonal(block), [s, s, 1.0 - p], rtol=0, atol=1e-15)
    rng = np.random.default_rng(53)
    for obs in (random_hermitian(rng, 2) for _ in range(5)):
        np.testing.assert_allclose(
            block @ pauli_vector(obs), pauli_vector(apply_heisenberg(ch, obs)), rtol=0, atol=1e-14
        )
