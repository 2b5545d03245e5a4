import cmath
import warnings

import numpy as np
import pytest

from gamowlab.evolution import (
    EvolutionVariant,
    evolution_operator,
    heisenberg_evolve,
    hermitian_square_law,
    semigroup_via_roots,
)
from gamowlab.gamow import Resonance, new_space, pseudo_product
from support import generator, random_complex, random_hermitian

HERM = EvolutionVariant.HERMITIAN
INV = EvolutionVariant.INVERTIBLE
SEMI = EvolutionVariant.SEMIGROUP_D


def spaces_for_tests():
    return [
        new_space([Resonance(1.0, 0.5)]),
        new_space([Resonance(0.0, 2.0)]),
        new_space([Resonance(1.0, 0.5), Resonance(-0.5, 2.0)]),
        new_space([Resonance(0.3, 0.4), Resonance(0.0, 1.0), Resonance(2.0, 3.0)]),
    ]


# ---------------------------------------------------------------- operators


def test_hermitian_at_zero_is_identity():
    for space in spaces_for_tests():
        for variant in (HERM, INV):
            u0 = np.diag(evolution_operator(space, 0.0, variant).diag)
            np.testing.assert_array_equal(u0, np.eye(space.dim))


def test_semigroup_at_zero_is_decaying_projector():
    space = new_space([Resonance(1.0, 0.5), Resonance(0.0, 2.0)])
    np.testing.assert_array_equal(
        np.diag(evolution_operator(space, 0.0, SEMI).diag), np.diag([1.0, 0.0, 1.0, 0.0])
    )


def test_hermitian_zero_energy_is_scalar_decay():
    space = new_space([Resonance(0.0, 2.0)])
    for t in (0.5, 1.0, 3.0):
        np.testing.assert_allclose(
            np.diag(evolution_operator(space, t, HERM).diag), np.exp(-t) * np.eye(2), atol=1e-15
        )


def test_invertible_diagonal_values():
    space = new_space([Resonance(1.0, 0.5)])
    z = 1.0 - 0.25j
    t = 0.8
    expected = np.diag([cmath.exp(-1j * t * z), cmath.exp(-1j * t * z.conjugate())])
    u = np.diag(evolution_operator(space, t, INV).diag)
    np.testing.assert_allclose(u, expected, atol=1e-15)


def test_hermitian_entry_moduli():
    space = new_space([Resonance(1.7, 0.5), Resonance(-0.4, 2.0)])
    t = 1.3
    mat = np.diag(evolution_operator(space, t, HERM).diag)
    moduli = np.abs(np.diag(mat))
    expected = [np.exp(-t * 0.25), np.exp(-t * 0.25), np.exp(-t * 1.0), np.exp(-t * 1.0)]
    np.testing.assert_allclose(moduli, expected, rtol=1e-14)


def test_operators_are_symmetric_matrices():
    for space in spaces_for_tests():
        for variant in (HERM, INV, SEMI):
            mat = np.diag(evolution_operator(space, 0.9, variant).diag)
            np.testing.assert_array_equal(mat, mat.T)


def test_hermitian_is_pseudo_self_adjoint():
    for space in spaces_for_tests():
        a = space.metric
        u = np.diag(evolution_operator(space, 1.1, HERM).diag)
        assert np.abs(a @ u.conj().T @ a - u).max() <= 1e-13


def test_rejects_nonfinite_time():
    space = new_space([Resonance(0.0, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        evolution_operator(space, np.inf, HERM)


# ---------------------------------------------------------------- inverse


def test_inverse_roundtrip():
    # U(-t) inverts U(t), so the INVERTIBLE conjugation U(t) O U(-t) is undone by the one at -t
    rng = np.random.default_rng(11)
    space = new_space([Resonance(1.0, 0.5), Resonance(0.0, 2.0)])
    obs = random_hermitian(rng, space.dim)
    for t in (-5.0, -1.2, 0.0, 0.7, 5.0):
        op, back = evolution_operator(space, t, INV), evolution_operator(space, -t, INV)
        np.testing.assert_allclose(np.diag(op.diag) @ np.diag(back.diag), np.eye(space.dim), atol=1e-12)
        np.testing.assert_allclose(heisenberg_evolve(back, heisenberg_evolve(op, obs)), obs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- square law


def test_square_law_single_resonance_zero_energy():
    space = new_space([Resonance(0.0, 0.5)])
    squared, envelope = hermitian_square_law(space, 2.0)
    np.testing.assert_allclose(squared, np.exp(-1.0) * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(envelope, np.exp(-1.0) * np.eye(2), atol=0)


def test_square_law_at_zero_time():
    space = new_space([Resonance(1.0, 0.5)])
    squared, envelope = hermitian_square_law(space, 0.0)
    np.testing.assert_array_equal(squared, np.eye(2))
    np.testing.assert_array_equal(envelope, np.eye(2))


def test_square_law_two_resonances():
    space = new_space([Resonance(0.0, 0.5), Resonance(0.0, 2.0)])
    squared, envelope = hermitian_square_law(space, 1.0)
    expected = np.diag([np.exp(-0.5), np.exp(-0.5), np.exp(-2.0), np.exp(-2.0)])
    np.testing.assert_allclose(envelope, expected, atol=0)
    np.testing.assert_allclose(squared, expected, atol=1e-13)


def test_square_law_nonzero_energy_matches_in_modulus_only():
    space = new_space([Resonance(1.0, 0.5)])
    t = 1.0
    squared, envelope = hermitian_square_law(space, t)
    np.testing.assert_allclose(np.abs(squared), envelope.real, atol=1e-14)
    # the diagonal carries phases e^{-2itE}, e^{+2itE}
    np.testing.assert_allclose(
        np.diag(squared), np.exp(-0.5 * t) * np.array([np.exp(-2j * t), np.exp(2j * t)]), atol=1e-14
    )


# ---------------------------------------------------------------- heisenberg conjugation


def test_heisenberg_evolve_identity_at_zero():
    rng = np.random.default_rng(2)
    space = new_space([Resonance(1.0, 0.5)])
    obs = random_hermitian(rng, 2)
    op = evolution_operator(space, 0.0, HERM)
    np.testing.assert_array_equal(heisenberg_evolve(op, obs), obs)


def test_invertible_conjugation_grows_lower_left():
    space = new_space([Resonance(1.0, 0.5)])
    rng = np.random.default_rng(3)
    obs = random_hermitian(rng, 2)
    for t in (0.5, 2.0):
        op = evolution_operator(space, t, INV)
        evolved = heisenberg_evolve(op, obs)
        ratio = abs(evolved[1, 0]) / abs(obs[1, 0])
        assert ratio == pytest.approx(np.exp(t * 0.5), rel=1e-12)


def test_hermitian_conjugation_damps_every_entry():
    # diagonal-conjugation oracle: entry (a, b) picks up u_a u_b with |u| = e^{-t G/2}
    space = new_space([Resonance(1.3, 0.8)])
    rng = np.random.default_rng(5)
    obs = random_hermitian(rng, 2)
    t = 1.7
    evolved = heisenberg_evolve(evolution_operator(space, t, HERM), obs)
    np.testing.assert_allclose(np.abs(evolved), np.exp(-t * 0.8) * np.abs(obs), rtol=1e-12)


def test_semigroup_conjugation_warns():
    space = new_space([Resonance(1.0, 0.5)])
    op = evolution_operator(space, 1.0, SEMI)
    with pytest.warns(RuntimeWarning, match="no canonical"):
        heisenberg_evolve(op, np.eye(2))


def test_heisenberg_evolve_shape_check():
    space = new_space([Resonance(1.0, 0.5)])
    op = evolution_operator(space, 1.0, HERM)
    with pytest.raises(ValueError, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
        heisenberg_evolve(op, np.eye(3))


def dense_operator(space, t, variant):
    """U(t) as a dense matrix, built slot by slot from the poles."""
    entries = []
    for z in space.poles:
        growing = {
            HERM: cmath.exp(1j * t * z.conjugate()),
            INV: cmath.exp(-1j * t * z.conjugate()),
            SEMI: 0.0,
        }[variant]
        entries += [cmath.exp(-1j * t * z), growing]
    return np.diag(entries)


@pytest.mark.filterwarnings("ignore:SEMIGROUP_D has no canonical")
@pytest.mark.parametrize("variant", [HERM, INV, SEMI])
def test_heisenberg_evolve_matches_dense_product(variant):
    rng = np.random.default_rng(17)
    space = new_space([Resonance(0.3, 0.4), Resonance(-1.2, 1.0), Resonance(2.0, 3.0)])
    a = space.metric
    obs = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x, y = random_complex(rng, (2, space.dim))
    for t in (-1.3, 0.0, 0.7, 3.1):
        u = dense_operator(space, t, variant)
        sharp = a @ u.conj().T @ a  # the adjoint under the pairing: (x | U y) = (A U^dag A x | y)
        lhs = pseudo_product(space, x, u @ y)
        assert abs(lhs - pseudo_product(space, sharp @ x, y)) <= 1e-13 * max(1.0, abs(lhs))
        v = {HERM: u, INV: dense_operator(space, -t, INV), SEMI: u.conj().T}[variant]
        evolved = heisenberg_evolve(evolution_operator(space, t, variant), obs)
        np.testing.assert_allclose(evolved, u @ obs @ v, rtol=1e-14, atol=0)
        if variant is not SEMI:  # both group variants conjugate by the pseudo-adjoint
            np.testing.assert_allclose(evolved, u @ obs @ sharp, rtol=1e-14, atol=0)
    if variant is INV:  # the pseudo-adjoint of U(t) is U(-t), bit for bit up to the sign of zeros
        for t in (0.0, -0.0, 1e-300, -1e-300, 3.7, -2.5, 800.0):
            with np.errstate(over="ignore", invalid="ignore"):  # t = 800 takes e^{t Gamma / 2} past the float range
                back = evolution_operator(space, -t, INV).diag
                expected = evolution_operator(space, t, INV).diag[:, None] * obs * back[None, :]
                evolved = heisenberg_evolve(evolution_operator(space, t, INV), obs)
            np.testing.assert_array_equal(evolved, expected)


@pytest.mark.filterwarnings("ignore:SEMIGROUP_D has no canonical")
@pytest.mark.parametrize("variant", [HERM, INV, SEMI])
def test_time_array_operator_is_a_stack_of_scalar_operators(variant):
    rng = np.random.default_rng(29)
    space = new_space([Resonance(0.3, 0.4), Resonance(-1.2, 1.0), Resonance(0.0, 3.0)])
    obs = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ts = np.array([-1.3, 0.0, 0.7, 3.1, 25.0])
    op = evolution_operator(space, ts, variant)
    assert op.diag.shape == (ts.size, space.dim)
    scalar_ops = [evolution_operator(space, t, variant) for t in ts]
    np.testing.assert_array_equal(op.diag, np.stack([o.diag for o in scalar_ops]))
    np.testing.assert_array_equal(heisenberg_evolve(op, obs), np.stack([heisenberg_evolve(o, obs) for o in scalar_ops]))


def test_time_array_operator_keeps_the_semigroup_warning():
    space = new_space([Resonance(1.0, 0.5)])
    op = evolution_operator(space, [0.0, 1.0], SEMI)
    with pytest.warns(RuntimeWarning, match="no canonical"):
        assert heisenberg_evolve(op, np.eye(2)).shape == (2, 2, 2)


@pytest.mark.filterwarnings("ignore:SEMIGROUP_D has no canonical")
@pytest.mark.parametrize("variant", [HERM, INV, SEMI])
def test_a_stack_of_observables_evolves_as_one_observable_per_time(variant):
    # member k of a (T, d, d) stack is conjugated by row k of an operator over T times,
    # with the bits of the single-time call on that member
    rng = np.random.default_rng(31)
    space = new_space([Resonance(0.3, 0.4), Resonance(-1.2, 1.0), Resonance(0.0, 3.0)])
    ts = np.array([-1.3, 0.0, 0.7, 3.1, 25.0])
    stack = random_complex(rng, (ts.size, space.dim, space.dim))
    evolved = heisenberg_evolve(evolution_operator(space, ts, variant), stack)
    expected = [heisenberg_evolve(evolution_operator(space, t, variant), obs) for t, obs in zip(ts, stack)]
    np.testing.assert_array_equal(evolved, np.stack(expected))


def test_a_stack_must_hold_one_square_observable_per_time():
    space = new_space([Resonance(1.0, 0.5)])
    op = evolution_operator(space, [0.0, 1.0, 2.0], HERM)
    for shape in ((2, 2, 2), (4, 2, 2), (3, 2, 3), (3, 4, 4)):
        with pytest.raises(ValueError, match="does not match the operator"):
            heisenberg_evolve(op, np.zeros(shape, dtype=complex))
    with pytest.raises(ValueError, match="does not match the operator"):  # one time, no stack
        heisenberg_evolve(evolution_operator(space, 1.0, HERM), np.zeros((1, 2, 2)))


def test_a_stack_under_the_semigroup_warns_once_per_call():
    space = new_space([Resonance(1.0, 0.5)])
    op = evolution_operator(space, [0.0, 1.0, 2.0], SEMI)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert heisenberg_evolve(op, np.ones((3, 2, 2))).shape == (3, 2, 2)
    assert [str(w.message).startswith("SEMIGROUP_D has no canonical") for w in caught] == [True]


def test_time_array_rejects_non_finite_entries_and_extra_axes():
    space = new_space([Resonance(0.0, 1.0)])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            evolution_operator(space, np.array([0.0, bad, 1.0]), HERM)
    with pytest.raises(ValueError, match="1-d"):
        evolution_operator(space, np.zeros((2, 2)), HERM)


def test_square_law_matches_dense_product():
    space = new_space([Resonance(0.3, 0.4), Resonance(-1.2, 1.0), Resonance(2.0, 3.0)])
    for t in (-0.8, 0.0, 1.9):
        u = dense_operator(space, t, HERM)
        squared, envelope = hermitian_square_law(space, t)
        np.testing.assert_allclose(squared, u @ u, rtol=1e-14, atol=0)
        expected = np.diag(np.exp(-t * np.array([0.4, 0.4, 1.0, 1.0, 3.0, 3.0])))
        np.testing.assert_allclose(envelope, expected, rtol=1e-14, atol=0)


# ---------------------------------------------------------------- semigroup property


def test_invertible_group_property():
    rng = np.random.default_rng(7)
    space = new_space([Resonance(1.0, 0.5), Resonance(-2.0, 1.5)])
    for _ in range(10):
        t1, t2 = rng.uniform(-5, 5, size=2)
        lhs = np.diag(evolution_operator(space, t1, INV).diag) @ np.diag(
            evolution_operator(space, t2, INV).diag
        )
        rhs = np.diag(evolution_operator(space, t1 + t2, INV).diag)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_semigroup_property_on_decaying_sector():
    rng = np.random.default_rng(9)
    space = new_space([Resonance(1.0, 0.5), Resonance(-2.0, 1.5)])
    for _ in range(10):
        t1, t2 = rng.uniform(-5, 5, size=2)
        lhs = np.diag(evolution_operator(space, t1, SEMI).diag) @ np.diag(
            evolution_operator(space, t2, SEMI).diag
        )
        rhs = np.diag(evolution_operator(space, t1 + t2, SEMI).diag)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------- generators


def test_full_hermitian_is_pseudo_hermitian():
    for space in spaces_for_tests():
        h = generator(space)
        a = space.metric
        assert np.abs(a @ h.conj().T @ a - h).max() <= 1e-13


def test_generator_consistency_invertible():
    space = new_space([Resonance(1.0, 0.5), Resonance(-0.5, 2.0)])
    h = generator(space)
    for t in (1e-4, -1e-4, 5e-5):
        u = np.diag(evolution_operator(space, t, INV).diag)
        assert np.abs(u - (np.eye(space.dim) - 1j * t * h)).max() <= 1e-7


def test_generator_consistency_semigroup_on_decaying_sector():
    space = new_space([Resonance(1.0, 0.5), Resonance(-0.5, 2.0)])
    h = generator(space, growing=False)
    proj = np.diag([1.0, 0.0, 1.0, 0.0])
    for t in (1e-4, -1e-4):
        u = np.diag(evolution_operator(space, t, SEMI).diag)
        approx = proj @ (np.eye(space.dim) - 1j * t * h) @ proj
        assert np.abs(u - approx).max() <= 1e-7


# ---------------------------------------------------------------- root reconstructions


def test_semigroup_reconstruction_via_roots():
    for space in spaces_for_tests():
        for t in (-1.0, 0.0, 0.7, 3.2):
            recon = semigroup_via_roots(space, t)
            direct = np.diag(evolution_operator(space, t, SEMI).diag)
            assert np.abs(recon - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


def test_variant_accepts_value_strings():
    space = new_space([Resonance(0.0, 1.0)])
    by_enum = np.diag(evolution_operator(space, 0.5, HERM).diag)
    by_name = np.diag(evolution_operator(space, 0.5, "hermitian").diag)
    np.testing.assert_array_equal(by_enum, by_name)
