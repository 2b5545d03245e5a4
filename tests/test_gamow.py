import tracemalloc

import numpy as np
import pytest

from gamowlab.gamow import MAX_RESONANCES, Resonance, basis_vector, new_space, pseudo_product


def single_space(energy=1.0, width=0.5):
    return new_space([Resonance(energy=energy, width=width)])


# ---------------------------------------------------------------- resonances


def test_resonance_poles():
    r = Resonance(energy=1.0, width=0.5)
    assert r.pole == 1.0 - 0.25j
    assert r.pole.conjugate() == 1.0 + 0.25j


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_resonance_rejects_nonpositive_width(width):
    with pytest.raises(ValueError, match="positive"):
        Resonance(energy=0.0, width=width)


def test_new_space_rejects_empty_and_overflow():
    with pytest.raises(ValueError, match="at least one"):
        new_space([])
    with pytest.raises(ValueError, match="cap"):
        new_space([Resonance(0.0, 1.0)] * 65)
    with pytest.raises(TypeError, match="Resonance"):
        new_space([(0.0, 1.0)])


# ---------------------------------------------------------------- metric and roots


def test_metric_single_block():
    space = single_space()
    np.testing.assert_array_equal(space.metric, np.array([[0, 1], [1, 0]]))


def test_metric_two_blocks():
    space = new_space([Resonance(0.0, 1.0), Resonance(2.0, 0.5)])
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1
    expected[2, 3] = expected[3, 2] = 1
    np.testing.assert_array_equal(space.metric, expected)


def test_metric_squares_to_identity_exactly():
    space = new_space([Resonance(0.0, 1.0), Resonance(2.0, 0.5), Resonance(-1.0, 3.0)])
    np.testing.assert_array_equal(space.metric @ space.metric, np.eye(6))


def test_root_b_frozen_value():
    # e^{-i pi/4} (sqrt2/2) [[i, 1], [1, i]] multiplied out entrywise
    space = single_space()
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    np.testing.assert_allclose(space.root_b, expected, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_roots_square_to_metric(n):
    space = new_space([Resonance(0.1 * j, 0.5 + 0.25 * j) for j in range(n)])
    root_c = space.root_b.conj().T
    assert np.abs(space.root_b @ space.root_b - space.metric).max() <= 1e-13
    assert np.abs(root_c @ root_c - space.metric).max() <= 1e-13
    assert np.abs(space.root_b - root_c).max() > 0.5  # distinct square roots


def test_space_stores_its_boxes_not_dense_matrices():
    # A and B are tiled on access; a 64-resonance space keeps no 128x128 array
    # (one would take 256 KB)
    resonances = [Resonance(0.1 * j, 0.5 + 0.25 * j) for j in range(MAX_RESONANCES)]
    tracemalloc.start()
    try:
        space = new_space(resonances)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024
    assert space.metric.shape == space.root_b.shape == (128, 128)


def test_roots_are_mutual_inverses():
    space = new_space([Resonance(0.0, 1.0), Resonance(1.0, 2.0)])
    np.testing.assert_allclose(space.root_b @ space.root_b.conj().T, np.eye(4), atol=1e-15)


# ---------------------------------------------------------------- basis vectors


def test_basis_vector_convention():
    space = single_space()
    np.testing.assert_array_equal(basis_vector(space, 1, "D"), [1, 0])
    space2 = new_space([Resonance(0.0, 1.0), Resonance(0.0, 2.0)])
    np.testing.assert_array_equal(basis_vector(space2, 2, "G"), [0, 0, 0, 1])
    np.testing.assert_array_equal(basis_vector(space2, 1, "G"), [0, 1, 0, 0])


def test_basis_vector_errors():
    space = single_space()
    with pytest.raises(ValueError, match="out of range"):
        basis_vector(space, 2, "D")
    with pytest.raises(ValueError, match="'D' or 'G'"):
        basis_vector(space, 1, "Q")


# ---------------------------------------------------------------- pseudo product


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_duality_table_exact(n):
    space = new_space([Resonance(float(j), 1.0 + j) for j in range(n)])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for ki in ("D", "G"):
                for kj in ("D", "G"):
                    value = pseudo_product(
                        space, basis_vector(space, i, ki), basis_vector(space, j, kj)
                    )
                    expected = 1.0 if (i == j and ki != kj) else 0.0
                    assert value == expected


def test_pseudo_product_on_sum_vector():
    space = single_space()
    v = basis_vector(space, 1, "D") + basis_vector(space, 1, "G")
    assert pseudo_product(space, v, v) == 2.0


def test_pseudo_product_conjugate_linear_in_left():
    space = single_space()
    d = basis_vector(space, 1, "D")
    g = basis_vector(space, 1, "G")
    assert pseudo_product(space, 1j * d, g) == pytest.approx(-1j)
    assert pseudo_product(space, d, 1j * g) == pytest.approx(1j)


def test_pseudo_product_dimension_error():
    space = single_space()
    with pytest.raises(ValueError, match="length 2"):
        pseudo_product(space, np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match=r"length 2, got shape \(2, 1\)"):
        pseudo_product(space, np.ones((2, 1)), np.ones(2))


# ---------------------------------------------------------------- immutability


def test_space_is_frozen():
    space = single_space()
    with pytest.raises(AttributeError):
        space.resonances = ()


def test_new_space_rejects_more_than_max_resonances():
    assert MAX_RESONANCES == 64
    with pytest.raises(ValueError, match="65 resonances exceed the cap of 64"):
        new_space([Resonance(0.0, 1.0)] * 65)


def test_new_space_accepts_default_cap_boundary():
    space = new_space([Resonance(0.0, 1.0)] * 64)
    assert space.dim == 128
