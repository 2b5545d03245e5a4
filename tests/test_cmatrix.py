import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gamowlab import cmatrix
from gamowlab.cmatrix import (
    _PAULIS,
    _frobenius_norms,
    _pair_cross_norms,
    _pauli_vectors,
    _sumsq,
    as_complex_matrix,
    commutator,
    frobenius_norm,
    pair_commutator_norms,
)
from support import SIGMA_X, SIGMA_Y, SIGMA_Z, strided_pair_cross_norms

finite_complex = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_pairs(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    a = draw(arrays(np.complex128, (n, n), elements=finite_complex))
    b = draw(arrays(np.complex128, (n, n), elements=finite_complex))
    return a, b


def test_as_complex_matrix_rejects_nan_and_inf():
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix([[1, 0], [0, complex(0, np.inf)]])


def test_as_complex_matrix_rejects_non_2d():
    with pytest.raises(ValueError, match="2-d"):
        as_complex_matrix([1, 2, 3])


def test_commutator_with_self_is_zero():
    m = np.array([[1, 2j], [3, 4]])
    np.testing.assert_array_equal(commutator(m, m), np.zeros((2, 2)))


def test_commutator_pauli_pair():
    # product oracle: sigma_x sigma_y = i sigma_z, sigma_y sigma_x = -i sigma_z
    expected = np.array([[2j, 0], [0, -2j]])
    np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Y), expected, atol=0)


def test_commutator_with_identity_is_zero():
    m = np.array([[1, 2], [3, 4 + 1j]])
    np.testing.assert_array_equal(commutator(m, np.eye(2)), np.zeros((2, 2)))


def test_commutator_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="equal dimensions"):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="square"):
        commutator(np.ones((2, 3)), np.ones((3, 2)))


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=0)
    # entrywise oracle: sqrt(|2i|^2 + |-2i|^2) = 2 sqrt(2)
    assert frobenius_norm([[2j, 0], [0, -2j]]) == pytest.approx(2 * np.sqrt(2), abs=0)
    # views whose rows are not contiguous in memory
    assert frobenius_norm(np.array([[1, 2, 3]], dtype=complex)[:, ::-1]) == frobenius_norm([[3, 2, 1]])
    assert frobenius_norm(np.broadcast_to(1j, (3, 3))) == 3.0


def test_frobenius_norm_keeps_digits_of_subnormal_squares():
    # |a a|^2 = 4.7e-315 is subnormal; an unscaled norm loses ~10 digits here
    a = np.array([[2.622e-79]], dtype=complex)
    lhs = frobenius_norm(a @ a)
    assert lhs <= frobenius_norm(a) ** 2 * (1 + 1e-12)
    assert lhs == pytest.approx(2.622e-79**2, rel=1e-15)


def test_frobenius_norm_scaled_extremes():
    assert frobenius_norm([[1e-170, 0], [0, 1e-170]]) == pytest.approx(np.sqrt(2) * 1e-170, rel=1e-15)
    assert frobenius_norm([[3e200, 4e200j]]) == pytest.approx(5e200, rel=1e-15)
    assert frobenius_norm([[1e-320]]) == 1e-320


@settings(max_examples=50, deadline=None)
@given(matrix_pairs())
def test_submultiplicativity(pair):
    a, b = pair
    lhs = frobenius_norm(a @ b)
    rhs = frobenius_norm(a) * frobenius_norm(b)
    assert lhs <= rhs * (1 + 1e-12) + 1e-300


@settings(max_examples=50, deadline=None)
@given(matrix_pairs())
def test_commutator_antisymmetric_exactly(pair):
    a, b = pair
    np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))


def _loop_pair_norms(stack):
    return [
        frobenius_norm(commutator(stack[i], stack[j]))
        for i in range(len(stack))
        for j in range(i + 1, len(stack))
    ]


def test_pair_commutator_norms_match_the_loop():
    rng = np.random.default_rng(5)
    for k, d in ((2, 2), (5, 2), (4, 3)):
        stack = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        np.testing.assert_allclose(pair_commutator_norms(stack), _loop_pair_norms(stack), rtol=1e-13)


def test_pair_commutator_norms_order_names_the_first_maximal_pair():
    # X commutes with 2X; [2X, Y] and [2X, Z] tie at the maximum 4 sqrt(2)
    stack = np.stack([SIGMA_X, 2 * SIGMA_X, SIGMA_Y, SIGMA_Z])
    norms = pair_commutator_norms(stack)
    pairs = list(zip(*np.triu_indices(4, 1)))
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    np.testing.assert_array_equal(norms, _loop_pair_norms(stack))
    np.testing.assert_array_equal(norms, np.sqrt([0, 8, 8, 32, 32, 8]))
    assert pairs[int(np.argmax(norms))] == (1, 2)


def test_pair_commutator_norms_small_and_scaled():
    assert pair_commutator_norms(np.stack([SIGMA_X])).shape == (0,)
    tiny = np.stack([SIGMA_X, SIGMA_Y]) * 1e-100
    np.testing.assert_allclose(pair_commutator_norms(tiny), [2 * np.sqrt(2) * 1e-200], rtol=1e-15)


def test_pair_commutator_norms_reject_overflow():
    # products of A, B and the Paulis overflow (inf, and inf - inf = NaN in [A, B]): an error, not a NaN norm
    a = np.array([[1e200, 0], [1e200, 0]], dtype=complex)
    b = np.array([[1e200, 1e200], [0, 0]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflow"):
        pair_commutator_norms(np.stack([SIGMA_X, SIGMA_Y, a, b]))


@pytest.mark.parametrize("k, d", [(2, 2), (8, 2), (9, 2), (4, 3), (1, 2), (2, 128)])
def test_pair_commutator_norms_of_a_block_equal_the_per_step_calls(k, d):
    rng = np.random.default_rng(11)
    block = rng.normal(size=(5, k, d, d)) + 1j * rng.normal(size=(5, k, d, d))
    norms = pair_commutator_norms(block)
    assert norms.shape == (5, k * (k - 1) // 2)
    np.testing.assert_array_equal(norms, [pair_commutator_norms(stack) for stack in block])
    # more leading axes carry over as well
    np.testing.assert_array_equal(pair_commutator_norms(block.reshape(5, 1, k, d, d))[:, 0], norms)


def test_pair_commutator_norms_of_a_block_take_the_scaled_fallback_per_step():
    # tiny members in one step and huge ones in another: each step's norms must be
    # those of its own call, not rescaled by the other step's range
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    block = np.stack([stack, stack * 1e-150, stack, stack * 1e150])
    block[0, 1] *= 1e-170  # tiny and ordinary members in one step
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the squares of the huge step overflow, silently
        norms = pair_commutator_norms(block)
        np.testing.assert_array_equal(norms, [pair_commutator_norms(step) for step in block])
    np.testing.assert_allclose(norms[1], norms[2] * 1e-300, rtol=1e-14)
    np.testing.assert_allclose(norms[3], norms[2] * 1e300, rtol=1e-14)
    assert norms[0, 0] > 0


def test_pair_commutator_norms_of_a_block_reject_overflow_in_any_step():
    a = np.array([[1e200, 0], [1e200, 0]], dtype=complex)
    b = np.array([[1e200, 1e200], [0, 0]], dtype=complex)
    block = np.stack([np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_X]), np.stack([SIGMA_X, SIGMA_Y, a, b])])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflow"):
        pair_commutator_norms(block)


@pytest.mark.parametrize(("k", "steps"), [(2, 4), (3, 4), (9, 4), (64, 4), (2, 1500)],
                         ids=["2", "3", "9", "64", "2-1500"])
def test_pair_cross_norms_equal_the_matrix_kernel(k, steps):
    # non-Hermitian members (complex Pauli vectors) and a leading axis of steps, two
    # of them scaled out of the plain sum of squares' range: rows equal the per-step
    # calls, and every bit equals the strided reference; k = 64 is the damping run's
    # one step per chunk, and 1,500 steps of k = 2 are more than one chunk
    rng = np.random.default_rng(13)
    block = rng.normal(size=(steps, k, 2, 2)) + 1j * rng.normal(size=(steps, k, 2, 2))
    block[1] *= 1e-100
    block[3] *= 1e150
    vectors = _pauli_vectors(block)
    assert vectors.shape == (steps, k, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _pair_cross_norms(vectors)
        np.testing.assert_array_equal(norms, strided_pair_cross_norms(vectors))
        np.testing.assert_array_equal(norms, [_pair_cross_norms(step) for step in vectors])
        np.testing.assert_allclose(norms, pair_commutator_norms(block), rtol=1e-13, atol=0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflow"):
        _pair_cross_norms(vectors * 1e10)


def test_pair_commutator_norms_reject_bad_blocks():
    with pytest.raises(ValueError, match=r"\(k, d, d\)"):
        pair_commutator_norms(np.eye(2))
    with pytest.raises(ValueError, match=r"\(k, d, d\)"):
        pair_commutator_norms(np.ones((2, 3, 2, 4)))
    with pytest.raises(ValueError, match=r"\(k, d, d\)"):
        pair_commutator_norms(np.ones((3, 2, 4)))
    with pytest.raises(ValueError, match=r"\(k, d, d\)"):
        pair_commutator_norms(np.ones((2, 0, 0)))
    with pytest.raises(ValueError, match="finite"):
        pair_commutator_norms(np.full((2, 3, 2, 2), np.nan))
    with pytest.raises(ValueError, match="finite"):
        pair_commutator_norms(np.full((1, 2, 2), np.nan))


def test_norm_kernel_is_quiet_past_the_float_range():
    # squares near 1e600 leave the float range on the way to a finite norm: no numpy
    # warning; a norm past the float range is a ValueError, not inf with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = np.stack([SIGMA_X, SIGMA_Y]) * 1e150
        assert pair_commutator_norms(huge).tolist() == [2.82842712474619e+300]
        with pytest.raises(ValueError, match="overflow"):
            frobenius_norm(np.full((2, 2), 1e308))


def test_norm_kernel_of_empty_and_nan_stacks():
    # an empty stack has no members to range-test; NaN fails the range test, and
    # _pair_cross_norms, which has no entry check, passes it on as the kernel's ValueError
    assert _frobenius_norms(np.empty((0, 2, 2), dtype=np.complex128)).shape == (0,)
    assert _pair_cross_norms(np.empty((0, 3, 3), dtype=np.complex128)).shape == (0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            _pair_cross_norms(np.full((3, 3), np.nan, dtype=np.complex128))
        with pytest.raises(ValueError, match="overflow"):
            _pair_cross_norms(np.full((2, 3, 3), 1e200, dtype=np.complex128) * [1, -1j, 2])



@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100, 1e-200], ids=["1", "1e-100", "1e+100", "1e-200"])
def test_pair_cross_norms_of_whole_stacks_keep_the_norm_kernel_bits(scale):
    # the kernel's norms come from the norm kernel: vectors at 1e-100 and 1e+100 put every
    # commutator at 1e-200 or 1e+200, whose squares leave the float range; at 1e-200 every
    # cross product underflows to zero
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in [(1, 3), (2, 3), (8, 3), (64, 3), (34, 8, 3), (3, 0, 3), (0, 5, 3)]:
            vectors = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
            norms = _pair_cross_norms(vectors)
            assert norms.shape == (*shape[:-2], shape[-2] * (shape[-2] - 1) // 2)
            np.testing.assert_array_equal(norms, strided_pair_cross_norms(vectors))
            mats = (vectors @ _PAULIS).reshape(*shape[:-1], 2, 2)
            np.testing.assert_allclose(norms, pair_commutator_norms(mats), rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100, 1e-150, 1e150, 1e-160, 1e-200],
                         ids=["1", "1e-100", "1e+100", "1e-150", "1e+150", "1e-160", "1e-200"])
def test_real_pauli_vectors_take_the_real_route_with_the_complex_bits(scale, monkeypatch):
    # float64 vectors (Hermitian traceless parts) sum the squared parts of 2i c.sigma in
    # closed form; members out of the plain sum's range (all of them at 1e+-100, 1e+-150
    # and 1e-160, whose cross products are subnormal) take the complex route on their
    # own, unless every such member is exactly zero, as at 1e-200
    real_calls = []
    real_cross_norms = cmatrix._real_cross_norms
    monkeypatch.setattr(cmatrix, "_real_cross_norms", lambda cross: real_calls.append(cross.shape) or real_cross_norms(cross))
    rng = np.random.default_rng(71)
    shapes = [(1, 3), (2, 3), (8, 3), (64, 3), (34, 8, 3), (3, 0, 3), (0, 5, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in shapes:
            vectors = rng.normal(size=shape) * scale
            norms = _pair_cross_norms(vectors)
            assert norms.shape == (*shape[:-2], shape[-2] * (shape[-2] - 1) // 2)
            np.testing.assert_array_equal(norms, _pair_cross_norms(vectors.astype(complex)))
        # an exactly commuting pair (X_1 = 2 X_0) beside generic ones, over steps whose
        # sums are in range, tiny and huge: the zero member's norm is exactly 0
        vectors = rng.normal(size=(5, 8, 3)) * np.array([1.0, 1e-100, 1e-150, 1e150, 1e-200])[:, None, None]
        vectors[:, 1] = 2 * vectors[:, 0]
        norms = _pair_cross_norms(vectors)
        assert not norms[:, 0].any() and norms[:4, 1:].all()
        np.testing.assert_array_equal(norms, _pair_cross_norms(vectors.astype(complex)))
    assert len(real_calls) == len(shapes) + 1
    # a NaN step, and products or norms past the float range (the digest's 1e+154
    # probe among them), raise the complex route's ValueError, with no numpy warning
    for bad in (np.nan, 1e154, 1e200):
        vectors = rng.normal(size=(3, 4, 3))
        vectors[1] *= bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stack in (vectors, vectors.astype(complex)):
                with pytest.raises(ValueError, match="overflow"):
                    _pair_cross_norms(stack)


def test_three_strided_adds_sum_squares_in_the_order_of_the_row_reduction():
    # _sumsq sums the 8 squared float parts of each 2x2 member as
    # ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)): the bits of numpy's row reduction, also
    # where squares are subnormal (1e-160) or overflow (1e+160)
    rng = np.random.default_rng(19)
    for scale in (1.0, 1e-160, 1e160):
        for n in (0, 1, 7, 8, 9, 1000):
            stack = rng.normal(size=(n, 2, 2)) * np.exp(rng.normal(size=(n, 2, 2)) * 20) + 1j * rng.normal(size=(n, 2, 2))
            stack *= scale
            parts = stack.reshape(n, 4).view(np.float64)
            with np.errstate(over="ignore"):
                np.testing.assert_array_equal(_sumsq(stack), (parts * parts).sum(axis=1))


def test_a_commuting_pair_takes_one_pass_of_sums(monkeypatch):
    # X_1 = 2 X_0: the pair's commutator is exactly zero at every step, a sum below the norm
    # kernel's range, which rescales that member alone; with or without such a pair, the
    # chunk's squares are summed once, by _sumsq
    rng = np.random.default_rng(23)
    stack = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    stack = stack + stack.conj().transpose(0, 2, 1)
    generic = _pauli_vectors(stack) * (0.97 ** np.arange(34))[:, None, None]
    stack[1] = 2 * stack[0]
    commuting = _pauli_vectors(stack) * (0.97 ** np.arange(34))[:, None, None]
    calls = []

    def spy(members):
        calls.append(members.shape)
        return _sumsq(members)

    monkeypatch.setattr(cmatrix, "_sumsq", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = [_pair_cross_norms(vectors) for vectors in (generic, commuting)]
    assert calls == [(34 * 28, 2, 2)] * 2
    assert norms[0].all() and not norms[1][:, 0].any() and norms[1][:, 1:].all()
    monkeypatch.undo()
    np.testing.assert_array_equal(norms[0], strided_pair_cross_norms(generic))
    np.testing.assert_array_equal(norms[1], strided_pair_cross_norms(commuting))


def test_a_commuting_pair_on_the_real_route_never_reaches_the_norm_kernel(monkeypatch):
    # real vectors sum squares in closed form; in a chunk with X_1 = 2 X_0 the only members
    # out of the plain range are the pair's exactly zero cross products, whose norms, 0,
    # are already exact, so no square is summed again
    rng = np.random.default_rng(23)
    stack = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    stack = stack + stack.conj().transpose(0, 2, 1)
    stack[1] = 2 * stack[0]
    commuting = _pauli_vectors(stack) * (0.97 ** np.arange(34))[:, None, None]
    assert not commuting.imag.any()
    calls = []

    def spy(members):
        calls.append(members.shape)
        return _sumsq(members)

    monkeypatch.setattr(cmatrix, "_sumsq", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _pair_cross_norms(commuting.real.copy())
    assert calls == []
    assert not norms[:, 0].any() and norms[:, 1:].all()
    monkeypatch.undo()
    np.testing.assert_array_equal(norms, _pair_cross_norms(commuting))


def shifted(stack, k):
    """The stack with every float part multiplied by 2^k, exactly while no part leaves the normal range."""
    return np.ldexp(stack.view(np.float64), k).view(np.complex128)


@pytest.mark.parametrize("d", [2, 4, 16])
@pytest.mark.parametrize("k", [-1000, -700, -600, -540, 600, 700, 1000])
def test_norms_of_a_stack_shifted_by_a_power_of_two_shift_by_it_exactly(d, k):
    # both sums of the kernel are the same row reduction, on the parts or on the parts
    # shifted by an exact power of two, so ||2^k X|| = 2^k ||X|| bit for bit, whichever
    # sum X and 2^k X each take
    rng = np.random.default_rng(37 + d)
    stack = rng.normal(size=(1000, d, d)) + 1j * rng.normal(size=(1000, d, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(_frobenius_norms(shifted(stack, k)), np.ldexp(_frobenius_norms(stack), k))


@pytest.mark.parametrize("k", [-600, -540, 600])
def test_norms_of_a_mixed_stack_shifted_by_a_power_of_two_shift_by_it_exactly(k):
    # members at scales 1, 2^-320 and 2^320, whose plain sums of squares fall in, below and
    # above [2^-600, 2^600], and exact zeros, in one call; at each shift some members change
    # sides of that range, and every part stays normal
    rng = np.random.default_rng(41)
    stack = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
    stack[1::4] *= 2.0**-320
    stack[2::4] *= 2.0**320
    stack[3::4] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _frobenius_norms(stack)
        np.testing.assert_array_equal(_frobenius_norms(shifted(stack, k)), np.ldexp(norms, k))
    assert not norms[3::4].any() and norms[0::4].all() and norms[1::4].all() and norms[2::4].all()
