import numpy as np
import pytest

from gamowlab.channels import damping_limit
from gamowlab.cmatrix import frobenius_norm
from gamowlab import qlattice
from gamowlab.qlattice import (
    Projector,
    abelian_certificate,
    distributivity_check,
    join,
    meet,
    ortho,
    projector_onto,
)
from support import P_MINUS, P_PLUS, P_ZERO, SIGMA_X, SIGMA_Y, random_projector, random_unitary


def proj(mat) -> Projector:
    return Projector(np.asarray(mat, dtype=complex))


def assert_proj_eq(p: Projector, q, tol=1e-9):
    assert frobenius_norm(p.mat - np.asarray(q, dtype=complex)) <= tol


# ---------------------------------------------------------------- type checks


def test_projector_validation():
    proj(np.eye(3))
    with pytest.raises(ValueError, match="Hermitian"):
        Projector(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="idempotent"):
        Projector(0.5 * np.eye(2))


def test_projector_onto_builds_projectors():
    p = projector_onto([1.0, 1.0])
    assert_proj_eq(p, P_PLUS, tol=1e-12)
    q = projector_onto([[1.0, 0.0], [0.0, 1.0]])
    assert_proj_eq(q, np.eye(2), tol=1e-12)


# ---------------------------------------------------------------- meet / join / ortho


def test_meet_idempotent_and_top():
    p = proj(P_ZERO)
    assert_proj_eq(meet(p, p), P_ZERO)
    assert_proj_eq(meet(p, proj(np.eye(2))), P_ZERO)


def test_meet_of_distinct_lines_is_zero():
    assert_proj_eq(meet(proj(P_ZERO), proj(P_PLUS)), np.zeros((2, 2)))


def test_join_bottom_and_lines():
    p = proj(P_ZERO)
    assert_proj_eq(join(p, proj(np.zeros((2, 2)))), P_ZERO)
    one = proj(np.diag([0.0, 1.0]))
    assert_proj_eq(join(p, one), np.eye(2))
    assert_proj_eq(join(p, proj(P_PLUS)), np.eye(2))


def test_meet_join_dimension_check():
    with pytest.raises(ValueError, match="share a dimension"):
        meet(proj(np.eye(2)), proj(np.eye(3)))


def test_ortho():
    zero = proj(np.zeros((2, 2)))
    assert_proj_eq(ortho(zero), np.eye(2), tol=0)
    p = proj(P_PLUS)
    assert_proj_eq(ortho(ortho(p)), P_PLUS, tol=0)
    assert_proj_eq(meet(p, ortho(p)), np.zeros((2, 2)))


def test_meet_join_nontrivial_intersection():
    # planes x-y and y-z in 3-d intersect in the y axis
    p = projector_onto([[1, 0, 0], [0, 1, 0]])
    q = projector_onto([[0, 1, 0], [0, 0, 1]])
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert_proj_eq(meet(p, q), expected)
    assert_proj_eq(join(p, q), np.eye(3))


# ---------------------------------------------------------------- distributivity


def test_distributivity_commuting_diagonals():
    a = proj(np.diag([1.0, 0.0, 0.0]))
    b = proj(np.diag([0.0, 1.0, 0.0]))
    c = proj(np.diag([1.0, 1.0, 0.0]))
    report = distributivity_check(a, b, c)
    assert report.meet_equal and report.join_equal and report.inequality_holds


def test_distributivity_canonical_witness():
    a, b, c = proj(P_ZERO), proj(P_PLUS), proj(P_MINUS)
    report = distributivity_check(a, b, c)
    assert not report.meet_equal
    assert_proj_eq(report.lhs_meet, P_ZERO)  # a ^ (b v c) = a ^ I = a
    assert_proj_eq(report.rhs_meet, np.zeros((2, 2)))  # (a^b) v (a^c) = 0
    assert report.inequality_holds


def test_distributivity_absorption_with_bottom():
    rng = np.random.default_rng(1)
    a = proj(random_projector(rng, 4))
    b = proj(random_projector(rng, 4))
    c = proj(np.zeros((4, 4)))
    report = distributivity_check(a, b, c)
    # a v (b ^ 0) = a and (a v b) ^ (a v 0) = a by absorption
    assert report.join_equal
    assert_proj_eq(report.lhs_join, a.mat)


# ---------------------------------------------------------------- compatibility


def test_compatible_pairs():
    # the rule the lattice run writes as "pairwise compatible"
    def compatible(p, q):
        return abelian_certificate([p.mat, q.mat]).abelian

    assert compatible(proj(np.diag([1.0, 0.0])), proj(np.diag([0.0, 1.0])))
    assert not compatible(proj(P_ZERO), proj(P_PLUS))
    p = proj(P_PLUS)
    assert compatible(p, ortho(p))


def test_incompatible_commutator_norm_value():
    # direct computation: [P0, P+] = [[0, 1/4... ]] with norm 1/sqrt(2)
    from gamowlab.cmatrix import commutator

    norm = frobenius_norm(commutator(P_ZERO, P_PLUS))
    assert norm == pytest.approx(1 / np.sqrt(2), rel=1e-15)


# ---------------------------------------------------------------- abelian certificates


def test_abelian_certificate_diagonals():
    mats = [np.diag([1.0, 2.0]), np.diag([3.0, -1.0]), np.diag([0.0, 5.0])]
    cert = abelian_certificate(mats)
    assert cert.abelian
    assert cert.worst_norm <= 1e-15


def test_abelian_certificate_damping_limits():
    mats = [damping_limit(m) for m in (SIGMA_X + SIGMA_Y, np.array([[3, 7], [9, -2]]), np.eye(2))]
    cert = abelian_certificate(mats)
    assert cert.abelian and cert.worst_norm <= 1e-12


def test_abelian_certificate_pauli_pair():
    cert = abelian_certificate([SIGMA_X, SIGMA_Y])
    assert not cert.abelian
    assert cert.worst_pair == (0, 1)
    assert cert.worst_norm == pytest.approx(2 * np.sqrt(2), rel=1e-15)


def test_abelian_certificate_single_and_empty():
    cert = abelian_certificate([SIGMA_X])
    assert cert.abelian and cert.worst_pair is None and cert.worst_norm == 0.0
    with pytest.raises(ValueError, match="at least one"):
        abelian_certificate([])


# ---------------------------------------------------------------- lattice laws


def test_de_morgan_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        p = proj(random_projector(rng, d))
        q = proj(random_projector(rng, d))
        lhs = ortho(join(p, q))
        rhs = meet(ortho(p), ortho(q))
        assert frobenius_norm(lhs.mat - rhs.mat) <= 1e-9


def test_join_matches_span_of_both_ranges():
    # an independent reference: the projector onto the columns of p and q together
    rng = np.random.default_rng(4)
    zero, eye = proj(np.zeros((3, 3))), proj(np.eye(3))
    pairs = [(zero, zero), (zero, eye), (eye, eye), (zero, proj(random_projector(rng, 3)))]
    for _ in range(30):
        d = int(rng.integers(2, 8))
        pairs.append((proj(random_projector(rng, d)), proj(random_projector(rng, d))))
    for p, q in pairs:
        reference = projector_onto(np.hstack([p.mat, q.mat]).T)
        assert frobenius_norm(join(p, q).mat - reference.mat) <= 1e-9


def test_generic_ranks_at_benchmark_size():
    # d = 16 with ranks 4-12: the rank cut alone decides every meet and join
    rng = np.random.default_rng(13)
    d = 16
    for _ in range(4):
        ranks = rng.integers(4, 13, size=3)
        triple = [proj(random_projector(rng, d, int(r))) for r in ranks]
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert meet(triple[i], triple[j]).rank == max(0, ranks[i] + ranks[j] - d)
            assert join(triple[i], triple[j]).rank == min(d, ranks[i] + ranks[j])
        assert distributivity_check(*triple).inequality_holds


def contains(larger: Projector, smaller: Projector) -> bool:
    """range(smaller) subset of range(larger): the rule distributivity_check applies, larger @ smaller == smaller."""
    return frobenius_norm(larger.mat @ smaller.mat - smaller.mat) <= 1e-9


def test_contains():
    rng = np.random.default_rng(17)
    a = proj(random_projector(rng, 16, 10))
    b = proj(random_projector(rng, 16, 10))
    ab = meet(a, b)
    assert ab.rank == 4
    assert contains(a, ab) and contains(b, ab) and contains(join(a, b), a)
    assert not contains(ab, a)
    assert not contains(proj(P_ZERO), proj(P_PLUS))


def test_distributive_inequalities_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a, b, c = (proj(random_projector(rng, d)) for _ in range(3))
        assert distributivity_check(a, b, c).inequality_holds


def test_commuting_triples_are_distributive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        u = random_unitary(rng, d)
        diags = [np.diag(rng.integers(0, 2, size=d).astype(float)) for _ in range(3)]
        a, b, c = (proj(u @ dg @ u.conj().T) for dg in diags)
        report = distributivity_check(a, b, c)
        assert report.meet_equal and report.join_equal


def test_meet_join_commutative_associative():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a, b, c = (proj(random_projector(rng, d)) for _ in range(3))
        assert frobenius_norm(meet(a, b).mat - meet(b, a).mat) <= 1e-9
        assert frobenius_norm(join(a, b).mat - join(b, a).mat) <= 1e-9
        assert frobenius_norm(meet(meet(a, b), c).mat - meet(a, meet(b, c)).mat) <= 1e-9
        assert frobenius_norm(join(join(a, b), c).mat - join(a, join(b, c)).mat) <= 1e-9


# ---------------------------------------------------------------- the level-batched check


def reference_meet(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One meet per call: the Gram matrix's candidate null space, kept if its residual passes, else the SVD route."""
    eye = np.eye(len(p))
    _, s, vh = np.linalg.svd((eye - p) + (eye - q))
    null = s <= qlattice._NULL_EIGENVALUE_CUT
    candidate = (vh.conj().T * null) @ vh
    residual = np.linalg.norm(np.vstack([(eye - p) @ candidate, (eye - q) @ candidate]))
    if residual <= qlattice._MEET_RESIDUAL_TOL * np.sqrt(s[~null].min(initial=np.inf)):
        return candidate
    return svd_reference_meet(p, q)


def svd_reference_meet(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One meet per call from the SVD of the stacked complements, cut at RANK_CUTOFF on the singular values."""
    eye = np.eye(len(p))
    _, s, vh = np.linalg.svd(np.vstack([eye - p, eye - q]), full_matrices=False)
    return (vh.conj().T * (s <= qlattice.RANK_CUTOFF)) @ vh


def reference_reports(x, y, z, meet_of=reference_meet) -> list[np.ndarray]:
    """The four report matrices of distributivity_check, one meet at a time; joins by De Morgan."""
    eye = np.eye(len(x))

    def join_of(p, q):
        return eye - meet_of(eye - p, eye - q)

    return [
        meet_of(x, join_of(y, z)),
        join_of(meet_of(x, y), meet_of(x, z)),
        join_of(x, meet_of(y, z)),
        meet_of(join_of(x, y), join_of(x, z)),
    ]


def rank(mat: np.ndarray) -> int:
    return int(round(np.trace(mat).real))


def check_triples():
    rng = np.random.default_rng(23)
    triples = {}
    for d in (2, 3, 8, 16):
        triples[f"random-d{d}"] = [
            tuple(random_projector(rng, d, int(rng.integers(0, d + 1))) for _ in range(3)) for _ in range(6)
        ]
    d = 16
    zero, eye = np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex)
    a, b = random_projector(rng, d, 6), random_projector(rng, d, 9)
    u = random_unitary(rng, d)
    nested = [u[:, :r] @ u[:, :r].conj().T for r in (3, 7, 12)]
    triples["zero"] = [(zero, a, b), (a, zero, b), (a, b, zero), (zero, zero, zero)]
    triples["identity"] = [(eye, a, b), (a, eye, b), (a, b, eye), (eye, eye, eye)]
    triples["equal"] = [(a, a, a), (b, b, b)]
    triples["nested"] = [tuple(nested), tuple(nested[::-1]), (nested[1], nested[0], nested[2])]
    # ranges at small principal angles theta, on both sides of the rank cutoff's 1.4e-10 rad:
    # lines in C^2, and planes in C^3 that share e1 and meet e2 at angle theta
    triples["near"] = []
    for theta in (1e-11, 1e-10, 1e-8, 1e-6, 1e-4):
        cos, sin = np.cos(theta), np.sin(theta)
        lines = [projector_onto(v).mat for v in ([1, 0], [cos, sin], [0, 1])]
        planes = [projector_onto(v).mat for v in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, cos, sin]], [[0, 0, 1]])]
        triples["near"] += [tuple(lines), tuple(planes), (planes[1], planes[0], planes[2])]
    return triples


CHECK_TRIPLES = check_triples()


@pytest.mark.parametrize("case", list(CHECK_TRIPLES))
def test_distributivity_check_equals_the_per_meet_compositions(case):
    for mats in CHECK_TRIPLES[case]:
        a, b, c = (proj(m) for m in mats)
        report = distributivity_check(a, b, c)
        got = [report.lhs_meet.mat, report.rhs_meet.mat, report.lhs_join.mat, report.rhs_join.mat]
        public = [meet(a, join(b, c)), join(meet(a, b), meet(a, c)), join(a, meet(b, c)), meet(join(a, b), join(a, c))]
        loop = reference_reports(*mats)
        for mat, p, ref, svd_ref in zip(got, public, loop, reference_reports(*mats, meet_of=svd_reference_meet)):
            assert mat.tobytes() == p.mat.tobytes()
            assert mat.tobytes() == ref.tobytes()
            # the singular-value route on the stacked complements agrees up to roundoff
            assert rank(mat) == rank(svd_ref)
            assert np.abs(mat - svd_ref).max() <= 1e-12
            Projector(mat.copy())  # every report projector passes the public checks
        assert report.inequality_holds


@pytest.mark.parametrize(
    "theta, meet_rank, svd_calls", [(1e-11, 1, 1), (1e-10, 1, 2), (1e-6, 0, 2), (1e-4, 0, 2), (1e-2, 0, 1)]
)
def test_meet_cut_on_the_principal_angle(theta, meet_rank, svd_calls, monkeypatch):
    # lines at angle theta: the complements' singular value is sqrt(1 - cos(theta)) ~ theta / sqrt(2), so
    # the rank cutoff joins lines closer than about 1.4e-10 rad. The Gram matrix's eigenvalue 1 - cos(theta)
    # falls below its 1e-8 cut up to about 1.4e-4 rad; there the residual check sends the meets to the
    # second SVD unless the lines are within about 1.4e-11 rad
    p = projector_onto([1.0, 0.0])
    q = projector_onto([np.cos(theta), np.sin(theta)])
    assert rank(svd_reference_meet(p.mat, q.mat)) == meet_rank
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    got = meet(p, q)
    assert got.rank == meet_rank
    assert calls == [(1, 2, 2), (1, 4, 2)][:svd_calls]
    assert frobenius_norm(p.mat @ got.mat - got.mat) <= 1e-10 and frobenius_norm(q.mat @ got.mat - got.mat) <= 1e-10


@pytest.mark.parametrize("theta", [1.5e-4, 1e-3])
def test_meet_near_the_cut_matches_the_svd_route(theta):
    # rank-8 ranges in C^16 sharing 7 directions, the 8th pair at angle theta: the Gram eigenvalue
    # 1 - cos(theta) sits just above the 1e-8 cut, where the Gram eigenvectors are off by up to
    # about 1e-16 / (1 - cos(theta)); the residual check must send such a meet to the second SVD
    rng = np.random.default_rng(41)
    for _ in range(5):
        u = random_unitary(rng, 16)
        b = u[:, :8].copy()
        b[:, 7] = np.cos(theta) * u[:, 7] + np.sin(theta) * u[:, 8]
        p, q = u[:, :8] @ u[:, :8].conj().T, b @ b.conj().T
        got = meet(proj(p), proj(q)).mat
        assert rank(got) == 7
        assert np.abs(got - svd_reference_meet(p, q)).max() <= 1e-12


def test_near_lines_keep_the_inequalities():
    # a ^ b would be a line off both a and b by 5e-7 if the Gram cut alone decided it
    theta = 1e-6
    a, b, c = (projector_onto(v) for v in ([1.0, 0.0], [np.cos(theta), np.sin(theta)], [0.0, 1.0]))
    report = distributivity_check(a, b, c)
    assert report.inequality_holds
    assert not report.meet_equal and not report.join_equal
    assert [p.rank for p in (report.lhs_meet, report.rhs_meet, report.lhs_join, report.rhs_join)] == [1, 0, 1, 2]


def test_distributivity_check_makes_two_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(31)
    for _ in range(3):
        distributivity_check(*(proj(random_projector(rng, 16, 8)) for _ in range(3)))
    assert calls == [(6, 16, 16), (4, 16, 16)] * 3


STACK_REJECTIONS = {
    "non-finite": (np.array([[np.nan, 0], [0, 0]], dtype=complex), "finite"),
    "entry-bound": (np.array([[2, 0], [0, 0]], dtype=complex), "size <= 1 \\+ 1e-10"),
    "not-hermitian": (np.array([[1, 1], [0, 0]], dtype=complex), "not Hermitian to 1e-12"),
    "not-idempotent": (0.5 * np.eye(2, dtype=complex), "not idempotent to 1e-10"),
}


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", list(STACK_REJECTIONS))
def test_stacked_check_rejects_one_bad_member(bad, position):
    stack = np.stack([P_ZERO, P_PLUS, P_MINUS, np.eye(2, dtype=complex)])
    assert qlattice._check_projectors(stack) is stack
    mat, message = STACK_REJECTIONS[bad]
    stack[position] = mat
    with pytest.raises(ValueError, match=message):
        qlattice._check_projectors(stack)
    with pytest.raises(ValueError, match=message):
        Projector(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
def test_stacked_check_reports_non_finite_before_the_entry_bound(bad):
    stack = np.stack([np.array([[2, 0], [0, 0]], dtype=complex), np.array([[bad, 0], [0, 2]], dtype=complex)])
    with pytest.raises(ValueError, match="finite"):
        qlattice._check_projectors(stack)


def test_projector_of_a_transposed_view():
    p = random_projector(np.random.default_rng(37), 4, 2)
    assert not p.T.flags.c_contiguous
    np.testing.assert_array_equal(Projector(p.T).mat, p.T)  # p^T = conj(p) is a projector too


def test_projector_is_checked_with_its_complement():
    # P passes the idempotent check, but one rounding of 1 - P_00 puts I - P past it
    with pytest.raises(ValueError, match="not idempotent"):
        Projector(np.diag([-9.999999e-11, 1]).astype(complex))


def test_complements_are_not_checked_again(monkeypatch):
    p = Projector(np.diag([-5e-11, 1]).astype(complex))  # I - P passes at construction too
    checked = []
    check = qlattice._check_projectors

    def counting_check(stack):
        checked.append(len(stack))
        return check(stack)

    monkeypatch.setattr(qlattice, "_check_projectors", counting_check)
    q = Projector(P_PLUS)
    assert checked == [2]
    np.testing.assert_array_equal(ortho(p).mat, np.eye(2) - p.mat)
    assert checked == [2]
    assert join(p, q).rank == 2
    assert checked == [2, 1]  # the one meet of the complements
    distributivity_check(p, q, Projector(P_MINUS))
    assert checked == [2, 1, 2, 6, 4]  # the two levels of meets
