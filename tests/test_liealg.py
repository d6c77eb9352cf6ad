import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from orbitcone import (
    ad_matrix,
    bracket,
    build_algebra,
    classify_batch,
    classify_element,
    coadjoint_ad,
    dual_basis_coords,
    exp_jacobian,
    group_orbit_step,
    identify_dual,
    identify_dual_inverse,
    matrix_coords,
    pairing,
)
from orbitcone.errors import DimensionMismatch, UnsupportedAlgebra
from orbitcone.liealg import element_matrix, null_rows, random_group_words

CATALOG = [
    "sl2R",
    "su(2,1)",
    "so(2,1)",
    "so(2,2)",
    "so(3,2)",
    "so(4,2)",
    "a",
    "abelian(3)",
    "prod(sl2R, sl2R)",
]


@pytest.fixture(params=CATALOG)
def algebra(request):
    return build_algebra(request.param)


def test_bracket_matches_matrix_commutator(algebra):
    L = algebra
    for i in range(L.dim):
        for j in range(L.dim):
            ei = np.eye(L.dim)[i]
            ej = np.eye(L.dim)[j]
            comm = element_matrix(L, ei) @ element_matrix(L, ej) - element_matrix(
                L, ej
            ) @ element_matrix(L, ei)
            assert np.allclose(
                element_matrix(L, bracket(L, ei, ej)), comm, atol=1e-12
            )


def test_sl2_bracket_values():
    L = build_algebra("sl2R")
    ex, ey, ez = np.eye(3)
    # frozen from the 2x2 matrix commutators
    assert np.allclose(bracket(L, ex, ez), -2 * ey)
    assert np.allclose(bracket(L, ex, ey), -2 * ez)
    assert np.allclose(bracket(L, ey, ez), 2 * ex)


def test_jacobi_identity(algebra):
    L = algebra
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y, z = rng.standard_normal((3, L.dim))
        s = (
            bracket(L, x, bracket(L, y, z))
            + bracket(L, y, bracket(L, z, x))
            + bracket(L, z, bracket(L, x, y))
        )
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z))
        assert np.linalg.norm(s) <= 1e-12 * scale


def test_dual_basis_pairing(algebra):
    # dual_basis_coords(c)[j] is the value of the covector on e_j
    L = algebra
    rng = np.random.default_rng(4)
    c = rng.standard_normal(L.dim)
    vals = dual_basis_coords(L, c)
    for j in range(L.dim):
        assert pairing(L, c, np.eye(L.dim)[j]) == pytest.approx(vals[j], abs=1e-10)
    # chart coords solve(gram, e_i) give the covector dual to e_i
    for i in range(L.dim):
        xi = np.linalg.solve(L.gram, np.eye(L.dim)[i])
        for j in range(L.dim):
            want = 1.0 if i == j else 0.0
            assert pairing(L, xi, np.eye(L.dim)[j]) == pytest.approx(want, abs=1e-10)


def test_identify_dual_round_trip(algebra):
    L = algebra
    rng = np.random.default_rng(3)
    x = rng.standard_normal(L.dim)
    back = identify_dual_inverse(L, identify_dual(L, x))
    assert np.allclose(back.coords, x, atol=1e-10)


def test_pairing_through_gram(algebra):
    L = algebra
    rng = np.random.default_rng(5)
    c = rng.standard_normal(L.dim)
    y = rng.standard_normal(L.dim)
    assert pairing(L, c, y) == pytest.approx(c @ L.gram @ y, rel=1e-12, abs=1e-12)


def test_coadjoint_is_infinitesimal_pairing():
    # <ad*_X xi, Y> = -<xi, [X, Y]> defines the action
    L = build_algebra("su(2,1)")
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, xi = rng.standard_normal((3, L.dim))
        lhs = pairing(L, coadjoint_ad(L, x, xi), y)
        rhs = -pairing(L, xi, bracket(L, x, y))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_compact_rotation_returns():
    L = build_algebra("sl2R")
    xi = np.array([0.3, -1.2, 0.7])
    ez = np.array([0.0, 0.0, 1.0])
    back = group_orbit_step(L, [(ez, np.pi)], xi)
    assert np.allclose(back, xi, atol=1e-9)


def test_casimir_invariant_under_transport():
    from orbitcone import orbit_invariants, sl2_casimir

    L = build_algebra("sl2R")
    rng = np.random.default_rng(2)
    xi = np.array([1.4, 0.2, 0.9])
    words = random_group_words(L, 50, rng)
    vals = [sl2_casimir(w @ xi) for w in words]
    assert np.allclose(vals, sl2_casimir(xi), atol=1e-9)
    inv0 = orbit_invariants(L, xi)
    for w in words[:10]:
        assert np.allclose(orbit_invariants(L, w @ xi), inv0, atol=1e-8)


def test_classify_examples():
    L = build_algebra("sl2R")
    assert classify_element(L, [1.0, 0.0, 1.0]).tag == "Nilpotent"
    assert classify_element(L, [1.0, 0.0, 0.0]).tag == "Hyperbolic"
    assert classify_element(L, [0.0, 0.0, 1.0]).tag == "Elliptic"
    assert classify_element(L, [0.0, 0.0, 0.0]).tag == "Zero"


def test_classify_scale_and_transport_invariant():
    L = build_algebra("sl2R")
    rng = np.random.default_rng(13)
    pts = [
        np.array([2.0, 0.0, 1.0]),
        np.array([0.5, 0.5, 2.0]),
        np.array([1.0, 1.0, np.sqrt(2.0)]),
    ]
    words = random_group_words(L, 100, rng)
    for p in pts:
        tag = classify_element(L, p).tag
        assert classify_element(L, 7.3 * p).tag == tag
        for w in words:
            assert classify_element(L, w @ p).tag == tag


def test_classify_batch_matches_exact_away_from_band():
    L = build_algebra("sl2R")
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((200, 3))
    u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    cas = u[:, 0] ** 2 + u[:, 1] ** 2 - u[:, 2] ** 2
    clear = np.abs(cas) > 0.05
    tags = classify_batch(L, pts[clear])
    for p, t in zip(pts[clear], tags):
        assert classify_element(L, p).tag == t


def test_exp_jacobian_against_finite_differences():
    L = build_algebra("sl2R")
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(5):
        x = rng.standard_normal(3) * 0.8
        ex = expm(element_matrix(L, x))
        cols = []
        for i in range(3):
            e = np.eye(3)[i]
            dp = expm(element_matrix(L, x + h * e))
            dm = expm(element_matrix(L, x - h * e))
            d = np.linalg.solve(ex, (dp - dm) / (2 * h))
            cols.append(matrix_coords(L, d, tol=1e-4))
        j_fd = abs(np.linalg.det(np.array(cols).T))
        j, j_sqrt = exp_jacobian(L, x)
        assert j == pytest.approx(j_fd, rel=1e-4)
        assert j_sqrt**2 == pytest.approx(j, rel=1e-10)


def test_matrix_coords_round_trip(algebra):
    L = algebra
    rng = np.random.default_rng(29)
    c = rng.standard_normal(L.dim)
    assert np.allclose(matrix_coords(L, element_matrix(L, c)), c, atol=1e-9)


def test_matrix_coords_rejects_outside_span():
    L = build_algebra("sl2R")
    with pytest.raises(DimensionMismatch):
        matrix_coords(L, np.eye(2))  # identity is not traceless


def test_unknown_algebra_rejected():
    with pytest.raises(UnsupportedAlgebra):
        build_algebra("e8")


def test_dimension_mismatch_rejected():
    L = build_algebra("sl2R")
    with pytest.raises(DimensionMismatch):
        pairing(L, [1.0, 0.0], [0.0, 1.0, 0.0])


def _orthonormal(rows):
    return np.allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)


def test_null_rows_numerically_zero_matrix_has_rank_zero():
    noise = 1e-14 * np.random.default_rng(31).standard_normal((3, 4))
    for a in (np.zeros((3, 4)), noise):
        rows = null_rows(a)
        assert rows.shape == (4, 4) and _orthonormal(rows)
    # a purely relative cut-off would read the noise as full rank
    assert null_rows(noise, floor=0.0).shape == (1, 4)


def test_null_rows_of_empty_matrix_is_identity():
    assert np.array_equal(null_rows(np.zeros((0, 3))), np.eye(3))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 8), data=st.data())
def test_null_rows_of_integer_product_has_corank(d, data):
    # B = [I; X] and C = [I | Y] (rows and columns shuffled) have rank r,
    # and so does B @ C: its r-th singular value is at least 1
    r = data.draw(st.integers(0, d), label="r")
    m = data.draw(st.integers(r, 8), label="m")
    ints = st.integers(-3, 3)
    X = np.array(data.draw(st.lists(ints, min_size=(m - r) * r, max_size=(m - r) * r)),
                 dtype=float).reshape(m - r, r)
    Y = np.array(data.draw(st.lists(ints, min_size=r * (d - r), max_size=r * (d - r))),
                 dtype=float).reshape(r, d - r)
    B = np.vstack([np.eye(r), X])[data.draw(st.permutations(range(m)), label="rows")]
    C = np.hstack([np.eye(r), Y])[:, data.draw(st.permutations(range(d)), label="cols")]
    a = B @ C
    rows = null_rows(a)
    assert rows.shape == (d - r, d)
    assert _orthonormal(rows)
    size = max(1.0, np.abs(a).max(initial=0.0))
    assert np.max(np.abs(a @ rows.T), initial=0.0) <= 1e-9 * size
