import re
import warnings

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
    exp_jacobian,
    matrix_coords,
    pairing,
    sl2_casimir,
)
from orbitcone.errors import DimensionMismatch, DimensionTooLarge, UnsupportedAlgebra
from orbitcone.liealg import (
    NILPOTENT_TOL,
    SPECTRAL_TOL,
    _expm_stack,
    _spectra,
    _tags,
    element_matrix,
    null_rows,
    random_group_words,
)

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


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CATALOG), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_maps_match_per_row_calls(name, n, seed):
    L = build_algebra(name)
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, n, L.dim))
    mats, ads = element_matrix(L, X), ad_matrix(L, X)
    pairs = bracket(L, X[:, None], Y[None])
    for i in range(n):
        np.testing.assert_allclose(mats[i], element_matrix(L, X[i]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(ads[i], ad_matrix(L, X[i]), rtol=0, atol=1e-12)
        for j in range(n):
            np.testing.assert_allclose(pairs[i, j], bracket(L, X[i], Y[j]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(matrix_coords(L, mats), X, rtol=0, atol=1e-12)
    # one matrix off the span spoils the whole stack
    mats[-1] = mats[-1] + rng.standard_normal(mats.shape[1:])
    with pytest.raises(DimensionMismatch):
        matrix_coords(L, mats)


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
    # (gram @ c)[j] is the value of the covector on e_j
    L = algebra
    rng = np.random.default_rng(4)
    c = rng.standard_normal(L.dim)
    vals = L.gram @ c
    for j in range(L.dim):
        assert pairing(L, c, np.eye(L.dim)[j]) == pytest.approx(vals[j], abs=1e-10)
    # chart coords solve(gram, e_i) give the covector dual to e_i
    for i in range(L.dim):
        xi = np.linalg.solve(L.gram, np.eye(L.dim)[i])
        for j in range(L.dim):
            want = 1.0 if i == j else 0.0
            assert pairing(L, xi, np.eye(L.dim)[j]) == pytest.approx(want, abs=1e-10)


def test_identify_dual_round_trip(algebra):
    # in the chart the trace-form transport is the identity on coordinates:
    # the functional Y -> Tr(X Y) takes the values gram @ x on the basis,
    # and gram^-1 brings them back to x
    L = algebra
    x = np.random.default_rng(3).standard_normal(L.dim)
    X = element_matrix(L, x)
    vals = np.array([np.trace(X @ e).real for e in L.basis])
    assert np.allclose(np.linalg.solve(L.gram, vals), x, atol=1e-10)


def test_pairing_through_gram(algebra):
    L = algebra
    rng = np.random.default_rng(5)
    c = rng.standard_normal(L.dim)
    y = rng.standard_normal(L.dim)
    assert pairing(L, c, y) == pytest.approx(c @ L.gram @ y, rel=1e-12, abs=1e-12)


def test_gram_equals_the_per_pair_traces(algebra):
    # basis entries are 0, +-1 or +-i: every trace is exact
    L = algebra
    traces = [[np.trace(a @ b).real for b in L.basis] for a in L.basis]
    assert np.array_equal(L.gram, np.array(traces))


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
    back = expm(np.pi * ad_matrix(L, ez)) @ xi
    assert np.allclose(back, xi, atol=1e-9)


def test_casimir_invariant_under_transport():
    L = build_algebra("sl2R")
    rng = np.random.default_rng(2)
    xi = np.array([1.4, 0.2, 0.9])
    words = random_group_words(L, 50, rng)
    vals = [sl2_casimir(w @ xi) for w in words]
    assert np.allclose(vals, sl2_casimir(xi), atol=1e-9)
    inv0 = np.poly(element_matrix(L, xi))
    for w in words[:10]:
        assert np.allclose(np.poly(element_matrix(L, w @ xi)), inv0, atol=1e-8)


def _words_one_by_one(L, count, rng, word_len, scale):
    """Words of word_len factors with steps in (-scale, scale), drawn
    element by element as the package once drew them: the class-invariance
    tests replay their short transports with it."""
    out = np.empty((count, L.dim, L.dim))
    for k in range(count):
        m = np.eye(L.dim)
        for _ in range(word_len):
            x = rng.standard_normal(L.dim)
            nx = np.linalg.norm(x)
            if nx < 1e-12:
                continue
            s = rng.uniform(-scale, scale)
            m = expm((s / nx) * ad_matrix(L, x)) @ m
        out[k] = m
    return out


def _words_word_by_word(L, count, rng, word_len, scale):
    """The words of random_group_words built one word at a time from its
    two draws (every direction, then every step; position p of word k is
    row p * count + k), as a reference."""
    x = rng.standard_normal((word_len * count, L.dim))
    t = rng.uniform(-scale, scale, word_len * count)
    out = np.empty((count, L.dim, L.dim))
    for k in range(count):
        m = np.eye(L.dim)
        for i in range(k, word_len * count, count):
            u = x[i] / np.max(np.abs(x[i]))
            m = expm(t[i] * ad_matrix(L, u / np.sqrt(np.sum(u * u)))) @ m
        out[k] = m
    return out


# Largest relative difference of a word from the scipy reference over the
# cases below and seeds 0-99 was 2.9e-13 (sl2R); the bound sits above it.
WORD_RTOL = 1e-12


@pytest.mark.parametrize("name", ["sl2R", "su(2,1)", "so(6,2)"])
@pytest.mark.parametrize("seed,count,word_len,scale", [(0, 37, 8, 1.0), (11, 5, 8, 1.0)])
def test_group_words_equal_the_per_word_loop(name, seed, count, word_len, scale):
    # the package law: words of length 8 with steps in (-1, 1)
    L = build_algebra(name)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    words = random_group_words(L, count, rng)
    want = _words_word_by_word(L, count, ref, word_len, scale)
    # exactly: both drew the same stream
    assert rng.bit_generator.state == ref.bit_generator.state
    # in value: the batched exponential rounds differently from scipy's
    size = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(words - want) <= WORD_RTOL * size)


def _random_stack(rng, count, d, norm):
    """count random d x d matrices, each scaled to 1-norm ``norm``."""
    a = rng.standard_normal((count, d, d))
    one = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)
    return a * (norm / np.where(one > 0, one, 1.0))[:, None, None]


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.25, 5.0, 50.0])
@pytest.mark.parametrize("d", [0, 1, 3, 8, 28])
def test_batched_exponential_matches_scipy(d, norm):
    rng = np.random.default_rng(d)
    a = _random_stack(rng, 6, d, norm)
    got, want = _expm_stack(a), expm(a)
    assert got.shape == want.shape == (6, d, d)
    size = np.abs(want).max(axis=(1, 2), keepdims=True, initial=0.0)
    assert np.all(np.abs(got - want) <= 1e-11 * size)
    if norm <= 5.0:  # exp(-A) undoes exp(A)
        back = got @ _expm_stack(-a)
        assert np.allclose(back, np.eye(d), rtol=0.0, atol=1e-11)


def test_batched_exponential_of_no_matrix():
    for d in (0, 3):
        assert _expm_stack(np.zeros((0, d, d))).shape == (0, d, d)


def test_group_words_of_no_word_and_of_empty_words():
    rng = np.random.default_rng(0)
    assert random_group_words(build_algebra("su(2,1)"), 0, rng).shape == (0, 8, 8)
    for name in ("so(1,0)", "abelian(0)"):  # dimension 0: no direction to normalize
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert random_group_words(build_algebra(name), 3, rng).shape == (3, 0, 0)


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


SU21_NAMES = ("b13", "b23", "r12", "a13", "a23", "s12", "d1", "d2")

# spec -> canonical name, matrix size, basis names, split columns, chart,
# dtype; dim is the number of names, and split row k is the unit row at
# the k-th split column
BUILDS = {
    "sl(2,R)": ("sl2R", 2, ("x", "y", "z"), [0], "sl2", float),
    "su21": ("su(2,1)", 3, SU21_NAMES, [0], None, complex),
    "split": ("a", 2, ("h",), [0], None, float),
    "abelian(2)": ("abelian(2)", 2, ("a1", "a2"), [0, 1], None, float),
    "so(2,1)": ("so(2,1)", 3, ("b13", "b23", "r12"), [0], "sl2", float),
    "so(3,1)": ("so(3,1)", 4, ("b14", "b24", "b34", "r12", "r13", "r23"), [0], None, float),
    "prod(sl2R, su21)": (
        "prod(sl2R,su(2,1))", 5,
        ("f1.x", "f1.y", "f1.z") + tuple(f"f2.{n}" for n in SU21_NAMES), [0, 3], None, complex,
    ),
    "prod(a,prod(so(1,1),sl2R))": (
        "prod(a,prod(so(1,1),sl2R))", 6,
        ("f1.h", "f2.f1.b12", "f2.f2.x", "f2.f2.y", "f2.f2.z"), [0, 1, 2], None, float,
    ),
    "abelian(0)": ("abelian(0)", 0, (), [], None, float),
}


@pytest.mark.parametrize("spec", BUILDS)
def test_build_algebra_names_and_assembles(spec):
    name, size, names, split, chart, dtype = BUILDS[spec]
    L = build_algebra(spec)
    assert (L.name, L.dim, L.matrix_size, L.basis_names, L.chart) == (
        name, len(names), size, names, chart)
    assert L.basis.dtype == dtype and L.basis.shape == (len(names), size, size)
    assert L.split_coords.shape == (len(split), len(names))
    assert np.array_equal(L.split_coords, np.eye(len(names))[split])


@pytest.mark.parametrize("spec,error,message", [
    ("prod()", UnsupportedAlgebra, "empty product"),
    ("so(6,5)", DimensionTooLarge, "so(6,5) needs 11 > 10 rows"),
    ("e8", UnsupportedAlgebra, "cannot parse algebra spec 'e8'"),
])
def test_build_algebra_rejects(spec, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build_algebra(spec)


@pytest.mark.parametrize("spec,alias", [
    ("sl2R", "sl(2,R)"), ("su(2,1)", "su21"), ("prod(sl2R,a)", "prod(sl(2,R),a)"),
])
def test_one_frozen_algebra_per_name(spec, alias):
    L = build_algebra(spec)
    assert build_algebra(alias) is L
    assert hash(build_algebra(alias)) == hash(L)
    for field in ("basis", "structure", "gram", "split_coords", "flat_basis", "flat_pinv"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(L, field)[...] = 0


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


# ---------------------------------------------------------------------------
# classification of constructed points

H2, N2, K2, Z2 = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2)))
# so(2,2) acts on 2x2 matrices M by M -> A M - M B, (A, B) in sl2R x sl2R,
# keeping det M = y1^2 + y2^2 - y3^2 - y4^2 for y = T vec(M)
T22 = np.array([[0.5, 0, 0, 0.5], [0, 0.5, -0.5, 0], [0.5, 0, 0, -0.5], [0, 0.5, 0.5, 0]])


def _so22(A, B):
    op = np.kron(A, np.eye(2)) - np.kron(np.eye(2), B.T)
    return matrix_coords(build_algebra("so(2,2)"), T22 @ op @ np.linalg.inv(T22))


def _so31(entries):
    m = np.zeros((4, 4))
    for (i, j), v in entries.items():
        m[i, j] = v
    return matrix_coords(build_algebra("so(3,1)"), m)


def _su21(m):
    return matrix_coords(build_algebra("su(2,1)"), np.asarray(m, dtype=complex))


S21 = np.diag([1j, -2j, 1j])  # commutes with the nilpotent X21
X21 = 1j * np.array([[1, 0, -1], [0, 0, 0], [1, 0, -1]])
# (point, tag) pairs whose class is known by construction
KNOWN = {
    "so(3,1)": [
        (_so31({(0, 1): 1, (1, 0): -1}), "Elliptic"),
        (_so31({(0, 3): 1, (3, 0): 1}), "Hyperbolic"),
        (_so31({(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): 1}), "Mixed"),
        (_so31({(0, 1): 1, (1, 0): -1, (0, 3): 1, (3, 0): 1}), "Nilpotent"),
    ],
    "so(2,2)": [
        (_so22(H2, N2), "Mixed"),  # semisimple and nilpotent parts both nonzero
        (_so22(N2, Z2), "Nilpotent"),
        (_so22(N2, N2), "Nilpotent"),
        (_so22(H2, Z2), "Hyperbolic"),
        (_so22(K2, 2 * K2), "Elliptic"),
        (_so22(H2, K2), "Mixed"),
        # integer points whose nilpotent part only the semisimplicity test
        # sees: the split eigenvalues of its Jordan blocks stay real
        (np.array([-1.0, -1, 0, -1, 1, 0]), "Mixed"),
    ],
    "su(2,1)": [
        (_su21(X21), "Nilpotent"),
        (_su21(S21 + X21), "Mixed"),  # not semisimple, imaginary spectrum
        (_su21(S21), "Elliptic"),
        (_su21([[0, 0, 1], [0, 0, 0], [1, 0, 0]]), "Hyperbolic"),
        (np.array([0.0, 0, 0, 0, -1, 1, 1, -1]), "Mixed"),
    ],
    "prod(sl2R,sl2R)": [
        (np.array([1.0, 0, 0, 1, 0, 1]), "Mixed"),  # (H, N)
        (np.array([1.0, 0, 1, 1, 0, 1]), "Nilpotent"),
        (np.array([0.0, 0, 1, 0, 0, 2]), "Elliptic"),
        (np.array([1.0, 0, 0, 0, 0, 0]), "Hyperbolic"),
        (np.array([0.0, -1, 0, 0, -1, -1]), "Mixed"),
    ],
    "prod(so(1,1),so(1,1))": [  # central boosts: a split torus
        (np.array([1.0, 0.0]), "Hyperbolic"),
        (np.array([0.5, -2.0]), "Hyperbolic"),
    ],
    "prod(sl2R,so(1,1))": [
        (np.array([0.0, 0.5, -0.5, 1.0]), "Mixed"),  # (N, boost), boost central
    ],
}


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_constructed_points_have_their_class(name):
    L = build_algebra(name)
    pts = np.array([p for p, _ in KNOWN[name]])
    assert list(classify_batch(L, pts)) == [t for _, t in KNOWN[name]]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(KNOWN)), data=st.data())
def test_classify_batch_equals_classify_element(name, data):
    # batches mix integer points (often nilpotent or not semisimple), zero
    # rows and scaled constructed points; each row's tag is its own
    L = build_algebra(name)
    rows = []
    for _ in range(data.draw(st.integers(1, 10), label="rows")):
        if data.draw(st.booleans()):
            ints = st.lists(st.integers(-2, 2), min_size=L.dim, max_size=L.dim)
            rows.append(np.array(data.draw(ints), dtype=float))
        else:
            point = data.draw(st.sampled_from([p for p, _ in KNOWN[name]]))
            rows.append(data.draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e300])) * point)
    pts = np.array(rows)
    assert list(classify_batch(L, pts)) == [classify_element(L, p).tag for p in pts]


def _words_keep_the_constructed_classes(name, seed):
    L = build_algebra(name)
    # short transports: the package's longer words move some images of the
    # constructed points of prod(sl2R,sl2R) and prod(sl2R,so(1,1)) across
    # the classification band
    words = _words_one_by_one(L, 4, np.random.default_rng(seed), 4, 0.3)
    for p, tag in KNOWN[name]:
        assert list(classify_batch(L, words @ p)) == [tag] * len(words)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(KNOWN)), seed=st.integers(0, 2**32 - 1))
def test_constructed_classes_are_invariant_under_group_words(name, seed):
    _words_keep_the_constructed_classes(name, seed)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(name=st.sampled_from(sorted(KNOWN)), seed=st.integers(0, 2**32 - 1))
def test_constructed_classes_are_invariant_under_many_group_words(name, seed):
    _words_keep_the_constructed_classes(name, seed)


def test_group_words_keep_the_classes_at_a_seed_the_ad_rule_failed():
    # rounding splits the Jordan block of one image of the integer Mixed
    # point wide enough here that a cluster radius of 1e-8 reads it Elliptic
    _words_keep_the_constructed_classes("su(2,1)", 209249)


def _reference_tag(L, c):
    """The classifier per point, as a reference: nilpotent when
    |(X/|X|)^n| < 1e-8 for the n x n defining matrix X, then the squarefree
    minimal polynomial test over greedily clustered eigenvalues."""
    if np.linalg.norm(c) <= 1e-12:
        return "Zero"
    X = element_matrix(L, c / np.linalg.norm(c))
    X = X / np.linalg.norm(X)
    n = len(X)
    if np.linalg.norm(np.linalg.matrix_power(X, n)) < 1e-8:
        return "Nilpotent"
    eigs = np.linalg.eigvals(X)
    tol = 1e-6
    clusters = []
    for v in sorted(eigs, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(v - cl[0]) <= tol:
                cl.append(v)
                break
        else:
            clusters.append([v])
    P, size = np.eye(n, dtype=complex), 1.0
    for cl in clusters:
        F = X - np.mean(cl) * np.eye(n)
        P, size = P @ F, size * max(1.0, np.linalg.norm(F))
    if np.linalg.norm(P) > 1e-7 * size:
        return "Mixed"
    nonzero = eigs[np.abs(eigs) > tol]
    if nonzero.size == 0:
        return "Nilpotent"
    if np.all(np.abs(nonzero.imag) <= tol):
        return "Hyperbolic"
    return "Elliptic" if np.all(np.abs(nonzero.real) <= tol) else "Mixed"


@pytest.mark.parametrize("name", sorted(KNOWN) + ["so(4,2)", "so(6,2)", "abelian(3)"])
def test_classify_batch_matches_the_per_point_reference(name):
    # Gaussian points, and constructed ones scaled and moved by group words
    L = build_algebra(name)
    rng = np.random.default_rng(19)
    pts = [rng.standard_normal((300, L.dim))]
    words = random_group_words(L, 3, rng)
    for p, _ in KNOWN.get(name, []):
        pts.append(np.array([s * p for s in (1e-6, 1.0, 1e6)]))
        pts.append(words @ p)
    pts = np.vstack(pts)
    assert list(classify_batch(L, pts)) == [_reference_tag(L, p) for p in pts]


def _tags_with_every_product(L, u):
    """``_tags`` with the semisimplicity product run on every row, also on
    rows with n distinct eigenvalues, as a reference."""
    X, lam, zero, real, imag, close = _spectra(L, u)
    n, eye = L.matrix_size, np.eye(L.matrix_size)
    nil = np.linalg.norm(np.linalg.matrix_power(X, n), axis=(1, 2)) < NILPOTENT_TOL
    lead = ~np.any(np.tril(close, -1), axis=2)
    P, size = eye.astype(complex), np.ones(len(X))
    for k in range(n):
        F = np.where(lead[:, k, None, None], X - lam[:, k, None, None] * eye, eye)
        P = P @ F
        size *= np.where(lead[:, k], np.maximum(1.0, np.linalg.norm(F, axis=(1, 2))), 1.0)
    semisimple = np.linalg.norm(P, axis=(1, 2)) <= 1e-7 * size
    all_real, all_imag = np.all(zero | real, axis=1), np.all(zero | imag, axis=1)
    tags = np.select([nil, ~semisimple, np.all(zero, axis=1), all_real, all_imag],
                     ["Nilpotent", "Mixed", "Nilpotent", "Hyperbolic", "Elliptic"], "Mixed")
    return tags.tolist(), lam


def _spectral_gap(L, pts):
    """Smallest distance between two eigenvalues of each row's unit-norm
    defining matrix."""
    lam = _spectra(L, pts)[1]
    d = np.abs(lam[:, :, None] - lam[:, None, :])
    return np.min(d + np.where(np.eye(lam.shape[1], dtype=bool), np.inf, 0.0), axis=(1, 2))


GAP_FACTORS = (0.5, 1.0, 2.0, 10.0)


def _near_defective_points(L, base, rng, directions=4):
    """Points base + t d, for random unit directions d, with t bisected
    until the smallest eigenvalue gap is each of GAP_FACTORS times
    SPECTRAL_TOL, and the factor each one aims at; only the base points
    whose gap runs from below the target (t = 1e-14) to above it (t = 1)
    take part."""
    d = rng.standard_normal((len(base) * directions, L.dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    p = np.repeat(base, directions, axis=0)
    p, d = np.tile(p, (len(GAP_FACTORS), 1)), np.tile(d, (len(GAP_FACTORS), 1))
    factor = np.repeat(GAP_FACTORS, len(base) * directions)
    target = factor * SPECTRAL_TOL
    lo, hi = np.full(len(p), -14.0), np.zeros(len(p))
    ok = (_spectral_gap(L, p + 1e-14 * d) < target) & (_spectral_gap(L, p + d) > target)
    for _ in range(60):  # in log10 t
        mid = (lo + hi) / 2
        below = _spectral_gap(L, p + 10.0 ** mid[:, None] * d) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    pts = p[ok] + 10.0 ** hi[ok, None] * d[ok]
    return pts, factor[ok]


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_tags_skip_only_a_product_that_vanishes(name):
    # rows with n distinct eigenvalues are diagonalizable: the product the
    # classifier skips on them would pass its 1e-7 test; the near-defective
    # rows put eigenvalue gaps on both sides of SPECTRAL_TOL
    L = build_algebra(name)
    rng = np.random.default_rng(23)
    known = np.array([p for p, _ in KNOWN[name]])
    ints = rng.integers(-2, 3, (400, L.dim)).astype(float)
    near, factor = _near_defective_points(L, known, rng)
    # where rounding makes the gap jump, a few rows miss their target
    landed = np.abs(_spectral_gap(L, near) / (factor * SPECTRAL_TOL) - 1) < 1e-3
    for f in GAP_FACTORS:
        assert np.sum(landed & (factor == f)) >= 4, f
    pts = np.vstack([known, ints[np.any(ints != 0, axis=1)], near])
    tags, lam = _tags(L, pts)
    ref_tags, ref_lam = _tags_with_every_product(L, pts)
    assert tags == ref_tags
    assert np.array_equal(lam, ref_lam)


def test_classify_huge_point_does_not_overflow():
    L = build_algebra("sl2R")
    assert classify_element(L, [1e300, 0.0, 1.0]).tag == "Hyperbolic"
    assert list(classify_batch(L, [[1e300, 0.0, 1.0], [1e300, 0.0, 1e300]])) == [
        "Hyperbolic", "Nilpotent"]
    # the norm of this row passes the float range
    assert list(classify_batch(build_algebra("so(2,2)"), [[1e308] * 6])) == ["Mixed"]
    rotation = KNOWN["so(3,1)"][0][0]
    assert classify_element(build_algebra("so(3,1)"), 1e300 * rotation).tag == "Elliptic"


def test_classify_element_lists_the_defining_matrix_spectrum():
    L = build_algebra("so(3,1)")
    boost = 3.0 * KNOWN["so(3,1)"][1][0]
    cls = classify_element(L, boost)
    assert cls.tag == "Hyperbolic"
    np.testing.assert_allclose(cls.eigen_summary, [(-3, 0), (0, 0), (0, 0), (3, 0)], atol=1e-12)


def test_no_gaussian_point_with_a_spectrum_reads_nilpotent():
    # |(X/|X|)^8| >= (spectral radius of X/|X|)^8, which is above 1e-8 when
    # the radius is above 0.1
    rng = np.random.default_rng(0)
    for name in ("so(4,4)", "so(6,2)"):
        L = build_algebra(name)
        pts = rng.standard_normal((3000, L.dim))
        X = element_matrix(L, pts)
        radius = np.abs(np.linalg.eigvals(X)).max(axis=1) / np.linalg.norm(X, axis=(1, 2))
        tags = classify_batch(L, pts[radius > 0.1])
        assert "Nilpotent" not in set(tags), name
