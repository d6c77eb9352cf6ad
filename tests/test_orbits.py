import numpy as np
import pytest
from scipy.linalg import qr

from orbitcone import (
    OrbitParam,
    build_algebra,
    canonical_density,
    density_ratio_F,
    euclidean_density,
    kks_form,
    orbit_sample,
    orbit_sum_sample,
    sl2_casimir,
    tangent_basis,
    union_family,
)
from orbitcone.errors import UnsupportedAlgebra, ZeroPoint
from orbitcone.liealg import element_matrix, random_group_words
from orbitcone.orbits import orbit_branch


@pytest.fixture(scope="module")
def sl2():
    return build_algebra("sl2R")


PARAMS = [
    OrbitParam("sl2R", "hyp", 1.5),
    OrbitParam("sl2R", "ell+", 2.0),
    OrbitParam("sl2R", "ell-", 3.0),
    OrbitParam("sl2R", "nil+", None),
    OrbitParam("sl2R", "nil-", None),
]


@pytest.mark.parametrize("param", PARAMS, ids=lambda p: p.kind)
def test_samples_sit_on_the_quadric(sl2, param):
    pts = orbit_sample(sl2, param, 10_000, seed=1, radius=20.0)
    cas = pts[:, 0] ** 2 + pts[:, 1] ** 2 - pts[:, 2] ** 2
    if param.kind == "hyp":
        want = param.value**2
    elif param.kind.startswith("ell"):
        want = -param.value**2
    else:
        want = 0.0
    assert np.max(np.abs(cas - want)) < 1e-9 * np.maximum(
        1.0, np.linalg.norm(pts, axis=1) ** 2
    ).max()
    if param.kind.endswith("+") and param.kind != "hyp":
        assert np.all(pts[:, 2] > 0)
    if param.kind.endswith("-"):
        assert np.all(pts[:, 2] < 0)


@pytest.mark.parametrize(
    "param, message",
    [
        # a negative value would sample the ell- sheet, zero gives NaN points
        (OrbitParam("sl2R", "ell+", -1.0), "needs a positive value"),
        (OrbitParam("sl2R", "ell+", 0.0), "needs a positive value"),
        (OrbitParam("sl2R", "hyp"), "needs a finite value"),
        (OrbitParam("sl2R", "hyp", float("nan")), "needs a finite value"),
        (OrbitParam("sl2R", "nil+", 5.0), "takes no value"),
        (OrbitParam("so(2,1)", "hyp", 1.0), "not an orbit of sl2R"),
    ],
    ids=["ell-negative", "ell-zero", "hyp-no-value", "hyp-nan", "nil-value", "other-algebra"],
)
def test_orbit_branch_rejects_a_bad_param(sl2, param, message):
    with pytest.raises(UnsupportedAlgebra, match=message):
        orbit_sample(sl2, param, 10)


@pytest.mark.parametrize("count", [1, 7, 1000])
def test_every_sampler_returns_count_rows(sl2, count):
    branches = [orbit_branch(sl2, p) for p in PARAMS + [OrbitParam("sl2R", "zero")]]
    branches += [b for kind in ("hyp_union", "ell_union_plus", "ell_union_minus")
                 for b in union_family(sl2, kind).branches]
    rng = np.random.default_rng(0)
    for b in branches:
        assert b.sample(rng, 50.0, count).shape == (count, 3), b.label


def test_sl2_casimir_reads_the_last_axis():
    pts = np.array([[[1.0, 2.0, 3.0], [0.5, 0.0, -0.5]], [[0.0, 0.0, 2.0], [3.0, 4.0, 0.0]]])
    want = [[1.0 + 4.0 - 9.0, 0.0], [-4.0, 25.0]]
    assert np.array_equal(sl2_casimir(pts), want)
    assert sl2_casimir([1.0, 1.0, 1.0]) == 1.0


def test_norm_window_reaches_requested_radius(sl2):
    # the asymptotic-cone filter keeps norm >= radius, so samples must land there
    for param in PARAMS:
        pts = orbit_sample(sl2, param, 2000, seed=3, radius=100.0)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.min() >= 100.0 * 0.999
        assert norms.max() <= 2 * 100.0 + 3 * (param.value or 0.0) + 1.0


def test_invariants_constant_along_orbit(sl2):
    rng = np.random.default_rng(0)
    xi = np.array([2.0, 1.0, 0.5])
    base = sl2_casimir(xi)
    for w in random_group_words(sl2, 40, rng):
        assert np.allclose(sl2_casimir(w @ xi), base, atol=1e-8)


def test_invariants_generic_algebra_are_charpoly_coeffs():
    L = build_algebra("su(2,1)")
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(L.dim)
    inv = np.poly(element_matrix(L, xi))
    for w in random_group_words(L, 20, rng):
        assert np.allclose(np.poly(element_matrix(L, w @ xi)), inv, atol=1e-7)


def test_tangent_rank_matches_svd(sl2):
    rng = np.random.default_rng(5)
    from orbitcone.liealg import ad_matrix

    for _ in range(20):
        xi = rng.standard_normal(3)
        tb = tangent_basis(sl2, xi)
        # oracle: rank of the stacked coadjoint images
        rows = np.array([ad_matrix(sl2, e) @ xi for e in np.eye(3)])
        rank = np.linalg.matrix_rank(rows, tol=1e-10)
        assert tb.shape == (rank, 3)
        # the rows LAPACK's pivoted QR picks (off exact ties of the norms)
        cand = -ad_matrix(sl2, xi).T
        _, r, piv = qr(cand.T, pivoting=True)
        diag = np.abs(np.diag(r))
        assert np.array_equal(tb, cand[np.sort(piv[:np.sum(diag > diag.max() * 1e-10)])])
    for name in ("so(3,1)", "so(2,2)", "su(2,1)"):
        L = build_algebra(name)
        for _ in range(20):
            xi = rng.standard_normal(L.dim)
            tb = tangent_basis(L, xi)
            rank = np.linalg.matrix_rank(-ad_matrix(L, xi).T, tol=1e-10)
            assert len(tb) == rank == np.linalg.matrix_rank(tb, tol=1e-10)
    assert len(tangent_basis(sl2, [1.0, 0.0, 0.0])) == 2
    assert len(tangent_basis(sl2, [0.0, 0.0, 2.0])) == 2
    with pytest.raises(ZeroPoint):
        tangent_basis(sl2, [0.0, 0.0, 0.0])
    # a factor a million times smaller still carries its two tangent rows
    prod = build_algebra("prod(sl2R,sl2R)")
    for a in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        assert len(tangent_basis(prod, a + [1e-6 * x for x in a])) == 4


def test_kks_antisymmetry_and_closedness_inputs(sl2):
    rng = np.random.default_rng(6)
    for _ in range(50):
        xi = rng.standard_normal(3) * 3
        x, y = rng.standard_normal((2, 3))
        a = kks_form(sl2, xi, x, y)
        b = kks_form(sl2, xi, y, x)
        assert a == pytest.approx(-b, abs=1e-12 * max(1.0, abs(a)))


def test_kks_nondegenerate_on_tangent(sl2):
    rng = np.random.default_rng(7)
    from orbitcone.orbits import kks_gram

    for _ in range(30):
        xi = rng.standard_normal(3) * 2
        if abs(sl2_casimir(xi)) < 0.1:
            continue
        frame = tangent_basis(sl2, xi)
        m = kks_gram(sl2, xi, frame)
        assert abs(np.linalg.det(m)) > 1e-12


def test_canonical_density_transport_invariance(sl2):
    # the orbit measure is G-invariant: transported frames give the same value
    rng = np.random.default_rng(8)
    xi = np.array([1.3, -0.4, 0.6])
    frame = tangent_basis(sl2, xi)
    val = canonical_density(sl2, xi, frame)
    for w in random_group_words(sl2, 25, rng):
        assert canonical_density(sl2, w @ xi, frame @ w.T) == pytest.approx(
            val, rel=1e-8
        )


def test_density_identity(sl2):
    # F * canonical = euclidean on every tangent frame
    rng = np.random.default_rng(9)
    for _ in range(30):
        xi = rng.standard_normal(3) * 4
        if abs(sl2_casimir(xi)) < 0.05:
            continue
        frame = tangent_basis(sl2, xi)
        f = density_ratio_F(sl2, xi)
        lhs = f * canonical_density(sl2, xi, frame)
        rhs = euclidean_density(frame)
        assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("kind,value", [("hyp", 1.0), ("ell+", 1.0)])
def test_density_ratio_growth_slope(sl2, kind, value):
    param = OrbitParam("sl2R", kind, value)
    slopes = []
    vals = []
    for t in (1.0, 10.0, 100.0):
        pts = orbit_sample(sl2, param, 64, seed=11, radius=max(t, value * 1.5))
        k = np.argmin(np.abs(np.linalg.norm(pts, axis=1) - t * 2))
        xi = pts[k]
        vals.append((np.linalg.norm(xi), density_ratio_F(sl2, xi)))
    logs = np.log(np.array(vals))
    slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
    # 2-dimensional orbit: F grows linearly in the norm
    assert abs(slope - 1.0) <= 0.1


def test_union_samplers_respect_their_regions(sl2):
    rng = np.random.default_rng(12)
    hyp = union_family(sl2, "hyp_union")
    for branch in hyp.branches:
        pts = branch.sample(rng, 50.0, 2000)
        u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cas = u[:, 0] ** 2 + u[:, 1] ** 2 - u[:, 2] ** 2
        assert np.all(cas > -1e-9)
    ell = union_family(sl2, "ell_union_plus")
    for branch in ell.branches:
        pts = branch.sample(rng, 50.0, 2000)
        cas = pts[:, 0] ** 2 + pts[:, 1] ** 2 - pts[:, 2] ** 2
        # integer-parameter orbits only: casimir is -n^2
        n = np.sqrt(-cas)
        assert np.max(np.abs(n - np.round(n))) < 1e-6
        assert np.all(pts[:, 2] > 0)


def test_orbit_sum_sample_adds_points(sl2):
    a = OrbitParam("sl2R", "ell+", 2.0)
    b = OrbitParam("sl2R", "ell+", 3.0)
    pts = orbit_sum_sample(sl2, a, b, 500, seed=13)
    assert pts.shape == (500, 3)
    cas = pts[:, 0] ** 2 + pts[:, 1] ** 2 - pts[:, 2] ** 2
    # sums of same-sign elliptic points stay strictly elliptic
    assert np.all(cas <= -(2.0 + 3.0) ** 2 + 1e-6)


def test_point_branch_is_conical_only_at_zero(sl2):
    zero = orbit_branch(sl2, OrbitParam("sl2R", "zero", None))
    rng = np.random.default_rng(14)
    pts = zero.sample(rng, 10.0, 5)
    assert pts.shape[1] == 3
    assert np.allclose(pts, 0.0)
