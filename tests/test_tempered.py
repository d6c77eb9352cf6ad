import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from orbitcone import (
    bk_weak_containment,
    build_algebra,
    make_embedding,
    pair_embedding,
    split_abelian,
    weights_of_action,
)
from orbitcone.errors import NonCommuting, UnsupportedAlgebra
from orbitcone.liealg import ad_matrix, matrix_coords, null_rows
from orbitcone.tempered import (
    INT_SNAP_TOL,
    WeightSystem,
    _bk_rays,
    _candidate_rays,
    _orthonormal_ad,
    rho_batch,
)


def ad_action(L, rows):
    return [ad_matrix(L, r) for r in np.atleast_2d(rows)]


def test_sl2_adjoint_weights():
    L = build_algebra("sl2R")
    a = np.array([[1.0, 0.0, 0.0]])  # the split line through e_x
    W = weights_of_action(ad_action(L, a))
    got = sorted((w[0], m) for w, m in W.weights)
    assert got == [(-2.0, 1), (0.0, 1), (2.0, 1)]
    assert W.integral


def test_empty_action_single_zero_weight():
    W = weights_of_action([], module_dim=5)
    assert W.ambient_dim == 0
    assert W.weights == (((), 5),)


def test_weights_total_multiplicity():
    L = build_algebra("so(2,2)")
    E = pair_embedding("pair(so(2,2), blocks[(1,1),(1,1)])")
    rows = split_abelian(E)
    mats = [ad_matrix(E.ambient, r @ E.inclusion) for r in rows]
    W = weights_of_action(mats)
    assert sum(m for _, m in W.weights) == L.dim


def test_rho_examples():
    L = build_algebra("sl2R")
    W = weights_of_action(ad_action(L, np.array([[1.0, 0.0, 0.0]])))
    # sum of positive weights at y=1: only +2 contributes
    assert rho_batch(W, [[1.0], [-1.0], [0.0]]) == pytest.approx([2.0, 2.0, 0.0])


def test_rho_homogeneous_and_convex():
    L = build_algebra("so(4,2)")
    E = pair_embedding("pair(so(4,2), blocks[(1,1),(1,1),(2,0)])")
    rows = split_abelian(E)
    mats = [ad_matrix(E.ambient, r @ E.inclusion) for r in rows]
    W = weights_of_action(mats)
    rng = np.random.default_rng(3)
    y1, y2 = rng.standard_normal((2, 40, len(rows)))
    t = rng.uniform(0.1, 5.0, 40)
    r1, r2 = rho_batch(W, y1), rho_batch(W, y2)
    assert rho_batch(W, t[:, None] * y1) == pytest.approx(t * r1, rel=1e-10, abs=1e-10)
    assert np.all(rho_batch(W, y1 + y2) <= r1 + r2 + 1e-10)


def test_rho_batch_matches_scalar():
    L = build_algebra("sl2R")
    W = weights_of_action(ad_action(L, np.array([[1.0, 0.0, 0.0]])))
    ys = np.random.default_rng(5).standard_normal((100, 1))
    vals = rho_batch(W, ys)
    for y, v in zip(ys, vals):
        # the scalar definition: positive weight values, with multiplicity
        want = sum(m * max(float(np.dot(w, y)), 0.0) for w, m in W.weights)
        assert want == pytest.approx(float(v), rel=1e-12, abs=1e-12)


def test_trivial_subgroup_contained():
    # no split part means nothing to check
    E = pair_embedding("pair(sl2R, so(2))")
    cert = bk_weak_containment(E)
    assert cert.verdict == "Contained"


def test_identity_pair_violates():
    # the regular representation of the group itself is not weakly
    # contained in L2 unless the group is amenable
    E = make_embedding(build_algebra("sl2R"), build_algebra("sl2R"), np.eye(3))
    cert = bk_weak_containment(E)
    assert cert.verdict == "Violated"
    assert cert.witness is not None
    ray = np.asarray(cert.witness["ray"], dtype=float)
    assert ray.shape == (1,)
    assert cert.witness["two_rho_sub"] == pytest.approx(4.0)
    assert cert.witness["rho_ambient"] == pytest.approx(2.0)


def test_diagonal_pair_boundary_contained():
    E = pair_embedding("diag(sl2R)")
    cert = bk_weak_containment(E)
    # equality 4y <= 4y holds on the nose
    assert cert.verdict == "Contained"


def test_non_integral_weights_raise():
    # the split line acting with weights +-0.6 on sl2R
    E = make_embedding(build_algebra("sl2R"), build_algebra("a"), [[0.3, 0, 0]])
    W = weights_of_action(_orthonormal_ad(E.ambient, split_abelian(E) @ E.inclusion))
    assert not W.integral
    assert sorted(w[0] for w, _ in W.weights) == pytest.approx([-0.6, 0.0, 0.6])
    with pytest.raises(UnsupportedAlgebra, match="not integral"):
        bk_weak_containment(E)


def test_so22_so21_boundary_contained():
    E = pair_embedding("pair(so(2,2), blocks[(2,1),(0,1)])")
    cert = bk_weak_containment(E)
    assert cert.verdict == "Contained"


def test_so42_identity_violated():
    L = build_algebra("so(4,2)")
    E = make_embedding(L, L, np.eye(L.dim))
    cert = bk_weak_containment(E)
    assert cert.verdict == "Violated"
    w = cert.witness
    assert w["two_rho_sub"] > w["rho_ambient"]


def test_certificate_tables_exposed():
    E = pair_embedding("pair(so(3,1), blocks[(1,1),(2,0)])")
    cert = bk_weak_containment(E)
    assert cert.verdict == "Contained"
    t = cert.weight_tables
    assert t["split_dim"] == 1
    assert len(t["sub_weights"]) >= 1
    assert len(t["ambient_weights"]) >= 2
    assert cert.rays_checked >= 2


def test_verdict_agrees_with_sphere_sampling():
    rng = np.random.default_rng(9)
    specs = [
        ("pair(so(3,1), blocks[(1,1),(2,0)])", "Contained"),
        ("pair(so(2,2), blocks[(2,1),(0,1)])", "Contained"),
        ("diag(sl2R)", "Contained"),
    ]
    for spec, want in specs:
        E = pair_embedding(spec)
        cert = bk_weak_containment(E)
        assert cert.verdict == want
        rows = split_abelian(E)
        k = len(rows)
        mats_h = [ad_matrix(E.sub, r) for r in rows]
        mats_g = [ad_matrix(E.ambient, r @ E.inclusion) for r in rows]
        Wh = weights_of_action(mats_h, module_dim=E.sub.dim)
        Wg = weights_of_action(mats_g, module_dim=E.ambient.dim)
        ys = rng.standard_normal((20_000, k))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        gap = 2 * rho_batch(Wh, ys) - rho_batch(Wg, ys)
        assert np.max(gap) <= 1e-9


def test_base_change_invariance():
    # rho is defined by the weight system, not by the basis of the split
    # part: transforming generators by M transforms weight rows by M^-T
    L = build_algebra("so(4,2)")
    E = pair_embedding("pair(so(4,2), blocks[(1,1),(1,1),(2,0)])")
    rows = split_abelian(E)
    k = len(rows)
    rng = np.random.default_rng(13)
    M = rng.standard_normal((k, k)) + 3 * np.eye(k)
    mats = [ad_matrix(E.ambient, r @ E.inclusion) for r in rows]
    new_rows = M @ rows
    new_mats = [ad_matrix(E.ambient, r @ E.inclusion) for r in new_rows]
    W1 = weights_of_action(mats)
    W2 = weights_of_action(new_mats)
    ys = rng.standard_normal((25, k))
    # evaluating the transformed system at y equals the original at M^T y
    assert rho_batch(W2, ys) == pytest.approx(rho_batch(W1, ys @ M), rel=1e-8, abs=1e-8)


def test_split_abelian_rejects_compact():
    E = pair_embedding("pair(sl2R, so(2))")
    assert split_abelian(E).shape[0] == 0


@st.composite
def weight_systems(draw, k):
    """Integral weight systems on a k-dim space, closed under negation
    with equal multiplicities."""
    groups: dict = {}
    for _ in range(draw(st.integers(1, 4))):
        w = tuple(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
        m = draw(st.integers(1, 3))
        for v in {w, tuple(-x for x in w)}:
            groups[v] = groups.get(v, 0) + m
    return WeightSystem(k, tuple(sorted(groups.items())), True)


@st.composite
def weight_pairs(draw):
    k = draw(st.integers(1, 3))
    return k, draw(weight_systems(k)), draw(weight_systems(k))


@settings(max_examples=500, deadline=None)
@given(weight_pairs())
def test_bk_rays_agree_with_sphere_sampling(pair):
    k, Wh, Wg = pair
    cert = _bk_rays(Wh, Wg, k, {})
    if cert.verdict == "Contained":
        ys = np.random.default_rng(0).standard_normal((4000, k))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        assert np.max(2 * rho_batch(Wh, ys) - rho_batch(Wg, ys)) <= 1e-9
    else:
        assert cert.verdict == "Violated"
        w = cert.witness
        y = np.array([w["ray"]])
        assert np.linalg.norm(y) == pytest.approx(1.0)
        assert w["two_rho_sub"] == pytest.approx(2 * rho_batch(Wh, y)[0], abs=1e-9)
        assert w["rho_ambient"] == pytest.approx(rho_batch(Wg, y)[0], abs=1e-9)
        assert w["two_rho_sub"] > w["rho_ambient"]


@st.composite
def weight_pairs_up_to_4(draw):
    k = draw(st.integers(1, 4))
    return k, draw(weight_systems(k)), draw(weight_systems(k))


@settings(max_examples=300, deadline=None)
@given(weight_pairs_up_to_4())
def test_checked_rays_are_primitive_and_exact(pair):
    k, Wh, Wg = pair
    cert = _bk_rays(Wh, Wg, k, {})
    nonzero = {w for w, _ in Wh.weights + Wg.weights if any(w)}
    planes = sorted({max(w, tuple(-x for x in w)) for w in nonzero})
    rays = _candidate_rays(planes, k) if planes else []
    assert cert.rays_checked == len(rays)
    if planes:
        P = np.array(planes)
        d = np.linalg.matrix_rank(P)
        for y in rays:
            assert len(y) == k and all(type(a) is int for a in y)
            assert math.gcd(*y) == 1
            # on d-1 independent weight hyperplanes, off their common kernel
            on = P[P @ y == 0]
            assert (np.linalg.matrix_rank(on) if len(on) else 0) == d - 1
            assert np.any(P @ y)
    ys = np.random.default_rng(0).standard_normal((4000, k))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    sampled = np.max(2 * rho_batch(Wh, ys) - rho_batch(Wg, ys))
    if cert.verdict == "Contained":
        assert sampled <= 1e-9
    else:
        assert cert.verdict == "Violated"
        y = np.array([cert.witness["ray"]])
        assert (2 * rho_batch(Wh, y) - rho_batch(Wg, y))[0] > 0


# (verdict, rays_checked, witness) of blocks pairs, as recorded before the
# ray enumeration moved from rationals to fraction-free integer elimination
BLOCKS_PINS = {
    "so(2,2)|blocks[(2,2)]": (
        "Violated", 4,
        {"ray": [0.7071067811865475, 0.7071067811865475],
         "two_rho_sub": 2.82842712474619, "rho_ambient": 1.414213562373095},
    ),
    "so(3,3)|blocks[(2,2),(1,1)]": ("Contained", 30, None),
    "so(4,3)|blocks[(3,3),(1,0)]": (
        "Violated", 72,
        {"ray": [0.7071067811865475, 0.7071067811865475, 0.0],
         "two_rho_sub": 8.48528137423857, "rho_ambient": 5.65685424949238},
    ),
    "so(4,4)|blocks[(1,1),(1,1),(1,1),(1,1)]": ("Contained", 408, None),
    "so(4,4)|blocks[(3,3),(1,1)]": (
        "Violated", 408,
        {"ray": [1.0, 0.0, 0.0, 0.0], "two_rho_sub": 8.0, "rho_ambient": 6.0},
    ),
}


@pytest.mark.parametrize("spec", sorted(BLOCKS_PINS))
def test_blocks_certificates_are_pinned(spec):
    left, right = spec.split("|")
    cert = bk_weak_containment(pair_embedding(f"pair({left}, {right})"))
    assert (cert.verdict, cert.rays_checked, cert.witness) == BLOCKS_PINS[spec]


def _reference_weights(mats):
    """The per-eigenspace weights: each eigenvalue of a generic combination
    is clustered, its eigenspace recovered as an SVD null space, and each
    generator's scalar read off the restriction.  Takes any commuting
    real-diagonalizable matrices, symmetric or not."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    k = len(mats)
    n = mats[0].shape[0]
    scale = max(1.0, *(np.max(np.abs(m)) for m in mats))
    rng = np.random.default_rng(11)
    for _ in range(8):
        t = np.tensordot(rng.standard_normal(k), np.stack(mats), axes=1)
        vals = np.linalg.eigvals(t)
        if np.max(np.abs(vals.imag)) > 1e-7 * scale:
            continue
        centers = []
        for v in np.sort(vals.real):
            if not centers or abs(v - centers[-1]) > 1e-6 * scale:
                centers.append(float(v))
        lam_rows, mults = [], []
        ok = True
        for c in centers:
            V = null_rows(t - c * np.eye(n), rtol=1e-7, floor=scale).T
            mult = V.shape[1]
            if mult == 0:
                ok = False
                break
            row = np.empty(k)
            for i in range(k):
                B = mats[i] @ V
                row[i] = float(np.trace(V.T @ B) / mult)
                if np.linalg.norm(B - row[i] * V) > 1e-6 * scale * np.sqrt(mult):
                    ok = False
                    break
            if not ok:
                break
            lam_rows.append(row)
            mults.append(mult)
        if ok and sum(mults) == n:
            break
    else:
        raise NonCommuting("no generic combination separated the weights")
    lam = np.repeat(np.array(lam_rows), mults, axis=0)
    snapped = np.round(lam)
    integral = bool(np.max(np.abs(lam - snapped)) <= INT_SNAP_TOL)
    if integral:
        lam = snapped
    groups: dict = {}
    for col in range(n):
        if integral:
            key = tuple(int(x) for x in lam[col])
        else:
            key = tuple(round(float(x), 9) for x in lam[col])
        groups[key] = groups.get(key, 0) + 1
    return WeightSystem(k, tuple(sorted(groups.items())), integral)


def _same_weights(a: WeightSystem, b: WeightSystem) -> bool:
    return (a.ambient_dim, a.weights, a.integral) == (b.ambient_dim, b.weights, b.integral)


def _compositions(p, q, cap=None):
    """Multisets of blocks (a, b), a + b >= 1, summing to (p, q), largest
    block first."""
    if p == q == 0:
        yield []
        return
    for a in range(p, -1, -1):
        for b in range(q, -1, -1):
            if a + b >= 1 and (cap is None or (a, b) <= cap):
                for rest in _compositions(p - a, q - b, (a, b)):
                    yield [(a, b), *rest]


# every so(p,q) block pair of the benchmark's blocks workload (p >= q,
# p + q <= 8, some block of size >= 2), and the catalog pairs
BLOCKS_SPECS = [
    "pair(so(%d,%d), blocks[%s])" % (p, n - p, ",".join(f"({a},{b})" for a, b in blocks))
    for n in range(2, 9)
    for p in range(n, (n - 1) // 2, -1)
    for blocks in _compositions(p, n - p)
    if any(a + b >= 2 for a, b in blocks)
]
CATALOG_SPECS = [
    "pair(su(2,1), so(2,1))", "pair(su(2,1), su(2,1))", "diag(sl2R)", "diag(so(3,2))",
    "pair(sl2R, a)", "pair(abelian(2), abelian(2))", "pair(so(6,4), blocks[(6,4)])",
    "pair(so(7,3), blocks[(4,1),(3,2)])",
]


def test_weights_equal_the_per_eigenspace_reference():
    assert len(set(BLOCKS_SPECS)) == 633
    embeddings = [pair_embedding(s) for s in BLOCKS_SPECS + CATALOG_SPECS]
    embeddings.append(make_embedding(build_algebra("sl2R"), build_algebra("a"), [[0.3, 0, 0]]))
    n_split = 0
    for E in embeddings:
        rows = split_abelian(E)
        if len(rows) == 0:
            continue
        n_split += 1
        for L, x in ((E.sub, rows), (E.ambient, rows @ E.inclusion)):
            want = _reference_weights(ad_matrix(L, x))
            got = weights_of_action(_orthonormal_ad(L, x))
            assert _same_weights(got, want), (E.name, L.name)
    assert n_split == 421 + 9  # blocks pairs with a split part, catalog pairs


@st.composite
def rotated_weight_systems(draw):
    """(Q, lam, W): a random integral weight system W, closed under
    negation, its weights repeated by multiplicity as the rows of lam, and
    a random orthogonal Q; generator i acts as Q diag(lam[:, i]) Q^T."""
    k = draw(st.integers(1, 4))
    W = draw(weight_systems(k))
    lam = np.repeat(np.array([w for w, _ in W.weights], dtype=float),
                    [m for _, m in W.weights], axis=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return Q, lam, W


@settings(max_examples=300, deadline=None)
@given(rotated_weight_systems())
def test_weights_of_rotated_diagonal_action_come_back_exactly(drawn):
    Q, lam, W = drawn
    got = weights_of_action([(Q * col) @ Q.T for col in lam.T])
    assert _same_weights(got, W)
    # a non-integral multiple of the same system
    got = weights_of_action([(Q * (0.37 * col)) @ Q.T for col in lam.T])
    want = {}
    for w, m in W.weights:
        key = tuple(round(0.37 * x, 9) for x in w)
        want[key] = want.get(key, 0) + m
    assert got.weights == tuple(sorted(want.items()))
    assert got.integral == (not any(any(w) for w, _ in W.weights))


def test_combination_that_merges_weights_is_passed_over():
    # the first combination c drawn from default_rng(11) sends the weights
    # +-(c_2, -c_1) and 0 to one eigenvalue; the generators are not scalar
    # there, so the next combination must be used
    c = np.random.default_rng(11).standard_normal(2)
    lam = np.array([[c[1], -c[0]], [-c[1], c[0]], [0.0, 0.0]])
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    got = weights_of_action([(Q * col) @ Q.T for col in lam.T])
    assert [m for _, m in got.weights] == [1, 1, 1] and not got.integral
    assert np.allclose([w for w, _ in got.weights], sorted(map(tuple, lam)), atol=1e-9)


def test_non_symmetric_action_is_unsupported():
    with pytest.raises(UnsupportedAlgebra, match="not symmetric"):
        weights_of_action([np.array([[1.0, 1.0], [0.0, -1.0]])])


def test_non_commuting_pair_is_named():
    h = np.diag([1.0, -1.0, 0.0])
    s = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NonCommuting, match="matrices 0 and 1 "):
        weights_of_action([h, s, np.eye(3)])
    with pytest.raises(NonCommuting, match="matrices 1 and 2 "):
        weights_of_action([np.eye(3), h, s])


def test_conjugated_split_part_is_unsupported():
    # Ad(exp n) moves the split line off the Hermitian matrices of sl2R:
    # the pair is not Cartan-compatible, so BK does not apply
    L = build_algebra("sl2R")
    g = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    E = make_embedding(L, L, matrix_coords(L, g @ L.basis @ np.linalg.inv(g)))
    with pytest.raises(UnsupportedAlgebra, match="not Hermitian"):
        split_abelian(E)
    with pytest.raises(UnsupportedAlgebra, match="not Hermitian"):
        bk_weak_containment(E)


def test_su21_so21_certificate_is_pinned():
    # su(2,1) is the one catalog algebra whose basis is not orthonormal
    # for Re Tr(X Z*) (d1 and d2 overlap); values as recorded with the
    # per-eigenspace weights
    cert = bk_weak_containment(pair_embedding("pair(su(2,1), so(2,1))"))
    assert (cert.verdict, cert.rays_checked, cert.witness) == ("Contained", 2, None)
    assert cert.weight_tables == {
        "split_dim": 1,
        "sub_weights": [[[-1], 1], [[0], 1], [[1], 1]],
        "ambient_weights": [[[-2], 1], [[-1], 2], [[0], 2], [[1], 2], [[2], 1]],
        "rays": 2,
    }
