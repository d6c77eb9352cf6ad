import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcone import (
    bk_weak_containment,
    build_algebra,
    make_embedding,
    pair_embedding,
    split_abelian,
    weights_of_action,
)
from orbitcone.liealg import ad_matrix
from orbitcone.tempered import WeightSystem, _bk_rays, _candidate_rays, rho_batch


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


def test_non_integral_weights_unknown():
    # the split line acting with weights +-0.6 on sl2R
    E = make_embedding(build_algebra("sl2R"), build_algebra("a"), [[0.3, 0, 0]])
    cert = bk_weak_containment(E)
    assert cert.verdict == "Unknown"
    assert cert.witness is None
    assert cert.rays_checked == 0
    t = cert.weight_tables
    assert t["split_dim"] == 1
    assert sorted(w[0] for w, _ in t["ambient_weights"]) == pytest.approx([-0.6, 0.0, 0.6])
    assert t["sub_weights"] == [[[0], 1]]


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
