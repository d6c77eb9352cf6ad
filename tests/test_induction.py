import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitcone import (
    annihilator_cone,
    build_algebra,
    cartan_classes,
    cartan_signature,
    classify_batch,
    cone_directions,
    diagonal_embedding,
    induced_cone,
    exact_cone,
    lift_covector,
    make_embedding,
    pair_embedding,
    pullback_q,
    restriction_class_counts,
    restriction_lower_bound,
    saturation_is_full,
)
from orbitcone.errors import (
    BadPartition,
    DimensionMismatch,
    NonCommuting,
    UnsupportedAlgebra,
)
from orbitcone.induction import (
    algebra_rank,
    cartan_signature_search,
    decomposability_obstructed,
    induced_cone_samples,
    regular_signatures,
)
from orbitcone.liealg import ad_matrix, null_rows, random_group_words

PAIR_SPECS = [
    "pair(sl2R, a)",
    "pair(sl2R, so(2))",
    "pair(su(2,1), so(2,1))",
    "diag(sl2R)",
    "pair(so(3,1), blocks[(1,1),(2,0)])",
    "pair(so(4,2), blocks[(1,1),(1,1),(2,0)])",
    "pair(so(2,2), blocks[(2,1),(0,1)])",
]


@pytest.fixture(params=PAIR_SPECS)
def embedding(request):
    return pair_embedding(request.param)


def test_embedding_respects_brackets(embedding):
    # the inclusion must be a Lie algebra homomorphism
    from orbitcone.liealg import bracket

    E = embedding
    for i in range(E.sub.dim):
        for j in range(E.sub.dim):
            lhs = bracket(E.sub, np.eye(E.sub.dim)[i], np.eye(E.sub.dim)[j]) @ E.inclusion
            rhs = bracket(E.ambient, E.inclusion[i], E.inclusion[j])
            assert np.allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize(
    "sub, rows, pair",
    [
        # [x, y] = -2z in sl2R, so doubling z breaks the first pair
        ("sl2R", [[1, 0, 0], [0, 1, 0], [0, 0, 2]], "(0,1)"),
        # the first two rows commute, x and y do not
        ("abelian(3)", [[1, 0, 0], [2, 0, 0], [0, 1, 0]], "(0,2)"),
    ],
)
def test_wrong_inclusion_names_its_pair(sub, rows, pair):
    with pytest.raises(DimensionMismatch, match=re.escape(f"at pair {pair}")):
        make_embedding(build_algebra("sl2R"), build_algebra(sub), rows)


def test_pullback_identity(embedding):
    # as bilinear forms in chart coordinates: Q^T G_h = G_g I^T
    E = embedding
    lhs = E.q.T @ E.sub.gram
    rhs = E.ambient.gram @ E.inclusion.T
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_q_after_lift_is_identity(embedding):
    E = embedding
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(E.sub.dim)
    assert np.allclose(pullback_q(E, lift_covector(E, xi)), xi, atol=1e-9)


def test_pullback_respects_pairings(embedding):
    # <q(xi), Y>_h = <xi, I(Y)>_g for every Y in the subalgebra
    from orbitcone.liealg import pairing

    E = embedding
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(E.ambient.dim)
    for j in range(E.sub.dim):
        y = np.eye(E.sub.dim)[j]
        lhs = pairing(E.sub, pullback_q(E, xi), y)
        rhs = pairing(E.ambient, xi, y @ E.inclusion)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_annihilator_dims():
    assert pair_embedding("pair(sl2R, a)").complement_q.shape[0] == 2
    assert pair_embedding("pair(sl2R, so(2))").complement_q.shape[0] == 2
    assert pair_embedding("pair(su(2,1), so(2,1))").complement_q.shape[0] == 5
    assert diagonal_embedding("sl2R").complement_q.shape[0] == 3


def test_annihilator_is_killed_by_q(embedding):
    E = embedding
    C = annihilator_cone(E)
    for g in np.asarray(C.generators):
        assert np.linalg.norm(pullback_q(E, g)) < 1e-9 * max(1.0, np.linalg.norm(g))


def test_induced_cone_class_coverage():
    E = pair_embedding("pair(sl2R, a)")
    S = exact_cone("Zero", "a", 1)
    cone = induced_cone(E, S, budget=40_000, seed=0)
    dirs = cone_directions(cone)
    tags = classify_batch(E.ambient, dirs)
    counts = {t: int((tags == t).sum()) for t in set(tags)}
    total = len(dirs)
    for t in ("Elliptic", "Hyperbolic", "Nilpotent"):
        assert counts.get(t, 0) >= 0.01 * total, counts


def test_induced_samples_keep_untransported_annihilator():
    E = pair_embedding("pair(sl2R, a)")
    S = exact_cone("Zero", "a", 1)
    pts = induced_cone_samples(E, S, budget=8000, seed=3)
    comp = E.complement_q
    for row in comp:
        u = row / np.linalg.norm(row)
        d = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.min(np.linalg.norm(d - u, axis=1)) < 1e-9


def test_induced_cone_is_ad_star_stable():
    E = pair_embedding("pair(sl2R, a)")
    S = exact_cone("Zero", "a", 1)
    cone = induced_cone(E, S, budget=40_000, seed=4)
    dirs = cone_directions(cone)
    rng = np.random.default_rng(5)
    words = random_group_words(E.ambient, 20, rng)
    moved = np.vstack([dirs[::37] @ w.T for w in words])
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    # every transported direction stays within the sampled cone resolution
    from orbitcone.cones import _min_angles_to

    gaps = _min_angles_to(moved, dirs)
    assert np.quantile(gaps, 0.99) <= 0.05


def test_identity_pair_induces_nothing():
    E = make_embedding(build_algebra("sl2R"), build_algebra("sl2R"), np.eye(3))
    S = exact_cone("Zero", "sl2R", 3)
    cone = induced_cone(E, S, budget=4000, seed=6)
    assert cone.kind == "exact" and cone.name == "Zero"


def test_restriction_lower_bound_identity_is_identity():
    E = make_embedding(build_algebra("sl2R"), build_algebra("sl2R"), np.eye(3))
    C = exact_cone("Nplus", "sl2R", 3)
    assert restriction_lower_bound(E, C).name == "Nplus"


def test_restriction_counts_su21():
    from orbitcone import quaternionic_wf

    E = pair_embedding("pair(su(2,1), so(2,1))")
    C = quaternionic_wf(budget=30_000, seed=7)
    counts = restriction_class_counts(E, C, seed=7)
    assert set(counts) >= {"Elliptic", "Hyperbolic", "Nilpotent"}


# frozen against a randomized search over regular centralizers
CARTAN_COUNTS = [
    ("sl2R", {(1, 0), (0, 1)}),
    ("su(2,1)", {(2, 0), (1, 1)}),
    ("so(2,1)", {(1, 0), (0, 1)}),
    ("so(2,2)", {(2, 0), (1, 1), (0, 2)}),
    ("so(4,2)", {(3, 0), (2, 1), (1, 2)}),
    ("so(3,3)", {(2, 1), (1, 2), (0, 3)}),
    ("so(5,0)", {(2, 0)}),
    ("abelian(3)", {(0, 3)}),
    ("so(2,0)", {(1, 0)}),
]


@pytest.mark.parametrize("name,signatures", CARTAN_COUNTS, ids=lambda v: str(v))
def test_cartan_class_enumeration(name, signatures):
    if not isinstance(name, str):
        pytest.skip("id row")
    L = build_algebra(name)
    classes = cartan_classes(L)
    assert {c.signature for c in classes} == signatures


def test_cartan_enumeration_agrees_with_random_search():
    for name in ("so(2,2)", "su(2,1)"):
        L = build_algebra(name)
        enumerated = {c.signature for c in cartan_classes(L)}
        found = set(cartan_signature_search(L, trials=300, seed=11))
        assert found <= enumerated
        assert found == enumerated  # search saturates on these small algebras


def test_cartan_signature_requires_commuting_span():
    L = build_algebra("sl2R")
    with pytest.raises(NonCommuting):
        cartan_signature(L, np.eye(3)[:2])  # x and y do not commute


def test_algebra_rank_values():
    assert algebra_rank(build_algebra("sl2R")) == 1
    assert algebra_rank(build_algebra("su(2,1)")) == 2
    assert algebra_rank(build_algebra("so(4,2)")) == 3
    assert algebra_rank(build_algebra("abelian(3)")) == 3


def test_saturation_verdicts():
    E = pair_embedding("pair(sl2R, a)")
    res = saturation_is_full(E, seed=1)
    assert res.verdict == "true"

    E = pair_embedding("pair(sl2R, so(2))")
    res = saturation_is_full(E, seed=1)
    assert res.verdict == "false"
    assert "compact" in res.detail

    E = pair_embedding("pair(so(4,2), blocks[(1,1),(1,1),(2,0)])")
    res = saturation_is_full(E, budget=30_000, seed=1)
    assert res.verdict == "true"
    assert res.certificate  # witnesses for every class


def test_block_embedding_partition_rules():
    # partial block placement is allowed at the embedding level
    E = pair_embedding("pair(so(3,1), blocks[(1,1)])")
    assert E.sub.name == "so(1,1)"
    with pytest.raises(BadPartition):
        pair_embedding("pair(so(3,1), blocks[])")
    with pytest.raises(BadPartition):
        pair_embedding("pair(so(3,1), blocks[(4,1)])")  # does not fit


def test_blocks_need_orthogonal_ambient():
    with pytest.raises(UnsupportedAlgebra):
        pair_embedding("pair(sl2R, blocks[(1,1)])")


def test_decomposability_obstructed_by_class_counts():
    assert not decomposability_obstructed({"Zero": 1})
    assert not decomposability_obstructed({"Elliptic": 40, "Nilpotent": 2})
    assert decomposability_obstructed({"Elliptic": 40, "Hyperbolic": 1})
    assert decomposability_obstructed({"Mixed": 1})


def _centralizer_signature(L, x, rank):
    """Reference: cartan_signature of the centralizer of x, None when x is
    not regular or its centralizer is not a Cartan subalgebra."""
    cent = null_rows(ad_matrix(L, x))
    if cent.shape[0] != rank:
        return None
    try:
        return cartan_signature(L, cent)
    except NonCommuting:
        return None


@st.composite
def _block_pairs(draw):
    """pair(so(p,q), blocks[...]) with 3 <= p+q <= 8 and a nontrivial block."""
    n = draw(st.integers(3, 8), label="p+q")
    q = draw(st.integers(0, n), label="q")
    p, left_p, left_q, blocks = n - q, n - q, q, []
    while left_p + left_q:
        a = draw(st.integers(1 if left_q == 0 else 0, left_p))
        b = draw(st.integers(1 if a == 0 else 0, left_q))
        blocks.append((a, b))
        left_p, left_q = left_p - a, left_q - b
    assume(any(a + b >= 2 for a, b in blocks))
    return f"pair(so({p},{q}), blocks[{','.join(f'({a},{b})' for a, b in blocks)}])"


@settings(max_examples=40, deadline=None)
@given(spec=_block_pairs(), seed=st.integers(0, 2**32 - 1))
def test_regular_signatures_match_centralizer_signatures(spec, seed):
    E = pair_embedding(spec)
    comp = E.complement_q
    assume(comp.shape[0] > 0)
    pts = np.random.default_rng(seed).standard_normal((12, comp.shape[0])) @ comp
    rank = algebra_rank(E.ambient)
    assert regular_signatures(E.ambient, pts) == [
        _centralizer_signature(E.ambient, y, rank) for y in pts
    ]


@pytest.mark.parametrize("name", ["sl2R", "su(2,1)", "so(3,2)", "so(4,4)", "abelian(3)"])
def test_regular_signatures_of_generic_elements(name):
    L = build_algebra(name)
    pts = np.random.default_rng(5).standard_normal((64, L.dim))
    rank = algebra_rank(L)
    assert regular_signatures(L, pts) == [_centralizer_signature(L, y, rank) for y in pts]


def test_regular_signatures_read_the_kernel_plane_of_a_double_zero():
    # every element of this complement has a double eigenvalue 0; its kernel
    # plane is a compact or a split direction of the Cartan subalgebra
    E = pair_embedding("pair(so(6,2), blocks[(5,0),(1,1),(0,1)])")
    comp = E.complement_q
    pts = np.random.default_rng(0).standard_normal((256, comp.shape[0])) @ comp
    lam = np.abs(np.linalg.eigvals(np.tensordot(pts, np.stack(E.ambient.basis), axes=1)))
    assert np.all(np.sum(lam <= 1e-9 * lam.max(axis=1, keepdims=True), axis=1) == 2)
    sigs = regular_signatures(E.ambient, pts)
    assert sigs == [_centralizer_signature(E.ambient, y, 4) for y in pts]
    assert {(3, 1), (2, 2)} <= set(sigs)


def test_nilpotent_elements_are_not_regular_semisimple():
    # their eigenvalues all vanish, though rounding splits them by ~sqrt(eps)
    cases = {
        "sl2R": [[1.0, 0, 1], [3, 4, 5]],
        "su(2,1)": [[0.0, 0, 0, 1, 0, 0, 1, 1]],  # i [[1,0,1],[0,0,0],[-1,0,-1]]
        "so(3,1)": [[1.0, 0, 0, 1, 0, 0]],  # b14 + r12
    }
    for name, pts in cases.items():
        L = build_algebra(name)
        mats = np.tensordot(np.array(pts), np.stack(L.basis), axes=1)
        assert np.allclose(np.linalg.matrix_power(mats, 4), 0)
        assert regular_signatures(L, np.array(pts)) == [None] * len(pts), name


def test_regular_signatures_need_a_rule():
    with pytest.raises(UnsupportedAlgebra):
        regular_signatures(build_algebra("prod(sl2R,sl2R)"), np.zeros((1, 6)))


def test_saturation_search_stops_at_the_last_class():
    # three classes, the last witnessed in the sixth batch of 256 draws
    E = pair_embedding("pair(so(6,2), blocks[(5,0),(1,1),(0,1)])")
    res = saturation_is_full(E, budget=2000, seed=0)
    assert res.verdict == "true"
    assert res.certificate["draws"] == 1536
    assert set(res.certificate["witnesses"]) == {"(4, 0)", "(3, 1)", "(2, 2)"}
