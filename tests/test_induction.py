import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitcone import (
    MatrixLieAlgebra,
    build_algebra,
    cartan_signatures,
    classify_batch,
    cone_directions,
    cone_equal,
    diagonal_embedding,
    induced_cone,
    exact_cone,
    make_embedding,
    pair_embedding,
    restriction_class_counts,
    restriction_lower_bound,
    sampled_cone,
    saturation_is_full,
)
from orbitcone.errors import (
    BadPartition,
    DimensionMismatch,
    NonCommuting,
    UnsupportedAlgebra,
)
from orbitcone.induction import (
    decomposability_obstructed,
    induced_cone_samples,
)
from orbitcone.liealg import (
    MAX_SO_SIZE,
    ad_matrix,
    bracket,
    element_matrix,
    matrix_coords,
    null_rows,
    random_group_words,
    regular_signatures,
)

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
    # the untransported seeds of the induced-cone sampler are annihilator
    # points or lifted S directions, scaled by 0.2 to 5, plus annihilator
    # offsets, so q maps each to 0 or to a multiple in [0.2, 5] of a
    # direction of S.  The transpose of q is no section: q @ q.T is 2I on
    # diag(sl2R)
    E = embedding
    d = np.random.default_rng(1).standard_normal((5, E.sub.dim))
    dirs = d / np.linalg.norm(d, axis=1, keepdims=True)
    out = induced_cone_samples(E, sampled_cone(dirs, E.sub.name), budget=1000, seed=3)
    pool = out[: len(out) // 2]
    img = pool @ E.q.T
    size = np.linalg.norm(img, axis=1)
    lifted = size > 1e-9 * np.linalg.norm(pool, axis=1)
    assert lifted.sum() == 1000 - 1000 // 4
    unit = img[lifted] / size[lifted, None]
    gap = np.linalg.norm(unit[:, None] - dirs[None], axis=2).min(axis=1)
    assert np.max(gap) <= 1e-9
    assert 0.2 * (1 - 1e-9) <= size[lifted].min() <= size[lifted].max() <= 5 * (1 + 1e-9)


def test_pullback_respects_pairings(embedding):
    # <q(xi), Y>_h = <xi, I(Y)>_g for every Y in the subalgebra
    from orbitcone.liealg import pairing

    E = embedding
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(E.ambient.dim)
    for j in range(E.sub.dim):
        y = np.eye(E.sub.dim)[j]
        lhs = pairing(E.sub, E.q @ xi, y)
        rhs = pairing(E.ambient, xi, y @ E.inclusion)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_annihilator_dims():
    assert pair_embedding("pair(sl2R, a)").complement_q.shape[0] == 2
    assert pair_embedding("pair(sl2R, so(2))").complement_q.shape[0] == 2
    assert pair_embedding("pair(su(2,1), so(2,1))").complement_q.shape[0] == 5
    assert diagonal_embedding("sl2R").complement_q.shape[0] == 3


@pytest.mark.parametrize("spec", ["sl2R|so(2)", "sl(2,R)|so(2)", "pair(sl(2,R), so(2,0))"])
def test_every_spelling_of_sl2R_takes_the_so2_alias(spec):
    E = pair_embedding(spec)
    assert E.name == "pair(sl2R, so(2))" and E.sub.name == "so(2,0)"


def test_annihilator_is_killed_by_q(embedding):
    E = embedding
    for g in np.vstack([E.complement_q, -E.complement_q]):
        assert np.linalg.norm(E.q @ g) < 1e-9 * max(1.0, np.linalg.norm(g))


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


# induce --sub-cone Zero against the exact answer of the paper's first
# theorem with tau trivial (the golden rows L2_GA and L2_GK); the bounds sit
# above the largest defects measured over seeds 0-19 (0.118 and 0.058)
INDUCED_ZERO = [("sl2R|a", "Full", 0.15), ("sl2R|so(2)", "HypClosure", 0.075)]


def _induced_zero_within(pair, target, tol, seed):
    E = pair_embedding(pair)
    cone = induced_cone(E, exact_cone("Zero", E.sub.name, E.sub.dim), budget=100_000, seed=seed)
    ok, defect = cone_equal(cone, exact_cone(target, "sl2R", 3), angular_tol=tol)
    assert ok, (pair, seed, defect)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("pair,target,tol", INDUCED_ZERO)
def test_induced_cone_of_zero_is_the_exact_cone(pair, target, tol, seed):
    _induced_zero_within(pair, target, tol, seed)


@pytest.mark.slow
@pytest.mark.parametrize("pair,target,tol", INDUCED_ZERO)
def test_induced_cone_of_zero_is_the_exact_cone_over_seeds(pair, target, tol):
    for seed in range(20):
        _induced_zero_within(pair, target, tol, seed)


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
    assert set(cartan_signatures(build_algebra(name))) == signatures


def test_cartan_enumeration_agrees_with_random_search():
    for name in ("so(2,2)", "su(2,1)"):
        L = build_algebra(name)
        enumerated = set(cartan_signatures(L))
        x = np.random.default_rng(11).standard_normal((300, L.dim))
        found = set(regular_signatures(L, x)) - {None}
        assert found <= enumerated
        assert found == enumerated  # search saturates on these small algebras


# Independent reference for the Cartan signature: root functionals read off
# ad eigenvectors, not the defining-matrix eigenvalues of regular_signatures.


def algebra_rank(L: MatrixLieAlgebra) -> int:
    """Generic centralizer dimension: min over random probes."""
    if L.dim == 0:
        return 0
    rng = np.random.default_rng(0)
    best = L.dim
    for _ in range(8):
        x = rng.standard_normal(L.dim)
        best = min(best, null_rows(ad_matrix(L, x)).shape[0])
    return best


def cartan_signature(L: MatrixLieAlgebra, gens) -> tuple[int, int]:
    """(compact dim, split dim) of a commuting ad-diagonalizable span.

    Root functionals are read off the eigenvectors of a generic element:
    a direction is compact when every root takes an imaginary value on
    it, split when every root takes a real value.  A span without roots
    is central; the weights of its defining matrices decide it the same
    way (the rotation of ``so(2,0)`` is compact, ``abelian(n)`` is split).
    The empty span has signature (0, 0).
    """
    if np.size(gens) == 0:
        return (0, 0)
    g = np.atleast_2d(np.asarray(gens, dtype=float))
    k = len(g)
    scale = max(np.max(np.abs(g)), 1e-12)
    comm = np.max(np.abs(bracket(L, g[:, None], g[None])), axis=2)
    bad = np.argwhere(np.triu(comm > 1e-9 * scale * scale, 1))
    if len(bad):
        raise NonCommuting(f"generators {bad[0][0]} and {bad[0][1]} do not commute")
    ads = ad_matrix(L, g)
    rng = np.random.default_rng(0)
    for _ in range(16):
        combo = rng.standard_normal(k)
        a = np.tensordot(combo, ads, axes=1)
        vals, vecs = np.linalg.eig(a)
        big = np.abs(vals) > 1e-7 * max(1.0, np.max(np.abs(vals)))
        idx = np.where(big)[0]
        mats = ads
        if len(idx) == 0:  # no roots: use the weights of the defining matrices
            mats = element_matrix(L, g)
            vecs = np.linalg.eig(np.tensordot(combo, mats, axes=1))[1]
            idx = np.arange(vecs.shape[1])
        elif len(idx) != L.dim - null_rows(a).shape[0]:
            continue  # not a regular combination, retry
        v = vecs[:, idx] / np.linalg.norm(vecs[:, idx], axis=0)
        roots = np.einsum("ar,kab,br->rk", v.conj(), mats, v)  # <v_r, M_i v_r>
        t_dim = null_rows(roots.real, rtol=1e-7).shape[0]
        a_dim = null_rows(roots.imag, rtol=1e-7).shape[0]
        if t_dim + a_dim != k:
            # a genuine Cartan splits into compact plus split directions;
            # anything else is a non-semisimple span
            raise NonCommuting("span is not ad-diagonalizable")
        return (t_dim, a_dim)
    raise NonCommuting("no regular element found in the span")


# Independent reference for the Cartan classes: one Cartan subalgebra per
# class, given by explicit rows and checked with the ad-root reference.


class CartanRep(NamedTuple):
    label: str
    signature: tuple[int, int]  # (compact dim, split dim)
    generators: np.ndarray  # rows, chart coordinates


def _so_representatives(p: int, q: int) -> list[CartanRep]:
    """so(p,q): a rotations of + index pairs, b rotations of - index pairs,
    rs boosts of (+, -) index pairs and rm mixed blocks (a rotation pair and
    a boost pair on two + and two - indices), a + b + rs + 2 rm = n // 2;
    the first choice of each signature, compact dimension falling."""
    n = p + q
    L = build_algebra(f"so({p},{q})")

    def rot(i, j):
        m = np.zeros((n, n))
        m[i, j], m[j, i] = 1.0, -1.0
        return m

    def boost(i, j):
        m = np.zeros((n, n))
        m[i, j], m[j, i] = 1.0, 1.0
        return m

    out = {}
    for a in range(p // 2 + 1):
        for b in range(q // 2 + 1):
            for rs in range(min(p, q) + 1):
                for rm in range(min(p, q) // 2 + 1):
                    if 2 * a + rs + 2 * rm > p or 2 * b + rs + 2 * rm > q:
                        continue
                    sig = (a + b + rm, rs + rm)
                    if a + b + rs + 2 * rm != n // 2 or sig in out:
                        continue
                    pi, qi = iter(range(p)), iter(range(p, n))
                    mats = [rot(next(pi), next(pi)) for _ in range(a)]
                    mats += [rot(next(qi), next(qi)) for _ in range(b)]
                    mats += [boost(next(pi), next(qi)) for _ in range(rs)]
                    for _ in range(rm):
                        c1, c2, d1, d2 = next(pi), next(pi), next(qi), next(qi)
                        mats += [rot(c1, c2) + rot(d1, d2), boost(c1, d1) + boost(c2, d2)]
                    label = f"a={a},b={b},split={rs},mixed={rm}"
                    out[sig] = CartanRep(label, sig, matrix_coords(L, np.array(mats)))
    return [out[s] for s in sorted(out, reverse=True)]


def cartan_representatives(L: MatrixLieAlgebra) -> list[CartanRep]:
    if L.name == "sl2R":
        return [
            CartanRep("compact", (1, 0), np.array([[0.0, 0.0, 1.0]])),
            CartanRep("split", (0, 1), np.array([[1.0, 0.0, 0.0]])),
        ]
    if L.name == "su(2,1)":
        e = np.eye(8)
        return [
            CartanRep("compact", (2, 0), np.array([e[6], e[7]])),
            CartanRep("split", (1, 1), np.array([e[0], e[6] - e[7]])),
        ]
    if L.name.startswith("abelian("):
        return [CartanRep("itself", (0, L.dim), np.eye(L.dim))]
    p, q = map(int, re.fullmatch(r"so\((\d+),(\d+)\)", L.name).groups())
    return _so_representatives(p, q)


def check_representatives(L: MatrixLieAlgebra, reps: list[CartanRep]) -> None:
    """Fail unless reps hold one Cartan subalgebra per class of L, in the
    order of cartan_signatures: each has sum(signature) independent rows
    that span their joint centralizer (so they are maximal abelian), and
    the ad-root reference reads its signature."""
    for label, sig, g in reps:
        k = sum(sig)
        assert len(g) == k and not null_rows(g.T).shape[0], (
            f"{label}: rows are not {k} independent vectors"
        )
        cent = null_rows(ad_matrix(L, g).reshape(-1, L.dim), rtol=1e-10)
        assert cent.shape[0] == k, f"{label}: representative is not maximal abelian"
        assert cartan_signature(L, g) == sig, f"signature check failed for {label}"
    sigs = [rep.signature for rep in reps]
    assert len(set(sigs)) == len(sigs), "representatives are not pairwise distinct"
    assert sigs == cartan_signatures(L)


CARTAN_SWEEP = ["sl2R", "su(2,1)", "abelian(3)"] + [
    f"so({p},{n - p})" for n in range(2, MAX_SO_SIZE + 1) for p in range(n + 1)
]


@pytest.mark.parametrize("name", CARTAN_SWEEP)
def test_cartan_signatures_have_representatives(name):
    L = build_algebra(name)
    check_representatives(L, cartan_representatives(L))


def test_cartan_signatures_stop_at_the_catalog_size():
    with pytest.raises(UnsupportedAlgebra, match="no Cartan catalog"):
        cartan_signatures(build_algebra("prod(sl2R,sl2R)"))


def _last_row(rep, row):
    return rep._replace(generators=np.vstack([rep.generators[:-1], row]))


# each mutation of the so(4,4) representatives and the check that must reject it
CATALOG_MUTATIONS = {
    "swapped signature": (
        lambda reps: [reps[0], reps[1]._replace(signature=reps[1].signature[::-1]), *reps[2:]],
        "signature check failed",
    ),
    "non-commuting row": (
        lambda reps: [_last_row(reps[0], np.ones(reps[0].generators.shape[1])), *reps[1:]],
        "not maximal abelian",
    ),
    "dependent row": (
        lambda reps: [_last_row(reps[0], reps[0].generators[:-1].sum(axis=0)), *reps[1:]],
        "independent vectors",
    ),
    "rows of two Cartans": (
        lambda reps: [_last_row(reps[0], reps[-1].generators[-1]), *reps[1:]],
        "not maximal abelian",
    ),
    "duplicate class": (lambda reps: [*reps, reps[0]], "not pairwise distinct"),
}


@pytest.mark.parametrize("mutation", CATALOG_MUTATIONS)
def test_cartan_catalog_rejects_a_mutated_representative(mutation):
    mutate, message = CATALOG_MUTATIONS[mutation]
    L = build_algebra("so(4,4)")
    with pytest.raises(AssertionError, match=message):
        check_representatives(L, mutate(cartan_representatives(L)))


def test_cartan_signature_requires_commuting_span():
    L = build_algebra("sl2R")
    with pytest.raises(NonCommuting):
        cartan_signature(L, np.eye(3)[:2])  # x and y do not commute


def test_cartan_signature_of_the_empty_span_is_zero():
    L = build_algebra("sl2R")
    assert cartan_signature(L, np.zeros((0, 3))) == (0, 0)
    assert cartan_signature(L, []) == (0, 0)


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
@given(spec=_block_pairs())
def test_block_inclusion_rows_are_unit_coordinate_vectors(spec):
    # each so(a,b) basis matrix placed in its block is one so(p,q) basis matrix
    E = pair_embedding(spec)
    hit = np.argmax(np.abs(E.inclusion), axis=1)
    assert len(set(hit)) == E.sub.dim
    np.testing.assert_allclose(E.inclusion, np.eye(E.ambient.dim)[hit], rtol=0, atol=1e-12)


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
