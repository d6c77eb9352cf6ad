import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcone import (
    GOLDEN_ROWS,
    bk_weak_containment,
    build_algebra,
    cone_equal,
    exact_cone,
    golden_table,
    pair_embedding,
    quaternionic_wf,
    representation,
    restriction_class_counts,
    tensor_analysis,
    wavefront_of,
)
from orbitcone.errors import BadPartition, UnsupportedAlgebra
from orbitcone.induction import decomposability_obstructed


def test_label_forms_are_equivalent():
    a = representation("sigma_disc(3,+)")
    b = representation("sigma_disc:3:+")
    assert a.label == b.label == "sigma_disc(3,+)"
    assert representation("L2_GK").label == "L2_GK"
    assert representation("sigma_hyp:0.5:+-").label == "sigma_hyp(0.5,+-)"


SIGNS = st.sampled_from("+-")


@st.composite
def _label_args(draw):
    """A label family and its arguments, n, m >= 1."""
    n, m = draw(st.integers(1, 50)), draw(st.integers(1, 50))
    return draw(st.sampled_from([
        ("sigma_disc", [str(n), draw(SIGNS)]),
        ("sigma_hyp", [str(n), draw(st.sampled_from(["+", "-", "+-"]))]),
        ("sum_disc", [draw(SIGNS)]),
        ("tensor", [str(n), draw(SIGNS), str(m), draw(SIGNS)]),
    ]))


@settings(max_examples=60, deadline=None)
@given(label=_label_args())
def test_paren_and_colon_labels_agree(label):
    name, args = label
    spec = representation(f"{name}({','.join(args)})")
    assert representation(":".join([name, *args])).label == spec.label
    assert representation(spec.label).label == spec.label
    with pytest.raises(UnsupportedAlgebra):
        representation(spec.label[:-1])


def test_bad_labels_rejected():
    for bad in ("sigma_disc(0,+)", "sigma_disc(-1,+)", "nope(1)", "tensor(1,+)"):
        with pytest.raises(UnsupportedAlgebra):
            representation(bad)


def test_principal_series_support_shapes():
    zero = representation("sigma_hyp(0,+)")
    # the zero-parameter principal series carries the whole nilpotent cone
    assert len(zero.orbital_support.branches) == 3
    generic = representation("sigma_hyp(1,+-)")
    assert len(generic.orbital_support.branches) == 1


def test_golden_rows_are_ten():
    assert len(GOLDEN_ROWS) == 10
    labels = [r[0] for r in GOLDEN_ROWS]
    assert len(set(labels)) == 10


def test_golden_table_all_rows_pass():
    rows = golden_table(seed=0)
    assert len(rows) == 10
    for r in rows:
        assert r["ok"], (r["label"], r["defect"])
        assert r["defect"] <= 0.05


def test_wavefront_of_single_rep():
    spec = representation("sigma_disc(2,-)")
    cone = wavefront_of(spec, seed=3)
    ok, defect = cone_equal(cone, exact_cone("Nminus", "sl2R", 3))
    assert ok, defect


def test_quaternionic_cone_is_nilpotent():
    from orbitcone import classify_batch, cone_directions

    L = build_algebra("su(2,1)")
    C = quaternionic_wf(budget=20_000, seed=1)
    dirs = np.asarray(cone_directions(C))
    assert len(dirs) > 100
    tags = classify_batch(L, dirs[:: max(1, len(dirs) // 200)])
    assert all(t == "Nilpotent" for t in tags)


def test_su21_branching_all_three_classes():
    E = pair_embedding("pair(su(2,1), so(2,1))")
    counts = restriction_class_counts(E, quaternionic_wf(budget=30_000, seed=2), seed=2)
    assert set(counts) >= {"Elliptic", "Hyperbolic", "Nilpotent"}
    assert decomposability_obstructed(counts)


def test_tensor_same_sign_is_elliptic():
    out = tensor_analysis(2, "+", 3, "+", samples=4000, seed=0)
    assert out["classes"]["elliptic+"] == 4000
    assert out["classes"]["hyperbolic"] == 0
    assert out["sum_cone_class"] == "elliptic-plus"
    assert not out["discretely_decomposable_obstructed"]
    out = tensor_analysis(3, "-", 2, "-", samples=10_000, seed=6)
    assert out["classes"] == {"elliptic+": 0, "elliptic-": 10_000, "hyperbolic": 0, "null": 0}
    assert out["sum_cone_class"] == "elliptic-minus"
    assert not out["discretely_decomposable_obstructed"]


def test_tensor_opposite_sign_hits_hyperbolic():
    out = tensor_analysis(2, "+", 3, "-", samples=4000, seed=0)
    assert out["classes"]["hyperbolic"] > 0
    assert out["discretely_decomposable_obstructed"]


@pytest.mark.parametrize("n,s1,m,s2", [(0, "+", 3, "+"), (2, "+", 0, "-"), (2, "*", 3, "+")])
def test_tensor_factors_must_be_elliptic_orbits(n, s1, m, s2):
    with pytest.raises(UnsupportedAlgebra, match="orbit kind"):
        tensor_analysis(n, s1, m, s2, samples=10)


def test_sopq_family_conditions():
    # the block pairs of so(p,q) are pair_embedding specs; BK decides
    # their temperedness exactly
    E = pair_embedding("pair(so(3,1), blocks[(1,1),(2,0)])")
    assert bk_weak_containment(E).verdict == "Contained"
    # one big mixed block: 2(p_i+q_i) = 8 > p+q+2 = 6
    E = pair_embedding("pair(so(3,1), blocks[(3,1)])")
    assert bk_weak_containment(E).verdict == "Violated"
    with pytest.raises(BadPartition):
        pair_embedding("pair(so(3,1), blocks[(2,2)])")


def test_sopq_family_embedding_is_valid():
    E = pair_embedding("pair(so(4,2), blocks[(1,1),(1,1),(2,0)])")
    assert E.ambient.name == "so(4,2)"
    lhs = E.q.T @ E.sub.gram
    rhs = E.ambient.gram @ E.inclusion.T
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.slow
def test_golden_table_holds_over_seeds():
    worst = {}
    for seed in range(20):
        for row in golden_table(seed=seed):
            assert row["ok"], f"{row['label']} fails at seed {seed}: {row['defect']:.4f}"
            worst[row["label"]] = max(worst.get(row["label"], 0.0), row["defect"])
    print(f"worst L2_GK defect over seeds 0-19: {worst['L2_GK']:.4f}")
