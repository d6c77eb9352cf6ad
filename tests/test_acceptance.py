"""Acceptance gate: one test per acceptance criterion, one line each.

Every test prints a single [criterion N] PASS line with its headline
numbers once its assertions hold, so a verbose run reads as a checklist.
Budgets and tolerances are fixed here on purpose; loosening them is a
contract change, not a tuning knob.
"""

import time

import numpy as np
import pytest

from orbitcone import (
    OrbitParam,
    ac_union_check,
    bk_weak_containment,
    build_algebra,
    canonical_density,
    classify_batch,
    classify_element,
    cone_directions,
    density_ratio_F,
    dual_cone,
    euclidean_density,
    exact_cone,
    exp_jacobian,
    golden_table,
    induced_cone,
    kks_form,
    make_embedding,
    matrix_coords,
    orbit_family,
    orbit_sample,
    pair_embedding,
    polyhedral_cone,
    quaternionic_wf,
    restriction_class_counts,
    sl2_casimir,
    split_abelian,
    tangent_basis,
    tensor_analysis,
    weights_of_action,
)
from orbitcone.cones import _min_angles_to
from orbitcone.induction import induced_cone_samples
from orbitcone.liealg import ad_matrix, bracket, element_matrix, random_group_words
from orbitcone.orbits import kks_gram
from orbitcone.tempered import rho_batch


def test_criterion_1_golden_wavefront_table():
    t0 = time.perf_counter()
    rows = golden_table(seed=0)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 10
    worst = max(r["defect"] for r in rows)
    for r in rows:
        assert r["ok"], (r["label"], r["expected"], r["defect"])
        assert r["defect"] <= 0.05
    assert elapsed <= 60.0, f"golden table took {elapsed:.1f}s"
    print(
        f"\n[criterion 1] PASS golden table: 10/10 identities, "
        f"worst defect {worst:.4f}, {elapsed:.1f}s"
    )


def test_criterion_2_asymptotic_cone_union_lemma():
    sl2 = build_algebra("sl2R")
    rng = np.random.default_rng(2024)
    kinds = ["hyp", "ell+", "ell-", "nil+", "nil-"]
    worst = 0.0
    for trial in range(20):
        fams = []
        for _ in range(int(rng.integers(2, 5))):
            k = kinds[rng.integers(0, len(kinds))]
            v = float(rng.uniform(0.5, 4.0)) if k in ("hyp", "ell+", "ell-") else None
            fams.append(orbit_family(sl2, [OrbitParam("sl2R", k, v)]))
        ok, defect = ac_union_check(fams, seed=1000 + trial, angular_tol=0.05)
        worst = max(worst, defect)
        assert ok, (trial, [f.branches[0].label for f in fams], defect)
    print(f"\n[criterion 2] PASS union lemma: 20/20 families, worst defect {worst:.4f}")


def test_criterion_3_canonical_measure_suite():
    sl2 = build_algebra("sl2R")
    rng = np.random.default_rng(3)

    # KKS antisymmetry and nondegeneracy at 200 random points
    checked = 0
    k = 0
    while checked < 200:
        k += 1
        xi = rng.standard_normal(3) * rng.uniform(0.5, 5.0)
        x, y = rng.standard_normal((2, 3))
        a = kks_form(sl2, xi, x, y)
        assert abs(a + kks_form(sl2, xi, y, x)) <= 1e-12 * max(1.0, abs(a))
        if abs(sl2_casimir(xi)) > 1e-2:
            m = kks_gram(sl2, xi, tangent_basis(sl2, xi))
            assert abs(np.linalg.det(m)) > 1e-12
        checked += 1

    # transport invariance of the canonical density
    xi = np.array([1.1, -0.7, 0.4])
    frame = tangent_basis(sl2, xi)
    base = canonical_density(sl2, xi, frame)
    for w in random_group_words(sl2, 30, rng):
        moved = canonical_density(sl2, w @ xi, frame @ w.T)
        assert moved == pytest.approx(base, rel=1e-8)

    # F * canonical = euclidean
    for _ in range(60):
        xi = rng.standard_normal(3) * 3
        if abs(sl2_casimir(xi)) < 0.05:
            continue
        fr = tangent_basis(sl2, xi)
        lhs = density_ratio_F(sl2, xi) * canonical_density(sl2, xi, fr)
        assert lhs == pytest.approx(euclidean_density(fr), rel=1e-8)

    # growth fit: log-log slope of max F against (1 + |xi|) on |xi| in [1, 100]
    param = OrbitParam("sl2R", "hyp", 1.0)
    pts_all = []
    for t in np.geomspace(1.5, 95.0, 14):
        pts = orbit_sample(sl2, param, 32, seed=5, radius=t)
        pts_all.extend(pts[np.linalg.norm(pts, axis=1) <= 100.0][:16])
    pts_all = np.array(pts_all)
    norms = np.linalg.norm(pts_all, axis=1)
    keep = (norms >= 1.0) & (norms <= 100.0)
    fs = np.array([density_ratio_F(sl2, p) for p in pts_all[keep]])
    bins = np.geomspace(1.0, 100.0, 10)
    xs, ys = [], []
    for lo, hi in zip(bins, bins[1:]):
        sel = (norms[keep] >= lo) & (norms[keep] < hi)
        if sel.sum():
            xs.append(np.log1p(norms[keep][sel].max()))
            ys.append(np.log(fs[sel].max()))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= 1.6, slope
    print(
        f"\n[criterion 3] PASS canonical measure: 200 KKS points, "
        f"transport/identity at 1e-8, growth slope {slope:.3f} <= 1.6"
    )


def _bipartitions(p, q):
    # multisets of blocks (a,b) with a+b >= 1 summing to (p,q)
    def rec(p, q, maxblock):
        if p == 0 and q == 0:
            yield ()
            return
        for a in range(p, -1, -1):
            for b in range(q, -1, -1):
                if a + b == 0:
                    continue
                blk = (a, b)
                if blk > maxblock:
                    continue
                for rest in rec(p - a, q - b, blk):
                    yield (blk,) + rest

    return list(rec(p, q, (p, q)))


def test_criterion_4_bk_sufficiency_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    n_checked = n_trivial = 0
    for n in range(2, 9):
        for p in range(n, (n - 1) // 2, -1):  # so(p,q) ~ so(q,p)
            q = n - p
            for blocks in _bipartitions(p, q):
                if not all(2 * (a + b) <= n + 2 for a, b in blocks if a * b != 0):
                    continue
                if all(a + b == 1 for a, b in blocks):
                    # trivial subgroup: 2*rho_sub = 0 <= rho_ambient, nothing to run
                    n_trivial += 1
                    continue
                spec = "pair(so(%d,%d), blocks[%s])" % (
                    p, q, ",".join(f"({a},{b})" for a, b in blocks)
                )
                E = pair_embedding(spec)
                cert = bk_weak_containment(E)
                assert cert.verdict == "Contained", (spec, cert.witness)
                rows = split_abelian(E)
                k = len(rows)
                if k == 0:
                    n_checked += 1
                    continue
                Wh = weights_of_action(
                    [ad_matrix(E.sub, r) for r in rows], module_dim=E.sub.dim
                )
                Wg = weights_of_action(
                    [ad_matrix(E.ambient, r @ E.inclusion) for r in rows],
                    module_dim=E.ambient.dim,
                )
                ys = rng.standard_normal((100_000, k))
                ys /= np.linalg.norm(ys, axis=1, keepdims=True)
                gap = 2 * rho_batch(Wh, ys) - rho_batch(Wg, ys)
                assert float(gap.max()) <= 1e-9, (spec, float(gap.max()))
                n_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, f"sweep took {elapsed:.0f}s"
    print(
        f"\n[criterion 4] PASS bk sufficiency: {n_checked} block pairs Contained "
        f"and sphere-sampled at 1e5 points each (+{n_trivial} trivial), {elapsed:.0f}s"
    )


def test_criterion_5_saturation_examples():
    sl2 = build_algebra("sl2R")

    # split line: induction reaches all three classes
    E = pair_embedding("pair(sl2R, a)")
    cone = induced_cone(E, exact_cone("Zero", "a", 1), budget=100_000, seed=5)
    dirs = cone_directions(cone)
    tags = classify_batch(sl2, dirs)
    counts = {t: int((tags == t).sum()) for t in set(tags)}
    for t in ("Elliptic", "Hyperbolic", "Nilpotent"):
        assert counts.get(t, 0) >= 0.01 * len(dirs), counts

    # compact line: saturation stays inside the hyperbolic closure
    E2 = pair_embedding("pair(sl2R, so(2))")
    pts = induced_cone_samples(E2, exact_cone("Zero", "so(2)", 1), budget=100_000, seed=5)
    u = pts[np.linalg.norm(pts, axis=1) > 1e-9]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    cas = u[:, 0] ** 2 + u[:, 1] ** 2 - u[:, 2] ** 2
    n_elliptic = int((cas < -0.02).sum())
    assert n_elliptic == 0, n_elliptic

    # rank-one restriction of the quaternionic cone hits all three classes
    E3 = pair_embedding("pair(su(2,1), so(2,1))")
    counts3 = restriction_class_counts(E3, quaternionic_wf(budget=40_000, seed=5), seed=5)
    assert set(counts3) >= {"Elliptic", "Hyperbolic", "Nilpotent"}, counts3

    print(
        f"\n[criterion 5] PASS saturation: split {counts}, "
        f"compact 0 elliptic in {len(u)}, restriction {counts3}"
    )


def test_criterion_6_tensor_branching():
    total = 0
    for n in range(1, 6):
        for m in range(1, 6):
            same = tensor_analysis(n, "+", m, "+", samples=10_000, seed=6)
            assert same["classes"]["elliptic+"] == 10_000, (n, m, same["classes"])
            assert not same["discretely_decomposable_obstructed"]
            opp = tensor_analysis(n, "+", m, "-", samples=10_000, seed=6)
            assert opp["classes"]["hyperbolic"] > 0, (n, m, opp["classes"])
            assert opp["discretely_decomposable_obstructed"]
            total += 2
    print(f"\n[criterion 6] PASS tensor branching: {total} sign pairs, n,m <= 5")


def test_criterion_7_structural_suites(tmp_path):
    rng = np.random.default_rng(7)

    # Jacobi and bracket invariance on the catalog
    for name in ("sl2R", "su(2,1)", "so(2,1)", "so(2,2)", "so(4,2)",
                 "abelian(3)", "prod(sl2R, sl2R)"):
        L = build_algebra(name)
        for _ in range(10):
            x, y, z = rng.standard_normal((3, L.dim))
            s = (
                bracket(L, x, bracket(L, y, z))
                + bracket(L, y, bracket(L, z, x))
                + bracket(L, z, bracket(L, x, y))
            )
            scale = max(
                1.0, np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
            )
            assert np.linalg.norm(s) <= 1e-12 * scale

    # pullback identity on all embeddings
    for spec in (
        "pair(sl2R, a)", "pair(sl2R, so(2))", "pair(su(2,1), so(2,1))",
        "diag(sl2R)", "pair(so(3,1), blocks[(1,1),(2,0)])",
        "pair(so(4,2), blocks[(1,1),(1,1),(2,0)])",
    ):
        E = pair_embedding(spec)
        lhs = E.q.T @ E.sub.gram
        rhs = E.ambient.gram @ E.inclusion.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    # classification is Ad*-invariant over 1000 transports
    sl2 = build_algebra("sl2R")
    words = random_group_words(sl2, 1000, rng)
    for xi in ([2.0, 0.0, 1.0], [0.1, 0.2, 2.0], [1.0, 0.0, 1.0]):
        tag = classify_element(sl2, xi).tag
        for w in words:
            assert classify_element(sl2, w @ np.asarray(xi)).tag == tag

    # exp jacobian against central finite differences
    from scipy.linalg import expm

    h = 1e-5
    for _ in range(5):
        x = rng.standard_normal(3) * 0.7
        ex = expm(element_matrix(sl2, x))
        cols = []
        for i in range(3):
            e = np.eye(3)[i]
            d = np.linalg.solve(
                ex,
                (expm(element_matrix(sl2, x + h * e))
                 - expm(element_matrix(sl2, x - h * e))) / (2 * h),
            )
            cols.append(matrix_coords(sl2, d, tol=1e-4))
        j_fd = abs(np.linalg.det(np.array(cols).T))
        assert exp_jacobian(sl2, x)[0] == pytest.approx(j_fd, rel=1e-4)

    # double-dual recovery in dims <= 5
    for d in (2, 3, 4, 5):
        for _ in range(3):
            g = rng.standard_normal((d + 2, d))
            C = polyhedral_cone(g)
            D1 = dual_cone(C)
            assert np.max(g @ np.asarray(D1.generators).T) <= 1e-9
            D3 = dual_cone(dual_cone(D1))
            r1 = [v / np.linalg.norm(v) for v in np.asarray(D1.generators)
                  if np.linalg.norm(v) > 1e-9]
            r3 = [v / np.linalg.norm(v) for v in np.asarray(D3.generators)
                  if np.linalg.norm(v) > 1e-9]
            assert len(r1) == len(r3)
            if r1:
                gaps = _min_angles_to(np.array(r1), np.array(r3))
                assert np.max(gaps) <= 1e-9

    # CLI reports are byte-identical across reruns
    from orbitcone import cli

    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = cli.main(
            ["wavefront", "--rep", "sigma_disc:2:+", "--samples", "1500",
             "--out", str(out)]
        )
        assert code == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "directions.csv").read_bytes() == (b / "directions.csv").read_bytes()

    print(
        "\n[criterion 7] PASS structural: jacobi 1e-12, pullback 1e-12, "
        "classify x1000 transports, exp-jacobian 1e-4, double-dual 1e-9, "
        "CLI byte-identical"
    )
