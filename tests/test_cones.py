import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcone import (
    OrbitParam,
    ac_union_check,
    asymptotic_cone,
    build_algebra,
    cone_contains,
    cone_directions,
    cone_equal,
    cone_union,
    conic_neighborhood_contains,
    dual_cone,
    exact_cone,
    orbit_family,
    polyhedral_cone,
    sampled_cone,
    union_family,
)
from orbitcone.cones import (
    RESOLUTION,
    FamilyBranch,
    PointFamily,
    _min_angles_to,
    direction_cone,
)
from orbitcone.errors import InsufficientRadii, UnsupportedAlgebra


@pytest.fixture(scope="module")
def sl2():
    return build_algebra("sl2R")


def test_single_hyperbolic_orbit_has_null_cone(sl2):
    fam = orbit_family(sl2, [OrbitParam("sl2R", "hyp", 1.0)])
    cone = asymptotic_cone(fam, samples_per_radius=4000, seed=0)
    ok, defect = cone_equal(cone, exact_cone("N", "sl2R", 3))
    assert ok, defect


def test_single_elliptic_orbit_has_upper_nappe(sl2):
    fam = orbit_family(sl2, [OrbitParam("sl2R", "ell+", 3.0)])
    cone = asymptotic_cone(fam, samples_per_radius=4000, seed=0)
    ok, defect = cone_equal(cone, exact_cone("Nplus", "sl2R", 3))
    assert ok, defect


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("hyp_union", "HypClosure"),
        ("ell_union_plus", "EllPlusClosure"),
        ("ell_union_minus", "EllMinusClosure"),
        ("full", "Full"),
    ],
)
def test_union_families_reach_their_closures(sl2, kind, expected):
    fam = union_family(sl2, kind)
    cone = asymptotic_cone(fam, seed=1)
    ok, defect = cone_equal(cone, exact_cone(expected, "sl2R", 3))
    assert ok, (kind, defect)


def test_bounded_family_has_zero_cone(sl2):
    fam = orbit_family(sl2, [OrbitParam("sl2R", "zero", None)])
    cone = asymptotic_cone(fam, seed=2)
    assert cone.kind == "exact" and cone.name == "Zero"


def test_radius_schedule_validated(sl2):
    fam = orbit_family(sl2, [OrbitParam("sl2R", "hyp", 1.0)])
    with pytest.raises(InsufficientRadii):
        asymptotic_cone(fam, radii=(10.0, 5.0, 100.0))
    with pytest.raises(InsufficientRadii):
        asymptotic_cone(fam, radii=(10.0, 20.0))


def test_membership_examples():
    N = exact_cone("N", "sl2R", 3)
    assert cone_contains(N, [1.0, 0.0, 1.0])
    assert cone_contains(N, [0.0, 0.0, 0.0])  # cones contain the origin
    assert not cone_contains(N, [1.0, 0.0, 0.0])
    hyp = exact_cone("HypClosure", "sl2R", 3)
    assert cone_contains(hyp, [1.0, 0.0, 0.0])
    assert cone_contains(hyp, [1.0, 0.0, 1.0])
    assert not cone_contains(hyp, [0.0, 0.0, 1.0])
    full = exact_cone("Full", "sl2R", 3)
    assert cone_contains(full, [0.3, -2.0, 11.0])
    zero = exact_cone("Zero", "sl2R", 3)
    assert not cone_contains(zero, [1e-3, 0.0, 0.0])


def test_membership_scale_invariance():
    Np = exact_cone("Nplus", "sl2R", 3)
    v = np.array([1.0, 0.0, 1.0])
    for t in (1e-4, 1.0, 1e6):
        assert cone_contains(Np, t * v)
    assert not cone_contains(Np, -v)


def test_dual_cone_polar_convention():
    # dual means {xi : <xi, y> <= 0 for all generators}
    quad = polyhedral_cone(np.eye(2))
    dual = dual_cone(quad)
    gens = np.asarray(dual.generators)
    assert np.all(gens @ np.eye(2).T <= 1e-9)
    # third quadrant exactly: rays -e1, -e2
    want = {(-1.0, 0.0), (0.0, -1.0)}
    got = {tuple(np.round(g / np.linalg.norm(g), 9)) for g in gens}
    assert got == want


def test_dual_cone_trivial_cases():
    d = 3
    everything = polyhedral_cone(np.vstack([np.eye(d), -np.eye(d)]))
    zero_dual = dual_cone(everything)
    assert np.allclose(zero_dual.generators, 0.0)
    origin = polyhedral_cone(np.zeros((1, d)))
    full_dual = dual_cone(origin)
    # dual of the origin is the whole space
    gens = np.asarray(full_dual.generators)
    assert np.linalg.matrix_rank(gens) == d
    for v in np.vstack([np.eye(d), -np.eye(d)]):
        assert np.min(np.linalg.norm(gens - v, axis=1)) < 1e-9


def test_double_dual_recovery_small_dims():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5):
        for _ in range(5):
            g = rng.standard_normal((d + 2, d))
            C = polyhedral_cone(g)
            D1 = dual_cone(C)
            D2 = dual_cone(D1)
            # C subset of double dual: generators satisfy the dual constraints
            gd = np.asarray(D1.generators)
            assert np.max(g @ gd.T) <= 1e-9
            # triple dual equals the dual again
            D3 = dual_cone(D2)
            r1 = {tuple(np.round(v / np.linalg.norm(v), 9))
                  for v in np.asarray(D1.generators) if np.linalg.norm(v) > 1e-9}
            r3 = {tuple(np.round(v / np.linalg.norm(v), 9))
                  for v in np.asarray(D3.generators) if np.linalg.norm(v) > 1e-9}
            for v in r1:
                assert min(
                    np.linalg.norm(np.array(v) - np.array(w)) for w in r3
                ) < 1e-9
            for w in r3:
                assert min(
                    np.linalg.norm(np.array(v) - np.array(w)) for v in r1
                ) < 1e-9


@st.composite
def _integer_generators(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(g=_integer_generators())
def test_double_dual_is_the_cone(g):
    # closed polyhedral cones are their own double duals: every generator of
    # each side lies in the other
    C = polyhedral_cone(g)
    D1 = dual_cone(C)
    D2 = dual_cone(D1)
    assert np.max(g @ D1.generators.T) <= 1e-9
    for v in D2.generators:
        assert cone_contains(C, v, tol=1e-7)
    for v in g:
        assert cone_contains(D2, v, tol=1e-7)


def test_dual_requires_polyhedral():
    with pytest.raises(UnsupportedAlgebra):
        dual_cone(exact_cone("N", "sl2R", 3))


def test_cone_union_merges_directions():
    a = sampled_cone(np.array([[1.0, 0.0, 0.0]]), "sl2R")
    b = sampled_cone(np.array([[0.0, 1.0, 0.0]]), "sl2R")
    u = cone_union([a, b])
    dirs = cone_directions(u)
    assert len(dirs) == 2


def test_ac_union_lemma_on_random_families(sl2):
    rng = np.random.default_rng(31)
    kinds = ["hyp", "ell+", "ell-", "nil+", "nil-"]
    for trial in range(5):
        fams = []
        for _ in range(int(rng.integers(2, 4))):
            k = kinds[rng.integers(0, len(kinds))]
            v = float(rng.uniform(0.5, 3.0)) if k in ("hyp", "ell+", "ell-") else None
            fams.append(orbit_family(sl2, [OrbitParam("sl2R", k, v)]))
        ok, defect = ac_union_check(fams, seed=100 + trial)
        assert ok, (trial, defect)


def test_conic_neighborhood_oracle():
    xi = np.array([1.0, 0.0, 0.0])
    assert conic_neighborhood_contains(xi, 0.2, np.array([10.0, 0.5, 0.0]))
    assert not conic_neighborhood_contains(xi, 0.2, np.array([0.0, 1.0, 0.0]))
    # membership is scale free in the second argument
    assert conic_neighborhood_contains(xi, 0.3, np.array([1.0, 0.1, 0.1]) * 1e5)


def test_sampled_cone_roundtrip_through_directions():
    dirs = np.array([[0.0, 0.0, 1.0], [np.sqrt(0.5), 0.0, np.sqrt(0.5)]])
    C = sampled_cone(dirs, "sl2R")
    assert cone_contains(C, [0.0, 0.0, 5.0])
    assert cone_contains(C, [1.0, 0.0, 1.0])
    assert not cone_contains(C, [0.0, 0.0, -5.0])


def test_empty_family_rejected(sl2):
    from orbitcone.errors import EmptyFamily

    with pytest.raises(EmptyFamily):
        asymptotic_cone(PointFamily(algebra="sl2R", dim=3, branches=()))
    with pytest.raises(EmptyFamily):
        ac_union_check([])


def _unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _brute_min_angles(points, targets):
    # 2 atan2(|u - v|, |u + v|) is the angle between unit u and v, well
    # conditioned at 0 and at pi alike
    diff = np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2)
    summ = np.linalg.norm(points[:, None, :] + targets[None, :, :], axis=2)
    return (2.0 * np.arctan2(diff, summ)).min(axis=1)


@pytest.mark.parametrize("dim", range(2, 9))
def test_min_angles_to_matches_brute_force(dim):
    rng = np.random.default_rng(dim)
    base = _unit_rows(rng, 60, dim)
    # duplicate targets and antipodal pairs
    targets = np.vstack([base, base[:10], -base[10:20]])
    points = np.vstack([_unit_rows(rng, 200, dim), -base[:5], base[30:35]])
    got = _min_angles_to(points, targets)
    assert np.max(np.abs(got - _brute_min_angles(points, targets))) <= 1e-12
    # a single target, including its own antipode
    single = base[:1]
    pts = np.vstack([points, -single])
    got = _min_angles_to(pts, single)
    assert np.max(np.abs(got - _brute_min_angles(pts, single))) <= 1e-12
    assert abs(got[-1] - np.pi) <= 1e-12


def test_min_angles_to_empty_targets_is_pi():
    pts = _unit_rows(np.random.default_rng(0), 4, 3)
    assert np.array_equal(_min_angles_to(pts, np.zeros((0, 3))), np.full(4, np.pi))


@pytest.mark.parametrize("dim", [2, 3, 6, 8])
def test_min_angles_to_self_is_zero(dim):
    # arccos of a dot product one ulp below 1 would give sqrt(eps) here
    dirs = _unit_rows(np.random.default_rng(10 + dim), 500, dim)
    assert np.max(_min_angles_to(dirs, dirs)) <= 1e-12


@st.composite
def _point_clouds(draw):
    """Rows of any size, rows on a grid of step 0.04 (whose directions often
    share a dedup cell) and rows of norm below 1e-9, in 1 to 5 dims."""
    dim = draw(st.integers(1, 5))
    big = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    grid = st.lists(st.integers(-50, 50).map(lambda k: k / 25), min_size=dim, max_size=dim)
    tiny = st.lists(st.floats(-4e-10, 4e-10), min_size=dim, max_size=dim)
    rows = draw(st.lists(st.one_of(big, grid, tiny), max_size=60))
    return np.array(rows, dtype=float).reshape(len(rows), dim)


@settings(max_examples=300, deadline=None)
@given(pts=_point_clouds())
def test_direction_cone_is_the_thinned_unit_directions(pts):
    dim = pts.shape[1]
    far = pts[np.linalg.norm(pts, axis=1) > 1e-9]
    C = direction_cone(pts, "R^d", dim)
    if len(far) == 0:
        assert (C.kind, C.name, C.dim) == ("exact", "Zero", dim)
        return
    assert C.kind == "sampled" and C.dim == dim
    dirs = C.directions
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # rows near the origin never contribute
    assert np.array_equal(direction_cone(far, "R^d", dim).directions, dirs)
    # no two directions share a dedup_directions cell
    cells = np.round(dirs / RESOLUTION).astype(np.int64)
    assert len(np.unique(cells, axis=0)) == len(dirs)
