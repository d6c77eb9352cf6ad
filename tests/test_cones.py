import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls
from scipy.spatial import cKDTree

from orbitcone import (
    OrbitParam,
    ac_union_check,
    asymptotic_cone,
    build_algebra,
    cone_directions,
    cone_equal,
    cone_union,
    dual_cone,
    exact_cone,
    orbit_family,
    polyhedral_cone,
    sampled_cone,
    union_family,
)
from orbitcone.cones import (
    EXACT_NAMES,
    FAR_RADIUS,
    RESOLUTION,
    _EXACT_CONES,
    _GRAM_CUT,
    FamilyBranch,
    PointFamily,
    _angles_to_named,
    _covered_rows,
    _min_angles_to,
    _ring_runs,
    dedup_directions,
    direction_cone,
)
from orbitcone.errors import NotUnitDirections, UnsupportedAlgebra


@pytest.fixture(scope="module")
def sl2():
    return build_algebra("sl2R")


def test_single_hyperbolic_orbit_has_null_cone(sl2):
    fam = orbit_family(sl2, [OrbitParam("sl2R", "hyp", 1.0)])
    cone = asymptotic_cone(fam, samples=4000, seed=0)
    ok, defect = cone_equal(cone, exact_cone("N", "sl2R", 3))
    assert ok, defect


def test_single_elliptic_orbit_has_upper_nappe(sl2):
    fam = orbit_family(sl2, [OrbitParam("sl2R", "ell+", 3.0)])
    cone = asymptotic_cone(fam, samples=4000, seed=0)
    ok, defect = cone_equal(cone, exact_cone("Nplus", "sl2R", 3))
    assert ok, defect


def test_cone_off_by_more_than_the_tolerance_is_not_equal():
    # a ring 0.07 rad below the upper nappe: its defect is just over 0.07,
    # which a tolerance of 0.05 must refuse, not any multiple of it
    th = np.pi / 4 + 0.07
    ph = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    ring = np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                            np.full(400, np.cos(th))])
    ok, defect = cone_equal(sampled_cone(ring, "sl2R"), exact_cone("Nplus", "sl2R", 3),
                            angular_tol=0.05)
    assert not ok and 0.07 < defect < 0.0703


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


def test_far_filter_drops_a_bounded_branch(sl2):
    # nil+ plus a bounded branch at FAR_RADIUS / 2 on the -z axis: only the
    # norm filter keeps that branch out (without it the defect is 3 pi / 4)
    calls = []

    def recorded(sample):
        def draw(rng, radius, count):
            calls.append((radius, count))
            return sample(rng, radius, count)
        return draw

    def inner(rng, radius, count):
        return np.tile([0.0, 0.0, -FAR_RADIUS / 2], (count, 1))

    nil = orbit_family(sl2, [OrbitParam("sl2R", "nil+")]).branches[0]
    fam = PointFamily("sl2R", 3, (FamilyBranch("nil+", recorded(nil.sample)),
                                  FamilyBranch("inner", recorded(inner))))
    ok, defect = cone_equal(asymptotic_cone(fam, seed=0), exact_cone("Nplus", "sl2R", 3))
    assert ok, defect
    assert calls == [(FAR_RADIUS, 6000)] * 2


def _angle_to(C, point):
    """Angle from the direction of a nonzero point to the nearest direction
    of the cone's sample at RESOLUTION."""
    dirs = direction_cone([point], C.algebra, C.dim).directions
    return float(_min_angles_to(dirs, cone_directions(C))[0])


def _band_distance(name, u):
    """Closed-form angular distance from a unit vector to a named cone:
    from its polar angle to the nearest band, pi when there is none."""
    phi = np.arctan2(np.linalg.norm(u[:-1]), u[-1])  # in [0, pi]
    return float(min((max(0.0, lo - phi, phi - hi) for lo, hi in _EXACT_CONES[name][0]),
                     default=np.pi))


def _in_polyhedral(C, v, tol=1e-7):
    """Whether v lies in a polyhedral cone: the nonnegative least-squares
    residual of its unit vector on the generators is at most tol."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n <= 1e-12:
        return True
    g = C.generators
    _, resid = nnls(g.T, v / n, maxiter=10 * max(g.shape))
    return resid <= max(tol, 1e-9)


def test_membership_examples():
    N = exact_cone("N", "sl2R", 3)
    assert _angle_to(N, [1.0, 0.0, 1.0]) <= RESOLUTION
    # the origin has no direction: its direction cone is Zero
    assert direction_cone([[0.0, 0.0, 0.0]], "sl2R", 3).name == "Zero"
    assert _angle_to(N, [1.0, 0.0, 0.0]) > RESOLUTION
    hyp = exact_cone("HypClosure", "sl2R", 3)
    assert _angle_to(hyp, [1.0, 0.0, 0.0]) <= RESOLUTION
    assert _angle_to(hyp, [1.0, 0.0, 1.0]) <= RESOLUTION
    assert _angle_to(hyp, [0.0, 0.0, 1.0]) > RESOLUTION
    full = exact_cone("Full", "sl2R", 3)
    assert _angle_to(full, [0.3, -2.0, 11.0]) <= RESOLUTION
    zero = exact_cone("Zero", "sl2R", 3)
    assert _angle_to(zero, [1e-3, 0.0, 0.0]) > RESOLUTION


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_named_cone_distance_matches_its_grid(name):
    C = exact_cone(name, "sl2R", 3)
    u = np.random.default_rng(8).standard_normal((2000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    table = np.array([_band_distance(name, v) for v in u])
    grid = cone_directions(C)
    assert np.max(np.abs(table - _min_angles_to(u, grid))) <= RESOLUTION
    assert all(_band_distance(name, d) <= 1e-12 for d in grid)
    # the closed form is the band distance, and never more than the
    # grid's, since the grid lies inside the cone
    exact = _angles_to_named(u, name)
    assert np.max(np.abs(exact - table)) <= 1e-12
    assert np.all(exact <= _min_angles_to(u, grid))
    if len(grid) == 0:
        return
    # one grid per name, built once and read-only
    assert cone_directions(exact_cone(name, "so(2,1)", 3)) is grid and not grid.flags.writeable
    # cone_equal reads the closed form for the named side and covers the
    # cone with its grid
    sample = sampled_cone(u[:500], "sl2R")
    defect = max(exact[:500].max(), _min_angles_to(grid, u[:500]).max())
    assert cone_equal(sample, C, angular_tol=0.0)[1] == defect


NAMED = [name for name in EXACT_NAMES if name != "Zero"]
CLOUDS = ("uniform", "cap", "jitter", "grid", "one", "poles")


def _cover_cloud(kind, grid, rng, size):
    """Directions to cover a named grid with: uniform on the sphere, in a
    0.3 rad cap, the grid rows jittered by at most 1e-3 or taken as they
    are, one direction, or the two poles."""
    if kind == "uniform":
        return _unit_rows(rng, size, 3)
    if kind == "cap":
        z = 1.0 - rng.uniform(0.0, 1.0 - np.cos(0.3), size)
        th = rng.uniform(0.0, 2 * np.pi, size)
        r = np.sqrt(1.0 - z * z)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return np.column_stack([r * np.cos(th), r * np.sin(th), z]) @ q.T
    if kind == "jitter":
        moved = grid + rng.uniform(-1e-3, 1e-3, grid.shape) * rng.uniform(0.1, 1.0)
        return moved / np.linalg.norm(moved, axis=1, keepdims=True)
    if kind == "grid":
        return grid.copy()
    if kind == "one":
        return _unit_rows(rng, 1, 3)
    return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def _nearest_by_tree(points, targets):
    """The angle from each unit row of points to its nearest target by
    Euclidean distance (a k-d tree), in the formula 2 atan2(|p - t|, |p + t|)."""
    t = targets[cKDTree(targets).query(points)[1]]
    return 2.0 * np.arctan2(np.linalg.norm(points - t, axis=1), np.linalg.norm(points + t, axis=1))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMED), kind=st.sampled_from(CLOUDS),
       seed=st.integers(0, 2**32 - 1), size=st.integers(1, 20_000))
@example(name="Full", kind="jitter", seed=7, size=1)  # every row within RESOLUTION
@example(name="Full", kind="jitter", seed=0, size=1)
@example(name="Full", kind="grid", seed=0, size=1)  # defect 0: every row searched
@example(name="HypClosure", kind="cap", seed=1, size=20_000)  # far rows: several rounds
def test_covering_side_is_the_full_search(name, kind, seed, size):
    # the ring marking skips rows, never changes the defect, in either order
    grid = cone_directions(exact_cone(name, "sl2R", 3))
    S = _cover_cloud(kind, grid, np.random.default_rng(seed), size)
    want = max(_angles_to_named(S, name).max(), _nearest_by_tree(grid, S).max())
    C, sample = exact_cone(name, "sl2R", 3), sampled_cone(S, "sl2R")
    assert cone_equal(sample, C)[1] == want
    assert cone_equal(C, sample)[1] == want


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMED), kind=st.sampled_from(("uniform", "cap", "one", "poles")),
       seed=st.integers(0, 2**32 - 1), delta=st.floats(1e-3, 0.1))
def test_covered_rows_lie_within_the_radius(name, kind, seed, delta):
    grid = cone_directions(exact_cone(name, "sl2R", 3))
    S = _cover_cloud(kind, grid, np.random.default_rng(seed), 300)
    marked = _covered_rows(name, S, delta)
    assert marked.shape == (len(grid),)
    if marked.any():
        assert np.all(_brute_min_angles(grid[marked], S) <= delta)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(NAMED), kind=st.sampled_from(("uniform", "cap", "one", "poles")),
       seed=st.integers(0, 2**32 - 1), radius=st.floats(1e-3, 0.5))
@example(name="Full", kind="poles", seed=2, radius=0.3)  # a whole ring on the boundary
def test_outward_runs_hold_every_pair_within_the_radius(name, kind, seed, radius):
    rng = np.random.default_rng(seed)
    grid = cone_directions(exact_cone(name, "sl2R", 3))
    S = _cover_cloud(kind, grid, rng, 40)
    # norms off 1 by up to the 1e-9 that sampled_cone takes
    S *= rng.uniform(1 - 1e-9, 1 + 1e-9, (len(S), 1))
    angle = np.vstack([_brute_angles(grid[k:k + 1000], S) for k in range(0, len(grid), 1000)])
    # the radius is snapped to the largest pair angle below it, so that a
    # pair lies on the boundary
    below = angle[angle <= radius]
    radius = below.max() if below.size else radius
    want = np.flatnonzero(angle <= radius)  # row * len(S) + target
    got = []
    for a, b, owner in _ring_runs(name, S, radius, outward=True):
        size = b - a
        row = np.arange(size.sum()) + np.repeat(a - (np.cumsum(size) - size), size)
        got.append(row * len(S) + np.repeat(owner, size))
    assert np.all(np.isin(want, np.concatenate(got)))


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_quadric_names_need_the_sl2_chart(name):
    for algebra, dim in (("so(2,1)", 3), ("sl2R", 3)):
        assert exact_cone(name, algebra, dim).name == name
    for algebra, dim in (("su(2,1)", 8), ("so(3,0)", 3), ("so(2,2)", 6)):
        if name in ("Full", "Zero"):
            assert exact_cone(name, algebra, dim).name == name
        else:
            with pytest.raises(UnsupportedAlgebra):
                exact_cone(name, algebra, dim)


def test_membership_scale_invariance():
    Np = exact_cone("Nplus", "sl2R", 3)
    v = np.array([1.0, 0.0, 1.0])
    for t in (1e-4, 1.0, 1e6):
        assert _angle_to(Np, t * v) <= RESOLUTION
    assert _angle_to(Np, -v) > RESOLUTION


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


@pytest.mark.parametrize(
    "gens, want",
    [
        # one quotient ray, then the lineality line both ways
        ([[1.0, 2.0]], [[-0.4472135954999581, -0.8944271909999159],
                        [-0.8944271909999157, 0.4472135954999581],
                        [0.8944271909999157, -0.4472135954999581]]),
        ([[1.0, -2.0, 3.0]], [[-0.26726124191242423, 0.5345224838248488, -0.8017837257372732],
                              [0.5345224838248488, 0.7745419205884383, 0.3381871191173426],
                              [-0.8017837257372732, 0.33818711911734267, 0.492719321323986],
                              [-0.5345224838248488, -0.7745419205884383, -0.3381871191173426],
                              [0.8017837257372732, -0.33818711911734267, -0.492719321323986]]),
    ],
    ids=["ray-2d", "rank-one-3d"],
)
def test_dual_of_a_rank_one_cone_keeps_its_generators(gens, want):
    # a one-dimensional quotient goes through the facet loop with no facet
    got = dual_cone(polyhedral_cone(np.array(gens))).generators
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "gens", [[[-1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]],
    ids=["ray-left", "ray-up", "wedge-3d"],
)
def test_dual_cone_does_not_depend_on_the_scale(gens):
    # generators of norm 1e-11 once met every constraint to an absolute
    # 1e-10, so both half-planes of a tiny ray passed
    g = np.array(gens)
    want = dual_cone(polyhedral_cone(g)).generators
    got = dual_cone(polyhedral_cone(1e-11 * g)).generators
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.max(g @ got.T) <= 1e-12


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
        assert _in_polyhedral(C, v, tol=1e-7)
    for v in g:
        assert _in_polyhedral(D2, v, tol=1e-7)


def test_dual_requires_polyhedral():
    with pytest.raises(UnsupportedAlgebra):
        dual_cone(exact_cone("N", "sl2R", 3))


def test_cone_union_merges_directions():
    a = sampled_cone(np.array([[1.0, 0.0, 0.0]]), "sl2R")
    b = sampled_cone(np.array([[0.0, 1.0, 0.0]]), "sl2R")
    u = cone_union([a, b])
    dirs = cone_directions(u)
    assert len(dirs) == 2


def test_union_of_zero_cones_is_zero(sl2):
    zero = orbit_family(sl2, [OrbitParam("sl2R", "zero", None)])
    assert ac_union_check([zero, zero]) == (True, 0.0)
    u = cone_union([exact_cone("Zero", "sl2R", 3)] * 2)
    assert (u.kind, u.name) == ("exact", "Zero")


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


@pytest.mark.parametrize("rows, bad", [
    ([[0.0, 0.0, 2.0]], 0),
    ([[0.0, 0.0, 1.0], [3.0, 0.0, 3.0]], 1),
    ([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 1),
    ([[np.nan, 0.0, 1.0]], 0),
    ([[0.0, 1.0, 0.0], [np.inf, 0.0, 0.0]], 1),
    ([[1e200, 1e200, 0.0]], 0),
    ([[0.0, 0.0, 1.0 + 2e-9]], 0),
])
def test_sampled_cone_takes_only_unit_rows(rows, bad):
    # a row of norm 2 once compared as its direction's chord, 0.6435 from
    # the same direction of norm 1
    with pytest.raises(NotUnitDirections, match=f"row {bad} "):
        sampled_cone(np.array(rows), "sl2R")
    near = sampled_cone(np.array([[0.0, 0.0, 1.0 + 5e-10]]), "sl2R")
    assert cone_equal(near, sampled_cone(np.array([[0.0, 0.0, 1.0]]), "sl2R"))[0]


def test_sampled_cone_roundtrip_through_directions():
    dirs = np.array([[0.0, 0.0, 1.0], [np.sqrt(0.5), 0.0, np.sqrt(0.5)]])
    C = sampled_cone(dirs, "sl2R")
    assert _angle_to(C, [0.0, 0.0, 5.0]) <= RESOLUTION
    assert _angle_to(C, [1.0, 0.0, 1.0]) <= RESOLUTION
    assert _angle_to(C, [0.0, 0.0, -5.0]) > RESOLUTION


def test_empty_family_rejected(sl2):
    from orbitcone.errors import EmptyFamily

    with pytest.raises(EmptyFamily):
        asymptotic_cone(PointFamily(algebra="sl2R", dim=3, branches=()))
    with pytest.raises(EmptyFamily):
        ac_union_check([])


def _unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _brute_angles(points, targets):
    # 2 atan2(|u - v|, |u + v|) is the angle between unit u and v, well
    # conditioned at 0 and at pi alike
    diff = np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2)
    summ = np.linalg.norm(points[:, None, :] + targets[None, :, :], axis=2)
    return 2.0 * np.arctan2(diff, summ)


def _brute_min_angles(points, targets):
    # 100 points at a time
    return np.concatenate([_brute_angles(points[k:k + 100], targets).min(axis=1)
                           for k in range(0, len(points), 100)])


@pytest.mark.parametrize("dim,size", [*((d, 60) for d in range(2, 9)), (3, 600)],
                         ids=[*map(str, range(2, 9)), "3-chunked"])
def test_min_angles_to_matches_brute_force(dim, size, monkeypatch):
    rng = np.random.default_rng(dim)
    base = _unit_rows(rng, size, dim)
    # duplicate targets and antipodal pairs
    targets = np.vstack([base, base[:10], -base[10:20]])
    points = np.vstack([_unit_rows(rng, 10 * size // 3, dim), -base[:5], base[30:35]])
    got = _min_angles_to(points, targets)
    assert np.max(np.abs(got - _brute_min_angles(points, targets))) <= 1e-12
    if len(points) * len(targets) > _GRAM_CUT:
        # the Gram product went in chunks of rows; with no cut each chunk
        # is one row, the single target's antipode among them
        assert len(points) * len(targets) > 2 * _GRAM_CUT
        monkeypatch.setattr("orbitcone.cones._GRAM_CUT", 0)
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


def _dedup_by_rows(dirs, resolution):
    """The row-sorting dedup_directions that the packed codes replaced, as a
    reference: first row of each distinct row of rounded keys."""
    if len(dirs) == 0:
        return dirs
    keys = np.round(dirs / max(resolution, 1e-9)).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return dirs[np.sort(idx)]


@pytest.mark.parametrize("resolution", [RESOLUTION, RESOLUTION / 2])
@pytest.mark.parametrize("dim", range(1, 29))
def test_dedup_directions_matches_row_sort(dim, resolution):
    # the +-e_i rows give every column its whole span, so the codes are
    # re-ranked from dim 8 at RESOLUTION and dim 7 at RESOLUTION / 2
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((3000, dim))
    dirs = np.vstack([np.eye(dim), -np.eye(dim), pts / np.linalg.norm(pts, axis=1, keepdims=True)])
    dirs = np.vstack([dirs, dirs[rng.integers(0, len(dirs), 1000)]])
    dirs = dirs[rng.permutation(len(dirs))]
    assert np.array_equal(dedup_directions(dirs, resolution), _dedup_by_rows(dirs, resolution))
    for few in (dirs[:0], dirs[:1]):
        assert np.array_equal(dedup_directions(few, resolution), few)


def test_dedup_directions_rerank_counts_the_row_index():
    # at RESOLUTION the +-e_i rows give each of 9 columns span 101, and
    # 101**9 < 2**62 < 101**9 * n: only the packed row index forces a re-rank
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((6000, 9))
    dirs = np.vstack([np.eye(9), -np.eye(9), pts / np.linalg.norm(pts, axis=1, keepdims=True)])
    dirs = np.vstack([dirs, dirs[rng.integers(0, len(dirs), 2000)]])
    dirs = dirs[rng.permutation(len(dirs))]
    assert 101**9 < 2**62 < 101**9 * len(dirs)
    assert np.array_equal(dedup_directions(dirs, RESOLUTION), _dedup_by_rows(dirs, RESOLUTION))


def test_dedup_directions_codes_stay_exact_past_64_bits():
    # 28 columns of span 8 need 84 bits: without re-ranking, the first
    # column's weight 8**27 wraps to 0 and the first two rows share a code
    rows = np.zeros((3, 28))
    rows[1, 0] = RESOLUTION
    rows[2] = 7 * RESOLUTION
    assert np.array_equal(dedup_directions(rows, RESOLUTION), rows)


def test_direction_cone_drops_rows_without_a_finite_norm():
    C = direction_cone([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]], "sl2R", 3)
    assert np.array_equal(C.directions, [[1.0, 0.0, 0.0]])
    C = direction_cone([[np.nan, 1.0, 0.0], [1e200, 1e200, 0.0], [0.0, 2.0, 0.0]], "sl2R", 3)
    assert np.array_equal(C.directions, [[0.0, 1.0, 0.0]])
    assert direction_cone([[-np.inf, 0.0, 0.0]], "sl2R", 3).name == "Zero"


@pytest.mark.parametrize("bad", [
    np.zeros((0, 6)),
    np.array([[0.0] * 6, [np.inf] + [0.0] * 5, [np.nan] * 6, [1e200] * 6,
              [0.0, -np.inf, 1.0, 0.0, 0.0, 0.0], [1e-10] * 6]),
], ids=["all-kept", "dropped-rows"])
def test_direction_cone_divides_the_kept_rows(bad):
    # the one copy of the kept rows, divided in place, is the division of
    # the kept rows; the caller's cloud is left as it was
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.standard_normal((3000, 6)) * 10.0 ** rng.integers(-3, 4, (3000, 1)), bad])
    pts = pts[rng.permutation(len(pts))]
    before = pts.copy()
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(pts, axis=1)
    keep = np.isfinite(norms) & (norms > 1e-9)
    assert keep.sum() == 3000
    want = dedup_directions(pts[keep] / norms[keep, None], RESOLUTION)
    got = direction_cone(pts, "R^d", 6).directions
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(pts, before, equal_nan=True)
