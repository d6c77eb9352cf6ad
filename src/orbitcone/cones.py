"""Closed cone descriptions and asymptotic cones of point families.

A cone is one of three kinds.  ``exact`` cones are the named cones of the
rank-one catalog: the quadric cones of the sl2 chart plus the generic Zero
and Full.  One table gives each name its closed bands of the polar angle
from +z, and its direction grid is one latitude grid per band.  The quadric
names exist only on sl2-chart algebras.  ``polyhedral`` cones carry
generator rays.
``sampled`` cones are finite sets of unit directions at the one angular
resolution ``RESOLUTION``; ``direction_cone`` makes one from any point
cloud (asymptotic cones, unions, induced cones, restriction bounds).

The asymptotic cone of a set S collects limits of directions of unbounded
sequences in S.  Numerically: sample the family at several radii, keep the
points at least as far out as the largest radius, take their direction cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import (
    DimensionTooLarge,
    EmptyFamily,
    InsufficientRadii,
    NotUnitDirections,
    UnsupportedAlgebra,
)
from .liealg import build_algebra, null_rows

DEFAULT_RADII = (10.0, 30.0, 100.0, 300.0)
RESOLUTION = 0.02
MAX_DUAL_DIM = 8
# n * m up to which one Gram product is the cheapest search, and the size
# of a Gram chunk; the (target, ring) pairs of a chunk of ring runs, and the
# padding of outward runs
_GRAM_CUT = 500_000
_RING_CHUNK = 1 << 14
_SLACK = 1e-8

_QUARTER = np.pi / 4
# The named cones, name -> (bands, defining conditions).  Each is the union
# of its closed bands [lo, hi] of the polar angle measured from the +z pole
# (the last coordinate axis); all but Full and Zero are quadric cones of the
# sl2 chart.
_EXACT_CONES = {
    "Nplus": (((_QUARTER, _QUARTER),), ["x^2 + y^2 - z^2 = 0", "z >= 0"]),
    "Nminus": (((3 * _QUARTER, 3 * _QUARTER),), ["x^2 + y^2 - z^2 = 0", "z <= 0"]),
    "N": (((_QUARTER, _QUARTER), (3 * _QUARTER, 3 * _QUARTER)),
          ["x^2 + y^2 - z^2 = 0"]),
    "HypClosure": (((_QUARTER, 3 * _QUARTER),), ["x^2 + y^2 - z^2 >= 0"]),
    "EllPlusClosure": (((0.0, _QUARTER),), ["x^2 + y^2 - z^2 <= 0", "z >= 0"]),
    "EllMinusClosure": (((3 * _QUARTER, np.pi),), ["x^2 + y^2 - z^2 <= 0", "z <= 0"]),
    "Full": (((0.0, np.pi),), ["no constraint"]),
    "Zero": ((), ["all coordinates 0"]),
}
EXACT_NAMES = tuple(_EXACT_CONES)


@dataclass(frozen=True, eq=False)
class ConeDescription:
    kind: str  # "exact" | "polyhedral" | "sampled"
    algebra: str
    dim: int
    name: str | None = None
    generators: np.ndarray | None = None
    directions: np.ndarray | None = None

    def __repr__(self):  # pragma: no cover
        if self.kind == "exact":
            return f"Cone({self.name}, {self.algebra})"
        if self.kind == "polyhedral":
            return f"Cone(polyhedral, {len(self.generators)} gens, dim {self.dim})"
        return f"Cone(sampled, {len(self.directions)} dirs, dim {self.dim})"


@dataclass(frozen=True)
class FamilyBranch:
    """One parameter branch of a point family.

    ``sample(rng, radius, count)`` returns points of the branch with norms
    spread around ``radius`` (bounded branches ignore the radius and stay
    inside their bounded set).
    """

    label: str
    sample: object


@dataclass(frozen=True)
class PointFamily:
    algebra: str
    dim: int
    branches: tuple


def exact_cone(name: str, algebra: str, dim: int) -> ConeDescription:
    """A named cone over an algebra; the quadric names need the sl2 chart."""
    if name not in _EXACT_CONES:
        raise UnsupportedAlgebra(f"unknown exact cone name {name!r}")
    if name not in ("Full", "Zero") and build_algebra(algebra).chart != "sl2":
        raise UnsupportedAlgebra(
            f"the {name} cone is defined on sl2-chart algebras, not on {algebra}"
        )
    return ConeDescription(kind="exact", algebra=algebra, dim=dim, name=name)


def polyhedral_cone(generators, algebra: str = "R^d") -> ConeDescription:
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    return ConeDescription(
        kind="polyhedral", algebra=algebra, dim=g.shape[1], generators=g
    )


def sampled_cone(directions, algebra: str) -> ConeDescription:
    """The sampled cone of unit directions, rows finite and of squared norm
    1 within 2e-9: else ``NotUnitDirections`` names the first that is not."""
    d = np.asarray(directions, dtype=float)
    if d.size == 0:
        d = d.reshape(0, d.shape[1] if d.ndim == 2 else 0)
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~(np.abs(np.einsum("ij,ij->i", d, d) - 1.0) <= 2e-9))
    if len(bad):
        raise NotUnitDirections(f"direction row {bad[0]} is not a unit vector: {d[bad[0]].tolist()}")
    return ConeDescription(kind="sampled", algebra=algebra, dim=d.shape[1], directions=d)


# ---------------------------------------------------------------------------
# angular helpers


def _chord_angles(points: np.ndarray, targets: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """The angle 2 atan2(|p - t|, |p + t|) from each point p to its target
    t = targets[nearest]: exact at 0 and at pi alike, where arccos of a dot
    product (at 0) or 2 asin(|p - t| / 2) (at pi) would be off by sqrt(eps)."""
    t = targets[nearest]
    return 2.0 * np.arctan2(np.linalg.norm(points - t, axis=1),
                            np.linalg.norm(points + t, axis=1))


def _min_angles_to(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each unit row of points, the angle to the nearest unit row of
    targets (pi when there is none), the one of largest dot product in a
    Gram product of at most ``_GRAM_CUT`` entries at a time."""
    if len(targets) == 0:
        return np.full(len(points), np.pi)
    step = max(1, _GRAM_CUT // len(targets))
    nearest = np.empty(len(points), dtype=np.intp)
    for i in range(0, len(points), step):
        nearest[i:i + step] = np.argmax(points[i:i + step] @ targets.T, axis=1)
    return _chord_angles(points, targets, nearest)


def dedup_directions(dirs: np.ndarray, resolution: float) -> np.ndarray:
    """Thin a direction set to one representative per grid cell.

    A cell is an axis-aligned cube of side ``resolution`` (rounded
    coordinates); the first row in each cell is kept, in input order.  Above
    dimension 3 almost every unit direction has a cell of its own.  Each
    row's keys, formed one column at a time, pack into an int64 cell code
    (mixed radix over the column spans), re-ranked before ``code * n + row``
    would pass 2**62, so that value stays exact in any dimension; one sort
    of it puts the first row of each cell first.  Rows must be finite.
    """
    n = len(dirs)
    if n == 0:
        return dirs
    code, top = np.zeros(n, dtype=np.int64), 1
    for col in dirs.T:
        key = np.round(col / max(resolution, 1e-9)).astype(np.int64)
        key -= key.min()
        span = int(key.max()) + 1
        if top * span * n > 2**62:
            _, code = np.unique(code, return_inverse=True)
            top = int(code.max()) + 1
        code = code * span + key
        top *= span
    packed = np.sort(code * n + np.arange(n))
    first = np.r_[True, packed[1:] // n != packed[:-1] // n]
    return dirs[np.sort(packed[first] % n)]


def direction_cone(points, algebra: str, dim: int) -> ConeDescription:
    """The sampled cone of the directions of a point cloud.

    Rows of norm at most 1e-9 carry no direction, nor do rows whose norm is
    not finite (an entry is inf or nan, or the norm overflows); they are
    dropped.  The rest are normalized and thinned at ``RESOLUTION``.  The
    Zero cone when no row is left."""
    pts = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(pts, axis=1)
    keep = np.isfinite(norms) & (norms > 1e-9)
    if not keep.any():
        return exact_cone("Zero", algebra, dim)
    dirs = pts[keep]
    dirs /= norms[keep, None]
    return sampled_cone(dedup_directions(dirs, RESOLUTION), algebra)


def _band_grid(phi_lo: float, phi_hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic near-uniform grid on a latitude band of the 2-sphere,
    one ring per latitude (a single ring when the band is one latitude).
    Rings and the rows of a ring are at most ``RESOLUTION`` apart.  Returns
    the rows, each ring's polar angle and its row count n (row j at azimuth
    j 2 pi / n)."""
    rows = max(2, int(np.ceil((phi_hi - phi_lo) / RESOLUTION)) + 1) if phi_hi > phi_lo else 1
    phis = np.linspace(phi_lo, phi_hi, rows)
    rings = []
    for phi in phis:
        s = np.sin(phi)
        ntheta = max(1, int(np.ceil(2 * np.pi * max(s, 1e-9) / RESOLUTION)))
        th = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
        rings.append(np.column_stack([s * np.cos(th), s * np.sin(th), np.full(ntheta, np.cos(phi))]))
    return np.vstack(rings), phis, np.array([len(r) for r in rings])


@cache
def _named_grid(name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The direction grid of a named cone on the 2-sphere and its ring
    table (polar angles, ascending, and row counts), built once, read-only."""
    tables = zip(*(_band_grid(lo, hi) for lo, hi in _EXACT_CONES[name][0]))
    tables = tuple(np.concatenate(a) for a in tables)
    for a in tables:
        a.flags.writeable = False
    return tables


def _ring_runs(name: str, targets: np.ndarray, radius: float, outward: bool = False):
    """Runs of the rows of a named grid near unit targets, ``_RING_CHUNK``
    target rings at a time: row ranges [a, b) of the grid, each target's.

    A target (rho cos theta, rho sin theta, z) reaches, on each ring of
    polar angle phi within radius of its own, the cyclic run of rows within
    arccos((cos radius - cos phi z) / (sin phi rho)) of azimuth theta (the
    whole ring at a ratio of at most -1, none above 1), split in two where
    it wraps.  Inward runs hold only rows surely within radius (the ratio at
    cos radius + 1e-12, ends rounded in); outward runs hold every row within
    it (radius padded and its cosine lowered by ``_SLACK``, ends rounded out)."""
    _, phi, count = _named_grid(name)
    pad, tilt = (_SLACK, -_SLACK) if outward else (0.0, 1e-12)
    first, last = (np.floor, np.ceil) if outward else (np.ceil, np.floor)
    step = max(1, int(_RING_CHUNK / (2 * radius / RESOLUTION + 2)))
    for k in range(0, len(targets), step):
        t = targets[k:k + step]
        rho, z = np.hypot(t[:, 0], t[:, 1]), t[:, 2]
        lo, hi = np.searchsorted(phi, np.arctan2(rho, z)[:, None] + [-radius - pad, radius + pad]).T
        owner = np.repeat(np.arange(len(t)), hi - lo)
        ring = np.arange(len(owner)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
        reach = np.sin(phi)[ring] * rho[owner]
        need = np.cos(radius) + tilt - np.cos(phi)[ring] * z[owner]
        ratio = np.divide(need, reach, out=np.full(len(ring), -1.0), where=reach > 0)
        n = count[ring]
        half = np.where(need <= reach, np.arccos(np.clip(ratio, -1.0, 1.0)), -1.0) * n / (2 * np.pi)
        theta = np.arctan2(t[:, 1], t[:, 0])[owner] * n / (2 * np.pi)
        start = first(theta - half).astype(np.intp)  # in rows, as are half and theta
        size = np.clip(last(theta + half).astype(np.intp) + 1 - start, 0, n)
        start, base = start % n, (np.cumsum(count) - count)[ring]
        wrap = np.maximum(start + size - n, 0)  # the part of a run past n, from 0
        yield (np.r_[base + start, base], np.r_[base + start + size - wrap, base + wrap],
               np.r_[owner, owner] + k)


def _covered_rows(name: str, targets: np.ndarray, delta: float) -> np.ndarray:
    """Which rows of a named grid lie surely within ``delta`` of a target:
    those in its inward runs, marked by run starts minus run ends."""
    edges = np.zeros(len(_named_grid(name)[0]) + 1, dtype=np.intp)
    for a, b, _ in _ring_runs(name, targets, delta):
        edges += np.bincount(a, minlength=len(edges)) - np.bincount(b, minlength=len(edges))
    return np.cumsum(edges)[:-1] > 0


def _nearest_angles(name: str, targets: np.ndarray, todo: np.ndarray, radius: float) -> np.ndarray:
    """The angle from each row ``todo`` of a named grid to its nearest
    target, 0 on the others.  Counts of ``todo`` rows map each outward run
    at radius r to its rows in ``todo``; a row takes the least chord angle
    of its pairs, exact once at most r.  The rest go round at 2r, and to
    ``_min_angles_to`` past ``4 * RESOLUTION`` or ``_GRAM_CUT`` pairs."""
    grid = _named_grid(name)[0]
    best = np.zeros(len(grid))
    best[todo] = np.pi
    while len(todo) and radius <= 4 * RESOLUTION and len(todo) * len(targets) > _GRAM_CUT:
        slot = np.searchsorted(todo, np.arange(len(grid) + 1))  # todo rows before each grid row
        for a, b, owner in _ring_runs(name, targets, radius, outward=True):
            a, count = slot[a], slot[b] - slot[a]
            row = todo[np.arange(count.sum()) + np.repeat(a - (np.cumsum(count) - count), count)]
            np.minimum.at(best, row, _chord_angles(grid[row], targets, np.repeat(owner, count)))
        todo = todo[best[todo] > radius]
        radius *= 2.0
    best[todo] = _min_angles_to(grid[todo], targets)
    return best


def _covering_angle(name: str, targets: np.ndarray) -> np.float64:
    """``_min_angles_to(grid, targets).max()`` for a named grid.  Above
    ``4 * _GRAM_CUT`` products, the rows ``_covered_rows`` leaves at
    ``RESOLUTION`` hold the answer once their largest angle reaches it; else
    every row is that close to a target, and one search at it finds all."""
    grid = _named_grid(name)[0]
    if len(grid) * len(targets) <= 4 * _GRAM_CUT:
        return _min_angles_to(grid, targets).max()
    rest = np.flatnonzero(~_covered_rows(name, targets, RESOLUTION))
    if (m := _nearest_angles(name, targets, rest, 2 * RESOLUTION).max()) >= RESOLUTION:
        return m
    return _nearest_angles(name, targets, np.arange(len(grid)), RESOLUTION).max()


def _angles_to_named(points: np.ndarray, name: str) -> np.ndarray:
    """The angle from each unit row of points to a named cone (pi when it
    has no band): from the polar angle phi off the last axis to the
    nearest band, max(0, lo - phi, phi - hi).  Bands are invariant under
    rotations that fix the last axis, so the nearest point of the cone
    has the point's own azimuth."""
    phi = np.arctan2(np.linalg.norm(points[:, :-1], axis=1), points[:, -1])
    gaps = [np.maximum(0.0, np.maximum(lo - phi, phi - hi)) for lo, hi in _EXACT_CONES[name][0]]
    return np.min(gaps, axis=0) if gaps else np.full(len(points), np.pi)


def cone_directions(C: ConeDescription, seed: int = 0) -> np.ndarray:
    """Unit direction samples representing a cone at ``RESOLUTION``; a
    named cone on the 2-sphere gives its read-only grid."""
    if C.kind == "sampled":
        return C.directions
    if C.kind == "exact":
        if C.name == "Zero":
            return np.zeros((0, C.dim))
        if C.dim == 3:
            return _named_grid(C.name)[0]
        # Full off the 2-sphere: a random sphere sample
        v = np.random.default_rng(seed).standard_normal((40_000, C.dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    # polyhedral: generators, their span under nonnegative combinations
    g = C.generators
    if len(g) == 0:
        return np.zeros((0, C.dim))
    norms = np.linalg.norm(g, axis=1)
    base = g[norms > 1e-12] / norms[norms > 1e-12, None]
    rng = np.random.default_rng(seed)
    n = max(2000, 400 * len(base))
    w = rng.exponential(1.0, size=(n, len(base)))
    mix = w @ base
    mn = np.linalg.norm(mix, axis=1)
    mix = mix[mn > 1e-12] / mn[mn > 1e-12, None]
    return dedup_directions(np.vstack([base, mix]), RESOLUTION / 2)


# ---------------------------------------------------------------------------
# equality, union


def cone_equal(
    C1: ConeDescription,
    C2: ConeDescription,
    angular_tol: float = 0.05,
) -> tuple[bool, float]:
    """Symmetric Hausdorff comparison of direction samples.

    Returns (equal, defect) where defect is the symmetric Hausdorff angular
    distance between the two direction sets.  Directions are compared with
    a named cone through their exact angle to its bands.  A named cone on
    the 2-sphere is covered ring by ring: the grid rows not marked near
    the other set are searched on its ring runs (``_covering_angle``).
    """
    d1 = cone_directions(C1)
    d2 = cone_directions(C2)
    if len(d1) == 0 and len(d2) == 0:
        return True, 0.0
    if len(d1) == 0 or len(d2) == 0:
        return False, float(np.pi)

    def angle(points, C, targets, source):
        if C.kind == "exact":
            return _angles_to_named(points, C.name).max()
        if source.kind == "exact" and source.dim == 3:
            return _covering_angle(source.name, targets)
        return _min_angles_to(points, targets).max()

    defect = float(max(angle(d1, C2, d2, C1), angle(d2, C1, d1, C2)))
    return defect <= angular_tol, defect


def cone_union(cones) -> ConeDescription:
    """Union of cones over a common algebra: the direction cone of their
    merged direction samples (the Zero cone when none has a direction)."""
    if not cones:
        raise EmptyFamily("union of no cones")
    algebra, dim = cones[0].algebra, cones[0].dim
    return direction_cone(np.vstack([cone_directions(c) for c in cones]), algebra, dim)


# ---------------------------------------------------------------------------
# asymptotic cones


def asymptotic_cone(
    family: PointFamily,
    radii=DEFAULT_RADII,
    samples_per_radius: int = 6000,
    seed: int = 0,
) -> ConeDescription:
    """Asymptotic cone of a point family.

    Samples every branch at each radius of the schedule, keeps the points
    with norm at least the largest radius, and returns their direction
    cone.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InsufficientRadii("need at least 3 strictly increasing radii")
    if not family.branches:
        raise EmptyFamily("family has no branches")
    rng = np.random.default_rng(seed)
    pts = np.vstack([branch.sample(rng, r, samples_per_radius)
                     for branch in family.branches for r in radii])
    far = pts[np.linalg.norm(pts, axis=1) >= radii[-1]]
    return direction_cone(far, family.algebra, family.dim)


def ac_union_check(
    families,
    radii=DEFAULT_RADII,
    samples_per_radius: int = 6000,
    seed: int = 0,
    angular_tol: float = 0.05,
) -> tuple[bool, float]:
    """Check AC(union of families) = union of the per-family cones.

    Both sides are computed by sampling; returns (holds, Hausdorff defect).
    """
    if not families:
        raise EmptyFamily("no families given")
    merged = PointFamily(
        algebra=families[0].algebra,
        dim=families[0].dim,
        branches=tuple(b for f in families for b in f.branches),
    )
    left = asymptotic_cone(merged, radii, samples_per_radius, seed)
    parts = [
        asymptotic_cone(f, radii, samples_per_radius, seed + 1 + k)
        for k, f in enumerate(families)
    ]
    right = cone_union(parts)
    return cone_equal(left, right, angular_tol=angular_tol)


# ---------------------------------------------------------------------------
# duals


def dual_cone(C: ConeDescription) -> ConeDescription:
    """Dual cone {xi : <xi, y> <= 0 for every generator y}.

    Generators of the dual are enumerated by facet intersections: after
    quotienting out the lineality (the common kernel of the constraints),
    each extreme ray lies on dim-1 independent constraint hyperplanes.
    A candidate ray must meet every constraint to 1e-10 times the norm of
    its generator, so the answer does not depend on the generators' scale.
    """
    if C.kind != "polyhedral":
        raise UnsupportedAlgebra("dual_cone requires a polyhedral cone")
    d = C.dim
    if d > MAX_DUAL_DIM:
        raise DimensionTooLarge(f"dual cone enumeration limited to dim {MAX_DUAL_DIM}")
    g = C.generators
    norms = np.linalg.norm(g, axis=1)
    g, norms = g[norms > 1e-12], norms[norms > 1e-12]
    if len(g) == 0:
        gens = np.vstack([np.eye(d), -np.eye(d)])
        return polyhedral_cone(gens, C.algebra)
    lin = null_rows(g, 1e-10 * max(g.shape), 0.0).T  # lineality of the dual
    d2 = d - lin.shape[1]
    rays = []
    if d2 > 0:
        basis = null_rows(lin.T, 1e-10 * max(lin.shape), 0.0).T  # its complement
        gp = g @ basis  # constraints in quotient coordinates, full rank d2
        seen = []
        for idx in combinations(range(len(gp)), d2 - 1):
            sub = gp[list(idx)]
            ns = null_rows(sub, 1e-10 * max(sub.shape), 0.0).T
            if ns.shape[1] != 1:
                continue
            u = ns[:, 0]
            for cand in (u, -u):
                if np.all(gp @ cand <= 1e-10 * norms):
                    cu = cand / np.linalg.norm(cand)
                    if not any(np.linalg.norm(cu - s) < 1e-9 for s in seen):
                        seen.append(cu)
                        rays.append(basis @ cu)
                    break
    gens = rays + [lin[:, j] for j in range(lin.shape[1])] + [
        -lin[:, j] for j in range(lin.shape[1])
    ]
    if not gens:
        gens = [np.zeros(d)]
    return polyhedral_cone(np.vstack([r[None, :] for r in gens]), C.algebra)


# ---------------------------------------------------------------------------
# serialization


def cone_record(C: ConeDescription) -> dict:
    """JSON-ready structured record of a cone.

    A sampled cone records the resolution and its number of directions,
    not the directions themselves."""
    rec = {"kind": C.kind, "algebra": C.algebra, "dim": C.dim}
    if C.kind == "exact":
        rec["name"] = C.name
        rec["inequalities"] = _EXACT_CONES[C.name][1]
    elif C.kind == "polyhedral":
        rec["generators"] = [[round(float(v), 12) for v in row] for row in C.generators]
    else:
        rec["tol"] = RESOLUTION
        rec["n_directions"] = len(C.directions)
    return rec
