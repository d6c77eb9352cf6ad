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
    UnsupportedAlgebra,
)
from .liealg import build_algebra, null_rows

DEFAULT_RADII = (10.0, 30.0, 100.0, 300.0)
RESOLUTION = 0.02
MAX_DUAL_DIM = 8
# the nearest-direction search: n * m up to which one Gram product is the
# cheapest (and the products of one Gram chunk), the first cube side of the
# 3-D cell grid, and the candidate pairs it holds at once
_GRAM_CUT = 500_000
_CELL = 0.025
_CELL_PAIRS = 1 << 16

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
    d = np.asarray(directions, dtype=float)
    if d.size == 0:
        d = d.reshape(0, d.shape[1] if d.ndim == 2 else 0)
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


def _nearest_by_gram(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the target with the largest dot product with each point,
    one chunk of at most ``_GRAM_CUT`` products at a time."""
    step = max(1, _GRAM_CUT // len(targets))
    nearest = np.empty(len(points), dtype=np.intp)
    for i in range(0, len(points), step):
        nearest[i:i + step] = np.argmax(points[i:i + step] @ targets.T, axis=1)
    return nearest


def _nearest_by_cells(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest target to each point, unit rows in 3-D.

    Cubes of side h key every row; the targets, sorted by cell code with
    z fastest, put each (x, y) column of cells in one run, and one
    ``bincount``/``cumsum`` table gives each cell's first target.  A point
    scans the 9 columns of its 3x3x3 block.  A target at chord at most h
    lies in that block, so a point whose best candidate is that close is
    done; the others go round again at 2h.  The Gram product finishes the
    points left once h reaches 2, the largest chord, and takes at once a
    point whose block holds more than an eighth of the targets, where one
    Gram row costs less than the scan.  Points go in pieces of about
    ``_CELL_PAIRS`` candidate pairs.
    """
    nearest = np.empty(len(points), dtype=np.intp)
    todo, gram, h = np.arange(len(points)), [], _CELL
    while len(todo) and h < 2.0:
        top = int(np.ceil(2.0 / h))
        side = top + 3  # keys 1..top + 1, an empty cell at each end
        # lowest cell of each of the 9 columns of a block, from its centre
        block = ((np.arange(-1, 2)[:, None] * side + np.arange(-1, 2)) * side - 1).ravel()
        tk = np.clip(np.floor((targets + 1.0) / h), 0, top).astype(np.intp) + 1
        tcode = (tk[:, 0] * side + tk[:, 1]) * side + tk[:, 2]
        order = np.argsort(tcode, kind="stable")
        sorted_t = targets[order].T.copy()  # one contiguous row per axis
        start = np.bincount(tcode + 1, minlength=side ** 3 + 1)  # first target of each cell
        np.cumsum(start, out=start)
        pk = np.clip(np.floor((points[todo] + 1.0) / h), 0, top).astype(np.intp) + 1
        centre = (pk[:, 0] * side + pk[:, 1]) * side + pk[:, 2]
        per = sum(start[centre + b + 3] - start[centre + b] for b in block)
        crowded = per * 8 > len(targets)
        gram.append(todo[crowded])
        todo, centre, per = todo[~crowded], centre[~crowded], per[~crowded]
        left = []
        cuts = np.searchsorted(np.cumsum(per), np.arange(_CELL_PAIRS, per.sum(), _CELL_PAIRS))
        for piece in np.split(np.arange(len(todo)), cuts):
            idx, cell = todo[piece], centre[piece, None] + block
            lo = start[cell].ravel()
            count = start[cell + 3].ravel() - lo
            flat = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
            owner = np.repeat(np.arange(len(idx)), per[piece])
            # the squared chord summed over x, y, z in order, as the norm does
            d2 = np.zeros(len(flat))
            for k in range(3):
                diff = points[idx, k][owner] - sorted_t[k][flat]
                d2 += diff * diff
            best = np.full(len(idx), np.inf)
            has = per[piece] > 0
            best[has] = np.minimum.reduceat(d2, (np.cumsum(per[piece]) - per[piece])[has])
            hit = np.flatnonzero(d2 == best[owner])
            first = hit[np.diff(owner[hit], prepend=-1) != 0]
            nearest[idx[owner[first]]] = order[flat[first]]
            left.append(idx[best > (h * (1.0 - 1e-9)) ** 2])
        todo, h = np.concatenate(left), 2.0 * h
    gram = np.concatenate([*gram, todo])
    nearest[gram] = _nearest_by_gram(points[gram], targets)
    return nearest


def _min_angles_to(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each unit row of points, the angle to the nearest unit row of
    targets (pi when there is none).

    The nearest target (the shortest chord, the largest dot product) comes
    from chunked Gram products, or in 3-D above ``_GRAM_CUT`` pairs from a
    cell grid.
    """
    if len(targets) == 0:
        return np.full(len(points), np.pi)
    if points.shape[1] == 3 and len(points) * len(targets) > _GRAM_CUT:
        nearest = _nearest_by_cells(points, targets)
    else:
        nearest = _nearest_by_gram(points, targets)
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


def _band_grid(phi_lo: float, phi_hi: float) -> np.ndarray:
    """Deterministic near-uniform grid on a latitude band of the 2-sphere,
    one ring per latitude (a single ring when the band is one latitude).
    Rings and the rows of a ring are at most ``RESOLUTION`` apart."""
    rows = max(2, int(np.ceil((phi_hi - phi_lo) / RESOLUTION)) + 1) if phi_hi > phi_lo else 1
    rings = []
    for phi in np.linspace(phi_lo, phi_hi, rows):
        s = np.sin(phi)
        ntheta = max(1, int(np.ceil(2 * np.pi * max(s, 1e-9) / RESOLUTION)))
        th = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
        rings.append(np.column_stack([s * np.cos(th), s * np.sin(th), np.full(ntheta, np.cos(phi))]))
    return np.vstack(rings)


@cache
def _named_grid(name: str) -> np.ndarray:
    """The direction grid of a named cone on the 2-sphere, built once and
    read-only."""
    bands = [_band_grid(lo, hi) for lo, hi in _EXACT_CONES[name][0]]
    grid = np.vstack(bands) if bands else np.zeros((0, 3))
    grid.flags.writeable = False
    return grid


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
            return _named_grid(C.name)
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
    a named cone through their exact angle to its bands.
    """
    d1 = cone_directions(C1)
    d2 = cone_directions(C2)
    if len(d1) == 0 and len(d2) == 0:
        return True, 0.0
    if len(d1) == 0 or len(d2) == 0:
        return False, float(np.pi)

    def angles(points, C, targets):
        if C.kind == "exact":
            return _angles_to_named(points, C.name)
        return _min_angles_to(points, targets)

    a = angles(d1, C2, d2).max()
    b = angles(d2, C1, d1).max()
    defect = float(max(a, b))
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
