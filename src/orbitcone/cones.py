"""Closed cone descriptions and asymptotic cones of point families.

A cone is one of three kinds.  ``exact`` cones are the named quadric cones
of the rank-one catalog (plus the generic Zero and Full cones), evaluated by
closed-form angular distance.  ``polyhedral`` cones carry generator rays.
``sampled`` cones are finite sets of unit directions at the one angular
resolution ``RESOLUTION``; ``direction_cone`` makes one from any point
cloud (asymptotic cones, induced cones, restriction bounds).

The asymptotic cone of a set S collects limits of directions of unbounded
sequences in S.  Numerically: sample the family at several radii, keep the
points at least as far out as the largest radius, take their direction cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import cKDTree

from .errors import (
    DimensionTooLarge,
    EmptyFamily,
    InsufficientRadii,
    UnsupportedAlgebra,
)
from .liealg import null_rows

EXACT_NAMES = (
    "Nplus",
    "Nminus",
    "N",
    "HypClosure",
    "EllPlusClosure",
    "EllMinusClosure",
    "Full",
    "Zero",
)

DEFAULT_RADII = (10.0, 30.0, 100.0, 300.0)
RESOLUTION = 0.02
MAX_DUAL_DIM = 8

# human-readable defining conditions for the named sl2-chart cones
EXACT_CONDITIONS = {
    "Nplus": ["x^2 + y^2 - z^2 = 0", "z >= 0"],
    "Nminus": ["x^2 + y^2 - z^2 = 0", "z <= 0"],
    "N": ["x^2 + y^2 - z^2 = 0"],
    "HypClosure": ["x^2 + y^2 - z^2 >= 0"],
    "EllPlusClosure": ["x^2 + y^2 - z^2 <= 0", "z >= 0"],
    "EllMinusClosure": ["x^2 + y^2 - z^2 <= 0", "z <= 0"],
    "Full": ["no constraint"],
    "Zero": ["all coordinates 0"],
}


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
    if name not in EXACT_NAMES:
        raise UnsupportedAlgebra(f"unknown exact cone name {name!r}")
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


def _min_angles_to(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each row of points (unit), the angle to the nearest row of targets.

    A KD-tree on the targets finds the nearest one by chord length d, which
    is monotone in angle on the unit sphere.  The angle is 2 atan2(d, |p + t|):
    exact at 0 and at pi alike, where arccos of a dot product (at 0) or
    2 asin(d/2) (at pi) would be off by sqrt(eps).
    """
    if len(targets) == 0:
        return np.full(len(points), np.pi)
    d, nearest = cKDTree(targets).query(points)
    return 2.0 * np.arctan2(d, np.linalg.norm(points + targets[nearest], axis=1))


def dedup_directions(dirs: np.ndarray, resolution: float) -> np.ndarray:
    """Thin a direction set to roughly one representative per angular cell.

    Grid-hash on rounded coordinates: O(n), deterministic, keeps the first
    hit in each cell.  Cell diameter is of the order of the resolution.
    """
    if len(dirs) == 0:
        return dirs
    keys = np.round(dirs / max(resolution, 1e-9)).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return dirs[np.sort(idx)]


def direction_cone(points, algebra: str, dim: int) -> ConeDescription:
    """The sampled cone of the directions of a point cloud.

    Rows of norm at most 1e-9 carry no direction and are dropped; the rest
    are normalized and thinned at ``RESOLUTION``.  The Zero cone when no
    row is left."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-9]
    if len(pts) == 0:
        return exact_cone("Zero", algebra, dim)
    dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return sampled_cone(dedup_directions(dirs, RESOLUTION), algebra)


def _exact_angular_distance(name: str, u: np.ndarray) -> float:
    """Angular distance from a unit vector to a named cone (sl2 chart)."""
    if name == "Full":
        return 0.0
    if name == "Zero":
        return np.pi
    x, y, z = u
    rho = np.hypot(x, y)
    phi = np.arctan2(rho, z)  # angle from the +z pole, in [0, pi]
    if name == "Nplus":
        return float(np.arccos(np.clip((rho + z) / np.sqrt(2.0), -1.0, 1.0)))
    if name == "Nminus":
        return float(np.arccos(np.clip((rho - z) / np.sqrt(2.0), -1.0, 1.0)))
    if name == "N":
        return min(
            _exact_angular_distance("Nplus", u), _exact_angular_distance("Nminus", u)
        )
    if name == "HypClosure":
        if np.pi / 4 <= phi <= 3 * np.pi / 4:
            return 0.0
        return float(min(abs(phi - np.pi / 4), abs(phi - 3 * np.pi / 4)))
    if name == "EllPlusClosure":
        return float(max(0.0, phi - np.pi / 4))
    if name == "EllMinusClosure":
        return float(max(0.0, 3 * np.pi / 4 - phi)) if phi < 3 * np.pi / 4 else 0.0
    raise UnsupportedAlgebra(f"unknown exact cone name {name!r}")


def _band_grid(phi_lo: float, phi_hi: float) -> np.ndarray:
    """Deterministic near-uniform grid on a latitude band of the 2-sphere."""
    rows = max(2, int(np.ceil((phi_hi - phi_lo) / RESOLUTION)) + 1)
    out = []
    for phi in np.linspace(phi_lo, phi_hi, rows):
        s = np.sin(phi)
        ntheta = max(1, int(np.ceil(2 * np.pi * max(s, 1e-9) / RESOLUTION)))
        th = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
        out.append(np.column_stack([s * np.cos(th), s * np.sin(th), np.full(ntheta, np.cos(phi))]))
    return np.vstack(out)


def cone_directions(C: ConeDescription, seed: int = 0) -> np.ndarray:
    """Unit direction samples representing a cone at ``RESOLUTION``."""
    if C.kind == "sampled":
        return C.directions
    if C.kind == "exact":
        name = C.name
        if name == "Zero":
            return np.zeros((0, C.dim))
        if name == "Full":
            if C.dim == 3:
                return _band_grid(0.0, np.pi)
            rng = np.random.default_rng(seed)
            n = min(40000, max(1000, int(16.0 / RESOLUTION**2)))
            v = rng.standard_normal((n, C.dim))
            return v / np.linalg.norm(v, axis=1, keepdims=True)
        quarter = np.pi / 4
        if name in ("Nplus", "Nminus", "N"):
            ntheta = max(8, int(np.ceil(2 * np.pi / (RESOLUTION * np.sqrt(2.0)))))
            th = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
            circ = np.column_stack(
                [np.cos(th), np.sin(th), np.ones(ntheta)]
            ) / np.sqrt(2.0)
            if name == "Nplus":
                return circ
            minus = circ * np.array([1.0, 1.0, -1.0])
            return minus if name == "Nminus" else np.vstack([circ, minus])
        if name == "HypClosure":
            return _band_grid(quarter, 3 * quarter)
        if name == "EllPlusClosure":
            return _band_grid(0.0, quarter)
        if name == "EllMinusClosure":
            return _band_grid(3 * quarter, np.pi)
        raise UnsupportedAlgebra(f"unknown exact cone name {name!r}")
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
# membership, equality, union


def cone_contains(C: ConeDescription, xi, tol: float | None = None) -> bool:
    """Whether a point lies in the cone, up to an angular tolerance.

    Zero always belongs.  Exact cones use closed-form angular distance to
    the defining quadric set, polyhedral cones use nonnegative least
    squares, sampled cones use distance to the stored direction set.
    """
    v = np.asarray(xi, dtype=float)
    n = np.linalg.norm(v)
    if n <= 1e-12:
        return True
    u = v / n
    t = RESOLUTION if tol is None else tol
    if C.kind == "exact":
        return _exact_angular_distance(C.name, u) <= t
    if C.kind == "polyhedral":
        g = C.generators
        if len(g) == 0:
            return False
        _, resid = nnls(g.T, u, maxiter=10 * max(g.shape))
        return resid <= max(t, 1e-9)
    if len(C.directions) == 0:
        return False
    return float(_min_angles_to(u[None, :], C.directions)[0]) <= t


def cone_equal(
    C1: ConeDescription,
    C2: ConeDescription,
    angular_tol: float = 0.05,
) -> tuple[bool, float]:
    """Symmetric Hausdorff comparison of direction samples.

    Returns (equal, defect) where defect is the symmetric Hausdorff angular
    distance between the two direction sets.
    """
    d1 = cone_directions(C1)
    d2 = cone_directions(C2)
    if len(d1) == 0 and len(d2) == 0:
        return True, 0.0
    if len(d1) == 0 or len(d2) == 0:
        return False, float(np.pi)
    a = _min_angles_to(d1, d2).max()
    b = _min_angles_to(d2, d1).max()
    defect = float(max(a, b))
    return defect <= angular_tol, defect


def cone_union(cones) -> ConeDescription:
    """Union of cones over a common algebra.

    Exact unions are kept exact when the catalog has a name for them
    (the two nilpotent half-cones join to N, anything containing Full is
    Full); otherwise the union is a merged sampled cone.
    """
    cones = [c for c in cones if not (c.kind == "exact" and c.name == "Zero")]
    if not cones:
        raise EmptyFamily("union of no cones")
    algebra, dim = cones[0].algebra, cones[0].dim
    names = {c.name for c in cones if c.kind == "exact"}
    if "Full" in names:
        return exact_cone("Full", algebra, dim)
    if len(names) == len(cones):
        if names == {"Nplus", "Nminus"}:
            return exact_cone("N", algebra, dim)
        if len(names) == 1:
            return exact_cone(names.pop(), algebra, dim)
    dirs = np.vstack([cone_directions(c) for c in cones])
    return sampled_cone(dedup_directions(dirs, RESOLUTION), algebra)


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
# duals and conic neighborhoods


def dual_cone(C: ConeDescription) -> ConeDescription:
    """Dual cone {xi : <xi, y> <= 0 for every generator y}.

    Generators of the dual are enumerated by facet intersections: after
    quotienting out the lineality (the common kernel of the constraints),
    each extreme ray lies on dim-1 independent constraint hyperplanes.
    """
    if C.kind != "polyhedral":
        raise UnsupportedAlgebra("dual_cone requires a polyhedral cone")
    d = C.dim
    if d > MAX_DUAL_DIM:
        raise DimensionTooLarge(f"dual cone enumeration limited to dim {MAX_DUAL_DIM}")
    g = C.generators
    g = g[np.linalg.norm(g, axis=1) > 1e-12]
    if len(g) == 0:
        gens = np.vstack([np.eye(d), -np.eye(d)])
        return polyhedral_cone(gens, C.algebra)
    lin = null_rows(g, 1e-10 * max(g.shape), 0.0).T  # lineality of the dual
    d2 = d - lin.shape[1]
    rays = []
    if d2 > 0:
        basis = null_rows(lin.T, 1e-10 * max(lin.shape), 0.0).T  # its complement
        gp = g @ basis  # constraints in quotient coordinates, full rank d2
        if d2 == 1:
            for sign in (1.0, -1.0):
                u = np.array([sign])
                if np.all(gp @ u <= 1e-10):
                    rays.append(basis @ u)
        else:
            from itertools import combinations

            m = len(gp)
            seen = []
            for idx in combinations(range(m), d2 - 1):
                sub = gp[list(idx)]
                ns = null_rows(sub, 1e-10 * max(sub.shape), 0.0).T
                if ns.shape[1] != 1:
                    continue
                u = ns[:, 0]
                for cand in (u, -u):
                    if np.all(gp @ cand <= 1e-10):
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


def conic_neighborhood_contains(xi, delta: float, eta) -> bool:
    """Whether eta lies in the conic delta-neighborhood of a unit vector xi.

    The neighborhood is {eta : |xi - t eta| < delta for some t > 0}; the
    infimum over t has the closed form sqrt(1 - (cos angle)^2) when eta
    points into the half-space of xi, and 1 otherwise.
    """
    x = np.asarray(xi, dtype=float)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > 1e-9:
        x = x / nx  # tolerate non-normalized input
    e = np.asarray(eta, dtype=float)
    ne = np.linalg.norm(e)
    if ne <= 1e-300:
        dist = 1.0
    else:
        c = float(x @ e) / ne
        dist = 1.0 if c <= 0 else float(np.sqrt(max(0.0, 1.0 - c * c)))
    return dist < delta


# ---------------------------------------------------------------------------
# serialization


def cone_record(C: ConeDescription) -> dict:
    """JSON-ready structured record of a cone.

    A sampled cone records the resolution and its number of directions,
    not the directions themselves."""
    rec = {"kind": C.kind, "algebra": C.algebra, "dim": C.dim}
    if C.kind == "exact":
        rec["name"] = C.name
        rec["inequalities"] = EXACT_CONDITIONS[C.name]
    elif C.kind == "polyhedral":
        rec["generators"] = [[round(float(v), 12) for v in row] for row in C.generators]
    else:
        rec["tol"] = RESOLUTION
        rec["n_directions"] = len(C.directions)
    return rec
