"""Coadjoint orbits: sampling, invariants, and densities.

Orbits of the rank-one catalog are the level sets of the chart Casimir
x^2 + y^2 - z^2: one-sheeted hyperboloids (value nu^2 > 0), the two
hyperboloid sheets (value -n^2, sign of z), the two nilpotent half-cones,
and the origin.  Samplers place points exactly on these quadrics with
near-uniform direction coverage, which is what asymptotic-cone extraction
needs.  Induced cones on other algebras move points by random group
transports instead (see ``induction``).

Densities: the orbit symplectic form at xi is omega(ad*_X xi, ad*_Y xi)
= -<xi, [X, Y]>.  The canonical density of a tangent frame is
|det Omega|^(1/2) / (2 pi)^d with 2d the orbit dimension; the Euclidean
density is the volume of the frame for the coordinate inner product.  The
ratio of the two is the scalar computed by :func:`density_ratio_F`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import FamilyBranch, PointFamily
from .errors import (
    DegenerateForm,
    OddDimension,
    UnsupportedAlgebra,
    ZeroPoint,
)
from .liealg import (
    MatrixLieAlgebra,
    ad_matrix,
    bracket,
    check_coords,
    coadjoint_ad,
    pairing,
)

GOLDEN = 0.6180339887498949
SL2_KINDS = ("hyp", "ell+", "ell-", "nil+", "nil-", "zero")
SUM_RADIUS = 50.0


@dataclass(frozen=True, eq=False)
class OrbitParam:
    """A single coadjoint orbit.

    ``kind`` is one of the sl2 chart tags (hyp, ell+, ell-, nil+, nil-,
    zero) with ``value`` the quadric parameter where applicable.
    """

    algebra: str
    kind: str
    value: float | None = None


# ---------------------------------------------------------------------------
# tangent frames and densities


def tangent_basis(L: MatrixLieAlgebra, xi) -> np.ndarray:
    """Rows span the orbit tangent space at xi: a maximal independent
    subset of {ad*_(e_i) xi}, in index order, chosen deterministically by
    greedy pivoted Gram-Schmidt.  The row of largest residual norm comes
    next (the first on ties); the rank counts the picks whose residual
    norm exceeds 1e-10 times the largest row norm."""
    c = check_coords(L, xi)
    if np.linalg.norm(c) <= 1e-12:
        raise ZeroPoint("tangent basis needs a nonzero point")
    cand = -ad_matrix(L, c).T  # row i = ad*_(e_i) xi
    if np.max(np.abs(cand)) < 1e-14:
        return np.zeros((0, L.dim))
    resid = cand.copy()
    norms = np.linalg.norm(resid, axis=1)
    floor, picked = norms.max() * 1e-10, []
    for _ in range(min(cand.shape)):
        i = int(np.argmax(norms))
        if norms[i] <= floor:
            break
        picked.append(i)
        q = resid[i] / norms[i]
        resid -= np.outer(resid @ q, q)
        norms = np.linalg.norm(resid, axis=1)
        norms[picked] = 0.0
    return cand[np.sort(picked)]


def kks_form(L: MatrixLieAlgebra, xi, x, y) -> float:
    """Orbit symplectic form on coadjoint directions: -<xi, [X, Y]>."""
    return -pairing(L, xi, bracket(L, x, y))


def kks_gram(L: MatrixLieAlgebra, xi, vectors) -> np.ndarray:
    """Matrix of the orbit symplectic form on a tangent frame."""
    c = check_coords(L, xi)
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    # X_i with ad*_(X_i) xi = v_i, least squares (any solution works, the
    # form value does not depend on the choice)
    xs = np.linalg.lstsq(-ad_matrix(L, c), vecs.T, rcond=None)[0].T
    k = len(vecs)
    omega = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            omega[i, j] = kks_form(L, c, xs[i], xs[j])
            omega[j, i] = -omega[i, j]
    return omega


def canonical_density(L: MatrixLieAlgebra, xi, vectors) -> float:
    """Canonical orbit density of a tangent frame: |det Omega|^(1/2) with a
    (2 pi)^d normalization, d half the frame size.  The empty frame (a
    point orbit) has density 1."""
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vecs.size == 0:
        return 1.0
    k = len(vecs)
    if k % 2:
        raise OddDimension("canonical density needs an even frame")
    omega = kks_gram(L, xi, vecs)
    det = float(np.linalg.det(omega))
    if det < 1e-14:
        raise DegenerateForm("symplectic gram is singular on this frame")
    return float(np.sqrt(det) / (2 * np.pi) ** (k // 2))


def euclidean_density(vectors) -> float:
    """Volume of a frame for the coordinate inner product: |det((v_i, e_j))|
    over an orthonormal basis e_j of the frame's span."""
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vecs.size == 0:
        return 1.0
    q, r = np.linalg.qr(vecs.T)
    diag = np.abs(np.diag(r))
    if np.any(diag <= 1e-12 * max(1.0, diag.max())):
        raise DegenerateForm("frame does not span its expected dimension")
    return float(np.abs(np.linalg.det(vecs @ q)))


def density_ratio_F(L: MatrixLieAlgebra, xi) -> float:
    """Ratio of the Euclidean to the canonical orbit density at xi.

    Computed from an orthonormal tangent frame {eta_j}: with X_i the
    algebra element pairing as the coordinate inner product against eta_i,
    the value is (2 pi)^d |det((ad*_(X_i) xi, eta_j))|^(1/2).
    """
    c = check_coords(L, xi)
    tb = tangent_basis(L, c)
    if len(tb) == 0:
        return 1.0
    q, _ = np.linalg.qr(tb.T)
    etas = q[:, : len(tb)].T  # orthonormal frame, rows
    gram_inv = np.linalg.inv(L.gram)
    m = np.empty((len(tb), len(tb)))
    for i, eta in enumerate(etas):
        x_i = gram_inv @ eta  # <eta', X_i> = (eta', eta_i) for all eta'
        m[i] = etas @ coadjoint_ad(L, x_i, c)
    d = len(tb) // 2
    return float((2 * np.pi) ** d * np.sqrt(abs(np.linalg.det(m))))


# ---------------------------------------------------------------------------
# samplers


def _stratified(rng, count):
    return (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count


def _angles(rng, count):
    return 2 * np.pi * ((np.arange(count) * GOLDEN + rng.uniform()) % 1.0)


def _log_uniform(rng, lo, hi, count):
    # iid, not stratified: norms must stay independent of the direction
    # grids, or the asymptotic-cone norm filter would bias directions
    lo, hi = max(lo, 1e-9), max(hi, 2e-9)
    if hi <= lo:
        hi = 2 * lo
    return np.exp(rng.uniform(np.log(lo), np.log(hi), count))


def _sl2_branch_sampler(kind: str, value: float | None):
    """Point sampler for one sl2-chart orbit branch."""

    if kind == "zero":
        def sample(rng, radius, count):
            return np.zeros((count, 3))

        return sample

    if kind == "hyp":
        nu = float(value)

        def sample(rng, radius, count):
            t = _log_uniform(rng, max(nu * 1.01, radius), 2 * radius + 2 * nu, count)
            t = np.maximum(t, nu * 1.000001)
            z = np.sqrt((t * t - nu * nu) / 2.0)
            z *= np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
            rho = np.sqrt(nu * nu + z * z)
            th = _angles(rng, count)
            return np.column_stack([rho * np.cos(th), rho * np.sin(th), z])

        return sample

    if kind in ("ell+", "ell-"):
        n = float(value)
        sign = 1.0 if kind == "ell+" else -1.0

        def sample(rng, radius, count):
            t = _log_uniform(rng, max(n * 1.01, radius), 2 * radius + 2 * n, count)
            t = np.maximum(t, n * 1.000001)
            u = 0.5 * np.arccosh((t / n) ** 2)
            rho = n * np.sinh(u)
            z = sign * n * np.cosh(u)
            th = _angles(rng, count)
            return np.column_stack([rho * np.cos(th), rho * np.sin(th), z])

        return sample

    if kind in ("nil+", "nil-"):
        sign = 1.0 if kind == "nil+" else -1.0

        def sample(rng, radius, count):
            t = _log_uniform(rng, radius, 2 * radius, count)
            r = t / np.sqrt(2.0)
            th = _angles(rng, count)
            return np.column_stack([r * np.cos(th), r * np.sin(th), sign * r])

        return sample

    raise UnsupportedAlgebra(f"unknown sl2 orbit kind {kind!r}")


def orbit_branch(L: MatrixLieAlgebra, param: OrbitParam) -> FamilyBranch:
    """The sampler of one orbit of L.  ``hyp`` needs a finite value,
    ``ell+`` and ``ell-`` a finite positive one; ``nil+``, ``nil-`` and
    ``zero`` take none."""
    kind, value = param.kind, param.value
    if param.algebra != L.name:
        raise UnsupportedAlgebra(f"an orbit of {param.algebra} is not an orbit of {L.name}")
    if L.chart != "sl2" or kind not in SL2_KINDS:
        raise UnsupportedAlgebra(f"orbit kind {kind!r} not available on {L.name}")
    if kind in ("nil+", "nil-", "zero"):
        if value is not None:
            raise UnsupportedAlgebra(f"orbit kind {kind!r} takes no value, got {value:g}")
    elif value is None or not np.isfinite(value):
        raise UnsupportedAlgebra(f"orbit kind {kind!r} needs a finite value, got {value}")
    elif kind != "hyp" and value <= 0:
        raise UnsupportedAlgebra(f"orbit kind {kind!r} needs a positive value, got {value:g}")
    label = kind if value is None else f"{kind}:{value:g}"
    return FamilyBranch(label, _sl2_branch_sampler(kind, value))


def orbit_family(L: MatrixLieAlgebra, params) -> PointFamily:
    """Point family made of finitely many orbits."""
    branches = tuple(orbit_branch(L, p) for p in params)
    return PointFamily(algebra=L.name, dim=L.dim, branches=branches)


def _hyp_union_sampler():
    """All hyperbolic orbits at once: stratified directions in the open
    band |z| < rho, exact placement at a log-uniform norm."""

    def sample(rng, radius, count):
        cmax = 1.0 / np.sqrt(2.0) - 1e-9
        c = (2 * _stratified(rng, count) - 1.0) * cmax
        th = _angles(rng, count)
        s = np.sqrt(1.0 - c * c)
        u = np.column_stack([s * np.cos(th), s * np.sin(th), c])
        t = _log_uniform(rng, radius, 2 * radius, count)
        return u * t[:, None]

    return sample


def _ell_union_sampler(sign: float):
    """The integer family of elliptic orbits on one side: stratified cap
    directions, then the norm is snapped so the quadric parameter is a
    positive integer."""

    def sample(rng, radius, count):
        cmin = 1.0 / np.sqrt(2.0) + 1e-9
        c = cmin + _stratified(rng, count) * (1.0 - cmin)
        th = _angles(rng, count)
        s = np.sqrt(np.clip(1.0 - c * c, 0.0, 1.0))
        u = np.column_stack([s * np.cos(th), s * np.sin(th), sign * c])
        t = _log_uniform(rng, radius, 2 * radius, count)
        root = np.sqrt(c * c - s * s)  # sqrt(-casimir) on the unit direction
        n = np.maximum(1.0, np.round(t * root))
        return u * (n / root)[:, None]

    return sample


def union_family(L: MatrixLieAlgebra, kind: str) -> PointFamily:
    """Unbounded orbit unions of the sl2 catalog.

    ``hyp_union``: every hyperbolic orbit (asymptotic cone: closure of the
    hyperbolic dual region).  ``ell_union_plus`` / ``ell_union_minus``: the
    integer families of elliptic orbits on one side (asymptotic cone: the
    closed elliptic region of that sign).  ``full``: all three.
    """
    if L.chart != "sl2":
        raise UnsupportedAlgebra("orbit unions are catalogued for the sl2 chart")
    if kind == "hyp_union":
        branches = (FamilyBranch("hyp_union", _hyp_union_sampler()),)
    elif kind == "ell_union_plus":
        branches = (FamilyBranch("ell_union_plus", _ell_union_sampler(1.0)),)
    elif kind == "ell_union_minus":
        branches = (FamilyBranch("ell_union_minus", _ell_union_sampler(-1.0)),)
    elif kind == "full":
        branches = (
            FamilyBranch("hyp_union", _hyp_union_sampler()),
            FamilyBranch("ell_union_plus", _ell_union_sampler(1.0)),
            FamilyBranch("ell_union_minus", _ell_union_sampler(-1.0)),
        )
    else:
        raise UnsupportedAlgebra(f"unknown union kind {kind!r}")
    return PointFamily(algebra=L.name, dim=L.dim, branches=branches)


def orbit_sample(
    L: MatrixLieAlgebra,
    param: OrbitParam,
    count: int,
    seed: int = 0,
    radius: float = 10.0,
) -> np.ndarray:
    """Draw ``count`` points of one orbit, norms spread up to ~2*radius."""
    rng = np.random.default_rng(seed)
    branch = orbit_branch(L, param)
    return branch.sample(rng, radius, count)


def orbit_sum_sample(
    L: MatrixLieAlgebra,
    p1: OrbitParam,
    p2: OrbitParam,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """Pairwise sums of independent samples of two orbits.

    The factors are drawn at radius SUM_RADIUS, which keeps their norms
    moderate: classification of sums near the asymptotic boundary is
    numerically meaningless at very large radii, and the catalog's
    sum-class statements hold at every radius.
    """
    a = orbit_sample(L, p1, count, seed=seed, radius=SUM_RADIUS)
    b = orbit_sample(L, p2, count, seed=seed + 1, radius=SUM_RADIUS)
    return a + b
