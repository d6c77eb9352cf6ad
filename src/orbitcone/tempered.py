"""Weak-containment test for L^2(G/H) via split-abelian weight data.

The criterion is a family of linear inequalities: 2 rho_h(Y) <= rho_g(Y)
for every Y in a maximal split abelian subspace a of h, where rho is the
trace of ad(Y) over its positive eigenspaces.  Both sides are piecewise
linear over the fan cut out by the weight hyperplanes, so the global
check reduces to finitely many candidate rays: the +- solutions of every
(dim-1)-subset of hyperplanes of full rank, taken after quotienting the
common lineality space.  The rays are enumerated as primitive integer
vectors by fraction-free elimination, so the comparison on them is exact
integer arithmetic.  This needs integral weights; non-integral weights
raise UnsupportedAlgebra (every pair the CLI builds has integral
weights).

The weights come from symmetric matrices: the split rows are Hermitian
matrices on both sides of a Cartan-compatible (theta-stable) pair, so
each ad(Y) is self-adjoint for Re Tr(X Z*) and symmetric in an
orthonormal frame of that form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionTooLarge, NonCommuting, UnsupportedAlgebra
from .induction import SubalgebraEmbedding
from .liealg import MatrixLieAlgebra, ad_matrix, element_matrix

COMMUTE_TOL = 1e-9
INT_SNAP_TOL = 1e-6
MAX_SPLIT_DIM = 4


@dataclass(frozen=True, eq=False)
class WeightSystem:
    """Weights of a commuting real-diagonalizable action.

    Each entry is (functional on the acting space as a coordinate tuple,
    multiplicity).  Nonzero weights come in +- pairs with equal
    multiplicities.
    """

    ambient_dim: int
    weights: tuple
    integral: bool


@dataclass(frozen=True, eq=False)
class BKCertificate:
    """The answer of ``bk_weak_containment``: the verdict, the normalized
    ray of the largest violation (None when contained), the number of
    candidate rays compared and the weight tables."""

    verdict: str  # "Contained" | "Violated"
    witness: dict | None
    rays_checked: int
    weight_tables: dict


def split_abelian(E: SubalgebraEmbedding) -> np.ndarray:
    """Basis rows of a maximal split abelian subspace of the sub algebra.

    The rows must be Hermitian matrices in the sub and in the ambient, as
    on every Cartan-compatible (theta-stable) pair: then each ad(Y) is
    self-adjoint for Re Tr(X Z*), hence real-diagonalizable.  Otherwise
    UnsupportedAlgebra is raised.
    """
    h = E.sub
    rows = np.asarray(h.split_coords, dtype=float)
    if rows.shape[0] == 0:
        return np.zeros((0, h.dim))
    for L, x in ((h, rows), (E.ambient, rows @ E.inclusion)):
        m = element_matrix(L, x)
        scale = max(1.0, np.max(np.abs(m)))
        if np.max(np.abs(m - np.conj(np.swapaxes(m, 1, 2)))) > COMMUTE_TOL * scale:
            raise UnsupportedAlgebra(f"split part of {h.name} is not Hermitian in {L.name}")
    return rows


def _orthonormal_ad(L: MatrixLieAlgebra, rows: np.ndarray) -> np.ndarray:
    """ad of each row in an orthonormal frame of Re Tr(X Z*) on L."""
    R = np.linalg.cholesky(L.flat_basis.T @ L.flat_basis).T
    return R @ ad_matrix(L, rows) @ np.linalg.inv(R)


def weights_of_action(mats, module_dim: int | None = None) -> WeightSystem:
    """Joint eigenvalues of commuting symmetric real matrices.

    The matrices are ad(Y) of split elements written in an orthonormal
    frame (see ``split_abelian``); a non-symmetric input raises
    UnsupportedAlgebra.  One symmetric eigendecomposition of a generic
    combination gives an orthonormal eigenbasis; each eigenvector u must
    be mapped by every generator M to a multiple of itself, and its joint
    weight is read as the Rayleigh quotients u.M u.  Returns the joint
    weights with multiplicities; values within 1e-6 of an integer are
    snapped so downstream checks can run exactly.  An empty acting space
    carries the single zero weight with the module's full multiplicity.
    """
    mats = np.asarray(mats, dtype=float)
    k = len(mats)
    if k == 0:
        if module_dim is None:
            raise UnsupportedAlgebra("empty action needs an explicit module_dim")
        return WeightSystem(0, (((), module_dim),), True)
    scale = max(1.0, np.max(np.abs(mats)))
    if np.max(np.abs(mats - np.swapaxes(mats, 1, 2))) > COMMUTE_TOL * scale:
        raise UnsupportedAlgebra("action matrices are not symmetric")
    comm = mats[:, None] @ mats[None] - mats[None] @ mats[:, None]
    tol = COMMUTE_TOL * scale * scale
    bad = np.argwhere(np.triu(np.max(np.abs(comm), axis=(2, 3)) > tol, 1))
    if len(bad):
        i, j = bad[0]
        raise NonCommuting(f"action matrices {i} and {j} do not commute")
    rng = np.random.default_rng(11)
    for _ in range(8):
        _, U = np.linalg.eigh(np.tensordot(rng.standard_normal(k), mats, axes=1))
        MU = mats @ U
        lam = np.einsum("kij,ij->jk", MU, U)  # row j: the weight read on u_j
        # a generic combination separates the weights, so each of its
        # eigenvectors must be an eigenvector of every generator
        if np.all(np.linalg.norm(MU - lam.T[:, None, :] * U, axis=1) <= 1e-6 * scale):
            break
    else:
        raise NonCommuting("no generic combination separated the weights")
    snapped = np.round(lam)
    integral = bool(np.max(np.abs(lam - snapped)) <= INT_SNAP_TOL)
    if integral:
        groups = Counter(map(tuple, snapped.astype(int).tolist()))
    else:
        groups = Counter(tuple(round(x, 9) for x in row) for row in lam.tolist())
    weights = tuple(sorted(groups.items()))
    for w, m in weights:
        if any(abs(x) > 0 for x in w):
            neg = tuple(-x for x in w)
            if groups.get(neg) != m:
                raise NonCommuting(f"weight {w} lacks its negative partner")
    return WeightSystem(ambient_dim=k, weights=weights, integral=integral)


def rho_batch(W: WeightSystem, ys: np.ndarray) -> np.ndarray:
    """rho at each row of ys: the sum of the positive weight values, with
    multiplicity, i.e. the trace of the action over its positive part."""
    ys = np.asarray(ys, dtype=float)
    if not W.weights:
        return np.zeros(len(ys))
    wmat = np.array([w for w, _ in W.weights], dtype=float)
    mult = np.array([m for _, m in W.weights], dtype=float)
    vals = ys @ wmat.T
    return np.maximum(vals, 0.0) @ mult


# ---------------------------------------------------------------------------
# exact integer linear algebra on weight rows


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination over the integers; returns
    (reduced rows, pivot column list).

    Each column's pivot is the first remaining row that is nonzero there,
    as in rational row reduction, and each reduced row is a nonzero
    multiple of the rational reduced row; rows are kept primitive."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [top[c] * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _null_rays(ech, pivots, ncols):
    """The null space of reduced rows: for each free column in turn, the
    primitive integer vector on the ray of the rational basis vector that
    is 1 there and 0 at the other free columns."""
    scale = math.lcm(*(row[c] for row, c in zip(ech, pivots)))
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = scale
        for row, c in zip(ech, pivots):
            v[c] = -row[fc] * scale // row[c]
        g = math.gcd(*v)
        yield [a // g for a in v]


def bk_weak_containment(E: SubalgebraEmbedding) -> BKCertificate:
    """Exact global test of 2 rho_h <= rho_g over the split abelian part.

    The verdict is "Contained" or "Violated"; weights that are not
    integral raise UnsupportedAlgebra."""
    a_rows = split_abelian(E)
    k = a_rows.shape[0]
    tables: dict = {"split_dim": k}
    if k == 0:
        return BKCertificate("Contained", None, 0, tables)
    if k > MAX_SPLIT_DIM:
        raise DimensionTooLarge(f"split part has dim {k} > {MAX_SPLIT_DIM}")
    W_h = weights_of_action(_orthonormal_ad(E.sub, a_rows))
    W_g = weights_of_action(_orthonormal_ad(E.ambient, a_rows @ E.inclusion))
    if not (W_h.integral and W_g.integral):
        raise UnsupportedAlgebra(
            f"weights of the split part of {E.name} are not integral"
        )
    tables["sub_weights"] = [[list(w), m] for w, m in W_h.weights]
    tables["ambient_weights"] = [[list(w), m] for w, m in W_g.weights]
    return _bk_rays(W_h, W_g, k, tables)


def _candidate_rays(planes, k: int) -> list:
    """The candidate extreme rays of the fan cut out by the weight
    hyperplanes, as primitive integer vectors.

    For every (d-1)-subset of hyperplanes of full rank, d the rank of all
    of them (the dimension modulo their common lineality), the first null
    vector off the lineality and its negative; a linear function on a
    polyhedral cone attains its sign extremes at such rays.
    """
    d = len(_echelon(planes)[1])
    rays = []
    for subset in combinations(planes, d - 1):
        ech, pivots = _echelon(subset)
        if len(pivots) != d - 1:  # subset not of full rank
            continue
        for y in _null_rays(ech, pivots, k):
            if any(sum(a * b for a, b in zip(p, y)) for p in planes):
                rays += [y, [-a for a in y]]
                break
    return rays


def _bk_rays(W_h: WeightSystem, W_g: WeightSystem, k: int, tables: dict) -> BKCertificate:
    """Compare 2 rho_h with rho_g on every candidate extreme ray, all at
    once in exact integer arithmetic.  The witness is the first ray with
    the largest gap.
    """
    nonzero = {w for w, _ in W_h.weights + W_g.weights if any(w)}
    if not nonzero:
        return BKCertificate("Contained", None, 0, tables)
    # hyperplanes up to sign
    rays = _candidate_rays(sorted({max(w, tuple(-x for x in w)) for w in nonzero}), k)
    Y = np.array(rays, dtype=object)
    W = np.array([w for w, _ in W_h.weights + W_g.weights], dtype=object)
    n_h = len(W_h.weights)
    pos = np.maximum(Y @ W.T, 0)
    lhs = pos[:, :n_h] @ np.array([2 * m for _, m in W_h.weights], dtype=object)
    rhs = pos[:, n_h:] @ np.array([m for _, m in W_g.weights], dtype=object)
    gap = lhs - rhs
    checked = len(rays)
    tables["rays"] = checked
    i = int(np.argmax(gap))
    if gap[i] <= 0:
        return BKCertificate("Contained", None, checked, tables)
    y = Y[i].astype(float)
    norm = float(np.linalg.norm(y))
    return BKCertificate(
        "Violated",
        {
            "ray": (y / norm).tolist(),
            "two_rho_sub": float(lhs[i]) / norm,
            "rho_ambient": float(rhs[i]) / norm,
        },
        checked,
        tables,
    )
