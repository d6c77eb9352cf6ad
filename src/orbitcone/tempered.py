"""Weak-containment test for L^2(G/H) via split-abelian weight data.

The criterion is a family of linear inequalities: 2 rho_h(Y) <= rho_g(Y)
for every Y in a maximal split abelian subspace a of h, where rho is the
trace of ad(Y) over its positive eigenspaces.  Both sides are piecewise
linear over the fan cut out by the weight hyperplanes, so the global
check reduces to finitely many candidate rays: the +- solutions of every
(dim-1)-subset of hyperplanes of full rank, taken after quotienting the
common lineality space.  The rays are enumerated over the rationals and
scaled to primitive integer vectors, so the comparison on them is exact
integer arithmetic.  This needs integral weights; for non-integral
weights the test answers "Unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DimensionTooLarge, NonCommuting, UnsupportedAlgebra
from .induction import SubalgebraEmbedding
from .liealg import MatrixLieAlgebra, ad_matrix, null_rows

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
    verdict: str  # "Contained" | "Violated" | "Unknown"
    witness: dict | None
    rays_checked: int
    weight_tables: dict


def split_abelian(E: SubalgebraEmbedding) -> np.ndarray:
    """Basis rows of a maximal split abelian subspace of the sub algebra,
    verified to act real-diagonalizably."""
    h = E.sub
    rows = np.asarray(h.split_coords, dtype=float)
    if rows.size == 0 or rows.shape[0] == 0:
        return np.zeros((0, h.dim))
    rng = np.random.default_rng(7)
    combo = rng.standard_normal(rows.shape[0]) @ rows
    a = ad_matrix(h, combo)
    vals, vecs = np.linalg.eig(a)
    scale = max(1.0, np.max(np.abs(vals)))
    if np.max(np.abs(vals.imag)) > COMMUTE_TOL * scale:
        raise UnsupportedAlgebra(f"split part of {h.name} has complex spectrum")
    recon = (vecs * vals) @ np.linalg.inv(vecs)
    if np.max(np.abs(recon - a)) > COMMUTE_TOL * scale:
        raise UnsupportedAlgebra(f"split part of {h.name} is not diagonalizable")
    return rows


def weights_of_action(mats, module_dim: int | None = None) -> WeightSystem:
    """Simultaneous eigen-decomposition of commuting real matrices.

    Returns the joint weights with multiplicities; eigenvalues within
    1e-6 of an integer are snapped so downstream checks can run exactly.
    An empty acting space carries the single zero weight with the module's
    full multiplicity.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    k = len(mats)
    if k == 0:
        if module_dim is None:
            raise UnsupportedAlgebra("empty action needs an explicit module_dim")
        return WeightSystem(0, (((), module_dim),), True)
    n = mats[0].shape[0]
    scale = max(1.0, *(np.max(np.abs(m)) for m in mats))
    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > COMMUTE_TOL * scale * scale:
                raise NonCommuting(f"action matrices {i} and {j} do not commute")
    rng = np.random.default_rng(11)
    lam_rows: list[np.ndarray] = []
    mults: list[int] = []
    for _ in range(8):
        combo = rng.standard_normal(k)
        t = np.tensordot(combo, np.stack(mats), axes=1)
        vals = np.linalg.eigvals(t)
        if np.max(np.abs(vals.imag)) > 1e-7 * scale:
            continue
        # eigenvalues are reliable even when LAPACK's eigenvectors for a
        # degenerate spectrum are not; recover each eigenspace as an SVD
        # null space and read the generators' scalars off the restriction
        centers: list[float] = []
        for v in np.sort(vals.real):
            if not centers or abs(v - centers[-1]) > 1e-6 * scale:
                centers.append(float(v))
        lam_rows, mults = [], []
        ok = True
        for c in centers:
            V = null_rows(t - c * np.eye(n), rtol=1e-7, floor=scale).T
            mult = V.shape[1]
            if mult == 0:
                ok = False
                break
            row = np.empty(k)
            for i in range(k):
                B = mats[i] @ V
                row[i] = float(np.trace(V.T @ B) / mult)
                # a generic combo separates weights, so each generator
                # must act as a scalar on the whole eigenspace
                if np.linalg.norm(B - row[i] * V) > 1e-6 * scale * np.sqrt(mult):
                    ok = False
                    break
            if not ok:
                break
            lam_rows.append(row)
            mults.append(mult)
        if ok and sum(mults) == n:
            break
    else:
        raise NonCommuting("no generic combination separated the weights")
    lam = np.repeat(np.array(lam_rows), mults, axis=0)
    snapped = np.round(lam)
    integral = bool(np.max(np.abs(lam - snapped)) <= INT_SNAP_TOL)
    if integral:
        lam = snapped
    groups: dict[tuple, int] = {}
    for col in range(n):
        if integral:
            key = tuple(int(x) for x in lam[col])
        else:
            key = tuple(round(float(x), 9) for x in lam[col])
        groups[key] = groups.get(key, 0) + 1
    weights = tuple(sorted(groups.items()))
    total = sum(m for _, m in weights)
    if total != n:
        raise NonCommuting("weight multiplicities do not sum to the module dim")
    for w, m in weights:
        if any(abs(x) > 0 for x in w):
            neg = tuple(-x for x in w)
            if groups.get(neg) != m:
                raise NonCommuting(f"weight {w} lacks its negative partner")
    return WeightSystem(ambient_dim=k, weights=weights, integral=integral)


def rho(W: WeightSystem, y) -> float:
    """Sum of positive weight values, with multiplicity: the trace of the
    action over its positive part at y."""
    y = np.asarray(y, dtype=float)
    out = 0.0
    for w, m in W.weights:
        v = float(np.dot(w, y))
        if v > 0:
            out += m * v
    return out


def rho_batch(W: WeightSystem, ys: np.ndarray) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if not W.weights:
        return np.zeros(len(ys))
    wmat = np.array([w for w, _ in W.weights], dtype=float)
    mult = np.array([m for _, m in W.weights], dtype=float)
    vals = ys @ wmat.T
    return np.maximum(vals, 0.0) @ mult


# ---------------------------------------------------------------------------
# exact rational linear algebra on weight rows


def _rref(rows):
    """Reduced row echelon form over the rationals; returns (rref rows,
    pivot column list)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _rational_nullspace(rows, ncols):
    """Basis of {y : row . y = 0 for all rows}, exact."""
    rref, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(rref, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def _primitive(v) -> np.ndarray:
    """The primitive integer vector on the ray of a rational vector, as a
    Python-int object array (positive scaling keeps every sign)."""
    scale = math.lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    return np.array([x // g for x in ints], dtype=object)


def bk_weak_containment(E: SubalgebraEmbedding) -> BKCertificate:
    """Exact global test of 2 rho_h <= rho_g over the split abelian part;
    "Unknown" when the weights are not integral."""
    a_rows = split_abelian(E)
    k = a_rows.shape[0]
    tables: dict = {"split_dim": k}
    if k == 0:
        return BKCertificate("Contained", None, 0, tables)
    if k > MAX_SPLIT_DIM:
        raise DimensionTooLarge(f"split part has dim {k} > {MAX_SPLIT_DIM}")
    mats_h = [ad_matrix(E.sub, y) for y in a_rows]
    mats_g = [ad_matrix(E.ambient, y @ E.inclusion) for y in a_rows]
    W_h = weights_of_action(mats_h)
    W_g = weights_of_action(mats_g)
    tables["sub_weights"] = [[list(w), m] for w, m in W_h.weights]
    tables["ambient_weights"] = [[list(w), m] for w, m in W_g.weights]
    if not (W_h.integral and W_g.integral):
        return BKCertificate("Unknown", None, 0, tables)
    return _bk_rays(W_h, W_g, k, tables)


def _bk_rays(W_h: WeightSystem, W_g: WeightSystem, k: int, tables: dict) -> BKCertificate:
    """Compare 2 rho_h with rho_g on every candidate extreme ray.

    The candidates are the +- null directions of every (d-1)-subset of
    weight hyperplanes of full rank, d the rank of all weights (the
    dimension modulo their common lineality); a linear function on a
    polyhedral cone attains its sign extremes at such rays.  Each ray is
    scaled to its primitive integer vector and all rays are evaluated at
    once in exact integer arithmetic.  The witness is the first ray with
    the largest gap.
    """
    nonzero = {w for w, _ in W_h.weights + W_g.weights if any(w)}
    if not nonzero:
        return BKCertificate("Contained", None, 0, tables)
    # hyperplanes up to sign
    planes = sorted({max(w, tuple(-x for x in w)) for w in nonzero})
    P = np.array(planes, dtype=object)
    d = len(_rref(planes)[1])
    rays = []
    for subset in combinations(planes, d - 1):
        space = _rational_nullspace(subset, k)
        if len(space) != k - d + 1:  # subset not of full rank
            continue
        # the common lineality plus one ray
        for v in space:
            y = _primitive(v)
            if np.any(P @ y):
                rays += [y, -y]
                break
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
