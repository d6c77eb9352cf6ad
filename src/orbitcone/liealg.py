"""Real matrix Lie algebras given by explicit bases.

An algebra is described by a basis of n x n matrices (complex entries are
allowed, the algebra itself is a real vector space).  All downstream geometry
works in basis coordinates: elements are real coordinate vectors, and points
of the dual are stored in the chart obtained by transporting along the trace
form ``X -> Tr(X .)`` and dividing by i.  In that chart the coadjoint action
of X is simply ``ad_X``, which coincides with ``-(ad_X)^T`` acting on
dual-basis coordinates because ad is skew for the trace form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    DimensionTooLarge,
    UnsupportedAlgebra,
)

GRAM_DET_TOL = 1e-9
EIG_TOL = 1e-9
NILPOTENT_TOL = 1e-8
MAX_SO_SIZE = 10


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """A real Lie algebra of matrices with precomputed structure data.

    Attributes
    ----------
    name : canonical specification string ("sl2R", "so(3,2)", ...).
    basis : tuple of n x n matrices spanning the algebra over the reals.
    basis_names : coordinate labels, one per basis element.
    structure : array c with [e_i, e_j] = sum_k c[i,j,k] e_k.
    gram : trace-form matrix Tr(e_i e_j) (real part for complex matrices).
    split_coords : rows span a maximal split abelian subspace, used by the
        temperedness tests; empty for compact algebras.
    flat_basis : columns are the basis matrices flattened by ``_flatten``.
    flat_pinv : pseudo-inverse of ``flat_basis``.
    chart : "sl2" when the basis is ordered (split, split, compact) with
        Casimir x^2 + y^2 - z^2, enabling the quadric catalog.
    """

    name: str
    basis: tuple
    basis_names: tuple
    structure: np.ndarray
    gram: np.ndarray
    split_coords: np.ndarray
    flat_basis: np.ndarray
    flat_pinv: np.ndarray
    chart: str | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix_size(self) -> int:
        return self.basis[0].shape[0] if self.basis else 0

    def __repr__(self):  # pragma: no cover
        return f"MatrixLieAlgebra({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class AlgebraElement:
    algebra: str
    coords: np.ndarray


@dataclass(frozen=True)
class Covector:
    """Point of the (i-rescaled) dual, stored in transport-chart coordinates."""

    algebra: str
    coords: np.ndarray


@dataclass(frozen=True)
class ElementClass:
    tag: str  # Zero | Elliptic | Hyperbolic | Nilpotent | Mixed
    eigen_summary: tuple


def _coords(x) -> np.ndarray:
    if isinstance(x, (AlgebraElement, Covector)):
        return np.asarray(x.coords, dtype=float)
    return np.asarray(x, dtype=float)


def check_coords(L: MatrixLieAlgebra, x) -> np.ndarray:
    c = _coords(x)
    if c.shape != (L.dim,):
        raise DimensionMismatch(
            f"expected {L.dim} coordinates for {L.name}, got shape {c.shape}"
        )
    return c


# ---------------------------------------------------------------------------
# construction


def _basis_matrix_names(kind, *args):
    """Return (matrices, names, split rows, chart) for one primitive algebra."""
    if kind == "sl2R":
        ex = np.array([[1.0, 0.0], [0.0, -1.0]])
        ey = np.array([[0.0, 1.0], [1.0, 0.0]])
        ez = np.array([[0.0, -1.0], [1.0, 0.0]])
        return [ex, ey, ez], ["x", "y", "z"], [[1.0, 0.0, 0.0]], "sl2"
    if kind == "so":
        p, q = args
        n = p + q
        if n > MAX_SO_SIZE:
            raise DimensionTooLarge(f"so({p},{q}) needs {n} > {MAX_SO_SIZE} rows")
        eps = [1.0] * p + [-1.0] * q
        boosts, rot_p, rot_q, names_b, names_p, names_q = [], [], [], [], [], []
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n))
                if eps[i] == eps[j]:
                    m[i, j], m[j, i] = 1.0, -1.0
                    (rot_p if eps[i] > 0 else rot_q).append(m)
                    (names_p if eps[i] > 0 else names_q).append(f"r{i + 1}{j + 1}")
                else:
                    m[i, j], m[j, i] = 1.0, 1.0
                    boosts.append(m)
                    names_b.append(f"b{i + 1}{j + 1}")
        mats = boosts + rot_p + rot_q
        names = names_b + names_p + names_q
        dim = len(mats)
        # split part: commuting boosts pairing the k-th positive index with
        # the k-th negative index, k <= min(p,q)
        split = []
        for k in range(min(p, q)):
            row = [0.0] * dim
            row[names.index(f"b{k + 1}{p + k + 1}")] = 1.0
            split.append(row)
        chart = "sl2" if (p, q) == (2, 1) else None
        return mats, names, split, chart
    if kind == "su21":
        J = np.diag([1.0, 1.0, -1.0]).astype(complex)

        def E(i, j):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0
            return m

        b13 = E(0, 2) + E(2, 0)
        b23 = E(1, 2) + E(2, 1)
        r12 = E(0, 1) - E(1, 0)
        a13 = 1j * (E(0, 2) - E(2, 0))
        a23 = 1j * (E(1, 2) - E(2, 1))
        s12 = 1j * (E(0, 1) + E(1, 0))
        d1 = np.diag([1j, -1j, 0.0])
        d2 = np.diag([0.0, 1j, -1j])
        mats = [b13, b23, r12, a13, a23, s12, d1, d2]
        for m in mats:  # defining relations, checked at build time
            assert np.max(np.abs(m.conj().T @ J + J @ m)) < 1e-14
            assert abs(np.trace(m)) < 1e-14
        names = ["b13", "b23", "r12", "a13", "a23", "s12", "d1", "d2"]
        split = [[1.0] + [0.0] * 7]
        return mats, names, split, None
    if kind == "abelian":
        (n,) = args
        mats = [np.diag([1.0 if k == i else 0.0 for k in range(n)]) for i in range(n)]
        names = [f"a{i + 1}" for i in range(n)]
        split = np.eye(n).tolist()
        return mats, names, split, None
    if kind == "split1":
        # one-dimensional split line inside 2x2 matrices (diagonal Cartan)
        return [np.array([[1.0, 0.0], [0.0, -1.0]])], ["h"], [[1.0]], None
    raise UnsupportedAlgebra(f"unknown algebra kind {kind!r}")


def _split_args(s: str):
    """Split a comma-separated argument list at parenthesis and bracket
    depth zero."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return parts


def _parse_primitive(spec: str):
    s = spec.strip()
    if s in ("sl2R", "sl2r", "sl(2,R)", "sl(2,r)"):
        return ("sl2R",)
    if s in ("su(2,1)", "su21"):
        return ("su21",)
    if s in ("a", "split"):
        return ("split1",)
    m = re.fullmatch(r"so\((\d+),(\d+)\)", s)
    if m:
        return ("so", int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"abelian\((\d+)\)", s)
    if m:
        return ("abelian", int(m.group(1)))
    raise UnsupportedAlgebra(f"cannot parse algebra spec {spec!r}")


def _block_diag(mats, sizes, offset):
    """Embed each matrix at a diagonal offset inside sum(sizes) rows."""
    n = sum(sizes)
    out = []
    for m in mats:
        big = np.zeros((n, n), dtype=complex if np.iscomplexobj(m) else float)
        k = m.shape[0]
        big[offset : offset + k, offset : offset + k] = m
        out.append(big)
    return out


def _flatten(m) -> np.ndarray:
    """A matrix as one real vector: real parts, then imaginary parts."""
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def structure_constants(basis, flat_pinv) -> np.ndarray:
    """Solve [e_i, e_j] = sum_k c[i,j,k] e_k by least squares on flattened
    matrices (exact up to roundoff for a genuine basis), given the
    pseudo-inverse of the flattened basis."""
    dim = len(basis)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coef = flat_pinv @ _flatten(comm)
            c[i, j] = coef
            c[j, i] = -coef
    return c


def trace_gram(basis) -> np.ndarray:
    dim = len(basis)
    g = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            g[i, j] = g[j, i] = np.trace(basis[i] @ basis[j]).real
    return g


def _assemble(name, mats, names, split, chart) -> MatrixLieAlgebra:
    mats = tuple(np.asarray(m) for m in mats)
    flat = np.stack([_flatten(m) for m in mats], axis=1) if mats else np.zeros((0, 0))
    pinv = np.linalg.pinv(flat)
    c = structure_constants(mats, pinv)
    g = trace_gram(mats)
    if len(mats) and abs(np.linalg.det(g)) <= GRAM_DET_TOL:
        raise DegenerateForm(f"trace form of {name} is singular")
    split_arr = np.asarray(split, dtype=float).reshape(len(split), len(mats))
    return MatrixLieAlgebra(
        name=name,
        basis=mats,
        basis_names=tuple(names),
        structure=c,
        gram=g,
        split_coords=split_arr,
        flat_basis=flat,
        flat_pinv=pinv,
        chart=chart,
    )


@lru_cache(maxsize=None)
def build_algebra(spec: str) -> MatrixLieAlgebra:
    """Build a supported algebra from its specification string.

    Supported: ``sl2R``, ``su(2,1)``, ``so(p,q)`` with p+q <= 10,
    ``abelian(n)``, ``a`` (split line in 2x2 matrices), and
    ``prod(spec, spec, ...)`` realized block-diagonally.
    """
    s = spec.strip()
    if s.startswith("prod(") and s.endswith(")"):
        parts = _split_args(s[5:-1])
        if not parts:
            raise UnsupportedAlgebra("empty product")
        factors = [build_algebra(p) for p in parts]
        sizes = [f.matrix_size for f in factors]
        mats, names, split = [], [], []
        dim_total = sum(f.dim for f in factors)
        off_rows, off_dim = 0, 0
        for k, f in enumerate(factors):
            mats.extend(_block_diag(list(f.basis), sizes, off_rows))
            names.extend(f"f{k + 1}.{nm}" for nm in f.basis_names)
            for row in f.split_coords:
                full = np.zeros(dim_total)
                full[off_dim : off_dim + f.dim] = row
                split.append(full)
            off_rows += sizes[k]
            off_dim += f.dim
        canonical = "prod(" + ",".join(f.name for f in factors) + ")"
        return _assemble(canonical, mats, names, split, None)
    kind = _parse_primitive(s)
    mats, names, split, chart = _basis_matrix_names(*kind)
    canonical = {
        "sl2R": "sl2R",
        "su21": "su(2,1)",
        "split1": "a",
    }.get(kind[0], None)
    if canonical is None:
        canonical = (
            f"so({kind[1]},{kind[2]})" if kind[0] == "so" else f"abelian({kind[1]})"
        )
    return _assemble(canonical, mats, names, split, chart)


# ---------------------------------------------------------------------------
# bracket, duality, adjoint and coadjoint actions


def bracket(L: MatrixLieAlgebra, x, y) -> np.ndarray:
    """Lie bracket in coordinates via structure constants."""
    cx, cy = check_coords(L, x), check_coords(L, y)
    return np.einsum("ijk,i,j->k", L.structure, cx, cy)


def element_matrix(L: MatrixLieAlgebra, x) -> np.ndarray:
    """The matrix sum_i x_i e_i."""
    cx = check_coords(L, x)
    if L.dim == 0:
        return np.zeros((L.matrix_size, L.matrix_size))
    return np.tensordot(cx, np.stack(L.basis), axes=1)


def matrix_coords(L: MatrixLieAlgebra, m, tol: float = 1e-9) -> np.ndarray:
    """Coordinates of a matrix in the algebra basis.

    Least-squares expansion over flattened real and imaginary parts;
    raises if the matrix is not in the span.
    """
    m = np.asarray(m)
    if m.shape != (L.matrix_size, L.matrix_size):
        raise DimensionMismatch(
            f"expected a {L.matrix_size}x{L.matrix_size} matrix for {L.name}"
        )
    v = _flatten(np.asarray(m, dtype=complex))
    coef, *_ = np.linalg.lstsq(L.flat_basis, v, rcond=None)
    resid = np.linalg.norm(L.flat_basis @ coef - v)
    if resid > tol * max(1.0, np.linalg.norm(v)):
        raise DimensionMismatch(f"matrix is not in the span of {L.name}")
    return coef


def identify_dual(L: MatrixLieAlgebra, x) -> Covector:
    """Transport an algebra element to the dual via the trace form.

    The resulting functional is ``Y -> Tr(X Y)``; its values on the basis
    are ``gram @ coords`` (see :func:`dual_basis_coords`).  Chart coordinates
    of the covector coincide with the element's coordinates.
    """
    if abs(np.linalg.det(L.gram)) <= GRAM_DET_TOL:
        raise DegenerateForm(f"trace form of {L.name} is singular")
    return Covector(L.name, check_coords(L, x).copy())


def identify_dual_inverse(L: MatrixLieAlgebra, xi) -> AlgebraElement:
    if abs(np.linalg.det(L.gram)) <= GRAM_DET_TOL:
        raise DegenerateForm(f"trace form of {L.name} is singular")
    return AlgebraElement(L.name, check_coords(L, xi).copy())


def dual_basis_coords(L: MatrixLieAlgebra, xi) -> np.ndarray:
    """Coordinates of a covector in the algebraic dual basis, i.e. its
    pairing values against the basis elements."""
    return L.gram @ check_coords(L, xi)


def pairing(L: MatrixLieAlgebra, xi, y) -> float:
    """Evaluate a covector on an algebra element: Tr(X_xi Y)."""
    return float(check_coords(L, xi) @ L.gram @ check_coords(L, y))


def ad_matrix(L: MatrixLieAlgebra, x) -> np.ndarray:
    """Matrix of ad_X acting on coordinates."""
    cx = check_coords(L, x)
    return np.einsum("ijk,i->kj", L.structure, cx)


def coadjoint_ad(L: MatrixLieAlgebra, x, xi) -> np.ndarray:
    """Coadjoint action ad*_X xi with <ad*_X xi, Y> = -<xi, [X, Y]>.

    In chart coordinates this is ad_X applied to the coords; on dual-basis
    coordinates it is -(ad_X)^T, the two agree through the gram matrix.
    """
    return ad_matrix(L, x) @ check_coords(L, xi)


def group_orbit_step(L: MatrixLieAlgebra, steps, xi) -> np.ndarray:
    """Apply Ad*(exp(s_1 X_1) ... exp(s_k X_k)) to a covector.

    ``steps`` is a sequence of (X, s) pairs, applied left to right via dense
    matrix exponentials of the chart action.
    """
    c = check_coords(L, xi).copy()
    for x, s in steps:
        c = expm(float(s) * ad_matrix(L, x)) @ c
    return c


def random_group_words(
    L: MatrixLieAlgebra, count: int, rng: np.random.Generator, word_len: int = 8, scale: float = 1.0
) -> np.ndarray:
    """Stack of ``count`` random Ad* transport matrices.

    Each word multiplies ``word_len`` exponentials of random unit generators
    with step sizes uniform in (-scale, scale).
    """
    d = L.dim
    out = np.empty((count, d, d))
    for k in range(count):
        m = np.eye(d)
        for _ in range(word_len):
            x = rng.standard_normal(d)
            nx = np.linalg.norm(x)
            if nx < 1e-12:
                continue
            s = rng.uniform(-scale, scale)
            m = expm((s / nx) * ad_matrix(L, x)) @ m
        out[k] = m
    return out


def null_rows(a: np.ndarray, rtol: float = 1e-9, floor: float = 1.0) -> np.ndarray:
    """Orthonormal rows spanning the null space of a (the identity when a is
    empty).  The rank counts singular values above rtol * max(largest, floor),
    so with floor > 0 a numerically-zero matrix has rank zero, not full rank."""
    if a.size == 0:
        return np.eye(a.shape[1] if a.ndim == 2 else 0)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > rtol * max(s[0], floor)))
    return vt[rank:]


# ---------------------------------------------------------------------------
# classification


def _unit_rows(pts: np.ndarray):
    """Unit rows and their norms, taken after dividing by the largest entry."""
    big = np.max(np.abs(pts), axis=1, initial=0.0)
    u = pts / np.where(big > 0, big, 1.0)[:, None]
    n = np.linalg.norm(u, axis=1)
    return u / np.where(n > 0, n, 1.0)[:, None], big * n


def _ad_tags(L: MatrixLieAlgebra, u: np.ndarray) -> list:
    """Tags of :func:`classify_element` for the unit rows u, all at once."""
    d = L.dim
    A = np.einsum("ijk,ni->nkj", L.structure, u)
    nil = np.linalg.norm(np.linalg.matrix_power(A, d), axis=(1, 2)) < NILPOTENT_TOL
    eigs = np.sort(np.linalg.eigvals(A).astype(complex), axis=1)
    tol = EIG_TOL * np.maximum(1.0, np.max(np.abs(eigs), axis=1, initial=0.0))[:, None]
    # semisimple: the product of (A - lam), over the eigenvalues lam with no
    # smaller one within 10 tol, vanishes relative to its factors' sizes
    close = np.abs(eigs[:, :, None] - eigs[:, None, :]) <= 10 * tol[:, :, None]
    lead = ~np.any(np.tril(close, -1), axis=2)
    P, size = np.eye(d, dtype=complex), np.ones(len(A))
    for k in range(d):
        F = np.where(lead[:, k, None, None], A - eigs[:, k, None, None] * np.eye(d), np.eye(d))
        P = P @ F
        size *= np.where(lead[:, k], np.maximum(1.0, np.linalg.norm(F, axis=(1, 2))), 1.0)
    semisimple = np.linalg.norm(P, axis=(1, 2)) <= 1e-7 * size
    nonzero = np.abs(eigs) > tol
    real = np.all(~nonzero | (np.abs(eigs.imag) <= tol), axis=1)
    imag = np.all(~nonzero | (np.abs(eigs.real) <= tol), axis=1)
    return np.select([nil, ~semisimple, ~np.any(nonzero, axis=1), real, imag],
                     ["Nilpotent", "Mixed", "Nilpotent", "Hyperbolic", "Elliptic"],
                     "Mixed").tolist()


def classify_element(L: MatrixLieAlgebra, xi) -> ElementClass:
    """Classify a dual point by the ad-eigenstructure of its transport.

    Returns Zero, Elliptic (semisimple, purely imaginary nonzero spectrum),
    Hyperbolic (semisimple real spectrum, not all zero), Nilpotent
    (ad nilpotent, certified by the norm of ad^dim on the normalized
    element), or Mixed.  The class is invariant under positive scaling and
    under the coadjoint action.
    """
    c = check_coords(L, xi)
    u, norm = _unit_rows(c[None])
    if norm[0] <= 1e-12:
        return ElementClass("Zero", ())
    eigs = np.sort(np.linalg.eigvals(ad_matrix(L, c)).astype(complex))
    return ElementClass(_ad_tags(L, u)[0], tuple((float(v.real), float(v.imag)) for v in eigs))


def classify_batch(L: MatrixLieAlgebra, points: np.ndarray) -> np.ndarray:
    """Vectorized class tags for many points.

    For sl2-chart algebras the class is decided by the sign of the Casimir
    x^2+y^2-z^2 on the normalized point, calling values within 0.02 of
    zero Nilpotent; this matches :func:`classify_element` away from the
    band and gives sampling statistics a stable meaning near the cone.
    Other algebras get the tags of :func:`classify_element` (stacked ad).
    """
    u, norms = _unit_rows(np.atleast_2d(np.asarray(points, dtype=float)))
    out = np.full(len(u), "Zero", dtype=object)
    nz = norms > 1e-12
    if L.chart != "sl2":  # in chunks, which bounds the stacked temporaries
        live = u[nz]
        out[nz] = [t for k in range(0, len(live), 1024) for t in _ad_tags(L, live[k:k + 1024])]
    else:
        cas = u[nz, 0] ** 2 + u[nz, 1] ** 2 - u[nz, 2] ** 2
        out[nz] = np.select([np.abs(cas) <= 0.02, cas > 0],
                            ["Nilpotent", "Hyperbolic"], "Elliptic").tolist()
    return out


# ---------------------------------------------------------------------------
# exponential jacobian


def _f_entire(lam: complex) -> complex:
    """(1 - exp(-lam)) / lam, removable singularity at 0."""
    if abs(lam) < 1e-6:
        return 1.0 - lam / 2.0 + lam**2 / 6.0 - lam**3 / 24.0
    return -np.expm1(-lam) / lam


def _g_entire(lam: complex) -> complex:
    """(exp(lam/2) - exp(-lam/2)) / lam, removable singularity at 0, even."""
    if abs(lam) < 1e-6:
        return 1.0 + lam**2 / 24.0 + lam**4 / 1920.0
    return (np.exp(lam / 2.0) - np.exp(-lam / 2.0)) / lam


def exp_jacobian(L: MatrixLieAlgebra, x) -> tuple[float, float]:
    """Jacobian of exp at X and its analytic square root.

    Returns ``(j, j_sqrt)`` where ``j = |det((1 - e^{-ad X})/ad X)|`` as a
    product of ``(1-e^{-lam})/lam`` over the ad spectrum, and ``j_sqrt`` is
    the analytic branch with value 1 at 0, computed by the symmetrized
    product ``(e^{lam/2}-e^{-lam/2})/lam`` over one eigenvalue per
    ``{lam, -lam}`` pair (the ad spectrum is negation-symmetric because ad
    is skew for the trace form).
    """
    cx = check_coords(L, x)
    if L.dim == 0:
        return 1.0, 1.0
    A = ad_matrix(L, cx)
    eigs = np.linalg.eigvals(A)
    scale = max(1.0, np.max(np.abs(eigs)))
    j = np.prod([_f_entire(lam) for lam in eigs])
    half = [
        lam
        for lam in eigs
        if lam.real > EIG_TOL * scale
        or (abs(lam.real) <= EIG_TOL * scale and lam.imag > EIG_TOL * scale)
    ]
    j_sqrt = np.prod([_g_entire(lam) for lam in half]) if half else 1.0 + 0.0j
    return float(abs(j)), float(np.real(j_sqrt))
