"""Real matrix Lie algebras given by explicit bases.

An algebra is described by a basis of n x n matrices (complex entries are
allowed, the algebra itself is a real vector space).  All downstream geometry
works in basis coordinates: elements are real coordinate vectors, and points
of the dual are stored in the chart obtained by transporting along the trace
form ``X -> Tr(X .)`` and dividing by i.  In that chart the coadjoint action
of X is simply ``ad_X``, which coincides with ``-(ad_X)^T`` acting on
dual-basis coordinates because ad is skew for the trace form.

Coordinates and matrices cross over in one place each way:
:func:`element_matrix` takes coordinates to matrices and
:func:`matrix_coords` takes matrices to coordinates (through the stored
pseudo-inverse of the flattened basis, with a span check).  Both, and
:func:`ad_matrix` and :func:`bracket`, act on stacks: leading axes of the
input are kept in the output, so callers transport a whole basis or a
batch of points in one call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    DimensionTooLarge,
    OrbitConeError,
    UnsupportedAlgebra,
)

GRAM_DET_TOL = 1e-9
EIG_TOL = 1e-9
NILPOTENT_TOL = 1e-8
SPECTRAL_TOL = 1e-6
MAX_SO_SIZE = 10
_WORD_LEN = 8
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))
_BY_NAME: dict = {}  # the one algebra of each canonical name


@dataclass(frozen=True, eq=False)
class MatrixLieAlgebra:
    """A real Lie algebra of matrices with precomputed structure data.

    Attributes
    ----------
    name : canonical specification string ("sl2R", "so(3,2)", ...).
    basis : (dim, n, n) stack of matrices spanning the algebra over the reals.
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
    basis: np.ndarray
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
        return self.basis.shape[1]

    def __repr__(self):  # pragma: no cover
        return f"MatrixLieAlgebra({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class ElementClass:
    tag: str  # Zero | Elliptic | Hyperbolic | Nilpotent | Mixed
    eigen_summary: tuple


def check_coords(L: MatrixLieAlgebra, x) -> np.ndarray:
    c = np.asarray(x, dtype=float)
    if c.shape != (L.dim,):
        raise DimensionMismatch(
            f"expected {L.dim} coordinates for {L.name}, got shape {c.shape}"
        )
    return c


def _coord_stack(L: MatrixLieAlgebra, x) -> np.ndarray:
    """Coordinates over the last axis, any leading axes."""
    c = np.asarray(x, dtype=float)
    if c.shape[-1:] != (L.dim,):
        raise DimensionMismatch(
            f"expected {L.dim} coordinates for {L.name}, got shape {c.shape}"
        )
    return c


# ---------------------------------------------------------------------------
# construction


def split_args(s: str):
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


def _primitive(s: str):
    """(canonical name, basis matrices, basis names, split rows, chart) of
    one stripped primitive algebra spec."""
    if s in ("sl2R", "sl2r", "sl(2,R)", "sl(2,r)"):
        basis = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]],
                          [[0.0, -1.0], [1.0, 0.0]]])
        return "sl2R", basis, ["x", "y", "z"], np.eye(3)[:1], "sl2"
    if s in ("su(2,1)", "su21"):
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
        basis = np.array([b13, b23, r12, a13, a23, s12, d1, d2])
        for m in basis:  # defining relations, checked at build time
            assert np.max(np.abs(m.conj().T @ J + J @ m)) < 1e-14
            assert abs(np.trace(m)) < 1e-14
        names = ["b13", "b23", "r12", "a13", "a23", "s12", "d1", "d2"]
        return "su(2,1)", basis, names, np.eye(8)[:1], None
    if s in ("a", "split"):
        # one-dimensional split line inside 2x2 matrices (diagonal Cartan)
        return "a", np.array([[[1.0, 0.0], [0.0, -1.0]]]), ["h"], np.eye(1), None
    m = re.fullmatch(r"abelian\((\d+)\)", s)
    if m:
        n = int(m.group(1))
        basis, d = np.zeros((n, n, n)), np.arange(n)
        basis[d, d, d] = 1.0
        return f"abelian({n})", basis, [f"a{i + 1}" for i in d], np.eye(n), None
    m = re.fullmatch(r"so\((\d+),(\d+)\)", s)
    if not m:
        raise UnsupportedAlgebra(f"cannot parse algebra spec {s!r}")
    p, q = int(m.group(1)), int(m.group(2))
    n = p + q
    if n > MAX_SO_SIZE:
        raise DimensionTooLarge(f"so({p},{q}) needs {n} > {MAX_SO_SIZE} rows")
    # boosts (i < p <= j) first, then rotations among the p plus indices,
    # then among the q minus indices, each in lexicographic order
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda ij: (ij[1] < p) + 2 * (ij[0] >= p))
    basis, names = np.zeros((len(pairs), n, n)), []
    for k, (i, j) in enumerate(pairs):
        boost = i < p <= j
        basis[k, i, j], basis[k, j, i] = 1.0, 1.0 if boost else -1.0
        names.append(f"{'b' if boost else 'r'}{i + 1}{j + 1}")
    # split part: the commuting boosts b_{k+1, p+k+1}, k < min(p, q), which
    # sit at k (q + 1) among the boosts
    split = np.eye(len(pairs))[[k * (q + 1) for k in range(min(p, q))]]
    return f"so({p},{q})", basis, names, split, "sl2" if (p, q) == (2, 1) else None


def _flatten(m) -> np.ndarray:
    """Matrices as real vectors over the last two axes: real parts, then
    imaginary parts."""
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def structure_constants(basis, flat_pinv) -> np.ndarray:
    """Solve [e_i, e_j] = sum_k c[i,j,k] e_k on flattened matrices (exact
    up to roundoff for a genuine basis), given the stacked basis and the
    pseudo-inverse of the flattened basis: one stacked commutator product
    over the pairs i < j."""
    dim = len(basis)
    c = np.zeros((dim, dim, dim))
    i, j = np.triu_indices(dim, 1)
    coef = _flatten(basis[i] @ basis[j] - basis[j] @ basis[i]) @ flat_pinv.T
    c[i, j] = coef
    c[j, i] = -coef
    return c


@lru_cache(maxsize=None)
def build_algebra(spec: str) -> MatrixLieAlgebra:
    """Build a supported algebra from its specification string.

    Supported: ``sl2R``, ``su(2,1)``, ``so(p,q)`` with p+q <= 10,
    ``abelian(n)``, ``a`` (split line in 2x2 matrices), and
    ``prod(spec, spec, ...)`` realized block-diagonally.  Every spelling
    of one canonical name gives the same object, and its arrays are
    read-only.
    """
    s = spec.strip()
    if s.startswith("prod(") and s.endswith(")"):
        parts = split_args(s[5:-1])
        if not parts:
            raise UnsupportedAlgebra("empty product")
        factors = [build_algebra(p) for p in parts]
        dim, size = sum(f.dim for f in factors), sum(f.matrix_size for f in factors)
        basis = np.zeros((dim, size, size), np.result_type(*(f.basis for f in factors)))
        split = np.zeros((sum(len(f.split_coords) for f in factors), dim))
        names, d, r, n = [], 0, 0, 0
        for k, f in enumerate(factors):
            basis[d:d + f.dim, n:n + f.matrix_size, n:n + f.matrix_size] = f.basis
            split[r:r + len(f.split_coords), d:d + f.dim] = f.split_coords
            names += [f"f{k + 1}.{nm}" for nm in f.basis_names]
            d, r, n = d + f.dim, r + len(f.split_coords), n + f.matrix_size
        name, chart = "prod(" + ",".join(f.name for f in factors) + ")", None
    else:
        name, basis, names, split, chart = _primitive(s)
    if name in _BY_NAME:
        return _BY_NAME[name]
    if not len(basis):  # no basis element (so(1,0) too): 0 x 0 matrices
        basis = np.zeros((0, 0, 0))
    flat = _flatten(basis).T
    pinv = np.linalg.pinv(flat)
    gram = np.einsum("iab,jba->ij", basis, basis).real
    if abs(np.linalg.det(gram)) <= GRAM_DET_TOL:  # det of the 0 x 0 form is 1
        raise DegenerateForm(f"trace form of {name} is singular")
    structure = structure_constants(basis, pinv)
    for a in (basis, structure, gram, split, flat, pinv):
        a.flags.writeable = False
    _BY_NAME[name] = MatrixLieAlgebra(
        name=name,
        basis=basis,
        basis_names=tuple(names),
        structure=structure,
        gram=gram,
        split_coords=split,
        flat_basis=flat,
        flat_pinv=pinv,
        chart=chart,
    )
    return _BY_NAME[name]


# ---------------------------------------------------------------------------
# bracket, duality, adjoint and coadjoint actions


def bracket(L: MatrixLieAlgebra, x, y) -> np.ndarray:
    """Lie bracket in coordinates via structure constants; leading axes of
    x and y broadcast."""
    cx, cy = _coord_stack(L, x), _coord_stack(L, y)
    return np.einsum("ijk,...i,...j->...k", L.structure, cx, cy)


def element_matrix(L: MatrixLieAlgebra, x) -> np.ndarray:
    """The matrix sum_i x_i e_i, for each coordinate row of x."""
    return np.tensordot(_coord_stack(L, x), L.basis, axes=1)


def matrix_coords(L: MatrixLieAlgebra, m, tol: float = 1e-9) -> np.ndarray:
    """Coordinates of each matrix of a stack in the algebra basis.

    Applies the pseudo-inverse of the flattened basis to the flattened
    real and imaginary parts; raises if any matrix is not in the span.
    """
    m = np.asarray(m)
    if m.shape[-2:] != (L.matrix_size, L.matrix_size):
        raise DimensionMismatch(
            f"expected {L.matrix_size}x{L.matrix_size} matrices for {L.name}"
        )
    v = _flatten(m)
    coef = v @ L.flat_pinv.T
    resid = np.linalg.norm(coef @ L.flat_basis.T - v, axis=-1)
    if np.any(resid > tol * np.maximum(1.0, np.linalg.norm(v, axis=-1))):
        raise DimensionMismatch(f"matrix is not in the span of {L.name}")
    return coef


def pairing(L: MatrixLieAlgebra, xi, y) -> float:
    """Evaluate a covector on an algebra element: Tr(X_xi Y).  Its values
    on the basis elements (its dual-basis coordinates) are ``L.gram @ xi``."""
    return float(check_coords(L, xi) @ L.gram @ check_coords(L, y))


def ad_matrix(L: MatrixLieAlgebra, x) -> np.ndarray:
    """Matrix of ad_X acting on coordinates, for each coordinate row of x."""
    return np.einsum("ijk,...i->...kj", L.structure, _coord_stack(L, x))


def coadjoint_ad(L: MatrixLieAlgebra, x, xi) -> np.ndarray:
    """Coadjoint action ad*_X xi with <ad*_X xi, Y> = -<xi, [X, Y]>.

    In chart coordinates this is ad_X applied to the coords; on dual-basis
    coordinates it is -(ad_X)^T, the two agree through the gram matrix.
    """
    return ad_matrix(L, x) @ check_coords(L, xi)


def random_group_words(L: MatrixLieAlgebra, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` random Ad* transport matrices.

    Each word multiplies eight factors exp(t ad x), x uniform on the unit
    coordinate sphere and t uniform in (-1, 1), from two draws (every
    direction, then every step; factor p of word k is row p * count + k),
    exponentiated all at once.  Dimension 0 gives 0 x 0 identity words.
    """
    d = L.dim
    gens = _unit_rows(rng.standard_normal((_WORD_LEN * count, d)))[0]
    steps = rng.uniform(-1.0, 1.0, (_WORD_LEN * count, 1, 1))
    factors = _expm_stack(steps * ad_matrix(L, gens)).reshape(_WORD_LEN, count, d, d)
    return reduce(lambda word, f: f @ word, factors)  # later factors act last


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (m, d, d) stack at once: scale by 2**-s to
    1-norms <= 1/4, take the degree-12 Taylor polynomial (error < 4e-18) by
    Horner's rule in a**2 (six products, not eleven), then square s times."""
    top = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    s = max(0, math.frexp(top)[1] + 2)
    a = np.multiply(a, 0.5**s, order="C")
    a2 = a @ a
    diag = np.arange(a.shape[-1])
    p = a2 * _TAYLOR[12]
    for k in range(10, -1, -2):
        p += _TAYLOR[k + 1] * a
        p[:, diag, diag] += _TAYLOR[k]
        if k:
            p = a2 @ p
    for _ in range(s):
        p = p @ p
    return p


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
    """Unit rows and their norms, taken after dividing by the largest entry;
    a norm past the float range is inf."""
    big = np.max(np.abs(pts), axis=1, initial=0.0)
    u = pts / np.where(big > 0, big, 1.0)[:, None]
    n = np.linalg.norm(u, axis=1)
    with np.errstate(over="ignore"):
        return u / np.where(n > 0, n, 1.0)[:, None], big * n


def _spectra(L: MatrixLieAlgebra, pts: np.ndarray):
    """The one spectral reading of a batch of points: the defining matrices
    of the rows of pts scaled to unit Frobenius norm, their sorted
    eigenvalues, and the masks of eigenvalues that are zero, real or
    imaginary and of pairs that coincide, all within SPECTRAL_TOL."""
    X = element_matrix(L, pts)
    size = np.linalg.norm(X, axis=(1, 2))
    X = X / np.where(size > 0, size, 1.0)[:, None, None]
    lam = np.sort(np.linalg.eigvals(X).astype(complex), axis=1)
    zero = np.abs(lam) <= SPECTRAL_TOL
    real, imag = np.abs(lam.imag) <= SPECTRAL_TOL, np.abs(lam.real) <= SPECTRAL_TOL
    close = np.abs(lam[:, :, None] - lam[:, None, :]) <= SPECTRAL_TOL
    return X, lam, zero, real, imag, close


def regular_signatures(L: MatrixLieAlgebra, pts: np.ndarray) -> list:
    """Cartan signature (compact dim, split dim) of the centralizer of each
    row of pts, None where the row is not regular semisimple, read off the
    eigenvalues of the stacked defining matrices.  ``abelian(n)``: (0, n).
    ``sl2R``, ``su(2,1)``: distinct eigenvalues; (rank, 0) when all are
    imaginary, else (rank-1, 1).  ``so(p,q)``: distinct nonzero eigenvalues,
    zero of multiplicity 1 (odd p+q) or 0 or 2 (even p+q); compact dim =
    imaginary pairs + complex quadruples, split dim = real pairs + complex
    quadruples, and a double zero adds its kernel plane (compact when the
    form is definite on it)."""
    if L.name.startswith("abelian("):
        return [(0, L.dim)] * len(pts)
    so = re.fullmatch(r"so\((\d+),(\d+)\)", L.name)
    if not so and L.name not in ("sl2R", "su(2,1)"):
        raise UnsupportedAlgebra(f"no Cartan signature rule for {L.name}")
    X, lam, zero, real, imag, twin = _spectra(L, pts)
    n = lam.shape[1]
    regular = ~np.any(twin & ~np.eye(n, dtype=bool) & ~zero[:, :, None], axis=(1, 2))
    n_zero = zero.sum(axis=1)
    if not so:  # rank n - 1
        regular &= n_zero <= 1
        split = 1 - np.all(imag, axis=1)
        compact = n - 1 - split
    else:
        regular &= np.isin(n_zero, (1,) if n % 2 else (0, 2))
        quads = np.sum(~zero & ~imag & ~real, axis=1) // 4
        compact = np.sum(~zero & imag, axis=1) // 2 + quads
        split = np.sum(~zero & real, axis=1) // 2 + quads
        plane = np.flatnonzero(regular & (n_zero == 2))
        vt = np.linalg.svd(X[plane])[2]
        eta = np.repeat([1.0, -1.0], [int(so.group(1)), int(so.group(2))])
        definite = np.linalg.det(np.einsum("kin,n,kjn->kij", vt[:, -2:], eta, vt[:, -2:])) > 0
        compact[plane] += definite
        split[plane] += ~definite
    return [(int(c), int(a)) if r else None for r, c, a in zip(regular, compact, split)]


def _tags(L: MatrixLieAlgebra, u: np.ndarray):
    """Tags of :func:`classify_element` for the nonzero rows u, all at
    once, and their sorted spectra (of the unit-norm defining matrices)."""
    X, lam, zero, real, imag, close = _spectra(L, u)
    n, eye = L.matrix_size, np.eye(L.matrix_size)
    nil = np.linalg.norm(np.linalg.matrix_power(X, n), axis=(1, 2)) < NILPOTENT_TOL
    # semisimple: the product of (X - lam), over the eigenvalues lam that
    # coincide with no earlier one, vanishes relative to its factors' sizes;
    # n distinct eigenvalues make X diagonalizable, so only rows with a
    # repeated one need the product
    lead = ~np.any(np.tril(close, -1), axis=2)
    semisimple = np.all(lead, axis=1)
    rep = np.flatnonzero(~semisimple)
    Xr, lr, lead = X[rep], lam[rep], lead[rep]
    P, size = eye.astype(complex), np.ones(len(rep))
    for k in range(n):
        F = np.where(lead[:, k, None, None], Xr - lr[:, k, None, None] * eye, eye)
        P = P @ F
        size *= np.where(lead[:, k], np.maximum(1.0, np.linalg.norm(F, axis=(1, 2))), 1.0)
    semisimple[rep] = np.linalg.norm(P, axis=(1, 2)) <= 1e-7 * size
    all_real, all_imag = np.all(zero | real, axis=1), np.all(zero | imag, axis=1)
    tags = np.select([nil, ~semisimple, np.all(zero, axis=1), all_real, all_imag],
                     ["Nilpotent", "Mixed", "Nilpotent", "Hyperbolic", "Elliptic"], "Mixed")
    return tags.tolist(), lam


def classify_element(L: MatrixLieAlgebra, xi) -> ElementClass:
    """Classify a dual point by the eigenstructure of its defining matrix.

    Returns Zero, Elliptic (semisimple, purely imaginary nonzero spectrum),
    Hyperbolic (semisimple real spectrum, not all zero), Nilpotent
    (certified by the norm of X^n for the normalized n x n matrix X), or
    Mixed.  The class is invariant under positive scaling and under the
    coadjoint action; the summary lists the eigenvalues of the point's
    defining matrix, and OrbitConeError is raised when they overflow.
    """
    c = check_coords(L, xi)
    u, norm = _unit_rows(c[None])
    if norm[0] <= 1e-12:
        return ElementClass("Zero", ())
    (tag,), lam = _tags(L, u)
    # back from the unit-norm matrix to the point's own
    with np.errstate(over="ignore", invalid="ignore"):
        lam = lam[0] * (norm[0] * np.linalg.norm(element_matrix(L, u[0])))
    if not np.all(np.isfinite(lam)):
        raise OrbitConeError(f"the eigenvalues of this {L.name} point overflow")
    return ElementClass(tag, tuple((float(v.real), float(v.imag)) for v in lam))


def sl2_casimir(xi):
    """The sl2-chart Casimir x^2 + y^2 - z^2 over the last axis."""
    v = np.asarray(xi, dtype=float)
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] - v[..., 2] * v[..., 2]


def classify_batch(L: MatrixLieAlgebra, points: np.ndarray) -> np.ndarray:
    """Vectorized class tags for many points.

    For sl2-chart algebras the class is decided by the sign of the Casimir
    x^2+y^2-z^2 on the normalized point, calling values within 0.02 of
    zero Nilpotent; this matches :func:`classify_element` away from the
    band and gives sampling statistics a stable meaning near the cone.
    Other algebras get the tags of :func:`classify_element`.
    """
    u, norms = _unit_rows(np.atleast_2d(np.asarray(points, dtype=float)))
    out = np.full(len(u), "Zero", dtype=object)
    nz = norms > 1e-12
    if L.chart != "sl2":  # in chunks, which bounds the stacked temporaries
        live = u[nz]
        out[nz] = [t for k in range(0, len(live), 1024) for t in _tags(L, live[k:k + 1024])[0]]
    else:
        cas = sl2_casimir(u[nz])
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
