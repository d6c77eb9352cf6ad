"""Subalgebra pairs: pullback, induced cones, Cartan classes, saturation.

An embedding h in g carries three linear-algebra objects: the inclusion
(rows are ambient coordinates of the sub basis), the dual projection q
(pullback of the inclusion, so <q(xi), Y> = <xi, inclusion(Y)>), and the
trace-form orthocomplement of h, whose dual-side copy is the annihilator
{xi : q(xi) = 0}.

The induced cone of a cone S over h is the closure of the coadjoint
saturation of q^{-1}(S); it is sampled (lifted S directions plus
annihilator offsets, pushed around by random group words).  Fullness of
the saturation of the annihilator alone is decided by the Cartan
criterion: it suffices that the complement meets every conjugacy class of
Cartan subalgebras of g.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cones import (
    ConeDescription,
    cone_directions,
    direction_cone,
    exact_cone,
    polyhedral_cone,
)
from .errors import (
    BadPartition,
    BudgetTooSmall,
    DimensionMismatch,
    NonCommuting,
    UnsupportedAlgebra,
)
from .liealg import (
    MatrixLieAlgebra,
    _split_args,
    ad_matrix,
    bracket,
    build_algebra,
    check_coords,
    classify_batch,
    element_matrix,
    matrix_coords,
    null_rows,
    random_group_words,
)

BRACKET_TOL = 1e-12
MAX_CARTAN_SIZE = 8
SIGNATURE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class SubalgebraEmbedding:
    """A verified pair h in g.

    inclusion: (dim_h, dim_g), row i = ambient coordinates of the i-th sub
    basis element.  q: (dim_h, dim_g) dual projection.  complement_q: rows
    span the trace-form orthocomplement of h in g (equivalently, in chart
    coordinates, the annihilator of h on the dual side).
    """

    ambient: MatrixLieAlgebra
    sub: MatrixLieAlgebra
    inclusion: np.ndarray
    q: np.ndarray
    complement_q: np.ndarray
    lift: np.ndarray
    name: str


def make_embedding(
    ambient: MatrixLieAlgebra, sub: MatrixLieAlgebra, inclusion, name: str = ""
) -> SubalgebraEmbedding:
    inc = np.asarray(inclusion, dtype=float)
    if inc.shape != (sub.dim, ambient.dim):
        raise DimensionMismatch("inclusion must be (dim_sub, dim_ambient)")
    # bracket respect on basis pairs
    for i in range(sub.dim):
        for j in range(i + 1, sub.dim):
            lhs = sub.structure[i, j] @ inc
            rhs = bracket(ambient, inc[i], inc[j])
            if np.max(np.abs(lhs - rhs)) > BRACKET_TOL * max(
                1.0, np.max(np.abs(rhs))
            ):
                raise DimensionMismatch(
                    f"inclusion does not respect brackets at pair ({i},{j})"
                )
    q = np.linalg.solve(sub.gram, inc @ ambient.gram)
    comp = null_rows(inc @ ambient.gram)
    if comp.shape[0] != ambient.dim - sub.dim:
        raise DimensionMismatch("complement dimension mismatch (degenerate pair)")
    stacked = np.vstack([inc, comp]) if comp.size else inc
    if abs(np.linalg.det(stacked)) <= 1e-9:
        raise DimensionMismatch("sub and complement do not span the ambient")
    # pullback identity <q(xi), Y>_h = <xi, inc Y>_g on basis pairs:
    # as bilinear forms in chart coordinates, Q^T G_h must equal G_g I^T
    lhs = q.T @ sub.gram
    rhs = ambient.gram @ inc.T
    if np.max(np.abs(lhs - rhs)) > BRACKET_TOL * max(1.0, np.max(np.abs(rhs))):
        raise DimensionMismatch("pullback identity fails")
    # section of q: columns solve q @ lift = id, supported away from the
    # annihilator (the transpose of inc is only a section when the sub
    # inherits the ambient trace form, which e.g. diagonal pairs do not)
    lift = np.linalg.pinv(q)
    if np.max(np.abs(q @ lift - np.eye(sub.dim))) > 1e-9:
        raise DimensionMismatch("pullback has no section (degenerate pair)")
    return SubalgebraEmbedding(
        ambient=ambient, sub=sub, inclusion=inc, q=q, complement_q=comp,
        lift=lift, name=name or f"pair({ambient.name}, {sub.name})",
    )


# ---------------------------------------------------------------------------
# embedding constructors


def _blocks_partition(spec: str):
    body = spec.strip()
    m = re.fullmatch(r"blocks\[(.*)\]", body)
    if not m:
        raise UnsupportedAlgebra(f"not a blocks spec: {spec!r}")
    pairs = re.findall(r"\((\d+)\s*,\s*(\d+)\)", m.group(1))
    if not pairs:
        raise BadPartition("blocks spec lists no (p_i,q_i) pairs")
    return [(int(a), int(b)) for a, b in pairs]


def _so_blocks_embedding(p: int, q: int, parts) -> SubalgebraEmbedding:
    if sum(a for a, _ in parts) > p or sum(b for _, b in parts) > q:
        raise BadPartition(
            f"blocks {parts} do not fit inside so({p},{q})"
        )
    ambient = build_algebra(f"so({p},{q})")
    factors = [(a, b) for a, b in parts if a + b >= 2]
    if not factors:
        raise BadPartition("every block is trivial")
    sub_specs = [f"so({a},{b})" for a, b in factors]
    sub = build_algebra(
        sub_specs[0] if len(sub_specs) == 1 else "prod(" + ",".join(sub_specs) + ")"
    )
    # global index maps: block k owns a slice of plus and of minus indices
    rows, off_p, off_q = [], 0, 0
    n = p + q
    for a, b in parts:
        if a + b >= 2:
            fac = build_algebra(f"so({a},{b})")
            local_to_global = [off_p + t for t in range(a)] + [
                p + off_q + t for t in range(b)
            ]
            for mloc in fac.basis:
                big = np.zeros((n, n))
                big[np.ix_(local_to_global, local_to_global)] = mloc.real
                rows.append(matrix_coords(ambient, big))
        off_p += a
        off_q += b
    name = f"pair(so({p},{q}), blocks[{','.join(f'({a},{b})' for a, b in parts)}])"
    return make_embedding(ambient, sub, np.array(rows), name)


def _matrix_span_embedding(ambient_spec: str, sub_spec: str) -> SubalgebraEmbedding:
    ambient, sub = build_algebra(ambient_spec), build_algebra(sub_spec)
    if ambient.matrix_size != sub.matrix_size:
        raise UnsupportedAlgebra(
            f"no catalog embedding of {sub.name} into {ambient.name}"
        )
    rows = [matrix_coords(ambient, m) for m in sub.basis]
    return make_embedding(ambient, sub, np.array(rows))


def diagonal_embedding(factor_spec: str = "sl2R") -> SubalgebraEmbedding:
    """X -> (X, X) into the two-factor product."""
    sub = build_algebra(factor_spec)
    ambient = build_algebra(f"prod({factor_spec},{factor_spec})")
    inc = np.hstack([np.eye(sub.dim), np.eye(sub.dim)])
    return make_embedding(ambient, sub, inc, name=f"diag({sub.name})")


def pair_embedding(spec: str) -> SubalgebraEmbedding:
    """Parse an embedding spec.

    Forms: "pair(G, H)" for matrix-span pairs such as
    pair(su(2,1), so(2,1)) or pair(sl2R, a); "pair(so(p,q),
    blocks[(p1,q1),...])" for block-diagonal subalgebras; "diag(S)" for
    the diagonal inside prod(S, S).
    """
    s = spec.strip()
    m = re.fullmatch(r"diag\((.+)\)", s)
    if m:
        return diagonal_embedding(m.group(1).strip())
    m = re.fullmatch(r"pair\((.+)\)", s, flags=re.DOTALL)
    if not m:
        raise UnsupportedAlgebra(f"cannot parse embedding spec {spec!r}")
    parts = _split_args(m.group(1))
    if len(parts) != 2:
        raise UnsupportedAlgebra(f"pair spec needs two arguments: {spec!r}")
    left, right = parts
    if right.startswith("blocks["):
        mm = re.fullmatch(r"so\((\d+),(\d+)\)", left)
        if not mm:
            raise UnsupportedAlgebra("blocks subalgebras require an so(p,q) ambient")
        return _so_blocks_embedding(
            int(mm.group(1)), int(mm.group(2)), _blocks_partition(right)
        )
    if right in ("so(2)", "so(2,0)") and left in ("sl2R", "sl2r"):
        right = "so(2,0)"
        ambient = build_algebra(left)
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # E12 - E21 = -e_z
        rows = np.array([matrix_coords(ambient, rot)])
        return make_embedding(ambient, build_algebra(right), rows,
                              name="pair(sl2R, so(2))")
    return _matrix_span_embedding(left, right)


# ---------------------------------------------------------------------------
# pullback, annihilator, induced and restricted cones


def pullback_q(E: SubalgebraEmbedding, xi) -> np.ndarray:
    """q(xi): coordinates over the sub algebra."""
    return E.q @ check_coords(E.ambient, xi)


def lift_covector(E: SubalgebraEmbedding, d) -> np.ndarray:
    """A preimage of d under q (q(lift(d)) = d)."""
    return E.lift @ check_coords(E.sub, d)


def annihilator_cone(E: SubalgebraEmbedding) -> ConeDescription:
    """The subspace {xi : q(xi) = 0}, as a polyhedral cone with +-
    generators."""
    comp = E.complement_q
    gens = np.vstack([comp, -comp]) if comp.size else np.zeros((0, E.ambient.dim))
    return polyhedral_cone(gens, algebra=E.ambient.name)


def induced_cone_samples(
    E: SubalgebraEmbedding,
    S: ConeDescription,
    budget: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Points xi with q(xi) in S, pushed by random group words.

    A quarter of the budget stays on the annihilator (q = 0 is always in
    S); the rest mixes lifted S directions with annihilator offsets.
    Returned points include untransported seeds, so the annihilator
    directions themselves are present in the pool.
    """
    if budget < 1_000:
        raise BudgetTooSmall("induced-cone sampling needs a budget >= 1000")
    rng = np.random.default_rng(seed)
    g = E.ambient
    lifted = np.asarray(cone_directions(S, seed=seed), dtype=float)
    comp = E.complement_q
    n_ann = budget // 4 if len(lifted) else budget
    n_lift = budget - n_ann
    seeds = []
    if comp.shape[0] > 0:
        seeds.append(np.vstack([comp, -comp]))
        w = rng.standard_normal((n_ann, comp.shape[0]))
        w /= np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
        seeds.append(w @ comp)
    else:
        n_lift = budget if len(lifted) else 0
    if n_lift and len(lifted):
        pick = lifted[rng.integers(0, len(lifted), n_lift)] @ E.lift.T
        scale = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n_lift))
        pts = pick * scale[:, None]
        if comp.shape[0] > 0:
            off = rng.standard_normal((n_lift, comp.shape[0])) @ comp
            mag = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), n_lift))
            pts = pts + off * mag[:, None]
        seeds.append(pts)
    if not seeds:
        return np.zeros((0, g.dim))
    pool = np.vstack(seeds)
    words = random_group_words(g, min(512, max(64, budget // 128)), rng, word_len=8)
    assign = rng.integers(0, len(words), len(pool))
    moved = np.einsum("nij,nj->ni", words[assign], pool)
    return np.vstack([pool, moved])


def induced_cone(
    E: SubalgebraEmbedding,
    S: ConeDescription,
    budget: int = 100_000,
    seed: int = 0,
) -> ConeDescription:
    """Sampled closure of Ad*(G) applied to q^{-1}(S)."""
    pts = induced_cone_samples(E, S, budget=budget, seed=seed)
    return direction_cone(pts, E.ambient.name, E.ambient.dim)


def restriction_lower_bound(
    E: SubalgebraEmbedding, C: ConeDescription, seed: int = 0
) -> ConeDescription:
    """Closure of q(C): a cone over the sub algebra contained in the wave
    front set of any restriction whose ambient wave front set is C."""
    if E.sub.dim == E.ambient.dim:
        return C  # q is a linear isomorphism in the catalog only for h = g
    return direction_cone(cone_directions(C, seed=seed) @ E.q.T, E.sub.name, E.sub.dim)


def class_counts(L: MatrixLieAlgebra, dirs: np.ndarray) -> dict:
    """How many of the directions fall in each class of L; {"Zero": 1}
    for no directions."""
    return dict(Counter(classify_batch(L, dirs))) if len(dirs) else {"Zero": 1}


def restriction_class_counts(
    E: SubalgebraEmbedding, C: ConeDescription, seed: int = 0
) -> dict:
    """How the directions of q(C) classify inside the sub algebra."""
    bound = restriction_lower_bound(E, C, seed=seed)
    return class_counts(E.sub, cone_directions(bound, seed=seed))


def decomposability_obstructed(counts: dict) -> bool:
    """True when restriction cannot decompose discretely: given the class
    counts of the directions of q(C) (``restriction_class_counts``), some
    class lies outside the closed elliptic set of the sub algebra."""
    return any(tag not in ("Elliptic", "Nilpotent", "Zero") for tag in counts)


# ---------------------------------------------------------------------------
# Cartan subalgebra classes


@dataclass(frozen=True, eq=False)
class CartanClass:
    """One conjugacy class of Cartan subalgebras: a representative basis
    (rows, chart coordinates) and the (compact dim, split dim) signature."""

    algebra: str
    signature: tuple[int, int]
    generators: np.ndarray
    label: str


def algebra_rank(L: MatrixLieAlgebra, seed: int = 0) -> int:
    """Generic centralizer dimension: min over random probes."""
    if L.dim == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = L.dim
    for _ in range(8):
        x = rng.standard_normal(L.dim)
        best = min(best, null_rows(ad_matrix(L, x)).shape[0])
    return best


def cartan_signature(L: MatrixLieAlgebra, gens, seed: int = 0) -> tuple[int, int]:
    """(compact dim, split dim) of a commuting ad-diagonalizable span.

    Root functionals are read off the eigenvectors of a generic element:
    a direction is compact when every root takes an imaginary value on
    it, split when every root takes a real value.  A span without roots
    is central; the weights of its defining matrices decide it the same
    way (the rotation of ``so(2,0)`` is compact, ``abelian(n)`` is split).
    """
    g = np.atleast_2d(np.asarray(gens, dtype=float))
    k = len(g)
    scale = max(np.max(np.abs(g)), 1e-12)
    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(bracket(L, g[i], g[j]))) > 1e-9 * scale * scale:
                raise NonCommuting(f"generators {i} and {j} do not commute")
    if k == 0:
        return (0, 0)
    ads = np.stack([ad_matrix(L, row) for row in g])
    rng = np.random.default_rng(seed)
    for _ in range(16):
        combo = rng.standard_normal(k)
        a = np.tensordot(combo, ads, axes=1)
        vals, vecs = np.linalg.eig(a)
        big = np.abs(vals) > 1e-7 * max(1.0, np.max(np.abs(vals)))
        idx = np.where(big)[0]
        mats = ads
        if len(idx) == 0:  # no roots: use the weights of the defining matrices
            mats = np.stack([element_matrix(L, row) for row in g])
            vecs = np.linalg.eig(np.tensordot(combo, mats, axes=1))[1]
            idx = np.arange(vecs.shape[1])
        elif len(idx) != L.dim - null_rows(a).shape[0]:
            continue  # not a regular combination, retry
        roots = np.empty((len(idx), k), dtype=complex)
        for r, j in enumerate(idx):
            v = vecs[:, j]
            denom = np.vdot(v, v).real
            roots[r] = [np.vdot(v, mats[i] @ v) / denom for i in range(k)]
        t_dim = null_rows(roots.real, rtol=1e-7).shape[0]
        a_dim = null_rows(roots.imag, rtol=1e-7).shape[0]
        if t_dim + a_dim != k:
            # a genuine Cartan splits into compact plus split directions;
            # anything else is a non-semisimple span
            raise NonCommuting("span is not ad-diagonalizable")
        return (t_dim, a_dim)
    raise NonCommuting("no regular element found in the span")


def _verify_cartan(L: MatrixLieAlgebra, gens, expect_rank: int) -> None:
    g = np.atleast_2d(gens)
    if len(g) != expect_rank:
        raise UnsupportedAlgebra("representative has wrong dimension")
    stacked = np.vstack([ad_matrix(L, row) for row in g])
    cent = null_rows(stacked, rtol=1e-10)
    if cent.shape[0] != expect_rank:
        raise UnsupportedAlgebra("representative is not maximal abelian")


def _so_cartan_classes(p: int, q: int) -> list[CartanClass]:
    n = p + q
    rank = n // 2
    L = build_algebra(f"so({p},{q})")

    def rot(i, j):
        m = np.zeros((n, n))
        m[i, j], m[j, i] = 1.0, -1.0
        return m

    def boost(i, j):
        m = np.zeros((n, n))
        m[i, j], m[j, i] = 1.0, 1.0
        return m

    out: dict[tuple[int, int], CartanClass] = {}
    for a in range(p // 2 + 1):
        for b in range(q // 2 + 1):
            for rs in range(min(p, q) + 1):
                for rm in range(min(p, q) // 2 + 1):
                    if 2 * a + rs + 2 * rm > p or 2 * b + rs + 2 * rm > q:
                        continue
                    if a + b + rs + 2 * rm != rank:
                        continue
                    p0 = p - 2 * a - rs - 2 * rm
                    q0 = q - 2 * b - rs - 2 * rm
                    if p0 + q0 > 1:
                        continue
                    sig = (a + b + rm, rs + rm)
                    if sig in out:
                        continue
                    pi = list(range(p))
                    qi = list(range(p, n))
                    mats = []
                    for _ in range(a):
                        mats.append(rot(pi.pop(0), pi.pop(0)))
                    for _ in range(b):
                        mats.append(rot(qi.pop(0), qi.pop(0)))
                    for _ in range(rs):
                        mats.append(boost(pi.pop(0), qi.pop(0)))
                    for _ in range(rm):
                        c1, c2 = pi.pop(0), pi.pop(0)
                        d1, d2 = qi.pop(0), qi.pop(0)
                        mats.append(rot(c1, c2) + rot(d1, d2))
                        mats.append(boost(c1, d1) + boost(c2, d2))
                    gens = np.array([matrix_coords(L, m) for m in mats])
                    label = f"a={a},b={b},split={rs},mixed={rm}"
                    out[sig] = CartanClass(L.name, sig, gens, label)
    return [out[s] for s in sorted(out, reverse=True)]


def cartan_classes(L: MatrixLieAlgebra) -> list[CartanClass]:
    """Representatives of the Cartan subalgebra classes, one per
    signature, each verified maximal abelian with matching signature."""
    if L.name == "sl2R":
        reps = [
            CartanClass("sl2R", (1, 0), np.array([[0.0, 0.0, 1.0]]), "compact"),
            CartanClass("sl2R", (0, 1), np.array([[1.0, 0.0, 0.0]]), "split"),
        ]
    elif L.name == "su(2,1)":
        e = np.eye(8)
        reps = [
            CartanClass("su(2,1)", (2, 0), np.array([e[6], e[7]]), "compact"),
            CartanClass("su(2,1)", (1, 1), np.array([e[0], e[6] - e[7]]), "split"),
        ]
    elif L.name.startswith("so("):
        m = re.fullmatch(r"so\((\d+),(\d+)\)", L.name)
        p, q = int(m.group(1)), int(m.group(2))
        if p + q > MAX_CARTAN_SIZE:
            raise UnsupportedAlgebra(f"Cartan catalog stops at p+q <= {MAX_CARTAN_SIZE}")
        reps = _so_cartan_classes(p, q)
    elif L.name.startswith("abelian("):
        return [CartanClass(L.name, (0, L.dim), np.eye(L.dim), "itself")]
    else:
        raise UnsupportedAlgebra(f"no Cartan catalog for {L.name}")
    rank = algebra_rank(L)
    seen = set()
    for rep in reps:
        _verify_cartan(L, rep.generators, rank)
        sig = cartan_signature(L, rep.generators)
        if sig != rep.signature:
            raise UnsupportedAlgebra(
                f"signature check failed for {rep.label}: {sig} != {rep.signature}"
            )
        seen.add(sig)
    if len(seen) != len(reps):
        raise UnsupportedAlgebra("representatives are not pairwise distinct")
    return reps


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
    X = np.tensordot(pts, np.stack(L.basis), axes=1)
    lam = np.linalg.eigvals(X).astype(complex)
    n = lam.shape[1]
    tol = SIGNATURE_TOL * np.linalg.norm(X, axis=(1, 2))[:, None]
    zero, imag, real = np.abs(lam) <= tol, np.abs(lam.real) <= tol, np.abs(lam.imag) <= tol
    twin = np.abs(lam[:, :, None] - lam[:, None, :]) <= tol[:, :, None]
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


def cartan_signature_search(
    L: MatrixLieAlgebra, trials: int = 400, seed: int = 0
) -> dict:
    """Randomized search for Cartan signatures: centralizers of random
    regular elements.  Returns {signature: witness coordinates}."""
    x = np.random.default_rng(seed).standard_normal((trials, L.dim))
    found: dict[tuple[int, int], np.ndarray] = {}
    for row, sig in zip(x, regular_signatures(L, x)):
        if sig is not None:
            found.setdefault(sig, row)
    return found


# ---------------------------------------------------------------------------
# saturation fullness


@dataclass(frozen=True, eq=False)
class SaturationResult:
    verdict: str  # "true" | "false" | "unknown"
    certificate: dict
    detail: str


def _sl2_saturation_exact(E: SubalgebraEmbedding) -> SaturationResult:
    """Exact decision for an sl2-chart ambient via the quadratic invariant
    restricted to the complement."""
    comp = E.complement_q
    quad = np.diag([1.0, 1.0, -1.0])
    form = comp @ quad @ comp.T
    vals = np.linalg.eigvalsh(form) if form.size else np.zeros(0)
    has_ell = bool(np.any(vals < -1e-12))
    has_hyp = bool(np.any(vals > 1e-12))
    cert = {"restricted_invariant_eigenvalues": [float(v) for v in vals]}
    if has_ell and has_hyp:
        vecs = np.linalg.eigh(form)[1] if form.size else np.zeros((0, 0))
        cert["witnesses"] = {
            "compact": (vecs[:, 0] @ comp).tolist(),
            "split": (vecs[:, -1] @ comp).tolist(),
        }
        return SaturationResult("true", cert, "complement meets both Cartan classes")
    missing = "compact" if not has_ell else "split"
    return SaturationResult(
        "false", cert, f"complement cannot meet the {missing} Cartan class"
    )


def saturation_is_full(
    E: SubalgebraEmbedding, budget: int = 100_000, seed: int = 0
) -> SaturationResult:
    """Does Ad*(G) applied to the annihilator of h close up to all of the
    dual?  Certified true when the complement contains a generator of
    every Cartan class of g; false only with an exact argument; unknown
    otherwise.
    """
    if E.complement_q.shape[0] == 0:
        return SaturationResult(
            "false", {}, "trivial complement: saturation is the origin"
        )
    if E.ambient.chart == "sl2":
        return _sl2_saturation_exact(E)
    targets = {c.signature for c in cartan_classes(E.ambient)}
    rng = np.random.default_rng(seed)
    comp = E.complement_q
    found: dict[tuple[int, int], list] = {}
    draws, batch = 0, 256
    while draws < budget and len(found) < len(targets):
        pts = rng.standard_normal((batch, comp.shape[0])) @ comp
        draws += batch
        for y, sig in zip(pts, regular_signatures(E.ambient, pts)):
            if sig in targets and sig not in found:
                found[sig] = [float(v) for v in y]
    cert = {
        "classes": sorted(str(s) for s in targets),
        "witnesses": {str(k): v for k, v in found.items()},
        "draws": draws,
    }
    if len(found) == len(targets):
        return SaturationResult(
            "true", cert, "complement meets every Cartan class"
        )
    missing = sorted(str(s) for s in targets - set(found))
    return SaturationResult(
        "unknown",
        cert,
        f"budget exhausted with classes {missing} unwitnessed",
    )
