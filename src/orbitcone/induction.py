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
)
from .errors import (
    BadPartition,
    BudgetTooSmall,
    DimensionMismatch,
    UnsupportedAlgebra,
)
from .liealg import (
    MatrixLieAlgebra,
    build_algebra,
    classify_batch,
    matrix_coords,
    null_rows,
    random_group_words,
    regular_signatures,
    split_args,
)

BRACKET_TOL = 1e-12
_MOVE_CHUNK = 8192  # pool rows per einsum: bounds the words gathered at once


@dataclass(frozen=True, eq=False)
class SubalgebraEmbedding:
    """A verified pair h in g.

    inclusion: (dim_h, dim_g), row i = ambient coordinates of the i-th sub
    basis element.  q: (dim_h, dim_g) dual projection, defined by the
    pullback identity Q^T G_h = G_g I^T.  complement_q: rows span the
    trace-form orthocomplement of h in g (equivalently, in chart
    coordinates, the annihilator of h on the dual side).
    """

    ambient: MatrixLieAlgebra
    sub: MatrixLieAlgebra
    inclusion: np.ndarray
    q: np.ndarray
    complement_q: np.ndarray
    name: str


def make_embedding(
    ambient: MatrixLieAlgebra, sub: MatrixLieAlgebra, inclusion, name: str = ""
) -> SubalgebraEmbedding:
    inc = np.asarray(inclusion, dtype=float)
    if inc.shape != (sub.dim, ambient.dim):
        raise DimensionMismatch("inclusion must be (dim_sub, dim_ambient)")
    # bracket respect on basis pairs: rhs[i, j] = [inc_i, inc_j] in g
    lhs = sub.structure @ inc
    rhs = inc @ np.tensordot(inc, ambient.structure, axes=1)
    tol = BRACKET_TOL * np.maximum(1.0, np.max(np.abs(rhs), axis=2))
    bad = np.argwhere(np.triu(np.max(np.abs(lhs - rhs), axis=2) > tol, 1))
    if len(bad):
        i, j = bad[0]
        raise DimensionMismatch(f"inclusion does not respect brackets at pair ({i},{j})")
    q = np.linalg.solve(sub.gram, inc @ ambient.gram)
    comp = null_rows(inc @ ambient.gram)
    if comp.shape[0] != ambient.dim - sub.dim:
        raise DimensionMismatch("complement dimension mismatch (degenerate pair)")
    stacked = np.vstack([inc, comp])
    if abs(np.linalg.det(stacked)) <= 1e-9:
        raise DimensionMismatch("sub and complement do not span the ambient")
    return SubalgebraEmbedding(
        ambient=ambient, sub=sub, inclusion=inc, q=q, complement_q=comp,
        name=name or f"pair({ambient.name}, {sub.name})",
    )


# ---------------------------------------------------------------------------
# embedding constructors


_BLOCK = r"\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*"


def _blocks_partition(spec: str):
    """The blocks (p_i, q_i) of "blocks[(p_1,q_1),...]": the whole body must
    be a comma-separated list of pairs, each with p_i + q_i >= 1."""
    m = re.fullmatch(r"blocks\[(.*)\]", spec.strip())
    if not m:
        raise UnsupportedAlgebra(f"not a blocks spec: {spec!r}")
    if not re.fullmatch(f"{_BLOCK}(,{_BLOCK})*", m.group(1)):
        raise BadPartition(f"{spec!r} is not a comma-separated list of (p_i,q_i)")
    pairs = [(int(a), int(b)) for a, b in re.findall(_BLOCK, m.group(1))]
    if (0, 0) in pairs:
        raise BadPartition(f"{spec!r} has an empty block (0,0)")
    return pairs


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
    # block k owns a slice of plus and of minus indices; the sub's own
    # block-diagonal rows list the nontrivial blocks in the same order
    rows, off_p, off_q = [], 0, 0
    for a, b in parts:
        if a + b >= 2:
            rows += [*range(off_p, off_p + a), *range(p + off_q, p + off_q + b)]
        off_p += a
        off_q += b
    P = np.eye(p + q)[:, rows]  # 0/1 placement of the sub rows
    name = f"pair(so({p},{q}), blocks[{','.join(f'({a},{b})' for a, b in parts)}])"
    return make_embedding(ambient, sub, matrix_coords(ambient, P @ sub.basis @ P.T), name)


def _matrix_span_embedding(
    ambient_spec: str, sub_spec: str, name: str = ""
) -> SubalgebraEmbedding:
    ambient, sub = build_algebra(ambient_spec), build_algebra(sub_spec)
    if ambient.matrix_size != sub.matrix_size:
        raise UnsupportedAlgebra(
            f"no catalog embedding of {sub.name} into {ambient.name}"
        )
    return make_embedding(ambient, sub, matrix_coords(ambient, sub.basis), name)


def diagonal_embedding(factor_spec: str) -> SubalgebraEmbedding:
    """X -> (X, X) into the two-factor product."""
    sub = build_algebra(factor_spec)
    ambient = build_algebra(f"prod({factor_spec},{factor_spec})")
    inc = np.hstack([np.eye(sub.dim), np.eye(sub.dim)])
    return make_embedding(ambient, sub, inc, name=f"diag({sub.name})")


def pair_embedding(spec: str) -> SubalgebraEmbedding:
    """Parse an embedding spec.

    Forms: "G|H" or "pair(G, H)" for matrix-span pairs such as
    su(2,1)|so(2,1) or pair(sl2R, a), and for block-diagonal subalgebras
    so(p,q)|blocks[(p1,q1),...]; "diag(S)" for the diagonal inside
    prod(S, S).  "G|H" splits at the first "|".
    """
    s = spec.strip()
    if "|" in s:
        left, right = (part.strip() for part in s.split("|", 1))
    else:
        m = re.fullmatch(r"diag\((.+)\)", s)
        if m:
            return diagonal_embedding(m.group(1).strip())
        m = re.fullmatch(r"pair\((.+)\)", s, flags=re.DOTALL)
        if not m:
            raise UnsupportedAlgebra(f"cannot parse embedding spec {spec!r}")
        parts = split_args(m.group(1))
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
    if right in ("so(2)", "so(2,0)") and build_algebra(left).name == "sl2R":
        return _matrix_span_embedding(left, "so(2,0)", name="pair(sl2R, so(2))")
    return _matrix_span_embedding(left, right)


# ---------------------------------------------------------------------------
# induced and restricted cones


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
        # q has full row rank (make_embedding checks that inclusion and
        # complement span the ambient), so its pseudo-inverse is a section
        pick = lifted[rng.integers(0, len(lifted), n_lift)] @ np.linalg.pinv(E.q).T
        scale = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n_lift))
        pts = pick * scale[:, None]
        if comp.shape[0] > 0:
            off = rng.standard_normal((n_lift, comp.shape[0])) @ comp
            mag = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), n_lift))
            pts = pts + off * mag[:, None]
        seeds.append(pts)
    if not seeds:
        return np.zeros((0, g.dim))
    m = sum(map(len, seeds))
    out = np.empty((2 * m, g.dim))  # the pool, then its moved copy
    pool = np.concatenate(seeds, out=out[:m])
    words = random_group_words(g, min(512, max(64, budget // 128)), rng)
    assign = rng.integers(0, len(words), m)
    for i in range(0, m, _MOVE_CHUNK):
        j = min(i + _MOVE_CHUNK, m)
        np.einsum("nij,nj->ni", words[assign[i:j]], pool[i:j], out=out[m + i:m + j])
    return out


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


def cartan_signatures(L: MatrixLieAlgebra) -> list[tuple[int, int]]:
    """The (compact dim, split dim) signatures of the Cartan subalgebra
    classes of L, one per class, compact dimension falling.

    so(p,q) has rank n // 2 with n = p + q, and one class for each split
    dimension s from 0 to min(p, q), except s = 0 when p and q are both odd
    (then so(p,q) has no compact Cartan).  The tests hold a representative
    of every class as the independent reference."""
    if L.name == "sl2R":
        return [(1, 0), (0, 1)]
    if L.name == "su(2,1)":
        return [(2, 0), (1, 1)]
    if L.name.startswith("abelian("):
        return [(0, L.dim)]
    m = re.fullmatch(r"so\((\d+),(\d+)\)", L.name)
    if not m:
        raise UnsupportedAlgebra(f"no Cartan catalog for {L.name}")
    p, q = int(m.group(1)), int(m.group(2))
    lo = 1 if p % 2 and q % 2 else 0
    return [((p + q) // 2 - s, s) for s in range(lo, min(p, q) + 1)]


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
    targets = set(cartan_signatures(E.ambient))
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
