"""Golden catalog: labeled representations, their orbital supports, and
the reference analyses they feed.

The rank-one table associates each tempered label with an orbit family
whose asymptotic cone is its wave front set: discrete series with one
elliptic orbit, principal series with one hyperbolic orbit (the
zero-parameter one with the full nilpotent cone), limits with a nilpotent
half-cone, and the big decompositions L2(G/K), L2(G/A) and the discrete
sums with the corresponding orbit unions.

tensor_analysis classifies sums of two elliptic orbits by the exact sign
of the quadric invariant, which decides discrete decomposability of the
tensor product.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np

from .cones import (
    DEFAULT_RADII,
    RESOLUTION,
    ConeDescription,
    FamilyBranch,
    PointFamily,
    asymptotic_cone,
    cone_equal,
    dedup_directions,
    exact_cone,
    sampled_cone,
)
from .errors import UnsupportedAlgebra
from .induction import decomposability_obstructed
from .liealg import build_algebra, matrix_coords, random_group_words, sl2_casimir
from .orbits import OrbitParam, orbit_branch, orbit_family, orbit_sum_sample, union_family


@dataclass(frozen=True, eq=False)
class RepresentationSpec:
    label: str
    orbital_support: PointFamily


def _product_family(p1: OrbitParam, p2: OrbitParam) -> PointFamily:
    """Support of a tensor pair: product of two orbits inside the
    two-factor product algebra."""
    L = build_algebra("sl2R")
    amb = build_algebra("prod(sl2R,sl2R)")
    b1, b2 = orbit_branch(L, p1), orbit_branch(L, p2)

    def sample(rng, radius, count):
        a = b1.sample(rng, radius, count)
        b = b2.sample(rng, radius, count)
        n = min(len(a), len(b))
        return np.hstack([a[:n], b[:n]])

    return PointFamily(
        algebra=amb.name,
        dim=amb.dim,
        branches=(FamilyBranch(f"{b1.label}x{b2.label}", sample),),
    )


def representation(label: str) -> RepresentationSpec:
    """Resolve a catalog label.

    Accepted forms (parenthesized or colon-separated):
    sigma_disc(n,+|-), sigma_hyp(nu,+|-|+-), sigma_limit(+|-),
    sum_disc(+|-), L2_GK, L2_GA, tensor(n,s,m,s).
    """
    s = label.strip()
    if ":" in s:  # name:a:b is name(a,b)
        s = s.replace(":", "(", 1).replace(":", ",") + ")"
    L = build_algebra("sl2R")
    if s == "L2_GK":
        return RepresentationSpec("L2_GK", union_family(L, "hyp_union"))
    if s == "L2_GA":
        return RepresentationSpec("L2_GA", union_family(L, "full"))
    m = re.fullmatch(r"sigma_disc\((\d+)\s*,\s*([+-])\)", s)
    if m:
        n, sign = int(m.group(1)), m.group(2)
        if n < 1:
            raise UnsupportedAlgebra("discrete series need n >= 1")
        fam = orbit_family(L, [OrbitParam("sl2R", f"ell{sign}", float(n))])
        return RepresentationSpec(f"sigma_disc({n},{sign})", fam)
    m = re.fullmatch(r"sigma_hyp\((\d+\.?\d*|\.\d+)\s*,\s*(\+|-|\+-)\)", s)
    if m:
        nu = float(m.group(1))
        if nu == 0:
            # the zero-parameter principal series carries the whole
            # nilpotent cone: both half-cones plus the origin
            fam = orbit_family(
                L,
                [
                    OrbitParam("sl2R", "nil+"),
                    OrbitParam("sl2R", "nil-"),
                    OrbitParam("sl2R", "zero"),
                ],
            )
            return RepresentationSpec("sigma_hyp(0,+)", fam)
        fam = orbit_family(L, [OrbitParam("sl2R", "hyp", nu)])
        return RepresentationSpec(f"sigma_hyp({m.group(1)},{m.group(2)})", fam)
    m = re.fullmatch(r"sigma_limit\(([+-])\)", s)
    if m:
        sign = m.group(1)
        fam = orbit_family(L, [OrbitParam("sl2R", f"nil{sign}")])
        return RepresentationSpec(f"sigma_limit({sign})", fam)
    m = re.fullmatch(r"sum_disc\(([+-])\)", s)
    if m:
        sign = m.group(1)
        fam = union_family(L, "ell_union_plus" if sign == "+" else "ell_union_minus")
        return RepresentationSpec(f"sum_disc({sign})", fam)
    m = re.fullmatch(r"tensor\((\d+)\s*,\s*([+-])\s*,\s*(\d+)\s*,\s*([+-])\)", s)
    if m:
        n, s1, mm, s2 = int(m.group(1)), m.group(2), int(m.group(3)), m.group(4)
        fam = _product_family(
            OrbitParam("sl2R", f"ell{s1}", float(n)),
            OrbitParam("sl2R", f"ell{s2}", float(mm)),
        )
        return RepresentationSpec(f"tensor({n},{s1},{mm},{s2})", fam)
    raise UnsupportedAlgebra(f"unknown representation label {label!r}")


def wavefront_of(
    spec: RepresentationSpec,
    radii=DEFAULT_RADII,
    samples_per_radius: int = 6000,
    seed: int = 0,
) -> ConeDescription:
    """Wave front set of a catalog representation: the asymptotic cone of
    its orbital support."""
    return asymptotic_cone(spec.orbital_support, radii, samples_per_radius, seed)


GOLDEN_ROWS = (
    ("sigma_disc(3,+)", "Nplus"),
    ("sigma_disc(3,-)", "Nminus"),
    ("sigma_hyp(1,+-)", "N"),
    ("sigma_hyp(0,+)", "N"),
    ("sigma_limit(+)", "Nplus"),
    ("sigma_limit(-)", "Nminus"),
    ("L2_GK", "HypClosure"),
    ("L2_GA", "Full"),
    ("sum_disc(+)", "EllPlusClosure"),
    ("sum_disc(-)", "EllMinusClosure"),
)


def golden_table(
    seed: int = 0,
    samples_per_radius: int = 6000,
    angular_tol: float = 0.05,
) -> list[dict]:
    """Recompute every golden identity by sampling and compare with the
    named cone.  One result row per identity."""
    rows = []
    for label, expected in GOLDEN_ROWS:
        t0 = time.perf_counter()
        spec = representation(label)
        cone = wavefront_of(spec, samples_per_radius=samples_per_radius, seed=seed)
        target = exact_cone(expected, "sl2R", 3)
        ok, defect = cone_equal(cone, target, angular_tol=angular_tol)
        rows.append(
            {
                "label": label,
                "expected": expected,
                "defect": float(defect),
                "ok": bool(ok),
                "seconds": time.perf_counter() - t0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# SU(2,1) > SO(2,1): the quaternionic-type discrete series


def quaternionic_wf(budget: int = 40_000, seed: int = 0) -> ConeDescription:
    """The nilpotent cone of su(2,1), sampled.

    Rank-one nilpotents are parametrized directly (i v v* J over isotropic
    v), and the regular nilpotent orbit is reached by random group words
    from the real-form seeds.
    """
    g = build_algebra("su(2,1)")
    rng = np.random.default_rng(seed)
    J = np.diag([1.0, 1.0, -1.0]).astype(complex)

    n_rank1 = budget // 2
    w = rng.standard_normal((n_rank1, 2)) + 1j * rng.standard_normal((n_rank1, 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n_rank1))
    vs = np.column_stack([w[:, 0], w[:, 1], phases])  # |v1|^2+|v2|^2 = |v3|^2
    pts = matrix_coords(g, 1j * (vs[:, :, None] * vs[:, None, :].conj()) @ J)
    pts = np.vstack([pts, -pts])

    # regular nilpotents: transports of the real-form seeds e0 +- e2
    seeds = np.zeros((4, g.dim))
    seeds[0, 0], seeds[0, 2] = 1.0, 1.0
    seeds[1, 0], seeds[1, 2] = 1.0, -1.0
    seeds[2] = -seeds[0]
    seeds[3] = -seeds[1]
    words = random_group_words(g, max(64, budget // 64), rng)
    reg = np.einsum("nij,kj->nki", words, seeds).reshape(-1, g.dim)
    pool = np.vstack([pts, reg, seeds])
    norms = np.linalg.norm(pool, axis=1)
    keep = norms > 1e-9
    dirs = pool[keep]
    dirs /= norms[keep, None]
    return sampled_cone(dedup_directions(dirs, RESOLUTION), g.name)


# ---------------------------------------------------------------------------
# tensor products of discrete series


def tensor_analysis(
    n: int, s1: str, m: int, s2: str, samples: int = 10_000, seed: int = 0
) -> dict:
    """Classify orbit-sum samples of a tensor pair by the exact sign of
    the quadric invariant, and decide the decomposability obstruction.

    Sums of same-sign elliptic orbits stay strictly elliptic on that side
    (the invariant of a sum of two future-pointing points is below
    -(n+m)^2), so the exact sign test is the right classifier even far
    out, where normalized classification would blur into the boundary.
    """
    if n < 1 or m < 1 or s1 not in "+-" or s2 not in "+-":
        raise UnsupportedAlgebra("tensor pairs need n,m >= 1 and signs in {+,-}")
    L = build_algebra("sl2R")
    pts = orbit_sum_sample(
        L,
        OrbitParam("sl2R", f"ell{s1}", float(n)),
        OrbitParam("sl2R", f"ell{s2}", float(m)),
        samples,
        seed=seed,
    )
    cas = sl2_casimir(pts)
    scale = np.einsum("ij,ij->i", pts, pts)
    tol = 1e-9 * np.maximum(scale, 1.0)
    counts = {
        "elliptic+": int(np.sum((cas < -tol) & (pts[:, 2] > 0))),
        "elliptic-": int(np.sum((cas < -tol) & (pts[:, 2] < 0))),
        "hyperbolic": int(np.sum(cas > tol)),
        "null": int(np.sum(np.abs(cas) <= tol)),
    }
    tags = {"elliptic+": "Elliptic", "elliptic-": "Elliptic",
            "null": "Nilpotent", "hyperbolic": "Hyperbolic"}
    obstructed = decomposability_obstructed({tags[k]: c for k, c in counts.items() if c})
    if counts["elliptic+"] == samples:
        sum_class = "elliptic-plus"
    elif counts["elliptic-"] == samples:
        sum_class = "elliptic-minus"
    elif obstructed:
        sum_class = "mixed-with-hyperbolic"
    else:
        sum_class = "mixed-elliptic"
    return {
        "pair": f"tensor({n},{s1},{m},{s2})",
        "samples": samples,
        "classes": counts,
        "sum_cone_class": sum_class,
        "discretely_decomposable_obstructed": obstructed,
    }
