"""Command-line front end: batch runs with reproducible reports.

Every subcommand writes report.json with sections {config, inputs,
result, certificates, timings}.  Reports are byte-deterministic for a
fixed configuration: timings are only recorded when --timings is passed,
since wall-clock values would break determinism.  Point clouds and
direction sets go only to CSV side files, with one coordinate column per
basis element; a sampled cone's record in report.json keeps the one
angular resolution ``tol`` of every sampled cone (``cones.RESOLUTION``)
and its count ``n_directions``.

Each subcommand computes and returns its report sections and side tables;
``main`` builds the config section from the parsed options and writes
every file.  Each parser takes only the options its subcommand reads:
--seed, --out and --timings everywhere, --samples where something is
sampled, --radii and --angular-tol only where they are used.  The parser is
built once per process, on the first call to ``main``; parsing leaves it
unchanged, so every call still parses its arguments afresh.

Exit codes: 0 success, 2 validation error (bad options, bad numeric
values, radii outside (0, MAX_RADIUS], unknown names, an --out under a
regular file, orbit samples that overflow in orbit-sample or
measure-scan; nothing is written), 3 mathematically inconclusive (a
saturation search that exhausts its budget without a verdict).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .catalog import (
    GOLDEN_ROWS,
    golden_table,
    quaternionic_wf,
    representation,
    tensor_analysis,
    wavefront_of,
)
from .cones import (
    DEFAULT_RADII,
    EXACT_NAMES,
    cone_directions,
    cone_equal,
    cone_record,
    dual_cone,
    exact_cone,
    polyhedral_cone,
)
from .errors import OrbitConeError
from .induction import (
    class_counts,
    decomposability_obstructed,
    induced_cone,
    pair_embedding,
    restriction_lower_bound,
    saturation_is_full,
)
from .liealg import build_algebra, classify_element, sl2_casimir
from .orbits import OrbitParam, density_ratio_F, orbit_branch, orbit_sample
from .tempered import bk_weak_containment

CLAIMS = {
    "classify": "coadjoint element classes are invariants of the group action",
    "orbit-sample": "coadjoint orbits of the rank-one catalog are level sets of the quadric invariant",
    "ac": "the wave front set of a tempered representation is the asymptotic cone of its orbital support",
    "dual": "the dual cone construction pairs polyhedral cones",
    "induce": "induction fills the coadjoint saturation of the annihilator",
    "restrict": "the restricted wave front set contains the pullback image of the ambient one",
    "tempered": "weak containment of the regular representation reduces to 2*rho_sub <= rho_ambient on the split part",
    "saturation": "the saturation is everything exactly when the complement meets every Cartan class",
    "tensor": "sums of elliptic orbits decide discrete decomposability of tensor pairs",
    "golden-table": "the rank-one wave front catalog is reproduced by asymptotic-cone sampling",
    "measure-scan": "the canonical-to-Euclidean density ratio grows with degree half the orbit dimension",
}
# orbit samples reach norms of about 2 --radius; their squares must stay finite
MAX_RADIUS = 1e150


def _parse_vector(text: str) -> np.ndarray:
    try:
        v = np.array([float(x) for x in text.replace(";", ",").split(",") if x.strip() != ""])
    except ValueError as e:
        raise OrbitConeError(f"cannot parse vector {text!r}: {e}") from None
    if not np.all(np.isfinite(v)):
        raise OrbitConeError(f"vector entries must be finite, got {text!r}")
    return v


def _check_radius(radius: float) -> float:
    if not 0 < radius <= MAX_RADIUS:
        raise OrbitConeError(f"radius {radius:g} is outside (0, {MAX_RADIUS:g}]")
    return radius


def _parse_radii(text: str):
    vals = tuple(_check_radius(r) for r in _parse_vector(text))
    if len(vals) < 3:
        raise OrbitConeError("--radii needs at least 3 comma-separated values")
    return vals


def _parse_orbit(text: str, L) -> OrbitParam:
    """The orbit of L named by ``kind`` or ``kind:value``, checked by
    ``orbit_branch``."""
    kind, _, raw = text.partition(":")
    try:
        param = OrbitParam(L.name, kind, float(raw) if raw != "" else None)
    except ValueError:
        raise OrbitConeError(f"cannot parse orbit value in {text!r}") from None
    orbit_branch(L, param)
    return param


def _clean(obj):
    """JSON-ready structure with floats rounded for stable bytes."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return round(float(obj), 12) or 0.0  # no -0.0 from rounded noise
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_csv(path: Path, header, rows) -> None:
    """A float table as CSV, each value written ``%.12g``.  Rows go out in
    chunks of 256, each formatted by one ``%``, so the Python floats and
    strings of a chunk stay small next to the arrays of a run; larger
    chunks are no faster."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.12g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, len(table), 256):
            block = table[i:i + 256]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


class _Run(NamedTuple):
    """What a subcommand hands to ``main``: its report sections, its side
    tables (output key -> (file name, header, rows)), the extra entries of
    the --timings section and its exit code."""

    inputs: dict
    result: dict
    certificates: dict = {}
    tables: dict = {}
    timings: dict = {}
    code: int = 0


def _config(args) -> dict:
    """The config section of a run, from its parsed options.

    Numeric options are checked here, before anything runs."""
    budgets, tolerances = {}, {"numeric": 1e-9}
    if "samples" in args:
        if args.samples < 1:
            raise OrbitConeError(f"--samples must be at least 1, got {args.samples}")
        budgets["samples"] = args.samples
    if "radii" in args:
        budgets["radii"] = list(_parse_radii(args.radii))
    if "angular_tol" in args:
        if not (np.isfinite(args.angular_tol) and args.angular_tol > 0):
            raise OrbitConeError(
                f"--angular-tol must be finite and positive, got {args.angular_tol}"
            )
        tolerances["angular"] = args.angular_tol
    return {
        "command": args.command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "command", "out") and v is not None
        },
        "seed": args.seed,
        "budgets": budgets,
        "tolerances": tolerances,
        "outputs": {"report": "report.json"},
        "claim": CLAIMS[args.command],
    }


# ---------------------------------------------------------------------------
# subcommands: each computes, none touches the file system


def _cmd_classify(args) -> _Run:
    L = build_algebra(args.algebra)
    point = _parse_vector(args.point)
    cls = classify_element(L, point)
    return _Run(
        {"algebra": L.name, "point": point},
        {"class": cls.tag, "eigen_summary": cls.eigen_summary},
    )


def _orbit_points(L, param: OrbitParam, count: int, seed: int, radius: float):
    """``orbit_sample`` at a radius in (0, MAX_RADIUS], with finite points."""
    _check_radius(radius)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = orbit_sample(L, param, count, seed=seed, radius=radius)
    if not np.all(np.isfinite(pts)):
        raise OrbitConeError(f"orbit samples at radius {radius:g} overflow: they are not finite")
    return pts


def _cmd_orbit_sample(args) -> _Run:
    L = build_algebra(args.algebra)
    param = _parse_orbit(args.orbit, L)
    pts = _orbit_points(L, param, args.samples, args.seed, args.radius)
    inv = sl2_casimir(pts[:16]) if L.chart == "sl2" else []
    return _Run(
        {"algebra": L.name, "orbit": args.orbit},
        {"count": len(pts), "quadric_invariant_head": inv},
        tables={"points": ("directions.csv", L.basis_names, pts)},
    )


def _cmd_ac(args) -> _Run:
    spec = representation(args.rep)
    cone = wavefront_of(
        spec, radii=_parse_radii(args.radii), samples_per_radius=args.samples,
        seed=args.seed,
    )
    dirs = cone_directions(cone, args.seed)
    expected = dict(GOLDEN_ROWS).get(spec.label)
    certificates = {}
    if expected is not None:
        ok, defect = cone_equal(
            cone, exact_cone(expected, "sl2R", 3), angular_tol=args.angular_tol
        )
        certificates = {"expected": expected, "match": bool(ok), "defect": defect}
    L = build_algebra(spec.orbital_support.algebra)
    return _Run(
        {"rep": spec.label},
        {"cone": cone_record(cone), "n_directions": len(dirs)},
        certificates,
        tables={"directions": ("directions.csv", L.basis_names, dirs)},
    )


def _cmd_dual(args) -> _Run:
    gens = [
        _parse_vector(part) for part in args.generators.split(";") if part.strip()
    ]
    if len({len(g) for g in gens}) > 1:
        raise OrbitConeError(
            f"generators have different lengths: {[len(g) for g in gens]}"
        )
    if not gens or len(gens[0]) == 0:
        raise OrbitConeError("--generators needs at least one vector")
    dual = dual_cone(polyhedral_cone(np.array(gens)))
    return _Run(
        {"generators": [g.tolist() for g in gens]}, {"dual": cone_record(dual)}
    )


def _cmd_induce(args) -> _Run:
    E = pair_embedding(args.pair)
    S = exact_cone(args.sub_cone, E.sub.name, E.sub.dim)
    cone = induced_cone(E, S, budget=args.samples, seed=args.seed)
    dirs = cone_directions(cone, args.seed)
    counts = class_counts(E.ambient, dirs)
    tables = {}
    if len(dirs):
        tables["directions"] = ("directions.csv", E.ambient.basis_names, dirs)
    return _Run(
        {"pair": E.name, "sub_cone": args.sub_cone,
         "annihilator_dim": int(E.complement_q.shape[0])},
        {"cone": cone_record(cone), "class_counts": counts},
        tables=tables,
    )


def _cmd_restrict(args) -> _Run:
    E = pair_embedding(args.pair)
    if args.cone == "quaternionic":
        C = quaternionic_wf(budget=args.samples, seed=args.seed)
    elif args.cone in EXACT_NAMES:
        C = exact_cone(args.cone, E.ambient.name, E.ambient.dim)
    elif args.cone is not None:
        raise OrbitConeError(
            f"unknown cone {args.cone!r}: use 'quaternionic' or one of "
            f"{', '.join(EXACT_NAMES)}"
        )
    elif args.rep is not None:
        spec = representation(args.rep)
        if spec.orbital_support.algebra != E.ambient.name:
            raise OrbitConeError(
                f"representation lives over {spec.orbital_support.algebra}, "
                f"embedding ambient is {E.ambient.name}"
            )
        C = wavefront_of(spec, seed=args.seed, samples_per_radius=args.samples)
    else:
        raise OrbitConeError("restrict needs --cone or --rep")
    bound = restriction_lower_bound(E, C, seed=args.seed)
    dirs = cone_directions(bound, args.seed)
    counts = class_counts(E.sub, dirs)
    tables = {}
    if len(dirs):
        tables["directions"] = ("directions.csv", E.sub.basis_names, dirs)
    return _Run(
        {"pair": E.name, "cone": args.cone or args.rep},
        {"lower_bound": cone_record(bound), "class_counts": counts,
         "discretely_decomposable_obstructed": decomposability_obstructed(counts)},
        tables=tables,
    )


def _cmd_tempered(args) -> _Run:
    E = pair_embedding(args.pair)
    cert = bk_weak_containment(E)
    return _Run(
        {"pair": E.name},
        {"verdict": cert.verdict, "witness": cert.witness,
         "rays_checked": cert.rays_checked},
        {"weight_tables": cert.weight_tables},
    )


def _cmd_saturation(args) -> _Run:
    E = pair_embedding(args.pair)
    res = saturation_is_full(E, budget=args.samples, seed=args.seed)
    return _Run(
        {"pair": E.name, "annihilator_dim": int(E.complement_q.shape[0])},
        {"verdict": res.verdict, "detail": res.detail},
        res.certificate,
        code=0 if res.verdict in ("true", "false") else 3,
    )


def _cmd_tensor(args) -> _Run:
    spec = representation(args.rep)
    m = re.fullmatch(r"tensor\((\d+),([+-]),(\d+),([+-])\)", spec.label)
    if not m:
        raise OrbitConeError("tensor subcommand needs a tensor(n,s,m,s) label")
    report = tensor_analysis(
        int(m.group(1)), m.group(2), int(m.group(3)), m.group(4),
        samples=args.samples, seed=args.seed,
    )
    return _Run({"rep": spec.label}, report)


def _cmd_golden_table(args) -> _Run:
    rows = golden_table(
        seed=args.seed, samples_per_radius=args.samples, angular_tol=args.angular_tol
    )
    all_ok = all(r["ok"] for r in rows)
    for r in rows:
        status = "pass" if r["ok"] else "FAIL"
        print(f"{status}  {r['label']:18s} -> {r['expected']:16s} defect {r['defect']:.4f}")
    return _Run(
        {"rows": [r["label"] for r in rows]},
        {
            "rows": [
                {k: r[k] for k in ("label", "expected", "defect", "ok")}
                for r in rows
            ],
            "all_ok": all_ok,
        },
        timings={"rows": [{"label": r["label"], "seconds": r["seconds"]} for r in rows]},
        code=0 if all_ok else 1,
    )


def _cmd_measure_scan(args) -> _Run:
    if args.samples < 2:
        raise OrbitConeError(
            f"measure-scan needs --samples of at least 2 to fit a slope, got {args.samples}"
        )
    L = build_algebra(args.algebra)
    param = _parse_orbit(args.orbit, L)
    if param.kind == "zero":
        raise OrbitConeError("measure-scan needs a nonzero orbit: the zero orbit is one point")
    base = param.value or 1.0
    lo = base * np.sqrt(2.0) * 1.0001
    norms = np.geomspace(max(1.0, lo), 100.0 * max(1.0, base), args.samples)
    rows = []
    for t in norms:
        pts = _orbit_points(L, param, 8, args.seed, t)
        # keep the sample closest to the requested norm, then rescan F
        k = np.argmin(np.abs(np.linalg.norm(pts, axis=1) - t))
        f = density_ratio_F(L, pts[k])
        rows.append((float(np.linalg.norm(pts[k])), float(f)))
    rows.sort()
    slope = float(np.polyfit(np.log1p([r[0] for r in rows]),
                             [np.log(max(r[1], 1e-300)) for r in rows], 1)[0])
    return _Run(
        {"algebra": L.name, "orbit": args.orbit},
        {"slope": slope, "n_points": len(rows)},
        {"bound": "slope <= dim(orbit)/2 + margin"},
        tables={"fscan": ("fscan.csv", ["norm", "F"], rows)},
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitcone",
        description="Coadjoint-orbit cone computations: classification, "
        "asymptotic cones, induction and restriction bounds, the "
        "weak-containment test, and the golden catalog.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help, **defaults):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, **defaults)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--timings", action="store_true")
        return p

    p = add("classify", _cmd_classify, "element class of a dual point")
    p.add_argument("--algebra", required=True)
    p.add_argument("--point", required=True)

    p = add("orbit-sample", _cmd_orbit_sample, "sample one coadjoint orbit")
    p.add_argument("--algebra", default="sl2R")
    p.add_argument("--orbit", required=True, help="kind[:value], e.g. ell+:2")
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=1000)

    for name in ("ac", "wavefront"):
        p = add(name, _cmd_ac, "asymptotic cone of a catalog representation's support",
                command="ac")
        p.add_argument("--rep", required=True)
        p.add_argument("--samples", type=int, default=6000)
        p.add_argument("--radii", type=str,
                       default=",".join(f"{r:g}" for r in DEFAULT_RADII))
        p.add_argument("--angular-tol", type=float, default=0.05)

    p = add("dual", _cmd_dual, "dual of a polyhedral cone")
    p.add_argument("--generators", required=True, help="semicolon-separated vectors")

    p = add("induce", _cmd_induce, "induced cone of a subalgebra pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--sub-cone", default="Zero")
    p.add_argument("--samples", type=int, default=100_000)

    p = add("restrict", _cmd_restrict, "restriction lower bound q(C)")
    p.add_argument("--pair", required=True)
    p.add_argument("--cone", default=None, help="exact cone name or 'quaternionic'")
    p.add_argument("--rep", default=None)
    p.add_argument("--samples", type=int, default=40_000)

    p = add("tempered", _cmd_tempered, "weak-containment certificate")
    p.add_argument("--pair", required=True)

    p = add("saturation", _cmd_saturation, "is the saturated annihilator everything")
    p.add_argument("--pair", required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = add("tensor", _cmd_tensor, "tensor-pair sum classification")
    p.add_argument("--rep", required=True, help="tensor(n,s,m,s) label")
    p.add_argument("--samples", type=int, default=10_000)

    p = add("golden-table", _cmd_golden_table, "recompute the rank-one catalog")
    p.add_argument("--samples", type=int, default=6000)
    p.add_argument("--angular-tol", type=float, default=0.05)

    p = add("measure-scan", _cmd_measure_scan, "density ratio growth along an orbit")
    p.add_argument("--algebra", default="sl2R")
    p.add_argument("--orbit", default="hyp:1")
    p.add_argument("--samples", type=int, default=25)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # --help returns 0, a parser error 2
        return e.code
    t0 = time.perf_counter()
    out_dir = Path(args.out)
    try:
        base = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not base.is_dir():
            raise OrbitConeError(f"--out {args.out}: {base} is not a directory")
        config = _config(args)
        run = args.func(args)
    except OrbitConeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    timings = {"recorded": False}
    if args.timings:
        timings = {"recorded": True, "wall_seconds": time.perf_counter() - t0,
                   **run.timings}
    out_dir.mkdir(parents=True, exist_ok=True)
    for key, (name, header, rows) in run.tables.items():
        _write_csv(out_dir / name, header, rows)
        config["outputs"][key] = name
    report = {"config": config, "inputs": run.inputs, "result": run.result,
              "certificates": run.certificates, "timings": timings}
    (out_dir / "report.json").write_text(
        json.dumps(_clean(report), sort_keys=True, indent=2) + "\n"
    )
    return run.code


if __name__ == "__main__":
    sys.exit(main())
