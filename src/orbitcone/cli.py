"""Command-line front end: batch runs with reproducible reports.

Every subcommand writes report.json with sections {config, inputs,
result, certificates, timings}.  Reports are byte-deterministic for a
fixed configuration: timings are only recorded when --timings is passed,
since wall-clock values would break determinism.  Point clouds and
direction sets go to CSV side files with one coordinate column per basis
element.

Exit codes: 0 success, 2 validation error, 3 mathematically inconclusive
(a saturation search that exhausts its budget without a verdict, or a
tempered check that answers Unknown because the weights are not integral).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from .catalog import (
    GOLDEN_ROWS,
    golden_table,
    quaternionic_wf,
    representation,
    sopq_family,
    tensor_analysis,
    wavefront_of,
)
from .cones import (
    DEFAULT_RADII,
    DEFAULT_RESOLUTION,
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
    decomposability_obstructed,
    induced_cone,
    pair_embedding,
    restriction_class_counts,
    restriction_lower_bound,
    saturation_is_full,
)
from .liealg import build_algebra, classify_batch, classify_element
from .orbits import OrbitParam, density_ratio_F, orbit_sample, sl2_casimir
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


def _parse_vector(text: str) -> np.ndarray:
    try:
        v = np.array([float(x) for x in text.replace(";", ",").split(",") if x.strip() != ""])
    except ValueError as e:
        raise OrbitConeError(f"cannot parse vector {text!r}: {e}") from None
    if not np.all(np.isfinite(v)):
        raise OrbitConeError(f"vector entries must be finite, got {text!r}")
    return v


def _check_numeric_options(args) -> None:
    if args.samples < 1:
        raise OrbitConeError(f"--samples must be at least 1, got {args.samples}")
    if not (np.isfinite(args.angular_tol) and args.angular_tol > 0):
        raise OrbitConeError(
            f"--angular-tol must be finite and positive, got {args.angular_tol}"
        )


def _parse_radii(text: str):
    vals = tuple(_parse_vector(text))
    if len(vals) < 3:
        raise OrbitConeError("--radii needs at least 3 comma-separated values")
    return vals


def _parse_orbit(text: str) -> OrbitParam:
    kind, _, raw = text.partition(":")
    try:
        value = float(raw) if raw != "" else None
    except ValueError:
        raise OrbitConeError(f"cannot parse orbit value in {text!r}") from None
    if value is not None and not np.isfinite(value):
        raise OrbitConeError(f"orbit value must be finite, got {text!r}")
    if kind in ("hyp", "ell+", "ell-") and value is None:
        raise OrbitConeError(f"orbit kind {kind!r} needs a value, e.g. {kind}:1")
    if kind in ("ell+", "ell-") and value <= 0:
        raise OrbitConeError(f"elliptic orbit needs a positive value, got {text!r}")
    return OrbitParam("sl2R", kind, value)


def _parse_pair_spec(text: str) -> str:
    s = text.strip()
    if "|" in s:
        left, right = s.split("|", 1)
        return f"pair({left.strip()}, {right.strip()})"
    return s


def _clean(obj):
    """JSON-ready structure with floats rounded for stable bytes."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return 0.0 if v == 0 else round(v, 12)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_report(out_dir: Path, config: dict, inputs: dict, result: dict,
                  certificates: dict, timings: dict) -> Path:
    report = {
        "config": config,
        "inputs": inputs,
        "result": result,
        "certificates": certificates,
        "timings": timings,
    }
    path = out_dir / "report.json"
    path.write_text(json.dumps(_clean(report), sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.12g}" if isinstance(x, (float, np.floating)) else x
                        for x in row])


def _directions_csv(out_dir: Path, algebra_name: str, dirs) -> str:
    L = build_algebra(algebra_name)
    path = out_dir / "directions.csv"
    _write_csv(path, list(L.basis_names), np.asarray(dirs, dtype=float))
    return str(path)


def _base_config(args, command: str, samples, radii) -> dict:
    return {
        "command": command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "command") and not k.startswith("_")
            and v is not None
        },
        "seed": args.seed,
        "budgets": {"samples": samples, "radii": list(radii)},
        "tolerances": {"angular": args.angular_tol, "numeric": 1e-9},
        "outputs": {"report": "report.json"},
        "claim": CLAIMS[command],
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args, out_dir: Path) -> int:
    L = build_algebra(args.algebra)
    point = _parse_vector(args.point)
    cls = classify_element(L, point)
    config = _base_config(args, "classify", 1, ())
    _write_report(
        out_dir, config,
        {"algebra": L.name, "point": point},
        {"class": cls.tag, "eigen_summary": cls.eigen_summary},
        {}, _timings(args),
    )
    return 0


def _cmd_orbit_sample(args, out_dir: Path) -> int:
    L = build_algebra(args.algebra)
    param = _parse_orbit(args.orbit)
    pts = orbit_sample(L, param, args.samples, seed=args.seed, radius=args.radius)
    path = out_dir / "directions.csv"
    _write_csv(path, list(L.basis_names), pts)
    inv = [sl2_casimir(p) for p in pts[:16]] if L.chart == "sl2" else []
    config = _base_config(args, "orbit-sample", args.samples, ())
    config["outputs"]["points"] = "directions.csv"
    _write_report(
        out_dir, config,
        {"algebra": L.name, "orbit": args.orbit},
        {"count": len(pts), "quadric_invariant_head": inv},
        {}, _timings(args),
    )
    return 0


def _cmd_ac(args, out_dir: Path) -> int:
    spec = representation(args.rep)
    radii = _parse_radii(args.radii)
    cone = wavefront_of(
        spec, radii=radii, samples_per_radius=args.samples, seed=args.seed
    )
    dirs = np.asarray(cone_directions(cone, DEFAULT_RESOLUTION, args.seed))
    _directions_csv(out_dir, spec.orbital_support.algebra, dirs)
    result = {"cone": cone_record(cone), "n_directions": len(dirs)}
    expected = dict(GOLDEN_ROWS).get(spec.label)
    certificates = {}
    if expected is not None:
        ok, defect = cone_equal(
            cone, exact_cone(expected, "sl2R", 3), angular_tol=args.angular_tol
        )
        certificates = {"expected": expected, "match": bool(ok), "defect": defect}
    config = _base_config(args, "ac", args.samples, radii)
    config["outputs"]["directions"] = "directions.csv"
    _write_report(out_dir, config, {"rep": spec.label}, result, certificates,
                  _timings(args))
    return 0


def _cmd_dual(args, out_dir: Path) -> int:
    gens = [
        _parse_vector(part) for part in args.generators.split(";") if part.strip()
    ]
    if len({len(g) for g in gens}) > 1:
        raise OrbitConeError(
            f"generators have different lengths: {[len(g) for g in gens]}"
        )
    cone = polyhedral_cone(np.array(gens))
    dual = dual_cone(cone)
    config = _base_config(args, "dual", 0, ())
    _write_report(
        out_dir, config,
        {"generators": [g.tolist() for g in gens]},
        {"dual": cone_record(dual)},
        {}, _timings(args),
    )
    return 0


def _cmd_induce(args, out_dir: Path) -> int:
    E = pair_embedding(_parse_pair_spec(args.pair))
    S = exact_cone(args.sub_cone, E.sub.name, E.sub.dim)
    cone = induced_cone(E, S, budget=args.samples, seed=args.seed)
    dirs = np.asarray(cone_directions(cone, DEFAULT_RESOLUTION, args.seed))
    counts: dict[str, int] = {}
    if len(dirs):
        for t in classify_batch(E.ambient, dirs):
            counts[str(t)] = counts.get(str(t), 0) + 1
        _directions_csv(out_dir, E.ambient.name, dirs)
    config = _base_config(args, "induce", args.samples, ())
    if len(dirs):
        config["outputs"]["directions"] = "directions.csv"
    _write_report(
        out_dir, config,
        {"pair": E.name, "sub_cone": args.sub_cone,
         "annihilator_dim": int(E.complement_q.shape[0])},
        {"cone": cone_record(cone), "class_counts": counts},
        {}, _timings(args),
    )
    return 0


def _cmd_restrict(args, out_dir: Path) -> int:
    E = pair_embedding(_parse_pair_spec(args.pair))
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
        C = wavefront_of(
            spec, seed=args.seed, samples_per_radius=min(args.samples, 6000)
        )
    else:
        raise OrbitConeError("restrict needs --cone or --rep")
    bound = restriction_lower_bound(E, C, seed=args.seed)
    counts = restriction_class_counts(E, C, seed=args.seed)
    dirs = np.asarray(cone_directions(bound, DEFAULT_RESOLUTION, args.seed))
    config = _base_config(args, "restrict", args.samples, ())
    if len(dirs):
        _directions_csv(out_dir, E.sub.name, dirs)
        config["outputs"]["directions"] = "directions.csv"
    _write_report(
        out_dir, config,
        {"pair": E.name, "cone": args.cone or args.rep},
        {"lower_bound": cone_record(bound), "class_counts": counts,
         "discretely_decomposable_obstructed": decomposability_obstructed(counts)},
        {}, _timings(args),
    )
    return 0


def _cmd_tempered(args, out_dir: Path) -> int:
    E = pair_embedding(_parse_pair_spec(args.pair))
    cert = bk_weak_containment(E)
    config = _base_config(args, "tempered", 0, ())
    _write_report(
        out_dir, config,
        {"pair": E.name},
        {"verdict": cert.verdict, "witness": cert.witness,
         "rays_checked": cert.rays_checked},
        {"weight_tables": cert.weight_tables},
        _timings(args),
    )
    return 0 if cert.verdict != "Unknown" else 3


def _cmd_saturation(args, out_dir: Path) -> int:
    E = pair_embedding(_parse_pair_spec(args.pair))
    res = saturation_is_full(E, budget=args.samples, seed=args.seed)
    config = _base_config(args, "saturation", args.samples, ())
    _write_report(
        out_dir, config,
        {"pair": E.name, "annihilator_dim": int(E.complement_q.shape[0])},
        {"verdict": res.verdict, "detail": res.detail},
        res.certificate,
        _timings(args),
    )
    return 0 if res.verdict in ("true", "false") else 3


def _cmd_tensor(args, out_dir: Path) -> int:
    spec = representation(args.rep)
    m = re.fullmatch(r"tensor\((\d+),([+-]),(\d+),([+-])\)", spec.label)
    if not m:
        raise OrbitConeError("tensor subcommand needs a tensor(n,s,m,s) label")
    report = tensor_analysis(
        int(m.group(1)), m.group(2), int(m.group(3)), m.group(4),
        samples=args.samples, seed=args.seed,
    )
    config = _base_config(args, "tensor", args.samples, ())
    _write_report(
        out_dir, config,
        {"rep": spec.label},
        report,
        {}, _timings(args),
    )
    return 0


def _cmd_golden_table(args, out_dir: Path) -> int:
    rows = golden_table(
        seed=args.seed, samples_per_radius=args.samples, angular_tol=args.angular_tol
    )
    all_ok = all(r["ok"] for r in rows)
    config = _base_config(args, "golden-table", args.samples, DEFAULT_RADII)
    _write_report(
        out_dir, config,
        {"rows": [r["label"] for r in rows]},
        {
            "rows": [
                {k: r[k] for k in ("label", "expected", "defect", "ok")}
                for r in rows
            ],
            "all_ok": all_ok,
        },
        {},
        _timings(args, rows=[{"label": r["label"], "seconds": r["seconds"]} for r in rows]),
    )
    for r in rows:
        status = "pass" if r["ok"] else "FAIL"
        print(f"{status}  {r['label']:18s} -> {r['expected']:16s} defect {r['defect']:.4f}")
    return 0 if all_ok else 1


def _cmd_measure_scan(args, out_dir: Path) -> int:
    L = build_algebra(args.algebra)
    param = _parse_orbit(args.orbit)
    base = {"hyp": param.value or 1.0, "ell+": param.value or 1.0,
            "ell-": param.value or 1.0}.get(param.kind, 1.0)
    lo = base * np.sqrt(2.0) * 1.0001 if param.kind != "zero" else 1.0
    norms = np.geomspace(max(1.0, lo), 100.0 * max(1.0, base), args.samples)
    rows = []
    for t in norms:
        pts = orbit_sample(L, param, 8, seed=args.seed, radius=t)
        # keep the sample closest to the requested norm, then rescan F
        k = np.argmin(np.abs(np.linalg.norm(pts, axis=1) - t))
        f = density_ratio_F(L, pts[k])
        rows.append((float(np.linalg.norm(pts[k])), float(f)))
    rows.sort()
    path = out_dir / "fscan.csv"
    _write_csv(path, ["norm", "F"], rows)
    slope = float(np.polyfit(np.log1p([r[0] for r in rows]),
                             [np.log(max(r[1], 1e-300)) for r in rows], 1)[0])
    config = _base_config(args, "measure-scan", args.samples, ())
    config["outputs"]["fscan"] = "fscan.csv"
    _write_report(
        out_dir, config,
        {"algebra": L.name, "orbit": args.orbit},
        {"slope": slope, "n_points": len(rows)},
        {"bound": "slope <= dim(orbit)/2 + margin"},
        _timings(args),
    )
    return 0


def _timings(args, **extra) -> dict:
    """Wall-clock section; ``extra`` timing entries are kept only with --timings."""
    if getattr(args, "timings", False):
        return {"recorded": True, "wall_seconds": time.perf_counter() - args._t0, **extra}
    return {"recorded": False}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitcone",
        description="Coadjoint-orbit cone computations: classification, "
        "asymptotic cones, induction and restriction bounds, the "
        "weak-containment test, and the golden catalog.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, samples_default=10_000):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--radii", type=str,
                       default=",".join(f"{r:g}" for r in DEFAULT_RADII))
        p.add_argument("--angular-tol", type=float, default=0.05)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--timings", action="store_true")

    p = sub.add_parser("classify", help="element class of a dual point")
    p.add_argument("--algebra", required=True)
    p.add_argument("--point", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orbit-sample", help="sample one coadjoint orbit")
    p.add_argument("--algebra", default="sl2R")
    p.add_argument("--orbit", required=True, help="kind[:value], e.g. ell+:2")
    p.add_argument("--radius", type=float, default=10.0)
    common(p, samples_default=1000)
    p.set_defaults(func=_cmd_orbit_sample)

    for name in ("ac", "wavefront"):
        p = sub.add_parser(
            name, help="asymptotic cone of a catalog representation's support"
        )
        p.add_argument("--rep", required=True)
        common(p, samples_default=6000)
        p.set_defaults(func=_cmd_ac, canonical="ac")

    p = sub.add_parser("dual", help="dual of a polyhedral cone")
    p.add_argument("--generators", required=True, help="semicolon-separated vectors")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("induce", help="induced cone of a subalgebra pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--sub-cone", default="Zero")
    common(p, samples_default=100_000)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("restrict", help="restriction lower bound q(C)")
    p.add_argument("--pair", required=True)
    p.add_argument("--cone", default=None,
                   help="exact cone name or 'quaternionic'")
    p.add_argument("--rep", default=None)
    common(p, samples_default=40_000)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("tempered", help="weak-containment certificate")
    p.add_argument("--pair", required=True)
    common(p)
    p.set_defaults(func=_cmd_tempered)

    p = sub.add_parser("saturation", help="is the saturated annihilator everything")
    p.add_argument("--pair", required=True)
    common(p, samples_default=100_000)
    p.set_defaults(func=_cmd_saturation)

    p = sub.add_parser("tensor", help="tensor-pair sum classification")
    p.add_argument("--rep", required=True, help="tensor(n,s,m,s) label")
    common(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("golden-table", help="recompute the rank-one catalog")
    common(p, samples_default=6000)
    p.set_defaults(func=_cmd_golden_table)

    p = sub.add_parser("measure-scan", help="density ratio growth along an orbit")
    p.add_argument("--algebra", default="sl2R")
    p.add_argument("--orbit", default="hyp:1")
    common(p, samples_default=25)
    p.set_defaults(func=_cmd_measure_scan)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args._t0 = time.perf_counter()
    out_dir = Path(args.out)
    try:
        _check_numeric_options(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, out_dir)
    except OrbitConeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
