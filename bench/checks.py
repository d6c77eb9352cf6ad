"""Report checks: one per job kind, each returning a failure reason or None.

A check reads only what the job wrote into its output directory, plus
what the workload knows about the job (``Job.expect``).  The benchmark
runs the checks after a pass, outside every job timer.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

GOLDEN_TOL = 0.05
KNOWN_TAGS = {"Zero", "Elliptic", "Hyperbolic", "Nilpotent", "Mixed"}
RANK_ONE_TAGS = ("Elliptic", "Hyperbolic", "Nilpotent")
MIN_CLASS_SHARE = 0.01


def csv_rows(path: Path) -> int:
    """Data rows of a CSV side file (header excluded)."""
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def bk_contained(p: int, q: int, blocks) -> bool:
    """Closed-form BK verdict for a block pair inside so(p,q):
    2(a+b) <= p+q+2 for every block (a, b) with a*b != 0."""
    return all(2 * (a + b) <= p + q + 2 for a, b in blocks if a * b != 0)


def _counts_match_csv(report: dict, out_dir: Path):
    counts = report["result"]["class_counts"]
    unknown = set(counts) - KNOWN_TAGS
    if unknown:
        return f"unknown class tags {sorted(unknown)}"
    rows = csv_rows(out_dir / "directions.csv")
    if sum(counts.values()) != rows:
        return f"class counts sum to {sum(counts.values())}, directions.csv has {rows} rows"
    return None


def check_golden(report: dict, out_dir: Path, expect: dict):
    cert = report["certificates"]
    if cert.get("expected") != expect["expected"]:
        return f"expected cone {cert.get('expected')!r}, want {expect['expected']!r}"
    if cert.get("match") is not True:
        return f"certificate does not match (defect {cert.get('defect')})"
    if not cert["defect"] <= GOLDEN_TOL:
        return f"defect {cert['defect']} above {GOLDEN_TOL}"
    return None


def check_induce(report: dict, out_dir: Path, expect: dict):
    return _counts_match_csv(report, out_dir)


def check_induce_split_line(report: dict, out_dir: Path, expect: dict):
    bad = _counts_match_csv(report, out_dir)
    if bad:
        return bad
    counts = report["result"]["class_counts"]
    total = sum(counts.values())
    for tag in RANK_ONE_TAGS:
        if counts.get(tag, 0) < MIN_CLASS_SHARE * total:
            return f"{tag} holds {counts.get(tag, 0)} of {total} directions, under 1%"
    return None


def check_induce_compact_line(report: dict, out_dir: Path, expect: dict):
    bad = _counts_match_csv(report, out_dir)
    if bad:
        return bad
    n = report["result"]["class_counts"].get("Elliptic", 0)
    return f"{n} Elliptic directions, want none" if n else None


def check_restrict_quaternionic(report: dict, out_dir: Path, expect: dict):
    result = report["result"]
    missing = [t for t in RANK_ONE_TAGS if not result["class_counts"].get(t)]
    if missing:
        return f"classes {missing} missing from q(N)"
    if result["discretely_decomposable_obstructed"] is not True:
        return "restriction is not obstructed"
    return None


def check_saturation(report: dict, out_dir: Path, expect: dict):
    verdict = report["result"]["verdict"]
    if verdict == "unknown":
        return None
    if verdict != "true":
        return f"verdict {verdict!r}, want 'true' or 'unknown'"
    cert = report["certificates"]
    if sorted(cert["witnesses"]) != sorted(cert["classes"]):
        return f"witnesses {sorted(cert['witnesses'])} for classes {cert['classes']}"
    return None


def check_blocks(report: dict, out_dir: Path, expect: dict):
    result = report["result"]
    want = "Contained" if bk_contained(expect["p"], expect["q"], expect["blocks"]) else "Violated"
    if result["verdict"] != want:
        return f"verdict {result['verdict']!r}, want {want!r}"
    if want == "Violated":
        w = result["witness"]
        if not w["two_rho_sub"] > w["rho_ambient"]:
            return f"witness has two_rho_sub {w['two_rho_sub']} <= rho_ambient {w['rho_ambient']}"
    return None


CHECKS = {
    "golden": check_golden,
    "induce": check_induce,
    "induce_split_line": check_induce_split_line,
    "induce_compact_line": check_induce_compact_line,
    "restrict_quaternionic": check_restrict_quaternionic,
    "saturation": check_saturation,
    "blocks": check_blocks,
}


def check_job(job, code, out_dir: Path):
    """Failure reason for one finished job, or None when it passed."""
    if code not in job.exit_codes:
        return f"exit code {code!r}, want one of {job.exit_codes}"
    try:
        report = json.loads((out_dir / "report.json").read_text())
        return CHECKS[job.check](report, out_dir, job.expect)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {type(e).__name__}: {e}"
