"""Tests of the benchmark's own logic: job generation, report checks and
span arithmetic.  Run with ``python3 -m pytest bench/tests``."""

import json

import pytest

import checks
import tracing
import workloads


# ---------------------------------------------------------------------------
# job generation


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_jobs_are_deterministic_in_the_workload_seed(name):
    assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)
    a, b = workloads.jobs_for(name, 7), workloads.jobs_for(name, 8)
    assert [j.argv for j in a] == [j.argv for j in b]
    assert [j.seed for j in a] != [j.seed for j in b]


def test_job_counts():
    assert len(workloads.jobs_for("golden", 0)) == 10
    assert len(workloads.jobs_for("induction", 0)) == 11
    assert len(workloads.jobs_for("blocks", 0)) == 633


def test_early_saturation_jobs_keep_their_seed():
    for seed in (0, 1, 123):
        early = [j for j in workloads.jobs_for("induction", seed)
                 if j.argv[2] in workloads.SATURATION_EARLY]
        assert [j.seed for j in early] == [workloads.EARLY_SEED] * 2


def test_block_compositions_are_multisets():
    assert workloads.block_compositions(2, 1) == sorted([
        ((2, 1),), ((2, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 0), (1, 0), (0, 1)),
    ])
    pairs = workloads.blocks_pairs()
    assert len(set(map(repr, pairs))) == len(pairs)
    assert all(p >= q and p + q <= 8 for p, q, _ in pairs)
    assert workloads.blocks_spec(3, 1, ((2, 1), (1, 0))) == "so(3,1)|blocks[(2,1),(1,0)]"


# ---------------------------------------------------------------------------
# report checks


def write(tmp_path, report, csv_rows=None):
    (tmp_path / "report.json").write_text(json.dumps(report))
    if csv_rows is not None:
        lines = ["x,y,z"] + ["1,0,0"] * csv_rows
        (tmp_path / "directions.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


def job_of(workload, check):
    return next(j for j in workloads.jobs_for(workload, 0) if j.check == check)


def blocks_job(spec):
    return next(j for j in workloads.jobs_for("blocks", 0) if j.argv[2] == spec)


def test_blocks_check_flags_a_wrong_verdict(tmp_path):
    job = blocks_job("so(4,4)|blocks[(4,4)]")  # 2*8 > 10: violated
    witness = {"ray": [0.5] * 4, "two_rho_sub": 12.0, "rho_ambient": 6.0}
    ok = {"result": {"verdict": "Violated", "witness": witness}}
    assert checks.check_job(job, 0, write(tmp_path, ok)) is None
    wrong = {"result": {"verdict": "Contained", "witness": None}}
    assert "want 'Violated'" in checks.check_job(job, 0, write(tmp_path, wrong))
    weak = {"result": {"verdict": "Violated",
                       "witness": dict(witness, two_rho_sub=6.0)}}
    assert "two_rho_sub" in checks.check_job(job, 0, write(tmp_path, weak))


def test_bk_formula():
    assert checks.bk_contained(3, 1, [(2, 1), (1, 0)])
    assert not checks.bk_contained(4, 4, [(4, 4)])
    assert checks.bk_contained(4, 4, [(4, 0), (0, 4)])  # no mixed block


def test_induce_check_flags_counts_that_miss_the_csv(tmp_path):
    job = job_of("induction", "induce")
    report = {"result": {"class_counts": {"Hyperbolic": 3, "Nilpotent": 2}}}
    assert checks.check_job(job, 0, write(tmp_path, report, csv_rows=5)) is None
    assert "sum to 5" in checks.check_job(job, 0, write(tmp_path, report, csv_rows=6))
    odd = {"result": {"class_counts": {"Parabolic": 5}}}
    assert "unknown class" in checks.check_job(job, 0, write(tmp_path, odd, csv_rows=5))


def test_split_line_check_needs_every_class(tmp_path):
    job = job_of("induction", "induce_split_line")
    good = {"result": {"class_counts": {"Hyperbolic": 90, "Elliptic": 5, "Nilpotent": 5}}}
    assert checks.check_job(job, 0, write(tmp_path, good, csv_rows=100)) is None
    thin = {"result": {"class_counts": {"Hyperbolic": 99, "Elliptic": 1}}}
    assert "Nilpotent" in checks.check_job(job, 0, write(tmp_path, thin, csv_rows=100))


def test_compact_line_check_rejects_elliptic(tmp_path):
    job = job_of("induction", "induce_compact_line")
    bad = {"result": {"class_counts": {"Hyperbolic": 9, "Elliptic": 1}}}
    assert "Elliptic" in checks.check_job(job, 0, write(tmp_path, bad, csv_rows=10))


def test_quaternionic_check(tmp_path):
    job = job_of("induction", "restrict_quaternionic")
    counts = {"Elliptic": 4, "Hyperbolic": 20, "Nilpotent": 1}
    good = {"result": {"class_counts": counts, "discretely_decomposable_obstructed": True}}
    assert checks.check_job(job, 0, write(tmp_path, good)) is None
    free = {"result": {"class_counts": counts, "discretely_decomposable_obstructed": False}}
    assert "obstructed" in checks.check_job(job, 0, write(tmp_path, free))
    missing = {"result": {"class_counts": {"Hyperbolic": 20},
                          "discretely_decomposable_obstructed": True}}
    assert "missing" in checks.check_job(job, 0, write(tmp_path, missing))


def test_saturation_check(tmp_path):
    job = job_of("induction", "saturation")
    cert = {"classes": ["(0, 2)", "(1, 1)"], "witnesses": {"(0, 2)": [1.0], "(1, 1)": [2.0]}}
    good = {"result": {"verdict": "true"}, "certificates": cert}
    assert checks.check_job(job, 0, write(tmp_path, good)) is None
    short = {"result": {"verdict": "true"},
             "certificates": dict(cert, witnesses={"(0, 2)": [1.0]})}
    assert "witnesses" in checks.check_job(job, 0, write(tmp_path, short))
    unknown = {"result": {"verdict": "unknown"}, "certificates": cert}
    assert checks.check_job(job, 3, write(tmp_path, unknown)) is None
    assert "exit code 1" in checks.check_job(job, 1, write(tmp_path, unknown))


def test_golden_check(tmp_path):
    job = job_of("golden", "golden")  # sigma_disc:3:+ -> Nplus
    good = {"certificates": {"expected": "Nplus", "match": True, "defect": 0.01}}
    assert checks.check_job(job, 0, write(tmp_path, good)) is None
    far = {"certificates": {"expected": "Nplus", "match": True, "defect": 0.06}}
    assert "defect" in checks.check_job(job, 0, write(tmp_path, far))
    other = {"certificates": {"expected": "N", "match": True, "defect": 0.0}}
    assert "want 'Nplus'" in checks.check_job(job, 0, write(tmp_path, other))


def test_missing_report_is_a_failure(tmp_path):
    job = job_of("golden", "golden")
    assert "unreadable report" in checks.check_job(job, 0, tmp_path)
    assert "raised" in checks.check_job(job, "raised ValueError: x", tmp_path)


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] > b [1, 4] > b [2, 3];  a > c [5, 9]; d [11, 12]
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["d", 11.0, 12.0, None, 1],
    ]
    inclusive, own = tracing.span_times(spans)
    assert inclusive == {"a": 10.0, "b": 3.0, "c": 4.0, "d": 1.0}
    assert own == {"a": 3.0, "b": 3.0, "c": 4.0, "d": 1.0}
    # self times add up to the time covered by root spans
    assert sum(own.values()) == 11.0


def test_tracer_wraps_every_binding_and_restores_them():
    import orbitcone.catalog as catalog
    import orbitcone.cli
    import orbitcone.cones as cones
    import orbitcone.liealg as liealg

    original = cones.dedup_directions
    tracer = tracing.Tracer()
    tracer.install({"cones.dedup_directions": tracing.LAYERS["cones.dedup_directions"],
                    "liealg.build_algebra": None})
    try:
        assert cones.dedup_directions is not original
        assert catalog.dedup_directions is cones.dedup_directions
        tracer.job = "t"
        liealg.build_algebra("sl2R")
        dirs = cones.cone_directions(cones.polyhedral_cone([[1.0, 0.0], [0.0, 1.0]]))
    finally:
        tracer.uninstall()
    assert cones.dedup_directions is original
    assert catalog.dedup_directions is original
    names = [s[0] for s in tracer.spans]
    # cone_directions is not wrapped here, so its internal call is a root span
    assert names == ["liealg.build_algebra", "cones.dedup_directions"]
    assert all(s[4] == "t" for s in tracer.spans)
    assert tracer.counters["cones.dedup_directions.dirs_out"] == len(dirs)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["cones.dedup_directions.keep_ratio"] == pytest.approx(
        len(dirs) / tracer.counters["cones.dedup_directions.dirs_in"])
