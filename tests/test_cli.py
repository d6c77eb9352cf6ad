import csv
import json

import pytest

from orbitcone import build_algebra, cli, make_embedding
from orbitcone.induction import SaturationResult


def run(args, tmp_path, sub=None):
    out = tmp_path / (sub or "out")
    code = cli.main(args + ["--out", str(out)])
    report = out / "report.json"
    return code, (json.loads(report.read_text()) if report.exists() else None), out


def test_classify_reports_nilpotent(tmp_path):
    code, rep, _ = run(
        ["classify", "--algebra", "sl2R", "--point", "1,0,1"], tmp_path
    )
    assert code == 0
    assert rep["result"]["class"] == "Nilpotent"
    for key in ("config", "inputs", "result", "certificates", "timings"):
        assert key in rep
    assert rep["config"]["seed"] == 0
    assert rep["timings"] == {"recorded": False}


def test_report_bytes_are_deterministic(tmp_path):
    args = ["wavefront", "--rep", "sigma_limit:+", "--samples", "1500"]
    _, _, out1 = run(args, tmp_path, "a")
    _, _, out2 = run(args, tmp_path, "b")
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "directions.csv").read_bytes() == (
        out2 / "directions.csv"
    ).read_bytes()


def test_wavefront_certificate_and_csv_header(tmp_path):
    code, rep, out = run(
        ["ac", "--rep", "sigma_disc:3:+", "--samples", "2000"], tmp_path
    )
    assert code == 0
    assert rep["certificates"]["expected"] == "Nplus"
    assert rep["certificates"]["match"] is True
    with open(out / "directions.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "y", "z"]  # one column per basis element


def test_tempered_pipe_form(tmp_path):
    code, rep, _ = run(
        ["tempered", "--pair", "so(3,1)|blocks[(1,1),(2,0)]"], tmp_path
    )
    assert code == 0
    assert rep["result"]["verdict"] == "Contained"
    assert "weight_tables" in rep["certificates"]


def test_validation_errors_exit_2(tmp_path):
    code, _, _ = run(["classify", "--algebra", "nope", "--point", "1"], tmp_path)
    assert code == 2
    code, _, _ = run(["wavefront", "--rep", "sigma_disc:0:+"], tmp_path, "b")
    assert code == 2
    code, _, _ = run(
        ["restrict", "--pair", "pair(sl2R, a)"], tmp_path, "c"
    )  # needs --cone or --rep
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["orbit-sample", "--orbit", "hyp:abc"],
        ["wavefront", "--rep", "L2_GK", "--radii", "1,a,3"],
        ["dual", "--generators", "1,2;3"],
        ["orbit-sample", "--orbit", "ell+:0"],
        ["classify", "--algebra", "sl2R", "--point", "1,0,nan"],
        ["wavefront", "--rep", "L2_GK", "--radii", "10,100,inf"],
        ["wavefront", "--rep", "sigma_disc:3:+", "--samples", "-5"],
        ["wavefront", "--rep", "sigma_disc:3:+", "--samples", "0"],
        ["orbit-sample", "--orbit", "hyp:1", "--samples", "-3"],
        ["measure-scan", "--samples", "0"],
        ["saturation", "--pair", "so(3,1)|blocks[(2,1),(1,0)]", "--samples", "0"],
        ["ac", "--rep", "sigma_disc:3:+", "--angular-tol", "nan"],
        ["ac", "--rep", "sigma_disc:3:+", "--angular-tol", "0"],
        ["golden-table", "--angular-tol=-inf"],
        ["restrict", "--pair", "sl2R|a", "--cone", "Bogus"],
    ],
    ids=["orbit-value", "radii", "ragged-generators", "ell-zero", "point-nan",
         "radii-inf", "samples-negative", "samples-zero", "orbit-samples-negative",
         "scan-samples-zero", "saturation-samples-zero", "angular-tol-nan",
         "angular-tol-zero", "angular-tol-neg-inf", "unknown-cone"],
)
def test_bad_input_exits_2_without_report(tmp_path, args):
    code, rep, out = run(args, tmp_path)
    assert code == 2
    assert rep is None
    assert not (out / "directions.csv").exists()


def test_restrict_names_unknown_cone(tmp_path, capsys):
    code, _, _ = run(["restrict", "--pair", "sl2R|a", "--cone", "Bogus"], tmp_path)
    assert code == 2
    assert "unknown cone 'Bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["pair(sl2R)", "pair(sl2R, a, a)"])
def test_pair_spec_needs_two_arguments(tmp_path, capsys, spec):
    code, rep, _ = run(["tempered", "--pair", spec], tmp_path)
    assert code == 2
    assert rep is None
    assert "needs two arguments" in capsys.readouterr().err


def test_inconclusive_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli,
        "saturation_is_full",
        lambda E, budget=0, seed=0: SaturationResult(
            verdict="unknown", certificate={}, detail="budget exhausted"
        ),
    )
    code, rep, _ = run(
        ["saturation", "--pair", "pair(sl2R, a)", "--samples", "2000"], tmp_path
    )
    assert code == 3
    assert rep["result"]["verdict"] == "unknown"


def test_tempered_unknown_exits_3(tmp_path, monkeypatch):
    # every catalog pair has integral weights; this hand-built one does not
    E = make_embedding(build_algebra("sl2R"), build_algebra("a"), [[0.3, 0, 0]])
    monkeypatch.setattr(cli, "pair_embedding", lambda spec: E)
    code, rep, _ = run(["tempered", "--pair", "pair(sl2R, a)"], tmp_path)
    assert code == 3
    assert rep["result"]["verdict"] == "Unknown"
    assert rep["result"]["rays_checked"] == 0


def test_saturation_false_exits_0(tmp_path):
    code, rep, _ = run(
        ["saturation", "--pair", "pair(sl2R, so(2))", "--samples", "5000"], tmp_path
    )
    assert code == 0  # definite answer, even when the answer is no
    assert rep["result"]["verdict"] == "false"


def test_induce_writes_class_counts(tmp_path):
    code, rep, out = run(
        ["induce", "--pair", "pair(sl2R, a)", "--samples", "20000"], tmp_path
    )
    assert code == 0
    counts = rep["result"]["class_counts"]
    assert set(counts) >= {"Elliptic", "Hyperbolic", "Nilpotent"}
    assert (out / "directions.csv").exists()


def test_golden_table_exit_tracks_rows(tmp_path, capsys):
    code, rep, _ = run(["golden-table", "--samples", "4000"], tmp_path)
    txt = capsys.readouterr().out
    assert len([l for l in txt.splitlines() if l]) == 10
    assert (code == 0) == rep["result"]["all_ok"]


def test_measure_scan_csv(tmp_path):
    code, rep, out = run(
        ["measure-scan", "--orbit", "hyp:1", "--samples", "12"], tmp_path
    )
    assert code == 0
    with open(out / "fscan.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["norm", "F"]
    assert len(rows) == 13
    assert 0.5 <= rep["result"]["slope"] <= 1.6


def test_dual_subcommand(tmp_path):
    code, rep, _ = run(["dual", "--generators", "1,0;0,1"], tmp_path)
    assert code == 0
    gens = rep["result"]["dual"]["generators"]
    assert sorted(map(tuple, gens)) == [(-1.0, 0.0), (0.0, -1.0)]


def test_tensor_subcommand(tmp_path):
    code, rep, _ = run(
        ["tensor", "--rep", "tensor:2:+:3:+", "--samples", "2000"], tmp_path
    )
    assert code == 0
    assert rep["result"]["classes"]["elliptic+"] == 2000


def test_timings_opt_in(tmp_path):
    code, rep, _ = run(
        ["classify", "--algebra", "sl2R", "--point", "0,0,1", "--timings"], tmp_path
    )
    assert code == 0
    assert rep["timings"]["recorded"] is True
    assert rep["timings"]["wall_seconds"] > 0


def test_golden_table_row_times_only_with_timings(tmp_path):
    args = ["golden-table", "--samples", "1000"]
    _, plain, _ = run(args, tmp_path, "plain")
    _, timed, _ = run(args + ["--timings"], tmp_path, "timed")
    assert plain["timings"] == {"recorded": False}
    rows = timed["timings"]["rows"]
    assert [r["label"] for r in rows] == timed["inputs"]["rows"]
    assert all(r["seconds"] > 0 for r in rows)
    assert timed["result"] == plain["result"]
