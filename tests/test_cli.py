import argparse
import csv
import json

import pytest

from orbitcone import (
    build_algebra,
    cli,
    make_embedding,
    pair_embedding,
    quaternionic_wf,
    restriction_class_counts,
)
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


def test_classify_huge_point_is_hyperbolic(tmp_path):
    # the norm of this point overflows unless it is scaled first
    code, rep, _ = run(
        ["classify", "--algebra", "sl2R", "--point", "1e300,0,1"], tmp_path
    )
    assert code == 0
    assert rep["result"]["class"] == "Hyperbolic"


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
        ["orbit-sample", "--orbit", "hyp:1", "--radius", "nan"],
        ["orbit-sample", "--orbit", "hyp:1", "--radius", "-5"],
        ["orbit-sample", "--orbit", "hyp:1", "--radius", "0"],
        ["orbit-sample", "--orbit", "hyp:1", "--radius", "inf"],
        ["measure-scan", "--samples", "1"],
        ["orbit-sample", "--orbit", "hyp:1", "--radius", "1e308"],
        ["orbit-sample", "--orbit", "hyp:1e300"],
        ["orbit-sample", "--orbit", "ell+:1e-300"],
        # options a subcommand does not take, and values read as option names
        ["tempered", "--pair", "so(3,1)|blocks[(1,1),(2,0)]", "--radii", "1,2,3"],
        ["classify", "--algebra", "sl2R", "--point", "1,0,1", "--samples", "5"],
        ["dual", "--generators", "1,0;0,1", "--angular-tol", "0.1"],
        ["golden-table", "--angular-tol", "-inf"],
        # radii outside (0, MAX_RADIUS], and scans whose orbit samples overflow
        ["wavefront", "--rep", "sigma_hyp:0:+", "--radii=-3,-2,-1"],
        ["wavefront", "--rep", "sigma_hyp:1:+-", "--radii=1e100,1e200,1e300"],
        ["wavefront", "--rep", "L2_GK", "--radii=1e100,1e200,1e300"],
        ["wavefront", "--rep", "L2_GK", "--radii=0,10,100"],
        ["measure-scan", "--orbit", "hyp:1e300", "--samples", "4"],
        ["measure-scan", "--orbit", "ell+:1e160"],
    ],
    ids=["orbit-value", "radii", "ragged-generators", "ell-zero", "point-nan",
         "radii-inf", "samples-negative", "samples-zero", "orbit-samples-negative",
         "scan-samples-zero", "saturation-samples-zero", "angular-tol-nan",
         "angular-tol-zero", "angular-tol-neg-inf", "unknown-cone", "radius-nan",
         "radius-negative", "radius-zero", "radius-inf", "scan-samples-one",
         "radius-huge", "orbit-value-huge", "orbit-value-tiny",
         "tempered-radii", "classify-samples", "dual-angular-tol",
         "angular-tol-neg-inf-spaced", "radii-negative", "radii-huge",
         "radii-huge-union", "radii-zero", "scan-hyp-huge", "scan-ell-huge"],
)
def test_bad_input_exits_2_without_report(tmp_path, args):
    code, _, out = run(args, tmp_path)
    assert code == 2
    assert not out.exists()  # no report, no side file, not even the directory


@pytest.mark.parametrize("sub", ["afile", "afile/below"])
def test_out_under_a_regular_file_exits_2_before_running(tmp_path, monkeypatch, capsys, sub):
    (tmp_path / "afile").write_text("keep")

    def must_not_run(*args, **kwargs):
        raise AssertionError("classified before checking --out")

    monkeypatch.setattr(cli, "classify_element", must_not_run)
    code = cli.main(["classify", "--algebra", "sl2R", "--point", "1,0,1",
                     "--out", str(tmp_path / sub)])
    assert code == 2
    assert "is not a directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "keep"


@pytest.mark.parametrize(
    "args",
    [
        ["induce", "--pair", "su(2,1)|so(2,1)", "--samples", "4000", "--seed", "3"],
        ["saturation", "--pair", "so(6,2)|blocks[(5,0),(1,1),(0,1)]",
         "--samples", "2000"],
    ],
    ids=["induce", "saturation"],
)
def test_output_directories_are_byte_identical_across_runs(tmp_path, args):
    outs = [run(args, tmp_path, sub)[2] for sub in ("a", "b")]
    names = [sorted(p.name for p in out.iterdir()) for out in outs]
    assert names[0] == names[1] and "report.json" in names[0]
    for name in names[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_help_returns_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["tempered", "--help"]) == 0
    assert "--pair" in capsys.readouterr().out


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


def test_measure_scan_may_end_at_the_largest_radius(tmp_path):
    # the scan of hyp:1e148 ends at 100 * 1e148, which is MAX_RADIUS itself
    code, rep, _ = run(
        ["measure-scan", "--orbit", "hyp:1e148", "--samples", "4"], tmp_path
    )
    assert code == 0
    assert rep["result"]["slope"] == pytest.approx(1.0, abs=0.05)


def test_restrict_counts_match_restriction_class_counts(tmp_path):
    code, rep, _ = run(
        ["restrict", "--pair", "su(2,1)|so(2,1)", "--cone", "quaternionic",
         "--samples", "8000", "--seed", "3"], tmp_path
    )
    assert code == 0
    E = pair_embedding("pair(su(2,1), so(2,1))")
    C = quaternionic_wf(budget=8000, seed=3)
    assert rep["result"]["class_counts"] == restriction_class_counts(E, C, seed=3)


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


SAMPLED = {"orbit-sample", "ac", "wavefront", "induce", "restrict", "saturation",
           "tensor", "golden-table", "measure-scan"}
COMMON = {"--seed", "--out", "--timings"}


def _parsers():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _options(parser):
    return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


def test_each_parser_takes_only_the_options_it_reads():
    parsers = _parsers()
    assert len(parsers) == 12
    for name, p in parsers.items():
        opts = _options(p)
        assert COMMON <= opts, name
        assert ("--samples" in opts) == (name in SAMPLED), name
        assert ("--radii" in opts) == (name in ("ac", "wavefront")), name
        assert ("--angular-tol" in opts) == (
            name in ("ac", "wavefront", "golden-table")
        ), name
    shared = COMMON | {"--samples", "--radii", "--angular-tol"}
    assert sum(len(_options(p) & shared) for p in parsers.values()) == 50


# one cheap run of every subcommand, and the options it leaves unset (None)
RUNS = {
    "classify": (["--algebra", "sl2R", "--point", "1,0,1"], set()),
    "orbit-sample": (["--orbit", "ell+:2", "--samples", "50"], set()),
    "ac": (["--rep", "sigma_disc:3:+", "--samples", "500"], set()),
    "wavefront": (["--rep", "sigma_disc:3:+", "--samples", "500"], set()),
    "dual": (["--generators", "1,0;0,1"], set()),
    "induce": (["--pair", "sl2R|a", "--samples", "2000"], set()),
    "restrict": (["--pair", "sl2R|a", "--cone", "N", "--samples", "2000"], {"rep"}),
    "tempered": (["--pair", "so(3,1)|blocks[(1,1),(2,0)]"], set()),
    "saturation": (["--pair", "sl2R|so(2)", "--samples", "500"], set()),
    "tensor": (["--rep", "tensor:2:+:3:+", "--samples", "200"], set()),
    "golden-table": (["--samples", "200"], set()),
    "measure-scan": (["--samples", "3"], set()),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_config_echoes_exactly_the_parser_options(tmp_path, name):
    argv, unset = RUNS[name]
    dests = {a.dest for a in _parsers()[name]._actions if a.option_strings}
    _, rep, _ = run([name, *argv], tmp_path)
    config = rep["config"]
    # every option but --out; --timings is echoed as on earlier reports
    assert set(config["arguments"]) == dests - {"help", "out"} - unset
    assert config["command"] == ("ac" if name == "wavefront" else name)
    assert config["seed"] == 0
    assert ("samples" in config["budgets"]) == ("samples" in dests)
    assert ("radii" in config["budgets"]) == ("radii" in dests)
    assert ("angular" in config["tolerances"]) == ("angular_tol" in dests)


def _keys(obj):
    if isinstance(obj, dict):
        return set(obj) | {k for v in obj.values() for k in _keys(v)}
    if isinstance(obj, list):
        return {k for v in obj for k in _keys(v)}
    return set()


@pytest.mark.parametrize(
    "args, key",
    [
        (["ac", "--rep", "sigma_disc:3:+", "--samples", "1000"], "cone"),
        (["induce", "--pair", "sl2R|a", "--samples", "5000"], "cone"),
        (["restrict", "--pair", "sl2R|a", "--cone", "N"], "lower_bound"),
    ],
    ids=["ac", "induce", "restrict"],
)
def test_sampled_cone_directions_live_only_in_csv(tmp_path, args, key):
    code, rep, out = run(args, tmp_path)
    assert code == 0
    record = rep["result"][key]
    assert record["kind"] == "sampled"
    with open(out / "directions.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert record["n_directions"] == len(rows) > 0
    assert "directions" not in _keys(rep["result"]) | _keys(rep["certificates"])
    assert rep["config"]["outputs"]["directions"] == "directions.csv"
