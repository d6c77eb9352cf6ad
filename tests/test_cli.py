import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitcone import (
    OrbitParam,
    build_algebra,
    cli,
    make_embedding,
    orbit_sample,
    pair_embedding,
    quaternionic_wf,
    restriction_class_counts,
    sl2_casimir,
)
from orbitcone import cones, induction
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


@pytest.mark.parametrize("algebra,dim", [("sl2R", 3), ("so(2,2)", 6)])
def test_classify_overflowing_point_exits_2_without_report(tmp_path, capsys, algebra, dim):
    # the eigenvalues of the point are past the float range; at 1e300 they
    # are not, and the point is classified
    code, _, out = run(["classify", "--algebra", algebra, "--point", ",".join(["1e308"] * dim)],
                       tmp_path)
    assert code == 2
    assert not out.exists()
    assert "overflow" in capsys.readouterr().err
    code, rep, _ = run(["classify", "--algebra", algebra, "--point", ",".join(["1e300"] * dim)],
                       tmp_path, "huge")
    assert code == 0
    assert np.all(np.isfinite(rep["result"]["eigen_summary"]))
    assert np.max(np.abs(rep["result"]["eigen_summary"])) > 1e299


def test_floats_that_round_to_zero_are_written_as_zero():
    # rounding keeps the sign of noise: round(-1e-17, 12) is -0.0
    out = cli._clean({"w": [-1e-17, np.float64(-4e-13), -0.0, -2.4e-12, 1.0]})
    assert json.dumps(out) == '{"w": [0.0, 0.0, 0.0, -2e-12, 1.0]}'


def _csv_by_cells(path, header, rows):
    """The per-cell csv.writer table writer the templated rows replaced, as
    a reference."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.12g}" for x in row])


@pytest.mark.parametrize("header,rows", [
    (["x", "y", "z"], np.array([[-0.0, 5e-324, 1e300], [1.0, 0.1 + 0.2, 123456789012.5]])),
    (["x", "y", "z"], np.zeros((0, 3))),
    (["norm", "F"], [(1.5, 2.0), (0.1 + 0.2, -1e-300)]),
    (["norm", "F"], []),
    (["a", "b", "c", "d"], np.random.default_rng(0).standard_normal((4097, 4))),  # 16 chunks + 1 row
    (["a", "b"], np.random.default_rng(1).standard_normal((256, 2))),  # one whole chunk
    (["a", "b"], np.random.default_rng(2).standard_normal((257, 2))),  # one chunk + 1 row
    (["x", "y", "z"], np.array([[np.nan, np.inf, -np.inf], [1.0, -np.nan, 2.0]])),
])
def test_csv_rows_match_the_per_cell_writer(tmp_path, header, rows):
    cli._write_csv(tmp_path / "new.csv", header, rows)
    _csv_by_cells(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
        # options a subcommand does not take, and values read as option names
        ["tempered", "--pair", "so(3,1)|blocks[(1,1),(2,0)]", "--radii", "1,2,3"],
        ["classify", "--algebra", "sl2R", "--point", "1,0,1", "--samples", "5"],
        ["dual", "--generators", "1,0;0,1", "--angular-tol", "0.1"],
        ["golden-table", "--angular-tol", "-inf"],
        # --radii, which no parser takes, and scans whose orbit samples overflow
        ["wavefront", "--rep", "sigma_hyp:0:+", "--radii=-3,-2,-1"],
        ["wavefront", "--rep", "sigma_hyp:1:+-", "--radii=1e100,1e200,1e300"],
        ["wavefront", "--rep", "L2_GK", "--radii=1e100,1e200,1e300"],
        ["wavefront", "--rep", "L2_GK", "--radii=0,10,100"],
        ["measure-scan", "--orbit", "hyp:1e300", "--samples", "4"],
        ["measure-scan", "--orbit", "ell+:1e160"],
        # hyp values below 0: nu and -nu name one orbit, so -nu is refused
        ["orbit-sample", "--orbit", "hyp:-50", "--radius", "10"],
        ["measure-scan", "--orbit", "hyp:-3"],
        ["orbit-sample", "--orbit", "hyp:-0.5"],
        # quadric cone names on algebras without the sl2 chart
        ["restrict", "--pair", "su(2,1)|so(2,1)", "--cone", "HypClosure"],
        ["induce", "--pair", "so(2,2)|blocks[(2,2)]", "--sub-cone", "HypClosure"],
        ["induce", "--pair", "so(3,1)|blocks[(3,0),(0,1)]", "--sub-cone", "Nplus"],
        ["dual", "--generators", ";"],
        # blocks specs whose body is not a list of nonempty (p_i,q_i) blocks
        ["tempered", "--pair", "so(3,1)|blocks[(2,1),foo]"],
        ["tempered", "--pair", "so(3,1)|blocks[(2,1)(1,0)]"],
        ["tempered", "--pair", "so(3,1)|blocks[(2,1),(1,0),]"],
        ["tempered", "--pair", "so(3,1)|blocks[(0,0),(2,1)]"],
        # a sigma_hyp parameter that is not a number
        ["ac", "--rep", "sigma_hyp:1.2.3:+"],
        ["ac", "--rep", "sigma_hyp:.:+"],
        # a value on an orbit kind that takes none
        ["orbit-sample", "--orbit", "nil+:5"],
        ["measure-scan", "--orbit", "nil-:2"],
        # the zero orbit has no tangent space to scan
        ["measure-scan", "--orbit", "zero"],
        # no orbit kind samples from a given point
        ["orbit-sample", "--orbit", "point"],
        # catalog labels whose parentheses do not balance
        ["ac", "--rep", "sigma_disc(3,+"],
        ["ac", "--rep", "sigma_disc:3:+)"],
        ["ac", "--rep", "tensor(3,+,2,-"],
        # a representation over another algebra than the pair's ambient
        ["restrict", "--pair", "su(2,1)|so(2,1)", "--rep", "L2_GK"],
        # documented exits that no other run reaches
        ["induce", "--pair", "sl2R|a", "--samples", "999"],
        ["tempered", "--pair", "so(2,0)|blocks[(1,0),(1,0)]"],
        ["tempered", "--pair", "so(3,1)|blocks[(1,1)"],
        ["tempered", "--pair", "so(3,1)|sl2R"],
        ["tempered", "--pair", "so(5,5)|blocks[(5,5)]"],
        ["dual", "--generators", "1,0,0,0,0,0,0,0,0"],
        ["tempered", "--pair", "foo"],
        # orbit values above 1e150 and radii below 1e-150: the squares of
        # the sample points would overflow or underflow
        ["orbit-sample", "--orbit", "ell+:1e155"],
        ["ac", "--rep", "sigma_disc:1" + "0" * 160 + ":+"],
        ["orbit-sample", "--orbit", "nil+", "--radius", "1e-200"],
    ],
    ids=["orbit-value", "radii", "ragged-generators", "ell-zero", "point-nan",
         "radii-inf", "samples-negative", "samples-zero", "orbit-samples-negative",
         "scan-samples-zero", "saturation-samples-zero", "angular-tol-nan",
         "angular-tol-zero", "angular-tol-neg-inf", "unknown-cone", "radius-nan",
         "radius-negative", "radius-zero", "radius-inf", "scan-samples-one",
         "radius-huge", "orbit-value-huge",
         "tempered-radii", "classify-samples", "dual-angular-tol",
         "angular-tol-neg-inf-spaced", "radii-negative", "radii-huge",
         "radii-huge-union", "radii-zero", "scan-hyp-huge", "scan-ell-huge",
         "hyp-negative", "scan-hyp-negative", "hyp-negative-small",
         "restrict-quadric-su21", "induce-quadric-so22", "induce-quadric-so3",
         "dual-no-generators", "blocks-junk", "blocks-missing-comma",
         "blocks-trailing-comma", "blocks-empty-block", "sigma-hyp-two-points",
         "sigma-hyp-point-only", "nil-value", "scan-nil-value", "scan-zero-orbit",
         "orbit-point", "label-unclosed", "label-colon-closed", "tensor-unclosed",
         "restrict-rep-ambient", "induce-samples-few", "blocks-all-trivial",
         "blocks-unclosed", "pair-not-in-catalog", "split-dim-too-large",
         "dual-dim-9", "pair-unknown", "orbit-value-above-max", "rep-value-above-max",
         "radius-tiny"],
)
def test_bad_input_exits_2_without_report(tmp_path, capsys, args):
    code, _, out = run(args, tmp_path)
    assert code == 2
    assert not out.exists()  # no report, no side file, not even the directory
    err = capsys.readouterr().err
    assert "error:" in err
    if args[-1] == "point":
        assert "orbit kind 'point'" in err
    if "hyp:-" in " ".join(args):
        assert "needs a nonnegative value" in err


@pytest.mark.parametrize("value", ["1e-300", "1e-200"])
def test_tiny_elliptic_values_sample_their_sheet(tmp_path, value):
    # the sheet of ell+:v is the upper nilpotent half-cone to within v^2
    code, _, out = run(["orbit-sample", "--orbit", f"ell+:{value}"], tmp_path)
    assert code == 0
    pts = np.loadtxt(out / "directions.csv", delimiter=",", skiprows=1)
    assert pts.shape == (1000, 3) and np.all(np.isfinite(pts)) and np.all(pts[:, 2] > 0)
    exact = orbit_sample(build_algebra("sl2R"), OrbitParam("sl2R", "ell+", float(value)), 1000)
    assert np.allclose(pts, exact, rtol=1e-11, atol=0.0)
    assert np.all(np.abs(sl2_casimir(exact)) <= 1e-15 * np.sum(exact**2, axis=1))


@pytest.mark.parametrize("radius", [1e-12, 1e-150])
@pytest.mark.parametrize("orbit", ["nil+", "hyp:0"])
def test_tiny_radii_keep_their_norms(tmp_path, orbit, radius):
    code, _, out = run(["orbit-sample", "--orbit", orbit, "--radius", str(radius),
                        "--samples", "200"], tmp_path)
    assert code == 0
    norms = np.linalg.norm(np.loadtxt(out / "directions.csv", delimiter=",", skiprows=1), axis=1)
    assert np.all(norms >= radius * (1 - 1e-11)) and np.all(norms <= 2 * radius * (1 + 1e-11))


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


CHUNKED_RUNS = [
    ["golden-table", "--seed", "0"],
    ["induce", "--pair", "sl2R|a", "--samples", "100000"],
    ["induce", "--pair", "so(2,2)|blocks[(1,1),(1,1)]", "--samples", "4000"],
]


@pytest.mark.slow
@pytest.mark.parametrize("gram, ring, move", [(2 * 10**4, 64, 100), (5 * 10**7, 1 << 20, 10**6)],
                         ids=["small", "large"])
def test_reports_do_not_depend_on_chunk_sizes(tmp_path, monkeypatch, gram, ring, move):
    # the chunk sizes bound memory only: every file keeps its bytes
    def files(sub):
        outs = [run(args, tmp_path, f"{sub}{i}")[2] for i, args in enumerate(CHUNKED_RUNS)]
        return [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]

    want = files("default")
    monkeypatch.setattr(cones, "_GRAM_CUT", gram)
    monkeypatch.setattr(cones, "_RING_CHUNK", ring)
    monkeypatch.setattr(induction, "_MOVE_CHUNK", move)
    assert files("chunked") == want


@pytest.mark.slow
def test_reports_do_not_depend_on_threads_or_hash_seed(tmp_path):
    # fresh processes with 1 and 2 BLAS/OpenMP threads and two hash seeds
    # write the same bytes
    runs = [["golden-table", "--seed", "0"],
            ["induce", "--pair", "so(2,2)|blocks[(1,1),(1,1)]", "--samples", "4000",
             "--seed", "3"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def files(n):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n,
               "PYTHONHASHSEED": n, "PYTHONPATH": path}
        outs = [tmp_path / f"{n}-{i}" for i in range(len(runs))]
        for args, out in zip(runs, outs):
            subprocess.run([sys.executable, "-m", "orbitcone.cli", *args, "--out", str(out)],
                           env=env, check=True, capture_output=True)
        return [_files(out) for out in outs]

    assert files("1") == files("2")


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


def test_saturation_reaches_so54(tmp_path):
    # the complement of so(5)+so(4) is the boosts: every regular element
    # of it lies in the split Cartan class (0, 4), so the search runs out
    code, rep, _ = run(
        ["saturation", "--pair", "so(5,4)|blocks[(5,0),(0,4)]", "--samples", "2000"], tmp_path
    )
    assert code == 3
    assert rep["result"]["verdict"] == "unknown"
    assert rep["certificates"]["draws"] == 2048
    assert list(rep["certificates"]["witnesses"]) == ["(0, 4)"]


def test_tempered_non_integral_weights_exits_2(tmp_path, monkeypatch, capsys):
    # every catalog pair has integral weights; this hand-built one does not
    E = make_embedding(build_algebra("sl2R"), build_algebra("a"), [[0.3, 0, 0]])
    monkeypatch.setattr(cli, "pair_embedding", lambda spec: E)
    code, rep, out = run(["tempered", "--pair", "pair(sl2R, a)"], tmp_path)
    assert code == 2
    assert rep is None and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not integral" in err


def test_saturation_false_exits_0(tmp_path):
    code, rep, _ = run(
        ["saturation", "--pair", "pair(sl2R, so(2))", "--samples", "5000"], tmp_path
    )
    assert code == 0  # definite answer, even when the answer is no
    assert rep["result"]["verdict"] == "false"


@pytest.mark.parametrize("pair", ["sl2R|sl2R", "so(2,1)|blocks[(2,1)]"])
def test_saturation_of_a_trivial_complement_is_false(tmp_path, pair):
    code, rep, _ = run(["saturation", "--pair", pair], tmp_path)
    assert code == 0
    assert rep["inputs"]["annihilator_dim"] == 0
    assert rep["result"]["verdict"] == "false"
    assert rep["certificates"] == {}


@pytest.fixture(scope="module")
def tensor_wavefront(tmp_path_factory):
    """The directions of wavefront --rep tensor:3:+:3:+, one row each, and
    the csv header."""
    out = tmp_path_factory.mktemp("tensor") / "out"
    code = cli.main(["wavefront", "--rep", "tensor:3:+:3:+", "--out", str(out)])
    with open(out / "directions.csv") as fh:
        rows = list(csv.reader(fh))
    return code, rows[0], np.array(rows[1:], dtype=float)


def test_tensor_wavefront_lies_in_the_product_of_upper_nappes(tensor_wavefront):
    code, header, dirs = tensor_wavefront
    assert code == 0
    assert len(header) == 6 and dirs.shape[1] == 6
    for part in (dirs[:, :3], dirs[:, 3:]):
        scale = np.einsum("ij,ij->i", part, part)
        assert np.all(sl2_casimir(part) <= 1e-9 * scale)
        assert np.all(part[:, 2] >= 0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the tensor factors are sampled at "
                   "one radius, so the far filter never keeps a bounded factor")
def test_tensor_wavefront_reaches_both_factor_axes(tensor_wavefront):
    # Nplus x Nplus holds directions with either factor zero, so the mixing
    # angle atan(|xi_2| / |xi_1|) must reach both ends of [0, 90] degrees
    _, _, dirs = tensor_wavefront
    mixing = np.degrees(np.arctan2(np.linalg.norm(dirs[:, 3:], axis=1),
                                   np.linalg.norm(dirs[:, :3], axis=1)))
    assert mixing.min() <= 5.0 and mixing.max() >= 85.0


def test_induce_writes_class_counts(tmp_path):
    code, rep, out = run(
        ["induce", "--pair", "pair(sl2R, a)", "--samples", "20000"], tmp_path
    )
    assert code == 0
    counts = rep["result"]["class_counts"]
    assert set(counts) >= {"Elliptic", "Hyperbolic", "Nilpotent"}
    assert (out / "directions.csv").exists()


def test_induce_without_directions_counts_zero(tmp_path):
    # h = g: the annihilator is 0 and the induced cone of Zero is Zero
    code, rep, out = run(
        ["induce", "--pair", "sl2R|sl2R", "--sub-cone", "Zero", "--samples", "2000"],
        tmp_path,
    )
    assert code == 0
    assert rep["result"]["cone"]["name"] == "Zero"
    assert rep["result"]["class_counts"] == {"Zero": 1}
    assert not (out / "directions.csv").exists()


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


@pytest.mark.parametrize("pair", ["so(2,2)|blocks[(1,1),(1,1)]", "sl2R|a"])
def test_restriction_to_a_split_torus_is_obstructed(tmp_path, pair):
    # every direction of q(Full) is a nonzero element of a split torus:
    # hyperbolic, outside the closed elliptic set
    code, rep, _ = run(["restrict", "--pair", pair, "--cone", "Full"], tmp_path)
    assert code == 0
    assert set(rep["result"]["class_counts"]) == {"Hyperbolic"}
    assert rep["result"]["discretely_decomposable_obstructed"] is True


@pytest.mark.parametrize("pair,rep,classes,obstructed", [
    ("sl2R|a", "sigma_disc:3:+", {"Hyperbolic"}, True),
    ("sl2R|so(2)", "L2_GK", {"Elliptic"}, False),
])
def test_restrict_rep_runs_its_reported_samples(
    tmp_path, monkeypatch, pair, rep, classes, obstructed
):
    calls, wavefront_of = [], cli.wavefront_of

    def recorded(spec, **kw):
        calls.append(kw["samples"])
        return wavefront_of(spec, **kw)

    monkeypatch.setattr(cli, "wavefront_of", recorded)
    code, report, _ = run(["restrict", "--pair", pair, "--rep", rep], tmp_path)
    assert code == 0
    assert calls == [report["config"]["budgets"]["samples"]] == [40_000]
    assert set(report["result"]["class_counts"]) == classes
    assert report["result"]["discretely_decomposable_obstructed"] is obstructed


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


@pytest.mark.parametrize("label,message", [
    ("L2_GK", "tensor subcommand needs a tensor(n,s,m,s) label"),
    ("tensor:2:+", "unknown representation label 'tensor:2:+'"),
])
def test_tensor_subcommand_needs_a_tensor_label(tmp_path, capsys, label, message):
    code, _, out = run(["tensor", "--rep", label], tmp_path)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


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
        assert "--radii" not in opts, name
        assert ("--angular-tol" in opts) == (
            name in ("ac", "wavefront", "golden-table")
        ), name
    shared = COMMON | {"--samples", "--angular-tol"}
    assert sum(len(_options(p) & shared) for p in parsers.values()) == 48


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_one_parser_serves_back_to_back_calls(tmp_path, capsys):
    # the parser is built once per process; parsing must leave no state in
    # it, whatever the previous call parsed, rejected or printed
    assert cli.build_parser() is cli.build_parser()
    tempered = ["tempered", "--pair", "so(3,1)|blocks[(1,1),(2,0)]"]
    wave = ["--rep", "sigma_disc:3:+", "--samples", "500"]
    calls = [
        ("tempered", tempered, 0),
        ("wavefront", ["wavefront", *wave], 0),
        ("ac", ["ac", *wave], 0),
        ("bad", ["tempered", "--pair", "sl2R|a", "--samples", "5"], 2),
        ("help", ["--help"], 0),
        ("again", tempered, 0),
    ]
    for sub, args, want in calls:
        assert cli.main(args + ["--out", str(tmp_path / sub)]) == want, sub
    streams = capsys.readouterr()
    assert "unrecognized arguments: --samples 5" in streams.err
    assert "usage: orbitcone" in streams.out
    for sub in ("bad", "help"):
        assert not (tmp_path / sub).exists()
    assert _files(tmp_path / "again") == _files(tmp_path / "tempered")
    # wavefront is ac under another name, down to the report bytes
    assert _files(tmp_path / "wavefront") == _files(tmp_path / "ac")
    report = json.loads((tmp_path / "wavefront" / "report.json").read_text())
    assert report["config"]["command"] == "ac"


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
