"""Benchmark of the orbitcone CLI: closed-loop batch workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload golden|induction|blocks \
        --seed N --seconds S --trace 0|1

One caller runs the workload's CLI jobs one after another, in-process,
through ``orbitcone.cli.main``, and checks every report it writes (see
``checks.py``).  A pass runs every job once; the run repeats passes,
each into a fresh output directory, until ``--seconds`` would be
exceeded, and always runs at least two.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``     median over fresh processes of the time to import
  ``orbitcone.cli`` and build the workload's algebras
- ``run_s``       median over passes of the wall time from the first job
  of a pass to its last, every report written
- ``peak_rss_mb`` peak resident set size of this process

It also prints, outside the result line:

- ``job_p50_s``   median time of one ``cli.main`` call
- ``job_tail_s``  mean time of the slowest 10% of the jobs, at least one
  (each job timed by its median over passes): L2_GA in golden, the two
  slowest jobs in induction, the 64 slowest pairs in blocks
- ``failed_share`` failed over attempted jobs

``--trace 1`` runs every job twice, back to back: once untraced and once
with every layer in ``tracing.LAYERS`` wrapped.  It checks that both
runs of a job wrote byte-identical reports, and prints the per-layer
metrics of the traced runs, with ``trace.overhead_s`` (summed job time
traced minus untraced).

Jobs that raise, return an unexpected exit code or fail their report
check count as failed; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Runs are
recorded under ``.bench_out/`` in the checkout, with the environment
they ran in (core count, BLAS threads, load average, CPU share of the
wall time, library versions): a run that shared its cores shows there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
MIN_PASSES = 2
TAIL_SHARE = 0.1
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 60

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# run in a fresh interpreter: argv = [src dir, algebra, ...]
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orbitcone.cli
from orbitcone.liealg import build_algebra
for spec in sys.argv[2:]:
    build_algebra(spec)
print(time.perf_counter() - t0)
"""

UNITS = {"setup_s": "s", "run_s": "s", "job_p50_s": "s", "job_tail_s": "s",
         "peak_rss_mb": "MB", "failed_share": "share", "cli.bytes_written": "bytes"}
# printed, but left out of the result line: with a few jobs of very
# different sizes (golden, induction) the median falls between two of
# them and jumps from run to run; the slowest jobs of blocks slow down more
# than the rest when the host is busy (over ten seeds on a shared 2-core
# VM their interquartile range was 0.27 of the median, above the 0.25
# that a bound may be)
PRINTED_ONLY = ("job_p50_s", "job_tail_s", "failed_share")


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def measure_setup(algebras) -> list[float]:
    """Set-up seconds of fresh processes, one sample per process."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *algebras],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_job(cli, job, out_dir: Path):
    """(seconds, exit code or exception text, captured output) of one job."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = cli.main(job.command(out_dir))
        except (Exception, SystemExit) as e:  # a job that raises is a failed job
            code = f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
    return seconds, code, sink.getvalue()


def digest(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_pass(jobs, work: Path, times, codes, logs, wall: float) -> dict:
    """Check the reports of one pass over ``jobs``, written under ``work``."""
    failures = {}
    for i, (job, code, log) in enumerate(zip(jobs, codes, logs)):
        reason = checks.check_job(job, code, work / f"{i:04d}")
        if reason is not None:
            failures[i] = f"{' '.join(job.argv)} --seed {job.seed}: {reason} {log.strip()}"
    outputs = {i: digest(work / f"{i:04d}") for i in range(len(jobs))
               if (work / f"{i:04d}").is_dir()}
    written = sum(p.stat().st_size for p in work.rglob("*") if p.is_file())
    return {"wall": wall, "times": times, "failures": failures,
            "outputs": outputs, "bytes": written}


def run_pass(cli, jobs, work: Path) -> dict:
    """Run every job once into ``work`` and check the reports afterwards."""
    times, codes, logs = [], [], []
    t_start = time.perf_counter()
    for i, job in enumerate(jobs):
        seconds, code, log = run_job(cli, job, work / f"{i:04d}")
        times.append(seconds)
        codes.append(code)
        logs.append(log)
    wall = time.perf_counter() - t_start
    return check_pass(jobs, work, times, codes, logs, wall)


def calibration_s() -> float:
    """Seconds of a fixed pure-Python loop: a host that got slower, for
    instance because a neighbour shares the cores, shows here."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - t0


def environment(load_start, calib_start) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "calibration_s": [calib_start, calibration_s()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def untraced_run(cli, jobs, algebras, seconds: float, scratch: Path) -> tuple:
    setup = measure_setup(algebras)
    passes = []
    t0, cpu0 = time.perf_counter(), time.process_time()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - t0 + statistics.mean(p["wall"] for p in passes) <= seconds
    ):
        work = scratch / f"pass{len(passes)}"
        passes.append(run_pass(cli, jobs, work))
        shutil.rmtree(work)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    per_job = sorted(statistics.median(t) for t in zip(*(p["times"] for p in passes)))
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p["wall"] for p in passes),
        "job_p50_s": statistics.median(t for p in passes for t in p["times"]),
        "job_tail_s": statistics.mean(per_job[-math.ceil(TAIL_SHARE * len(per_job)):]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"setup_samples": setup, "pass_walls": [p["wall"] for p in passes],
             "cpu_share": cpu / wall}
    return metrics, passes, extra


def traced_run(cli, jobs, algebras, scratch: Path, spans_path: Path) -> tuple:
    import orbitcone.liealg as liealg

    tracer = tracing.Tracer()
    # the cold builds are traced (job "setup"); the passes start warm
    tracer.install()
    tracer.job = "setup"
    for spec in algebras:
        liealg.build_algebra(spec)
    tracer.uninstall()
    # each job runs untraced and traced back to back, in alternating
    # order, so that both sides see the same load on the host
    t0, cpu0 = time.perf_counter(), time.process_time()
    runs = {False: ([], [], []), True: ([], [], [])}
    for i, job in enumerate(jobs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.job = i
            try:
                result = run_job(cli, job, scratch / f"trace{int(traced)}" / f"{i:04d}")
            finally:
                tracer.uninstall()
            for column, value in zip(runs[traced], result):
                column.append(value)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    plain, traced = (
        check_pass(jobs, scratch / f"trace{int(t)}", *runs[t], sum(runs[t][0]))
        for t in (False, True)
    )
    passes = [plain, traced]
    differ = sorted(i for i in range(len(jobs))
                    if plain["outputs"].get(i) != traced["outputs"].get(i))
    for i in differ:
        traced["failures"].setdefault(i, f"{' '.join(jobs[i].argv)}: traced report bytes differ")
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    metrics["cli.bytes_written"] = float(traced["bytes"])
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    extra = {"job_time_sums": [plain["wall"], traced["wall"]], "cpu_share": cpu / wall,
             "spans": len(tracer.spans), "reports_differ": len(differ)}
    return metrics, passes, extra


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orbitcone" / "cli.py").is_file():
        print(f"error: no orbitcone sources under {SRC}", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    calib_start = calibration_s()
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import orbitcone.cli as cli
    from orbitcone.liealg import build_algebra

    if Path(cli.__file__).resolve().parent != SRC / "orbitcone":
        print(f"error: imported orbitcone from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.jobs_for(args.workload, args.seed)
    algebras = workloads.algebras_for(args.workload)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        if args.trace:
            metrics, passes, extra = traced_run(
                cli, jobs, algebras, scratch, OUT / f"spans-{args.workload}.jsonl")
        else:
            for spec in algebras:
                build_algebra(spec)
            metrics, passes, extra = untraced_run(
                cli, jobs, algebras, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    failures = [f for p in passes for f in p["failures"].values()]
    metrics["failed_share"] = len(failures) / attempted
    env = environment(load_start, calib_start)
    env["cpu_share"] = extra.pop("cpu_share")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs": len(jobs), "passes": len(passes), "attempted": attempted,
              "failed": len(failures), "environment": env, "metrics": metrics,
              **extra, "job_times": [p["times"] for p in passes],
              "failures": failures[:20]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{len(passes)} passes, closed loop, 1 caller")
    print("environment " + json.dumps(env, sort_keys=True))
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:<14.6g} {unit(name)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items() if name not in PRINTED_ONLY},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
