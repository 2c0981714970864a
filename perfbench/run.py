#!/usr/bin/env python3
"""Benchmark of delay-wave-lab: one workload per process, BLAS on one thread.

    python3 perfbench/run.py --workload {reference,march,spectral} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src/``.
A run builds the workload's job list from the seed, times its set-up in
fresh probe processes, then repeats the job list as passes, each job called
in-process through ``delay_wave_lab.cli.main``, until the passes add up to
``--seconds`` have gone by.  A calibration kernel is timed before every job
and after each pass's last job of an untraced run, and the pass time is
scaled by it to a fixed reference speed (``calibration.py``).  After each
pass, outside the timed region, every output is checked.  The last line of stdout is the result as JSON: end-to-end metrics
with ``--trace 0``, per-layer metrics from the outside-in tracer with
``--trace 1``.  Outputs go to ``.perfbench/`` in the checkout.
"""

import os

# BLAS reads its thread count when it is loaded, so this comes before numpy
# is imported; the set-up probes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh probe process until its first job is ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != b"ready\n" or rc != 0:
            raise RuntimeError(f"set-up probe exited with {rc} before it was ready")
    return samples


def run_job(cli, job, config: Path, out: Path) -> tuple[int, str, str]:
    """One CLI call in-process; returns the exit code, stdout and stderr."""
    argv = [job.command, "--config", str(config), *job.args]
    if job.writes_csv:
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, stdout.getvalue(), stderr.getvalue()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delay_wave_lab" / "__init__.py").is_file():
        print(f"perfbench: no delay_wave_lab source under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from delay_wave_lab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: delay_wave_lab imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    for job in jobs:
        cli.parse_config(job.config_text())
    setup = [] if args.trace else probe_setup(args.workload, args.seed)

    work = SCRATCH / "out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = {}
    for job in jobs:
        config = work / f"{job.label}.cfg"
        config.write_text(job.config_text())
        paths[job.label] = (config, work / f"{job.label}.csv")

    tr = tracer.Tracer() if args.trace else None
    kernel = None if args.trace else calibration.Kernel()
    t_start = time.perf_counter()
    pass_s, job_s, cal_s, layer_passes = [], [], [], []
    attempted = failed = 0
    errors, failures = {}, {}    # insertion-ordered sets: passes repeat them
    if tr:
        tr.install()
    try:
        while not pass_s or time.perf_counter() - t_start < args.seconds:
            if tr:
                tr.begin_pass()
            results, times, cals = [], [], []
            for job in jobs:
                if kernel:
                    cals.append(kernel.sample())
                t0 = time.perf_counter()
                results.append(run_job(cli, job, *paths[job.label]))
                times.append(time.perf_counter() - t0)
            if kernel:
                cals.append(kernel.sample())
            pass_s.append(sum(times))
            job_s.append(times)
            cal_s.append(cals)
            if tr:
                layer_passes.append(tr.end_pass())
            for job, (rc, stdout, stderr) in zip(jobs, results):
                attempted += 1
                if rc != 0:
                    failed += 1
                    failures[f"{job.label}: exit {rc}: {stderr.strip()[-300:]}"] = None
                    continue
                errors.update(dict.fromkeys(
                    checks.check(job, str(paths[job.label][1]), stdout)))
    finally:
        if tr:
            tr.uninstall()
    shutil.rmtree(work, ignore_errors=True)

    if tr:
        medians = tracer.median_metrics(layer_passes)
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "norm_wall_s": statistics.median(
                p * calibration.NOMINAL_S / statistics.fmean(c)
                for p, c in zip(pass_s, cal_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "jobs": [{"label": j.label, "command": j.command, "config": j.config_text()}
                       for j in jobs],
              "wall_s": statistics.median(pass_s), "pass_s": pass_s,
              "job_s": job_s, "calibration_s": cal_s, "setup_s": setup,
              "errors": list(errors), "failures": list(failures), "result": result}
    if tr:
        record["layer_passes"] = layer_passes
        trace_dir = SCRATCH / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tr.trace_record(t_start)))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    result_dir = SCRATCH / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for err in [*errors, *failures]:
        print(f"perfbench: {err}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
