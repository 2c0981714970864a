"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py so that the program's own test suite, which
collects from the repository root, does not run it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from delay_wave_lab import cli  # noqa: E402
from delay_wave_lab.core import (Grid, internal_friction, kelvin_voigt,  # noqa: E402
                                 system_label)
from delay_wave_lab.discretization import assemble_generator  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- the benchmark's definition -------------------------------------------


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == tracer.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in BENCHMARK["end_to_end"]
               if m is not setup)


def test_same_seed_same_jobs_and_every_config_parses():
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, 7)
        assert jobs == workloads.build(name, 7)
        for job in jobs:
            cli.parse_config(job.config_text())


@pytest.mark.parametrize("law, shifted, a, mu", [
    ("internal_friction", True, 1.0, 1.0), ("internal_friction", False, 0.7, 2.5),
    ("kelvin_voigt", False, 1.3, 0.4)])
def test_oracle_generator_and_energy_match_the_scheme(law, shifted, a, mu):
    p = (kelvin_voigt(a, mu, 2.0) if law == "kelvin_voigt"
         else internal_friction(a, mu, 2.0, shifted=shifted))
    gen = assemble_generator(p, Grid(9, 5), system_label(p))
    m = oracle.Model(law, a, mu, 2.0, shifted, 9, 5)
    # same stencils; entries such as a/dx^2 may round differently
    assert np.allclose(oracle.generator(m), gen.matrix, rtol=1e-14, atol=0.0)
    assert np.allclose(oracle.gram(m), gen.gram, rtol=1e-14, atol=0.0)
    assert np.isclose(oracle.generator_trace(m), np.trace(gen.matrix), rtol=1e-14)


# -- checks fail on corrupted outputs -------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The reference workload's outputs, one run of each job."""
    work = tmp_path_factory.mktemp("outputs")
    out = {}
    for job in workloads.build("reference", 3):
        config, csv = work / f"{job.label}.cfg", work / f"{job.label}.csv"
        config.write_text(job.config_text())
        rc, stdout, _ = run.run_job(cli, job, config, csv)
        assert rc == 0
        out[job.label] = (job, csv, stdout)
    return out


def _errors(outputs, label, tmp_path, edit=None, stdout_edit=None):
    job, csv, stdout = outputs[label]
    path = csv
    if edit is not None:
        header, rows = checks.read_csv(str(csv))
        edit(rows)
        path = tmp_path / csv.name
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    if stdout_edit is not None:
        stdout = stdout_edit(stdout)
    return checks.check(job, str(path), stdout)


def test_unmodified_outputs_pass(outputs):
    for job, csv, stdout in outputs.values():
        assert checks.check(job, str(csv), stdout) == []


def _scale(rows, row, col, factor):
    rows[row][col] = repr(float(rows[row][col]) * factor)


def _shift(rows, row, col, delta):
    rows[row][col] = repr(float(rows[row][col]) + delta)


CORRUPTIONS = {
    "root moved by 1e-6": ("charroots", lambda r: _shift(r, 3, 0, 1e-6)),
    "root dropped": ("charroots", lambda r: r.pop(5)),
    "energy row raised": ("simulate", lambda r: r[40].__setitem__(
        1, repr(float(r[39][1]) * 1.001))),
    "E(0) off by 1e-9": ("simulate", lambda r: _scale(r, 0, 1, 1 + 1e-9)),
    "trace cut short": ("simulate", lambda r: r.pop()),
    "norm scaled by 1.01": ("resolvent", lambda r: _scale(r, 2, 1, 1.01)),
    "eigenvalue moved by 1e-6": ("spectrum", lambda r: _shift(r, 10, 0, 1e-6)),
    "sweep E0 off by 1e-9": ("sweep-shifted", lambda r: _scale(r, 1, 6, 1 + 1e-9)),
    "sweep rate off by 1%": ("sweep-kv", lambda r: _scale(r, 0, 2, 1.01)),
    "sweep row reclassified": ("sweep-shifted", lambda r: r[2].__setitem__(5, "Undetermined")),
}


@pytest.mark.parametrize("what", sorted(CORRUPTIONS))
def test_corrupted_csv_fails_its_check(outputs, tmp_path, what):
    label, edit = CORRUPTIONS[what]
    assert _errors(outputs, label, tmp_path, edit=edit)


@pytest.mark.parametrize("label, edit", [
    ("verify", lambda s: s.replace("PASS ", "FAIL ", 1)),
    ("verify", lambda s: "\n".join(s.splitlines()[:-1])),
    ("robin-c-star", lambda s: "-0.99999999\n"),
])
def test_corrupted_stdout_fails_its_check(outputs, tmp_path, label, edit):
    assert _errors(outputs, label, tmp_path, stdout_edit=edit)


# -- the command ------------------------------------------------------------


COUNT_UNITS = ("count", "ratio")


@pytest.fixture(scope="module")
def traced():
    return {w: [_result(_bench(w, 1)) for _ in range(2)] for w in workloads.WORKLOADS}


def test_printed_metric_names_match_benchmark_json(traced):
    e2e = _result(_bench("reference", 0))
    assert list(e2e["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for first, _ in traced.values():
        assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for res in [e2e, *(r for pair in traced.values() for r in pair)]:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0


def test_count_metrics_repeat_exactly_between_traced_runs(traced):
    for first, second in traced.values():
        for name, metric in first["metrics"].items():
            if metric["unit"] in COUNT_UNITS:
                assert metric["value"] == second["metrics"][name]["value"], name


def test_traced_layers_do_work_where_expected(traced):
    m = {w: {k: v["value"] for k, v in pair[0]["metrics"].items()}
         for w, pair in traced.items()}
    assert m["march"]["timestepper.steps"] == 17 * 200
    assert m["march"]["timestepper.factorizations"] == 17
    assert m["march"]["spectral.eig_calls"] == m["march"]["spectral.charfn_evals"] == 0
    assert m["spectral"]["timestepper.steps"] == 0
    assert m["spectral"]["spectral.charfn_evals"] > 0 and m["spectral"]["spectral.roots"] == 80
    assert all(m["reference"][f"verification.{c}_ms"] > 0 for c in tracer.VERIFY_CHECKS)


def test_tracer_uninstall_restores_the_program():
    from delay_wave_lab import spectral, timestepper
    before = (cli.main, timestepper.sla, spectral.characteristic_roots)
    tr = tracer.Tracer()
    tr.install()
    assert cli.main is not before[0]
    tr.uninstall()
    assert (cli.main, timestepper.sla, spectral.characteristic_roots) == before


def test_fails_without_printing_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("reference", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
