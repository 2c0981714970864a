"""Output checks: each job's CSV or stdout against the oracle or against a
property the method must have.

A check returns a list of error strings, empty when the output is correct.
Tolerances come from the method, not from today's output: energies are
compared to 1e-12 relative, eigenvalue sums to 1e-12 relative, resolvent
norms to 1e-6 relative (the program's power iteration stops at 1e-8 on the
squared norm), characteristic residuals to 1e-8 (a root moved by 1e-6 leaves
a residual above 1e-6), and fitted tail rates to 2e-3 relative.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

ENERGY_RTOL = 1e-12
MONOTONE_SLACK = 1e-12
TRACE_RTOL = 1e-12
RESOLVENT_RTOL = 1e-6
ROOT_RESIDUAL = 1e-8
RATE_RTOL = 2e-3
# The tail-rate check needs a dense eigensolve per model and a window long
# enough for transients to fade: at t_end = 20 the fitted rates differ from
# the prediction by up to 0.8%, so only the reference-length runs are checked.
RATE_CHECK_MAX_DIM = 200
RATE_CHECK_MIN_T_END = 50.0

VERIFY_CHECKS = 11


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _decays(m: oracle.Model) -> bool:
    return m.kelvin_voigt or m.shifted


def _rate_checked(m: oracle.Model, cfg: dict) -> bool:
    return m.dim <= RATE_CHECK_MAX_DIM and float(cfg["t_end"]) >= RATE_CHECK_MIN_T_END


def _check_rate(tag: str, rate: float, m: oracle.Model, dt: float) -> list[str]:
    expected = oracle.euler_rate(m, dt)
    if _rel(rate, expected) > RATE_RTOL:
        return [f"{tag}: tail rate {rate!r} vs eigenvalue prediction {expected!r}"]
    return []


def check_simulate(cfg: dict, out: str, stdout: str) -> list[str]:
    m = oracle.model_of(cfg)
    dt, t_end = float(cfg["dt"]), float(cfg["t_end"])
    _, rows = read_csv(out)
    t = np.array([float(r[0]) for r in rows])
    e = np.array([float(r[1]) for r in rows])
    errs = []
    steps = int(round(t_end / dt))
    if len(rows) != steps + 1 or np.max(np.abs(t - dt * np.arange(len(t)))) > 1e-9:
        return [f"simulate: expected {steps + 1} rows at t = n*dt, got {len(rows)}"]
    if not np.all(np.isfinite(e)) or np.any(e <= 0.0):
        return ["simulate: non-finite or nonpositive energy"]
    e0 = oracle.initial_energy(m)
    if _rel(e[0], e0) > ENERGY_RTOL:
        errs.append(f"simulate: E(0) = {e[0]!r}, sampled data give {e0!r}")
    if _decays(m):
        worst = float(np.max(e[1:] / e[:-1]))
        if worst > 1.0 + MONOTONE_SLACK:
            errs.append(f"simulate: energy rose by a factor {worst!r} in one step")
    if _rate_checked(m, cfg):
        tail = t >= t_end / 2.0
        rate = -float(np.polyfit(t[tail], np.log(e[tail]), 1)[0])
        errs += _check_rate("simulate", rate, m, dt)
    return errs


def check_sweep(cfg: dict, out: str, stdout: str) -> list[str]:
    header, rows = read_csv(out)
    col = {name: i for i, name in enumerate(header)}
    values = sorted(float(v) for v in cfg["values"])
    if [float(r[col["value"]]) for r in rows] != values:
        return [f"sweep: rows {[r[col['value']] for r in rows]} for values {values}"]
    errs = []
    for row in rows:
        value = float(row[col["value"]])
        tag = f"sweep {cfg['vary']} = {value}"
        if row[col["classification"]] == "Error" or row[col["diverged"]] != "false":
            errs.append(f"{tag}: row failed or diverged")
            continue
        m = oracle.model_of(cfg, **{cfg["vary"]: value})
        e0, e_end = float(row[col["E0"]]), float(row[col["E_end"]])
        expected = oracle.initial_energy(m)
        if _rel(e0, expected) > ENERGY_RTOL:
            errs.append(f"{tag}: E0 = {e0!r}, sampled data give {expected!r}")
        if not math.isfinite(e_end):
            errs.append(f"{tag}: non-finite final energy")
        if _decays(m):
            if not e_end <= e0:
                errs.append(f"{tag}: final energy {e_end!r} above E0 {e0!r}")
            if row[col["classification"]] != "ExponentialDecay":
                errs.append(f"{tag}: classified {row[col['classification']]}")
        if _rate_checked(m, cfg):
            errs += _check_rate(tag, float(row[col["rate"]]), m, float(cfg["dt"]))
    return errs


def check_spectrum(cfg: dict, out: str, stdout: str) -> list[str]:
    m = oracle.model_of(cfg)
    _, rows = read_csv(out)
    vals = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    if len(vals) != m.dim:
        return [f"spectrum: {len(vals)} eigenvalues for dimension {m.dim}"]
    trace = oracle.generator_trace(m)
    errs = []
    if _rel(vals.real.sum(), trace) > TRACE_RTOL:
        errs.append(f"spectrum: eigenvalue sum {vals.real.sum()!r} vs trace {trace!r}")
    if abs(vals.imag.sum()) > TRACE_RTOL * abs(trace):
        errs.append(f"spectrum: imaginary parts sum to {vals.imag.sum()!r}")
    return errs


def check_resolvent(cfg: dict, out: str, stdout: str) -> list[str]:
    m = oracle.model_of(cfg)
    _, rows = read_csv(out)
    betas = tuple(sorted(float(b) for b in cfg["betas"]))
    if tuple(float(r[0]) for r in rows) != betas:
        return [f"resolvent: betas {[r[0] for r in rows]} for {betas}"]
    errs = []
    for row, exact in zip(rows, oracle.resolvent_norms(m, betas)):
        if _rel(float(row[1]), exact) > RESOLVENT_RTOL:
            errs.append(f"resolvent beta = {row[0]}: norm {row[1]} vs exact {exact!r}")
    return errs


def check_charroots(cfg: dict, out: str, stdout: str) -> list[str]:
    m = oracle.model_of(cfg)
    box = tuple(float(cfg[k]) for k in ("re_min", "re_max", "im_min", "im_max"))
    _, rows = read_csv(out)
    lam = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    mult = sum(int(r[3]) for r in rows)
    winding = oracle.root_count(m, *box)
    errs = []
    if abs(winding - round(winding)) > 1e-6 or mult != round(winding):
        errs.append(f"charroots: multiplicities sum to {mult}, argument "
                    f"principle gives {winding!r}")
    slack = 1e-12
    inside = ((lam.real >= box[0] - slack) & (lam.real <= box[1] + slack)
              & (lam.imag >= box[2] - slack) & (lam.imag <= box[3] + slack))
    if not np.all(inside):
        errs.append(f"charroots: {int((~inside).sum())} roots outside the region")
    residual = np.abs(oracle.characteristic(m, lam))
    if len(lam) and residual.max() > ROOT_RESIDUAL:
        worst = int(np.argmax(residual))
        errs.append(f"charroots: |F({lam[worst]!r})| = {residual[worst]!r}")
    return errs


def check_verify(cfg: dict, out: str, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    if passed != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS:
        return [f"verify: {passed} PASS lines of {len(lines)}, expected {VERIFY_CHECKS}"]
    return []


def check_robin(cfg: dict, out: str, stdout: str) -> list[str]:
    text = stdout.strip()
    try:
        value = float(text)
    except ValueError:
        return [f"robin: unparsable output {text!r}"]
    # c* = -1 on the unit interval; the CLI prints 8 decimals
    return [] if abs(value + 1.0) <= 5e-9 else [f"robin --c-star printed {text!r}"]


CHECKS = {
    "simulate": check_simulate,
    "sweep": check_sweep,
    "spectrum": check_spectrum,
    "resolvent": check_resolvent,
    "charroots": check_charroots,
    "verify": check_verify,
    "robin": check_robin,
}


def check(job, out: str, stdout: str) -> list[str]:
    """Errors in one job's output; ``out`` is its CSV path, ``stdout`` what it printed."""
    return [f"{job.label}: {e}" for e in CHECKS[job.command](job.config, out, stdout)]
