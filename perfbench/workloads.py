"""The three benchmark workloads as fixed lists of `delay-wave-lab` jobs.

A job is one CLI command with a flat ``key = value`` config.  Every model
and grid key is written out, so the output checks can rebuild the model from
the job alone instead of from the program's defaults.

The seed only picks parameter values from the menus below.  Every menu value
was run through the checks: the shifted and Kelvin-Voigt runs decay with a
tail rate the eigenvalues predict, the original runs grow without overflowing
before ``t_end``, and no menu value changes the number of time steps, so the
cost of a pass does not depend on the seed.  The resolvent ladder and the
root-search regions stay fixed: the power-iteration count depends strongly on
beta (one beta of seven takes 60% of the scan at nx = 160), and a moved
region could put a root on its boundary.

This module imports nothing from numpy or the program, so the set-up probe
can time those imports itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("reference", "march", "spectral")

# shifted internal friction (a = 1, tau = 2): fitted tail rate within 6e-4 of
# the eigenvalue prediction at the reference grid
IF_MU = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0)
# original internal friction: decays, stalls or grows, never overflows by t = 50
ORIGINAL_MU = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
# Kelvin-Voigt with a = 1: mu < |c*| a keeps the stability condition
KV_MU = (0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9)
SPECTRUM_A = (0.5, 1.0, 1.5, 2.0)
SPECTRUM_MU = (0.5, 1.0, 2.0)

REFERENCE_BETAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class Job:
    """One CLI call: ``delay-wave-lab <command> --config <file> [args]``."""

    label: str
    command: str
    config: dict
    args: tuple = ()
    writes_csv: bool = True

    def config_text(self) -> str:
        lines = []
        for key, value in self.config.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def _model(law: str = "internal_friction", a: float = 1.0, mu: float = 1.0,
           shifted: bool = True, n: int = 20, dt: float = 0.1,
           t_end: float = 50.0) -> dict:
    # Kelvin-Voigt runs are never shifted
    shifted = shifted and law == "internal_friction"
    return {"law": law, "a": a, "mu": mu, "tau": 2.0, "shifted": shifted,
            "nx": n, "nrho": n, "dt": dt, "t_end": t_end, "data": "paper"}


def _sweep(label: str, rng: random.Random, menu: tuple, k: int, **model) -> Job:
    cfg = _model(**model)
    cfg.update(vary="mu", values=tuple(sorted(rng.sample(menu, k))), window_fraction=0.5)
    return Job(label, "sweep", cfg)


def _reference(rng: random.Random) -> list[Job]:
    return [
        Job("verify", "verify", {}, writes_csv=False),
        Job("simulate", "simulate", _model()),
        _sweep("sweep-shifted", rng, IF_MU, 3),
        _sweep("sweep-kv", rng, KV_MU, 3, law="kelvin_voigt", mu=0.5),
        Job("spectrum", "spectrum", _model()),
        Job("resolvent", "resolvent", {**_model(), "betas": REFERENCE_BETAS}),
        Job("charroots", "charroots",
            {**_model(), "re_min": -5.0, "re_max": 0.5,
             "im_min": -20.0, "im_max": 20.0}),
        Job("robin-c-star", "robin", {}, args=("--c-star",), writes_csv=False),
    ]


def _march(rng: random.Random) -> list[Job]:
    size = {"n": 320, "t_end": 20.0}
    return [
        Job("simulate-shifted", "simulate",
            _model(mu=rng.choice(IF_MU), **size)),
        Job("simulate-kv", "simulate",
            _model(law="kelvin_voigt", mu=rng.choice(KV_MU), **size)),
        _sweep("sweep-shifted", rng, IF_MU, 5, **size),
        _sweep("sweep-original", rng, ORIGINAL_MU, 5, shifted=False, **size),
        _sweep("sweep-kv", rng, KV_MU, 5, law="kelvin_voigt", mu=0.5,
               **size),
    ]


def _spectral(rng: random.Random) -> list[Job]:
    return [
        Job("spectrum", "spectrum",
            _model(a=rng.choice(SPECTRUM_A), mu=rng.choice(SPECTRUM_MU), n=240)),
        Job("resolvent", "resolvent",
            {**_model(n=160), "betas": REFERENCE_BETAS}),
        Job("charroots", "charroots",
            {**_model(), "re_min": -5.0, "re_max": 0.5,
             "im_min": -60.0, "im_max": 60.0}),
        Job("charroots-kv", "charroots",
            {**_model(law="kelvin_voigt", mu=0.5), "re_min": -0.9,
             "re_max": 0.5, "im_min": -60.0, "im_max": 60.0}),
    ]


_JOB_LISTS = {"reference": _reference, "march": _march, "spectral": _spectral}


def build(workload: str, seed: int) -> list[Job]:
    """The job list one pass of ``workload`` runs; the same seed gives the same list."""
    return _JOB_LISTS[workload](random.Random(seed))
