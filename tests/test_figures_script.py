"""``scripts/run_figures.py`` against one ``simulate`` run per figure curve.

The script runs each figure as a ``sweep``; here every curve is recomputed
from the per-figure parameter constructors written out in full, and the
CSVs must hold exactly the same numbers.
"""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from delay_wave_lab import (Grid, builtin_data, fit_decay, internal_friction,
                            kelvin_voigt, simulate)

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"

# figure: (varied key, values, parameters of one curve)
FIGURES = {
    "fig1_original": ("mu", (1.0, 2.0, 4.0, 8.0), lambda mu: internal_friction(
        a=1.0, mu=mu, tau=2.0, shifted=False)),
    "fig1_shifted": ("mu", (1.0, 2.0, 4.0, 8.0), lambda mu: internal_friction(
        a=1.0, mu=mu, tau=2.0)),
    "fig2_original": ("a", (0.5, 1.0, 2.0), lambda a: internal_friction(
        a=a, mu=1.0, tau=2.0, shifted=False)),
    "fig2_shifted": ("a", (0.5, 1.0, 2.0), lambda a: internal_friction(
        a=a, mu=1.0, tau=2.0)),
    "fig3_kv_mu": ("mu", (0.25, 0.5, 0.75), lambda mu: kelvin_voigt(
        a=1.0, mu=mu, tau=2.0)),
    "fig3_kv_a": ("a", (0.5, 1.0, 2.0), lambda a: kelvin_voigt(
        a=a, mu=0.5, tau=2.0)),
}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
def test_figures_match_per_curve_simulations(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("run_figures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()

    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{figure}.csv" for figure in FIGURES] + ["decay_rates.csv"])
    summary = [["figure", "vary", "value", "rate", "r_squared",
                "classification", "diverged"]]
    for figure, (vary, values, params_for) in FIGURES.items():
        curves = []
        for value in values:
            trace = simulate(params_for(value), Grid(nx=20, nrho=20),
                             builtin_data("paper"), dt=0.1, t_end=50.0)
            curves += [[str(value), str(t), str(e)]
                       for t, e in zip(trace.times, trace.energies)]
            fit = fit_decay(trace)
            summary.append([figure, vary, str(value), str(fit.rate),
                            str(fit.r_squared), fit.classification.value,
                            str(trace.diverged)])
        rows = _read(tmp_path / f"{figure}.csv")
        assert rows[0] == ["value", "t", "E", "neg_log10_E"]
        assert [row[:3] for row in rows[1:]] == curves, figure
    assert _read(tmp_path / "decay_rates.csv") == summary
