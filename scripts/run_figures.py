#!/usr/bin/env python3
"""Reproduce the qualitative energy-decay figures as CSV data files.

Writes long-format tables (one row per time sample per parameter value) of
t, E and -log10(E) into ./figures_out/:

  fig1_original.csv / fig1_shifted.csv   -- influence of mu at a = 1
  fig2_original.csv / fig2_shifted.csv   -- influence of a at mu = 1
  fig3_kv_mu.csv / fig3_kv_a.csv         -- Kelvin-Voigt, influence of mu / a

plus decay_rates.csv summarizing the fitted rates and classifications; each
figure is one ``sweep``.  Plot -log10(E) against t to see the decay
(straight lines = exponential).
"""

import csv
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from delay_wave_lab import (Grid, builtin_data, internal_friction,
                            kelvin_voigt, sweep)

GRID = Grid(nx=20, nrho=20)
DT = 0.1
T_END = 50.0
DATA = builtin_data("paper")
OUT = pathlib.Path(__file__).resolve().parent.parent / "figures_out"

ORIGINAL = internal_friction(a=1.0, mu=1.0, tau=2.0, shifted=False)
SHIFTED = internal_friction(a=1.0, mu=1.0, tau=2.0)
KELVIN_VOIGT = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)

# (figure, base params, varied key, values)
FAMILIES = [
    ("fig1_original", ORIGINAL, "mu", (1.0, 2.0, 4.0, 8.0)),
    ("fig1_shifted", SHIFTED, "mu", (1.0, 2.0, 4.0, 8.0)),
    ("fig2_original", ORIGINAL, "a", (0.5, 1.0, 2.0)),
    ("fig2_shifted", SHIFTED, "a", (0.5, 1.0, 2.0)),
    ("fig3_kv_mu", KELVIN_VOIGT, "mu", (0.25, 0.5, 0.75)),
    ("fig3_kv_a", KELVIN_VOIGT, "a", (0.5, 1.0, 2.0)),
]


def write_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {path}")


def main():
    OUT.mkdir(exist_ok=True)
    summary = [["figure", "vary", "value", "rate", "r_squared",
                "classification", "diverged"]]
    for figure, base, vary, values in FAMILIES:
        curves = [["value", "t", "E", "neg_log10_E"]]
        for row in sweep(base, GRID, DATA, DT, T_END, vary, values).rows:
            if row.error:
                raise RuntimeError(f"{figure}, {vary} = {row.value}: {row.error}")
            curves += ([row.value, t, e, -math.log10(e) if e > 0 else math.inf]
                       for t, e in zip(row.trace.times, row.trace.energies))
            summary.append([figure, vary, row.value, row.fit.rate,
                            row.fit.r_squared, row.fit.classification.value,
                            row.diverged])
        write_csv(OUT / f"{figure}.csv", curves)
    write_csv(OUT / "decay_rates.csv", summary)


if __name__ == "__main__":
    main()
