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
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from delay_wave_lab import sweep
from delay_wave_lab.verification import (REF_DATA, REF_DT, REF_GRID, REF_KV,
                                         REF_SHIFTED, REF_T_END)

OUT = pathlib.Path(__file__).resolve().parent.parent / "figures_out"

# the reference setup of ``verify``; the original system differs only in the shift
ORIGINAL = replace(REF_SHIFTED, shifted=False)

# (figure, base params, varied key, values)
FAMILIES = [
    ("fig1_original", ORIGINAL, "mu", (1.0, 2.0, 4.0, 8.0)),
    ("fig1_shifted", REF_SHIFTED, "mu", (1.0, 2.0, 4.0, 8.0)),
    ("fig2_original", ORIGINAL, "a", (0.5, 1.0, 2.0)),
    ("fig2_shifted", REF_SHIFTED, "a", (0.5, 1.0, 2.0)),
    ("fig3_kv_mu", REF_KV, "mu", (0.25, 0.5, 0.75)),
    ("fig3_kv_a", REF_KV, "a", (0.5, 1.0, 2.0)),
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
        table = sweep(base, REF_GRID, REF_DATA, REF_DT, REF_T_END, vary, values)
        for row in table.rows:
            if row.error:
                raise RuntimeError(f"{figure}, {vary} = {row.value}: {row.error}")
            curves += ([row.value, t, e, -math.log10(e) if e > 0 else math.inf]
                       for t, e in zip(row.trace.times, row.trace.energies))
            summary.append([figure, vary, row.value, row.fit.rate,
                            row.fit.r_squared, row.fit.classification.value,
                            row.trace.diverged])
        write_csv(OUT / f"{figure}.csv", curves)
    write_csv(OUT / "decay_rates.csv", summary)


if __name__ == "__main__":
    main()
