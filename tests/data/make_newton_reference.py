"""Write newton_reference.csv: the Newton fitter's results on the golden tables.

    PYTHONPATH=<checkout>/src python tests/data/make_newton_reference.py

Fits every table of fit_golden.csv (raw counts + 0.5, type-1 from
type1_batch) in one meta_d_fit_batch solve and records, per table in file
order, meta_d, log_likelihood, converged and iterations. The values come
from the metadkit on PYTHONPATH; the committed file was written by the
Newton fitter of commit b64c029 (eigendecomposition step, broadcast
Hessian), and tests/test_fit_golden.py compares later fitters against it.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from metadkit.sdt import meta_d_fit_batch, type1_batch

HERE = Path(__file__).parent
GOLDEN = HERE / "fit_golden.csv"
OUT = HERE / "newton_reference.csv"


def golden_counts() -> np.ndarray:
    """The padded (B, 2, 8) count tables of fit_golden.csv."""
    with open(GOLDEN, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[[int(r[f"i{b}"]) for b in range(1, 9)],
                      [int(r[f"c{b}"]) for b in range(1, 9)]] for r in rows], float) + 0.5


def main() -> None:
    counts = golden_counts()
    fit = meta_d_fit_batch(counts, *type1_batch(counts))
    with open(OUT, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["meta_d", "log_likelihood", "converged", "iterations"])
        writer.writerows([repr(float(m)), repr(float(ll)), int(c), int(it)] for m, ll, c, it
                         in zip(fit.meta_d, fit.log_likelihood, fit.converged, fit.iterations))
    print(f"{len(counts)} tables -> {OUT}")


if __name__ == "__main__":
    main()
