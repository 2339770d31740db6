"""Release-shaped synthetic trial file, made from the benchmark's seed.

Shape: conditions 1, 2, 3, 4, 7 x formats q5_k_m, f16 x four domains at
the released per-domain question counts, so 3 000 question ids and
30 000 records at full size. Ids are unique across domains and shared by
every (condition, format), so paired contrasts pass ``validate_paired``.

Each cell comes from ``metadkit.synth.generate`` (which numbers ids from
q000001, so ids are renumbered per domain here). (condition, format)
pairs alternate between the ``gaussian`` and ``lognormal_skew`` families,
because real mean-token log-probs are skewed. A cell's accuracy and class
separation are fixed per cell; the seed draws its trials, redrawn with
the next sub-seed until accuracy lies in 0.64-0.71 and the median-split
d' in 0.36-0.9, the ranges of the published tables. Per-domain
confidence offsets of 0.35-0.7 within-class SD give |c'| > 1.5 under
global binning.

Run as ``python3 perfbench/gen.py --seed N --out trials.jsonl [--size tiny]``
with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import replace

import numpy as np

import checks

CONDITIONS = ("1", "2", "3", "4", "7")
FORMATS = ("q5_k_m", "f16")
SIZES = {
    "release": {"Arts": 847, "Geography": 581, "History": 956, "Science": 616},
    "tiny": {"Arts": 106, "Geography": 73, "History": 120, "Science": 77},
}
# per-domain shift of both class means, in within-class SDs. Under global
# binning this gives 2-6 fits per file with |c'| > 1.5 (up to about 2.7),
# which take the fitter's restart branch. At a full SD, 0-2 fits per file
# also fall back to the Nelder-Mead polish (0.25-0.5 s each), and diagnose's
# pass time then varied by +-20 % from seed to seed.
DOMAIN_OFFSET = {"Arts": 0.7, "Geography": -0.7, "History": 0.35, "Science": -0.42}
ACCURACY_RANGE = (0.64, 0.71)
DPRIME_RANGE = (0.36, 0.9)
BASE_NLP = -1.2            # nats per token
SD_GAUSSIAN = 0.25
SHAPE_LOGNORMAL = 0.5
# SD of LogNormal(0, s): sqrt((e^{s^2} - 1) e^{s^2})
SD_LOGNORMAL = float(np.sqrt((np.exp(SHAPE_LOGNORMAL ** 2) - 1) * np.exp(SHAPE_LOGNORMAL ** 2)))
MAX_REDRAWS = 500


def _cell_seed(seed: int, condition: str, fmt: str, domain: str, attempt: int) -> int:
    key = f"perfbench-gen|{seed}|{condition}|{fmt}|{domain}|{attempt}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _cell_config(seed: int, family_index: int, condition: str, fmt: str, domain: str,
                 n: int, attempt: int):
    from metadkit.synth import SynthConfig

    # a cell's accuracy and separation are properties of the cell, as in the
    # released tables, and do not change with the seed; the seed draws trials
    params = np.random.default_rng(_cell_seed(0, condition, fmt, domain, -1))
    p_correct = float(params.uniform(0.655, 0.695))
    separation = float(params.uniform(0.5, 0.75))
    cell_seed = _cell_seed(seed, condition, fmt, domain, attempt)
    gaussian = family_index % 2 == 0
    sd = SD_GAUSSIAN if gaussian else SD_LOGNORMAL
    # lognormal_skew draws mu - LogNormal(0, s), whose mean is mu - e^{s^2/2}
    shift = 0.0 if gaussian else float(np.exp(SHAPE_LOGNORMAL ** 2 / 2))
    mu_correct = BASE_NLP + DOMAIN_OFFSET[domain] * sd + shift
    return SynthConfig(
        n_trials=n, p_correct=p_correct,
        family="gaussian" if gaussian else "lognormal_skew",
        mu_correct=mu_correct, mu_incorrect=mu_correct - separation * sd,
        sigma_correct=SD_GAUSSIAN if gaussian else SHAPE_LOGNORMAL,
        sigma_incorrect=SD_GAUSSIAN if gaussian else SHAPE_LOGNORMAL,
        domain=domain, condition=condition, format=fmt, seed=cell_seed)


def _in_range(nlp: np.ndarray, correct: np.ndarray) -> bool:
    acc = checks.accuracy(correct)
    d_prime, _ = checks.type1(checks.tally(checks.quantile_bins(nlp), correct))
    return (ACCURACY_RANGE[0] <= acc <= ACCURACY_RANGE[1]
            and DPRIME_RANGE[0] <= d_prime <= DPRIME_RANGE[1])


def generate_trials(seed: int, size: str = "release"):
    """The full trial set as a metadkit TrialSet, deterministic per (seed, size)."""
    from metadkit import TrialSet, generate

    sizes = SIZES[size]
    first_id, start = {}, 1
    for domain, n in sizes.items():
        first_id[domain] = start
        start += n
    records = []
    pairs = [(condition, fmt) for condition in CONDITIONS for fmt in FORMATS]
    for family_index, (condition, fmt) in enumerate(pairs):
        for domain, n in sizes.items():
            for attempt in range(MAX_REDRAWS):
                config = _cell_config(seed, family_index, condition, fmt, domain, n, attempt)
                cell = generate(config)
                if _in_range(cell.nlp_values, cell.correct_mask):
                    break
            else:
                raise RuntimeError(f"no in-range draw for cell {condition}/{fmt}/{domain}")
            records.extend(replace(rec, question_id=f"q{first_id[domain] + i:06d}")
                           for i, rec in enumerate(cell.records))
    return TrialSet(records)


def main() -> None:
    from metadkit import save_trials

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="release")
    args = parser.parse_args()
    save_trials(generate_trials(args.seed, args.size), args.out)


if __name__ == "__main__":
    main()
