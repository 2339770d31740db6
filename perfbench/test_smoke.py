"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the repository root; they take about a minute and a half.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import CellFits, check_profile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode in (0, 1), proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        prefix = "layer" if trace else "metric"
        assert f"{prefix} {m['name']} = " in proc.stdout
    assert result["attempted"] >= 1
    if workload != "diagnose":
        # tiny diagnose cells under global binning can reach |meta_c| > 5,
        # where the program's 1 - Phi log-likelihood loses precision and the
        # checker rightly flags it; release-shaped data does not go there
        assert result["correct"], proc.stdout


def test_generator_is_deterministic_and_paired():
    from metadkit import validate_paired

    a = gen.generate_trials(7, "tiny")
    b = gen.generate_trials(7, "tiny")
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    assert [r.to_dict() for r in gen.generate_trials(8, "tiny")] != [r.to_dict() for r in a]
    assert len(a.question_ids()) == sum(gen.SIZES["tiny"].values())
    for domain, n in gen.SIZES["tiny"].items():
        base = a.filter(condition="1", format="f16", domain=domain)
        assert len(base) == n
        for condition in gen.CONDITIONS:
            for fmt in gen.FORMATS:
                cell = a.filter(condition=condition, format=fmt, domain=domain)
                assert validate_paired(base, cell).paired
                acc = checks.accuracy(cell.correct_mask)
                assert gen.ACCURACY_RANGE[0] <= acc <= gen.ACCURACY_RANGE[1]


def _profile_row(trials, fits, cond, fmt, domain):
    mask = checks.select(trials, condition=cond, format=fmt, domain=domain)
    nlp, correct = trials["nlp"][mask], trials["correct"][mask]
    fit = fits.fit(cond, fmt, domain)
    key = f"t/{cond}/{fmt}/{domain}"
    return key, {f"{key}/n": int(mask.sum()), f"{key}/accuracy": checks.accuracy(correct),
                 f"{key}/nlp_gap": checks.nlp_gap(nlp, correct),
                 f"{key}/auroc2": checks.auroc2_pairs(nlp, correct),
                 f"{key}/d_prime": fit["d_prime"], f"{key}/meta_d": fit["meta_d"],
                 f"{key}/m_ratio": fit["m_ratio"]}


def test_checker_rejects_meta_d_nudged_by_1e_3(tmp_path):
    from metadkit import save_trials

    path = tmp_path / "trials.jsonl"
    save_trials(gen.generate_trials(3, "tiny"), path)
    trials = checks.read_trials(path)
    fits = CellFits(trials)
    key, observed = _profile_row(trials, fits, "2", "f16", "Science")

    ok = checks.Checks()
    check_profile(ok, key, observed, trials, fits, "2", "f16", "Science")
    fits.check_all(ok, "t")
    checks.compare_reference(ok, observed, dict(observed))
    assert not ok.failed, ok.failed

    nudged = dict(observed)
    nudged[f"{key}/meta_d"] += 1e-3
    bad = checks.Checks()
    check_profile(bad, key, nudged, trials, fits, "2", "f16", "Science")
    checks.compare_reference(bad, nudged, observed)
    assert {name for name, _, _ in bad.failed} >= {f"{key}/meta_d", f"reference/{key}/meta_d"}

    fit = dict(fits.fit("2", "f16", "Science"))
    fit["meta_d"] += 1e-3
    bad_fit = checks.Checks()
    checks.check_fit(bad_fit, "t", fits.counts("2", "f16", "Science"), fit)
    assert {name for name, _, _ in bad_fit.failed} >= {"t/loglik", "t/meta_c"}
