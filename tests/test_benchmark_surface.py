"""The package surface that the benchmark in perfbench/ relies on.

perfbench/spans.py traces the package by patching attributes by name,
perfbench/gen.py builds the benchmark's trial file through the row API, and
perfbench/workloads.py runs CLI commands and reads named rows of their reports.
These tests read perfbench/ without changing it, so a change that cuts
into that surface fails here rather than in a benchmark run.
"""

import hashlib
from pathlib import Path

import pytest

from metadkit import ReportBundle, cli, compare_formats, save_trials
from tests.test_report import ranked_profiles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# gen.generate_trials(1) written by save_trials: 30 000 records
RELEASE_SEED_1_SHA256 = "4b99125efe19bc750bcc940d36f05f534d6e94ee1f27551143ccdbe9d3b112f9"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_site_resolves(perfbench):
    import spans

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.patch_sites() if not hasattr(owner, attr)]
    assert not missing


def test_generated_release_file_is_unchanged(perfbench, tmp_path):
    import gen

    path = tmp_path / "trials.jsonl"
    save_trials(gen.generate_trials(1), path)
    data = path.read_bytes()
    assert data.count(b"\n") == 30_000
    assert hashlib.sha256(data).hexdigest() == RELEASE_SEED_1_SHA256


def test_every_benchmark_command_parses(perfbench, monkeypatch, tmp_path):
    import workloads

    argvs = []
    monkeypatch.setattr(cli, "main", lambda argv: argvs.append(argv) or 0)
    for workload in (workloads.Confirm, workloads.Diagnose):
        bench = workload(tmp_path / "trials.jsonl", tmp_path / "work", "tiny")
        argvs += [argv + ["--out", "o"] for _, argv in bench.commands()]
        bench.warmup()
    assert {argv[0] for argv in argvs} == {"confirm", "diagnose", "compare-formats", "validate"}
    for argv in argvs:
        cli.build_parser().parse_args(argv)


def test_report_rows_that_diagnose_reads_keep_their_names(perfbench, tmp_path):
    import workloads

    profiles = ranked_profiles()
    comparison = compare_formats([p for p in profiles if p.format == "q5_k_m"],
                                 [p for p in profiles if p.format == "f16"])
    bench = workloads.Diagnose(tmp_path / "trials.jsonl", tmp_path / "work", "tiny")
    for label, _ in bench.commands():
        ReportBundle(profiles=tuple(profiles), comparison=comparison).write(
            bench.work / label, full_precision=True)
    out = bench.work / "compare"
    rows = workloads._read_csv(out / "format_comparison.csv")
    domains = ["Arts", "Geography", "History", "Science"]
    assert [list(row.values())[0] for row in rows] == (
        ["rho_m_ratio", "rho_auroc2"] + [f"rank_m_ratio:{d}" for d in domains]
        + [f"rank_auroc2:{d}" for d in domains])
    for table in ("sensitivity_by_format", "auroc2_by_format"):
        assert "Rank" in workloads._read_csv(out / f"{table}.csv")[0], table

    observed = bench.observe()
    for metric in ("m_ratio", "auroc2"):
        assert observed[f"compare/rho_{metric}"] == comparison.rho[metric]
        for p in profiles:
            key = f"compare/{p.condition}/{p.format}/{p.domain}/rank_{metric}"
            assert observed[key] == p.ranks[metric]
