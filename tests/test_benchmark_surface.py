"""The package surface that the benchmark in perfbench/ relies on.

perfbench/spans.py traces the package by patching attributes by name,
perfbench/gen.py builds the benchmark's trial file through the row API, and
perfbench/workloads.py runs CLI commands.
These tests read perfbench/ without changing it, so a change that cuts
into that surface fails here rather than in a benchmark run.
"""

import hashlib
from pathlib import Path

import pytest

from metadkit import cli, save_trials

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
