"""What a fresh interpreter loads for the package and its CLI paths.

Every CLI run is a new process, so each scipy subpackage the package
imports is paid on every command. The runtime needs numpy and
scipy.special (ndtr / ndtri in the fitter) only. It never imports
scipy.optimize: only the test oracles in tests/oracles.py do.

The package must also load on Python 3.10, the floor pyproject.toml
declares: no later syntax, and no regular expression that only 3.11
compiles.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

try:
    from re import _parser as _regex_parser
except ImportError:     # Python 3.10
    import sre_parse as _regex_parser

import metadkit

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.spatial")

SCRIPT = """
import sys
from dataclasses import replace
from pathlib import Path

HEAVY = {heavy!r}
tmp = Path(sys.argv[1])

def check(step):
    loaded = [name for name in HEAVY if name in sys.modules]
    assert not loaded, f"after {{step}}: {{loaded}} loaded"
    print("ok", step)

import metadkit
check("import metadkit")
from metadkit.cli import build_parser, main
build_parser()
check("build_parser")

from metadkit import SynthConfig, TrialSet, generate, save_trials
records = []
for d, domain in enumerate(("Arts", "Geography", "History", "Science")):
    for condition in ("1", "2", "3", "4"):
        for fmt in ("q5_k_m", "f16"):
            cell = generate(SynthConfig(n_trials=120, p_correct=0.7, mu_correct=0.8,
                                        domain=domain, condition=condition, format=fmt,
                                        seed=100 * d + 10 * int(condition) + len(fmt)))
            records.extend(replace(r, question_id=f"{{domain}}-{{r.question_id}}")
                           for r in cell.records)
trials = tmp / "trials.jsonl"
save_trials(TrialSet(records), trials)
check("synth file written")

for argv in (["diagnose", "--out", str(tmp / "diag")],
             ["compare-formats", "--condition", "1", "--format-a", "q5_k_m",
              "--format-b", "f16", "--out", str(tmp / "cmp")],
             ["confirm", "--format", "f16", "--resamples", "4", "--workers", "1",
              "--out", str(tmp / "conf")]):
    code = main(argv[:1] + ["--trials", str(trials)] + argv[1:])
    assert code == 0, f"{{argv[0]}} exited {{code}}"
    check(argv[0])
"""


def test_cli_paths_load_no_heavy_scipy_subpackage(tmp_path):
    src = Path(metadkit.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(heavy=HEAVY), str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    steps = [line[3:] for line in proc.stdout.splitlines() if line.startswith("ok ")]
    assert steps == ["import metadkit", "build_parser", "synth file written",
                     "diagnose", "compare-formats", "confirm"]
    for report in ("diag", "cmp", "conf"):
        assert any((tmp_path / report).iterdir())


def test_the_package_holds_no_test_oracle():
    src = Path(metadkit.__file__).resolve().parent
    assert [path.name for path in src.rglob("*.py")
            if "scipy.optimize" in path.read_text(encoding="utf-8")] == []
    assert not hasattr(metadkit, "oracle_meta_grid")


def test_the_package_parses_as_python_3_10():
    """pyproject.toml's floor is Python 3.10; no syntax from a later one."""
    src = Path(metadkit.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _regex_ops(parsed):
    """The name of every opcode in a parsed regular expression, nested ones too."""
    for op, arg in parsed:
        yield op.name
        stack = [arg]
        while stack:
            item = stack.pop()
            if isinstance(item, _regex_parser.SubPattern):
                yield from _regex_ops(item)
            elif isinstance(item, (list, tuple)):
                stack.extend(item)


def test_no_pattern_of_the_package_needs_python_3_11():
    """Possessive quantifiers and atomic groups compile only from Python 3.11."""
    modules = [importlib.import_module(f"metadkit.{info.name}")
               for info in pkgutil.iter_modules(metadkit.__path__)]
    patterns = [value for module in modules for value in vars(module).values()
                if isinstance(value, re.Pattern)]
    assert patterns
    for pattern in patterns:
        ops = set(_regex_ops(_regex_parser.parse(pattern.pattern, pattern.flags)))
        assert not ops & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern
    if sys.version_info >= (3, 11):     # the walk finds one where there is one
        assert "POSSESSIVE_REPEAT" in set(_regex_ops(_regex_parser.parse("a(?:b|c++)")))
