"""The CLI's failure contract, over drawn trial files.

Each file is shaped like the benchmark's release file at a small size:
conditions 1, 2, 3, 4 and 7, formats q5_k_m and f16, four domains, each
question once per (condition, format). Drawn edits drop, retype or empty
fields, make cells one-class and shrink cells. Every command then keeps
the contract README's exit-code table states: it exits with a code the
command documents, prints no traceback, and a run that exits 1 or 2 prints
one ``data error: …`` or ``config error: …`` line to stderr and writes no
report file. So does a run that exits 3 on an undefined statistic
(``numerical error: …``); one that exits 3 on a fit that did not converge
writes its report and prints no error. A drawn argument that a command
refuses makes its run exit 2 on any file, with no usage text.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metadkit.cli import main
from metadkit.trialstore import REQUIRED_FIELDS

CONDITIONS = ("1", "2", "3", "4", "7")
FORMATS = ("q5_k_m", "f16")
DOMAINS = ("Arts", "Geography", "History", "Science")
QUESTIONS = 20      # a cell of 20 trials is above the 16 a fit needs; unedited,
                    # every command exits 0
CELLS = [(c, f, d) for c in CONDITIONS for f in FORMATS for d in DOMAINS]

# the exit codes each command documents (README, "CLI")
DOCUMENTED = {"validate": {0, 1, 2}, "diagnose": {0, 1, 2, 3},
              "compare-formats": {0, 1, 2, 3}, "confirm": {0, 1, 2, 3}}
ERROR_LINE = {1: "data error: ", 2: "config error: ", 3: "numerical error: "}


def base_rows(seed=1, nlp_gap=1.5):
    """Every cell's rows, drawn by the rng of ``seed``: 70 % correct, and the
    nlp of a correct answer ``nlp_gap`` higher on average."""
    rng = np.random.default_rng(seed)
    rows = []
    for condition, fmt, domain in CELLS:
        for i in range(QUESTIONS):
            correct = bool(rng.random() < 0.7)
            rows.append({"question_id": f"{domain[:3].lower()}{i:03d}", "domain": domain,
                         "condition": condition, "format": fmt, "correct": correct,
                         "nlp": round(float(rng.normal(nlp_gap if correct else 0.0)) - 1.0, 4)})
    return rows


BASE_ROWS = base_rows()

# values a field is retyped to: JSON types the schema does not name, and
# values that cannot be read as the field
RETYPED = st.sampled_from([7, 1.0, True, [1], None, "yes", "maybe", 2, "-1.5", "abc",
                           float("nan"), {"x": 1}])
EDITS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(REQUIRED_FIELDS), st.integers(0, 10 ** 6)),
    st.tuples(st.just("empty"), st.sampled_from(REQUIRED_FIELDS), st.integers(0, 10 ** 6)),
    st.tuples(st.just("retype"), st.sampled_from(REQUIRED_FIELDS), st.integers(0, 10 ** 6),
              RETYPED),
    st.tuples(st.just("one_class"), st.sampled_from(CELLS), st.booleans()),
    st.tuples(st.just("shrink"), st.sampled_from(CELLS), st.integers(0, 15)),
)


# an argument a command refuses, drawn into that command's argv: (command,
# flags added, a flag left out with its value). Each is one config error,
# exit 2, whatever the file holds.
REFUSED = [
    ("validate", ["--bins", "8"], None),                    # an unknown flag
    ("diagnose", ["--workers", "2"], None),                 # another command's flag
    ("confirm", ["--binning-scope", "global"], None),
    ("confirm", ["--resamples", "ten"], None),              # a value that does not parse
    ("compare-formats", ["--format", "f16"], None),         # a prefix of two flags
    ("compare-formats", [], "--format-a"),                  # a required flag left out
]


def cell_of(row):
    return row.get("condition"), row.get("format"), row.get("domain")


def edited(rows, edits):
    rows = [dict(row) for row in rows]
    for edit in edits:
        kind, target = edit[0], edit[1]
        if kind in ("drop", "empty", "retype") and rows:
            row = rows[edit[2] % len(rows)]
            if kind == "drop":
                row.pop(target, None)
            else:
                row[target] = "" if kind == "empty" else edit[3]
        elif kind == "one_class":
            for row in rows:
                if cell_of(row) == target:
                    row["correct"] = edit[2]
        elif kind == "shrink":
            in_cell = [i for i, row in enumerate(rows) if cell_of(row) == target]
            dropped = set(in_cell[edit[2]:])
            rows = [row for i, row in enumerate(rows) if i not in dropped]
    return rows


def run(argv):
    """main's exit code, stdout and stderr; no warning is shown."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def refuse(argv, refused):
    """argv with the refused argument's flags added and its flag left out."""
    _, added, left_out = refused
    if left_out in argv:
        at = argv.index(left_out)
        argv = argv[:at] + argv[at + 2:]
    return argv + added


@settings(max_examples=100)
@given(edits=st.lists(EDITS, max_size=3), condition=st.sampled_from([None, "1"]),
       refused=st.none() | st.sampled_from(REFUSED))
def test_every_command_keeps_the_failure_contract(edits, condition, refused):
    rows = edited(BASE_ROWS, edits)
    with tempfile.TemporaryDirectory() as tmp:
        trials = Path(tmp) / "trials.jsonl"
        trials.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        compare = ["--format-a", "q5_k_m", "--format-b", "f16"]
        commands = {"validate": [], "diagnose": [],
                    "compare-formats": compare + (["--condition", condition] if condition else []),
                    "confirm": ["--resamples", "20"]}
        for command, extra in commands.items():
            out_dir = Path(tmp) / command
            argv = [command, "--trials", str(trials), *extra]
            if command != "validate":
                argv += ["--out", str(out_dir)]
            if refused and refused[0] == command:
                argv = refuse(argv, refused)
            code, out, err = run(argv)
            assert code in DOCUMENTED[command], (command, code, err)
            if refused and refused[0] == command:
                assert code == 2 and "usage" not in err, (command, err)
            assert "Traceback" not in out + err, (command, err)
            if err or code in (1, 2):     # one error line, and no report
                assert err.count("\n") == 1 and err.startswith(ERROR_LINE[code]), (command, err)
                assert not out_dir.exists() or not any(out_dir.rglob("*")), command
            elif command != "validate":     # 0, or 3 for a fit that did not converge
                assert any(out_dir.iterdir()), command
