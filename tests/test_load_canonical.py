"""The JSONL loader's canonical path against its general path.

A block whose lines all have save_trials' layout is parsed by one pattern
(``trialstore._canonical_columns``); any other block goes line by line
through the C scanner and ``json.loads`` (``trialstore._general_rows``).
Drawn files must load to bit-identical columns, or fail with the identical
error, with the canonical path on and with it switched off, at blocks of
1, 2, 3 and the default number of lines. A file written by save_trials
or ``metadkit synth`` must take the canonical path in every block.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadkit import trialstore
from metadkit.cli import main
from metadkit.errors import DataError
from metadkit.trialstore import (ALL_FIELDS, CODED_FIELDS, REQUIRED_FIELDS, TrialRecord, TrialSet,
                                 load_trials, save_trials)

NLP_MARK = "@@nlp@@"    # stands for the nlp text; '@' is in no drawn string

# quotes, backslashes and control characters need escapes; 'é', '中' and the
# emoji are escaped under ensure_ascii and raw without it; '٣' is a digit to
# a str pattern's \d but not to JSON
CHARS = st.sampled_from(list("aZ09 _-./") + ['"', "\\", "\x01", "\x1f", "\x7f", "é", "中",
                                             "\U0001f600", "٣", " "])
TEXT = st.text(CHARS, max_size=4)
PLAIN = st.text(st.sampled_from(list("aZ09 _-./")), min_size=1, max_size=4)
NLP_TEXTS = ["-0.0", "5e-324", "1e308", "1.5e-7", "1e400", "-1e400", "7", "-0", "1E5",
             "2.5E+3", "0.50", "NaN", "-Infinity", '"-0.5"', "-1.٣5", "1٣.5", "1e٣", "1.",
             ".5", "01.5"]
FORMS = ["canonical"] * 6 + ["ascii_false", "sorted", "compact", "spaced", "blank"]


def render(record: dict, nlp_text: str, form: str) -> str:
    """One line of a trial file, without its newline: the fields in
    ALL_FIELDS order, with ``nlp`` written as nlp_text."""
    if form == "blank":
        return ""
    row = {**record, "nlp": NLP_MARK}
    row = {name: row[name] for name in ALL_FIELDS if name in row}
    kwargs = {"canonical": {}, "ascii_false": {"ensure_ascii": False},
              "sorted": {"sort_keys": True}, "compact": {"separators": (",", ":")},
              "spaced": {}}[form]
    line = json.dumps(row, **kwargs).replace(f'"{NLP_MARK}"', nlp_text)
    return " " + line if form == "spaced" else line


@st.composite
def lines(draw, index, wild):
    """A line as save_trials writes it, or (wild) drawn from every form,
    string, ``correct`` and nlp text above."""
    text = TEXT if wild and draw(st.booleans()) else PLAIN
    record = {"question_id": draw(text) + (f"{index}" if draw(st.booleans()) else ""),
              "domain": draw(text), "condition": draw(text), "format": draw(text),
              "correct": draw(st.sampled_from([True, False, "yes", 1, None] if wild
                                              else [True, False]))}
    answer = draw(st.sampled_from(["absent", "empty", "text"]))
    if answer != "absent":
        record["answer_text"] = "" if answer == "empty" else draw(text)
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    nlp = draw(st.one_of(floats, st.sampled_from(NLP_TEXTS)) if wild else floats)
    return render(record, nlp, draw(st.sampled_from(FORMS)) if wild else "canonical")


@st.composite
def files(draw):
    """1-8 lines, none, some or all of them wild; the last newline may be missing."""
    n = draw(st.integers(1, 8))
    wild = draw(st.sampled_from([set(), set(range(n)),
                                 draw(st.sets(st.integers(0, n - 1), max_size=2))]))
    text = "\n".join(draw(lines(i, i in wild)) for i in range(n))
    return text if draw(st.booleans()) else text + "\n"


def outcome(path: Path):
    """The loaded set's columns, bit for bit, or the error's class, line,
    field, key and message."""
    try:
        trials = load_trials(path)
    except DataError as exc:
        return (type(exc), getattr(exc, "line", None), getattr(exc, "field", None),
                getattr(exc, "key", None), str(exc))
    coded = [(codes.tobytes(), values.tolist())
             for codes, values in map(trials.codes, CODED_FIELDS)]
    return (trials.nlp_values.dtype, trials.nlp_values.tobytes(), trials.correct_mask.tobytes(),
            [record.answer_text for record in trials], coded)


def both_paths(text: str, block_rows: int | None):
    """outcome() of a file holding text with the canonical path on and off."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(trialstore, "_BLOCK_ROWS", block_rows or trialstore._BLOCK_ROWS):
        path = Path(tmp) / "t.jsonl"
        path.write_text(text, encoding="utf-8")
        on = outcome(path)
        with mock.patch.object(trialstore, "_canonical_columns", lambda lines: None):
            off = outcome(path)
    return on, off


@pytest.mark.parametrize("block_rows", [1, 2, 3, None])
@settings(max_examples=300)
@given(files())
def test_canonical_path_loads_what_the_general_path_loads(block_rows, text):
    on, off = both_paths(text, block_rows)
    assert on == off


def canonical_line(nlp_text="-0.5", **fields):
    record = {"question_id": "q1", "domain": "Arts", "condition": "1", "format": "f16",
              "correct": True, **fields}
    return render(record, nlp_text, "canonical")


# line -> whether it has save_trials' layout and holds a valid record
LINES = {
    canonical_line(): True,
    canonical_line(correct=False, answer_text="a whale, 2"): True,
    canonical_line(answer_text=""): True,
    json.dumps({**json.loads(canonical_line()), "domain": "Ünïcode"}, ensure_ascii=False): True,
    **{canonical_line(nlp): True for nlp in ["-0.0", "5e-324", "1e308", "1.5e-7", "1E5",
                                             "2.5E+3", "0.50"]},
    **{canonical_line(nlp): False for nlp in ["1e400", "-1e400", "7", "-0", "NaN",
                                              "-Infinity", '"-0.5"', "-1.٣5", "1٣.5", "1e٣",
                                              "1.", ".5", "01.5"]},
    canonical_line(domain="Ünïcode"): False,             # \u escapes
    canonical_line(answer_text='say "hi"'): False,
    canonical_line(answer_text="tab\there"): False,
    canonical_line(domain=""): False,
    canonical_line(question_id=""): False,
    canonical_line(correct="true"): False,
    canonical_line(correct=1): False,
    canonical_line(condition=1): False,
    canonical_line(answer_text=None): False,
    json.dumps(json.loads(canonical_line()), sort_keys=True): False,
    json.dumps(json.loads(canonical_line()), separators=(",", ":")): False,
    canonical_line() + " ": False,
    "": False,
}


@pytest.mark.parametrize("line, canonical", LINES.items(), ids=range(len(LINES)))
@pytest.mark.parametrize("newline", ["\n", ""])
def test_which_lines_take_the_canonical_path(line, canonical, newline):
    assert (trialstore._canonical_columns([line + newline]) is not None) == canonical
    other = canonical_line(question_id="q2")
    mixed = f"{other}\n{line}{newline}"
    for block_rows in (1, 2, None):
        on, off = both_paths(mixed, block_rows)
        assert on == off


def general_path_calls(monkeypatch, path) -> int:
    """The number of blocks of the file at path that load by the general path."""
    calls = []
    general = trialstore._general_rows
    monkeypatch.setattr(trialstore, "_general_rows",
                        lambda *args: calls.append(1) or general(*args))
    monkeypatch.setattr(trialstore, "_BLOCK_ROWS", 7)
    load_trials(path)
    return len(calls)


def test_every_block_of_a_saved_file_takes_the_canonical_path(tmp_path, monkeypatch):
    records = [TrialRecord(f"q{i:04d}", ("Arts", "Science", "Law")[i % 3], str(i % 5),
                           ("f16", "q5_k_m")[i % 2], i % 3 == 0,
                           -0.013 * i if i % 5 else -1.5e-7 * i,
                           (None, "", "a whale", "1, 2 and 3")[i % 4])
               for i in range(100)]
    path = tmp_path / "saved.jsonl"
    save_trials(TrialSet(records), path)
    assert general_path_calls(monkeypatch, path) == 0
    assert load_trials(path).records == tuple(replace(r, answer_text=r.answer_text or None)
                                              for r in records)


def test_every_block_of_a_synth_file_takes_the_canonical_path(tmp_path, monkeypatch):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_trials = 300\np_correct = 0.7\nseed = 3\n")
    out = tmp_path / "synthetic.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == 0
    assert general_path_calls(monkeypatch, out) == 0
    assert len(load_trials(out)) == 300


VALID_FORMS = ["canonical"] * 4 + ["ascii_false", "sorted", "compact", "spaced"]


@st.composite
def coded_files(draw):
    """(text, rows) of a file of 1-12 valid records with unique keys, each
    line in a drawn form. Each coded field draws its values from a pool of
    1-4, and its values first appear in descending sorted order."""
    n = draw(st.integers(1, 12))
    pools = {name: sorted(draw(st.sets(st.one_of(PLAIN, TEXT.filter(bool)), min_size=1,
                                       max_size=4)))
             for name in CODED_FIELDS}
    picks = draw(st.lists(st.tuples(*(st.integers(0, len(pools[name]) - 1)
                                      for name in CODED_FIELDS)), min_size=n, max_size=n))
    # one record per (question_id, condition, format) key
    picks = list({(q, c, f): (q, d, c, f) for q, d, c, f in picks}.values())
    rows = [{} for _ in picks]
    for field, name in enumerate(CODED_FIELDS):
        first_seen = list(dict.fromkeys(pick[field] for pick in picks))
        value_of = {index: pools[name][-1 - rank] for rank, index in enumerate(first_seen)}
        for row, pick in zip(rows, picks):
            row[name] = value_of[pick[field]]
    lines = []
    for row in rows:
        row["correct"] = draw(st.booleans())
        row["nlp"] = draw(st.floats(allow_nan=False, allow_infinity=False))
        if draw(st.booleans()):
            row["answer_text"] = draw(TEXT)
        lines.append(render(row, repr(row["nlp"]), draw(st.sampled_from(VALID_FORMS))))
    return "".join(line + "\n" for line in lines), rows


def sorted_codes(values):
    distinct = sorted(set(values))
    return [distinct.index(value) for value in values], distinct


@pytest.mark.parametrize("block_rows", [1, 2, 3, None])
@settings(max_examples=200)
@given(coded_files())
def test_codes_index_the_sorted_distinct_values_of_each_field(block_rows, drawn):
    """Oracle: the codes from json.loads of each line and sorted(set(...)),
    for the loader at every block size and for TrialSet.from_columns."""
    text, rows = drawn
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(trialstore, "_BLOCK_ROWS", block_rows or trialstore._BLOCK_ROWS):
        path = Path(tmp) / "t.jsonl"
        path.write_text(text, encoding="utf-8")
        loaded = load_trials(path)
    assert [json.loads(line) for line in text.split("\n")[:-1]] == rows
    built = TrialSet.from_columns({name: [row[name] for row in rows]
                                   for name in REQUIRED_FIELDS})
    for trials in (loaded, built):
        for name in CODED_FIELDS:
            codes, values = trials.codes(name)
            assert (codes.tolist(), values.tolist()) == sorted_codes([row[name] for row in rows])
            assert codes.dtype == np.int64
        assert trials.nlp_values.tolist() == [row["nlp"] for row in rows]
        assert trials.correct_mask.tolist() == [row["correct"] for row in rows]
