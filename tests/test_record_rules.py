"""The record rules, on every way into a TrialSet.

``load_trials`` (the general JSONL path and CSV), ``TrialSet.from_columns``
and ``TrialSet(records)`` check records by the same rules and read values
the same way. A record's first fault, in rule order, is its error: a
missing or empty required field (in REQUIRED_FIELDS order), then a
``correct`` that is not a boolean, then an ``nlp`` that is not a finite
number. The oracle here is that order written out, not the loader's code.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadkit import trialstore
from metadkit.errors import DataError, MissingField, NonFiniteConfidence
from metadkit.trialstore import (CODED_FIELDS, REQUIRED_FIELDS, TrialRecord, TrialSet,
                                 load_trials, save_trials)


def base_row(i):
    return {"question_id": f"q{i}", "domain": ("Arts", "Science")[i % 2], "condition": "1",
            "format": "f16", "correct": i % 3 == 0, "nlp": -0.25 * i - 0.5}


def columns_of(rows):
    return {name: [row[name] for row in rows] for name in REQUIRED_FIELDS}


def records_of(rows):
    return [TrialRecord(**row) for row in rows]


# per way in: how a missing value, a correct that is not a boolean and an
# nlp that is not a finite number can be written (None: the key is absent)
FAULTS = {
    "jsonl": {"missing": [None, "null", '""'],
              "correct": ['"maybe"', "2", "[true]", "0.5"],
              "nlp": ["NaN", "-Infinity", "1e400", '"abc"', "[1.5]"]},
    "csv": {"missing": [""],
            "correct": ["maybe", "2", "t"],
            "nlp": ["nan", "-inf", "abc", "1e400"]},
    "columns": {"missing": [None, ""],
                "correct": ["maybe", 2, [True], 0.5],
                "nlp": [float("nan"), float("inf"), "abc", [1.5]]},
}


@st.composite
def faulty_blocks(draw, way):
    """Rows 0..n-1 with row ``at`` given one or more faults: some fields
    missing, and ``correct`` or ``nlp`` (when not missing) uninterpretable."""
    n = draw(st.integers(1, 7))
    at = draw(st.integers(0, n - 1))
    missing = draw(st.sets(st.sampled_from(REQUIRED_FIELDS), max_size=3))
    bad = draw(st.sets(st.sampled_from(["correct", "nlp"]), min_size=0 if missing else 1))
    state = {name: "missing" if name in missing else "bad" if name in bad else "ok"
             for name in REQUIRED_FIELDS}
    faults = FAULTS[way]
    written = {name: draw(st.sampled_from(faults["missing" if kind == "missing" else name]))
               for name, kind in state.items() if kind != "ok"}
    block_rows = draw(st.sampled_from([1, 2, 3, None]))
    return n, at, state, written, block_rows


def expected_error(state, written, way):
    """(class, field, message after "<where>:<line>: ") of the rule order."""
    for name in REQUIRED_FIELDS:
        if state[name] == "missing":
            return MissingField, name, f"missing required field '{name}'"
    if state["correct"] == "bad":
        value = written["correct"]
        value = json.loads(value) if way == "jsonl" else value
        return DataError, None, f"cannot interpret correct={value!r} as a boolean"
    return NonFiniteConfidence, None, "nlp is not a finite number"


def jsonl_line(row, written):
    """The JSON object of ``row`` with each written field's value as its text."""
    texts = {name: text for name, text in written.items() if text is not None}
    text = json.dumps({name: f"@{name}@" if name in texts else value
                       for name, value in row.items() if written.get(name, "") is not None})
    for name, value in texts.items():
        text = text.replace(f'"@{name}@"', value)
    return text


def csv_line(row, written):
    return ",".join(written.get(name, str(row[name]).lower() if name == "correct"
                                else str(row[name])) for name in REQUIRED_FIELDS)


def raised(call):
    with pytest.raises(DataError) as caught:
        call()
    exc = caught.value
    return type(exc), getattr(exc, "field", None), getattr(exc, "line", None), str(exc)


@pytest.mark.parametrize("way", ["jsonl", "csv", "columns"])
@settings(max_examples=150)
@given(data=st.data())
def test_a_records_first_fault_in_rule_order_is_its_error(way, data):
    n, at, state, written, block_rows = data.draw(faulty_blocks(way))
    rows = [base_row(i) for i in range(n)]
    cls, field, message = expected_error(state, written, way)
    if way == "columns":
        columns = columns_of(rows)
        for name, value in written.items():
            columns[name][at] = value
        got = raised(lambda: TrialSet.from_columns(columns))
        line, where = at + 1, "input"
    else:
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                trialstore, "_BLOCK_ROWS", block_rows or trialstore._BLOCK_ROWS):
            path = Path(tmp) / f"t.{way}"
            if way == "jsonl":
                lines = [jsonl_line(row, written if i == at else {}) for i, row in enumerate(rows)]
            else:
                lines = [",".join(REQUIRED_FIELDS)] + [csv_line(row, written if i == at else {})
                                                       for i, row in enumerate(rows)]
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            got = raised(lambda: load_trials(path))
        line, where = at + 1 + (way == "csv"), str(path)
    has_line = cls is not DataError
    assert got == (cls, field, line if has_line else None, f"{where}:{line}: {message}"), \
        (state, written)


# -- JSON value types ------------------------------------------------------------

# (field, JSON value, the value the set holds): a coded field is str() of
# its JSON value, so condition 1 is "1" but 1.0 is "1.0", another condition
VALUE_TYPES = [
    ("question_id", 7, "7"),
    ("question_id", [1], "[1]"),
    ("condition", 1, "1"),
    ("condition", 1.0, "1.0"),
    ("domain", True, "True"),
    ("correct", "yes", True),
    ("correct", "0", False),
    ("correct", 1, True),
    ("nlp", "-1.5", -1.5),
    ("nlp", -2, -2.0),
]


@pytest.mark.parametrize("field, value, held", VALUE_TYPES,
                         ids=[f"{f}={v!r}" for f, v, _ in VALUE_TYPES])
def test_a_json_value_reads_the_same_through_the_loader_and_from_columns(tmp_path, field,
                                                                          value, held):
    rows = [base_row(0), {**base_row(1), field: value}]
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    loaded = load_trials(path)
    built = TrialSet.from_columns(columns_of(rows))
    for trials in (loaded, built):
        got = getattr(trials.records[1], field)
        assert got == held and type(got) is type(held)
    assert loaded.records == built.records


def test_condition_1_and_1_0_are_two_conditions(tmp_path):
    rows = [{**base_row(0), "condition": 1}, {**base_row(1), "condition": 1.0}]
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    for trials in (load_trials(path), TrialSet.from_columns(columns_of(rows))):
        assert trials.conditions() == ["1", "1.0"]
        assert len(trials.filter(condition="1")) == 1


# -- the constructors check as the loader does -------------------------------------

@pytest.mark.parametrize("build", [lambda rows: TrialSet.from_columns(columns_of(rows)),
                                   lambda rows: TrialSet(records_of(rows))],
                         ids=["from_columns", "records"])
@pytest.mark.parametrize("fault, error", [
    ({"correct": "maybe"}, (DataError, None, None,
                            "input:2: cannot interpret correct='maybe' as a boolean")),
    ({"nlp": float("nan")}, (NonFiniteConfidence, None, 2, "input:2: nlp is not a finite number")),
    ({"domain": ""}, (MissingField, "domain", 2, "input:2: missing required field 'domain'")),
    ({"format": None, "correct": "x"},
     (MissingField, "format", 2, "input:2: missing required field 'format'")),
])
def test_a_constructor_raises_the_loaders_error(build, fault, error):
    rows = [base_row(0), {**base_row(1), **fault}, {**base_row(2), "nlp": "bad"}]
    assert raised(lambda: build(rows)) == error


def test_a_column_left_out_is_a_missing_field():
    columns = columns_of([base_row(0), base_row(1)])
    del columns["nlp"]
    assert raised(lambda: TrialSet.from_columns(columns)) == (
        MissingField, "nlp", 1, "input:1: missing required field 'nlp'")


@pytest.mark.parametrize("build", [lambda rows: TrialSet.from_columns(columns_of(rows)),
                                   lambda rows: TrialSet(records_of(rows))],
                         ids=["from_columns", "records"])
def test_a_constructor_reads_values_as_the_loader_does(build):
    rows = [{**base_row(0), "correct": "false", "condition": 1},
            {**base_row(1), "correct": "0", "condition": 1}]
    trials = build(rows)
    assert trials.correct_mask.tolist() == [False, False]
    assert trials.conditions() == ["1"]
    assert len(trials.filter(condition="1")) == 2


def test_numpy_columns_are_checked_by_dtype():
    rows = [base_row(i) for i in range(4)]
    plain = TrialSet.from_columns(columns_of(rows))
    correct = np.array([row["correct"] for row in rows])
    nlp = np.array([row["nlp"] for row in rows])
    for correct_column in (correct, correct.astype(np.int8), correct.astype(np.uint64)):
        trials = TrialSet.from_columns({**columns_of(rows), "correct": correct_column,
                                        "nlp": nlp})
        assert trials.records == plain.records
        assert trials.correct_mask.dtype == bool and trials.nlp_values.dtype == np.float64
    as_ints = TrialSet.from_columns({**columns_of(rows), "nlp": np.arange(4)})
    assert as_ints.nlp_values.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert raised(lambda: TrialSet.from_columns({**columns_of(rows),
                                                 "correct": np.array([1, 0, 2, 1])})) == (
        DataError, None, None, "input:3: cannot interpret correct=2 as a boolean")
    assert raised(lambda: TrialSet.from_columns({**columns_of(rows),
                                                 "nlp": np.array([0.0, np.inf, 1, 2])})) == (
        NonFiniteConfidence, None, 2, "input:2: nlp is not a finite number")
    strings = {name: np.array(values) for name, values in columns_of(rows).items()
               if name in CODED_FIELDS}
    assert TrialSet.from_columns({**columns_of(rows), **strings}).records == plain.records
    # a list of numpy scalars is read as their Python values
    scalars = {"correct": list(correct), "nlp": list(nlp)}
    assert TrialSet.from_columns({**columns_of(rows), **scalars}).records == plain.records
    assert TrialSet.from_columns({**columns_of(rows),
                                  "correct": list(correct.astype(np.int64))}).records \
        == plain.records


def test_keys_need_not_be_unique_in_a_set():
    rows = [base_row(0), {**base_row(0), "nlp": 0.5}]
    assert len(TrialSet.from_columns(columns_of(rows))) == 2
    assert len(TrialSet(records_of(rows))) == 2


def test_save_trials_writes_the_columns_without_building_records(tmp_path, monkeypatch):
    rows = [base_row(0), {**base_row(1), "answer_text": "a whale"}]
    trials = TrialSet(records_of(rows))
    save_trials(trials, tmp_path / "records.jsonl")

    def no_records(*args, **kwargs):
        raise AssertionError("save_trials built a TrialRecord")

    monkeypatch.setattr(trialstore, "TrialRecord", no_records)
    save_trials(trials, tmp_path / "columns.jsonl")
    text = (tmp_path / "columns.jsonl").read_text(encoding="utf-8")
    assert text == (tmp_path / "records.jsonl").read_text(encoding="utf-8")
    assert text.splitlines() == [json.dumps(rows[0]), json.dumps(rows[1])]
