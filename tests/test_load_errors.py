"""The loader's error contract, table-driven.

Every kind of bad line is loaded alone and in pairs, in both line orders,
from JSONL and from CSV. The first offending line in file order wins,
whatever its kind; within one line the order is the required fields (in
REQUIRED_FIELDS order), then ``correct``, then ``nlp``, then the duplicate
check. An expected error is its class, ``.line``, ``.field`` / ``.key`` and
the exact message.

The loader reads rows in blocks; the tests also run with blocks of 1, 2
and 3 rows so that bad lines fall on every side of a block edge.
"""

import itertools
import json

import numpy as np
import pytest

from metadkit import trialstore
from metadkit.errors import DataError, DuplicateKey, MissingField, NonFiniteConfidence
from metadkit.trialstore import ALL_FIELDS, CODED_FIELDS, load_trials

HEADER = ",".join(ALL_FIELDS)


def base_row(i):
    return {"question_id": f"q{i}", "domain": ("Arts", "Science")[i % 2], "condition": "1",
            "format": "f16", "correct": i % 3 == 0, "nlp": -0.125 * i - 0.5}


def drop(row, *names):
    return {k: v for k, v in row.items() if k not in names}


def with_nlp_text(row, text):
    """The JSON line of ``row`` with its nlp value written as ``text``."""
    return json.dumps({**row, "nlp": "@"}).replace('"@"', text)


def csv_line(row):
    return ",".join("" if row.get(name) is None else
                    (str(row[name]).lower() if name == "correct" else str(row[name]))
                    for name in ALL_FIELDS)


DUP_KEY = ("q0", "1", "f16")

# kind -> (line text from the base row at that position, expected error as
# (class, field, key, message after "<path>:<line>: "))
JSONL_ERRORS = {
    "missing": (lambda r: json.dumps(drop(r, "domain")),
                (MissingField, "domain", None, "missing required field 'domain'")),
    "empty": (lambda r: json.dumps({**r, "condition": ""}),
              (MissingField, "condition", None, "missing required field 'condition'")),
    "null": (lambda r: json.dumps({**r, "format": None}),
             (MissingField, "format", None, "missing required field 'format'")),
    "missing_correct": (lambda r: json.dumps(drop(r, "correct")),
                        (MissingField, "correct", None, "missing required field 'correct'")),
    "missing_two": (lambda r: json.dumps(drop(r, "nlp", "domain")),
                    (MissingField, "domain", None, "missing required field 'domain'")),
    "missing_and_bad_bool": (lambda r: json.dumps({**drop(r, "nlp"), "correct": "maybe"}),
                             (MissingField, "nlp", None, "missing required field 'nlp'")),
    "bad_bool": (lambda r: json.dumps({**r, "correct": "maybe"}),
                 (DataError, None, None, "cannot interpret correct='maybe' as a boolean")),
    "bad_bool_int": (lambda r: json.dumps({**r, "correct": 2}),
                     (DataError, None, None, "cannot interpret correct=2 as a boolean")),
    "bad_bool_list": (lambda r: json.dumps({**r, "correct": [True]}),
                      (DataError, None, None, "cannot interpret correct=[True] as a boolean")),
    "bad_bool_and_nlp": (lambda r: json.dumps({**r, "correct": "x", "nlp": "y"}),
                         (DataError, None, None, "cannot interpret correct='x' as a boolean")),
    "nan": (lambda r: with_nlp_text(r, "NaN"),
            (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "infinity": (lambda r: with_nlp_text(r, "-Infinity"),
                 (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "overflowing_float": (lambda r: with_nlp_text(r, "1e400"),
                          (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "nlp_text": (lambda r: json.dumps({**r, "nlp": "abc"}),
                 (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "nlp_nan_text": (lambda r: json.dumps({**r, "nlp": "nan"}),
                     (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "nlp_list": (lambda r: json.dumps({**r, "nlp": [1.5]}),
                 (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "duplicate": (lambda r: json.dumps({**base_row(0), "nlp": r["nlp"]}),
                  (DuplicateKey, None, DUP_KEY,
                   f"duplicate (question_id, condition, format) key {DUP_KEY!r}")),
    "duplicate_int_condition": (lambda r: json.dumps({**base_row(0), "condition": 1}),
                                (DuplicateKey, None, DUP_KEY,
                                 f"duplicate (question_id, condition, format) key "
                                 f"{DUP_KEY!r}")),
    "duplicate_bad_nlp": (lambda r: with_nlp_text(base_row(0), "Infinity"),
                          (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "duplicate_bad_bool": (lambda r: json.dumps({**base_row(0), "correct": "nope"}),
                           (DataError, None, None,
                            "cannot interpret correct='nope' as a boolean")),
    "invalid_json": (lambda r: '{"question_id": "q9",',
                     (DataError, None, None,
                      "invalid JSON (Expecting property name enclosed in double quotes)")),
    "extra_data": (lambda r: json.dumps(r) + " x",
                   (DataError, None, None, "invalid JSON (Extra data)")),
    "leading_form_feed": (lambda r: "\f" + json.dumps(r),
                          (DataError, None, None, "invalid JSON (Expecting value)")),
    "leading_nbsp": (lambda r: "\xa0" + json.dumps(r),
                     (DataError, None, None, "invalid JSON (Expecting value)")),
    "bom": (lambda r: "\ufeff" + json.dumps(r),
            (DataError, None, None,
             "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")),
    "array": (lambda r: "[1, 2]", (DataError, None, None, "expected a JSON object")),
    "string": (lambda r: '"row"', (DataError, None, None, "expected a JSON object")),
    "number": (lambda r: "3", (DataError, None, None, "expected a JSON object")),
}

# kind -> line text from the base row at that position; each loads as that row
JSONL_ACCEPTED = {
    "leading_space": lambda r: " " + json.dumps(r),
    "leading_tab": lambda r: "\t" + json.dumps(r),
    "trailing_whitespace": lambda r: json.dumps(r) + " \t ",
    "compact": lambda r: json.dumps(r, separators=(",", ":")),
    "exponent_nlp": lambda r: with_nlp_text(r, repr(r["nlp"] * 10) + "e-1"),
}

CSV_ERRORS = {
    "missing": (lambda r: ",".join(csv_line(r).split(",")[:3]),
                (MissingField, "format", None, "missing required field 'format'")),
    "empty": (lambda r: csv_line({**r, "domain": ""}),
              (MissingField, "domain", None, "missing required field 'domain'")),
    "missing_two": (lambda r: csv_line({**r, "domain": "", "nlp": ""}),
                    (MissingField, "domain", None, "missing required field 'domain'")),
    "missing_and_bad_bool": (lambda r: csv_line({**r, "nlp": "", "correct": "maybe"}),
                             (MissingField, "nlp", None, "missing required field 'nlp'")),
    "bad_bool": (lambda r: csv_line({**r, "correct": "maybe"}),
                 (DataError, None, None, "cannot interpret correct='maybe' as a boolean")),
    "bad_bool_int": (lambda r: csv_line({**r, "correct": "2"}),
                     (DataError, None, None, "cannot interpret correct='2' as a boolean")),
    "bad_bool_and_nlp": (lambda r: csv_line({**r, "correct": "x", "nlp": "y"}),
                         (DataError, None, None, "cannot interpret correct='x' as a boolean")),
    "nan": (lambda r: csv_line({**r, "nlp": "nan"}),
            (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "infinity": (lambda r: csv_line({**r, "nlp": "-inf"}),
                 (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "overflowing_float": (lambda r: csv_line({**r, "nlp": "1e400"}),
                          (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "nlp_text": (lambda r: csv_line({**r, "nlp": "abc"}),
                 (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "duplicate": (lambda r: csv_line({**base_row(0), "nlp": r["nlp"]}),
                  (DuplicateKey, None, DUP_KEY,
                   f"duplicate (question_id, condition, format) key {DUP_KEY!r}")),
    "duplicate_bad_nlp": (lambda r: csv_line({**base_row(0), "nlp": "inf"}),
                          (NonFiniteConfidence, None, None, "nlp is not a finite number")),
    "duplicate_bad_bool": (lambda r: csv_line({**base_row(0), "correct": "nope"}),
                           (DataError, None, None,
                            "cannot interpret correct='nope' as a boolean")),
}

# as JSONL_ACCEPTED; a quoted answer loads as the row with that answer
CSV_ACCEPTED = {
    "quoted_comma": lambda r: csv_line(r) + '"a, b"',
    "padded_bool": lambda r: csv_line({**r, "correct": " YES "}),
    "padded_nlp": lambda r: csv_line({**r, "nlp": f" {r['nlp']} "}),
}

# format -> (error kinds, accepted kinds, clean line of a row, header line)
FORMATS = {
    "jsonl": (JSONL_ERRORS, JSONL_ACCEPTED, json.dumps, None),
    "csv": (CSV_ERRORS, CSV_ACCEPTED, csv_line, HEADER),
}


@pytest.fixture(params=[None, 1, 2, 3], ids=["default_block", "block1", "block2", "block3"])
def block(request, monkeypatch):
    """Lines (CSV: records) per load block; None keeps the loader's own.
    raising=False lets the same tables run on a loader without blocks."""
    if request.param is not None:
        monkeypatch.setattr(trialstore, "_BLOCK_ROWS", request.param, raising=False)


def write(tmp_path, fmt, lines, name="t"):
    path = tmp_path / f"{name}.{fmt}"
    header = FORMATS[fmt][3]
    text = "".join(f"{line}\n" for line in ([header] if header else []) + lines)
    path.write_text(text, encoding="utf-8")
    return path


def described(path):
    """(class, line, field, key, message) of the error load_trials raises."""
    with pytest.raises(DataError) as excinfo:
        load_trials(path)
    exc = excinfo.value
    return (type(exc), getattr(exc, "line", None), getattr(exc, "field", None),
            getattr(exc, "key", None), str(exc))


def expected(fmt, kind, line, path):
    cls, field, key, message = FORMATS[fmt][0][kind][1]
    has_line = cls in (MissingField, DuplicateKey, NonFiniteConfidence)
    return (cls, line if has_line else None, field, key, f"{path}:{line}: {message}")


def lines_with(fmt, placed, n_rows=8, blank=()):
    """Base rows 0..n_rows-1 as lines, row i replaced by the line of the
    kind ``placed[i]``; in JSONL a form-feed-only and a blank line follow
    each index in ``blank``. Returns the lines and each row's physical line
    number."""
    errors, accepted, clean, header = FORMATS[fmt]
    lines, numbers = [], []
    first = 2 if header else 1
    for i in range(n_rows):
        row = base_row(i)
        kind = placed.get(i)
        if kind is None:
            lines.append(clean(row))
        elif kind in errors:
            lines.append(errors[kind][0](row))
        else:
            lines.append(accepted[kind](row))
        numbers.append(first + len(lines) - 1)
        if i in blank:
            lines.extend(["\f", "   "] if fmt == "jsonl" else [])
    return lines, numbers


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_each_error_kind_alone(tmp_path, block, fmt):
    for kind in FORMATS[fmt][0]:
        for at in (1, 4, 7):
            lines, numbers = lines_with(fmt, {at: kind}, blank=(0, 2))
            path = write(tmp_path, fmt, lines)
            assert described(path) == expected(fmt, kind, numbers[at], path), (kind, at)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_first_bad_line_wins_for_every_pair_of_kinds(tmp_path, block, fmt):
    for first, second in itertools.product(FORMATS[fmt][0], repeat=2):
        lines, numbers = lines_with(fmt, {2: first, 5: second}, blank=(3,))
        path = write(tmp_path, fmt, lines)
        assert described(path) == expected(fmt, first, numbers[2], path), (first, second)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_accepted_line_forms_load_like_clean_lines(tmp_path, block, fmt):
    clean = load_trials(write(tmp_path, fmt, lines_with(fmt, {})[0], name="clean"))
    for kind in FORMATS[fmt][1]:
        lines, _ = lines_with(fmt, {3: kind, 6: kind}, blank=(1,))
        trials = load_trials(write(tmp_path, fmt, lines))
        got = trials.records
        if kind == "quoted_comma":
            assert [r.answer_text for r in got] == [None] * 3 + ["a, b"] + [None] * 2 \
                + ["a, b", None]
            got = tuple(r.__class__(**{**r.to_dict(), "answer_text": None}) for r in got)
        assert got == clean.records, kind


def test_blank_and_form_feed_lines_are_skipped_and_counted(tmp_path, block):
    lines, numbers = lines_with("jsonl", {6: "missing"}, blank=(0, 1, 4))
    path = write(tmp_path, "jsonl", ["", "\f", "\v \r"] + lines)
    assert described(path) == expected("jsonl", "missing", numbers[6] + 3, path)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("first, second", [(1023, 1025), (2048, 2049), (4095, 4096),
                                           (4096, 8192)])
def test_first_bad_line_wins_across_large_files(tmp_path, fmt, first, second):
    """Bad lines near power-of-two row counts of a 9 000-row file: each
    order of a late duplicate and another kind, and a parse error after a
    bad row."""
    kinds = [("duplicate", "missing"), ("bad_bool", "duplicate"),
             ("nan", "invalid_json" if fmt == "jsonl" else "empty")]
    for a, b in kinds:
        lines, numbers = lines_with(fmt, {first: a, second: b}, n_rows=9000)
        path = write(tmp_path, fmt, lines)
        assert described(path) == expected(fmt, a, numbers[first], path), (a, b)


def test_duplicate_reports_its_first_repeat(tmp_path, block):
    rows = [base_row(i) for i in range(6)]
    lines = [json.dumps(r) for r in rows]
    lines[4] = json.dumps({**rows[1], "nlp": 0.0})        # repeats line 2
    lines.append(json.dumps({**rows[0], "domain": "X"}))  # repeats line 1, later
    path = write(tmp_path, "jsonl", lines)
    key = ("q1", "1", "f16")
    assert described(path) == (DuplicateKey, 5, None, key,
                               f"{path}:5: duplicate (question_id, condition, format) "
                               f"key {key!r}")


MIXED = [
    ({"question_id": 7, "domain": "Arts", "condition": 1, "format": "f16",
      "correct": "yes", "nlp": "-0.5"},
     {"question_id": "7", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": True, "nlp": -0.5}),
    ({"question_id": "q8", "domain": "Science", "condition": 2, "format": "q5_k_m",
      "correct": 0, "nlp": -1, "answer_text": ""},
     {"question_id": "q8", "domain": "Science", "condition": "2", "format": "q5_k_m",
      "correct": False, "nlp": -1.0}),
    ({"question_id": "q9", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": 1.0, "nlp": " -2.5 ", "answer_text": 5},
     {"question_id": "q9", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": True, "nlp": -2.5, "answer_text": "5"}),
    ({"question_id": "q10", "domain": True, "condition": "1", "format": "f16",
      "correct": " FALSE", "nlp": True},
     {"question_id": "q10", "domain": "True", "condition": "1", "format": "f16",
      "correct": False, "nlp": 1.0}),
    ({"question_id": "q11", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": True, "nlp": 12345678901234567890123},
     {"question_id": "q11", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": True, "nlp": 1.2345678901234568e22}),
    ({"question_id": "q12", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": False, "nlp": 2 ** 63 + 1},
     {"question_id": "q12", "domain": "Arts", "condition": "1", "format": "f16",
      "correct": False, "nlp": float(2 ** 63 + 1)}),
]


def assert_same_columns(a, b):
    assert a.records == b.records
    assert np.array_equal(a.nlp_values, b.nlp_values)
    assert np.array_equal(a.correct_mask, b.correct_mask)
    for name in CODED_FIELDS:
        assert np.array_equal(a.codes(name)[0], b.codes(name)[0])
        assert a.codes(name)[1].tolist() == b.codes(name)[1].tolist()


def test_mixed_type_rows_load_to_the_same_columns(tmp_path, block):
    mixed = write(tmp_path, "jsonl", [json.dumps(m) for m, _ in MIXED], name="mixed")
    canonical = write(tmp_path, "jsonl", [json.dumps(c) for _, c in MIXED], name="canonical")
    assert_same_columns(load_trials(mixed), load_trials(canonical))
    assert load_trials(mixed).records[2].answer_text == "5"
    assert load_trials(mixed).records[1].answer_text is None


def test_mixed_type_block_after_a_clean_block(tmp_path, monkeypatch):
    """A block of plain types followed by one that needs coercion."""
    monkeypatch.setattr(trialstore, "_BLOCK_ROWS", 3, raising=False)
    clean = [{**base_row(i), "question_id": f"c{i}"} for i in range(3)]
    mixed = write(tmp_path, "jsonl", [json.dumps(r) for r in clean]
                  + [json.dumps(m) for m, _ in MIXED], name="mixed")
    canonical = write(tmp_path, "jsonl", [json.dumps(r) for r in clean]
                      + [json.dumps(c) for _, c in MIXED], name="canonical")
    assert_same_columns(load_trials(mixed), load_trials(canonical))


# -- fixes pinned here fail on a loader that lacks them --------------------------

def test_integer_nlp_too_large_for_a_float_is_non_finite(tmp_path, block):
    lines, numbers = lines_with("jsonl", {}, n_rows=5)
    lines[3] = with_nlp_text(base_row(3), "1" + "0" * 400)
    path = write(tmp_path, "jsonl", lines)
    assert described(path) == (NonFiniteConfidence, numbers[3], None, None,
                               f"{path}:{numbers[3]}: nlp is not a finite number")


def test_csv_line_numbers_count_physical_lines(tmp_path, block):
    """A quoted answer over two lines and a blank line before the bad row:
    the error names the bad row's own line, 6."""
    path = tmp_path / "t.csv"
    path.write_text("\n".join([
        HEADER,
        csv_line(base_row(0)) + '"two\nlines"',
        "",
        csv_line(base_row(1)),
        csv_line({**base_row(2), "nlp": "nan"}),
    ]) + "\n", encoding="utf-8")
    assert described(path) == (NonFiniteConfidence, 6, None, None,
                               f"{path}:6: nlp is not a finite number")


def test_csv_row_with_more_fields_than_the_header_is_rejected(tmp_path, block):
    path = write(tmp_path, "csv", [csv_line(base_row(0)), csv_line(base_row(1)) + ",extra",
                                   csv_line(base_row(2))])
    assert described(path) == (DataError, None, None, None,
                               f"{path}:3: 1 more field than the header")


def test_json_integer_too_long_to_convert_is_invalid_json(tmp_path, block):
    path = write(tmp_path, "jsonl", [json.dumps(base_row(0)),
                                     with_nlp_text(base_row(1), "1" * 5000)])
    cls, line, _, _, message = described(path)
    assert (cls, line) == (DataError, None)
    assert message.startswith(f"{path}:2: invalid JSON (Exceeds the limit (4300 digits)")


def test_csv_record_the_csv_module_cannot_read_is_a_data_error(tmp_path, block):
    path = write(tmp_path, "csv", [csv_line(base_row(0)),
                                   csv_line(base_row(1)) + "x" * 200_000])
    assert described(path) == (DataError, None, None, None,
                               f"{path}:3: field larger than field limit (131072)")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_file_that_is_not_utf8_is_a_data_error(tmp_path, block, fmt):
    lines, _ = lines_with(fmt, {})
    path = write(tmp_path, fmt, lines)
    path.write_bytes(path.read_bytes().replace(b"Arts", b"Ar\xe9ts", 1))
    assert described(path) == (DataError, None, None, None,
                               f"{path}: not UTF-8 text (invalid continuation byte)")


def put_byte_not_utf8(path, line):
    """Ends physical line ``line`` with the byte 0xe9, the lead of a
    three-byte sequence, which the line's newline then cuts short."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xe9"
    path.write_bytes(b"\n".join(lines))


def not_utf8(path):
    return (DataError, None, None, None, f"{path}: not UTF-8 text (invalid continuation byte)")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_bad_line_before_a_byte_that_is_not_utf8_wins(tmp_path, block, fmt):
    for kind in FORMATS[fmt][0]:
        lines, numbers = lines_with(fmt, {2: kind}, blank=(3,))
        path = write(tmp_path, fmt, lines)
        put_byte_not_utf8(path, numbers[4])
        assert described(path) == expected(fmt, kind, numbers[2], path), kind


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_byte_that_is_not_utf8_wins_over_a_later_bad_line(tmp_path, block, fmt):
    for kind in FORMATS[fmt][0]:
        for at in (4, 6):   # the byte's own line, and a line after it
            lines, numbers = lines_with(fmt, {at: kind}, blank=(3,))
            path = write(tmp_path, fmt, lines)
            put_byte_not_utf8(path, numbers[4])
            assert described(path) == not_utf8(path), (kind, at)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_byte_that_is_not_utf8_on_the_first_line(tmp_path, block, fmt):
    """On the first record's line, and on a CSV file's header line."""
    path = write(tmp_path, fmt, lines_with(fmt, {})[0])
    put_byte_not_utf8(path, 2 if fmt == "csv" else 1)
    assert described(path) == not_utf8(path)
    path = tmp_path / "header.csv"
    path.write_bytes(HEADER.encode() + b"\xe9\n" + csv_line(base_row(0)).encode() + b"\n")
    assert described(path) == not_utf8(path)


def test_csv_record_that_runs_onto_a_line_that_is_not_utf8(tmp_path, block):
    """A quoted answer over lines 3 and 4, the byte on line 4 and a
    non-finite nlp in the same record: the record ends on the byte's line,
    so the UTF-8 error wins; the records before it are read."""
    path = tmp_path / "t.csv"
    path.write_bytes("\n".join([
        HEADER,
        csv_line(base_row(0)),
        csv_line({**base_row(1), "nlp": "nan"}) + '"two',
        'lines q"',
        csv_line(base_row(2)),
    ]).encode().replace(b'lines q"', b'lines q\xe9"') + b"\n")
    assert described(path) == not_utf8(path)
