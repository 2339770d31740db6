"""Load, validate, filter, and persist trial-level evaluation records.

The interchange format is JSONL, one record per line, with fields
``question_id``, ``domain``, ``condition``, ``format``, ``correct``,
``nlp``, ``answer_text`` (optional). CSV with identical header names is
also accepted. ``nlp`` is the mean token log-probability of the generated
answer (nats per token) and serves as the confidence score.

Record order is preserved from the file and is semantically significant:
quantile binning breaks ties by input order, so reordering a file can
change downstream bin assignments.

A TrialSet stores its trials as columns in record order: ``nlp``
(float64), ``correct`` (bool), ``answer_text`` (str or None), and for each
of ``question_id``, ``domain``, ``condition`` and ``format`` an integer
code per record into the sorted distinct values present in the set.
Filters are boolean masks over the columns, and a subset drops the values
it no longer holds, so the distinct values of a field are always exactly
those of its records, and everything in the package reads the columns.

Every way into a set checks its records with one column checker,
_checked: the loader's general path (JSONL and CSV), ``from_columns`` and
``TrialSet(records)``. Only a file's (question_id, condition, format) keys
must be unique. ``TrialRecord`` rows are the benchmark's edge only: its
trial generator builds its set through ``TrialSet(records)``, and its
smoke tests iterate sets (``.records``).

Loading reads the file in blocks of lines (CSV: records), so it never
holds a row for every record at once, and codes each block as it is read
(_Columns). A JSONL block in save_trials' layout is matched by one regular
expression (_canonical_columns); any other block, and one of that layout
with an invalid record, takes the general path: _general_rows (or
_csv_blocks), then _checked. Either way a line means exactly what
``json.loads`` makes of it. Bytes that are not UTF-8 are read as data (as
surrogate escapes); the first line that holds one is an error, reported
once the lines before it are checked. Duplicate keys are found from the
integer codes of the finished set. The first offending line of the file is
reported, whatever its kind; within a line the order is _checked's rule
order, then the duplicate key.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice, starmap
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateKey,
    EmptySet,
    MissingField,
    NonFiniteConfidence,
    UnknownSelectorValue,
)

_BLOCK_ROWS = 1024      # lines (CSV: records) read and validated together
_DECODER = json.JSONDecoder()
# one line as save_trials writes it: json.dumps' default separators, the
# fields in TrialRecord order, strings without escapes, coded fields not
# empty, and an nlp with a fraction or an exponent (a JSON float). The
# groups are the question id, the whole (domain, condition, format,
# correct) span, which _Columns codes as one group, the nlp text and the
# answer text
_STRING = r'"[^"\\\x00-\x1f]+"'
_FLOAT = r'(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))'
_CANONICAL = re.compile(
    r'^\{"question_id": "([^"\\\x00-\x1f]+)", ("domain": ' + _STRING + ', "condition": '
    + _STRING + ', "format": ' + _STRING + ', "correct": (?:true|false)), "nlp": ' + _FLOAT
    + r'(?:, "answer_text": "([^"\\\x00-\x1f]*)")?\}$', re.M)
# a byte that is not UTF-8, as the surrogateescape error handler reads it
_UNDECODABLE = re.compile("[\udc80-\udcff]")

REQUIRED_FIELDS = ("question_id", "domain", "condition", "format", "correct", "nlp")
ALL_FIELDS = REQUIRED_FIELDS + ("answer_text",)
CODED_FIELDS = ("question_id", "domain", "condition", "format")

BOOLEAN_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class TrialRecord:
    """One question's outcome under one (condition, format)."""

    question_id: str
    domain: str
    condition: str
    format: str
    correct: bool
    nlp: float
    answer_text: str | None = None

    def to_dict(self) -> dict:
        return _record_dict(*(getattr(self, name) for name in ALL_FIELDS))


def _record_dict(*values) -> dict:
    """One record's JSON object from its values in ALL_FIELDS order; a None
    ``answer_text`` is left out."""
    return {name: value for name, value in zip(ALL_FIELDS, values)
            if name != "answer_text" or value is not None}


def _coder() -> defaultdict:
    """A dict from value to integer code that gives a value it has not
    seen the next code, so one lookup codes a value in first-seen order."""
    return defaultdict(count().__next__)


def _codes(coder: defaultdict, values: Sequence) -> np.ndarray:
    return np.fromiter(map(coder.__getitem__, values), dtype=np.int64, count=len(values))


def _joined(pieces: list[Sequence], dtype) -> np.ndarray:
    """The pieces as one array of dtype; an object piece is taken item by
    item, which is several times faster than np.asarray's scan for nesting."""
    arrays = [np.fromiter(piece, dtype, len(piece)) if dtype is object
              else np.asarray(piece, dtype) for piece in pieces]
    return np.concatenate(arrays or [np.empty(0, dtype)])


class _Columns:
    """A trial set's columns, gathered block by block, with each coded field
    an integer code per record from the start.

    Each coded field has one coder for every block. A canonical block's
    (domain, condition, format, correct) span is coded as one group, and
    each distinct group is split into its four fields once, so a canonical
    record costs one lookup for its id and one for its group; any other
    columns are checked (_checked) and coded field by field through the same
    coders. TrialSet maps the first-seen codes to sorted order once, at the end.
    """

    def __init__(self):
        self.coders = {name: _coder() for name in CODED_FIELDS}
        self.pieces: dict[str, list[Sequence]] = {name: [] for name in ALL_FIELDS}
        self.groups = _coder()
        self.group_rows: list[tuple[int, int, int, bool]] = []   # per group code

    def add(self, columns: Mapping[str, Sequence], numbers: Sequence[int],
            path: str) -> tuple[int, DataError | None]:
        """Checks the records of ``columns`` (_checked) and adds those before
        the first invalid one; returns _checked's index and error."""
        checked, first_bad, error = _checked(columns, numbers, path)
        for name in CODED_FIELDS:
            self.pieces[name].append(_codes(self.coders[name], checked[name][:first_bad]))
        for name in ("correct", "nlp", "answer_text"):
            self.pieces[name].append(checked[name][:first_bad])
        return first_bad, error

    def add_canonical(self, ids: Sequence[str], groups: Sequence[str], nlp: np.ndarray,
                      answers: Sequence[str | None]) -> None:
        """A canonical block: per record its id, the text of its (domain,
        condition, format, correct) span, its nlp and its answer text."""
        group_codes = _codes(self.groups, groups)
        for group in islice(self.groups, len(self.group_rows), None):   # new groups
            # the values hold no '"', so they are the 4th, 8th and 12th pieces
            values = group.split('"')[3:12:4]
            self.group_rows.append((*(self.coders[name][value] for name, value
                                       in zip(("domain", "condition", "format"), values)),
                                     group.endswith("true")))
        by_record = np.array(self.group_rows, dtype=np.int64)[group_codes]
        for column, name in enumerate(("domain", "condition", "format", "correct")):
            self.pieces[name].append(by_record[:, column])
        self.pieces["question_id"].append(_codes(self.coders["question_id"], ids))
        self.pieces["nlp"].append(nlp)
        self.pieces["answer_text"].append(answers)

    def sorted_codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A coded field's codes into its sorted distinct values, and those
        values (an object array)."""
        values = np.array(list(self.coders[name]), dtype=object)    # in first-seen order
        order = np.argsort(values)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank[_joined(self.pieces[name], np.int64)], values[order]


class TrialSet:
    """An ordered, immutable collection of trials, stored as columns.

    Safe to share across concurrent readers; all mutating-looking
    operations return new sets.
    """

    def __init__(self, records: Iterable[TrialRecord]):
        records = tuple(records)
        vars(self).update(vars(self.from_columns({name: [getattr(r, name) for r in records]
                                                  for name in ALL_FIELDS})))

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence]) -> "TrialSet":
        """A set from one equal-length sequence per name in ALL_FIELDS, in
        record order. Its records are checked and read as load_trials reads
        a file's lines (_checked), numbered from 1: the first invalid one
        raises its error, as ``input:<k>: …``."""
        lengths = {name: len(columns[name]) for name in ALL_FIELDS if name in columns}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        into = _Columns()
        _, error = into.add(columns, range(1, max(lengths.values(), default=0) + 1), "")
        if error is not None:
            raise error
        return cls._built(into)

    @classmethod
    def _built(cls, columns: _Columns) -> "TrialSet":
        trials = cls.__new__(cls)
        trials.nlp_values = _joined(columns.pieces["nlp"], float)
        trials.correct_mask = _joined(columns.pieces["correct"], bool)
        trials._answer_text = _joined(columns.pieces["answer_text"], object)
        trials._coded = {name: columns.sorted_codes(name) for name in CODED_FIELDS}
        return trials

    def _subset(self, mask: np.ndarray) -> "TrialSet":
        subset = TrialSet.__new__(TrialSet)
        subset.nlp_values = self.nlp_values[mask]
        subset.correct_mask = self.correct_mask[mask]
        subset._answer_text = self._answer_text[mask]
        subset._coded = {}
        for name, (codes, values) in self._coded.items():
            kept = codes[mask]
            present = np.bincount(kept, minlength=len(values)) > 0
            subset._coded[name] = (np.cumsum(present)[kept] - 1, values[present])
        return subset

    def _row_values(self) -> Iterator[tuple]:
        """Each record's values in ALL_FIELDS order, in record order."""
        strings = [values[codes].tolist()
                   for codes, values in map(self._coded.get, CODED_FIELDS)]
        return zip(*strings, self.correct_mask.tolist(), self.nlp_values.tolist(),
                   self._answer_text.tolist())

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        """The trials as TrialRecord rows, in record order."""
        return tuple(starmap(TrialRecord, self._row_values()))

    def __len__(self) -> int:
        return len(self.nlp_values)

    def __iter__(self) -> Iterator[TrialRecord]:
        return iter(self.records)

    def codes(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """For one of CODED_FIELDS: the integer code of each record and the
        sorted distinct values (an object array) that the codes index."""
        return self._coded[field]

    def domains(self) -> list[str]:
        return self._coded["domain"][1].tolist()

    def conditions(self) -> list[str]:
        return self._coded["condition"][1].tolist()

    def formats(self) -> list[str]:
        return self._coded["format"][1].tolist()

    def question_ids(self) -> list[str]:
        """Unique question ids in first-appearance order."""
        codes, ids = self._coded["question_id"]
        _, first_rows = np.unique(codes, return_index=True)
        return ids[codes[np.sort(first_rows)]].tolist()

    def domain_counts(self) -> dict[str, int]:
        codes, domains = self._coded["domain"]
        return dict(zip(domains.tolist(), np.bincount(codes, minlength=len(domains)).tolist()))

    def filter(self, domain: str | None = None, condition: str | None = None,
               format: str | None = None) -> "TrialSet":
        return filter_trials(self, domain=domain, condition=condition, format=format,
                             _stacklevel=3)


def _first_missing(values: Sequence) -> int:
    """The index of a column's first missing value (None or ""), or len(values)."""
    if None not in values and "" not in values:
        return len(values)
    return next(i for i, value in enumerate(values) if value in (None, ""))


def _coerce_bool(value) -> bool | None:
    """``correct`` as a bool, or None when the value is not one."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, float, np.integer)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        return BOOLEAN_STRINGS.get(value.strip().lower())
    return None


def _coerce_nlp(value) -> float | None:
    """``nlp`` as a finite float, or None when it is not one."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def _checked(columns: Mapping[str, Sequence], numbers: Sequence[int],
             path: str) -> tuple[dict[str, Sequence], int, DataError | None]:
    """The records of ``columns``, numbered by ``numbers``, in the types a
    TrialSet holds; the index of the first invalid record and its error
    (len(numbers) and None when every record is valid).

    The one implementation of the record rules. Each check runs over a
    whole column and keeps its first failing index. A record's error is
    its first failing check in rule order: a missing (None or "") required
    field, in REQUIRED_FIELDS order; a ``correct`` that is not a boolean;
    an ``nlp`` that is not a finite number. A left-out column is missing in
    every record. A numpy ``correct`` of bool or 0/1 integers and a numeric
    numpy ``nlp`` are taken by dtype; other values are read as JSON values
    are, a column value by value only when it holds other than plain types.
    """
    n = len(numbers)
    raw = {name: columns[name] if name in columns else [None] * n for name in ALL_FIELDS}
    correct, nlp = raw["correct"], raw["nlp"]
    by_dtype = {"correct": isinstance(correct, np.ndarray) and correct.dtype.kind in "biu"
                and bool(np.isin(correct, (0, 1)).all()),
                "nlp": isinstance(nlp, np.ndarray) and nlp.dtype.kind in "biuf"}
    raw = {name: values.tolist() if isinstance(values, np.ndarray) and not by_dtype.get(name)
           else values for name, values in raw.items()}
    # each check's first failing record, in rule order
    first_fail = [_first_missing(raw[name]) for name in REQUIRED_FIELDS]

    checked = {name: raw[name] if set(map(type, raw[name])) == {str}
               else [str(v) for v in raw[name]] for name in CODED_FIELDS}
    correct, nlp, answers = raw["correct"], raw["nlp"], raw["answer_text"]
    first_fail.append(n)
    if by_dtype["correct"]:
        correct = correct.astype(bool)
    elif set(map(type, correct)) != {bool}:
        correct = list(map(_coerce_bool, correct))
        first_fail[-1] = correct.index(None) if None in correct else n
    if not by_dtype["nlp"]:
        try:
            if not set(map(type, nlp)) <= {int, float}:
                raise TypeError
            nlp = np.array(nlp, dtype=float)
        except (TypeError, OverflowError):
            nlp = np.array(list(map(_coerce_nlp, nlp)), dtype=float)   # None -> nan
    finite = np.isfinite(nlp)
    first_fail.append(n if finite.all() else int(np.argmin(finite)))
    if not set(map(type, answers)) <= {str, type(None)} or "" in answers:
        answers = [None if v in (None, "") else str(v) for v in answers]
    checked.update(correct=correct, nlp=nlp, answer_text=answers)

    first_bad = min(first_fail)
    if first_bad == n:
        return checked, n, None
    line, rule = numbers[first_bad], first_fail.index(first_bad)
    if rule < len(REQUIRED_FIELDS):
        error = MissingField(REQUIRED_FIELDS[rule], line, path)
    elif rule == len(REQUIRED_FIELDS):
        error = DataError(f"{path or 'input'}:{line}: cannot interpret "
                          f"correct={raw['correct'][first_bad]!r} as a boolean")
    else:
        error = NonFiniteConfidence(line, path)
    return checked, first_bad, error


def _canonical_columns(lines: list[str]) -> tuple[Sequence[str], Sequence[str], np.ndarray,
                                                 list[str | None]] | None:
    """The ids, (domain, condition, format, correct) span texts, nlp values
    and answer texts of a block whose lines all have save_trials' layout and
    hold valid records, or None.

    One anchored pattern matches the whole block; a line it does not match
    (another key order or spacing, an escape, an empty coded field, an
    integer ``nlp``, a blank line) leaves the block to _general_rows, as
    does a non-finite ``nlp``, so every error comes from that path. Each
    value is what ``json.loads`` makes of its text: ``float`` of a JSON
    number is the float the C scanner builds.
    """
    if not _CANONICAL.match(lines[0]):     # findall would try every position of the block
        return None
    matches = _CANONICAL.findall("".join(lines))
    if len(matches) != len(lines):
        return None
    ids, groups, nlp, answers = zip(*matches)
    nlp = np.fromiter(map(float, nlp), dtype=float, count=len(nlp))
    if not np.isfinite(nlp).all():
        return None
    return ids, groups, nlp, [text or None for text in answers]


def _general_rows(lines: list[str], first: int,
                  path: str) -> tuple[list[int], list[dict], DataError | None]:
    """The line numbers and rows of a block of lines starting at line
    ``first``, up to its first line that is not a JSON object, and that
    line's DataError (None when there is none).

    A line that the C scanner reads as one object ending just before the
    line's newline (or at the end of a last line without one) is that
    object. Any other line means what ``json.loads`` makes of it; a blank
    line is skipped.
    """
    numbers, rows = [], []
    scan_once = _DECODER.scan_once
    for line_no, line in enumerate(lines, start=first):
        try:
            row, end = scan_once(line, 0)
        except (StopIteration, ValueError):
            row, end = None, 0
        if not isinstance(row, dict) or line[end:] not in ("\n", ""):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:   # JSONDecodeError, or an integer too long to convert
                return numbers, rows, DataError(
                    f"{path}:{line_no}: invalid JSON ({getattr(exc, 'msg', exc)})")
            if not isinstance(row, dict):
                return numbers, rows, DataError(f"{path}:{line_no}: expected a JSON object")
        numbers.append(line_no)
        rows.append(row)
    return numbers, rows, None


def _undecodable(lines: list[str]) -> int | None:
    """The index of the first line that holds a byte that is not UTF-8, or None."""
    text = "".join(lines)
    if text.isascii() or not _UNDECODABLE.search(text):
        return None
    return next(i for i, line in enumerate(lines) if _UNDECODABLE.search(line))


def _not_utf8(line: str, path: str) -> DataError:
    """The error of a line that holds a byte that is not UTF-8, with the
    reason the UTF-8 decoder gives for its first such byte."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return DataError(f"{path}: not UTF-8 text ({exc.reason})")
    raise AssertionError("a line read with surrogate escapes decodes")


def _jsonl_blocks(fh, path: str,
                  columns: _Columns) -> Iterator[tuple[Sequence[int], DataError | None]]:
    """Adds each block of _BLOCK_ROWS lines to columns, up to its first
    offending line, and yields the line numbers of the records added and
    that line's error (None when there is none). A block in save_trials'
    layout is parsed by _canonical_columns, any other by _general_rows and
    _add_block; a line with a byte that is not UTF-8 is an error after
    every line before it."""
    first = 1
    while lines := list(islice(fh, _BLOCK_ROWS)):
        bad = _undecodable(lines)
        not_utf8 = None
        if bad is not None:
            lines, not_utf8 = lines[:bad], _not_utf8(lines[bad], path)
        canonical = _canonical_columns(lines) if lines else None
        if canonical is not None:
            columns.add_canonical(*canonical)
            yield np.arange(first, first + len(lines)), not_utf8
        else:
            numbers, rows, error = _general_rows(lines, first, path)
            yield _add_block(columns, numbers, rows, error or not_utf8, path)
        first += len(lines)


def _until_undecodable(fh, undecodable: list[str]) -> Iterator[str]:
    """The lines of fh before its first line with a byte that is not UTF-8,
    which goes into ``undecodable``."""
    for line in fh:
        if not line.isascii() and _UNDECODABLE.search(line):
            undecodable.append(line)
            return
        yield line


def _csv_blocks(fh, path: str) -> Iterator[tuple[Sequence[int], list[dict], DataError | None]]:
    """(line numbers, rows, error) per block of _BLOCK_ROWS CSV records, as
    _general_rows gives them for a block of lines; a block with an error
    ends the blocks. A record's line is the physical line it ends on; a
    record with more fields than the header, or one the csv module cannot
    read, is an error, and so is a line with a byte that is not UTF-8,
    after every record before it."""
    undecodable: list[str] = []
    reader = csv.DictReader(_until_undecodable(fh, undecodable))
    numbers, rows = [], []
    try:
        if reader.fieldnames is None and not undecodable:
            raise EmptySet(f"{path}: no header row")
        while True:
            numbers, rows = [], []
            for row in islice(reader, _BLOCK_ROWS):
                if undecodable:     # the record runs onto the line that is not UTF-8
                    break
                extra = row.get(None)   # DictReader files surplus fields under None
                if extra:
                    yield numbers, rows, DataError(
                        f"{path}:{reader.line_num}: {len(extra)} more "
                        f"field{'s' if len(extra) > 1 else ''} than the header")
                    return
                numbers.append(reader.line_num)
                rows.append(row)
            if undecodable:
                yield numbers, rows, _not_utf8(undecodable[0], path)
                return
            if not rows:
                return
            yield numbers, rows, None
    except csv.Error as exc:    # DictReader counts only the lines of records it returned
        yield numbers, rows, DataError(f"{path}:{reader.reader.line_num}: {exc}")


def _add_block(into: _Columns, line_numbers: Sequence[int], rows: Sequence[dict],
               source_error: DataError | None,
               path: str) -> tuple[Sequence[int], DataError | None]:
    """Adds a block of rows up to its first invalid row to ``into``; returns
    their line numbers and that row's error, else ``source_error``."""
    first_bad, error = into.add({name: [row.get(name) for row in rows] for name in ALL_FIELDS},
                                line_numbers, path)
    return line_numbers[:first_bad], error or source_error


def _first_duplicate(trials: TrialSet, line_numbers: np.ndarray,
                     path: str) -> DuplicateKey | None:
    """The DuplicateKey of the first record whose (question_id, condition,
    format) an earlier record already has, or None."""
    key_fields = [trials.codes(name) for name in ("question_id", "condition", "format")]
    codes = np.stack([field_codes for field_codes, _ in key_fields])
    order = np.lexsort(codes[::-1])     # stable: repeats follow their first record
    in_order = codes[:, order]
    repeats = order[1:][(in_order[:, 1:] == in_order[:, :-1]).all(axis=0)]
    if repeats.size == 0:
        return None
    row = repeats.min()
    key = tuple(values[field_codes[row]] for field_codes, values in key_fields)
    return DuplicateKey(key, int(line_numbers[row]), path)


def load_trials(path: str | Path) -> TrialSet:
    """Read a JSONL or CSV trial file into a validated TrialSet.

    The file suffix gives the format: ``.csv`` means CSV, anything else JSONL.
    Raises MissingField, DuplicateKey, NonFiniteConfidence or DataError
    for the first offending line of the file, a line that is not UTF-8
    text included; raises EmptySet for a file with no records.
    """
    path = Path(path)
    is_csv = path.suffix.lower() == ".csv"
    sname = str(path)
    columns = _Columns()
    number_pieces: list[Sequence[int]] = []
    error = None

    # the rows and matches hold no cycles: the cyclic collector would only walk them
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape",
                  newline="" if is_csv else None) as fh:
            if is_csv:
                blocks = (_add_block(columns, *block, sname) for block in _csv_blocks(fh, sname))
            else:
                blocks = _jsonl_blocks(fh, sname, columns)
            for line_numbers, error in blocks:
                number_pieces.append(line_numbers)
                if error is not None:
                    break
    finally:
        if gc_was_enabled:
            gc.enable()

    if error is None and not any(map(len, number_pieces)):
        raise EmptySet(f"{sname}: no trial records")
    trials = TrialSet._built(columns)
    # every record collected precedes the offending line
    problem = _first_duplicate(trials, _joined(number_pieces, np.int64), sname) or error
    if problem is not None:
        raise problem
    return trials


def save_trials(trials: TrialSet, path: str | Path) -> None:
    """Write a TrialSet as canonical JSONL (load → save → load is identity)."""
    with open(path, "w", encoding="utf-8") as fh:
        for values in trials._row_values():
            fh.write(json.dumps(_record_dict(*values)) + "\n")


def filter_trials(trials: TrialSet, domain: str | None = None,
                  condition: str | None = None, format: str | None = None, *,
                  _stacklevel: int = 2) -> TrialSet:
    """Order-preserving conjunctive subset; absent selectors match all.

    A selector value that occurs nowhere in the set triggers an
    UnknownSelectorValue warning, which names the caller's line (that of
    TrialSet.filter's caller when the call came through it); the (legal)
    empty result is returned.
    """
    mask = np.ones(len(trials), dtype=bool)
    for name, value in (("domain", domain), ("condition", condition), ("format", format)):
        if value is None:
            continue
        codes, values = trials.codes(name)
        match = np.flatnonzero(values == value)
        if len(match) == 0:
            warnings.warn(f"{name}={value!r} matches no records", UnknownSelectorValue,
                          stacklevel=_stacklevel)
            mask[:] = False
        else:
            mask &= codes == match[0]
    return trials._subset(mask)


@dataclass(frozen=True)
class PairingReport:
    """Outcome of a question-id pairing check between two trial sets."""

    paired: bool
    n_shared: int
    missing: tuple[str, ...] = ()   # ids present in a but not in b (per domain)
    extra: tuple[str, ...] = ()     # ids present in b but not in a (per domain)


def _union_codes(a: TrialSet, b: TrialSet,
                 field: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of a field in a and in b, both into the sorted union of their
    values: the codes as they are when both sets hold the same values."""
    (codes_a, values_a), (codes_b, values_b) = a.codes(field), b.codes(field)
    if np.array_equal(values_a, values_b):
        return codes_a, codes_b, values_a
    union = np.union1d(values_a, values_b)
    return (np.searchsorted(union, values_a)[codes_a],
            np.searchsorted(union, values_b)[codes_b], union)


def validate_paired(a: TrialSet, b: TrialSet) -> PairingReport:
    """Check that a and b hold the identical multiset of question ids per domain.

    A failed pairing is a reported outcome, not an error; the verdict is
    symmetric (swapping a and b swaps missing/extra but not ``paired``).
    """
    domain_a, domain_b, _ = _union_codes(a, b, "domain")
    qid_a, qid_b, qids = _union_codes(a, b, "question_id")
    # one integer per (domain, question id) pair; pair % len(qids) is the id
    pairs, inverse = np.unique(np.concatenate([domain_a * len(qids) + qid_a,
                                               domain_b * len(qids) + qid_b]),
                               return_inverse=True)
    count_a = np.bincount(inverse[:len(a)], minlength=len(pairs))
    count_b = np.bincount(inverse[len(a):], minlength=len(pairs))

    def ids(excess: np.ndarray) -> tuple[str, ...]:
        return tuple(qids[np.unique(pairs[excess] % len(qids))].tolist())

    return PairingReport(paired=bool((count_a == count_b).all()),
                         n_shared=int(np.minimum(count_a, count_b).sum()),
                         missing=ids(count_a > count_b), extra=ids(count_b > count_a))
