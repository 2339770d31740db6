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
those of its records. ``TrialRecord`` rows exist only at the edges: a set
can be built from records and read back as records.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateKey,
    EmptySet,
    MissingField,
    NonFiniteConfidence,
    UnknownSelectorValue,
)

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
        d = {
            "question_id": self.question_id,
            "domain": self.domain,
            "condition": self.condition,
            "format": self.format,
            "correct": self.correct,
            "nlp": self.nlp,
        }
        if self.answer_text is not None:
            d["answer_text"] = self.answer_text
        return d


@dataclass(frozen=True)
class Provenance:
    source: str


def _factorize(values: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Integer code per value into the sorted distinct values."""
    distinct = sorted(set(values))
    index = {value: code for code, value in enumerate(distinct)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
    return codes, np.array(distinct, dtype=object)


class TrialSet:
    """An ordered, immutable collection of trials, stored as columns.

    Safe to share across concurrent readers; all mutating-looking
    operations return new sets.
    """

    def __init__(self, records: Iterable[TrialRecord], provenance: Provenance | None = None):
        records = tuple(records)
        self._fill({name: [getattr(r, name) for r in records] for name in ALL_FIELDS},
                   provenance)

    @classmethod
    def from_columns(cls, columns: dict[str, Sequence],
                     provenance: Provenance | None = None) -> "TrialSet":
        """A set from one equal-length sequence per name in ALL_FIELDS, in
        record order; ``answer_text`` may be left out."""
        trials = cls.__new__(cls)
        trials._fill(columns, provenance)
        return trials

    def _fill(self, columns: dict[str, Sequence], provenance: Provenance | None) -> None:
        self.nlp_values = np.asarray(columns["nlp"], dtype=float)
        self.correct_mask = np.asarray(columns["correct"], dtype=bool)
        self._answer_text = np.array(columns.get("answer_text", [None] * len(self.nlp_values)),
                                     dtype=object)
        self._coded = {name: _factorize(columns[name]) for name in CODED_FIELDS}
        self.provenance = provenance

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
        subset.provenance = self.provenance
        return subset

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        """The trials as TrialRecord rows, in record order."""
        strings = [values[codes].tolist()
                   for codes, values in map(self._coded.get, CODED_FIELDS)]
        return tuple(map(TrialRecord, *strings, self.correct_mask.tolist(),
                         self.nlp_values.tolist(), self._answer_text.tolist()))

    def __len__(self) -> int:
        return len(self.nlp_values)

    def __iter__(self) -> Iterator[TrialRecord]:
        return iter(self.records)

    def __getitem__(self, i) -> TrialRecord:
        return self.records[i]

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
        return filter_trials(self, domain=domain, condition=condition, format=format)


def _coerce_bool(value, line: int, path: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.strip().lower() in BOOLEAN_STRINGS:
        return BOOLEAN_STRINGS[value.strip().lower()]
    raise DataError(f"{path}:{line}: cannot interpret correct={value!r} as a boolean")


def _coerce_nlp(value, line: int, path: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise NonFiniteConfidence(line, path) from None
    if not math.isfinite(x):
        raise NonFiniteConfidence(line, path)
    return x


def _append_row(columns: dict[str, list], seen: set, row: dict, line: int,
                path: str) -> None:
    for name in REQUIRED_FIELDS:
        if name not in row or row[name] is None or row[name] == "":
            raise MissingField(name, line, path)
    answer = row.get("answer_text")
    values = (*(str(row[name]) for name in CODED_FIELDS),
              _coerce_bool(row["correct"], line, path), _coerce_nlp(row["nlp"], line, path),
              None if answer is None or answer == "" else str(answer))
    key = (values[0], values[2], values[3])
    if key in seen:
        raise DuplicateKey(key, line, path)
    seen.add(key)
    for name, value in zip(ALL_FIELDS, values):
        columns[name].append(value)


def load_trials(path: str | Path, format_hint: str | None = None) -> TrialSet:
    """Read a JSONL or CSV trial file into a validated TrialSet.

    ``format_hint`` is ``"jsonl"`` or ``"csv"``; when omitted it is taken
    from the file suffix (``.csv`` means CSV, anything else JSONL).
    Raises MissingField, DuplicateKey, or NonFiniteConfidence with the
    offending line number; raises EmptySet for a file with no records.
    """
    path = Path(path)
    fmt = format_hint or ("csv" if path.suffix.lower() == ".csv" else "jsonl")
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown trial file format {fmt!r}")

    columns: dict[str, list] = {name: [] for name in ALL_FIELDS}
    seen: set[tuple[str, str, str]] = set()
    sname = str(path)

    if fmt == "jsonl":
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{sname}:{line_no}: invalid JSON ({exc.msg})") from None
                if not isinstance(row, dict):
                    raise DataError(f"{sname}:{line_no}: expected a JSON object")
                _append_row(columns, seen, row, line_no, sname)
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise EmptySet(f"{sname}: no header row")
            for line_no, row in enumerate(reader, start=2):
                _append_row(columns, seen, row, line_no, sname)

    if not seen:
        raise EmptySet(f"{sname}: no trial records")
    return TrialSet.from_columns(columns, Provenance(source=sname))


def save_trials(trials: TrialSet, path: str | Path) -> None:
    """Write a TrialSet as canonical JSONL (load → save → load is identity)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in trials:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def filter_trials(trials: TrialSet, domain: str | None = None,
                  condition: str | None = None, format: str | None = None) -> TrialSet:
    """Order-preserving conjunctive subset; absent selectors match all.

    A selector value that occurs nowhere in the set triggers an
    UnknownSelectorValue warning; the (legal) empty result is returned.
    """
    mask = np.ones(len(trials), dtype=bool)
    for name, value in (("domain", domain), ("condition", condition), ("format", format)):
        if value is None:
            continue
        codes, values = trials.codes(name)
        match = np.flatnonzero(values == value)
        if len(match) == 0:
            warnings.warn(f"{name}={value!r} matches no records", UnknownSelectorValue,
                          stacklevel=2)
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
    """Codes of a field in a and in b, both into the sorted union of their values."""
    (codes_a, values_a), (codes_b, values_b) = a.codes(field), b.codes(field)
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
