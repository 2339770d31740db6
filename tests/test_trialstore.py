import json

import pytest

from metadkit.errors import (
    DuplicateKey,
    EmptySet,
    MissingField,
    NonFiniteConfidence,
    UnknownSelectorValue,
)
from metadkit.trialstore import (
    REQUIRED_FIELDS,
    TrialRecord,
    TrialSet,
    filter_trials,
    load_trials,
    save_trials,
    validate_paired,
)

ROWS = [
    {"question_id": "q1", "domain": "Arts", "condition": "1", "format": "f16",
     "correct": True, "nlp": -0.31},
    {"question_id": "q2", "domain": "Science", "condition": "1", "format": "f16",
     "correct": False, "nlp": -0.77, "answer_text": "a whale"},
    {"question_id": "q3", "domain": "Arts", "condition": "2", "format": "q5_k_m",
     "correct": True, "nlp": -0.12},
    {"question_id": "q4", "domain": "History", "condition": "1", "format": "f16",
     "correct": False, "nlp": -1.02},
]


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def test_load_jsonl_identity(tmp_path):
    path = write_jsonl(tmp_path / "t.jsonl", ROWS)
    trials = load_trials(path)
    assert len(trials) == 4
    assert [r.question_id for r in trials] == ["q1", "q2", "q3", "q4"]
    assert trials.records[1].answer_text == "a whale"
    assert trials.records[0].answer_text is None


def test_load_preserves_order_and_types(tmp_path):
    rows = list(ROWS)
    rows[0] = dict(rows[0], condition=1)  # ints normalize to strings
    path = write_jsonl(tmp_path / "t.jsonl", rows)
    trials = load_trials(path)
    assert trials.records[0].condition == "1"
    assert isinstance(trials.records[0].nlp, float)


def test_duplicate_key_rejected(tmp_path):
    rows = ROWS + [dict(ROWS[0], nlp=-0.5)]
    path = write_jsonl(tmp_path / "t.jsonl", rows)
    with pytest.raises(DuplicateKey) as excinfo:
        load_trials(path)
    assert excinfo.value.key == ("q1", "1", "f16")
    assert excinfo.value.line == 5


def test_missing_field_names_field_and_line(tmp_path):
    rows = [dict(ROWS[0])]
    del rows[0]["domain"]
    path = write_jsonl(tmp_path / "t.jsonl", rows)
    with pytest.raises(MissingField) as excinfo:
        load_trials(path)
    assert excinfo.value.field == "domain"
    assert excinfo.value.line == 1


def test_nonfinite_nlp_rejected_with_line(tmp_path):
    rows = [ROWS[0], dict(ROWS[1], nlp=float("nan"))]
    path = write_jsonl(tmp_path / "t.jsonl", rows)
    with pytest.raises(NonFiniteConfidence) as excinfo:
        load_trials(path)
    assert excinfo.value.line == 2


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptySet):
        load_trials(path)


def test_csv_load_matches_jsonl(tmp_path):
    jsonl = write_jsonl(tmp_path / "t.jsonl", ROWS)
    header = "question_id,domain,condition,format,correct,nlp,answer_text"
    lines = [header]
    for r in ROWS:
        lines.append(",".join([r["question_id"], r["domain"], r["condition"],
                               r["format"], str(r["correct"]).lower(),
                               str(r["nlp"]), r.get("answer_text", "")]))
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    a = load_trials(jsonl)
    b = load_trials(csv_path)
    assert a.records == b.records


def test_round_trip_is_fixed_point(tmp_path):
    path = write_jsonl(tmp_path / "t.jsonl", ROWS)
    first = load_trials(path)
    out = tmp_path / "resaved.jsonl"
    save_trials(first, out)
    second = load_trials(out)
    assert first.records == second.records
    save_trials(second, tmp_path / "resaved2.jsonl")
    assert (tmp_path / "resaved2.jsonl").read_bytes() == out.read_bytes()


def _set():
    return TrialSet([TrialRecord(**{**r, "condition": str(r["condition"])})
                     for r in ROWS])


def test_from_columns_refuses_columns_of_unequal_length():
    columns = {name: [row[name] for row in ROWS[:3]] for name in REQUIRED_FIELDS}
    columns["correct"] = columns["correct"][:2]
    with pytest.raises(ValueError) as caught:
        TrialSet.from_columns(columns)
    assert str(caught.value) == (
        "columns differ in length: {'question_id': 3, 'domain': 3, 'condition': 3, "
        "'format': 3, 'correct': 2, 'nlp': 3}")
    assert len(TrialSet.from_columns({**columns, "correct": [True] * 3})) == 3


def test_filter_identity_without_selectors():
    trials = _set()
    assert filter_trials(trials).records == trials.records


def test_filter_is_conjunctive():
    trials = _set()
    out = trials.filter(domain="Arts", condition="1")
    assert [r.question_id for r in out] == ["q1"]


def test_filter_unknown_value_warns_and_returns_empty():
    trials = _set()
    with pytest.warns(UnknownSelectorValue):
        out = trials.filter(domain="Nonexistent")
    assert len(out) == 0


@pytest.mark.parametrize("call", [
    lambda trials: trials.filter(condition="9"),
    lambda trials: filter_trials(trials, condition="9"),
], ids=["method", "function"])
def test_an_unknown_selector_warning_names_the_callers_line(call):
    with pytest.warns(UnknownSelectorValue, match="condition='9' matches no records") as caught:
        call(_set())
    assert [w.filename for w in caught] == [__file__]


def test_filter_composition():
    trials = _set()
    combined = trials.filter(domain="Arts", format="f16")
    chained = trials.filter(domain="Arts").filter(format="f16")
    assert combined.records == chained.records


def test_validate_paired_identity():
    trials = _set()
    report = validate_paired(trials, trials)
    assert report.paired
    assert report.missing == () and report.extra == ()
    assert report.n_shared == len(trials)


def test_validate_paired_differences():
    a = TrialSet([TrialRecord("q1", "Arts", "1", "f16", True, -0.5),
                  TrialRecord("q2", "Arts", "1", "f16", True, -0.4)])
    b = TrialSet([TrialRecord("q1", "Arts", "2", "f16", True, -0.5),
                  TrialRecord("q3", "Arts", "2", "f16", False, -0.9)])
    report = validate_paired(a, b)
    assert not report.paired
    assert report.missing == ("q2",)
    assert report.extra == ("q3",)


def test_validate_paired_counts_records_when_both_hold_the_same_ids():
    # the same distinct ids and domain in both sets, which skips the union
    # of their values: only the multiplicities differ
    a = TrialSet([TrialRecord(q, "Arts", "1", "f16", True, -0.5) for q in ("q1", "q1", "q2")])
    b = TrialSet([TrialRecord(q, "Arts", "2", "f16", True, -0.5) for q in ("q1", "q2", "q2")])
    report = validate_paired(a, b)
    assert not report.paired
    assert report.missing == ("q1",) and report.extra == ("q2",)
    assert report.n_shared == 2


def test_validate_paired_verdict_symmetric():
    a = TrialSet([TrialRecord("q1", "Arts", "1", "f16", True, -0.5)])
    b = TrialSet([TrialRecord("q1", "History", "1", "f16", True, -0.5)])
    fwd = validate_paired(a, b)
    rev = validate_paired(b, a)
    assert fwd.paired == rev.paired == False  # same id under different domains
    assert fwd.missing == rev.extra and fwd.extra == rev.missing


def _random_set(rng, n, prefix):
    """Records with repeated ids, ids shared across domains and formats, and
    an unsorted first-appearance order."""
    return TrialSet([
        TrialRecord(f"{prefix}{rng.integers(0, 12)}", str(rng.choice(["Arts", "Science"])),
                    "1", str(rng.choice(["f16", "q5_k_m", "q8"])), bool(rng.random() < 0.5),
                    float(rng.normal()))
        for _ in range(n)
    ])


def test_columnar_queries_match_record_loops():
    from collections import Counter

    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(20):
        a = _random_set(rng, int(rng.integers(1, 30)), "q")
        b = _random_set(rng, int(rng.integers(0, 30)), str(rng.choice(["q", "x"])))
        assert a.question_ids() == list(dict.fromkeys(r.question_id for r in a))
        assert a.domain_counts() == dict(sorted(Counter(r.domain for r in a).items()))
        assert a.formats() == sorted({r.format for r in a})
        sub = a.filter(format=a.records[0].format)
        assert sub.records == tuple(r for r in a if r.format == a.records[0].format)
        assert sub.domains() == sorted({r.domain for r in sub})
        assert sub.question_ids() == list(dict.fromkeys(r.question_id for r in sub))

        ca = Counter((r.domain, r.question_id) for r in a)
        cb = Counter((r.domain, r.question_id) for r in b)
        report = validate_paired(a, b)
        assert report.paired == (ca == cb)
        assert report.n_shared == sum((ca & cb).values())
        assert report.missing == tuple(sorted({q for _, q in (ca - cb).elements()}))
        assert report.extra == tuple(sorted({q for _, q in (cb - ca).elements()}))
