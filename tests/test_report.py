import csv
import io
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from metadkit.bootstrap import ContrastResult
from metadkit.errors import EmptyInput, IncompleteInput, TiedRanks
from metadkit.profiles import RANK_METRICS, compare_formats, rank_profile
from metadkit.report import ReportBundle, emit_bar_chart, emit_tables, reproduction_notes
from tests.test_profiles import profile


def ranked_profiles():
    q5 = [profile("Science", m_ratio=1.352, auroc2=0.619, format="q5_k_m"),
          profile("Geography", m_ratio=1.210, auroc2=0.629, format="q5_k_m"),
          profile("History", m_ratio=0.615, auroc2=0.669, format="q5_k_m"),
          profile("Arts", m_ratio=0.606, auroc2=0.710, format="q5_k_m")]
    f16 = [profile("Science", m_ratio=1.436, auroc2=0.643),
           profile("Geography", m_ratio=0.798, auroc2=0.668),
           profile("History", m_ratio=0.470, auroc2=0.672),
           profile("Arts", m_ratio=1.542, auroc2=0.680)]
    out = []
    for cell in (q5, f16):
        for metric in RANK_METRICS:
            cell = rank_profile(cell, metric)
        out.extend(cell)
    return out


def sample_contrast():
    return ContrastResult(hypothesis_id="H1", metric="meta_d", domain="Science",
                          delta_hat=-0.118, ci_low=-0.539, ci_high=0.348,
                          ci_level=0.95, n_resamples=10_000, seed=42,
                          decision="not_supported", contrast="2-1")


def test_emitted_names_are_the_declared_ones():
    q5 = [p for p in ranked_profiles() if p.format == "q5_k_m"]
    f16 = [p for p in ranked_profiles() if p.format == "f16"]
    docs = emit_tables(ranked_profiles(), [sample_contrast()],
                       compare_formats(q5, f16), target="markdown")
    assert set(docs) == {"sensitivity_by_format", "auroc2_by_format",
                         "nlp_gap_by_condition", "metrics_full", "contrasts",
                         "format_comparison"}


def test_sensitivity_table_is_long_format():
    docs = emit_tables(ranked_profiles(), target="markdown")
    lines = docs["sensitivity_by_format"].strip().splitlines()
    assert lines[0] == "| Cond | Format | Domain | d' | meta-d' | M-ratio | Rank |"
    assert len(lines) == 2 + 8  # header + separator + 4 domains x 2 formats


def test_values_rendered_at_three_decimals():
    docs = emit_tables(ranked_profiles(), target="markdown")
    assert "| 1.352 |" in docs["sensitivity_by_format"]
    assert "0.619" in docs["auroc2_by_format"]


def test_contrast_table_empty_is_header_only():
    docs = emit_tables([], contrasts=[], target="csv")
    lines = docs["contrasts"].strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Hypothesis,")


def test_contrast_table_row():
    docs = emit_tables([], contrasts=[sample_contrast()], target="markdown")
    assert "| H1 | 2-1 | Science | meta_d | -0.118 | -0.539 | 0.348 | 0.950 | "\
           "not_supported |" in docs["contrasts"]


def test_csv_full_precision_round_trips():
    profiles = ranked_profiles()
    docs = emit_tables(profiles, target="csv", full_precision=True)
    rows = list(csv.DictReader(io.StringIO(docs["metrics_full"])))
    by_key = {(r["Cond"], r["Format"], r["Domain"]): r for r in rows}
    for p in profiles:
        row = by_key[(p.condition, p.format, p.domain)]
        assert float(row["M-ratio"]) == p.m_ratio
        assert float(row["NLP gap"]) == p.nlp_gap
        assert int(row["N"]) == p.n


def test_unranked_profiles_rejected():
    with pytest.raises(IncompleteInput):
        emit_tables([profile("Arts")], target="markdown")


def test_profiles_ranked_on_one_metric_only_rejected():
    with pytest.raises(IncompleteInput):
        emit_tables(rank_profile([profile("Arts")], "m_ratio"), target="markdown")


def test_comparison_table_contains_rhos():
    profiles = ranked_profiles()
    q5 = [p for p in profiles if p.format == "q5_k_m"]
    f16 = [p for p in profiles if p.format == "f16"]
    comparison = compare_formats(q5, f16)
    docs = emit_tables(profiles, comparison=comparison, target="markdown")
    assert "rho_m_ratio | -0.200" in docs["format_comparison"]
    assert "rho_auroc2 | 1.000" in docs["format_comparison"]


def test_notes_surface_warnings():
    profiles = ranked_profiles()
    low_d = [profile("Arts", d_prime=0.3, low_dprime_warning=True,
                     ranks=dict.fromkeys(RANK_METRICS, 1))]
    contrast = ContrastResult(hypothesis_id="H1", metric="meta_d", domain="Science",
                              delta_hat=0.0, ci_low=-0.1, ci_high=0.1,
                              ci_level=0.95, n_resamples=100, seed=42,
                              decision="not_supported",
                              degenerate_resample_count=7, flagged_degenerate=True)
    q5 = [p for p in profiles if p.format == "q5_k_m"]
    f16 = [p for p in profiles if p.format == "f16"]
    notes = reproduction_notes(low_d, [contrast], compare_formats(q5, f16))
    text = "\n".join(notes)
    assert "d' = 0.300 < 0.5" in text
    assert "7/100 resamples" in text
    assert "alarm threshold" in text
    assert "average-rank Spearman" in text
    assert "resampling mode: paired" in text


@pytest.mark.parametrize("excluded, suffix", [(3, ""),
                                               (11, " (above the 1% alarm threshold)")])
def test_alarm_note_reads_the_excluded_count_not_the_flag(excluded, suffix):
    """An undefined point estimate flags a result whatever its resamples."""
    contrast = replace(sample_contrast(), delta_hat=float("nan"), n_resamples=1000,
                       degenerate_resample_count=excluded, flagged_degenerate=True)
    assert [n for n in reproduction_notes(contrasts=[contrast]) if "excluded" in n] == [
        f"H1/Science: {excluded}/1000 resamples had an undefined statistic and were "
        f"excluded{suffix}"]


def test_notes_flag_ties():
    tied = [profile("A", m_ratio=1.0, ranks=dict.fromkeys(RANK_METRICS, 1)),
            profile("B", m_ratio=1.0, ranks=dict.fromkeys(RANK_METRICS, 2))]
    notes = reproduction_notes(tied)
    assert any("ties" in n for n in notes)


def test_notes_flag_the_nan_ties_that_rank_profile_warns_about():
    profs = [profile("A", m_ratio=float("nan"), auroc2=0.6),
             profile("B", m_ratio=float("nan"), auroc2=0.7),
             profile("C", m_ratio=0.8, auroc2=0.8)]
    with pytest.warns(TiedRanks):
        rank_profile(profs, "m_ratio")
    assert reproduction_notes(profs) == [
        "('1', 'f16'): m_ratio ranks contain ties, broken by domain name"]


def test_svg_deterministic(tmp_path):
    profiles = ranked_profiles()
    a = emit_bar_chart(profiles, "m_ratio", tmp_path / "a.svg")
    b = emit_bar_chart(profiles, "m_ratio", tmp_path / "b.svg")
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert a.startswith("<svg")
    # one bar per (domain, format) pair plus legend swatches
    assert a.count("<rect") == 8 + 2 + 1  # bars + legend + background


def chart_bars(doc):
    """The bar rects of an emit_bar_chart document; it must parse as XML."""
    svg = "{http://www.w3.org/2000/svg}"
    return ET.fromstring(doc).findall(f"{svg}g[@id='bars']/{svg}rect")


def test_svg_escapes_text_and_draws_one_bar_per_profile(tmp_path):
    """"Arts & Literature" gave a document no XML parser reads, and bars
    keyed by (domain, format) drew the last condition's values alone."""
    profiles = [profile(domain, m_ratio=value, format=fmt, condition=condition)
                for condition, scale in (("1", 1.0), ("2", 0.5), ("3", 1.5))
                for fmt, shift in (("f16", 0.0), ("q5_k_m", 0.1))
                for domain, base in (("Arts & Literature", 0.6), ("Science", 1.2))
                for value in [scale * base + shift]]
    doc = emit_bar_chart(profiles, "m_ratio", tmp_path / "m.svg")
    assert "cond 2 Arts &amp; Literature" in doc
    bars = sorted(chart_bars(doc), key=lambda bar: float(bar.get("x")))
    assert len(bars) == len(profiles)
    # left to right, each bar's height is its profile's value on one scale
    ordered = sorted(profiles, key=lambda p: (p.condition, p.domain, p.format))
    heights = [float(bar.get("height")) for bar in bars]
    per_unit = heights[-1] / ordered[-1].m_ratio
    assert heights == pytest.approx([p.m_ratio * per_unit for p in ordered], abs=0.01)


def test_svg_single_profile(tmp_path):
    one = [profile("Science", ranks=dict.fromkeys(RANK_METRICS, 1))]
    doc = emit_bar_chart(one, "auroc2", tmp_path / "one.svg")
    assert doc.count("<rect") == 1 + 1 + 1


def test_svg_empty_rejected(tmp_path):
    with pytest.raises(EmptyInput):
        emit_bar_chart([], "m_ratio", tmp_path / "x.svg")


def test_report_bundle_writes_everything(tmp_path):
    bundle = ReportBundle(profiles=tuple(ranked_profiles()),
                          contrasts=(sample_contrast(),))
    bundle.write(tmp_path, chart_metrics=("m_ratio",))
    for name in ("sensitivity_by_format.md", "sensitivity_by_format.csv",
                 "contrasts.md", "contrasts.csv", "notes.md",
                 "m_ratio_by_domain.svg"):
        assert (tmp_path / name).exists(), name
