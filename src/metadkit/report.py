"""Render profile tables, contrast tables, and bar charts.

Every numeric cell traces to a computed value: rendering applies the
declared rounding (3 decimals for reals, integers for ranks and counts)
and nothing else. CSV output can switch to full precision so values
round-trip exactly. SVG charts are emitted without timestamps or any
other run-varying content, so byte-identical inputs give byte-identical
documents.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .bootstrap import DEGENERATE_FRACTION_ALARM, ContrastResult
from .errors import EmptyInput, IncompleteInput
from .profiles import RANK_METRICS, DomainProfile, FormatComparison, ranks_tie


@dataclass(frozen=True)
class ReportBundle:
    """Everything one run wants rendered, kept as computed values.

    Rendering happens at the edges (tables/notes/charts); no literal is
    injected at render time, so a bundle can be re-rendered to any target
    without recomputation.
    """

    profiles: tuple[DomainProfile, ...] = ()
    contrasts: tuple[ContrastResult, ...] = ()
    comparison: FormatComparison | None = None

    def tables(self, target: str = "markdown", full_precision: bool = False) -> dict[str, str]:
        return emit_tables(list(self.profiles), list(self.contrasts),
                           self.comparison, target=target,
                           full_precision=full_precision)

    def notes(self) -> list[str]:
        return reproduction_notes(list(self.profiles), list(self.contrasts), self.comparison)

    def write(self, out_dir: str | Path, full_precision: bool = False,
              chart_metrics: tuple[str, ...] = ()) -> None:
        """Write markdown + CSV tables, notes.md, and optional SVG charts."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.tables("markdown").items():
            (out_dir / f"{name}.md").write_text(doc, encoding="utf-8")
        for name, doc in self.tables("csv", full_precision).items():
            (out_dir / f"{name}.csv").write_text(doc, encoding="utf-8", newline="")
        lines = [f"- {note}" for note in self.notes()] or ["- none"]
        (out_dir / "notes.md").write_text(
            "# Reproduction notes\n\n" + "\n".join(lines) + "\n", encoding="utf-8")
        for metric in chart_metrics:
            emit_bar_chart(list(self.profiles), metric,
                           out_dir / f"{metric}_by_domain.svg")


def _fmt(value, full_precision: bool = False) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value) if full_precision else f"{value:.3f}"
    return str(value)


def _markdown_table(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def _csv_table(header: list[str], rows: list[list], full_precision: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, full_precision) for v in row])
    return buf.getvalue()


def _require_ranks(profiles: list[DomainProfile]) -> None:
    missing = [f"({p.condition}, {p.format}, {p.domain})" for p in profiles
               if any(metric not in p.ranks for metric in RANK_METRICS)]
    if missing:
        raise IncompleteInput(f"profiles missing ranks: {', '.join(missing)}")


def _sorted_profiles(profiles: list[DomainProfile]) -> list[DomainProfile]:
    return sorted(profiles, key=lambda p: (p.condition, p.format, p.domain))


def emit_tables(profiles: list[DomainProfile],
                contrasts: list[ContrastResult] | tuple = (),
                comparison: FormatComparison | None = None,
                target: str = "markdown",
                full_precision: bool = False) -> dict[str, str]:
    """Render all tables the inputs can support; returns {name: document}.

    ``target`` is "markdown" or "csv". Profile tables need ranked
    profiles (IncompleteInput otherwise); an empty contrast list renders
    a header-only contrast table.
    """
    if target not in ("markdown", "csv"):
        raise ValueError(f"target must be markdown or csv, got {target!r}")
    render = (lambda h, r: _markdown_table(h, r)) if target == "markdown" \
        else (lambda h, r: _csv_table(h, r, full_precision))

    docs: dict[str, str] = {}
    if profiles:
        _require_ranks(profiles)
        ordered = _sorted_profiles(profiles)

        docs["sensitivity_by_format"] = render(
            ["Cond", "Format", "Domain", "d'", "meta-d'", "M-ratio", "Rank"],
            [[p.condition, p.format, p.domain, p.d_prime, p.meta_d, p.m_ratio,
              p.ranks["m_ratio"]] for p in ordered])

        docs["auroc2_by_format"] = render(
            ["Cond", "Format", "Domain", "AUROC2", "Rank"],
            [[p.condition, p.format, p.domain, p.auroc2, p.ranks["auroc2"]]
             for p in ordered])

        domains = sorted({p.domain for p in ordered})
        gap_rows = []
        for key in sorted({(p.condition, p.format) for p in ordered}):
            cell = {p.domain: p.nlp_gap for p in ordered
                    if (p.condition, p.format) == key}
            missing = [d for d in domains if d not in cell]
            if missing:
                raise IncompleteInput(
                    f"nlp_gap table missing domains {missing} for {key}")
            gap_rows.append([key[0], key[1]] + [cell[d] for d in domains])
        docs["nlp_gap_by_condition"] = render(
            ["Cond", "Format"] + domains, gap_rows)

        docs["metrics_full"] = render(
            ["Cond", "Format", "Domain", "N", "Acc", "d'", "meta-d'", "M-ratio",
             "NLP gap"],
            [[p.condition, p.format, p.domain, p.n, p.accuracy, p.d_prime,
              p.meta_d, p.m_ratio, p.nlp_gap] for p in ordered])

    docs["contrasts"] = render(
        ["Hypothesis", "Contrast", "Domain", "Metric", "Delta", "CI low",
         "CI high", "CI level", "Result"],
        [[c.hypothesis_id, c.contrast or c.metric, c.domain, c.metric,
          c.delta_hat, c.ci_low, c.ci_high, c.ci_level, c.decision]
         for c in contrasts])

    if comparison is not None:
        rows = [[f"rho_{m}", v] for m, v in comparison.rho.items()]
        for move in comparison.rank_moves:
            rows.append([f"rank_{move.metric}:{move.domain}",
                         f"{move.rank_a} -> {move.rank_b}"])
        docs["format_comparison"] = render(
            [f"Comparison {comparison.format_a} vs {comparison.format_b}", "Value"],
            rows)
    return docs


def reproduction_notes(profiles: list[DomainProfile] = (),
                       contrasts: list[ContrastResult] | tuple = (),
                       comparison: FormatComparison | None = None) -> list[str]:
    """Warnings and caveats that belong next to the rendered numbers."""
    notes: list[str] = []
    for p in _sorted_profiles(list(profiles)):
        cell = f"({p.condition}, {p.format}, {p.domain})"
        if p.low_dprime_warning:
            notes.append(f"{cell}: d' = {p.d_prime:.3f} < 0.5; the M-ratio "
                         "estimate is unstable in this regime")
        if not p.fit_converged:
            notes.append(f"{cell}: sensitivity fit did not converge")
    by_cf: dict = {}
    for p in profiles:
        by_cf.setdefault((p.condition, p.format), []).append(p)
    for key, group in sorted(by_cf.items()):
        for metric in RANK_METRICS:
            if ranks_tie([getattr(p, metric) for p in group]):
                notes.append(f"{key}: {metric} ranks contain ties, broken by "
                             "domain name")
    for c in contrasts:
        if math.isnan(c.delta_hat):
            notes.append(f"{c.hypothesis_id or c.metric}/{c.domain}: the point estimate "
                         "is undefined: a sensitivity fit did not converge")
        n_bad = c.degenerate_resample_count
        if n_bad:
            notes.append(
                f"{c.hypothesis_id or c.metric}/{c.domain}: {n_bad}/{c.n_resamples} resamples "
                f"had an undefined statistic and were excluded"
                + (f" (above the {DEGENERATE_FRACTION_ALARM:.0%} alarm threshold)"
                   if n_bad > DEGENERATE_FRACTION_ALARM * c.n_resamples else ""))
    if contrasts:
        pairings = sorted({c.pairing for c in contrasts})
        notes.append(f"resampling mode: {', '.join(pairings)}; percentile CIs; "
                     "exact interval bounds depend on the documented RNG streams")
    if comparison is not None:
        notes.append("rank correlations are average-rank Spearman coefficients "
                     "computed from the metric values; externally reported "
                     "summaries derived by other conventions can differ from "
                     "the formula value reported here")
    return notes


# -- SVG bar chart -------------------------------------------------------------

_PALETTE = ("#4878a8", "#e49444", "#6a9f58", "#d1605e", "#85b6b2", "#b8b0ac")


def _nice_ticks(upper: float, n: int = 5) -> list[float]:
    if upper <= 0:
        return [0.0, 1.0]
    raw = upper / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step * n >= upper:
            break
    ticks = []
    v = 0.0
    while v < upper + 0.5 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks


# the escapes that make any string an XML text node
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _svg_text(x, y, text, size: int, attrs: str = "") -> str:
    """A sans-serif SVG text element at (x, y), its text XML-escaped."""
    return (f'<text x="{x}" y="{y}"{attrs} font-family="sans-serif" font-size="{size}">'
            f'{str(text).translate(_XML_TEXT)}</text>')


def emit_bar_chart(profiles: list[DomainProfile], metric: str, path: str | Path) -> str:
    """Bar chart of ``metric`` as a deterministic SVG document: one bar per
    profile, grouped by (condition, domain), one colour per format."""
    if not profiles:
        raise EmptyInput("no profiles to chart")
    groups = sorted({(p.condition, p.domain) for p in profiles})
    formats = sorted({p.format for p in profiles})
    labels = [f"cond {condition} {domain}" for condition, domain in groups]

    margin_l, margin_r, margin_t = 70, 160, 40
    margin_b = 50 + 5 * max(map(len, labels))   # room for the slanted group labels
    plot_w = max(490, len(groups) * max(36, 14 * len(formats)))
    plot_h = 320
    width, height = margin_l + plot_w + margin_r, margin_t + plot_h + margin_b
    vmax = max(max(getattr(p, metric) for p in profiles), 0.0)
    ticks = _nice_ticks(vmax * 1.1 if vmax > 0 else 1.0)
    top = ticks[-1]
    group_w = plot_w / len(groups)
    bar_w = group_w * 0.8 / len(formats)

    def y_of(v: float) -> float:
        return margin_t + plot_h * (1.0 - v / top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _svg_text(f"{margin_l + plot_w / 2:.1f}", 24,
                  f"{metric} by condition, domain and format", 16, ' text-anchor="middle"'),
    ]
    for t in ticks:
        y = y_of(t)
        parts.append(f'<line x1="{margin_l}" y1="{y:.2f}" x2="{margin_l + plot_w}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(_svg_text(margin_l - 8, f"{y + 4:.2f}", f"{t:g}", 11, ' text-anchor="end"'))
    parts.append('<g id="bars">')
    column = {group: gi for gi, group in enumerate(groups)}
    for p in sorted(profiles, key=lambda p: (p.condition, p.domain, p.format)):
        fi = formats.index(p.format)
        x = margin_l + (column[p.condition, p.domain] + 0.1) * group_w + fi * bar_w
        y = y_of(max(getattr(p, metric), 0.0))
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{abs(y_of(0.0) - y):.2f}" fill="{_PALETTE[fi % len(_PALETTE)]}"/>')
    parts.append("</g>")
    label_y = margin_t + plot_h + 14
    for gi, label in enumerate(labels):
        x = f"{margin_l + (gi + 0.5) * group_w:.2f}"
        parts.append(_svg_text(x, label_y, label, 12,
                               f' text-anchor="end" transform="rotate(-45 {x} {label_y})"'))
    parts.append(f'<line x1="{margin_l}" y1="{y_of(0.0):.2f}" x2="{margin_l + plot_w}" '
                 f'y2="{y_of(0.0):.2f}" stroke="#333333"/>')
    parts.append(f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
                 f'y2="{margin_t + plot_h}" stroke="#333333"/>')
    middle = f"{margin_t + plot_h / 2:.1f}"
    parts.append(_svg_text(18, middle, metric, 13,
                           f' text-anchor="middle" transform="rotate(-90 18 {middle})"'))
    for fi, fmt in enumerate(formats):
        lx = margin_l + plot_w + 16
        ly = margin_t + 10 + fi * 22
        parts.append(f'<rect x="{lx}" y="{ly}" width="14" height="14" '
                     f'fill="{_PALETTE[fi % len(_PALETTE)]}"/>')
        parts.append(_svg_text(lx + 20, ly + 11, fmt, 12))
    parts.append(_svg_text(f"{margin_l + plot_w / 2:.1f}", height - 14, "condition, domain", 13,
                           ' text-anchor="middle"'))
    parts.append("</svg>")
    doc = "\n".join(parts) + "\n"
    Path(path).write_text(doc, encoding="utf-8")
    return doc
