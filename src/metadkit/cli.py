"""Command-line entry point.

Subcommands wire the library into the standard workflows: ``validate``
checks a trial file, ``diagnose`` builds per-(condition, format, domain)
profile tables, ``compare-formats`` scores profile stability across two
formats, ``confirm`` runs the bootstrap hypothesis suite, and ``synth``
generates synthetic trials.

A run's settings are RunConfig's fields, read in layers, each over the one
before: defaults <- ``$METADKIT_WORKERS`` (``workers``) <- a flat key=value
config file of RunConfig keys (``--config``) <- flags. A command has a flag
(``_FLAGS``) only for each key it reads; ``confirm`` refuses a config
file's ``binning_scope`` but per_cell. Flag text is read by the key's type,
as config-file text is, and an argument the parser refuses is, like a
setting that does not parse, one ``config error: …`` line.
Exit codes: 0 success, 1 data error, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .binning import DEFAULT_PAD_VALUE, RatingScale, check_pad_value
from .bootstrap import (PAIRINGS, check_resampling, default_hypothesis_specs,
                        run_hypothesis_suite)
from .errors import ConfigError, DataError, MetadkitError
from .profiles import (BINNING_SCOPES, RANK_METRICS, build_profiles, check_binning_scope,
                       compare_formats)
from .report import ReportBundle
from .synth import SynthConfig, generate
from .trialstore import BOOLEAN_STRINGS, load_trials, save_trials

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

WORKERS_ENV_VAR = "METADKIT_WORKERS"


@dataclass
class RunConfig:
    """All run parameters; defaults reproduce the standard protocol."""

    trials: str = ""
    n_ratings: int = 4
    pad_value: float = DEFAULT_PAD_VALUE
    seed: int = 42
    n_resamples: int = 10_000
    tost_delta: float = 0.17
    ci_level_confirmatory: float = 0.95
    binning_scope: str = "per_cell"
    pairing: str = "paired"
    out: str = "out"
    workers: int = 1        # processes in all, this one included; 1 starts no worker process
    full_precision: bool = False

    def validate(self) -> None:
        """Check each setting by the library check of the code that uses it."""
        try:
            RatingScale(self.n_ratings)
            check_pad_value(self.pad_value)
            check_binning_scope(self.binning_scope)
            check_resampling(self.n_resamples, self.workers, self.pairing)
            default_hypothesis_specs(self.tost_delta, self.ci_level_confirmatory)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def scale(self) -> RatingScale:
        return RatingScale(self.n_ratings)


# the parser of each setting type, by the field annotation that names it, and
# the noun of the error when a value does not parse
_PARSERS = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda raw: BOOLEAN_STRINGS[raw.lower()], "true/false/1/0/yes/no"),
    "tuple[float, ...]": (lambda raw: tuple(map(float, raw.split(","))),
                          "a comma-separated list of numbers"),
}

# the type of every key a config file or a flag may set: RunConfig's fields
_RUN_TYPES = {f.name: f.type for f in fields(RunConfig)}
CONFIG_KEYS = tuple(_RUN_TYPES)


def _parse(type_: str, key: str, raw: str):
    """``raw`` read as a value of the annotated type ``type_``."""
    parse, noun = _PARSERS[type_]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key} must be {noun}, got {raw!r}") from None


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Flat 'key = value' file; blank lines and # comments ignored. A file
    that cannot be read as UTF-8 text is a ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _read_settings(path: str | Path, types: dict[str, str], kind: str) -> dict:
    """The key=value file at ``path``, each value parsed by its key's type."""
    values = {}
    for key, raw in parse_kv_file(path).items():
        if key not in types:
            raise ConfigError(f"unknown {kind} key {key!r}")
        values[key] = _parse(types[key], key, raw)
    return values


def load_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Defaults <- $METADKIT_WORKERS <- config file <- ``overrides``, the
    values of the flags given; text read by type."""
    raw_workers = os.environ.get(WORKERS_ENV_VAR)
    from_env = {"workers": _parse("int", WORKERS_ENV_VAR, raw_workers)} if raw_workers else {}
    from_file = _read_settings(config_path, _RUN_TYPES, "config") if config_path else {}
    config = RunConfig(**{**from_env, **from_file, **overrides})
    config.validate()
    return config


# the flag and help of each RunConfig key a flag sets: ``--<key>`` with
# dashes but for three; pad_value and ci_level_confirmatory have none
_FLAGS = {
    "trials": ("--trials", "trial file (JSONL or CSV)"),
    "seed": ("--seed", "bootstrap seed (default 42)"),
    "n_resamples": ("--resamples", "bootstrap resample count (default 10000)"),
    "n_ratings": ("--nratings", "ratings per response side (default 4)"),
    "tost_delta": ("--delta", "TOST equivalence margin (default 0.17)"),
    "out": ("--out", "output directory (default ./out)"),
    "workers": ("--workers", f"bootstrap processes in all, this one included; 1 starts "
                             f"no worker process (default ${WORKERS_ENV_VAR} or 1)"),
    "full_precision": ("--full-precision", "write CSV values at full precision"),
    "binning_scope": ("--binning-scope", f"quantile binning scope, one of "
                                         f"{', '.join(BINNING_SCOPES)} (default per_cell)"),
    "pairing": ("--pairing", f"contrast resampling mode, one of {', '.join(PAIRINGS)} "
                             f"(default paired)"),
}
# the keys diagnose and compare-formats read, and those confirm reads
_PROFILE_KEYS = ("trials", "n_ratings", "out", "full_precision", "binning_scope")
_CONFIRM_KEYS = ("trials", "seed", "n_resamples", "n_ratings", "tost_delta", "out", "workers",
                 "full_precision", "pairing")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises a ConfigError on an argument it refuses,
    which main prints as one ``config error: …`` line, with no usage text."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_settings(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """``--config`` and the flag of each key, its value kept as text."""
    parser.add_argument("--config", help="flat key=value run configuration file")
    for key in keys:
        flag, help_ = _FLAGS[key]
        if _RUN_TYPES[key] == "bool":
            parser.add_argument(flag, dest=key, action="store_const", const="true", help=help_)
        else:
            parser.add_argument(flag, dest=key, help=help_)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metadkit",
        description="Domain-level metacognitive diagnostics from trial-level records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a trial file")
    p.add_argument("--trials", required=True)

    p = sub.add_parser("diagnose", help="profile tables per (condition, format)")
    _add_settings(p, _PROFILE_KEYS)
    p.add_argument("--format", help="restrict analysis to one format")

    p = sub.add_parser("compare-formats", help="profile stability across two formats")
    _add_settings(p, _PROFILE_KEYS)
    p.add_argument("--format-a", required=True)
    p.add_argument("--format-b", required=True)
    p.add_argument("--condition", help="condition to compare (default: the only one)")

    p = sub.add_parser("confirm", help="run the confirmatory hypothesis suite")
    _add_settings(p, _CONFIRM_KEYS)
    p.add_argument("--format", help="restrict analysis to one format")

    p = sub.add_parser("synth", help="generate synthetic trials")
    p.add_argument("--synth-config", required=True,
                   help="flat key=value synthetic generator configuration")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--seed", help="override the config seed")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run config of a command's flags, their text read as a config
    file's is, over its ``--config`` file."""
    flags = {key: _parse(_RUN_TYPES[key], key, raw) for key in _FLAGS
             if (raw := getattr(args, key, None)) is not None}
    return load_run_config(args.config, flags)


def _load(config: RunConfig, fmt: str | None = None):
    """The trial file, restricted to format ``fmt`` when one is given."""
    if not config.trials:
        raise ConfigError("no trial file given (use --trials or the config file)")
    trials = load_trials(config.trials)
    if fmt:
        if fmt not in trials.formats():
            raise DataError(f"no trials for format {fmt!r}")
        trials = trials.filter(format=fmt)
    return trials


def cmd_validate(args: argparse.Namespace) -> int:
    trials = load_trials(args.trials)
    print(f"{len(trials)} trials, {len(trials.question_ids())} questions")
    print(f"conditions: {', '.join(trials.conditions())}")
    print(f"formats: {', '.join(trials.formats())}")
    for domain, count in trials.domain_counts().items():
        print(f"  {domain} {count}")
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    trials = _load(config, args.format)
    profiles = build_profiles(trials, scale=config.scale, pad_value=config.pad_value,
                              binning_scope=config.binning_scope)
    bundle = ReportBundle(profiles=tuple(profiles))
    bundle.write(config.out, full_precision=config.full_precision,
                 chart_metrics=RANK_METRICS)
    print(f"{len(profiles)} profiles -> {config.out}")
    for p in profiles:
        print(f"  cond {p.condition} {p.format} {p.domain}: n={p.n} "
              f"acc={p.accuracy:.3f} d'={p.d_prime:.3f} meta-d'={p.meta_d:.3f} "
              f"M-ratio={p.m_ratio:.3f} AUROC2={p.auroc2:.3f}")
    if any(not p.fit_converged for p in profiles):
        return EXIT_NUMERICAL_ERROR
    return EXIT_OK


def cmd_compare_formats(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    trials = _load(config)
    conditions = trials.conditions()
    condition = args.condition or (conditions[0] if len(conditions) == 1 else None)
    if condition is None:
        raise ConfigError(f"multiple conditions present ({', '.join(conditions)}); "
                          "pick one with --condition")
    if condition not in conditions:
        raise DataError(f"no trials for condition {condition!r}")
    for fmt in (args.format_a, args.format_b):
        if fmt not in trials.formats():
            raise DataError(f"no trials for format {fmt!r}")
    profiles = {}
    for fmt in dict.fromkeys((args.format_a, args.format_b)):
        subset = trials.filter(condition=condition, format=fmt)
        if len(subset) == 0:
            raise DataError(f"no trials for condition {condition!r} format {fmt!r}")
        profiles[fmt] = build_profiles(subset, scale=config.scale,
                                       pad_value=config.pad_value,
                                       binning_scope=config.binning_scope)
    comparison = compare_formats(profiles[args.format_a], profiles[args.format_b])
    all_profiles = [p for fmt_profiles in profiles.values() for p in fmt_profiles]
    bundle = ReportBundle(profiles=tuple(all_profiles), comparison=comparison)
    bundle.write(config.out, full_precision=config.full_precision)
    for metric, rho in comparison.rho.items():
        print(f"rho_{metric} = {rho:.3f}")
    for move in comparison.rank_moves:
        if move.moved:
            print(f"  {move.metric} {move.domain}: rank {move.rank_a} -> {move.rank_b}")
    if any(not p.fit_converged for p in all_profiles):
        return EXIT_NUMERICAL_ERROR
    return EXIT_OK


def cmd_confirm(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.binning_scope != "per_cell":
        raise ConfigError(f"confirm bins each resampled cell on its own, so binning_scope "
                          f"must be per_cell, got {config.binning_scope!r}")
    trials = _load(config, args.format)
    specs = default_hypothesis_specs(tost_delta=config.tost_delta,
                                     ci_confirmatory=config.ci_level_confirmatory)
    results = run_hypothesis_suite(trials, specs, n_resamples=config.n_resamples,
                                   seed=config.seed, workers=config.workers,
                                   scale=config.scale, pad_value=config.pad_value,
                                   pairing=config.pairing)
    bundle = ReportBundle(contrasts=tuple(results))
    bundle.write(config.out, full_precision=config.full_precision)
    for r in results:
        print(f"{r.hypothesis_id} {r.domain}: delta={r.delta_hat:+.3f} "
              f"{int(r.ci_level * 100)}% CI [{r.ci_low:.3f}, {r.ci_high:.3f}] "
              f"-> {r.decision}")
    if any(r.flagged_degenerate for r in results):
        return EXIT_NUMERICAL_ERROR
    return EXIT_OK


def load_synth_config(path: str | Path) -> SynthConfig:
    kwargs = _read_settings(path, {f.name: f.type for f in fields(SynthConfig)},
                            "synth config")
    if "n_trials" not in kwargs or "p_correct" not in kwargs:
        raise ConfigError("synth config needs at least n_trials and p_correct")
    return SynthConfig(**kwargs)


def cmd_synth(args: argparse.Namespace) -> int:
    config = load_synth_config(args.synth_config)
    if args.seed is not None:
        config = replace(config, seed=_parse("int", "seed", args.seed))
    trials = generate(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trials(trials, out)
    print(f"{len(trials)} trials -> {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "validate": cmd_validate,
        "diagnose": cmd_diagnose,
        "compare-formats": cmd_compare_formats,
        "confirm": cmd_confirm,
        "synth": cmd_synth,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except MetadkitError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
