import json
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from metadkit.binning import RatingScale, check_pad_value
from metadkit.bootstrap import (
    RULE_CI_LOWER_GT_ZERO,
    RULE_TOST,
    HypothesisSpec,
    check_resampling,
)
from metadkit.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    RunConfig,
    _FLAGS,
    _PARSERS,
    _config_from_args,
    build_parser,
    load_run_config,
    load_synth_config,
    main,
    parse_kv_file,
)
from metadkit.errors import ConfigError, InvalidConfig, MetadkitWarning
from metadkit.profiles import build_profiles, check_binning_scope
from metadkit.synth import SynthConfig, generate
from metadkit.trialstore import TrialSet, save_trials
from tests.conftest import gaussian_trials, make_trials


def write_trials(tmp_path, trials, name="trials.jsonl"):
    path = tmp_path / name
    save_trials(trials, path)
    return path


def synth_cfg(tmp_path, **overrides):
    lines = {
        "n_trials": "600",
        "p_correct": "0.7",
        "family": "gaussian",
        "mu_correct": "0.9",
        "mu_incorrect": "0.0",
        "domain": "Science",
        "condition": "1",
        "format": "f16",
        "seed": "11",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "synth.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
    return path


# -- config machinery ----------------------------------------------------------

def test_parse_kv_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 7\n\nn_resamples = 50  # inline\n")
    assert parse_kv_file(path) == {"seed": "7", "n_resamples": "50"}


def test_config_defaults_match_protocol():
    config = RunConfig()
    assert config.n_ratings == 4
    assert config.scale.n_bins == 8
    assert config.pad_value == 0.5
    assert config.seed == 42
    assert config.n_resamples == 10_000
    assert config.tost_delta == 0.17
    assert config.ci_level_confirmatory == 0.95
    assert config.binning_scope == "per_cell"
    assert config.pairing == "paired"


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nn_resamples = 50\n")
    config = load_run_config(str(path), {"seed": 9})
    assert config.seed == 9
    assert config.n_resamples == 50


def test_nratings_implies_bins():
    config = load_run_config(None, {"n_ratings": 3})
    assert config.scale.n_bins == 6


def test_config_file_nratings_implies_bins(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_ratings = 3\n")
    config = load_run_config(str(path), {})
    assert config.n_ratings == 3
    assert config.scale.n_bins == 6


def test_the_bin_count_and_the_file_format_have_no_setting_of_their_own(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n_bins = 8\n")
    missing = str(tmp_path / "none.jsonl")
    assert main(["confirm", "--config", str(path), "--trials", missing]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: unknown config key 'n_bins'\n"
    for argv, flag in ((["confirm", "--trials", missing, "--bins", "8"], "--bins 8"),
                       (["validate", "--trials", missing, "--format-hint", "csv"],
                        "--format-hint csv")):
        assert main(argv) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: unrecognized arguments: {flag}\n"


def test_every_config_flag_reaches_the_config(monkeypatch):
    """Each command's flags, and between them every flag there is."""
    monkeypatch.delenv("METADKIT_WORKERS", raising=False)
    profile_flags = ["--trials", "t.jsonl", "--nratings", "3", "--out", "o", "--full-precision",
                     "--binning-scope", "global"]
    profile_config = RunConfig(trials="t.jsonl", n_ratings=3, out="o", full_precision=True,
                               binning_scope="global")
    cases = [
        (["confirm", "--trials", "t.jsonl", "--seed", "5", "--resamples", "7", "--nratings", "3",
          "--delta", "0.1", "--out", "o", "--workers", "2", "--full-precision",
          "--pairing", "independent"],
         RunConfig(trials="t.jsonl", seed=5, n_resamples=7, n_ratings=3, tost_delta=0.1, out="o",
                   workers=2, full_precision=True, pairing="independent")),
        (["diagnose", *profile_flags], profile_config),
        (["compare-formats", "--format-a", "a", "--format-b", "b", *profile_flags],
         profile_config),
    ]
    flagged = set()
    for argv, config in cases:
        assert _config_from_args(build_parser().parse_args(argv)) == config
        flagged |= {key for key in CONFIG_KEYS if getattr(config, key) != getattr(RunConfig(), key)}
    assert flagged == set(CONFIG_KEYS) - {"pad_value", "ci_level_confirmatory"}
    assert set(CONFIG_KEYS) == set(vars(RunConfig()))


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("resample_count = 10\n")
    with pytest.raises(ConfigError):
        load_run_config(str(path), {})


def test_misspelled_boolean_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("full_precision = ture\n")
    with pytest.raises(ConfigError):
        load_run_config(str(path), {})


def test_workers_layers_are_defaults_then_env_var_then_file_then_flags(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("workers = 2\n")
    monkeypatch.delenv("METADKIT_WORKERS", raising=False)
    assert load_run_config(None, {}).workers == 1
    monkeypatch.setenv("METADKIT_WORKERS", "3")
    assert load_run_config(None, {}).workers == 3
    assert load_run_config(str(path), {}).workers == 2
    assert load_run_config(str(path), {"workers": 4}).workers == 4
    args = build_parser().parse_args(["confirm", "--config", str(path), "--trials", "x"])
    assert _config_from_args(args).workers == 2
    args = build_parser().parse_args(["confirm", "--config", str(path), "--trials", "x",
                                      "--workers", "4"])
    assert _config_from_args(args).workers == 4


def test_commands_that_use_no_workers_ignore_the_workers_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("METADKIT_WORKERS", "abc")
    build_parser()
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--synth-config", str(synth_cfg(tmp_path)), "--out", str(out)]) \
        == EXIT_OK
    assert main(["validate", "--trials", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_malformed_workers_env_var_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("METADKIT_WORKERS", "abc")
    assert main(["diagnose", "--trials", "x.jsonl"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")


# (source, key, value, message): a value of each type that does not parse, and
# an unknown key, through each place a setting is read from text
SETTING_MESSAGES = [
    ("run", "seed", "abc", "seed must be an integer, got 'abc'"),
    ("run", "tost_delta", "wide", "tost_delta must be a number, got 'wide'"),
    ("run", "full_precision", "ture",
     "full_precision must be true/false/1/0/yes/no, got 'ture'"),
    ("run", "resample_count", "10", "unknown config key 'resample_count'"),
    ("synth", "n_trials", "6e2", "n_trials must be an integer, got '6e2'"),
    ("synth", "p_correct", "high", "p_correct must be a number, got 'high'"),
    ("synth", "mix_means_correct", "0.5,x",
     "mix_means_correct must be a comma-separated list of numbers, got '0.5,x'"),
    ("synth", "n_trial", "600", "unknown synth config key 'n_trial'"),
    ("env", "METADKIT_WORKERS", "1.5", "METADKIT_WORKERS must be an integer, got '1.5'"),
    ("flag", "n_resamples", "ten", "n_resamples must be an integer, got 'ten'"),
    ("flag", "tost_delta", "wide", "tost_delta must be a number, got 'wide'"),
]


@pytest.mark.parametrize("source, key, value, message", SETTING_MESSAGES,
                         ids=[f"{source}-{key}" for source, key, *_ in SETTING_MESSAGES])
def test_a_setting_that_does_not_parse_has_one_message_and_exits_2(
        tmp_path, monkeypatch, capsys, source, key, value, message):
    missing = str(tmp_path / "none.jsonl")
    if source == "run":
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        read = partial(load_run_config, str(path), {})
        argv = ["confirm", "--config", str(path), "--trials", missing]
    elif source == "synth":
        path = synth_cfg(tmp_path, **{key: value})
        read = partial(load_synth_config, path)
        argv = ["synth", "--synth-config", str(path), "--out", str(tmp_path / "s.jsonl")]
    elif source == "flag":
        argv = ["confirm", "--trials", missing, _FLAGS[key][0], value]
        read = partial(_config_from_args, build_parser().parse_args(argv))
    else:
        monkeypatch.setenv(key, value)
        read = partial(load_run_config, None, {})
        argv = ["diagnose", "--trials", missing]
    with pytest.raises(ConfigError) as caught:
        read()
    assert str(caught.value) == message
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_every_setting_type_has_a_parser():
    """A field of a new type fails here, not when a user's config sets it."""
    types = {f.type for config in (RunConfig, SynthConfig) for f in fields(config)}
    assert types <= set(_PARSERS)


def test_wrong_tost_level_fails_before_load_and_resampling(tmp_path, monkeypatch):
    import metadkit.cli

    calls = []
    monkeypatch.setattr(metadkit.cli, "run_hypothesis_suite",
                        lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "run.cfg"
    path.write_text("ci_level_tost = 0.95\n")
    # the trial file does not exist: loading it first would exit 1
    code = main(["confirm", "--config", str(path), "--trials", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "conf")])
    assert code == EXIT_CONFIG_ERROR
    assert calls == []


def run_confirm_with_config(tmp_path, monkeypatch, text):
    """Exit code of confirm with this config file and a trial file that does
    not exist, so a run that gets as far as loading exits 1; the suite is
    never run."""
    import metadkit.cli

    monkeypatch.setattr(metadkit.cli, "run_hypothesis_suite",
                        lambda *args, **kwargs: pytest.fail("the suite ran"))
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return main(["confirm", "--config", str(path), "--trials", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "conf")])


@pytest.mark.parametrize("text", ["seed = abc\n", "n_resamples = 1e3\n", "tost_delta = wide\n"])
def test_config_value_that_is_not_a_number_is_config_error(tmp_path, monkeypatch, capsys, text):
    assert run_confirm_with_config(tmp_path, monkeypatch, text) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")


def test_more_resamples_than_rng_ordinals_fails_before_load(tmp_path, capsys):
    argv = ["confirm", "--trials", str(tmp_path / "none.jsonl"), "--resamples", "4294967297"]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.endswith(
        "config error: n_resamples must be <= 2**32, got 4294967297\n")


def tost_spec(delta=0.17, ci_level=0.90):
    return HypothesisSpec("H2", "2", "1", ("History",), RULE_TOST, delta=delta,
                          ci_level=ci_level)


# a bad value of each setting and the library check of the code that uses it
OWNED_SETTINGS = [
    ("n_ratings", "1", lambda: RatingScale(1)),
    ("n_resamples", "0", lambda: check_resampling(0)),
    ("n_resamples", "4294967297", lambda: check_resampling(2 ** 32 + 1)),
    ("workers", "0", lambda: check_resampling(1, workers=0)),
    ("pairing", "x", lambda: check_resampling(1, pairing="x")),
    ("binning_scope", "x", lambda: check_binning_scope("x")),
    ("pad_value", "-1", lambda: check_pad_value(-1.0)),
    ("tost_delta", "-1", lambda: tost_spec(delta=-1.0)),
    ("tost_delta", "nan", lambda: tost_spec(delta=float("nan"))),
    ("ci_level_confirmatory", "1.5",
     lambda: HypothesisSpec("H1", "2", "1", ("Science",), RULE_CI_LOWER_GT_ZERO, ci_level=1.5)),
]


@pytest.mark.parametrize("key, value, check", OWNED_SETTINGS,
                         ids=[f"{key}={value}" for key, value, _ in OWNED_SETTINGS])
def test_a_bad_setting_fails_before_load_with_its_library_check_message(
        tmp_path, monkeypatch, capsys, key, value, check):
    with pytest.raises((ValueError, ConfigError)) as caught:
        check()
    assert run_confirm_with_config(tmp_path, monkeypatch, f"{key} = {value}\n") \
        == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {caught.value}\n"


@pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.95", "nan"])
def test_confirmatory_ci_level_outside_unit_interval_fails_before_load(tmp_path, monkeypatch,
                                                                       value):
    text = f"ci_level_confirmatory = {value}\n"
    assert run_confirm_with_config(tmp_path, monkeypatch, text) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("value", ["-0.5", "-1", "inf", "nan"])
def test_negative_or_non_finite_pad_value_fails_before_load(tmp_path, monkeypatch, value):
    text = f"pad_value = {value}\n"
    assert run_confirm_with_config(tmp_path, monkeypatch, text) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("text", ["tost_delta = nan\n", "ci_level_tost = nan\n"])
def test_nan_tost_setting_fails_before_load(tmp_path, monkeypatch, text):
    assert run_confirm_with_config(tmp_path, monkeypatch, text) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("source", ["flag", "config"])
def test_confirm_refuses_global_binning_before_load(tmp_path, monkeypatch, capsys, source):
    """confirm bins each resampled cell on its own; a global scope it would
    ignore, so it has no flag for one and refuses one from a config file."""
    import metadkit.cli

    monkeypatch.setattr(metadkit.cli, "run_hypothesis_suite",
                        lambda *args, **kwargs: pytest.fail("the suite ran"))
    path = tmp_path / "run.cfg"
    path.write_text("binning_scope = global\n" if source == "config" else "")
    flags = ["--binning-scope", "global"] if source == "flag" else []
    out_dir = tmp_path / "conf"
    # the trial file does not exist: loading it first would exit 1
    code = main(["confirm", "--config", str(path), "--trials", str(tmp_path / "none.jsonl"),
                 "--out", str(out_dir), *flags])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --binning-scope global\n" if source == "flag"
        else "config error: confirm bins each resampled cell on its own, so binning_scope must "
             "be per_cell, got 'global'\n")
    assert not out_dir.exists()


def test_zero_pad_value_is_legal(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pad_value = 0\n")
    assert load_run_config(str(path), {}).pad_value == 0.0


# -- validate ------------------------------------------------------------------

def test_validate_clean_file(tmp_path, capsys, rng):
    path = write_trials(tmp_path, gaussian_trials(rng, 40, domain="Arts"))
    assert main(["validate", "--trials", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Arts 40" in out


def test_validate_nan_nlp_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    rows = [
        {"question_id": "q1", "domain": "Arts", "condition": "1",
         "format": "f16", "correct": True, "nlp": -0.5},
        {"question_id": "q2", "domain": "Arts", "condition": "1",
         "format": "f16", "correct": True, "nlp": float("nan")},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["validate", "--trials", str(path)]) == EXIT_DATA_ERROR
    assert ":2" in capsys.readouterr().err


def test_validate_integer_nlp_too_large_for_a_float_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    row = {"question_id": "q1", "domain": "Arts", "condition": "1", "format": "f16",
           "correct": True, "nlp": -0.5}
    path.write_text(json.dumps(row) + "\n"
                    + json.dumps({**row, "question_id": "q2", "nlp": 10 ** 400}) + "\n")
    assert main(["validate", "--trials", str(path)]) == EXIT_DATA_ERROR
    assert f"{path}:2: nlp is not a finite number" in capsys.readouterr().err


def test_validate_empty_file_exits_one(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["validate", "--trials", str(path)]) == EXIT_DATA_ERROR


def test_validate_missing_file_exits_one(tmp_path):
    assert main(["validate", "--trials", str(tmp_path / "nope.jsonl")]) \
        == EXIT_DATA_ERROR


@pytest.mark.parametrize("command", ["validate", "diagnose"])
def test_trial_file_that_is_not_utf8_exits_one(tmp_path, capsys, command):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"question_id": "q1", "domain": "\xc9tudes"}\n')
    argv = [command, "--trials", str(path)] + (["--out", str(tmp_path / "d")]
                                               if command == "diagnose" else [])
    assert main(argv) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (f"data error: {path}: not UTF-8 text "
                                       "(invalid continuation byte)\n")


# -- synth ---------------------------------------------------------------------

def test_synth_output_validates(tmp_path):
    cfg = synth_cfg(tmp_path)
    out = tmp_path / "synthetic.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert main(["validate", "--trials", str(out)]) == EXIT_OK


def test_synth_deterministic_files(tmp_path):
    cfg = synth_cfg(tmp_path)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["synth", "--synth-config", str(cfg), "--out", str(out1)])
    main(["synth", "--synth-config", str(cfg), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_small_n_generates_but_fails_at_diagnose(tmp_path):
    cfg = synth_cfg(tmp_path, n_trials=15)
    out = tmp_path / "tiny.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == EXIT_OK
    # the 2 * n_ratings floor is a binning precondition, hit at diagnose time
    assert main(["diagnose", "--trials", str(out),
                 "--out", str(tmp_path / "d")]) == EXIT_DATA_ERROR


def test_synth_config_mixture_lists(tmp_path):
    cfg = synth_cfg(tmp_path, family="mixture")
    with open(cfg, "a") as fh:
        fh.write("mix_weights_correct = 0.6, 0.4\n"
                 "mix_means_correct = 0.5, 2.0\n"
                 "mix_sigmas_correct = 1.0, 0.5\n"
                 "mix_weights_incorrect = 1.0\n"
                 "mix_means_incorrect = 0.0\n"
                 "mix_sigmas_incorrect = 1.0\n")
    config = load_synth_config(cfg)
    assert config.mix_weights_correct == (0.6, 0.4)
    out = tmp_path / "mix.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("key, value", [("n_trials", "abc"), ("p_correct", "high"),
                                        ("mix_means_correct", "1,x")])
def test_synth_config_value_that_does_not_parse_is_a_config_error(tmp_path, capsys, key, value):
    cfg = synth_cfg(tmp_path, family="mixture", **{key: value})
    out = tmp_path / "never.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and repr(value) in err
    assert not out.exists()


MIXTURE = {"family": "mixture", "mix_weights_correct": "0.6, 0.4",
           "mix_means_correct": "0.5, 2.0", "mix_sigmas_correct": "1.0, 0.5",
           "mix_weights_incorrect": "1.0", "mix_means_incorrect": "0.0",
           "mix_sigmas_incorrect": "1.0"}


# (key, value, message): a synth setting that parses but cannot be drawn
SYNTH_BOUNDS = [
    ("mu_correct", "nan", "mu_correct must be finite, got nan"),
    ("mu_incorrect", "-inf", "mu_incorrect must be finite, got -inf"),
    ("sigma_correct", "inf", "sigma_correct must be finite, got inf"),
    ("sigma_incorrect", "nan", "sigma_incorrect must be finite, got nan"),
    ("seed", "-1", "seed must be >= 0, got -1"),
    ("mix_weights_correct", "nan, 1", "mixture parameters for correct must be finite"),
    ("mix_means_incorrect", "inf", "mixture parameters for incorrect must be finite"),
    ("mix_sigmas_correct", "1.0, nan", "mixture parameters for correct must be finite"),
    ("mix_weights_correct", "1.5, -0.5", "mixture weights for correct must be >= 0"),
]


@pytest.mark.parametrize("key, value, message", SYNTH_BOUNDS,
                         ids=[f"{key}={value}" for key, value, _ in SYNTH_BOUNDS])
def test_synth_parameter_that_cannot_be_drawn_is_a_config_error(tmp_path, capsys, key, value,
                                                                 message):
    settings = {**(MIXTURE if key.startswith("mix_") else {}), key: value}
    cfg = synth_cfg(tmp_path, **settings)
    with pytest.raises(InvalidConfig) as caught:
        generate(load_synth_config(cfg))
    assert str(caught.value) == message
    out = tmp_path / "never.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# parameters each finite but too large to draw: sigma * z overflows
SYNTH_OVERFLOWS = [
    ({"family": "lognormal_skew", "sigma_correct": "800"}, "lognormal_skew", "correct"),
    ({"sigma_incorrect": "1e308"}, "gaussian", "incorrect"),
]


@pytest.mark.parametrize("settings, family, side", SYNTH_OVERFLOWS,
                         ids=[family for _, family, _ in SYNTH_OVERFLOWS])
def test_synth_draw_that_is_not_finite_is_a_config_error(tmp_path, capsys, settings, family,
                                                         side):
    cfg = synth_cfg(tmp_path, **settings)
    message = (f"the {family} family drew a non-finite nlp for the {side} class: "
               "its parameters are too large to draw")
    with pytest.raises(InvalidConfig) as caught:
        generate(load_synth_config(cfg))
    assert str(caught.value) == message
    out = tmp_path / "never.jsonl"
    assert main(["synth", "--synth-config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    assert main(["synth", "--synth-config", str(synth_cfg(tmp_path)), "--out", str(out),
                 "--seed", "-3"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -3\n"
    assert not out.exists()


def test_a_seed_flag_that_does_not_parse_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    assert main(["synth", "--synth-config", str(synth_cfg(tmp_path)), "--out", str(out),
                 "--seed", "1.5"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: seed must be an integer, got '1.5'\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--synth-config"])
@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_config_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys, flag, case):
    path = tmp_path / "run.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b"seed = 7\nformat = f\xb916\n")
    reason = {"missing": "No such file or directory", "directory": "Is a directory",
              "not_utf8": "not UTF-8 text (invalid start byte at byte 19)"}[case]
    with pytest.raises(ConfigError) as caught:
        parse_kv_file(path)
    assert str(caught.value) == f"{path}: {reason}"
    if flag == "--config":
        argv = ["confirm", "--config", str(path), "--trials", str(tmp_path / "none.jsonl")]
    else:
        argv = ["synth", "--synth-config", str(path), "--out", str(tmp_path / "s.jsonl")]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {path}: {reason}\n"


# -- diagnose ------------------------------------------------------------------

def test_diagnose_ideal_observer(tmp_path, capsys):
    cfg = synth_cfg(tmp_path, n_trials=20000, mu_correct=1.0)
    trials_path = tmp_path / "ideal.jsonl"
    main(["synth", "--synth-config", str(cfg), "--out", str(trials_path)])
    out_dir = tmp_path / "diag"
    assert main(["diagnose", "--trials", str(trials_path),
                 "--out", str(out_dir)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "M-ratio=" in stdout
    m_ratio = float(stdout.split("M-ratio=")[1].split()[0])
    assert abs(m_ratio - 1.0) < 0.1
    for name in ("sensitivity_by_format.md", "metrics_full.csv", "notes.md",
                 "m_ratio_by_domain.svg", "auroc2_by_domain.svg"):
        assert (out_dir / name).exists()


def global_binned_trials(incorrect, correct):
    """Domain Arts with exactly these raw bin counts under global-scope
    binning, plus a Science domain that makes every global bin as large as
    Arts' largest, its correct share rising with the bin."""
    size = max(np.add(incorrect, correct))
    cells = {"Arts": ([], []), "Science": ([], [])}
    for b, (n_i, n_c) in enumerate(zip(incorrect, correct)):
        n_fill = size - n_i - n_c
        n_fill_correct = round(n_fill * (b + 1) / 9)
        members = ([("Arts", False)] * n_i + [("Arts", True)] * n_c
                   + [("Science", j < n_fill_correct) for j in range(n_fill)])
        for j, (domain, ok) in enumerate(members):
            cells[domain][0].append(b - 8 + (j + 1) / (len(members) + 1))
            cells[domain][1].append(ok)
    records = [r for domain, (nlp, ok) in cells.items()
               for r in make_trials(nlp, ok, domain=domain, qid_prefix=domain).records]
    return TrialSet(records)


@pytest.mark.parametrize("incorrect, correct, meta_d, converged, exit_code", [
    # table 454 of tests/data/fit_golden.csv (d' = -0.033, c' = -11.4): the
    # solve stops short of its gradient tolerance with no step left that the
    # objective can resolve, which counts as converged
    ([4, 1, 6, 3, 7, 0, 0, 0], [1, 6, 4, 2, 0, 4, 2, 0], 1.6086059100935433, True, EXIT_OK),
    # d' = 0.054, c' = 24.4: the likelihood still rises where the criteria
    # pass 36 SD and the bin masses underflow, so the fit did not converge
    ([0, 0, 18, 0, 0, 0, 0, 0], [0, 0, 0, 16, 0, 0, 0, 0], 1.4879621, False,
     EXIT_NUMERICAL_ERROR),
])
def test_diagnose_flags_only_fits_that_did_not_converge(tmp_path, capsys, incorrect, correct,
                                                         meta_d, converged, exit_code):
    trials = global_binned_trials(incorrect, correct)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        profiles = {p.domain: p for p in build_profiles(trials, binning_scope="global")}
    assert profiles["Science"].fit_converged
    assert profiles["Arts"].fit_converged is converged
    assert profiles["Arts"].meta_d == pytest.approx(meta_d, abs=1e-6)
    out_dir = tmp_path / "diag"
    assert main(["diagnose", "--trials", str(write_trials(tmp_path, trials)),
                 "--binning-scope", "global", "--out", str(out_dir)]) == exit_code
    notes = (out_dir / "notes.md").read_text(encoding="utf-8")
    assert ("(1, f16, Arts): sensitivity fit did not converge" in notes) is not converged
    assert "Science): sensitivity fit did not converge" not in notes


@pytest.mark.parametrize("command, config", [
    (["diagnose"], ""),
    (["diagnose"], "pad_value = 0\n"),
    (["diagnose", "--binning-scope", "global"], ""),
    (["confirm", "--resamples", "10"], ""),
])
def test_a_one_class_cell_is_the_same_data_error_on_every_path(tmp_path, capsys, command, config):
    """Every History answer correct: the first one-class cell raises
    OneClassOnly, whatever the binning scope or the padding; diagnose
    names the cell, confirm the unit of the contrast."""
    where = "cell (1, f16, History): " if command[0] == "diagnose" else "History/meta_d|2-1: "
    from tests.test_bootstrap import four_condition_trials
    trials = four_condition_trials(np.random.default_rng(5), 40)
    trials = TrialSet([replace(r, correct=True) if r.domain == "History" else r
                       for r in trials.records])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*command, "--trials", str(write_trials(tmp_path, trials)),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA_ERROR
    assert capsys.readouterr().err == \
        f"data error: {where}sensitivity metrics need both correctness classes\n"
    assert not [w for w in caught if issubclass(w.category, MetadkitWarning)]


def test_diagnose_missing_trials_flag_is_config_error(tmp_path):
    assert main(["diagnose", "--out", str(tmp_path / "d")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("command", [["diagnose"], ["confirm", "--resamples", "10"]])
def test_a_format_with_no_trials_fails_before_anything_is_written(tmp_path, capsys, command):
    path = write_trials(tmp_path, gaussian_trials(np.random.default_rng(3), 100))
    out_dir = tmp_path / "out"
    code = main([*command, "--trials", str(path), "--format", "nosuch", "--out", str(out_dir)])
    assert code == EXIT_DATA_ERROR
    assert capsys.readouterr().err == "data error: no trials for format 'nosuch'\n"
    assert not out_dir.exists()


def trials_with_a_faulty_cell(fault):
    """Conditions 1 and 3 in formats f16 and q5_k_m over four domains, 60
    trials a cell, with the (3, f16, History) cell one-class or cut to 10."""
    rng = np.random.default_rng(8)
    records = []
    for condition in ("1", "3"):
        for format in ("f16", "q5_k_m"):
            for domain in ("Arts", "Geography", "History", "Science"):
                faulty = (condition, format, domain) == ("3", "f16", "History")
                cell = gaussian_trials(rng, 10 if faulty and fault == "too_few" else 60,
                                       p_correct=1.0 if faulty and fault == "one_class" else 0.7,
                                       domain=domain, condition=condition, format=format,
                                       qid_prefix=domain[:3])
                records += cell.records
    return TrialSet(records)


@pytest.mark.parametrize("command", [
    ["diagnose"],
    ["compare-formats", "--condition", "3", "--format-a", "q5_k_m", "--format-b", "f16"],
], ids=["diagnose", "compare-formats"])
@pytest.mark.parametrize("fault, message", [
    ("one_class", "sensitivity metrics need both correctness classes"),
    ("too_few", "a diagnostic cell fit needs at least 16 trials, got 10"),
])
def test_an_undefined_cell_is_named_in_its_data_error(tmp_path, capsys, command, fault,
                                                      message):
    path = write_trials(tmp_path, trials_with_a_faulty_cell(fault))
    out_dir = tmp_path / "out"
    assert main([*command, "--trials", str(path), "--out", str(out_dir)]) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == f"data error: cell (3, f16, History): {message}\n"
    assert not out_dir.exists()


def test_confirm_names_the_contrast_of_an_undefined_point_estimate(tmp_path, capsys):
    """A Science cell of 20 questions whose condition-1 point has d' = 0."""
    from tests.test_cli_contract import base_rows
    path = tmp_path / "trials.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in base_rows(seed=31, nlp_gap=0.8)))
    out_dir = tmp_path / "out"
    code = main(["confirm", "--trials", str(path), "--resamples", "20", "--out", str(out_dir)])
    assert code == EXIT_NUMERICAL_ERROR
    assert capsys.readouterr().err == \
        "numerical error: Science/meta_d|2-1: meta-d' undefined at d' = 0\n"
    assert not out_dir.exists()


# -- compare-formats -----------------------------------------------------------

def test_compare_formats_rejects_format(tmp_path, capsys):
    """It compares --format-a with --format-b; one --format is an error."""
    path = write_trials(tmp_path, gaussian_trials(np.random.default_rng(3), 100))
    assert main(["compare-formats", "--trials", str(path), "--format", "f16", "--format-a", "f16",
                 "--format-b", "f16", "--out", str(tmp_path / "cmp")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == \
        "config error: ambiguous option: --format could match --format-a, --format-b\n"
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--condition", "9", "no trials for condition '9'"),
    ("--format-a", "q4", "no trials for format 'q4'"),
    ("--format-b", "q4", "no trials for format 'q4'"),
])
def test_compare_formats_with_an_unknown_selector_is_one_data_error(tmp_path, capsys, flag,
                                                                     value, message):
    path = write_trials(tmp_path, gaussian_trials(np.random.default_rng(3), 100))
    selectors = {"--condition": "1", "--format-a": "f16", "--format-b": "f16", flag: value}
    argv = ["compare-formats", "--trials", str(path), "--out", str(tmp_path / "cmp")]
    for name, selector in selectors.items():
        argv += [name, selector]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == EXIT_DATA_ERROR
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not caught
    assert not (tmp_path / "cmp").exists()


def test_compare_dataset_against_itself(tmp_path, capsys, rng):
    records = []
    for domain in ("Arts", "Science"):
        for format in ("f16", "q5_k_m"):
            cell = gaussian_trials(rng, 400, mu_correct=0.8, domain=domain,
                                   format=format, qid_prefix=f"{domain}x")
            records.extend(cell.records)
    path = write_trials(tmp_path, TrialSet(records))
    assert main(["compare-formats", "--trials", str(path), "--format-a", "f16",
                 "--format-b", "f16", "--out", str(tmp_path / "cmp")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rho_m_ratio = 1.000" in out
    assert "rho_auroc2 = 1.000" in out
    # the one format is profiled and written once
    rows = (tmp_path / "cmp" / "sensitivity_by_format.csv").read_text().splitlines()[1:]
    cells = [tuple(row.split(",")[:3]) for row in rows]
    assert sorted(cells) == [("1", "f16", "Arts"), ("1", "f16", "Science")]


def test_compare_needs_condition_when_ambiguous(tmp_path, rng):
    records = []
    for condition in ("1", "2"):
        cell = gaussian_trials(rng, 50, condition=condition, qid_prefix="q")
        records.extend(cell.records)
    path = write_trials(tmp_path, TrialSet(records))
    assert main(["compare-formats", "--trials", str(path), "--format-a", "f16",
                 "--format-b", "f16", "--out", str(tmp_path / "c")]) \
        == EXIT_CONFIG_ERROR


def test_compare_formats_exits_3_when_a_fit_did_not_converge(tmp_path):
    """Two formats of the stalled c' = 24.4 table above."""
    f16 = global_binned_trials([0, 0, 18, 0, 0, 0, 0, 0], [0, 0, 0, 16, 0, 0, 0, 0])
    trials = TrialSet(list(f16.records) + [replace(r, format="q5_k_m") for r in f16.records])
    out_dir = tmp_path / "cmp"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        code = main(["compare-formats", "--trials", str(write_trials(tmp_path, trials)),
                     "--format-a", "q5_k_m", "--format-b", "f16", "--binning-scope", "global",
                     "--out", str(out_dir)])
    assert code == EXIT_NUMERICAL_ERROR
    notes = (out_dir / "notes.md").read_text(encoding="utf-8")
    for fmt in ("q5_k_m", "f16"):
        assert f"(1, {fmt}, Arts): sensitivity fit did not converge" in notes


# -- confirm -------------------------------------------------------------------

@pytest.mark.parametrize("stalled, exit_code", [(False, EXIT_OK), (True, EXIT_NUMERICAL_ERROR)])
def test_confirm_exits_3_when_resample_fits_do_not_converge(tmp_path, monkeypatch, stalled,
                                                              exit_code):
    from tests.test_bootstrap import four_condition_trials, stall_every_fourth_table
    if stalled:
        stall_every_fourth_table(monkeypatch)
    # large enough that no resample has d' = 0: the clean run flags nothing
    path = write_trials(tmp_path, four_condition_trials(np.random.default_rng(78), 400))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        code = main(["confirm", "--trials", str(path), "--out", str(tmp_path / "conf"),
                     "--resamples", "20", "--seed", "42"])
    assert code == exit_code


def test_confirm_flags_a_point_estimate_whose_fit_did_not_converge(tmp_path, monkeypatch):
    from tests.test_bootstrap import four_condition_trials, stall_point_fits
    stall_point_fits(monkeypatch)
    path = write_trials(tmp_path, four_condition_trials(np.random.default_rng(78), 400))
    out_dir = tmp_path / "conf"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetadkitWarning)
        code = main(["confirm", "--trials", str(path), "--out", str(out_dir),
                     "--resamples", "20", "--seed", "42"])
    assert code == EXIT_NUMERICAL_ERROR
    notes = (out_dir / "notes.md").read_text(encoding="utf-8")
    assert "H1/Science: the point estimate is undefined: a sensitivity fit did not " \
        "converge" in notes


def test_confirm_smoke_run(tmp_path, capsys):
    from tests.test_bootstrap import four_condition_trials
    trials = four_condition_trials(np.random.default_rng(77), n_questions=150)
    path = write_trials(tmp_path, trials)
    code = main(["confirm", "--trials", str(path), "--out", str(tmp_path / "conf"),
                 "--resamples", "10", "--seed", "42"])
    out = capsys.readouterr().out
    assert code in (EXIT_OK, 3)  # tiny resample counts may trip the 1% alarm
    for hyp in ("H1", "H2", "H3", "H4"):
        assert hyp in out
    assert (tmp_path / "conf" / "contrasts.md").exists()
    assert (tmp_path / "conf" / "contrasts.csv").exists()
    assert (tmp_path / "conf" / "notes.md").exists()
