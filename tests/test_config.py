"""Config parsing, coercion and precedence rules."""

import os
import re
import textwrap
from dataclasses import fields

import pytest

from mfonline import config
from mfonline.cli import main
from mfonline.config import GRID, SCHEMA, Settings, build_settings, parse_config, parse_value
from mfonline.datastream import DT, N_STEPS, gen_periodic
from mfonline.offline import OfflineFitConfig
from mfonline.onpgd import OnpgdConfig
from mfonline.regret import N_IS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_parse_coercion_and_comments():
    text = """
    # full-line comment
    scenario = periodic   # trailing comment
    trials = 12
    onpgd.beta = 0.05
    regret.static = yes
    onpgd.n = 20, 80
    experiment = fig2-rerun
    """
    cfg = parse_config(text)
    assert cfg["scenario"] == "periodic"
    assert cfg["trials"] == 12 and isinstance(cfg["trials"], int)
    assert cfg["onpgd.beta"] == 0.05
    assert cfg["regret.static"] is True
    assert parse_value("regret.static", "off") is False
    assert cfg["onpgd.n"] == [20, 80]
    assert cfg["experiment"] == "fig2-rerun"


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just words")
    with pytest.raises(ValueError, match="empty key"):
        parse_config("= 3")


def test_repeated_config_key_rejected(tmp_path, capsys):
    # the second line would otherwise override the first without a word
    text = "onpgd.n = 8\n# comment\ntrials = 2\nonpgd.n = 9\n"
    with pytest.raises(ValueError, match=re.escape("config line 4: 'onpgd.n' is already set "
                                                   "on line 1")):
        parse_config(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    for command in ("generate", "oos-compare", "regret-sweep", "verify"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "'onpgd.n' is already set on line 1" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    # the mu* tolerance and the offline descent step are solver defaults, the
    # streams' step is datastream.DT and the learner interacts through the
    # full mean, so none of these is a key
    # the learner grid is set by onpgd.n, onpgd.beta and onpgd.lambda alone
    for key in ("onpgd.gamma", "is.root_tol", "offline.lr", "onpgd.dt", "data.dt",
                "onpgd.self_interaction", "sweep.n", "sweep.beta", "sweep.lambda"):
        path.write_text(f"{key} = 2\n")
        with pytest.raises(ValueError, match="unknown config keys: " + re.escape(key)):
            build_settings(config_path=path)


def test_precedence_default_file_cli(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trials = 5\nonpgd.beta = 0.05\nseed = 9\n")
    s = build_settings(config_path=path, overrides={"seed": 42, "onpgd.lambda": 0.4})
    assert s.trials == 5          # file beats default
    assert s.beta == 0.05         # file beats default
    assert s.seed == 42           # CLI beats file
    assert s.lam == 0.4           # CLI dotted key
    assert s.n_particles == 80    # untouched default
    # None overrides mean "flag not given" and must not clobber
    s2 = build_settings(config_path=path, overrides={"seed": None})
    assert s2.seed == 9


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown setting"):
        build_settings(overrides={"onpgd.gamma": 1.0})


def test_out_dir_resolution(tmp_path):
    # the default, then the config file, then the flag; no environment
    # variable is read
    assert Settings().out == "out"
    path = tmp_path / "run.cfg"
    path.write_text("out = runs\n")
    assert build_settings(config_path=path).out == "runs"
    assert build_settings(config_path=path, overrides={"out": "explicit"}).out == "explicit"
    for key in ("out", "experiment"):
        with pytest.raises(ValueError, match=f"^{key} must be non-empty, got ''$"):
            Settings(**{key: ""})


def test_each_setting_declares_one_key():
    # SCHEMA is read from the fields, so a repeated key would drop a field
    keys = [f.metadata.get("key") for f in fields(Settings)]
    assert all(keys) and len(set(keys)) == len(keys) == 15
    assert list(SCHEMA) == keys
    assert [name for name, _, _ in SCHEMA.values()] == [f.name for f in fields(Settings)]
    assert GRID == ("onpgd.n", "onpgd.lambda", "onpgd.beta")


def test_settings_validation():
    with pytest.raises(ValueError, match="scenario"):
        Settings(scenario="sinusoid")
    with pytest.raises(ValueError, match="trials"):
        Settings(trials=0)
    with pytest.raises(ValueError, match="threads"):
        Settings(threads=0)
    with pytest.raises(ValueError, match="64-bit"):
        Settings(seed=2**64)
    with pytest.raises(ValueError, match="64-bit"):
        Settings(seed=-1)
    for key, bad in (("n_steps", 0), ("n_particles", 0), ("n_is", 1), ("eval_stride", 0),
                     ("eval_stride", -20), ("eval_stride", float("nan"))):
        with pytest.raises(ValueError, match=key):
            Settings(**{key: bad})
    with pytest.raises(ValueError, match=r"regret\.stride"):
        Settings(eval_stride=0)
    Settings(n_steps=1, n_particles=1, n_is=2, eval_stride=1)  # the smallest accepted
    Settings(n_steps=10, eval_stride=50)  # beyond n_steps: each trial reports it


def test_defaults_are_those_of_the_objects_that_use_them():
    s, learner = Settings(), OnpgdConfig()
    assert (s.n_particles, s.lam, s.beta, s.init_sd) == (
        learner.n_particles, learner.lam, learner.beta, learner.init_sd)
    assert s.offline_iters == OfflineFitConfig().iters
    assert (s.n_steps, s.n_is) == (N_STEPS, N_IS)
    train, _ = gen_periodic(1, n_steps=3)
    assert (train.n_steps, train.dt) == (3, DT)


def test_init_sd_forms():
    assert Settings().init_sd == OnpgdConfig().init_sd == 1.0
    assert Settings(init_sd="gibbs").init_sd is None  # lambda-coupled prior
    assert Settings(init_sd=0.5).init_sd == 0.5
    with pytest.raises(ValueError, match="init_sd"):
        Settings(init_sd=0.0)
    with pytest.raises(ValueError, match="init_sd"):
        Settings(init_sd="wide")
    s = build_settings(overrides={"onpgd.init_sd": "gibbs"})
    assert s.init_sd is None


def test_grid_keys_take_a_value_or_a_list(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("onpgd.beta = 0.02\nonpgd.n = 20, 200\nonpgd.lambda = 0.4,\n")
    s = build_settings(config_path=path)
    assert (s.beta, s.n_particles, s.lam) == (0.02, [20, 200], [0.4])
    # a list lists at least one value, and only a GRID key takes one
    for line in ("onpgd.beta = ,", "onpgd.n = ,", "is.n = 600, 1200"):
        path.write_text(line + "\n")
        key = line.split(" =")[0]
        with pytest.raises(ValueError, match=re.escape(f"({key}) must")):
            build_settings(config_path=path)


@pytest.mark.parametrize("line", [
    "trials = 2.0", "seed = 1.5", "threads = yes", "data.n_steps = 6e1", "onpgd.n = 8.5",
    "is.n = 6e2", "offline.iters = 3.5", "regret.stride = off", "onpgd.n = 8.5, 20",
    "onpgd.n = 20, 8.5", "onpgd.n = true",
])
def test_integer_keys_reject_other_types(tmp_path, line):
    # a float count would be truncated or fail deep inside a run
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=re.escape(key) + r"\)? must be an integer"):
        build_settings(config_path=path)


@pytest.mark.parametrize("line", [
    "onpgd.beta = fast", "onpgd.lambda = yes", "onpgd.init_sd = true",
    "onpgd.beta = 0.02, fast", "onpgd.beta = fast, 0.02", "onpgd.lambda = 0.1, no",
])
def test_float_keys_reject_other_types(tmp_path, line):
    # a string or bool value would fail deep inside a run without naming
    # its key
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=re.escape(key) + r"\)? must be a number"):
        build_settings(config_path=path)


def test_float_keys_take_integers(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("onpgd.lambda = 1\nonpgd.beta = 1, 0.5\n")
    s = build_settings(config_path=path)
    assert (s.lam, s.beta) == (1, [1, 0.5])


def test_overrides_take_dotted_keys_only():
    assert build_settings(overrides={"data.n_steps": 5}).n_steps == 5
    with pytest.raises(ValueError, match="unknown setting 'n_steps'"):
        build_settings(overrides={"n_steps": 5})


@pytest.mark.parametrize("line", [
    "trials = 0", "threads = 0", "seed = -1", "data.n_steps = 0", "onpgd.n = 0",
    "onpgd.init_sd = 0", "is.n = 1", "offline.iters = 0", "scenario = 3",
    # a non-finite number would blow up every trial's learner at its first step
    "onpgd.beta = inf", "onpgd.lambda = inf", "onpgd.init_sd = inf",
    "onpgd.beta = 0.02, inf",
    # each entry of a GRID list is checked by its key; beta and lambda have
    # no range here, the learner grid checks them (test_experiments)
    "onpgd.n = 0, 20", "onpgd.n = 20, 0",
])
def test_range_errors_name_the_key(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=re.escape(key) + r"\)? must be"):
        build_settings(config_path=path)


@pytest.mark.parametrize("line", [
    "regret.static = 2", "regret.static = 0.0", "regret.static = yes, no",
])
def test_bool_keys_reject_other_types(tmp_path, line):
    # regret.static = 2 would otherwise run the hindsight benchmark
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=re.escape(key) + r"\)? must be true or false"):
        build_settings(config_path=path)


@pytest.mark.parametrize("line", ["experiment = fig2, rerun"])
def test_string_keys_reject_other_types(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=re.escape(key) + r"\)? must be a string"):
        build_settings(config_path=path)


@pytest.mark.parametrize("line", [
    "experiment = 12", "experiment = 2024", "out = 5", "out = 7", "out = yes",
])
def test_string_keys_keep_config_text(tmp_path, line):
    # a string key's value is its text, as from --experiment or --out
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key, text = line.split(" = ")
    assert getattr(build_settings(config_path=path), SCHEMA[key][0]) == text


@pytest.mark.parametrize("field, value", [
    ("experiment", 12), ("out", 5), ("out", True), ("scenario", 3),
])
def test_string_fields_reject_other_types(field, value):
    # a number as a path would fail in os.path.join without naming the key
    with pytest.raises(ValueError, match=f"{field} must be a string"):
        Settings(**{field: value})


def test_config_examples_build_settings(tmp_path):
    # the README's config block and the config module's docstring example,
    # so that a renamed or removed key fails here
    with open(README) as fh:
        readme = fh.read()
    examples = {
        "README": readme.split("Config files are flat", 1)[1].split("```\n", 1)[1].split("```")[0],
        "config": textwrap.dedent(
            config.__doc__.split("Config files look like:\n\n", 1)[1].split("\n\n")[0]),
    }
    path = tmp_path / "example.cfg"
    for name, text in examples.items():
        path.write_text(text)
        # each example shows a grid of betas
        assert len(build_settings(config_path=path).beta) > 1, name


def test_readme_lists_each_key_kind_and_range():
    with open(README) as fh:
        text = fh.read()
    for key, (_, (_, what), check) in SCHEMA.items():
        each = " (each entry)" if key in GRID else ""
        assert f"| `{key}` | {what}{each} | {check[1] if check else '-'} |" in text
    # and no row for a key that SCHEMA does not have
    assert re.findall(r"^\| `([^`]+)` \|", text, flags=re.M) == list(SCHEMA)
