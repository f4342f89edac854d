"""Settings flags map onto config keys, and the benchmark's set-up probe runs.

Each settings flag's argparse ``dest`` is its dotted config key, so
``cli._overrides`` is a filter with no code per flag.  perfbench/run.py
times a probe that calls ``build_parser``, ``_overrides`` and
``build_settings``; a rename of any of them must fail here, not only in a
benchmark run.
"""

import argparse
import importlib.util
import os
import subprocess
import sys
from functools import partial

import pytest

from mfonline.cli import _overrides, build_parser, main
from mfonline.config import GRID, SCHEMA, Settings, build_settings, parse_value

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# flags that do not set a config key
COMMAND_ONLY = {"help", "config", "inject_bug", "input", "columns"}


def _commands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _settings(argv):
    args = build_parser().parse_args(argv)
    return build_settings(args.config, _overrides(args))


def test_settings_flag_dests_are_config_keys():
    for name, parser in _commands().items():
        dests = {a.dest for a in parser._actions} - COMMAND_ONLY
        assert dests <= set(SCHEMA), name
        # SCHEMA alone decides a value's kind and range: a flag's text is
        # read by its key's parse_value, or the flag takes no text
        for a in parser._actions:
            if a.dest in SCHEMA:
                assert a.choices is None, a.dest
                assert a.type is None or (isinstance(a.type, partial)
                                          and a.type.func is parse_value
                                          and a.type.args == (a.dest,)), a.dest
    regret = {a.dest for a in _commands()["regret-sweep"]._actions}
    assert {"regret.stride", "regret.static", *GRID} <= regret
    assert {a.dest for a in _commands()["stats"]._actions} == {"help", "input", "columns"}


@pytest.mark.parametrize("flags, line", [
    (["--static"], "regret.static = yes"),
    (["--stride", "20"], "regret.stride = 20"),
    (["--sweep-n", "20,200"], "onpgd.n = 20, 200"),
    (["--sweep-beta", "0.05"], "onpgd.beta = 0.05"),
    (["--sweep-lambda", "0.1,0.4"], "onpgd.lambda = 0.1, 0.4"),
    (["--seed", "9"], "seed = 9"),
    (["--scenario", "periodic"], "scenario = periodic"),
    (["--experiment", "fig2"], "experiment = fig2"),
    (["--experiment", "2024"], "experiment = 2024"),
    (["--out", "7"], "out = 7"),
])
def test_flag_builds_the_same_settings_as_its_config_line(tmp_path, flags, line):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    from_flag = _settings(["regret-sweep"] + flags)
    assert from_flag == build_settings(config_path=path)
    assert from_flag != Settings()


@pytest.mark.parametrize("command, flags, line", [
    ("generate", ["--trials", "8.5"], "trials = 8.5"),
    ("generate", ["--seed", "1.5"], "seed = 1.5"),
    ("generate", ["--scenario", "foo"], "scenario = foo"),
    ("generate", ["--threads", "0"], "threads = 0"),
    ("regret-sweep", ["--stride", "x"], "regret.stride = x"),
    # an empty output root or experiment name would fall back to a default
    ("generate", ["--out", ""], "out ="),
    ("generate", ["--experiment", ""], "experiment ="),
])
def test_bad_flag_fails_as_its_config_line_does(tmp_path, monkeypatch, capsys, command, flags,
                                                line):
    # run in tmp_path, whose out/ is the default output root
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    assert main([command, "--config", str(path)]) == 1
    from_file = capsys.readouterr().err
    assert main([command] + flags) == 1
    assert capsys.readouterr().err == from_file
    assert from_file.startswith("mfonline: error: ValueError: ")
    assert line.split(" =")[0] in from_file
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_flags_not_given_leave_the_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("regret.static = yes\nregret.stride = 20\nonpgd.n = 20, 200\n"
                    "onpgd.beta = 0.05\nonpgd.lambda = 0.4\nseed = 9\ntrials = 3\n"
                    "threads = 2\nscenario = periodic\nexperiment = fig2\nout = runs\n")
    from_file = build_settings(config_path=path)
    assert _settings(["regret-sweep", "--config", str(path)]) == from_file
    # a given flag wins over the file, the rest stay
    s = _settings(["regret-sweep", "--config", str(path), "--stride", "5"])
    assert s.eval_stride == 5 and s.include_static and s.n_particles == [20, 200]


def _perfbench_run():
    # run.py imports its sibling modules gate and tracer by name
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      os.path.join(PERFBENCH, "run.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


RUN = _perfbench_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_benchmark_setup_probe_builds_settings(name):
    args = RUN.WORKLOADS[name]["args"] + ["--seed", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", RUN.SETUP_PROBE] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
