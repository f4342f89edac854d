"""Experiment runners and the command-line interface.

Runs are shrunk (few steps, particles and importance samples) so the
whole file stays in the seconds range; statistical quality is not at
stake here, only wiring, file layout, failure handling and exit codes.
"""

import csv
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mfonline
from mfonline import cli
import mfonline.equilibrium as equilibrium
import mfonline.experiments as exp
import mfonline.regret as regret
from mfonline.config import Settings
from mfonline.datastream import DT, gen_nonlinear
from mfonline.equilibrium import ConvergenceError
from mfonline.experiments import (
    generate_pair,
    run_generate,
    run_oos_compare,
    run_regret_sweep,
    run_stats,
    run_verify,
)
from mfonline.offline import OfflineFitConfig, fit_offline
from mfonline.onpgd import OnpgdConfig
from mfonline.regret import regret_run
from mfonline.seeding import substream


def small_settings(tmp_path, **kw):
    base = dict(scenario="periodic", trials=2, seed=5, out=str(tmp_path),
                n_steps=40, n_particles=8, n_is=1200, eval_stride=20,
                offline_iters=40)
    base.update(kw)
    return Settings(**base)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# stats command.
# ---------------------------------------------------------------------------


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_run_stats_two_columns(tmp_path):
    path = tmp_path / "pairs.csv"
    online = [0.1, 0.2, 0.15, 0.12, 0.18, 0.22]
    offline = [0.3, 0.4, 0.35, 0.28, 0.33, 0.41]
    write_csv(path, ["trial", "mse_online", "mse_offline"],
              [(i, a, b) for i, (a, b) in enumerate(zip(online, offline))])
    rep = run_stats(path)
    assert set(rep["summaries"]) == {"mse_online", "mse_offline"}  # trial excluded
    assert rep["summaries"]["mse_online"]["mean"] == pytest.approx(np.mean(online), abs=1e-15)
    assert rep["paired"]["t_pvalue"] < 0.05
    assert rep["paired"]["n"] == 6


def test_run_stats_column_selection(tmp_path):
    path = tmp_path / "vals.csv"
    write_csv(path, ["t", "a", "b", "label"],
              [(i, i * 0.5, i * 0.25, "x") for i in range(8)])
    rep = run_stats(path, columns=["a"])
    assert list(rep["summaries"]) == ["a"]
    assert "paired" not in rep
    with pytest.raises(ValueError, match="not found"):
        run_stats(path, columns=["label"])


def test_run_stats_rejects_empty_and_nonnumeric(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        run_stats(empty)
    words = tmp_path / "words.csv"
    write_csv(words, ["name"], [("a",), ("b",)])
    with pytest.raises(ValueError, match="no numeric"):
        run_stats(words)
    # a column paired with itself is rejected like a missing one, by name
    nums = tmp_path / "nums.csv"
    write_csv(nums, ["a", "b"], [(1.0, 2.0), (3.0, 5.0)])
    with pytest.raises(ValueError, match=r"more than once: \['a'\]"):
        run_stats(nums, columns=["a", "b", "a"])
    assert cli.main(["stats", "--input", str(nums), "--columns", "a,a"]) == 1


def test_run_stats_skips_blank_lines_and_rejects_short_rows(tmp_path):
    # csv.reader yields [] for a blank line; a row shorter than the header
    # is named by its line rather than indexed past its end
    blank = tmp_path / "blank.csv"
    blank.write_text("a,b\n1,2\n3,4\n\n")
    assert run_stats(blank)["summaries"]["a"]["n"] == 2
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 3: expected the header's 2 fields, got 1"):
        run_stats(short)
    assert cli.main(["stats", "--input", str(short)]) == 1


def test_run_stats_rejects_non_finite_values_by_column_and_line(tmp_path, capsys):
    # float() reads nan and inf, which would print as NaN or Infinity, not
    # JSON, and carry into the paired tests; a blank line still counts
    nan = tmp_path / "nan.csv"
    nan.write_text("a,b\n1,2\n\nnan,3\n4,5\n")
    inf = tmp_path / "inf.csv"
    write_csv(inf, ["a", "b"], [(i if i != 3 else "inf", i + 0.5) for i in range(1, 7)])
    for path, line, value in ((nan, 4, "nan"), (inf, 4, "inf")):
        with pytest.raises(ValueError, match=f"line {line}: column 'a' is not finite: {value}"):
            run_stats(path)
        assert cli.main(["stats", "--input", str(path)]) == 1
        assert "is not finite" in capsys.readouterr().err
    # a column left out of the summary is not read
    assert list(run_stats(nan, columns=["b"])["summaries"]) == ["b"]


def test_cli_stats_rejects_a_summary_that_overflows(tmp_path, capsys):
    # every value is finite, but the mean's sum or the sd's squares
    # overflow, and the summary would print as Infinity or NaN, not JSON.
    # Warnings are recorded here, not raised, so the exit code is the
    # check's own
    mean = tmp_path / "mean.csv"
    write_csv(mean, ["a", "b"], [(1.0, 1e308), (2.0, 1e308), (3.0, 1e308)])
    spread = tmp_path / "spread.csv"
    write_csv(spread, ["a", "b"], [(1.0, 1e200), (2.0, -1e200), (3.0, 1.0)])
    for path in (mean, spread):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["stats", "--input", str(path)]) == 1
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "ValueError: column 'b': the summary is not finite" in err
    # finite summaries whose paired differences overflow: the paired block
    # records the error as it does for degenerate data, in strict JSON
    paired = tmp_path / "paired.csv"
    write_csv(paired, ["a", "b"], [(2e307, -2e307)] * 6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["stats", "--input", str(paired)]) == 0
    assert caught == []
    rep = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(c))
    assert rep["paired"] == {"error": "the differences' mean inf or sd inf is not finite"}


def test_run_stats_rejects_a_repeated_header_name(tmp_path, capsys):
    # a dict keyed by name would keep the last of two same-named columns
    # and summarize it, and pair it, silently
    three = tmp_path / "three.csv"
    write_csv(three, ["a", "b", "a"], [(i, i + 0.5, 100 * i) for i in range(1, 7)])
    two = tmp_path / "two.csv"
    write_csv(two, ["a", "a"], [(i, 100 * i) for i in range(1, 7)])
    for path, columns in ((three, ["--columns", "a,b"]), (two, [])):
        with pytest.raises(ValueError, match=r"header columns named more than once: \['a'\]"):
            run_stats(path)
        assert cli.main(["stats", "--input", str(path), *columns]) == 1
        assert "header columns named more than once" in capsys.readouterr().err


def test_run_stats_rejects_a_header_without_rows(tmp_path, capsys):
    # the file is named, not summarize's "need a vector of at least two values"
    header = tmp_path / "header.csv"
    header.write_text("a,b\n")
    with pytest.raises(ValueError, match=f"no data rows in {re.escape(str(header))}"):
        run_stats(header)
    assert cli.main(["stats", "--input", str(header)]) == 1
    assert "header only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate.
# ---------------------------------------------------------------------------


def test_generate_layout_and_determinism(tmp_path):
    s = small_settings(tmp_path / "one", trials=3)
    rep = run_generate(s)
    assert rep["files_written"] == 6
    assert len(rep["trial_moments"]) == 3
    root = os.path.join(s.out, "periodic-data")
    for trial in range(3):
        tdir = os.path.join(root, "periodic", f"trial{trial:03d}")
        assert os.path.exists(os.path.join(tdir, "train.csv"))
        assert os.path.exists(os.path.join(tdir, "test.csv"))
    assert os.path.exists(os.path.join(root, "report.json"))

    rep2 = run_generate(small_settings(tmp_path / "two", trials=3))
    assert tree_bytes(os.path.join(s.out, "periodic-data")) == tree_bytes(
        os.path.join(str(tmp_path / "two"), "periodic-data"))
    assert rep == {**rep2}


def test_generate_csv_holds_the_trajectory_bits(tmp_path):
    s = small_settings(tmp_path, trials=1)
    run_generate(s)
    train, _ = generate_pair(s, 0)
    path = os.path.join(s.out, "periodic-data", "periodic", "trial000", "train.csv")
    with open(path) as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    assert header == ["k", "t", "x1", "y", "truth"]
    assert [int(r[0]) for r in rows] == list(range(1, s.n_steps + 1))
    cols = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.array_equal(cols[:, 0], np.arange(1, s.n_steps + 1) * DT)
    assert np.array_equal(cols[:, 1:], np.column_stack([train.x, train.y, train.truth]))


def test_write_csv_formats_each_float_one_way(tmp_path):
    path = tmp_path / "rows.csv"
    exp._write_csv(path, ["a", "b", "c", "d"], [[1, 0.1, np.float64(0.1), None],
                                                [2, 1e-300, np.float64(2.0), "x"]])
    assert path.read_bytes() == b"a,b,c,d\r\n1,0.1,0.1,\r\n2,1e-300,2.0,x\r\n"


def test_data_shared_across_parameter_cells(tmp_path):
    # the data substream ignores learner settings, so paired comparisons
    # across cells see identical trajectories
    a = small_settings(tmp_path, beta=0.02, n_particles=8)
    b = small_settings(tmp_path, beta=0.2, n_particles=100)
    train_a, test_a = generate_pair(a, 1)
    train_b, test_b = generate_pair(b, 1)
    assert np.array_equal(train_a.x, train_b.x) and np.array_equal(train_a.y, train_b.y)
    assert np.array_equal(test_a.x, test_b.x)


# ---------------------------------------------------------------------------
# oos-compare.
# ---------------------------------------------------------------------------


def test_oos_compare_small(tmp_path):
    s = small_settings(tmp_path, trials=6)
    rep = run_oos_compare(s)
    assert rep["cell"] == "N8_beta0.02_lambda0.1"
    assert len(rep["per_trial"]) == 6
    assert rep["panel_a"]["online"]["n"] == 6
    assert "t_pvalue" in rep["panel_b"]
    cell_dir = os.path.join(s.out, "periodic-oos", rep["cell"])
    with open(os.path.join(cell_dir, "mse_pairs.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "trial,mse_online,mse_offline"
    assert len(lines) == 7
    for trial in range(6):
        assert os.path.exists(os.path.join(cell_dir, f"trial{trial:03d}", "offline_loss.csv"))
    # csv cells round-trip the report values exactly
    row0 = lines[1].split(",")
    assert float(row0[1]) == rep["per_trial"][0]["mse_online"]


def test_oos_compare_reports_offline_grad_max(tmp_path):
    # the gradient the fit's last descent step already computed, per trial
    s = small_settings(tmp_path)
    rep = run_oos_compare(s)
    with open(os.path.join(s.out, "periodic-oos", "report.json")) as fh:
        assert json.load(fh)["per_trial"] == rep["per_trial"]
    (cell, onpgd), = exp.learner_grid(s).items()
    offline = OfflineFitConfig(iters=s.offline_iters)
    for row in rep["per_trial"]:
        train, _ = generate_pair(s, row["trial"])
        seed = exp.cell_seed(s, cell, row["trial"])
        _, _, grad_max = fit_offline(train, offline, onpgd, substream(seed, "offline"))
        assert row["offline_grad_max"] == grad_max > 0


# ---------------------------------------------------------------------------
# regret-sweep.
# ---------------------------------------------------------------------------


def test_regret_sweep_cell_grid(tmp_path):
    s = small_settings(tmp_path, beta=[0.02, 0.05])
    rep = run_regret_sweep(s)
    names = [c["name"] for c in rep["cells"]]
    assert names == ["N8_beta0.02_lambda0.1", "N8_beta0.05_lambda0.1"]
    for cell in rep["cells"]:
        assert cell["trials"] == 2
        assert cell["failures"] == []
        assert "cumulative_T_dynamic_regularized" in cell
        assert "cumulative_T_dynamic_unregularized" in cell
        assert "oos_mse" in cell
    for name in names:
        for trial in range(2):
            assert os.path.exists(os.path.join(
                s.out, "periodic-sweep", name, f"trial{trial:03d}", "regret.csv"))


def test_regret_sweep_records_failures(tmp_path, monkeypatch):
    real = exp.regret_run

    def flaky(train, test, onpgd, stride, seed, **kw):
        if onpgd.beta == 0.05:
            raise ConvergenceError("Newton stalled after 100 evaluations")
        return real(train, test, onpgd, stride, seed, **kw)

    monkeypatch.setattr(exp, "regret_run", flaky)
    s = small_settings(tmp_path, beta=[0.02, 0.05])
    rep = run_regret_sweep(s)
    ok_cell, bad_cell = rep["cells"]
    assert ok_cell["failures"] == [] and "oos_mse" in ok_cell
    assert len(bad_cell["failures"]) == 2
    assert "oos_mse" not in bad_cell  # no silent aggregation over missing runs
    for rec in bad_cell["failures"]:
        assert "ConvergenceError" in rec["error"]
        assert rec["trial"] in (0, 1)


def _raise_type_error(*args, **kw):
    raise TypeError("regret_run() got an unexpected keyword argument")


def test_regret_sweep_raises_on_a_programming_error(tmp_path, monkeypatch):
    # only the numerical failures in TRIAL_ERRORS are recorded per trial;
    # a TypeError is a fault of the program and must end the sweep
    monkeypatch.setattr(exp, "regret_run", _raise_type_error)
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_regret_sweep(small_settings(tmp_path, threads=2))
    assert not os.path.exists(os.path.join(str(tmp_path), "periodic-sweep", "report.json"))


def test_thread_count_does_not_change_bytes(tmp_path):
    s1 = small_settings(tmp_path / "t1", trials=3, beta=[0.02, 0.05], threads=1)
    s8 = small_settings(tmp_path / "t8", trials=3, beta=[0.02, 0.05], threads=8)
    run_regret_sweep(s1)
    run_regret_sweep(s8)
    b1 = tree_bytes(os.path.join(str(tmp_path / "t1"), "periodic-sweep"))
    b8 = tree_bytes(os.path.join(str(tmp_path / "t8"), "periodic-sweep"))
    assert b1 == b8
    assert len(b1) == 2 * 3 + 1  # regret.csv per (cell, trial) plus report.json


def test_sweep_reports_a_failed_data_draw_in_every_cell(tmp_path, monkeypatch):
    real = exp.generate_pair

    def flaky(settings, trial):
        if trial == 1:
            raise ConvergenceError("covariate path did not converge")
        return real(settings, trial)

    monkeypatch.setattr(exp, "generate_pair", flaky)
    s = small_settings(tmp_path, beta=[0.02, 0.05])
    rep = run_regret_sweep(s)
    for cell in rep["cells"]:
        assert cell["failures"] == [
            {"trial": 1, "error": "ConvergenceError: covariate path did not converge"}]
        assert len(cell["oos_mse"]["values"]) == 1  # trial 0 alone
        sweep = os.path.join(s.out, "periodic-sweep", cell["name"])
        assert os.path.exists(os.path.join(sweep, "trial000", "regret.csv"))
        assert not os.path.exists(os.path.join(sweep, "trial001"))


def test_static_sweep_reports_rho_star_and_keeps_bytes_across_threads(tmp_path):
    s1 = small_settings(tmp_path / "t1", include_static=True, beta=[0.02, 0.05], threads=1)
    s2 = small_settings(tmp_path / "t2", include_static=True, beta=[0.02, 0.05], threads=2)
    rep = run_regret_sweep(s1)
    run_regret_sweep(s2)
    b1 = tree_bytes(os.path.join(str(tmp_path / "t1"), "periodic-sweep"))
    b2 = tree_bytes(os.path.join(str(tmp_path / "t2"), "periodic-sweep"))
    assert b1 == b2
    for cell in rep["cells"]:
        assert cell["failures"] == []
        assert "cumulative_T_static_regularized" in cell
        assert "mu_star" in cell
        rho = cell["rho_star"]
        assert set(rho) == {"iters", "evals", "max_residual", "min_ess", "low_ess"}
        assert len(rho["iters"]) == 2 and all(1 <= n <= 500 for n in rho["iters"])
        # one evaluation at u = 0 and at least one per accepted step
        assert len(rho["evals"]) == 2 and all(e >= n for e, n in zip(rho["evals"], rho["iters"]))
        assert 0 <= rho["max_residual"] <= 1e-6
        assert 1 <= rho["min_ess"] <= s1.n_is
        assert 0 <= rho["low_ess"] <= 2
        assert (rho["low_ess"] > 0) == (rho["min_ess"] < exp.LOW_ESS)


def test_sweep_counts_low_ess_benchmark_points(tmp_path, monkeypatch):
    real = exp.regret_run
    ess = {}

    def recording(train, test, onpgd, *args, **kw):
        bundle = real(train, test, onpgd, *args, **kw)
        ess.setdefault(onpgd.beta, []).extend(bundle.mu_star_ess)
        return bundle

    monkeypatch.setattr(exp, "regret_run", recording)
    rep = run_regret_sweep(Settings(
        scenario="periodic", seed=3, trials=2, out=str(tmp_path), n_steps=60,
        n_particles=8, n_is=1200, eval_stride=20, beta=[0.005, 0.2]))
    small, large = rep["cells"]
    # beta = 0.005 tilts the prior samples hard: 3 of its 8 points degenerate
    assert small["mu_star"]["low_ess"] == 3
    assert large["mu_star"]["low_ess"] == 0
    for cell in rep["cells"]:
        values = ess[cell["beta"]]
        assert len(values) == 2 * 4  # trials x points {1, 20, 40, 60}
        assert cell["mu_star"] == {"min_ess": min(values),
                                   "low_ess": sum(e < exp.LOW_ESS for e in values)}


@pytest.mark.parametrize("bad", [dict(n_particles=[0]), dict(beta=[0.02, float("nan")]),
                                 dict(beta=[-0.1]), dict(lam=[0.0]),
                                 dict(lam=[0.1, float("nan")]), dict(beta=[0.0]),
                                 dict(beta=[0.02, 0.0]), dict(lam=[0.1, -0.4])])
def test_bad_sweep_value_fails_before_any_trial(tmp_path, bad):
    (name, _), = bad.items()
    # Settings, a learner config or its Gibbs prior rejects a bad entry by
    # its key
    key = {"n_particles": "onpgd.n", "lam": "onpgd.lambda", "beta": "onpgd.beta"}[name]
    with pytest.raises(ValueError, match=re.escape(f"({key}) must be")):
        run_regret_sweep(small_settings(tmp_path, **bad))
    assert not os.path.exists(os.path.join(str(tmp_path), "periodic-sweep"))


def test_regret_to_csv(tmp_path):
    train, test = gen_nonlinear(53, n_steps=40)
    onpgd = OnpgdConfig(n_particles=8, beta=0.03, lam=0.2)
    bundle = regret_run(train, test, onpgd, 20, seed=3, n_is=1000)
    path = tmp_path / "regret.csv"
    exp.regret_to_csv(bundle, path, 4, onpgd)
    lines = path.read_text().strip().splitlines()
    # header + 2 variants x 3 eval points (dynamic only)
    assert lines[0] == "t,instantaneous,cumulative,variant,benchmark,trial,N,beta,lambda"
    assert len(lines) == 1 + 2 * 3
    assert all(",dynamic," in ln for ln in lines[1:])
    # trial, N, beta and lambda: the trial given and the cell's learner config
    assert all(ln.endswith(",4,8,0.03,0.2") for ln in lines[1:])
    # each series reads back bit for bit
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for (b, v), s in bundle.series.items():
        mine = [r for r in rows if (r["benchmark"], r["variant"]) == (b, v)]
        for col, want in (("t", s.times), ("instantaneous", s.instantaneous),
                          ("cumulative", s.cumulative)):
            assert np.array_equal([float(r[col]) for r in mine], want)


def test_static_sweep_failure_names_the_hindsight_solve(tmp_path, monkeypatch):
    real = regret.solve_rho_star
    monkeypatch.setattr(regret, "solve_rho_star", functools.partial(real, max_iters=1))
    rep = run_regret_sweep(small_settings(tmp_path, include_static=True, trials=1))
    (cell,) = rep["cells"]
    (rec,) = cell["failures"]
    assert rec["error"].startswith("ConvergenceError: hindsight solve failed")
    assert "rho_star" not in cell


# ---------------------------------------------------------------------------
# command-line interface.
# ---------------------------------------------------------------------------


def write_small_cfg(tmp_path, extra=""):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "scenario = periodic\n"
        "data.n_steps = 40\n"
        "onpgd.n = 8\n"
        "is.n = 1200\n"
        "regret.stride = 20\n"
        "offline.iters = 40\n"
        + extra
    )
    return str(cfg)


def test_cli_stats_success_and_failure(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    write_csv(path, ["a", "b"], [(i * 0.1, i * 0.2) for i in range(1, 9)])
    assert cli.main(["stats", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "stats"
    # column names are stripped and empty entries dropped, as in config lists
    assert cli.main(["stats", "--input", str(path), "--columns", "a, b,"]) == 0
    assert json.loads(capsys.readouterr().out) == rep
    assert cli.main(["stats", "--input", str(tmp_path / "missing.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as e:
        cli.main(["regret-sweep", "--bogus"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        cli.main(["stats"])  # missing required --input
    assert e.value.code == 1


def test_cli_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # the streams' step and the learner's interaction are not settings, and
    # --sweep-n, --sweep-beta and --sweep-lambda set onpgd.n, onpgd.beta and
    # onpgd.lambda
    for line in ("onpgd.gamma = 2", "data.dt = 0.5", "onpgd.self_interaction = false",
                 "sweep.n = 20, 200", "sweep.beta = 0.02", "sweep.lambda = 0.4"):
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown config keys: " + line.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()


def test_cli_generate_writes_under_the_default_out_dir(tmp_path, monkeypatch, capsys):
    # the output root comes from its default, the config file or --out and
    # from no environment variable
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MFONLINE_OUT", str(tmp_path / "envroot"))
    cfg = write_small_cfg(tmp_path)
    rc = cli.main(["generate", "--config", cfg, "--trials", "1", "--seed", "3"])
    assert rc == 0
    assert os.path.exists(tmp_path / "out" / "periodic-data" / "report.json")
    assert not os.path.exists(tmp_path / "envroot")
    capsys.readouterr()


def test_cli_regret_sweep_flags(tmp_path, capsys):
    cfg = write_small_cfg(tmp_path)
    rc = cli.main([
        "regret-sweep", "--config", cfg, "--trials", "1", "--seed", "5",
        "--out", str(tmp_path / "sweepout"), "--stride", "20",
        "--sweep-beta", "0.02,0.05", "--experiment", "bsweep", "--threads", "2",
    ])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in rep["cells"]] == [
        "N8_beta0.02_lambda0.1", "N8_beta0.05_lambda0.1"]
    assert [len(c["oos_mse"]["values"]) for c in rep["cells"]] == [1, 1]  # one trial
    assert os.path.exists(tmp_path / "sweepout" / "bsweep" / "report.json")


def test_cli_regret_sweep_programming_error_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(exp, "regret_run", _raise_type_error)
    cfg = write_small_cfg(tmp_path)
    assert cli.main(["regret-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "TypeError" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--sweep-n", "0"), ("--sweep-n", "8.5"),
                                         ("--sweep-beta", "nan"), ("--sweep-lambda", "0"),
                                         ("--stride", "0"), ("--sweep-beta", ",")])
def test_cli_bad_sweep_value_exits_one(tmp_path, capsys, flag, value):
    # an empty list is a sweep over no value, not the default cell
    cfg = write_small_cfg(tmp_path)
    out = tmp_path / "sweepout"
    assert cli.main(["regret-sweep", "--config", cfg, "--out", str(out), flag, value]) == 1
    key = {"--sweep-n": "onpgd.n", "--sweep-beta": "onpgd.beta", "--sweep-lambda": "onpgd.lambda",
           "--stride": "regret.stride"}[flag]
    err = capsys.readouterr().err
    assert "ValueError: " in err and f"({key}) must" in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["onpgd.beta = 0", "onpgd.lambda = 0.0", "onpgd.beta = ,"])
def test_cli_zero_sweep_value_in_config_exits_one(tmp_path, capsys, line):
    # a zero has no Gibbs prior, and an empty list is a grid of no cell, not
    # the default one
    cfg = write_small_cfg(tmp_path, line + "\n")
    out = tmp_path / "sweepout"
    assert cli.main(["regret-sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ValueError: " in err and f"({line.split(' =')[0]}) must" in err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [("onpgd.beta = 0", "onpgd.beta"),
                                       ("onpgd.beta = nan", "onpgd.beta"),
                                       ("onpgd.lambda = 0", "onpgd.lambda"),
                                       ("onpgd.lambda = -0.1", "onpgd.lambda")])
def test_cli_verify_rejects_a_missing_gibbs_prior(tmp_path, capsys, line, key):
    # Settings accepts beta = 0 for oos-compare; verify must stop before any check
    cfg = write_small_cfg(tmp_path, line + "\n")
    out = tmp_path / "verifyout"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # zero fails the prior's check, a negative value the learner's and NaN
    # the settings' own
    assert re.search(rf"ValueError: \w+ \({re.escape(key)}\) must be "
                     r"(positive for the Gibbs prior|nonnegative|finite)", err)
    assert not out.exists()


def _cli_tree(out, argv, blas_threads):
    """Output tree of one CLI run in a fresh interpreter whose OpenBLAS
    runs blas_threads threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.path.dirname(os.path.dirname(mfonline.__file__)))
    subprocess.run([sys.executable, "-m", "mfonline.cli", *argv, "--out", str(out)], env=env,
                   capture_output=True, timeout=300, check=True)
    return tree_bytes(out)


@pytest.mark.parametrize("argv", [
    ["generate"], ["oos-compare", "--scenario", "periodic"],
    ["oos-compare", "--scenario", "nonlinear"],
], ids=["generate", "oos-periodic", "oos-nonlinear"])
def test_blas_thread_count_does_not_change_bytes(tmp_path, argv):
    # the neuron product goes through BLAS for one covariate and for a
    # batch; the output bits must not depend on how many threads BLAS runs
    argv = [*argv, "--config", write_small_cfg(tmp_path), "--seed", "3", "--trials", "2"]
    one = _cli_tree(tmp_path / "blas1", argv, 1)
    two = _cli_tree(tmp_path / "blas2", argv, 2)
    assert one and one == two


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the regret benchmarks' BLAS products round "
                          "differently at two OpenBLAS threads at the default is.n and horizon")
@pytest.mark.parametrize("argv", [
    ["regret-sweep", "--static", "--scenario", "periodic", "--trials", "1"],
    ["regret-sweep", "--scenario", "nonlinear", "--trials", "2"],
], ids=["regret-static-periodic", "regret-nonlinear"])
def test_blas_thread_count_does_not_change_regret_bytes(tmp_path, argv):
    # at write_small_cfg (is.n = 1200, K = 40) these trees agree, so the
    # runs keep the default sizes
    argv = [*argv, "--seed", "1"]
    one = _cli_tree(tmp_path / "blas1", argv, 1)
    two = _cli_tree(tmp_path / "blas2", argv, 2)
    if not one:
        pytest.fail("the run wrote no output")
    assert one == two


def tree_digest(tree):
    """sha256 over a tree_bytes dict: each relative path in sorted order,
    then its file's length and bytes."""
    h = hashlib.sha256()
    for rel in sorted(tree):
        h.update(f"{rel}\0{len(tree[rel])}\0".encode())
        h.update(tree[rel])
    return h.hexdigest()


# each command's output tree at write_small_cfg, seed 3, two trials and
# one BLAS thread, as (argv, tree_digest); a change that moves any output
# bit updates these
PINNED_TREES = {
    "generate": (["generate"],
                 "389e45b5b6d3d2c0e04a5bcf78bd44208a904d24b0549ef07c838d889a1e8f88"),
    "oos-periodic": (["oos-compare", "--scenario", "periodic"],
                     "139836168cf826aff41a1da5900452c41374720d0d7a702c42aa46e4c9bde26d"),
    "regret-static-periodic": (["regret-sweep", "--static", "--scenario", "periodic"],
                               "f8d85382ad4ce580d766eab8a639a7322c5ff5b2762c05f261a9df763b5f2506"),
    "regret-nonlinear": (["regret-sweep", "--scenario", "nonlinear", "--sweep-beta", "0.02,0.2"],
                         "1b09b1505e0bdd3b4c5d41518cffc02f738cd426877d305fb5f2aa5bba19a4bc"),
    "verify": (["verify"], "93a7435cb37ca33783331864997bb8cf10217f831db776a50fcbd063f2d99d54"),
}


@pytest.mark.parametrize("name", list(PINNED_TREES))
def test_cli_output_trees_are_pinned(tmp_path, name):
    argv, digest = PINNED_TREES[name]
    argv = [*argv, "--config", write_small_cfg(tmp_path), "--seed", "3", "--trials", "2"]
    assert tree_digest(_cli_tree(tmp_path / "out", argv, 1)) == digest


def test_cli_oos_compare_rejects_a_gibbs_init_without_prior(tmp_path, capsys):
    # at beta = 0 the Gibbs init would start both learners at theta = 0
    cfg = write_small_cfg(tmp_path, "onpgd.init_sd = gibbs\nonpgd.beta = 0\n")
    out = tmp_path / "oosout"
    assert cli.main(["oos-compare", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ValueError: beta (onpgd.beta) must be positive for the Gibbs prior" in err
    assert not out.exists()


def test_cli_onpgd_beta_names_the_cell_of_oos_compare_and_regret_sweep(tmp_path, capsys):
    # one key per learner quantity: both commands read onpgd.beta
    cfg = write_small_cfg(tmp_path, "onpgd.beta = 0.2\n")
    for command in ("oos-compare", "regret-sweep"):
        out = tmp_path / command
        argv = [command, "--config", cfg, "--out", str(out), "--experiment", "e", "--trials", "1"]
        assert cli.main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        cells = [rep["cell"]] if command == "oos-compare" else [c["name"] for c in rep["cells"]]
        assert cells == ["N8_beta0.2_lambda0.1"]
        assert sorted(os.listdir(out / "e")) == ["N8_beta0.2_lambda0.1", "report.json"]


@pytest.mark.parametrize("command", ["oos-compare", "verify"])
def test_cli_one_cell_command_rejects_a_grid(tmp_path, capsys, command):
    # oos-compare and verify run one learner; a grid is regret-sweep's
    cfg = write_small_cfg(tmp_path, "onpgd.beta = 0.02, 0.2\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("ValueError: onpgd.n, onpgd.beta and onpgd.lambda give 2 learner cells "
            "(N8_beta0.02_lambda0.1, N8_beta0.2_lambda0.1)") in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, values, clash", [
    ("--sweep-beta", "0.1234567,0.1234568", "(8, 0.1234567, 0.1) and (8, 0.1234568, 0.1)"),
    ("--sweep-n", "16,16", "(16, 0.02, 0.1) and (16, 0.02, 0.1)"),
])
def test_cli_sweep_cells_with_one_name_exit_one(tmp_path, capsys, flag, values, clash):
    # two cells named alike would share a directory and be merged in the report
    cfg = write_small_cfg(tmp_path)
    out = tmp_path / "sweepout"
    assert cli.main(["regret-sweep", "--config", cfg, "--out", str(out), flag, values]) == 1
    err = capsys.readouterr().err
    assert "ValueError" in err and clash in err and "share the name" in err
    assert not out.exists()


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    assert cli.main(["verify", "--seed", "1", *out]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    # every perturbed density has a strictly positive free-energy gap, and
    # the report carries the smallest one, not a floor of zero
    gap = {c["name"]: c for c in rep["checks"]}["gap_decomposition"]
    assert 0.0 < gap["min_lhs"] < 1e-3
    assert cli.main(["verify", "--seed", "1", "--inject-bug", *out]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is False
    failed = {c["name"]: c["ok"] for c in rep["checks"]}
    assert failed["is_vs_quadrature"] is False  # the corruption is caught
    assert failed["gap_decomposition"] is True  # untouched checks still pass


def test_cli_verify_writes_under_the_default_out_dir(tmp_path, monkeypatch, capsys):
    # without --out the report goes under ./out, whatever MFONLINE_OUT says,
    # and the report verify prints is the one it writes
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MFONLINE_OUT", str(tmp_path / "envroot"))
    assert cli.main(["verify", "--seed", "1"]) == 0
    with open(tmp_path / "out" / "verify" / "report.json") as fh:
        assert json.load(fh) == json.loads(capsys.readouterr().out)
    assert not os.path.exists(tmp_path / "envroot")

def test_verify_gap_check_prices_the_cost_regret_uses(tmp_path, monkeypatch):
    # negative control: the free energy behind gap_decomposition is cost_u
    # plus beta times the entropy, so a cost_u with its penalty doubled
    # must fail that check and no other
    real = equilibrium.cost_u
    monkeypatch.setattr(equilibrium, "cost_u", lambda m, q, y, lam: real(m, q, y, 2.0 * lam))
    rep = run_verify(Settings(seed=1, out=str(tmp_path)))
    ok = {c["name"]: c["ok"] for c in rep["checks"]}
    assert ok == {"gap_decomposition": False, "dym_formula": True, "is_vs_quadrature": True,
                  "constants": True}
    assert rep["ok"] is False


def test_verify_passes_at_a_temperature_the_sweep_uses(tmp_path):
    # at beta / lambda = 2 the tilted density has mass beyond the +-8 grid
    # the lower temperatures use; the grid spans 16 prior sd instead
    rep = run_verify(Settings(beta=0.2, lam=0.1, out=str(tmp_path)))
    assert rep["ok"] is True, rep["checks"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known failure: at beta 0.005 the importance weights of the 200000 prior "
    "samples are heavy-tailed, and is_vs_quadrature reads 3.26e-3 against its "
    "3e-3 tolerance at seed 1; ROADMAP items 2 and 10 (an exact lane over g, "
    "or a declared sample plan) are the ways to mend it"))
def test_verify_passes_at_the_smallest_sweep_temperature(tmp_path):
    rep = run_verify(Settings(seed=1, beta=0.005, out=str(tmp_path)))
    assert rep["ok"] is True, rep["checks"]
