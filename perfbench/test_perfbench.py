"""Tests of the benchmark itself: negative controls, gate and trace accounting.

    python3 -m pytest perfbench -q

The negative controls run the real CLI and show that failures are
counted from report.json, not only from the exit code.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracer

SMALL_CONFIG = """
data.n_steps = 60
onpgd.n = 8
is.n = 600
offline.iters = 30
regret.stride = 20
"""


@pytest.fixture
def out_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    return tmp_path


def add_workload(monkeypatch, name, base, args, **extra):
    spec = dict(run.WORKLOADS[base], args=args, **extra)
    monkeypatch.setitem(run.WORKLOADS, name, spec)
    return spec


def test_inject_bug_counts_as_failed(monkeypatch, out_dir):
    add_workload(monkeypatch, "verify-bug", "verify", ["verify", "--threads", "1", "--inject-bug"])
    inv = run.invoke("verify-bug", 1, None)
    assert inv["rc"] == 2
    assert inv["attempted"] == 4 and inv["failed"] == 4
    assert "check is_vs_quadrature not ok" in inv["problems"]


def test_stride_beyond_horizon_fails_every_trial_despite_exit_zero(monkeypatch, out_dir):
    add_workload(monkeypatch, "stride", "regret-static-periodic",
                 ["regret-sweep", "--scenario", "nonlinear", "--stride", "5000",
                  "--threads", "1", "--trials", "2"],
                 trials=2, benchmarks=("dynamic",))
    inv = run.invoke("stride", 1, None)
    assert inv["rc"] == 0
    assert inv["attempted"] == 2 and inv["failed"] == 2  # failed_frac == 1.0


def write_oos_report(root, mse_online, mse_offline, trials=1):
    rows = [{"trial": t, "mse_online": mse_online, "mse_offline": mse_offline}
            for t in range(trials)]
    cell = run.WORKLOADS["oos-periodic"]["cells"][0]
    for t in range(trials):
        os.makedirs(os.path.join(root, cell, f"trial{t:03d}"))
        open(os.path.join(root, cell, f"trial{t:03d}", "offline_loss.csv"), "w").close()
    with open(os.path.join(root, "report.json"), "w") as fh:
        json.dump({"per_trial": rows, "panel_b": gate.PANEL_B_FEW}, fh)


@pytest.mark.parametrize("rel, failed", [(0.0, 0), (1e-12, 0), (1e-6, 1)])
def test_gate_compares_with_reference_at_stated_tolerance(tmp_path, rel, failed):
    write_oos_report(tmp_path, 0.2, 0.4)
    ref = {"digest": "x", "values": {"trial0.mse_online": 0.2 * (1 + rel),
                                      "trial0.mse_offline": 0.4}}
    res = gate.check(run.WORKLOADS["oos-periodic"], str(tmp_path), 0, ref)
    assert (res["attempted"], res["failed"]) == (1, failed)
    assert res["digest_match"] is False


def test_gate_counts_missing_trial_and_bad_exit(tmp_path):
    write_oos_report(tmp_path, 0.2, float("nan"))
    spec = run.WORKLOADS["oos-periodic"]
    assert gate.check(spec, str(tmp_path), 0)["failed"] == 1
    shutil.rmtree(tmp_path / run.WORKLOADS["oos-periodic"]["cells"][0])
    write_oos_report(tmp_path, 0.2, 0.4)
    assert gate.check(spec, str(tmp_path), 0)["failed"] == 0
    assert gate.check(spec, str(tmp_path), 1)["failed"] == 1


def traced(tmp_path, args, tag):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    spans = tmp_path / f"{tag}.json"
    out = tmp_path / tag
    subprocess.run([sys.executable, os.path.join(run.HERE, "tracer.py"), str(spans), "--",
                    *args, "--config", str(config), "--out", str(out)],
                   cwd=run.ROOT, env=run._env(), check=True, capture_output=True, timeout=300)
    with open(spans) as fh:
        metrics = tracer.analyse(json.load(fh))
    metrics["experiments.out_bytes"] = run.tree_bytes(out)
    return metrics


EXACT = ("datastream.gen.calls", "onpgd.run_online.calls", "offline.batch_loss.calls",
         "offline.batch_loss_grad.calls", "equilibrium.mu_star.calls",
         "equilibrium.rho_star.calls", "equilibrium.rho_star.iters",
         "equilibrium.quadrature.calls", "regret.cost.calls", "experiments.out_bytes")


def test_trace_counts_repeat_and_self_times_add_up(tmp_path):
    args = ["regret-sweep", "--static", "--scenario", "periodic", "--trials", "2",
            "--threads", "2", "--sweep-beta", "0.02,0.05", "--seed", "3"]
    first = traced(tmp_path, args, "a")
    second = traced(tmp_path, args, "b")
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    points = len({1, 60} | set(range(20, 61, 20)))  # eval subgrid of 60 steps at stride 20
    assert first["datastream.gen.calls"] == 4  # cells x trials
    assert first["onpgd.run_online.calls"] == 4
    assert first["equilibrium.rho_star.calls"] == 4
    assert first["equilibrium.mu_star.calls"] == 4 * points
    assert first["regret.cost.calls"] == 4 * points * 8
    assert first["offline.batch_loss.calls"] == 0
    assert first["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    layers = sum(v for k, v in first.items() if k.startswith("layer."))
    assert layers <= first["trace.wall_s"] * 2 + 1e-9  # two threads at most


def test_trace_offline_counts_and_single_thread_accounting(tmp_path):
    m = traced(tmp_path, ["oos-compare", "--scenario", "periodic", "--trials", "2",
                          "--threads", "1", "--seed", "3"], "oos")
    assert m["offline.batch_loss.calls"] == 2 * 31
    assert m["offline.batch_loss_grad.calls"] == 2 * 30
    assert m["onpgd.run_online.calls"] == 2
    layers = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layers == pytest.approx(m["trace.wall_s"], rel=1e-3)
