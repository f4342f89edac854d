"""Benchmark of the mfonline CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload in turn
    python3 perfbench/run.py --write-reference     # refresh reference.json

Run from the root of a checkout; the package is imported from ./src.
With ``--trace 0`` each run times fresh-interpreter set-up three times,
then runs the workload's CLI command as a subprocess over whole cycles
of the seed pool until ``--seconds`` have passed, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the command once
untraced and once under ``tracer.py`` and reports the per-layer metrics.
Every invocation goes through the correctness gate in ``gate.py``.  The
last line of standard output is the JSON result; the lines before it
are a table of the metrics and the run's environment record.  Outputs
go to ``.perfbench_out/`` in the checkout.  README.md documents the
workloads and the counts that must repeat exactly.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gate
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
NPROC = len(os.sched_getaffinity(0))

# CLI seeds a run cycles through, starting at --seed modulo the pool size.
# Every run covers the whole pool: the rho* solve alone takes 67 to 264
# iterations across data seeds 1..8, so runs over different data would
# differ by more than any bound (README.md, "Seeds").
POOL = (1, 2)
SETUP_REPEATS = 3
RUN_BUDGET_S = 150.0  # stop starting invocations after this; the run must end within 180 s
INVOCATION_TIMEOUT_S = 170.0

CELL = "N80_beta{:g}_lambda0.1"
WORKLOADS = {
    "oos-periodic": {
        "kind": "oos", "trials": 1, "cells": [CELL.format(0.02)],
        "args": ["oos-compare", "--scenario", "periodic", "--threads", "1", "--trials", "1"],
    },
    "regret-static-periodic": {
        "kind": "regret", "trials": 1, "cells": [CELL.format(0.02)],
        "benchmarks": ("dynamic", "static"),
        "args": ["regret-sweep", "--static", "--scenario", "periodic", "--threads", "1",
                 "--trials", "1"],
    },
    "regret-dynamic-nonlinear": {
        "kind": "regret", "trials": 3,
        "cells": [CELL.format(b) for b in (0.005, 0.02, 0.05, 0.2)],
        "benchmarks": ("dynamic",),
        # one worker thread: with nproc threads each running multi-threaded
        # BLAS the run-to-run spread of wall_s was 0.25 of the median (README.md)
        "args": ["regret-sweep", "--scenario", "nonlinear", "--sweep-beta",
                 "0.005,0.02,0.05,0.2", "--threads", "1", "--trials", "3"],
    },
    "verify": {
        "kind": "verify", "trials": 1,
        "args": ["verify", "--threads", "1"],
    },
}

SETUP_PROBE = """
import sys
import mfonline.cli
import mfonline.experiments
from mfonline.config import build_settings
args = mfonline.cli.build_parser().parse_args(sys.argv[1:])
build_settings(args.config, mfonline.cli._overrides(args))
print(mfonline.cli.__file__)
"""

ENV_PROBE = """
import ctypes, importlib.metadata, json, platform, numpy
info = {"python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"), "openblas": None, "blas_threads": None}
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l and ".so" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                get_config = getattr(lib, prefix + "get_config" + suffix)
                get_threads = getattr(lib, prefix + "get_num_threads" + suffix)
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            info["openblas"] = get_config().decode()
            info["blas_threads"] = get_threads()
print(json.dumps(info))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_cpu_stat():
    """(steal ticks, total ticks) of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_frac(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def spawn(cmd, stdout_path, stderr_path):
    """Run cmd to completion; returns (exit code, wall s, rusage)."""
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=so, stderr=se)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def invoke(name, cli_seed, ref, trace=False):
    """One gated CLI invocation of workload ``name`` at ``cli_seed``."""
    spec = WORKLOADS[name]
    work = os.path.join(OUT, name, "traced" if trace else "untraced")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    args = spec["args"] + ["--seed", str(cli_seed), "--out", work, "--experiment", "bench"]
    spans = os.path.join(OUT, name, "spans.json")
    if os.path.exists(spans):
        os.remove(spans)
    if trace:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--"] + args
    else:
        cmd = [sys.executable, "-m", "mfonline.cli"] + args
    stat0 = read_cpu_stat()
    rc, wall, usage = spawn(cmd, work + ".stdout", work + ".stderr")
    result = gate.check(spec, os.path.join(work, "bench"), rc, ref)
    result.update(cli_seed=cli_seed, rc=rc, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024,
                  user_s=usage.ru_utime, sys_s=usage.ru_stime,
                  steal_frac=steal_frac(stat0, read_cpu_stat()),
                  out_bytes=tree_bytes(os.path.join(work, "bench")))
    if trace:
        try:
            with open(spans) as fh:
                result["dump"] = json.load(fh)
        except (OSError, ValueError):
            result["dump"] = None
    return result


def setup_time(name):
    """Spawn-to-exit time of importing the CLI and building its Settings."""
    args = WORKLOADS[name]["args"] + ["--seed", "1"]
    probe = os.path.join(OUT, name, "setup")
    os.makedirs(os.path.dirname(probe), exist_ok=True)
    rc, wall, _ = spawn([sys.executable, "-c", SETUP_PROBE] + args, probe + ".stdout",
                        probe + ".stderr")
    with open(probe + ".stdout") as fh:
        module = fh.read().strip()
    if rc != 0 or not module.startswith(SRC + os.sep):
        raise RuntimeError(f"set-up probe failed (exit {rc}) or imported {module!r}, not ./src")
    return wall


def environment(steal, invocations):
    """Run-environment record: source, versions, BLAS threads, nproc, steal."""
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(git) == 2 and os.path.realpath(git[0]) == os.path.realpath(ROOT):
            commit = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mfonline")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=_env(),
                           capture_output=True, text=True, timeout=60)
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {"error": probe.stderr[-200:]}
    return {
        "commit": commit,
        "src_digest": digest.hexdigest(),
        **versions,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": NPROC,
        "steal_frac": steal,
        "invocations": {name: [{k: v for k, v in inv.items() if k != "dump"} for inv in invs]
                        for name, invs in invocations.items()},
    }


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, reference):
    """Measure one workload; returns (metrics, invocations, steal share)."""
    refs = reference[name]
    stat0 = read_cpu_stat()
    t_begin = time.perf_counter()
    if trace:
        cli_seed = POOL[seed % len(POOL)]
        ref = refs[str(cli_seed)]
        plain = invoke(name, cli_seed, ref)
        traced = invoke(name, cli_seed, ref, trace=True)
        invocations = [plain, traced]
        if traced["dump"] is None or not traced["dump"]["module"].startswith(SRC + os.sep):
            raise RuntimeError("traced run wrote no spans or did not import ./src")
        metrics = tracer.analyse(traced["dump"])
        metrics["experiments.out_bytes"] = traced["out_bytes"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    else:
        setups = [setup_time(name) for _ in range(SETUP_REPEATS)]
        invocations = []
        start = time.perf_counter()
        while True:
            cli_seed = POOL[(seed + len(invocations)) % len(POOL)]
            invocations.append(invoke(name, cli_seed, refs[str(cli_seed)]))
            done = time.perf_counter() - start >= seconds and len(invocations) % len(POOL) == 0
            if done or time.perf_counter() - t_begin + invocations[-1]["wall_s"] > RUN_BUDGET_S:
                break
        attempted = sum(i["attempted"] for i in invocations)
        failed = sum(i["failed"] for i in invocations)
        metrics = {
            "wall_s": statistics.median(i["wall_s"] for i in invocations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in invocations),
            "ok_frac": 1.0 - failed / attempted,
        }
    return metrics, invocations, steal_frac(stat0, read_cpu_stat())


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(".calls") or metric.endswith(".iters") or metric.endswith(".minflt"):
        return "count"
    return "ratio"


def report_lines(name, seed, trace, metrics, invocations):
    lines = [f"workload {name}  seed {seed}  trace {trace}"]
    for i, inv in enumerate(invocations):
        lines.append(
            f"  invocation {i}: cli seed {inv['cli_seed']}  exit {inv['rc']}  "
            f"wall {inv['wall_s']:.3f} s  rss {inv['peak_rss_mb']:.1f} MB  "
            f"failed {inv['failed']}/{inv['attempted']}  digest match {inv['digest_match']}  "
            f"steal {inv['steal_frac'] if inv['steal_frac'] is None else round(inv['steal_frac'], 4)}")
        lines.extend(f"    gate: {p}" for p in inv["problems"][:10])
    attempted = sum(i["attempted"] for i in invocations)
    failed = sum(i["failed"] for i in invocations)
    lines.append(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    for key in sorted(metrics):
        lines.append(f"  {key:34s} {metrics[key]:.6g} {unit_of(key)}")
    return lines


def write_reference():
    """Run every workload once per pool seed and store its key numbers."""
    out = {}
    for name, spec in WORKLOADS.items():
        out[name] = {}
        for cli_seed in POOL:
            inv = invoke(name, cli_seed, None)
            if inv["failed"]:
                raise RuntimeError(f"{name} seed {cli_seed} fails the gate: {inv['problems']}")
            with open(os.path.join(OUT, name, "untraced", "bench", "report.json")) as fh:
                report = json.load(fh)
            values = {k: v[0] for k, v in gate.key_values(spec, report).items()}
            out[name][str(cli_seed)] = {"digest": inv["digest"], "values": values}
            print(f"{name} seed {cli_seed}: {len(values)} values, wall {inv['wall_s']:.2f} s")
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfonline", "cli.py")):
        print(f"perfbench: no mfonline package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    reference = load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    steal, done = {}, {}
    for name in names:
        metrics, invocations, steal[name] = run_workload(
            name, args.seed, args.seconds, bool(args.trace), reference)
        done[name] = invocations
        print("\n".join(report_lines(name, args.seed, args.trace, metrics, invocations)))
        result["attempted"] += sum(i["attempted"] for i in invocations)
        result["failed"] += sum(i["failed"] for i in invocations)
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit_of(key)}
    result["correct"] = result["failed"] == 0
    record = environment(steal, done)
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "invocations"},
                                  sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
