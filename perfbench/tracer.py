"""Traced run of the mfonline CLI: spans around calls into each layer.

    python3 perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

Imports ``mfonline.cli`` (the ``cli.import`` span), installs wrappers and
then calls ``mfonline.cli.main(CLI_ARGS)`` in this process.  The modules
import functions by name, so a wrapper goes into every namespace the
caller looks the name up in (``mfonline.regret.solve_mu_star`` as well as
``mfonline.experiments.solve_mu_star``).  Spans are kept in memory and
written to SPANS_JSON when the run ends; ``analyse`` turns that file
into the per-layer metrics.  The process exits with the CLI's code.

A span is [name, layer, start, end, parent, thread, trial].  Spans opened
by a worker thread with nothing open in that thread get the thread
pool's span as parent.  The trial is the one the thread last passed to
``generate_pair``.
"""

import json
import math
import resource
import sys
import threading
import time

# every layer whose self time is accounted; ``theory`` has no metric of
# its own (it only runs inside ``verify`` and costs microseconds)
LAYERS = ("cli", "datastream", "onpgd", "offline", "equilibrium", "regret",
          "stats", "experiments", "theory")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.values = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_span = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, layer):
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_span
        span = [name, layer, time.perf_counter(), None, parent,
                threading.get_ident(), getattr(self._local, "trial", None)]
        with self._lock:
            self.spans.append(span)
            span_id = len(self.spans) - 1
        stack.append(span_id)
        return span_id

    def end(self, span_id):
        self.spans[span_id][3] = time.perf_counter()
        self._stack().pop()

    def add(self, key, value):
        with self._lock:
            self.values.setdefault(key, []).append(value)

    def count(self, key):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def span(self, module, attr, name, layer, after=None, rusage=None):
        """Replace module.attr by a wrapper that records a span per call.

        after(args, kwargs, result) runs once the span has ended; rusage
        names a key under which getrusage deltas of the call are kept.
        """
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if rusage:
                r0 = resource.getrusage(resource.RUSAGE_SELF)
            span_id = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span_id)
                self.count(name)
            if rusage:
                r1 = resource.getrusage(resource.RUSAGE_SELF)
                self.add(rusage + ".sys_s", r1.ru_stime - r0.ru_stime)
                self.add(rusage + ".minflt", r1.ru_minflt - r0.ru_minflt)
            if after:
                after(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def counter(self, module, attr, name):
        """Replace module.attr by a wrapper that only counts calls."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def hook(self, module, attr, before):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the layer boundaries of the mfonline package."""
    import mfonline.cli as cli
    import mfonline.equilibrium as equilibrium
    import mfonline.experiments as experiments
    import mfonline.offline as offline
    import mfonline.regret as regret

    def ess_frac(measure):
        w = measure.weights
        return float(1.0 / (w @ w)) / w.size

    def set_trial(args, kwargs):
        tracer._local.trial = args[1] if len(args) > 1 else kwargs["trial"]

    def pool(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span_id = tracer.begin("experiments.pool", "experiments")
            tracer._pool_span = span_id
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pool_span = None
                tracer._local.trial = None
                tracer.end(span_id)

        setattr(module, attr, wrapper)

    tracer.span(cli, "build_settings", "cli.settings", "cli",
                after=lambda a, k, s: tracer.add("threads", s.threads))
    for attr in ("run_generate", "run_oos_compare", "run_regret_sweep", "run_verify"):
        tracer.span(experiments, attr, "experiments.run", "experiments")
    pool(experiments, "_pool_map")
    tracer.hook(experiments, "generate_pair", set_trial)
    for attr in ("_trial_dir", "_write_report", "loss_trace_to_csv", "regret_to_csv"):
        tracer.span(experiments, attr, "experiments.write", "experiments")

    for attr in ("gen_periodic", "gen_nonlinear"):
        tracer.span(experiments, attr, "datastream.gen", "datastream")

    run_online_after = lambda a, k, r: tracer.add("onpgd.steps", a[0].n_steps)
    for module in (offline, regret):
        tracer.span(module, "run_online", "onpgd.run_online", "onpgd", after=run_online_after)

    tracer.span(experiments, "compare_oos", "offline.compare_oos", "offline")
    tracer.span(offline, "fit_offline", "offline.fit", "offline", rusage="offline.fit",
                after=lambda a, k, r: tracer.add("offline.fit.iters", a[1].iters))
    tracer.counter(offline, "batch_loss", "offline.batch_loss")
    tracer.counter(offline, "batch_loss_grad", "offline.batch_loss_grad")

    mu_after = lambda a, k, r: tracer.add("equilibrium.mu_star.ess_frac", ess_frac(r[1]))

    def rho_after(args, kwargs, sol):
        traj, samples = args[0], args[1]
        tracer.add("equilibrium.rho_star.iters", sol.n_iters)
        tracer.add("equilibrium.rho_star.ess_frac", ess_frac(sol.measure))
        tracer.add("equilibrium.rho_star.matrix_mb", samples.shape[0] * traj.n_steps * 8 / 1e6)

    for module in (experiments, regret):
        tracer.span(module, "solve_mu_star", "equilibrium.mu_star", "equilibrium", after=mu_after)
        tracer.span(module, "draw_prior_samples", "equilibrium.draw_prior", "equilibrium")
    tracer.span(regret, "solve_rho_star", "equilibrium.rho_star", "equilibrium", after=rho_after)
    for attr in ("solve_mu_star_quadrature", "verify_gap_decomposition", "verify_dym_formula"):
        tracer.span(experiments, attr, "equilibrium.quadrature", "equilibrium")
    # the verifiers also call the quadrature solver inside the module
    for module in (experiments, equilibrium):
        tracer.counter(module, "solve_mu_star_quadrature", "equilibrium.quadrature.solves")

    tracer.span(experiments, "regret_run", "regret.regret_run", "regret")
    for attr in ("cost_u", "cost_u_unreg"):
        tracer.span(regret, attr, "regret.cost", "regret")

    tracer.span(experiments, "summarize", "stats.summarize", "stats")
    tracer.span(experiments, "paired_tests", "stats.paired_tests", "stats")
    tracer.span(experiments, "compute_constants", "theory.constants", "theory")


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()

    span_id = tracer.begin("cli.import", "cli")
    import mfonline.cli
    tracer.end(span_id)
    install(tracer)

    r0 = resource.getrusage(resource.RUSAGE_SELF)
    span_id = tracer.begin("cli.main", "cli")
    try:
        rc = mfonline.cli.main(cli_args)
    finally:
        tracer.end(span_id)
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    main_span = tracer.spans[span_id]

    dump = {
        "module": mfonline.cli.__file__,
        "rc": rc,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "values": tracer.values,
        "main_cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "main_wall_s": main_span[3] - main_span[2],
    }
    with open(out_path, "w") as fh:
        json.dump(dump, fh)
    return rc


# ---------------------------------------------------------------------------
# analysis of a spans file
# ---------------------------------------------------------------------------


def _union(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time and the parallel excess.

    Self time is the span's duration minus the part of it that its
    children cover.  Children on other threads can overlap each other;
    the time they overlap (the parallel excess) is what makes the sum of
    self times exceed the wall time of the run.
    """
    children = {}
    for i, s in enumerate(spans):
        if s[4] is not None:
            children.setdefault(s[4], []).append(i)
    selfs, excess = [], 0.0
    for i, s in enumerate(spans):
        lo, hi = s[2], s[3]
        clipped = [(max(spans[c][2], lo), min(spans[c][3], hi)) for c in children.get(i, ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union(clipped)
        excess += sum(b - a for a, b in clipped) - covered
        selfs.append((hi - lo) - covered)
    return selfs, excess


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def analyse(dump):
    """Per-layer metrics of one traced run, keyed by metric name."""
    spans = dump["spans"]
    selfs, excess = self_times(spans)
    by_name, self_by_name, layer_self = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, selfs):
        by_name.setdefault(s[0], []).append(s[3] - s[2])
        self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + own
        layer_self[s[1]] += own
    counts, values = dump["counts"], dump["values"]

    def calls(name):
        return counts.get(name, 0)

    def self_s(name):
        return self_by_name.get(name, 0.0)

    def total(key):
        return float(sum(values.get(key, ())))

    top = [s[3] - s[2] for s in spans if s[4] is None]
    wall = sum(top)
    threads = values.get("threads", [1])[0]
    steps = total("onpgd.steps")
    fit_iters = total("offline.fit.iters")
    mu_ess = values.get("equilibrium.mu_star.ess_frac", [])
    trials = by_name.get("offline.compare_oos", []) + by_name.get("regret.regret_run", [])

    m = {
        "cli.import_s": sum(by_name.get("cli.import", [])),
        "datastream.gen.calls": calls("datastream.gen"),
        "datastream.gen.self_s": self_s("datastream.gen"),
        "onpgd.run_online.calls": calls("onpgd.run_online"),
        "onpgd.run_online.self_s": self_s("onpgd.run_online"),
        "onpgd.step_us": 1e6 * self_s("onpgd.run_online") / steps if steps else 0.0,
        "offline.fit.self_s": self_s("offline.fit"),
        "offline.fit.iter_ms": 1e3 * sum(by_name.get("offline.fit", [])) / fit_iters if fit_iters else 0.0,
        "offline.fit.sys_s": total("offline.fit.sys_s"),
        "offline.fit.minflt": int(total("offline.fit.minflt")),
        "offline.batch_loss.calls": calls("offline.batch_loss"),
        "offline.batch_loss_grad.calls": calls("offline.batch_loss_grad"),
        "equilibrium.mu_star.calls": calls("equilibrium.mu_star"),
        "equilibrium.mu_star.self_s": self_s("equilibrium.mu_star"),
        "equilibrium.mu_star.p50_ms": 1e3 * percentile(by_name.get("equilibrium.mu_star", []), 0.5),
        "equilibrium.mu_star.p90_ms": 1e3 * percentile(by_name.get("equilibrium.mu_star", []), 0.9),
        "equilibrium.mu_star.ess_frac_min": min(mu_ess) if mu_ess else 0.0,
        "equilibrium.mu_star.ess_frac_median": percentile(mu_ess, 0.5),
        "equilibrium.draw_prior.self_s": self_s("equilibrium.draw_prior"),
        "equilibrium.rho_star.calls": calls("equilibrium.rho_star"),
        "equilibrium.rho_star.self_s": self_s("equilibrium.rho_star"),
        "equilibrium.rho_star.iters": int(total("equilibrium.rho_star.iters")),
        "equilibrium.rho_star.ess_frac": percentile(values.get("equilibrium.rho_star.ess_frac", []), 0.5),
        "equilibrium.rho_star.matrix_mb": max(values.get("equilibrium.rho_star.matrix_mb", [0.0])),
        "equilibrium.quadrature.calls": calls("equilibrium.quadrature.solves"),
        "equilibrium.quadrature.self_s": self_s("equilibrium.quadrature"),
        "regret.cost.calls": calls("regret.cost"),
        "regret.cost.self_s": self_s("regret.cost"),
        "regret.regret_run.self_s": self_s("regret.regret_run"),
        "stats.paired_tests.self_s": self_s("stats.paired_tests"),
        "experiments.write.self_s": self_s("experiments.write"),
        "experiments.trial.p50_s": percentile(trials, 0.5),
        "experiments.trial.p90_s": percentile(trials, 0.9),
        "experiments.cpu_util": dump["main_cpu_s"] / (dump["main_wall_s"] * threads),
        "trace.wall_s": wall,
        "trace.accounted_frac": sum(layer_self.values()) / (wall + excess),
    }
    for layer in LAYERS:
        if layer != "theory":
            m[f"layer.{layer}.self_s"] = layer_self[layer]
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
