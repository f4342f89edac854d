"""Correctness gate for one CLI invocation of a benchmark workload.

A unit is what ``failed_frac`` counts: a trial for ``oos-compare``, a
(cell, trial) pair for ``regret-sweep`` and a named check for
``verify``.  A unit fails when the process exits non-zero, when
``report.json`` is missing or records an error or failure for it, when
its trial directory is missing, when a number is not finite, or when a
key number differs from the stored reference by more than its tolerance.

Tolerances are fixed here from the solver tolerance each number depends
on, not from observed spread (README.md gives the derivation):

* ``mse_online``, ``mse_offline``, ``oos_mse``: fixed-step arithmetic
  with no solver tolerance; relative ``FP_REL``.
* ``cumulative_T_dynamic_*``: ``mu*`` bisection stops at
  ``|Phi(m) - m| <= root_tol``; absolute ``HORIZON * L_MU * root_tol``.
* ``cumulative_T_static_*``: the ``rho*`` iteration stops at residual
  ``tol``; absolute ``HORIZON * (2 / beta) * tol * A_SCALE``.

The digest of ``report.json`` is compared with the reference digest as
information only; it never fails a unit.
"""

import hashlib
import json
import math
import os

FP_REL = 1e-9
MU_ROOT_TOL = 1e-10  # Settings.root_tol
RHO_TOL = 1e-6  # solve_rho_star(tol=...)
HORIZON = 1000 * 0.02  # K * dt at the default settings
L_MU = 50.0  # bound on |dU(mu*)/dm*|: 2|m - y| + sqrt(2 d) at the default scales
A_SCALE = 0.5  # |a| <~ sqrt(beta / lam) ~ 0.45, the prior scale of an output weight
PANEL_B_FEW = {"error": "need at least 6 pairs"}
VERIFY_CHECKS = ("gap_decomposition", "dym_formula", "is_vs_quadrature", "constants")


def tolerance(key, ref, beta):
    """Absolute tolerance for reference key ``key`` with value ``ref``."""
    if "cumulative_T_static" in key:
        abs_tol = HORIZON * (2.0 / beta) * RHO_TOL * A_SCALE
    elif "cumulative_T_dynamic" in key:
        abs_tol = HORIZON * L_MU * MU_ROOT_TOL
    else:
        abs_tol = 0.0
    return abs_tol + FP_REL * abs(ref)


def _scalar(entry):
    """A cell statistic: {"mean": ...} or {"values": [v]} for one trial."""
    if "mean" in entry:
        return entry["mean"]
    return entry["values"][0] if len(entry["values"]) == 1 else math.nan


def key_values(spec, report):
    """Reference keys of a report: {key: (value, unit names it covers, beta)}."""
    out = {}
    if spec["kind"] == "oos":
        for row in report.get("per_trial", []):
            unit = f"trial{row['trial']}"
            for col in ("mse_online", "mse_offline"):
                if col in row:
                    out[f"{unit}.{col}"] = (row[col], [unit], None)
    elif spec["kind"] == "regret":
        for cell in report.get("cells", []):
            units = [f"{cell['name']}/trial{t}" for t in range(spec["trials"])]
            for key, entry in cell.items():
                if key == "oos_mse" or key.startswith("cumulative_T_"):
                    out[f"{cell['name']}.{key}"] = (_scalar(entry), units, cell["beta"])
    return out


def units_of(spec):
    if spec["kind"] == "oos":
        return [f"trial{t}" for t in range(spec["trials"])]
    if spec["kind"] == "regret":
        return [f"{c}/trial{t}" for c in spec["cells"] for t in range(spec["trials"])]
    return list(VERIFY_CHECKS)


def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def _structural(spec, root, report, failed, problems):
    """Checks that need no reference; marks failed units in place."""
    if spec["kind"] == "oos":
        rows = {r.get("trial"): r for r in report.get("per_trial", [])}
        for t in range(spec["trials"]):
            row = rows.get(t)
            path = os.path.join(root, spec["cells"][0], f"trial{t:03d}", "offline_loss.csv")
            if row is None or "error" in row or not all(
                    _finite(row.get(c)) for c in ("mse_online", "mse_offline")):
                failed.add(f"trial{t}")
                problems.append(f"trial {t}: missing, failed or not finite")
            elif not os.path.isfile(path):
                failed.add(f"trial{t}")
                problems.append(f"trial {t}: no offline_loss.csv")
        panel_b = report.get("panel_b", {})
        if spec["trials"] < 6:
            ok = panel_b == PANEL_B_FEW
        else:
            ok = "error" not in panel_b and all(
                _finite(panel_b.get(k)) for k in ("t_pvalue", "wilcoxon_pvalue"))
        if not ok:
            failed.update(units_of(spec))
            problems.append(f"panel_b unexpected: {panel_b}")
    elif spec["kind"] == "regret":
        cells = {c.get("name"): c for c in report.get("cells", [])}
        for name in spec["cells"]:
            cell = cells.get(name)
            units = [f"{name}/trial{t}" for t in range(spec["trials"])]
            if cell is None or cell.get("trials") != spec["trials"]:
                failed.update(units)
                problems.append(f"cell {name}: missing or wrong trial count")
                continue
            for f in cell.get("failures", []):
                failed.add(f"{name}/trial{f['trial']}")
                problems.append(f"cell {name} trial {f['trial']}: {f['error']}")
            for t in range(spec["trials"]):
                if not os.path.isfile(os.path.join(root, name, f"trial{t:03d}", "regret.csv")):
                    failed.add(f"{name}/trial{t}")
            wanted = ["oos_mse"] + [
                f"cumulative_T_{b}_{v}" for b in spec["benchmarks"]
                for v in ("regularized", "unregularized")]
            if len(cell.get("failures", [])) < spec["trials"] and not all(
                    k in cell and _finite(_scalar(cell[k])) for k in wanted):
                failed.update(units)
                problems.append(f"cell {name}: missing or non-finite summary")
    else:
        checks = {c.get("name"): c for c in report.get("checks", [])}
        for name in VERIFY_CHECKS:
            if checks.get(name, {}).get("ok") is not True:
                failed.add(name)
                problems.append(f"check {name} not ok")
        if report.get("ok") is not True:
            failed.update(VERIFY_CHECKS)
            problems.append("verify ok is not true")


def check(spec, root, rc, ref=None):
    """Gate one invocation whose report is ``root``/report.json.

    ``ref`` is the stored reference for the invocation's seed
    ({"digest": ..., "values": {key: value}}), or None to run only the
    checks that need no reference.  Returns a dict with ``attempted``,
    ``failed``, ``problems``, ``digest`` and ``digest_match``.
    """
    units = units_of(spec)
    failed, problems, digest = set(), [], None
    path = os.path.join(root, "report.json")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        report = json.loads(raw)
    except (OSError, ValueError) as e:
        report = None
        failed.update(units)
        problems.append(f"report.json unreadable: {e}")
    if rc != 0:
        failed.update(units)
        problems.append(f"exit code {rc}")
    if report is not None:
        _structural(spec, root, report, failed, problems)
        if ref is not None:
            got = key_values(spec, report)
            for key, want in ref["values"].items():
                value, covered, beta = got.get(key, (math.nan, [], None))
                covered = covered or units
                if not _finite(value) or abs(value - want) > tolerance(key, want, beta or 1.0):
                    failed.update(covered)
                    problems.append(f"{key}: {value!r} vs reference {want!r}")
    return {
        "attempted": len(units),
        "failed": len(failed),
        "problems": problems,
        "digest": digest,
        "digest_match": None if ref is None else digest == ref["digest"],
    }
