"""Flat key-value run configuration with dotted section names.

Config files look like:

    # nonlinear sweep
    scenario = nonlinear
    trials = 30
    seed = 7
    onpgd.n = 80
    onpgd.lambda = 0.1
    onpgd.beta = 0.02
    sweep.beta = 0.005, 0.02, 0.05, 0.2

One ``key = value`` per line; '#' starts a comment; values are coerced to
int, float, bool or comma lists, falling back to strings.  Command-line
flags override file values, which override the defaults below.
"""

import os
from dataclasses import dataclass, field, fields


def _coerce(text: str):
    text = text.strip()
    if "," in text:
        return [_coerce(part) for part in text.split(",") if part.strip()]
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_config(text: str) -> dict:
    """Parse config text into a flat {dotted-key: value} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        out[key] = _coerce(value)
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())


# dotted config key -> settings field
KEY_MAP = {
    "scenario": "scenario",
    "trials": "trials",
    "seed": "seed",
    "out": "out",
    "threads": "threads",
    "experiment": "experiment",
    "data.n_steps": "n_steps",
    "onpgd.n": "n_particles",
    "onpgd.lambda": "lam",
    "onpgd.beta": "beta",
    "onpgd.dt": "dt",
    "onpgd.init_sd": "init_sd",
    "onpgd.self_interaction": "self_interaction",
    "is.n": "n_is",
    "is.root_tol": "root_tol",
    "offline.iters": "offline_iters",
    "offline.lr": "offline_lr",
    "regret.stride": "eval_stride",
    "regret.static": "include_static",
    "sweep.n": "sweep_n",
    "sweep.beta": "sweep_beta",
    "sweep.lambda": "sweep_lam",
}

OUT_ENV_VAR = "MFONLINE_OUT"

# config keys that take only integers, and those that take any real number
# (sweep.*: each of their entries); onpgd.init_sd also takes "gibbs", and
# None, the form "gibbs" resolves to
INT_KEYS = ("trials", "seed", "threads", "data.n_steps", "onpgd.n", "is.n",
            "offline.iters", "regret.stride", "sweep.n")
FLOAT_KEYS = ("onpgd.lambda", "onpgd.beta", "onpgd.dt", "onpgd.init_sd", "is.root_tol",
              "offline.lr", "sweep.beta", "sweep.lambda")


@dataclass
class Settings:
    """Resolved run settings shared by all commands."""

    scenario: str = "nonlinear"
    trials: int = 30
    seed: int = 1
    out: str | None = None
    threads: int = 1
    experiment: str | None = None
    n_steps: int = 1000
    n_particles: int = 80
    lam: float = 0.1
    beta: float = 0.02
    dt: float = 0.02
    # learner particle init scale; the literal "gibbs" selects the
    # lambda-coupled N(0, beta/lambda) prior instead of a fixed scale
    init_sd: float | str | None = 1.0
    self_interaction: bool = True
    n_is: int = 20000
    root_tol: float = 1e-10
    offline_iters: int = 2000
    offline_lr: float = 0.05
    eval_stride: int = 100
    include_static: bool = False
    sweep_n: list = field(default_factory=list)
    sweep_beta: list = field(default_factory=list)
    sweep_lam: list = field(default_factory=list)

    def __post_init__(self):
        # a scalar sweep value, 0 included, is a one-value sweep
        for name in ("sweep_n", "sweep_beta", "sweep_lam"):
            v = getattr(self, name)
            if not isinstance(v, list):
                setattr(self, name, [v])
        # a float such as 8.5 or 6e2 is not a count, a string is not a
        # number, and a bool is neither
        for key in INT_KEYS + FLOAT_KEYS:
            name = KEY_MAP[key]
            value = getattr(self, name)
            label = name if key == name else f"{name} ({key})"
            kind, what = (int, "an integer") if key in INT_KEYS else ((int, float), "a number")
            for v in value if key.startswith("sweep.") else [value]:
                if key == "onpgd.init_sd" and v in ("gibbs", None):
                    continue
                if isinstance(v, bool) or not isinstance(v, kind):
                    raise ValueError(f"{label} must be {what}, got {v!r}")
        if self.scenario not in ("periodic", "nonlinear"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        # `not x >= 1` rather than `x < 1`, so that NaN fails too
        if not self.n_steps >= 1:
            raise ValueError("n_steps (data.n_steps) must be >= 1")
        if not self.n_particles >= 1:
            raise ValueError("n_particles (onpgd.n) must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt (onpgd.dt) must be positive")
        if not self.n_is >= 2:
            raise ValueError("n_is (is.n) must be >= 2")
        # a stride beyond n_steps is left to each trial to report
        if not self.eval_stride >= 1:
            raise ValueError("eval_stride (regret.stride) must be >= 1")
        if self.init_sd == "gibbs":
            self.init_sd = None
        if self.init_sd is not None and not self.init_sd > 0:
            raise ValueError("init_sd must be a positive number or 'gibbs'")
        if not self.root_tol > 0:
            raise ValueError("root_tol (is.root_tol) must be positive")

    def out_dir(self) -> str:
        return self.out or os.environ.get(OUT_ENV_VAR) or "out"


def build_settings(config_path=None, overrides=None) -> Settings:
    """Defaults <- config file <- explicit overrides (CLI flags)."""
    values = {}
    if config_path:
        raw = load_config(config_path)
        known = set(KEY_MAP)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, val in raw.items():
            values[KEY_MAP[key]] = val
    field_names = {f.name for f in fields(Settings)}
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        name = KEY_MAP.get(key, key)
        if name not in field_names:
            raise ValueError(f"unknown setting {key!r}")
        values[name] = val
    return Settings(**values)
