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

One ``key = value`` per line, each key once; '#' starts a comment.  ``SCHEMA``
declares each key's ``Settings`` field, value kind and range once.  A
value is read as its key's kind where the text is one (an integer, a
number, a true/false word), a comma makes a list, and any other text
stays a string, so ``experiment = 2024`` names a directory.  ``Settings``
rejects a value of another kind, a number that is not finite, or an empty
sweep list, with a message naming the key.
Command-line flags override file values, which override the defaults.
"""

import math
import os
from dataclasses import dataclass

from .datastream import N_STEPS
from .offline import OfflineFitConfig
from .onpgd import OnpgdConfig
from .regret import N_IS


def _coerce(text: str, types):
    text = text.strip()
    if "," in text:
        return [_coerce(part, types) for part in text.split(",") if part.strip()]
    low = text.lower()
    if bool in types and low in ("true", "yes", "on", "false", "no", "off"):
        return low in ("true", "yes", "on")
    for cast in (int, float):
        if cast in types:
            try:
                return cast(text)
            except ValueError:
                pass
    return text


def parse_value(key: str, text: str):
    """Config text as a value of ``key``'s kind where it reads as one; an
    unknown key's value stays text."""
    return _coerce(text, SCHEMA[key][1][0] if key in SCHEMA else ())


def parse_config(text: str) -> dict:
    """Parse config text, each key set once, into a flat {key: value} dict."""
    out = {}
    seen = {}
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
        if key in seen:
            raise ValueError(f"config line {lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = parse_value(key, value)
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())


OUT_ENV_VAR = "MFONLINE_OUT"

# value kinds: the Python types a value may have, and how an error names
# them; a bool is neither a count nor a number
INT = (int,), "an integer"
NUMBER = (int, float), "a number"
BOOL = (bool,), "true or false"
STRING = (str,), "a string"
TEXT = (str, type(None)), "a string"  # None: not set


def _at_least(low):
    # `not x >= low` rather than `x < low`, so that NaN fails too
    return (lambda v: v >= low), f">= {low}"


POSITIVE = (lambda v: v > 0), "positive"

# dotted config key -> (Settings field, value kind, range check or None);
# a sweep.* kind and check apply to each entry of the list
SCHEMA = {
    "scenario": ("scenario", STRING,
                 ((lambda v: v in ("periodic", "nonlinear")), "'periodic' or 'nonlinear'")),
    "trials": ("trials", INT, _at_least(1)),
    "seed": ("seed", INT, ((lambda v: 0 <= v < 2**64), "in [0, 2**64) (unsigned 64-bit)")),
    "out": ("out", TEXT, None),
    "threads": ("threads", INT, _at_least(1)),
    "experiment": ("experiment", TEXT, None),
    "data.n_steps": ("n_steps", INT, _at_least(1)),
    "onpgd.n": ("n_particles", INT, _at_least(1)),
    "onpgd.lambda": ("lam", NUMBER, None),
    "onpgd.beta": ("beta", NUMBER, None),
    # "gibbs" (None once resolved) selects the lambda-coupled prior
    "onpgd.init_sd": ("init_sd", ((int, float, type(None)), "a number or 'gibbs'"), POSITIVE),
    "is.n": ("n_is", INT, _at_least(2)),
    "offline.iters": ("offline_iters", INT, _at_least(1)),
    # a stride beyond n_steps is left to each trial to report
    "regret.stride": ("eval_stride", INT, _at_least(1)),
    "regret.static": ("include_static", BOOL, None),
    "sweep.n": ("sweep_n", INT, _at_least(1)),
    "sweep.beta": ("sweep_beta", NUMBER, POSITIVE),
    "sweep.lambda": ("sweep_lam", NUMBER, POSITIVE),
}


@dataclass
class Settings:
    """Resolved run settings shared by all commands; a learner, offline,
    stream or sample-count default is that of the object that uses it."""

    scenario: str = "nonlinear"
    trials: int = 30
    seed: int = 1
    out: str | None = None
    threads: int = 1
    experiment: str | None = None
    n_steps: int = N_STEPS
    n_particles: int = OnpgdConfig.n_particles
    lam: float = OnpgdConfig.lam
    beta: float = OnpgdConfig.beta
    # learner particle init scale; the literal "gibbs" selects the
    # lambda-coupled N(0, beta/lambda) prior instead of a fixed scale
    init_sd: float | str | None = OnpgdConfig.init_sd
    n_is: int = N_IS
    offline_iters: int = OfflineFitConfig.iters
    eval_stride: int = 100
    include_static: bool = False
    # None: not swept, the cell takes n_particles, beta or lam
    sweep_n: list | None = None
    sweep_beta: list | None = None
    sweep_lam: list | None = None

    def __post_init__(self):
        if self.init_sd == "gibbs":
            self.init_sd = None
        for key, (name, (types, what), check) in SCHEMA.items():
            value = getattr(self, name)
            label = name if key == name else f"{name} ({key})"
            entries = [value]
            if key.startswith("sweep."):
                if value is None:
                    continue
                # a scalar sweep value, 0 included, is a one-value sweep
                entries = value if isinstance(value, list) else [value]
                if not entries:
                    raise ValueError(f"{label} must list at least one value, got []")
                setattr(self, name, entries)
            for v in entries:
                if not isinstance(v, types) or isinstance(v, bool) != (bool in types):
                    raise ValueError(f"{label} must be {what}, got {v!r}")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{label} must be finite, got {v!r}")
                if check and v is not None and not check[0](v):
                    raise ValueError(f"{label} must be {check[1]}, got {v!r}")

    def out_dir(self) -> str:
        return self.out or os.environ.get(OUT_ENV_VAR) or "out"


def build_settings(config_path=None, overrides=None) -> Settings:
    """Defaults <- config file <- explicit overrides (CLI flags), by dotted key."""
    values = load_config(config_path) if config_path else {}
    unknown = sorted(set(values) - set(SCHEMA))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, val in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValueError(f"unknown setting {key!r}")
        # None means "flag not given" and leaves the file's value
        if val is not None:
            values[key] = val
    return Settings(**{SCHEMA[key][0]: val for key, val in values.items()})
