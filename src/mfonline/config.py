"""Flat key-value run configuration with dotted section names.

Config files look like:

    # nonlinear sweep
    scenario = nonlinear
    trials = 30
    seed = 7
    onpgd.n = 80
    onpgd.lambda = 0.1
    onpgd.beta = 0.005, 0.02, 0.05, 0.2

One ``key = value`` per line, each key once; '#' starts a comment.  Each
``Settings`` field declares its key, value kind and range once, and
``SCHEMA`` and ``GRID`` are read from those declarations.  A value is read
as its key's kind where the text is one (an integer, a number, a
true/false word), a comma makes a list, and any other text stays a
string, so ``experiment = 2024`` names a directory.  Each ``GRID`` key
takes one value or a list, whose entries span regret-sweep's learner
grid.  ``Settings`` rejects a value of another kind, a number that is not
finite, an empty list or an empty string, with a message naming the key.
Command-line flags override file values, which override the defaults.
"""

import math
from dataclasses import dataclass, field, fields

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


# value kinds: the Python types a value may have, and how an error names
# them; a bool is neither a count nor a number
INT = (int,), "an integer"
NUMBER = (int, float), "a number"
BOOL = (bool,), "true or false"
STRING = (str,), "a string"
TEXT = (str, type(None)), "a string"  # None: not set
SCALE = (int, float, type(None)), "a number or 'gibbs'"  # None: "gibbs" once resolved


def _at_least(low):
    # `not x >= low` rather than `x < low`, so that NaN fails too
    return (lambda v: v >= low), f">= {low}"


POSITIVE = (lambda v: v > 0), "positive"
NON_EMPTY = (lambda v: v != ""), "non-empty"


def _key(key, default, kind, check=None, grid=False):
    """A Settings field with its dotted config key, value kind and range
    check (or None); a grid key's kind and check apply to each entry of
    its list."""
    return field(default=default, metadata={"key": key, "kind": kind, "check": check,
                                            "grid": grid})


@dataclass
class Settings:
    """Resolved run settings shared by all commands, one field per config
    key; a learner, offline, stream or sample-count default is that of the
    object that uses it."""

    scenario: str = _key("scenario", "nonlinear", STRING,
                         ((lambda v: v in ("periodic", "nonlinear")), "'periodic' or 'nonlinear'"))
    trials: int = _key("trials", 30, INT, _at_least(1))
    seed: int = _key("seed", 1, INT,
                     ((lambda v: 0 <= v < 2**64), "in [0, 2**64) (unsigned 64-bit)"))
    out: str = _key("out", "out", STRING, NON_EMPTY)
    threads: int = _key("threads", 1, INT, _at_least(1))
    experiment: str | None = _key("experiment", None, TEXT, NON_EMPTY)
    n_steps: int = _key("data.n_steps", N_STEPS, INT, _at_least(1))
    # the GRID keys, the learner's N, lambda and beta: one value or a list
    # each, and regret-sweep runs every cell of their product
    n_particles: int | list = _key("onpgd.n", OnpgdConfig.n_particles, INT, _at_least(1),
                                   grid=True)
    lam: float | list = _key("onpgd.lambda", OnpgdConfig.lam, NUMBER, grid=True)
    beta: float | list = _key("onpgd.beta", OnpgdConfig.beta, NUMBER, grid=True)
    # learner particle init scale; the literal "gibbs" selects the
    # lambda-coupled N(0, beta/lambda) prior instead of a fixed scale
    init_sd: float | str | None = _key("onpgd.init_sd", OnpgdConfig.init_sd, SCALE, POSITIVE)
    n_is: int = _key("is.n", N_IS, INT, _at_least(2))
    offline_iters: int = _key("offline.iters", OfflineFitConfig.iters, INT, _at_least(1))
    # a stride beyond n_steps is left to each trial to report
    eval_stride: int = _key("regret.stride", 100, INT, _at_least(1))
    include_static: bool = _key("regret.static", False, BOOL)

    def __post_init__(self):
        if self.init_sd == "gibbs":
            self.init_sd = None
        for key, (name, (types, what), check) in SCHEMA.items():
            value = getattr(self, name)
            label = name if key == name else f"{name} ({key})"
            entries = value if key in GRID and isinstance(value, list) else [value]
            if not entries:
                raise ValueError(f"{label} must list at least one value, got []")
            for v in entries:
                if not isinstance(v, types) or isinstance(v, bool) != (bool in types):
                    raise ValueError(f"{label} must be {what}, got {v!r}")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{label} must be finite, got {v!r}")
                if check and v is not None and not check[0](v):
                    raise ValueError(f"{label} must be {check[1]}, got {v!r}")


# dotted config key -> (Settings field, value kind, range check or None),
# and the GRID keys, each in field order
SCHEMA = {f.metadata["key"]: (f.name, f.metadata["kind"], f.metadata["check"])
          for f in fields(Settings)}
GRID = tuple(f.metadata["key"] for f in fields(Settings) if f.metadata["grid"])


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
