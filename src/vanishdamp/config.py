"""Config parsing and object construction for scenario runs.

Configs are line-oriented text: ``[section]`` headers followed by
``key = value`` pairs, with ``#`` or ``;`` starting a comment.  The
parser records the line number of every assignment so any later
complaint about a value (wrong type, out of bounds, unknown kind, a key
that kind does not read, missing key) points back at the exact line,
which the stock ini module cannot do once parsing has finished.  A value
that the schedule, potential, run spec or recursion objects refuse is
reported at the header of its section.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError
from .integrate import SystemSpec, _normalize_spec
from .potential import (
    DoubleWell,
    FlatBottom,
    Polynomial1D,
    Potential,
    PPower,
    Quadratic,
    Zero,
)
from .schedule import Constant, DampingSchedule, PowerLaw, slow_log_example
from .sgd import NoiseModel, StepSchedule

__all__ = [
    "ParsedConfig",
    "RunConfig",
    "SweepPlan",
    "parse_config",
    "parse_config_text",
    "load_run_config",
    "config_echo",
]


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _numbers(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")])


# a key's conversion, what its type error says it expects, and where a
# value must lie for the consumer to accept it: (bound text, test)
_TEXT = (str, "text")
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
_NUMBERS = (_numbers, "comma-separated numbers")
_FINITE = (*_NUMBERS, "finite", lambda v: np.isfinite(v).all())
_POSITIVE = (*_NUMBER, "positive and finite", lambda v: 0.0 < v < math.inf)
_COUNT = (*_INTEGER, ">= 1", lambda v: v >= 1)

# every key of every section; unknown keys are reported with their line
_KEYS = {
    "scenario": {"name": _TEXT, "outdir": _TEXT},
    "schedule": {"kind": _TEXT, "level": _NUMBER, "c": _NUMBER, "gamma": _NUMBER, "s0": _NUMBER},
    "potential": {"kind": _TEXT, "n": _COUNT, "p": _NUMBER, "coeffs": _NUMBERS},
    "run": {
        "x0": _FINITE,
        "v0": _FINITE,
        "t_end": _POSITIVE,
        "rel_tol": _POSITIVE,
        "abs_tol": _POSITIVE,
        "max_steps": _COUNT,
    },
    "sgd": {
        "rule": _TEXT,
        "eps0": _NUMBER,
        "rho": _NUMBER,
        "sigma": (*_NUMBER, ">= 0 and finite", lambda v: 0.0 <= v < math.inf),
        "seed": (*_INTEGER, "in [0, 2**64)", lambda v: 0 <= v < 2**64),
        "N": _COUNT,
    },
    "sweep": {
        "mode": _TEXT,
        "runs": _COUNT,
        # the range of a Philox key
        "seed": (*_INTEGER, "in [0, 2**128)", lambda v: 0 <= v < 2**128),
        "x0_range": _NUMBERS,
        "v0_range": _NUMBERS,
        "vary": _TEXT,
        "values": _TEXT,
        "vary2": _TEXT,
        "values2": _TEXT,
        "write_series": (_boolean, "a boolean"),
    },
}

# ``get``'s default for a key that must be present
_REQUIRED = object()


@dataclass
class ParsedConfig:
    """Raw sections: ``values[section][key] = (text, line_number)``, the
    line None for a value that an override put in a section the file
    leaves out."""

    path: str
    values: Dict[str, Dict[str, Tuple[str, Optional[int]]]] = field(default_factory=dict)
    section_lines: Dict[str, int] = field(default_factory=dict)

    def error(self, message: str, line: Optional[int] = None) -> ConfigError:
        return ConfigError(message, path=self.path, line=line)

    def has_section(self, section: str) -> bool:
        return section in self.values

    def raw(self, section: str, key: str) -> Optional[Tuple[str, Optional[int]]]:
        return self.values.get(section, {}).get(key)

    def line_of(self, section: str, key: str) -> Optional[int]:
        """The key's line, else its section's header, else None: the file
        has neither."""
        entry = self.raw(section, key)
        return entry[1] if entry else self.section_lines.get(section)

    def get(self, section: str, key: str, default=_REQUIRED):
        """The key's text converted and checked as ``_KEYS`` says, or
        ``default`` when the key is absent; a missing required key, a
        text the conversion rejects and a value out of bounds are each a
        ConfigError at their line."""
        entry = self.raw(section, key)
        if entry is None:
            if default is _REQUIRED:
                raise self.error(
                    f"missing required key '{key}' in [{section}]",
                    self.section_lines.get(section),
                )
            return default
        text, line = entry
        convert, expects, *bound = _KEYS[section][key]
        try:
            value = convert(text)
        except ValueError:
            raise self.error(f"key '{key}' expects {expects}, got '{text}'", line) from None
        if bound and not bound[1](value):
            raise self.error(f"{key} must be {bound[0]}, got {value}", line)
        return value

    def check_known_keys(self) -> None:
        for section, entries in self.values.items():
            allowed = _KEYS.get(section)
            if allowed is None:
                raise self.error(
                    f"unknown section [{section}]", self.section_lines.get(section)
                )
            for key, (_, line) in entries.items():
                if key not in allowed:
                    raise self.error(f"unknown key '{key}' in [{section}]", line)

    def check_read_keys(self, section: str, name: str, reads: Tuple[str, ...]) -> None:
        """A key of the section that ``name`` does not read is a ConfigError at its line."""
        for key, (_, line) in self.values.get(section, {}).items():
            if key not in reads:
                raise self.error(f"{name} does not read '{key}' in [{section}]", line)


def parse_config_text(text: str, path: str = "<string>") -> ParsedConfig:
    cfg = ParsedConfig(path=path)
    section: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise cfg.error(f"malformed section header '{line}'", lineno)
            section = line[1:-1].strip()
            cfg.values.setdefault(section, {})
            cfg.section_lines.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise cfg.error(f"expected 'key = value', got '{line}'", lineno)
        if section is None:
            raise cfg.error("assignment before any [section] header", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#")[0].split(";")[0].strip()
        if not key:
            raise cfg.error("empty key", lineno)
        if key in cfg.values[section]:
            raise cfg.error(f"duplicate key '{key}' in [{section}]", lineno)
        cfg.values[section][key] = (value, lineno)
    return cfg


def parse_config(path) -> ParsedConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(p)) from exc
    return parse_config_text(text, str(p))


def apply_overrides(cfg: ParsedConfig, overrides: Dict[Tuple[str, str], str]) -> None:
    """Replace values in place; used by sweeps to vary one row at a time."""
    for (section, key), value in overrides.items():
        line = cfg.line_of(section, key)
        cfg.values.setdefault(section, {})[key] = (value, line)


def _given(cfg: ParsedConfig, section: str, *keys: str) -> dict:
    """The values of those ``keys`` that the section sets: a key the file
    leaves out takes the constructor's own default."""
    return {key: cfg.get(section, key) for key in keys if cfg.raw(section, key) is not None}


# for each section built from a kind: the key that names the kind, its
# default, and per kind (constructor, required keys, optional keys)
_KINDS = {
    "schedule": ("kind", "PowerLaw", {
        "Constant": (Constant, ("level",), ()),
        "PowerLaw": (PowerLaw, (), ("c", "gamma", "s0")),
        "SlowLog": (slow_log_example, (), ()),
    }),
    "potential": ("kind", "Quadratic", {
        "Quadratic": (Quadratic, (), ("n",)),
        "PPower": (PPower, ("p",), ("n",)),
        "DoubleWell": (DoubleWell, (), ()),
        "FlatBottom": (FlatBottom, (), ("n",)),
        "Polynomial1D": (Polynomial1D, ("coeffs",), ()),
        "Zero": (Zero, (), ("n",)),
    }),
    "sgd": ("rule", "Constant", {
        "Constant": (StepSchedule, ("eps0",), ()),
        "PowerDecay": (StepSchedule, ("eps0", "rho"), ()),
    }),
}

# the keys each sweep mode reads besides ``mode`` and ``write_series``
_SWEEP_MODES = {
    "random": ("runs", "seed", "x0_range", "v0_range"),
    "grid": ("vary", "values", "vary2", "values2"),
}


def _build(cfg: ParsedConfig, section: str, shared: Tuple[str, ...] = ()):
    """The object of the kind the section names, built from the keys that
    kind reads (``shared``: the keys the caller reads for every kind); a
    constructor's complaint names no key, so it points at the header."""
    selector, default, kinds = _KINDS[section]
    name = cfg.get(section, selector, default)
    if name not in kinds:
        raise cfg.error(
            f"unknown {section} {selector} '{name}'; expected one of {tuple(kinds)}",
            cfg.line_of(section, selector),
        )
    make, required, optional = kinds[name]
    cfg.check_read_keys(section, name, (selector, *required, *optional, *shared))
    args = {key: cfg.get(section, key) for key in required}
    try:
        return make(**args, **_given(cfg, section, *optional))
    except DomainError as exc:
        raise cfg.error(str(exc), cfg.section_lines.get(section)) from exc


def build_schedule(cfg: ParsedConfig) -> DampingSchedule:
    return _build(cfg, "schedule")


def build_potential(cfg: ParsedConfig) -> Potential:
    return _build(cfg, "potential")


def _point(cfg: ParsedConfig, key: str, n: int, default: float) -> np.ndarray:
    arr = cfg.get("run", key, None)
    if arr is None:
        return np.full(n, default)
    if arr.size == 1 and n > 1:
        return np.full(n, float(arr[0]))
    if arr.size != n:
        raise cfg.error(
            f"key '{key}' has {arr.size} components but the potential is {n}-dimensional",
            cfg.line_of("run", key),
        )
    return arr


def build_system_spec(
    cfg: ParsedConfig, schedule: DampingSchedule, potential: Potential
) -> SystemSpec:
    n = potential.n
    spec = SystemSpec(
        schedule=schedule,
        potential=potential,
        x0=_point(cfg, "x0", n, 1.0),
        v0=_point(cfg, "v0", n, 0.0),
        t_end=cfg.get("run", "t_end"),
        **_given(cfg, "run", "rel_tol", "abs_tol", "max_steps"),
    )
    # the integrator's own checks, so that a start it refuses (v0 != 0
    # under a singular schedule) fails here and not once the run starts
    try:
        _normalize_spec(spec)
    except DomainError as exc:
        raise cfg.error(str(exc), cfg.section_lines.get("run")) from exc
    return spec


def build_sgd(cfg: ParsedConfig) -> Optional[Tuple[StepSchedule, NoiseModel, int]]:
    if not cfg.has_section("sgd"):
        return None
    steps = _build(cfg, "sgd", shared=("sigma", "seed", "N"))
    sigma = cfg.get("sgd", "sigma", 0.0)
    seed = _given(cfg, "sgd", "seed")
    if seed and sigma == 0.0:
        raise cfg.error("seed needs a positive sigma in [sgd]", cfg.line_of("sgd", "seed"))
    return steps, NoiseModel(sigma, **seed), cfg.get("sgd", "N")


@dataclass
class SweepPlan:
    """Row generator for a sweep: either random starts or a value grid."""

    rows: list  # list of override dicts {(section, key): value string}
    labels: list  # short human label per row
    write_series: bool


def build_sweep_plan(cfg: ParsedConfig, potential: Potential) -> SweepPlan:
    if not cfg.has_section("sweep"):
        raise cfg.error("sweep requires a [sweep] section")
    mode = cfg.get("sweep", "mode", "random")
    if mode not in _SWEEP_MODES:
        line = cfg.line_of("sweep", "mode")
        raise cfg.error(f"unknown sweep mode '{mode}'; expected random or grid", line)
    cfg.check_read_keys("sweep", mode, ("mode", "write_series", *_SWEEP_MODES[mode]))
    write_series = cfg.get("sweep", "write_series", False)
    rows: list = []
    labels: list = []

    if mode == "random":
        runs = cfg.get("sweep", "runs")
        x0r = cfg.get("sweep", "x0_range", np.array([-2.0, 2.0]))
        v0r = cfg.get("sweep", "v0_range", np.array([-2.0, 2.0]))
        for name, rng in (("x0_range", x0r), ("v0_range", v0r)):
            # a finite width also keeps both bounds finite
            if rng.size != 2 or not (rng[0] < rng[1] and float(rng[1]) - float(rng[0]) < math.inf):
                raise cfg.error(
                    f"{name} expects 'low, high' with low < high and a finite width",
                    cfg.line_of("sweep", name),
                )
        seed = cfg.get("sweep", "seed", 0)
        n = potential.n
        gen = np.random.Generator(np.random.Philox(key=seed))
        draws = gen.uniform(size=(runs, 2 * n))
        for i in range(runs):
            x0 = x0r[0] + (x0r[1] - x0r[0]) * draws[i, :n]
            v0 = v0r[0] + (v0r[1] - v0r[0]) * draws[i, n:]
            rows.append(
                {
                    ("run", "x0"): ",".join(repr(float(v)) for v in x0),
                    ("run", "v0"): ",".join(repr(float(v)) for v in v0),
                }
            )
            labels.append(f"start{i}")
        return SweepPlan(rows, labels, write_series)

    axes = []
    for suffix in ("", "2"):
        target = cfg.raw("sweep", "vary" + suffix)
        if target is None:
            if cfg.raw("sweep", "values" + suffix) is not None:
                raise cfg.error(f"grid does not read 'values{suffix}' without 'vary{suffix}'",
                                cfg.line_of("sweep", "values" + suffix))
            continue
        key_text, line = target
        if "." not in key_text:
            raise cfg.error(
                f"vary{suffix} expects 'section.key', got '{key_text}'", line
            )
        section, _, key = key_text.partition(".")
        if key not in _KEYS.get(section, ()):
            raise cfg.error(f"vary{suffix} names unknown key '{key_text}'", line)
        # rows read no [sweep], and each row's name is its own
        if section == "sweep" or key_text == "scenario.name":
            raise cfg.error(f"vary{suffix} names '{key_text}', which no row reads", line)
        values_text = cfg.get("sweep", "values" + suffix)
        values = [v.strip() for v in values_text.split(",") if v.strip()]
        if not values:
            raise cfg.error(
                f"values{suffix} is empty", cfg.line_of("sweep", "values" + suffix)
            )
        axes.append(((section, key), values))
    if not axes:
        raise cfg.error("grid sweep needs 'vary' and 'values'")
    total = 1
    for _, values in axes:
        total *= len(values)
    if total > 10_000:
        raise cfg.error(f"grid has {total} points; the limit is 10000")
    # row-major order over the axes, first axis slowest
    keys = [sec_key for sec_key, _ in axes]
    for combo in product(*(values for _, values in axes)):
        rows.append(dict(zip(keys, combo)))
        labels.append(" ".join(f"{sec}.{key}={v}" for (sec, key), v in zip(keys, combo)))
    return SweepPlan(rows, labels, write_series)


@dataclass
class RunConfig:
    """Everything needed to execute one scenario."""

    name: str
    outdir: Path
    parsed: ParsedConfig
    spec: SystemSpec
    sgd: Optional[Tuple[StepSchedule, NoiseModel, int]]


def load_run_config(
    path,
    overrides: Optional[Dict[Tuple[str, str], str]] = None,
    outdir: Optional[str] = None,
) -> RunConfig:
    """The scenario of a config file, or of a ``ParsedConfig`` that a
    sweep parsed once; overrides go to a copy, never to the caller's."""
    cfg = deepcopy(path) if isinstance(path, ParsedConfig) else parse_config(path)
    if overrides:
        apply_overrides(cfg, overrides)
    cfg.check_known_keys()
    schedule = build_schedule(cfg)
    potential = build_potential(cfg)
    spec = build_system_spec(cfg, schedule, potential)
    name = cfg.get("scenario", "name", Path(cfg.path).stem)
    out = Path(outdir if outdir is not None else cfg.get("scenario", "outdir", "."))
    return RunConfig(
        name=name,
        outdir=out,
        parsed=cfg,
        spec=spec,
        sgd=build_sgd(cfg),
    )


def config_echo(cfg: ParsedConfig) -> Dict[str, Dict[str, str]]:
    """The effective config as plain nested dicts, override-adjusted."""
    return {
        section: {key: value for key, (value, _) in entries.items()}
        for section, entries in sorted(cfg.values.items())
    }
