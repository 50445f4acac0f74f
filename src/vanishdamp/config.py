"""Config parsing and object construction for scenario runs.

Configs are line-oriented text: ``[section]`` headers followed by
``key = value`` pairs, with ``#`` or ``;`` starting a comment.  The
parser records the line number of every assignment so any later
complaint about a value (wrong type, unknown kind, missing key) points
back at the exact line, which the stock ini module cannot do once
parsing has finished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .integrate import SystemSpec
from .potential import (
    DoubleWell,
    FlatBottom,
    Polynomial1D,
    Potential,
    PPower,
    Quadratic,
    SignedPower,
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
    "echo_to_text",
]

_SCHEDULE_KINDS = ("Constant", "PowerLaw", "SlowLog")
_POTENTIAL_KINDS = (
    "Quadratic",
    "PPower",
    "SignedPower",
    "DoubleWell",
    "FlatBottom",
    "Polynomial1D",
    "Zero",
)

# allowed keys per section; unknown keys are reported with their line
_KNOWN_KEYS = {
    "scenario": {"name", "outdir"},
    "schedule": {"kind", "level", "c", "gamma", "s0"},
    "potential": {"kind", "n", "p", "beta", "coeffs"},
    "run": {
        "x0",
        "v0",
        "t_end",
        "rel_tol",
        "abs_tol",
        "max_steps",
        "fixed_step",
        "sample_stride",
        "event_dir",
    },
    "sgd": {"rule", "eps0", "rho", "sigma", "seed", "N"},
    "sweep": {
        "mode",
        "runs",
        "seed",
        "x0_range",
        "v0_range",
        "vary",
        "values",
        "vary2",
        "values2",
        "write_series",
    },
}


@dataclass
class ParsedConfig:
    """Raw sections: ``values[section][key] = (text, line_number)``."""

    path: str
    values: Dict[str, Dict[str, Tuple[str, int]]] = field(default_factory=dict)
    section_lines: Dict[str, int] = field(default_factory=dict)

    def error(self, message: str, line: int = 0) -> ConfigError:
        return ConfigError(message, path=self.path, line=line)

    def has_section(self, section: str) -> bool:
        return section in self.values

    def raw(self, section: str, key: str) -> Optional[Tuple[str, int]]:
        return self.values.get(section, {}).get(key)

    def line_of(self, section: str, key: str) -> int:
        entry = self.raw(section, key)
        return entry[1] if entry else self.section_lines.get(section, 0)

    def _get(self, section: str, key: str, default, convert: Callable, expects: str):
        """The key's text converted, or ``default``; a missing key with no
        default and a text ``convert`` rejects are both ConfigErrors."""
        entry = self.raw(section, key)
        if entry is None:
            if default is None:
                raise self.error(
                    f"missing required key '{key}' in [{section}]",
                    self.section_lines.get(section, 0),
                )
            return default
        text, line = entry
        try:
            return convert(text)
        except ValueError:
            raise self.error(f"key '{key}' expects {expects}, got '{text}'", line) from None

    def get_str(self, section: str, key: str, default: Optional[str] = None) -> str:
        return self._get(section, key, default, str, "text")

    def get_float(self, section: str, key: str, default: Optional[float] = None) -> float:
        return self._get(section, key, default, float, "a number")

    def get_int(self, section: str, key: str, default: Optional[int] = None) -> int:
        return self._get(section, key, default, int, "an integer")

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        entry = self.raw(section, key)
        if entry is None:
            return default
        text, line = entry
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise self.error(f"key '{key}' expects a boolean, got '{text}'", line)

    def get_floats(self, section: str, key: str, default=None) -> Optional[np.ndarray]:
        entry = self.raw(section, key)
        if entry is None:
            return default
        text, line = entry
        try:
            return np.array([float(p) for p in text.split(",")])
        except ValueError:
            raise self.error(
                f"key '{key}' expects comma-separated numbers, got '{text}'", line
            ) from None

    def check_known_keys(self) -> None:
        for section, entries in self.values.items():
            allowed = _KNOWN_KEYS.get(section)
            if allowed is None:
                raise self.error(
                    f"unknown section [{section}]", self.section_lines.get(section, 0)
                )
            for key, (_, line) in entries.items():
                if key not in allowed:
                    raise self.error(f"unknown key '{key}' in [{section}]", line)


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


def build_schedule(cfg: ParsedConfig) -> DampingSchedule:
    kind = cfg.get_str("schedule", "kind", "PowerLaw")
    if kind == "Constant":
        return Constant(cfg.get_float("schedule", "level"))
    if kind == "PowerLaw":
        return PowerLaw(
            c=cfg.get_float("schedule", "c", 1.0),
            gamma=cfg.get_float("schedule", "gamma", 1.0),
            s0=cfg.get_float("schedule", "s0", 1.0),
        )
    if kind == "SlowLog":
        return slow_log_example()
    raise cfg.error(
        f"unknown schedule kind '{kind}'; expected one of {_SCHEDULE_KINDS}",
        cfg.line_of("schedule", "kind"),
    )


def build_potential(cfg: ParsedConfig) -> Potential:
    kind = cfg.get_str("potential", "kind", "Quadratic")
    n = cfg.get_int("potential", "n", 1)
    if kind == "Quadratic":
        return Quadratic(n)
    if kind == "PPower":
        return PPower(cfg.get_float("potential", "p"), n)
    if kind == "SignedPower":
        return SignedPower(cfg.get_float("potential", "beta"))
    if kind == "DoubleWell":
        return DoubleWell()
    if kind == "FlatBottom":
        return FlatBottom(n)
    if kind == "Polynomial1D":
        coeffs = cfg.get_floats("potential", "coeffs")
        if coeffs is None:
            raise cfg.error(
                "Polynomial1D needs 'coeffs'", cfg.line_of("potential", "kind")
            )
        return Polynomial1D(tuple(float(c) for c in coeffs))
    if kind == "Zero":
        return Zero(n)
    raise cfg.error(
        f"unknown potential kind '{kind}'; expected one of {_POTENTIAL_KINDS}",
        cfg.line_of("potential", "kind"),
    )


def _point(cfg: ParsedConfig, key: str, n: int, default: float) -> np.ndarray:
    arr = cfg.get_floats("run", key)
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
    t_end = cfg.get_float("run", "t_end")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise cfg.error(
            f"t_end must be positive and finite, got {t_end}", cfg.line_of("run", "t_end")
        )
    max_steps = cfg.get_int("run", "max_steps", 10_000_000)
    stride = cfg.get_int("run", "sample_stride", 0)
    fixed = cfg.get_float("run", "fixed_step", 0.0)
    event_dir = cfg.get_floats("run", "event_dir")
    return SystemSpec(
        schedule=schedule,
        potential=potential,
        x0=_point(cfg, "x0", n, 1.0),
        v0=_point(cfg, "v0", n, 0.0),
        t_end=t_end,
        rel_tol=cfg.get_float("run", "rel_tol", 1e-9),
        abs_tol=cfg.get_float("run", "abs_tol", 1e-12),
        max_steps=max_steps,
        sample_stride=stride if stride > 0 else None,
        event_dir=event_dir,
        fixed_step=fixed if fixed > 0.0 else None,
    )


def build_sgd(cfg: ParsedConfig) -> Optional[Tuple[StepSchedule, NoiseModel, int]]:
    if not cfg.has_section("sgd"):
        return None
    rule = cfg.get_str("sgd", "rule", "Constant")
    eps0 = cfg.get_float("sgd", "eps0")
    if rule == "PowerDecay":
        steps = StepSchedule.power_decay(eps0, cfg.get_float("sgd", "rho"))
    elif rule == "Constant":
        steps = StepSchedule.constant(eps0)
    else:
        raise cfg.error(
            f"unknown sgd rule '{rule}'; expected Constant or PowerDecay",
            cfg.line_of("sgd", "rule"),
        )
    sigma = cfg.get_float("sgd", "sigma", 0.0)
    seed = cfg.get_int("sgd", "seed", 0)
    noise = NoiseModel.gaussian(sigma, seed) if sigma > 0.0 else NoiseModel.none()
    n_steps = cfg.get_int("sgd", "N")
    if n_steps < 1:
        raise cfg.error(f"N must be >= 1, got {n_steps}", cfg.line_of("sgd", "N"))
    return steps, noise, n_steps


@dataclass
class SweepPlan:
    """Row generator for a sweep: either random starts or a value grid."""

    mode: str
    rows: list  # list of override dicts {(section, key): value string}
    labels: list  # short human label per row
    write_series: bool

    def __len__(self) -> int:
        return len(self.rows)


def build_sweep_plan(cfg: ParsedConfig, potential: Potential) -> SweepPlan:
    if not cfg.has_section("sweep"):
        raise cfg.error("sweep requires a [sweep] section")
    mode = cfg.get_str("sweep", "mode", "random")
    write_series = cfg.get_bool("sweep", "write_series", False)
    rows: list = []
    labels: list = []

    if mode == "random":
        runs = cfg.get_int("sweep", "runs")
        if runs < 1:
            raise cfg.error(
                f"runs must be >= 1, got {runs}", cfg.line_of("sweep", "runs")
            )
        x0r = cfg.get_floats("sweep", "x0_range", np.array([-2.0, 2.0]))
        v0r = cfg.get_floats("sweep", "v0_range", np.array([-2.0, 2.0]))
        for name, rng in (("x0_range", x0r), ("v0_range", v0r)):
            if rng.size != 2 or not rng[0] < rng[1]:
                raise cfg.error(
                    f"{name} expects 'low, high' with low < high",
                    cfg.line_of("sweep", name),
                )
        seed = cfg.get_int("sweep", "seed", 0)
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
        return SweepPlan(mode, rows, labels, write_series)

    if mode == "grid":
        axes = []
        for suffix in ("", "2"):
            target = cfg.raw("sweep", "vary" + suffix)
            if target is None:
                continue
            key_text, line = target
            if "." not in key_text:
                raise cfg.error(
                    f"vary{suffix} expects 'section.key', got '{key_text}'", line
                )
            section, _, key = key_text.partition(".")
            if section not in _KNOWN_KEYS or key not in _KNOWN_KEYS[section]:
                raise cfg.error(f"vary{suffix} names unknown key '{key_text}'", line)
            values_text = cfg.get_str("sweep", "values" + suffix)
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
        return SweepPlan(mode, rows, labels, write_series)

    raise cfg.error(
        f"unknown sweep mode '{mode}'; expected random or grid",
        cfg.line_of("sweep", "mode"),
    )


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
    cfg = parse_config(path)
    if overrides:
        apply_overrides(cfg, overrides)
    cfg.check_known_keys()
    spec = build_system_spec(cfg, build_schedule(cfg), build_potential(cfg))
    name = cfg.get_str("scenario", "name", Path(path).stem)
    out = Path(outdir if outdir is not None else cfg.get_str("scenario", "outdir", "."))
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


def echo_to_text(echo: Dict[str, Dict[str, str]]) -> str:
    """Render an echo dict back to config text; reparsing it reproduces
    the same effective configuration."""
    lines = []
    for section, entries in echo.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
