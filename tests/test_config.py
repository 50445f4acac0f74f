"""Config parsing and object construction.

Line-oriented parsing with line-numbered errors, typed getters, builder
validation for every section, override plumbing, sweep-plan generation,
and the echo round-trip.
"""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from vanishdamp import (
    ConfigError,
    Constant,
    NoiseModel,
    PowerLaw,
    Quadratic,
    StepSchedule,
    SystemSpec,
)
from vanishdamp.config import (
    _KEYS,
    _KINDS,
    apply_overrides,
    build_potential,
    build_schedule,
    build_sgd,
    build_sweep_plan,
    build_system_spec,
    config_echo,
    echo_to_text,
    load_run_config,
    parse_config,
    parse_config_text,
)

GOOD = """\
# top comment
[scenario]
name = demo
outdir = out

[schedule]
kind = PowerLaw
c = 2.0       # inline comment
gamma = 1.0
s0 = 1.0

[potential]
kind = Quadratic
n = 1

[run]
x0 = 0.5
v0 = -1.0
t_end = 50.0
"""


def _parse(text, path="demo.cfg"):
    return parse_config_text(text, path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_records_values_and_lines():
    cfg = _parse(GOOD)
    assert cfg.raw("schedule", "c") == ("2.0", 8)
    assert cfg.raw("run", "x0") == ("0.5", 17)
    assert cfg.section_lines["schedule"] == 6
    assert cfg.get("scenario", "name") == "demo"
    assert cfg.get("schedule", "gamma") == 1.0
    cfg.check_known_keys()  # everything above is legal


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("[schedule\nkind = PowerLaw\n", 1, "malformed section header"),
        ("[schedule]\nkind PowerLaw\n", 2, "expected 'key = value'"),
        ("kind = PowerLaw\n", 1, "assignment before any [section]"),
        ("[schedule]\n= PowerLaw\n", 2, "empty key"),
        ("[schedule]\nkind = A\n\nkind = B\n", 4, "duplicate key 'kind'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ConfigError) as err:
        _parse(text, "bad.cfg")
    assert f"bad.cfg:{line}: " in str(err.value)
    assert fragment in str(err.value)


def test_unknown_section_and_key_are_located():
    with pytest.raises(ConfigError) as err:
        _parse("[turbo]\nboost = 9\n").check_known_keys()
    assert "demo.cfg:1: unknown section [turbo]" in str(err.value)

    with pytest.raises(ConfigError) as err:
        _parse("[schedule]\nkind = PowerLaw\nwarp = 9\n").check_known_keys()
    assert "demo.cfg:3: unknown key 'warp'" in str(err.value)


def test_typed_getters():
    cfg = _parse(
        "[run]\nt_end = oops\nmax_steps = 1.5\nx0 = 1, a\n"
        "[sweep]\nwrite_series = maybe\nmode = grid\n"
    )
    with pytest.raises(ConfigError, match="demo.cfg:2.*expects a number"):
        cfg.get("run", "t_end")
    with pytest.raises(ConfigError, match="demo.cfg:3.*expects an integer"):
        cfg.get("run", "max_steps")
    with pytest.raises(ConfigError, match="demo.cfg:4.*comma-separated"):
        cfg.get("run", "x0")
    with pytest.raises(ConfigError, match="demo.cfg:6.*expects a boolean"):
        cfg.get("sweep", "write_series")
    with pytest.raises(ConfigError, match="missing required key 'rel_tol'"):
        cfg.get("run", "rel_tol")
    assert cfg.get("run", "rel_tol", 1e-9) == 1e-9
    assert cfg.get("run", "fixed_step", None) is None
    assert cfg.get("sweep", "mode") == "grid"


def test_boolean_spellings():
    for text, expected in [("true", True), ("Yes", True), ("ON", True), ("1", True),
                           ("false", False), ("No", False), ("off", False), ("0", False)]:
        cfg = _parse(f"[sweep]\nwrite_series = {text}\n")
        assert cfg.get("sweep", "write_series") is expected, text


@pytest.mark.parametrize(
    "section, key, text, message",
    [
        ("run", "t_end", "inf", "t_end must be positive and finite, got inf"),
        ("run", "rel_tol", "0", "rel_tol must be positive and finite, got 0.0"),
        ("run", "abs_tol", "nan", "abs_tol must be positive and finite, got nan"),
        ("run", "fixed_step", "-0.1", "fixed_step must be positive and finite, got -0.1"),
        ("run", "max_steps", "0", "max_steps must be >= 1, got 0"),
        ("run", "sample_stride", "0", "sample_stride must be >= 1, got 0"),
        ("potential", "n", "-2", "n must be >= 1, got -2"),
        ("sgd", "N", "0", "N must be >= 1, got 0"),
        ("sgd", "sigma", "inf", "sigma must be >= 0 and finite, got inf"),
        ("sgd", "seed", "18446744073709551616", "seed must be in [0, 2**64), got 18446744073709551616"),
        ("sweep", "runs", "0", "runs must be >= 1, got 0"),
        ("sweep", "seed", "-1", "seed must be in [0, 2**128), got -1"),
    ],
)
def test_bounds_are_located(section, key, text, message):
    cfg = _parse(f"# bounds\n[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError) as err:
        cfg.get(section, key)
    assert str(err.value) == f"demo.cfg:3: {message}"


def test_bounds_admit_their_edges():
    cfg = _parse(
        "[sgd]\nsigma = 0\nseed = 18446744073709551615\n"
        "[sweep]\nseed = 340282366920938463463374607431768211455\n"
    )
    assert cfg.get("sgd", "sigma") == 0.0
    assert cfg.get("sgd", "seed") == 2**64 - 1
    assert cfg.get("sweep", "seed") == 2**128 - 1


def test_docs_list_exactly_the_keys_of_each_section():
    # each `## [section]` table of the reference names that section's keys
    # in _KEYS, once each; the `vary2`, `values2` row names two
    documented, required, required_for = {}, {}, {}
    section = None
    for line in (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text().splitlines():
        if line.startswith("## "):
            found = re.fullmatch(r"## \[(\w+)\]", line)
            section = found.group(1) if found else None
            if section:
                documented[section] = []
        elif section and line.startswith("| `"):
            keys, default = line.split("|")[1:3]
            keys = re.findall(r"`(\w+)`", keys)
            documented[section] += keys
            if default.strip() == "required":
                required.setdefault(section, set()).update(keys)
            for kind in re.findall(r"required for `(\w+)`", default):
                required_for.setdefault((section, kind), set()).update(keys)
    assert {s: sorted(keys) for s, keys in documented.items()} == \
        {s: sorted(keys) for s, keys in _KEYS.items()}
    # a key that every kind of a section requires reads "required", one
    # that only some kinds require reads "required for `Kind`"
    for section, (_, _, kinds) in _KINDS.items():
        every = set.intersection(*(set(keys) for _, keys, _ in kinds.values()))
        assert every <= required.get(section, set()), section
        for kind, (_, keys, _) in kinds.items():
            assert required_for.pop((section, kind), set()) == set(keys) - every, (section, kind)
    assert required_for == {}


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# builders


def test_build_schedule_kinds():
    assert isinstance(build_schedule(_parse("[schedule]\nkind = Constant\nlevel = 2.0\n")), Constant)
    pl = build_schedule(_parse("[schedule]\nkind = PowerLaw\nc = 3.0\n"))
    assert (pl.c, pl.gamma, pl.s0) == (3.0, 1.0, 1.0)
    slow = build_schedule(_parse("[schedule]\nkind = SlowLog\n"))
    assert slow.a_values([0.0])[0] == pytest.approx(1.0 / math.log(math.log(3.0)), rel=1e-12)
    with pytest.raises(ConfigError, match="demo.cfg:2: unknown schedule kind 'Fancy'"):
        build_schedule(_parse("[schedule]\nkind = Fancy\n"))


def test_build_potential_kinds():
    assert isinstance(build_potential(_parse("[potential]\nkind = Quadratic\nn = 2\n")), Quadratic)
    poly = build_potential(_parse("[potential]\nkind = Polynomial1D\ncoeffs = 0.25, 0, -0.5, 0, 0.25\n"))
    assert poly.energy(np.array([1.0])) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ConfigError, match=r"demo.cfg:1: missing required key 'coeffs' in \[potential\]"):
        build_potential(_parse("[potential]\nkind = Polynomial1D\n"))
    with pytest.raises(ConfigError, match="unknown potential kind 'Mexican'"):
        build_potential(_parse("[potential]\nkind = Mexican\n"))


def test_build_system_spec_defaults_and_broadcast():
    cfg = _parse(
        "[schedule]\nkind = Constant\nlevel = 1.0\n"
        "[potential]\nkind = Quadratic\nn = 2\n"
        "[run]\nt_end = 10.0\nx0 = 0.3\nsample_stride = 4\n"
    )
    spec = build_system_spec(cfg, build_schedule(cfg), build_potential(cfg))
    assert np.array_equal(spec.x0, [0.3, 0.3])  # scalar start broadcasts
    assert np.array_equal(spec.v0, [0.0, 0.0])
    assert spec.rel_tol == 1e-9
    assert spec.sample_stride == 4
    assert spec.fixed_step is None


def test_build_system_spec_validation():
    base = (
        "[schedule]\nkind = Constant\nlevel = 1.0\n"
        "[potential]\nkind = Quadratic\nn = 2\n"
    )
    cfg = _parse(base + "[run]\nt_end = -5.0\n")
    with pytest.raises(ConfigError, match="t_end must be positive"):
        build_system_spec(cfg, build_schedule(cfg), build_potential(cfg))

    cfg = _parse(base + "[run]\nt_end = 10.0\nx0 = 1, 2, 3\n")
    with pytest.raises(ConfigError, match="3 components but the potential is 2-dimensional"):
        build_system_spec(cfg, build_schedule(cfg), build_potential(cfg))


def test_build_sgd_section():
    assert build_sgd(_parse("[run]\nt_end = 1.0\n")) is None

    steps, noise, n = build_sgd(
        _parse("[sgd]\nrule = PowerDecay\neps0 = 0.01\nrho = 0.7\nsigma = 0.5\nseed = 9\nN = 100\n")
    )
    assert (steps, noise, n) == (StepSchedule(0.01, 0.7), NoiseModel(0.5, 9), 100)

    steps, noise, _ = build_sgd(_parse("[sgd]\neps0 = 0.01\nN = 5\n"))
    assert (steps, noise) == (StepSchedule(0.01), NoiseModel())
    with pytest.raises(ConfigError, match="missing required key 'rho' in \\[sgd\\]"):
        build_sgd(_parse("[sgd]\nrule = PowerDecay\neps0 = 0.01\nN = 5\n"))

    with pytest.raises(ConfigError, match="unknown sgd rule 'Adam'"):
        build_sgd(_parse("[sgd]\nrule = Adam\neps0 = 0.01\nN = 5\n"))
    with pytest.raises(ConfigError, match="N must be >= 1"):
        build_sgd(_parse("[sgd]\neps0 = 0.01\nN = 0\n"))


# ---------------------------------------------------------------------------
# overrides and echo


def test_overrides_reach_built_objects(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(GOOD)
    run_cfg = load_run_config(path, overrides={("schedule", "c"): "4.0"})
    assert run_cfg.spec.schedule.c == 4.0
    assert config_echo(run_cfg.parsed)["schedule"]["c"] == "4.0"
    assert run_cfg.name == "demo"

    # a name default falls back to the file stem
    bare = tmp_path / "nameless.cfg"
    bare.write_text(GOOD.replace("name = demo\n", ""))
    assert load_run_config(bare).name == "nameless"


def test_override_of_new_key_lands_in_section():
    cfg = _parse(GOOD)
    apply_overrides(cfg, {("run", "rel_tol"): "1e-6"})
    assert cfg.get("run", "rel_tol") == 1e-6


def test_echo_round_trip():
    cfg = _parse(GOOD)
    echo = config_echo(cfg)
    again = config_echo(parse_config_text(echo_to_text(echo)))
    assert again == echo


# ---------------------------------------------------------------------------
# sweep plans


def _sweep_cfg(extra):
    return _parse(GOOD + "\n[sweep]\n" + extra)


def test_random_sweep_plan():
    cfg = _sweep_cfg("mode = random\nruns = 5\nseed = 3\nx0_range = -1, 1\nv0_range = 0, 2\n")
    plan = build_sweep_plan(cfg, Quadratic(1))
    assert len(plan.rows) == 5
    assert plan.labels == [f"start{i}" for i in range(5)]
    for row in plan.rows:
        x0 = float(row[("run", "x0")])
        v0 = float(row[("run", "v0")])
        assert -1.0 <= x0 <= 1.0
        assert 0.0 <= v0 <= 2.0
    # same seed, same draws
    again = build_sweep_plan(cfg, Quadratic(1))
    assert again.rows == plan.rows


def test_grid_sweep_plan_row_major():
    cfg = _sweep_cfg(
        "mode = grid\nvary = schedule.c\nvalues = 1, 2\nvary2 = run.x0\nvalues2 = 0.1, 0.2, 0.3\n"
    )
    plan = build_sweep_plan(cfg, Quadratic(1))
    assert len(plan.rows) == 6
    assert plan.rows[0] == {("schedule", "c"): "1", ("run", "x0"): "0.1"}
    assert plan.rows[1] == {("schedule", "c"): "1", ("run", "x0"): "0.2"}
    assert plan.rows[3] == {("schedule", "c"): "2", ("run", "x0"): "0.1"}
    assert plan.labels[4] == "schedule.c=2 run.x0=0.2"


def test_sweep_plan_validation():
    with pytest.raises(ConfigError, match="requires a \\[sweep\\] section"):
        build_sweep_plan(_parse(GOOD), Quadratic(1))
    with pytest.raises(ConfigError, match="runs must be >= 1"):
        build_sweep_plan(_sweep_cfg("mode = random\nruns = 0\n"), Quadratic(1))
    with pytest.raises(ConfigError, match="x0_range expects 'low, high'"):
        build_sweep_plan(
            _sweep_cfg("mode = random\nruns = 2\nx0_range = 2, -2\n"), Quadratic(1)
        )
    with pytest.raises(ConfigError, match="expects 'section.key'"):
        build_sweep_plan(_sweep_cfg("mode = grid\nvary = gamma\nvalues = 1\n"), Quadratic(1))
    with pytest.raises(ConfigError, match="names unknown key"):
        build_sweep_plan(
            _sweep_cfg("mode = grid\nvary = schedule.warp\nvalues = 1\n"), Quadratic(1)
        )
    with pytest.raises(ConfigError, match="values is empty"):
        build_sweep_plan(
            _sweep_cfg("mode = grid\nvary = schedule.c\nvalues = ,\n"), Quadratic(1)
        )
    with pytest.raises(ConfigError, match="needs 'vary' and 'values'"):
        build_sweep_plan(_sweep_cfg("mode = grid\n"), Quadratic(1))
    with pytest.raises(ConfigError, match="unknown sweep mode 'zigzag'"):
        build_sweep_plan(_sweep_cfg("mode = zigzag\n"), Quadratic(1))


def test_grid_sweep_cap():
    values = ", ".join(str(i) for i in range(101))
    cfg = _sweep_cfg(
        f"mode = grid\nvary = schedule.c\nvalues = {values}\nvary2 = run.x0\nvalues2 = {values}\n"
    )
    with pytest.raises(ConfigError, match="10201 points; the limit is 10000"):
        build_sweep_plan(cfg, Quadratic(1))


# ---------------------------------------------------------------------------
# the reference in docs/config.md

DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def _documented_keys():
    """{section: {key: default text}} from the key tables of the docs."""
    tables = {}
    section = None
    for line in DOCS.read_text().splitlines():
        if line.startswith("## "):
            heading = re.fullmatch(r"## \[(\w+)\]", line)
            section = heading.group(1) if heading else None
            if section:
                tables[section] = {}
        elif section and line.startswith("| `"):
            keys, default, _ = line.strip("|").split("|", 2)
            for key in re.findall(r"`(\w+)`", keys):
                tables[section][key] = default.strip().strip("`")
    return tables


def test_docs_list_every_key():
    documented = {section: set(keys) for section, keys in _documented_keys().items()}
    assert documented == {section: set(keys) for section, keys in _KEYS.items()}


@pytest.mark.parametrize(
    "section, key, owner, kind",
    [
        ("run", "rel_tol", SystemSpec, float),
        ("run", "abs_tol", SystemSpec, float),
        ("run", "max_steps", SystemSpec, int),
        ("schedule", "c", PowerLaw, float),
        ("schedule", "gamma", PowerLaw, float),
        ("schedule", "s0", PowerLaw, float),
        ("sgd", "seed", NoiseModel, int),
        ("potential", "n", Quadratic, int),
    ],
)
def test_docs_give_the_constructors_defaults(section, key, owner, kind):
    # the config leaves these keys to the constructors' own defaults
    documented = kind(_documented_keys()[section][key])
    assert documented == inspect.signature(owner).parameters[key].default
