"""Command-line runner, in process.

Each test invokes ``main`` directly with a temp config and inspects exit
codes, console output, and the CSV/JSON artifacts.
"""

import csv
import errno
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from vanishdamp import cli, workers
from vanishdamp.cli import main
from vanishdamp.oracle import bessel_j, linear_regular_solution, power_law_exact

BASE = """\
[scenario]
name = quadshort

[schedule]
kind = PowerLaw
c = 1.0
gamma = 1.0
s0 = 1.0

[potential]
kind = Quadratic
n = 1

[run]
x0 = 1.0
v0 = 0.0
t_end = 60.0
rel_tol = 1e-8
"""

# BASE's [schedule] and [potential] bodies, for cases that change the kind
POWER_LAW = "kind = PowerLaw\nc = 1.0\ngamma = 1.0\ns0 = 1.0"
QUADRATIC = "kind = Quadratic\nn = 1"

VERDICTS = {"ConvergesToMin", "ConvergesToMax", "NotConverged", "Undetermined"}

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _cfg(tmp_path, text, name="scn.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_summary(outdir, name):
    return json.loads((outdir / f"{name}_summary.json").read_text())


# ---------------------------------------------------------------------------
# run


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _cfg(tmp_path, BASE), "--outdir", str(out)]) == 0

    printed = capsys.readouterr().out
    assert "quadshort: verdict" in printed
    assert str(out / "quadshort_summary.json") in printed

    series = (out / "quadshort_series.csv").read_text().splitlines()
    assert series[0] == "t,x_0,v_0,E,a,gnorm"
    assert len(series) > 100
    events = (out / "quadshort_events.csv").read_text().splitlines()
    assert events[0] == "i,t,x_0,E"
    assert len(events) > 10

    summary = _read_summary(out, "quadshort")
    assert summary["name"] == "quadshort"
    assert summary["config"]["schedule"]["c"] == "1.0"
    assert summary["verdict"]["verdict"] in VERDICTS
    assert summary["events"]["count"] == len(events) - 1
    assert summary["energy"]["final"] < summary["energy"]["initial"]
    assert summary["lower_bound_residual"] >= -1e-8
    assert summary["solver"]["accepted"] > 0
    assert summary["sgd"] is None


def test_rerun_reproduces_artifacts(tmp_path):
    cfg = _cfg(tmp_path, BASE)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", cfg, "--outdir", str(out1)]) == 0
    assert main(["run", cfg, "--outdir", str(out2)]) == 0

    for name in ("quadshort_series.csv", "quadshort_events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    s1, s2 = _read_summary(out1, "quadshort"), _read_summary(out2, "quadshort")
    s1.pop("wall_clock_s"), s2.pop("wall_clock_s")
    assert s1 == s2


def test_run_with_recursion_section(tmp_path):
    text = BASE + "\n[sgd]\nrule = Constant\neps0 = 0.01\nN = 500\n"
    out = tmp_path / "out"
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(out)]) == 0

    path_lines = (out / "quadshort_path.csv").read_text().splitlines()
    assert path_lines[0] == "n,tau,h_0,x_0"
    assert len(path_lines) == 502  # header + rows 0..500

    block = _read_summary(out, "quadshort")["sgd"]
    assert block["n_steps"] == 500
    assert block["drift_identity_max"] <= 1e-10
    assert block["ode_metric"] == "sup"
    assert block["final_tau"] == pytest.approx(0.01 * 501, rel=1e-12)
    # the worker's staged path CSV was moved into place, and the worker is gone
    assert sorted(p.name for p in out.iterdir()) == [
        f"quadshort_{kind}" for kind in ("events.csv", "path.csv", "series.csv", "summary.json")
    ]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# failure exit codes


def test_config_error_exits_2(tmp_path, capsys):
    bad = BASE.replace("rel_tol = 1e-8", "warp_factor = 9")
    assert main(["run", _cfg(tmp_path, bad, "bad.cfg"), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:" in err and "warp_factor" in err


def test_solver_failure_exits_3(tmp_path, capsys):
    text = BASE + "max_steps = 5\n"
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 3
    assert "solver failure (MaxStepsExceeded)" in capsys.readouterr().err


SGD = "\n[sgd]\neps0 = 0.01\nN = 5\n"
# a step of 1e6 on the unit quadratic: the iterate overflows
DIVERGING = "\n[sgd]\neps0 = 1e6\nN = 500\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (BASE + DIVERGING, "NonFiniteState"),
        (BASE + "max_steps = 5\n" + SGD, "MaxStepsExceeded"),
        (BASE + "max_steps = 5\n" + DIVERGING, "MaxStepsExceeded"),
    ],
    ids=["recursion_diverges", "integrate_fails", "both_fail"],
)
def test_failed_half_leaves_no_path_csv(tmp_path, capsys, text, error):
    # the recursion runs in a worker process while the parent integrates;
    # either half failing exits 3 with the parent's error first, leaves
    # no staged or new path CSV, keeps an earlier one's bytes, and leaves
    # no process behind
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--outdir", str(out)]) == 3
    assert f"solver failure ({error})" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []
    assert multiprocessing.active_children() == []

    out.mkdir(exist_ok=True)
    earlier, kept = out / "quadshort_path.csv", b"n,tau,h_0,x_0\n0,1.0,0.0,1.0\n"
    earlier.write_bytes(kept)
    assert main(["run", cfg, "--outdir", str(out)]) == 3
    assert f"solver failure ({error})" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["quadshort_path.csv"]
    assert earlier.read_bytes() == kept
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "command, text, bad",
    [
        ("run", BASE + "abs_tol = inf\n", "abs_tol = inf"),
        ("run", BASE.replace("rel_tol = 1e-8", "rel_tol = -1"), "rel_tol = -1"),
        ("run", BASE + "max_steps = 0\n", "max_steps = 0"),
        ("run", BASE + SGD + "sigma = -0.5\n", "sigma = -0.5"),
        ("run", BASE.replace("n = 1", "n = 0"), "n = 0"),
        ("run", BASE.replace("n = 1", "n = -2"), "n = -2"),
        ("sweep", BASE + "\n[sweep]\nruns = 2\nseed = -1\n", "seed = -1"),
    ],
    ids=["abs_tol_inf", "rel_tol", "max_steps", "sigma", "n_zero", "n_negative", "sweep_seed"],
)
def test_out_of_bounds_value_exits_2_at_its_line(tmp_path, capsys, command, text, bad):
    cfg = _cfg(tmp_path, text, "bad.cfg")
    line = text.splitlines().index(bad) + 1
    assert main([command, cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}:{line}: {bad.split()[0]} must be "), err


@pytest.mark.parametrize(
    "text, key",
    [
        (BASE + "fixed_step = 0.1\n", "fixed_step"),
        (BASE + "sample_stride = 4\n", "sample_stride"),
        (BASE.replace("n = 1", "n = 2") + "event_dir = 1, 0\n", "event_dir"),
    ],
    ids=["fixed_step", "sample_stride", "event_dir"],
)
def test_removed_run_key_exits_2_at_its_line(tmp_path, capsys, text, key):
    # the step size is always adaptive, every accepted step is stored up
    # to the sample cap, and events are sign changes of v_0
    cfg = _cfg(tmp_path, text, "bad.cfg")
    line = len(text.splitlines())
    assert main(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"{cfg}:{line}: unknown key '{key}' in [run]")


@pytest.mark.parametrize(
    "command, text, bad",
    [
        ("run", BASE.replace("x0 = 1.0", "x0 = inf"), "x0 = inf"),
        ("run", BASE.replace("v0 = 0.0", "v0 = nan"), "v0 = nan"),
        ("sweep", BASE + "\n[sweep]\nruns = 2\nx0_range = -inf, inf\n", "x0_range = -inf, inf"),
        ("sweep", BASE + "\n[sweep]\nruns = 2\nv0_range = -1e308, 1e308\n",
         "v0_range = -1e308, 1e308"),
    ],
    ids=["x0_inf", "v0_nan", "x0_range_infinite", "v0_range_width_overflows"],
)
def test_value_the_integrator_refuses_exits_2_at_its_line(tmp_path, capsys, command, text, bad):
    # these passed the config and failed only in the integrator, without a
    # line, or (the ranges) failed every sweep row while the sweep exited 0
    cfg = _cfg(tmp_path, text, "bad.cfg")
    line = text.splitlines().index(bad) + 1
    assert main([command, cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}:{line}: {bad.split()[0]} "), err
    assert not (tmp_path / "out").exists()


SINGULAR = BASE.replace("s0 = 1.0", "s0 = 0")


@pytest.mark.parametrize(
    "text, section, message",
    [
        (BASE.replace("c = 1.0", "c = -1"), "schedule", "PowerLaw amplitude must be > 0"),
        (BASE.replace(POWER_LAW, "kind = Constant\nlevel = -2"), "schedule",
         "Constant level must be >= 0"),
        (BASE.replace("kind = Quadratic", "kind = PPower\np = 0.5"), "potential",
         "PPower needs a finite p > 1"),
        (BASE.replace(QUADRATIC, "kind = Polynomial1D\ncoeffs = 1"), "potential",
         "polynomial potential needs degree >= 1"),
        (SINGULAR.replace("gamma = 1.0", "gamma = 2"), "schedule",
         "PowerLaw with offset 0 requires gamma <= 1"),
        (BASE + "\n[sgd]\neps0 = -1\nN = 5\n", "sgd", "eps0 must be positive and finite"),
        (BASE + "\n[sgd]\nrule = PowerDecay\neps0 = 0.01\nrho = 2\nN = 5\n", "sgd",
         "PowerDecay needs rho in (1/2, 1]"),
        (SINGULAR.replace("v0 = 0.0", "v0 = 1"), "run", "a singular schedule requires v0 = 0"),
        (BASE.replace("s0 = 1.0", "s0 = inf"), "schedule", "PowerLaw offset must be >= 0 and finite"),
        (BASE.replace("s0 = 1.0", "s0 = nan"), "schedule", "PowerLaw offset must be >= 0 and finite"),
        (BASE.replace("c = 1.0", "c = inf"), "schedule", "PowerLaw amplitude must be > 0 and finite"),
        (BASE.replace(POWER_LAW, "kind = Constant\nlevel = inf"), "schedule",
         "Constant level must be >= 0 and finite"),
        (BASE.replace("kind = Quadratic", "kind = PPower\np = inf"), "potential",
         "PPower needs a finite p > 1"),
    ],
    ids=["c_negative", "level_negative", "p_below_one", "coeffs_constant", "s0_zero_gamma_2",
         "eps0_negative", "rho_above_one", "v0_singular", "s0_inf", "s0_nan", "c_inf",
         "level_inf", "p_inf"],
)
def test_value_a_constructor_refuses_exits_2_at_its_section(tmp_path, capsys, text, section,
                                                            message):
    # the first eight printed a bare DomainError (v0_singular only once the
    # run had started), and the non-finite ones ran to a meaningless
    # summary or a solver failure; a constructor's complaint names no key,
    # so it points at its section's header
    cfg = _cfg(tmp_path, text, "bad.cfg")
    line = text.splitlines().index(f"[{section}]") + 1
    assert main(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}:{line}: {message}"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text, bad, message",
    [
        ("run", BASE.replace("s0 = 1.0", "s0 = 1.0\nlevel = 5"), "level = 5",
         "PowerLaw does not read 'level' in [schedule]"),
        ("run", BASE.replace(POWER_LAW, "kind = Constant\nlevel = 1\nc = 2"), "c = 2",
         "Constant does not read 'c' in [schedule]"),
        ("run", BASE.replace(POWER_LAW, "kind = SlowLog\ngamma = 2"), "gamma = 2",
         "SlowLog does not read 'gamma' in [schedule]"),
        ("run", BASE.replace("kind = Quadratic", "kind = DoubleWell"), "n = 1",
         "DoubleWell does not read 'n' in [potential]"),
        ("run", BASE.replace(QUADRATIC, QUADRATIC + "\nbeta = 3"), "beta = 3",
         "unknown key 'beta' in [potential]"),
        ("run", BASE.replace(QUADRATIC, QUADRATIC + "\np = 3"), "p = 3",
         "Quadratic does not read 'p' in [potential]"),
        ("run", BASE + "\n[sgd]\nrule = Constant\neps0 = 0.01\nrho = 0.7\nN = 5\n", "rho = 0.7",
         "Constant does not read 'rho' in [sgd]"),
        ("run", BASE + SGD + "seed = 7\n", "seed = 7", "seed needs a positive sigma in [sgd]"),
        ("run", BASE + SGD + "sigma = 0\nseed = 0\n", "seed = 0",
         "seed needs a positive sigma in [sgd]"),
        ("sweep", BASE + "\n[sweep]\nmode = random\nruns = 2\nvary = run.x0\n", "vary = run.x0",
         "random does not read 'vary' in [sweep]"),
        ("sweep", BASE + "\n[sweep]\nmode = grid\nvary = run.t_end\nvalues = 20\nruns = 3\n",
         "runs = 3", "grid does not read 'runs' in [sweep]"),
        ("sweep", BASE + "\n[sweep]\nmode = grid\nvary = sweep.write_series\n"
         "values = true, false\n", "vary = sweep.write_series",
         "vary names 'sweep.write_series', which no row reads"),
        ("sweep", BASE + "\n[sweep]\nmode = grid\nvary = run.t_end\nvalues = 20, 30\n"
         "vary2 = scenario.name\nvalues2 = a, b\n", "vary2 = scenario.name",
         "vary2 names 'scenario.name', which no row reads"),
        ("sweep", BASE + "\n[sweep]\nmode = grid\nvary = run.t_end\nvalues = 20, 30\n"
         "values2 = 1, 2\n", "values2 = 1, 2", "grid does not read 'values2' without 'vary2'"),
    ],
    ids=["power_law_level", "constant_c", "slow_log_gamma", "double_well_n", "quadratic_beta",
         "quadratic_p", "sgd_constant_rho", "sgd_seed_without_sigma", "sgd_seed_sigma_zero",
         "random_vary", "grid_runs", "grid_sweep_key", "grid_row_name",
         "grid_values2_alone"],
)
def test_a_key_nothing_reads_exits_2_at_its_line(tmp_path, capsys, command, text, bad, message):
    # each ran to exit 0 with the key's value ignored, a grid sweep with
    # identical rows
    cfg = _cfg(tmp_path, text, "bad.cfg")
    line = text.splitlines().index(bad) + 1
    assert main([command, cfg, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"{cfg}:{line}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_grid_rows_of_a_key_the_kind_does_not_read_fail(tmp_path, capsys):
    # both rows ran the same PowerLaw schedule, level ignored; each row's
    # override has no line of its own, so it points at [schedule]
    text = BASE + "\n[sweep]\nmode = grid\nvary = schedule.level\nvalues = 0.5, 5\n"
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out)]) == 0
    with open(out / "quadshort_sweep.csv", newline="") as handle:
        table = list(csv.reader(handle))
    line = text.splitlines().index("[schedule]") + 1
    error = f"ConfigError: {cfg}:{line}: PowerLaw does not read 'level' in [schedule]"
    assert [row[2:] for row in table[1:]] == [["error", "", error]] * 2
    assert "2 rows (2 failed)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "[schedule]\nkind = PowerLaw\n", "missing required key 't_end' in [run]"),
        ("sweep", BASE, "sweep requires a [sweep] section"),
        ("sweep", BASE + "\n[sweep]\nmode = grid\n", "grid sweep needs 'vary' and 'values'"),
    ],
    ids=["run_section_absent", "sweep_section_absent", "grid_axis_absent"],
)
def test_a_complaint_without_a_line_prints_only_the_path(tmp_path, capsys, command, text,
                                                         message):
    # the file has no line that these complaints could point at
    cfg = _cfg(tmp_path, text, "bad.cfg")
    assert main([command, cfg, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"{cfg}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_sweep_row_varying_an_absent_section_prints_only_the_path(tmp_path, capsys):
    # the override creates [sgd] without a header line, so the row's
    # missing key has no line to point at
    cfg = _cfg(tmp_path, BASE + "\n[sweep]\nmode = grid\nvary = sgd.eps0\nvalues = 0.01\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out)]) == 0
    with open(out / "quadshort_sweep.csv", newline="") as handle:
        table = list(csv.reader(handle))
    assert table[1][2:] == ["error", "", f"ConfigError: {cfg}: missing required key 'N' in [sgd]"]


BIG_PPOWER = BASE.replace("kind = Quadratic", "kind = PPower\np = 4").replace(
    "t_end = 60.0", "t_end = 10.0"
)


def test_overflowing_scalar_start_exits_3(tmp_path, capsys):
    # finite but huge: the scalar gradient closure overflows a float
    text = BIG_PPOWER.replace("x0 = 1.0", "x0 = 3.0").replace("v0 = 0.0", "v0 = 1e150")
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 3
    assert "solver failure (NonFiniteState)" in capsys.readouterr().err


def test_overflowing_plane_start_exits_3(tmp_path, capsys):
    # |f(y0)|^2 overflows in the first-step estimate; the stepper turns
    # that into NonFiniteState itself, without a numpy warning on the way
    text = BIG_PPOWER.replace("n = 1", "n = 2").replace("x0 = 1.0", "x0 = 1e80, 0.0")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 3
    assert "solver failure (NonFiniteState)" in capsys.readouterr().err


def test_sweep_records_overflowing_rows(tmp_path, capsys):
    text = BIG_PPOWER + (
        "\n[sweep]\nmode = random\nruns = 3\nseed = 1\n"
        "x0_range = -1e150, 1e150\nv0_range = -1e150, 1e150\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(out)]) == 0
    table = (out / "quadshort_sweep.csv").read_text().splitlines()
    assert len(table) == 4
    # the message holds a comma, so its cell is quoted
    assert all(',error,,"NonFiniteState: ' in row for row in table[1:])
    assert "3 rows (3 failed)" in capsys.readouterr().out


def test_a_gradient_overflow_beyond_the_run_is_no_failure(tmp_path, capsys):
    # classify_limit scans the critical points out to |x| = 1.9, where the
    # 1-D gradient |x|^1199 overflows a float: the run exited 1 with an
    # OverflowError, and the sweep died on its second row with no table
    text = BIG_PPOWER.replace("p = 4", "p = 1200").replace("x0 = 1.0", "x0 = 0.9")
    out = tmp_path / "out"
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(out)]) == 0
    summary = json.loads((out / "quadshort_summary.json").read_text())
    assert summary["verdict"]["verdict"] == "Undetermined"
    # the gradient underflows to 0 for |x| below about 0.537, past the
    # scan's left edge at -0.1: one minimum set around 0, not a Degenerate
    # point at the midpoint of the zero nodes
    assert summary["verdict"]["nearest_kind"] == "LocalMin"

    sweep = text + "\n[sweep]\nmode = grid\nvary = potential.p\nvalues = 4, 1200\n"
    assert main(["sweep", _cfg(tmp_path, sweep), "--outdir", str(out)]) == 0
    table = (out / "quadshort_sweep.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in table[1:]] == [
        ["quadshort_row0000", "potential.p=4", "NotConverged"],
        ["quadshort_row0001", "potential.p=1200", "Undetermined"],
    ]
    assert "2 rows (0 failed)" in capsys.readouterr().out


WELL_SHORT = BASE.replace("kind = Quadratic\nn = 1", "kind = DoubleWell").replace(
    "x0 = 1.0\nv0 = 0.0\nt_end = 60.0\nrel_tol = 1e-8",
    "x0 = 0.37\nv0 = 1.1\nt_end = 50.0\nrel_tol = 1e-6",
)

PLANE_SGD = BASE.replace("kind = Quadratic\nn = 1", "kind = PPower\np = 4\nn = 3").replace(
    "x0 = 1.0\nv0 = 0.0\nt_end = 60.0\nrel_tol = 1e-8",
    "x0 = -0.07559280905748289, 0.5870771547907805, -0.805993884307791\n"
    "v0 = 0.0\nt_end = 200\nrel_tol = 1e-8",
) + (
    "\n[sgd]\nrule = PowerDecay\neps0 = 0.05\nrho = 0.7\nsigma = 0.5\n"
    "seed = 32709896\nN = 500\n"
)


_CSV_PINS = pytest.mark.parametrize(
    "text, pins",
    [
        (WELL_SHORT, {
            "series": "b5402ecec9673ce263f99b4312902d036b393f194dfce6822f8e1be0647cf5a4",
            "events": "f8de9d903c86618413b94f0c2d352d68d1c5a9893555c5f5b8de37e4f4639628",
        }),
        (PLANE_SGD, {
            "series": "f1f45f6fcda0dd69802b13fca948aa9b47a798828ed065ac72dc82794ba9bc77",
            "path": "fc44926f2a411d0be4b058250319d722c51624c59bb50e447eff460ab2dc4421",
        }),
    ],
    ids=["double_well_n1", "ppower_sgd_n3"],
)


@_CSV_PINS
def test_csv_bytes_are_pinned(tmp_path, text, pins):
    # SHA-256 of the CSV bytes _series_csv, _events_csv and _path_csv write
    # (shortest round-trip floats): any change to the writers' output, or to
    # the numbers they print, shows up here
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 0
    for kind, digest in pins.items():
        data = (tmp_path / f"quadshort_{kind}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, kind


@pytest.mark.parametrize("rows", [1, 7, 4096])
@_CSV_PINS
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, text, pins, rows):
    # the writers format _CSV_BLOCK_ROWS rows at a time; a block of one
    # row, blocks that do not divide the row count and one block for the
    # whole artifact give the pinned bytes (the recursion's worker, forked
    # after the patch, writes the path CSV with the same block size)
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", rows)
    test_csv_bytes_are_pinned(tmp_path, text, pins)


# tracemalloc's peak for one _csv call, fixed from the block size (the
# cells of one block, as strings, stay well under 1 MB) and not from any
# row count
CSV_PEAK_BOUND = 1 << 20


@pytest.mark.parametrize("rows", [50_000, 200_000])
def test_csv_holds_one_block_whatever_the_row_count(tmp_path, rows):
    # _csv writes each block to its handle as soon as it is formatted, so
    # its peak is one block's strings: the same bound holds for a 1.3 MB
    # and a 5 MB artifact, where holding the artifact whole exceeds it
    rng = np.random.default_rng(35)
    columns = [range(rows), rng.standard_normal(rows)]
    target = tmp_path / "big.csv"
    with open(target, "wb") as handle:
        tracemalloc.start()
        try:
            cli._csv(handle, ["i", "c0"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < CSV_PEAK_BOUND
    assert target.stat().st_size > CSV_PEAK_BOUND
    lines = target.read_text().splitlines()
    assert lines[0] == "i,c0" and len(lines) == rows + 1
    assert lines[-1] == f"{rows - 1},{float(columns[1][-1])!r}"


class _FillsUp:
    """A file that takes ``writes`` writes, then refuses the next one as a
    full disk would."""

    def __init__(self, handle, writes):
        self.handle, self.writes = handle, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        if self.writes == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.handle.write(data)


@pytest.mark.parametrize("kind", ["series", "events", "path"])
def test_a_failed_block_leaves_no_tmp_and_keeps_the_artifact(tmp_path, monkeypatch,
                                                             record_pools, kind):
    # a CSV write that fails after its header and first block went out
    # removes the temporary file, and the artifacts of an earlier run stay
    # as they were.  On one CPU the recursion, and so the path CSV, runs in
    # this process, where the patched open holds
    cfg = _cfg(tmp_path, PLANE_SGD)
    out = tmp_path / "out"
    assert main(["run", cfg, "--outdir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sum(name.endswith(".csv") for name in before) == 3

    record_pools(1)
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 7)
    opened = []

    def fills_up(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if Path(file).name.startswith(f"quadshort_{kind}.csv"):
            opened.append(file)
            return _FillsUp(handle, 2)
        return handle

    monkeypatch.setattr(cli, "open", fills_up, raising=False)
    with pytest.raises(OSError, match="No space left"):
        main(["run", cfg, "--outdir", str(out)])
    assert len(opened) == 1 and before[f"quadshort_{kind}.csv"].count(b"\n") > 1 + 7
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert multiprocessing.active_children() == []


def _json_digest(path: Path) -> str:
    """SHA-256 of a JSON artifact without its wall-clock line."""
    lines = path.read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if '"wall_clock_s"' not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize(
    "text, digest",
    [
        (WELL_SHORT, "d95dc46482838d503a82923fc69b29005a02790e36d0f772e0adc861a65fc194"),
        (PLANE_SGD, "7d765c9bd204901af4a3888fd320206b6bb80d26f9b184730010993620ceb8c5"),
    ],
    ids=["double_well_n1", "ppower_sgd_n3"],
)
def test_summary_bytes_are_pinned(tmp_path, text, digest):
    # the summary JSON of the CSV-pinned runs: its keys, its layout and
    # every number in it, the wall clock aside
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 0
    assert _json_digest(tmp_path / "quadshort_summary.json") == digest


def test_sweep_json_bytes_are_pinned(tmp_path):
    # one row summary and the aggregate of a 2-row grid sweep
    text = BASE + "\n[sweep]\nmode = grid\nvary = schedule.c\nvalues = 1.0, 3.0\n"
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 0
    assert _json_digest(tmp_path / "quadshort_row0001_summary.json") == (
        "c2b16f20c503da7ffec701ba263a5d495dab4492efb25691d4966ae980b2be4d")
    assert _json_digest(tmp_path / "quadshort_aggregate.json") == (
        "34ce7651c62f9835ad60d1796ed8762399c267455d2d287429d781108a9fea32")


def test_recursion_worker_runs_under_spawn(tmp_path, record_pools):
    # the worker gets only picklable arguments, so a worker started from a
    # fresh interpreter writes what a worker started by the default method does
    cfg = _cfg(tmp_path, PLANE_SGD)
    assert main(["run", cfg, "--outdir", str(tmp_path / "default")]) == 0
    sizes = record_pools(2, mp_context=multiprocessing.get_context("spawn"))
    assert main(["run", cfg, "--outdir", str(tmp_path / "spawn")]) == 0
    assert sizes == [1]
    _assert_same_apart_from_clock(tmp_path / "default", tmp_path / "spawn")


def test_one_cpu_runs_the_recursion_after_the_integration(tmp_path, record_pools):
    # with a CPU free for it the recursion runs in one worker process; on
    # one CPU no process starts, and the files are the same
    cfg = _cfg(tmp_path, PLANE_SGD)
    sizes = record_pools(2)
    assert main(["run", cfg, "--outdir", str(tmp_path / "two")]) == 0
    assert sizes == [1]
    sizes = record_pools(1)
    assert main(["run", cfg, "--outdir", str(tmp_path / "one")]) == 0
    assert sizes == []
    assert multiprocessing.active_children() == []
    _assert_same_apart_from_clock(tmp_path / "two", tmp_path / "one")


def _scipy_loaded_by_run(cfg, outdir):
    """The scipy modules loaded by ``run`` on ``cfg`` in a fresh interpreter.

    ``run`` hands an [sgd] section's recursion to a worker process, whose
    modules the interpreter does not see, so the script also runs the
    recursion and its ODE comparison itself."""
    script = (
        "import sys\n"
        "import vanishdamp.cli\n"
        "from vanishdamp.config import load_run_config\n"
        "from vanishdamp.sgd import compare_to_ode, run_recursion\n"
        f"assert vanishdamp.cli.main(['run', {cfg!r}, '--outdir', {str(outdir)!r}]) == 0\n"
        f"run_cfg = load_run_config({cfg!r})\n"
        "if run_cfg.sgd is not None:\n"
        "    steps, noise, n_steps = run_cfg.sgd\n"
        "    pot = run_cfg.spec.potential\n"
        "    path = run_recursion(pot, steps, noise, run_cfg.spec.x0, n_steps)\n"
        "    assert path.n_steps == n_steps\n"
        "    compare_to_ode(path, pot)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_run_loads_no_scipy(tmp_path):
    # scipy is imported on first use (oracle, Custom schedules); a plain
    # run and a noisy recursion never load it.  Fresh interpreters, since
    # this one has scipy loaded by other tests
    text = WELL_SHORT.replace("s0 = 1.0", "s0 = 0.0").replace("v0 = 1.1", "v0 = 0.0")
    assert _scipy_loaded_by_run(_cfg(tmp_path, text), tmp_path) == "[]"
    # the singular schedule's t=0 row has a = inf
    first = (tmp_path / "quadshort_series.csv").read_text().splitlines()[1].split(",")
    assert first[0] == "0.0" and first[-2] == "inf"

    noisy = tmp_path / "noisy"
    assert "sigma = 0.5" in PLANE_SGD
    assert _scipy_loaded_by_run(_cfg(tmp_path, PLANE_SGD, "sgd.cfg"), noisy) == "[]"
    assert (noisy / "quadshort_path.csv").exists()


def test_atomic_write_writes_in_slices(tmp_path):
    # text longer than one write slice arrives whole, and so do bytes, with
    # no temporary left
    text = "".join(f"{i},{i * 0.1!r}\n" for i in range(150_000))
    assert len(text) > 2 * cli._WRITE_SLICE
    cli._atomic_write(tmp_path / "big.csv", text)
    assert (tmp_path / "big.csv").read_text() == text
    data = bytearray(text, "ascii")
    cli._atomic_write(tmp_path / "big_bytes.csv", data)
    assert (tmp_path / "big_bytes.csv").read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "big_bytes.csv"]


@pytest.mark.parametrize("stage, kind", [
    pytest.param("write", str, id="write"),
    pytest.param("rename", str, id="rename"),
    pytest.param("rename", bytearray, id="rename_bytearray"),
])
def test_failed_atomic_write_leaves_no_file(tmp_path, monkeypatch, stage, kind):
    # a write that fails part way (a character the encoder refuses, after a
    # full slice went out) or at the rename removes its temporary file; an
    # artifact already there is left as it was.  Text and bytes alike
    text = "x" * (cli._WRITE_SLICE + 10)
    if stage == "write":
        text += "\ud800"
        expected = UnicodeEncodeError
    else:
        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", no_space)
        expected = OSError
    data = text if kind is str else bytearray(text, "ascii")
    with pytest.raises(expected):
        cli._atomic_write(tmp_path / "run_series.csv", data)
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "run_events.csv").write_text("kept\n")
    with pytest.raises(expected):
        cli._atomic_write(tmp_path / "run_events.csv", data)
    assert [p.name for p in tmp_path.iterdir()] == ["run_events.csv"]
    assert (tmp_path / "run_events.csv").read_text() == "kept\n"


# ---------------------------------------------------------------------------
# verify and oracle


def test_verify_list_names_every_criterion_once(capsys):
    assert main(["verify", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == [f"A{k}" for k in range(1, 14)]
    assert all(len(ln.split(None, 1)[1]) > 10 for ln in lines)


def test_verify_json_report(capsys):
    assert main(["verify", "--only", "A1", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("\n[") + 1:out.rindex("]") + 1])
    assert [(r["id"], r["passed"]) for r in report] == [("A1", True)]
    assert out.endswith("1/1 criteria passed\n")


@pytest.mark.parametrize("only, judged", [
    ("A1, A7", ["A1", "A7"]),
    ("A7,A1", ["A1", "A7"]),
    ("A1,A1", ["A1"]),
])
def test_verify_only_judges_each_id_once_in_registration_order(capsys, only, judged):
    assert main(["verify", "--only", only]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines[:-1]] == judged
    assert lines[-1] == f"{len(judged)}/{len(judged)} criteria passed"


def test_verify_unknown_criterion_exits_2(capsys):
    assert main(["verify", "--only", "A99"]) == 2
    assert capsys.readouterr().err.startswith("DomainError: unknown criterion ids ['A99']")


def test_oracle_subcommand(capsys):
    assert main(["oracle", "bessel", "--nu", "0.5", "--t", "2.0", "5.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(bessel_j(0.5, 2.0), rel=1e-15)
    assert float(lines[2].split(",")[1]) == pytest.approx(bessel_j(0.5, 5.0), rel=1e-15)

    assert main(["oracle", "linear", "--c", "2.0", "--t", "1.0"]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    assert value == pytest.approx(linear_regular_solution(2.0, 1.0), rel=1e-15)

    assert main(["oracle", "power", "--beta", "0.8", "--t", "2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,x,v,c"
    x, v, c = power_law_exact(0.8, 2.0)
    got = [float(p) for p in lines[1].split(",")[1:]]
    assert got == [pytest.approx(x), pytest.approx(v), pytest.approx(c)]


def test_oracle_argument_errors(capsys):
    assert main(["oracle", "bessel", "--t", "2.0"]) == 2
    assert "needs --nu" in capsys.readouterr().err
    assert main(["oracle", "cosine", "--t", "2.0"]) == 2
    assert "unknown oracle kind" in capsys.readouterr().err
    assert main(["oracle", "bessel", "--nu", "0.5", "--t", "soon"]) == 2
    assert "expects numbers" in capsys.readouterr().err
    # each of these printed nan or inf rows and exited 0
    for argv, message in [
        (["bessel", "--nu", "0", "--t", "nan", "inf"], "bessel_j needs a finite t >= 0, got nan"),
        (["bessel", "--nu", "0", "--t", "2.0", "inf"], "bessel_j needs a finite t >= 0, got inf"),
        (["linear", "--c", "0.5", "--t", "inf"], "time must be >= 0 and finite, got inf"),
        (["power", "--beta", "0.8", "--t", "nan"], "time must be >= 0 and finite, got nan"),
        (["power", "--beta", "inf", "--t", "1"], "exponent must be > 0 and finite, got inf"),
        (["power", "--beta", "1e-320", "--t", "1"],
         "c = 1 + beta + 1/beta overflows at beta = 1e-320"),
    ]:
        assert main(["oracle", *argv]) == 2
        printed = capsys.readouterr()
        assert (printed.out, printed.err) == ("", f"DomainError: {message}\n")


# ---------------------------------------------------------------------------
# sweep


def test_grid_sweep_continues_past_a_failing_row(tmp_path, capsys):
    text = BASE + "\n[sweep]\nmode = grid\nvary = run.t_end\nvalues = 40, -1\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(out)]) == 0

    table = (out / "quadshort_sweep.csv").read_text().splitlines()
    assert table[0] == "row,label,verdict,rate_exponent,error"
    assert len(table) == 3
    assert table[1].startswith("quadshort_row0000,run.t_end=40,")
    assert "ConfigError" in table[2]  # the t_end = -1 row failed, run continued

    aggregate = json.loads((out / "quadshort_aggregate.json").read_text())
    assert aggregate["rows"] == 2
    assert aggregate["failures"] == 1
    assert sum(aggregate["fraction_by_verdict"].values()) == pytest.approx(0.5)
    assert "2 rows (1 failed)" in capsys.readouterr().out

    # write_series defaults off for sweep rows: summaries only
    assert (out / "quadshort_row0000_summary.json").exists()
    assert not (out / "quadshort_row0000_series.csv").exists()


def test_grid_sweep_records_an_out_of_bounds_row(tmp_path, capsys):
    text = BASE + "\n[sweep]\nmode = grid\nvary = run.rel_tol\nvalues = 1e-6, -1\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(out)]) == 0

    table = (out / "quadshort_sweep.csv").read_text().splitlines()
    assert len(table) == 3
    assert table[1].startswith("quadshort_row0000,run.rel_tol=1e-6,")
    assert table[1].endswith(",")  # no error
    # the error text holds a comma, so its cell is quoted
    assert table[2].startswith('quadshort_row0001,run.rel_tol=-1,error,,"ConfigError: ')
    assert table[2].endswith('rel_tol must be positive and finite, got -1.0"')
    assert "2 rows (1 failed)" in capsys.readouterr().out


def test_sweep_table_quotes_error_cells(tmp_path, capsys):
    # an unknown kind's message lists the known ones, commas included
    text = BASE + "\n[sweep]\nmode = grid\nvary = schedule.kind\nvalues = Constant, Fancy\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()

    with open(out / "quadshort_sweep.csv", newline="") as handle:
        table = list(csv.reader(handle))
    assert table[0] == ["row", "label", "verdict", "rate_exponent", "error"]
    assert [len(row) for row in table] == [5, 5, 5]
    assert table[2][:4] == ["quadshort_row0001", "schedule.kind=Fancy", "error", ""]
    assert "expected one of ('Constant', 'PowerLaw', 'SlowLog')" in table[2][4]
    # each error cell reads back as the message printed for its row
    for (name, label, _, _, error), line in zip(table[1:], printed):
        assert line == f"{name}  {label}: error {error}"


def test_sweep_parses_its_config_once(tmp_path, monkeypatch):
    # every row starts from the sweep's own parse: the file is read once,
    # and an edit made while the sweep runs reaches no row
    from vanishdamp import config

    text = BASE + "\n[sweep]\nmode = grid\nvary = run.t_end\nvalues = 20, 30, 40\n"
    cfg = _cfg(tmp_path, text)
    parses = []
    parse_config = config.parse_config
    monkeypatch.setattr(
        config, "parse_config", lambda path: parses.append(path) or parse_config(path)
    )
    run_scenario = cli._run_scenario

    def edit_after_first_row(run_cfg, write_series=True):
        summary = run_scenario(run_cfg, write_series)
        Path(cfg).write_text(text.replace("c = 1.0", "c = 3.0"))
        return summary

    monkeypatch.setattr(cli, "_run_scenario", edit_after_first_row)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out)]) == 0
    assert parses == [cfg]
    for i in range(3):
        assert _read_summary(out, f"quadshort_row{i:04d}")["config"]["schedule"]["c"] == "1.0"


def test_random_sweep_with_parallel_jobs(tmp_path, capsys):
    text = (
        BASE.replace("t_end = 60.0", "t_end = 20.0")
        + "\n[sweep]\nmode = random\nruns = 4\nseed = 12\nwrite_series = true\n"
    )
    cfg = _cfg(tmp_path, text)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", cfg, "--outdir", str(serial), "--jobs", "1"]) == 0
    assert main(["sweep", cfg, "--outdir", str(parallel), "--jobs", "2"]) == 0

    aggregate = json.loads((parallel / "quadshort_aggregate.json").read_text())
    assert aggregate["rows"] == 4
    assert aggregate["failures"] == 0
    assert (parallel / "quadshort_row0003_series.csv").exists()
    assert "4 rows (0 failed)" in capsys.readouterr().out

    _assert_same_apart_from_clock(serial, parallel)


def test_sweep_starts_no_more_workers_than_rows(tmp_path, monkeypatch):
    # a fork-started pool launches every worker at once, so the pool this
    # fake stands in for would fork max_workers processes
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures):
            pass

    text = BASE.replace("t_end = 60.0", "t_end = 20.0") + (
        "\n[sweep]\nmode = grid\nvary = schedule.c\nvalues = 1.0, 2.0, 3.0\n")
    cfg = _cfg(tmp_path, text)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", cfg, "--outdir", str(serial), "--jobs", "1"]) == 0
    monkeypatch.setattr(workers, "ProcessPoolExecutor", InProcessPool)
    assert main(["sweep", cfg, "--outdir", str(parallel), "--jobs", "1000"]) == 0
    assert asked == [3]
    assert multiprocessing.active_children() == []
    _assert_same_apart_from_clock(serial, parallel)


def _assert_same_apart_from_clock(want_dir, got_dir):
    """The two directories hold the same files with the same lines, apart
    from the wall-clock lines of the summaries."""
    names = sorted(p.name for p in want_dir.iterdir())
    assert names == sorted(p.name for p in got_dir.iterdir())
    for name in names:
        want, got = ((d / name).read_text().splitlines() for d in (want_dir, got_dir))
        assert [line for line in got if "wall_clock_s" not in line] == \
            [line for line in want if "wall_clock_s" not in line], name


def test_recursion_sweep_with_parallel_jobs(tmp_path, record_pools):
    # a serial sweep's [sgd] rows each hand their recursion to a worker
    # process; under --jobs 2 each row runs in a worker, which starts none
    text = (
        BASE.replace("t_end = 60.0", "t_end = 20.0")
        + "\n[sgd]\nrule = PowerDecay\neps0 = 0.05\nrho = 0.7\nsigma = 0.5\nseed = 7\nN = 300\n"
        + "\n[sweep]\nmode = random\nruns = 3\nseed = 12\n"
    )
    cfg = _cfg(tmp_path, text)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    sizes = record_pools(2)
    assert main(["sweep", cfg, "--outdir", str(serial), "--jobs", "1"]) == 0
    assert sizes == [1, 1, 1]
    assert main(["sweep", cfg, "--outdir", str(parallel), "--jobs", "2"]) == 0
    assert sizes == [1, 1, 1, 2]
    assert multiprocessing.active_children() == []

    aggregate = json.loads((parallel / "quadshort_aggregate.json").read_text())
    assert (aggregate["rows"], aggregate["failures"]) == (3, 0)
    for i in range(3):
        assert len((parallel / f"quadshort_row{i:04d}_path.csv").read_text().splitlines()) == 302
    _assert_same_apart_from_clock(serial, parallel)


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_sweep_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = _cfg(tmp_path, BASE + "\n[sweep]\nmode = random\nruns = 2\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", cfg, "--outdir", str(tmp_path / "out"), "--jobs", jobs])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --jobs: expected an integer of at least 1, got '{jobs}'" in err
    assert not (tmp_path / "out").exists()


def test_sweep_continues_past_a_diverging_recursion(tmp_path, capsys):
    text = BASE + DIVERGING + "\n[sweep]\nmode = grid\nvary = sgd.eps0\nvalues = 0.01, 1e6\n"
    out = tmp_path / "out"
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(out)]) == 0
    assert "2 rows (1 failed)" in capsys.readouterr().out
    table = (out / "quadshort_sweep.csv").read_text().splitlines()
    assert table[2].startswith("quadshort_row0001,sgd.eps0=1e6,error,,NonFiniteState: ")
    # the failed row wrote nothing, the other row all it writes
    assert sorted(p.name for p in out.iterdir()) == [
        "quadshort_aggregate.json", "quadshort_row0000_path.csv",
        "quadshort_row0000_summary.json", "quadshort_sweep.csv",
    ]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# bundled example configs


@pytest.mark.parametrize(
    "command,name",
    [("run", "j0"), ("sweep", "quadratic_csweep"), ("sweep", "doublewell_sweep")],
)
def test_bundled_examples_run(tmp_path, command, name):
    # each shipped config runs as documented; t_end is cut short for speed
    text = (EXAMPLES / f"{name}.cfg").read_text()
    short, count = re.subn(r"(?m)^t_end = .*$", "t_end = 20.0", text)
    assert count == 1
    out = tmp_path / "out"
    assert main([command, _cfg(tmp_path, short, f"{name}.cfg"), "--outdir", str(out)]) == 0
    if command == "run":
        assert _read_summary(out, name)["verdict"]["verdict"] in VERDICTS
    else:
        rows = (out / f"{name}_sweep.csv").read_text().splitlines()
        assert len(rows) > 2
        assert (out / f"{name}_aggregate.json").exists()
