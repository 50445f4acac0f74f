"""Command-line runner, in process.

Each test invokes ``main`` directly with a temp config and inspects exit
codes, console output, and the CSV/JSON artifacts.
"""

import hashlib
import json
import re
import warnings
from pathlib import Path

import pytest

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
    assert all(",error,,NonFiniteState: " in row for row in table[1:])
    assert "3 rows (3 failed)" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "text, pins",
    [
        (WELL_SHORT, {
            "series": "ce55c632a2536b6afe7be016e72cb4d7960915fa7b4ba621c21d22d63eaf4915",
            "events": "b4661c297f0eca03f48fa7d43936372cddee6a641065636b72969a84b72e6206",
        }),
        (PLANE_SGD, {
            "series": "978975c55533ebf22d7ca559ac8791395a9126e310f1b5f97a252849cbc2c518",
            "path": "fc44926f2a411d0be4b058250319d722c51624c59bb50e447eff460ab2dc4421",
        }),
    ],
    ids=["double_well_n1", "ppower_sgd_n3"],
)
def test_csv_bytes_are_pinned(tmp_path, text, pins):
    # SHA-256 of the CSV bytes _series_csv, _events_csv and _path_csv write
    # (shortest round-trip floats): any change to the writers' output, or to
    # the numbers they print, shows up here
    assert main(["run", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 0
    for kind, digest in pins.items():
        data = (tmp_path / f"quadshort_{kind}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, kind


# ---------------------------------------------------------------------------
# verify and oracle


def test_verify_list_names_every_criterion_once(capsys):
    assert main(["verify", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == [f"A{k}" for k in range(1, 14)]
    assert all(len(ln.split(None, 1)[1]) > 10 for ln in lines)


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


def test_random_sweep_with_parallel_jobs_env(tmp_path, monkeypatch, capsys):
    text = (
        BASE.replace("t_end = 60.0", "t_end = 20.0")
        + "\n[sweep]\nmode = random\nruns = 4\nseed = 12\nwrite_series = true\n"
    )
    out = tmp_path / "out"
    monkeypatch.setenv("VANISH_DAMP_JOBS", "2")
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(out)]) == 0

    aggregate = json.loads((out / "quadshort_aggregate.json").read_text())
    assert aggregate["rows"] == 4
    assert aggregate["failures"] == 0
    assert (out / "quadshort_row0003_series.csv").exists()
    assert "4 rows (0 failed)" in capsys.readouterr().out


def test_bad_jobs_env_exits_2(tmp_path, monkeypatch, capsys):
    text = BASE + "\n[sweep]\nmode = grid\nvary = schedule.c\nvalues = 1\n"
    monkeypatch.setenv("VANISH_DAMP_JOBS", "many")
    assert main(["sweep", _cfg(tmp_path, text), "--outdir", str(tmp_path)]) == 2
    assert "VANISH_DAMP_JOBS expects an integer" in capsys.readouterr().err


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
