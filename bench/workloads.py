"""The four benchmark workloads: seeded inputs, command lines and gates.

Every workload runs through ``vanishdamp.cli.main``, the code path of the
``vanishdamp`` command.  Inputs are generated here from the ``--seed``
argument; the program only ever sees the generated config file.  Each
workload states why it was chosen and which per-layer metric should move
which end-to-end metric on it, so that a later performance claim can be
checked against a prediction written down before the change.

Seed 9001 is held out: tune against any other seed and confirm a claim on
9001 before reporting it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

# a sweep row or a run is correct only if the rate lower bound holds to
# this slack (the bound is a theorem; negative slack is integrator drift)
RESIDUAL_FLOOR = -1e-8
# |E(0) - D(t) - E(t)| over the long run, relative to max(1, E(0)); the
# measured worst case over the start box is about 7e-6 at rel_tol 1e-6
LEDGER_TOL = 1e-4
DRIFT_IDENTITY_TOL = 1e-10

# whitespace-led JSON lines holding wall-clock readings, which are the
# only parts of the artifacts allowed to differ between repetitions
CLOCK_LINE = re.compile(r'\s*"(wall_clock_s|seconds)": ')

SWEEP_ROWS = 32
TINY_SWEEP_ROWS = 2


@dataclass
class Gate:
    """Outcome of one repetition's correctness check."""

    attempted: int
    failed: int
    reasons: List[str]
    counts: Dict[str, int]
    extra: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (per-layer metric, end-to-end metric it should move, expected share)
    predictions: Tuple[Tuple[str, str, str], ...]
    write_inputs: Callable[[int, Path, bool], List[str]]
    # (outdir, exit code, stdout, tiny, trajectory from a traced run or None)
    check: Callable[[Path, int, str, bool, object], Gate]


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with SHA-512, so inputs repeat across platforms
    return random.Random(f"{workload}:{seed}")


def _config(sections: Dict[str, Dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _summary(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _solver_counts(summaries: List[dict]) -> Dict[str, int]:
    solver = [s["solver"] for s in summaries]
    return {
        "ode_accepted": sum(s["accepted"] for s in solver),
        "ode_rejected": sum(s["rejected"] for s in solver),
        "rhs_evals": sum(s["rhs_evals"] for s in solver),
        "events": sum(s["events"]["count"] for s in summaries),
        "samples": sum(s["samples"] for s in solver),
        "stride_max": max((s["stride"] for s in solver), default=0),
    }


def clock_free(lines: Iterable[str]) -> Iterator[str]:
    """The lines that hold no wall-clock reading."""
    return (line for line in lines if not CLOCK_LINE.match(line))


def artifact_pieces(path: Path) -> Iterator[bytes]:
    """An artifact's bytes without its wall-clock lines, a little at a time.

    Only the JSON summaries carry clock fields and are read line by line;
    the CSVs are read in 1 MiB blocks, so no artifact is held whole.
    """
    if path.suffix == ".json":
        with open(path) as fh:
            for line in clock_free(fh):
                yield line.encode()
    else:
        with open(path, "rb") as fh:
            yield from iter(lambda: fh.read(1 << 20), b"")


def _bytes_written(outdir: Path) -> int:
    return sum(len(piece) for p in outdir.iterdir() if p.is_file() for piece in artifact_pieces(p))


def _residual_ok(summary: dict) -> bool:
    value = summary.get("lower_bound_residual")
    return value is not None and value >= RESIDUAL_FLOOR


def _verdict(summary: dict) -> Optional[str]:
    block = summary.get("verdict")
    return block["verdict"] if block else None


# well_sweep ------------------------------------------------------------

def _sweep_inputs(seed: int, workdir: Path, tiny: bool) -> List[str]:
    rows = TINY_SWEEP_ROWS if tiny else SWEEP_ROWS
    cfg = _config({
        "scenario": {"name": "well_sweep"},
        "schedule": {"kind": "PowerLaw", "c": 1.0, "gamma": 1.0, "s0": 1.0},
        "potential": {"kind": "DoubleWell"},
        "run": {"t_end": "1e3", "rel_tol": "1e-6"},
        "sweep": {"mode": "random", "runs": rows,
                  "seed": _rng("well_sweep", seed).getrandbits(32)},
    })
    path = _write(workdir / "well_sweep.cfg", cfg)
    return ["sweep", path, "--outdir", str(workdir / "out"), "--jobs", "1"]


def _sweep_check(outdir: Path, rc: int, stdout: str, tiny: bool, traj) -> Gate:
    planned = TINY_SWEEP_ROWS if tiny else SWEEP_ROWS
    reasons: List[str] = []
    table_path = outdir / "well_sweep_sweep.csv"
    if rc != 0 or not table_path.is_file():
        return Gate(planned, planned, [f"sweep exited {rc}, table written: {table_path.is_file()}"], {}, {})
    with open(table_path, newline="") as fh:
        table = list(csv.DictReader(fh))
    summaries = []
    for row in table:
        summary = _summary(outdir / f"{row['row']}_summary.json")
        if row["error"] or summary is None:
            reasons.append(f"{row['row']}: {row['error'] or 'no summary'}")
            continue
        summaries.append(summary)
        if row["verdict"] != "ConvergesToMin":
            reasons.append(f"{row['row']}: verdict {row['verdict']}")
        elif not _residual_ok(summary):
            reasons.append(f"{row['row']}: lower_bound_residual {summary['lower_bound_residual']}")
    missing = planned - len(table)
    if missing:
        reasons.append(f"{missing} rows missing from the sweep table")
    counts = _solver_counts(summaries)
    counts["rows"] = len(table)
    counts["bytes_written"] = _bytes_written(outdir)
    return Gate(planned, len(reasons), reasons, counts, {})


# long_run --------------------------------------------------------------

def _long_inputs(seed: int, workdir: Path, tiny: bool) -> List[str]:
    rng = _rng("long_run", seed)
    x0, v0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    cfg = _config({
        "scenario": {"name": "long_run"},
        "schedule": {"kind": "PowerLaw", "c": 1.0, "gamma": 1.0, "s0": 1.0},
        "potential": {"kind": "DoubleWell"},
        "run": {"x0": repr(x0), "v0": repr(v0),
                "t_end": "1e3" if tiny else "1e5", "rel_tol": "1e-6"},
    })
    path = _write(workdir / "long_run.cfg", cfg)
    return ["run", path, "--outdir", str(workdir / "out")]


def _energy_ledger(traj) -> float:
    """max |E(0) - D(t) - E(t)| over the stored samples, relative to max(1, E(0))."""
    e0 = float(traj.energies[0])
    return float(abs(e0 - traj.dissipation - traj.energies).max()) / max(1.0, abs(e0))


def _long_check(outdir: Path, rc: int, stdout: str, tiny: bool, traj) -> Gate:
    if rc != 0:
        return Gate(1, 1, [f"run exited {rc}"], {}, {})
    summary = _summary(outdir / "long_run_summary.json")
    if summary is None:
        return Gate(1, 1, ["no summary written"], {}, {})
    reasons = []
    if _verdict(summary) != "ConvergesToMin":
        reasons.append(f"verdict {_verdict(summary)}")
    if not _residual_ok(summary):
        reasons.append(f"lower_bound_residual {summary['lower_bound_residual']}")
    extra: Dict[str, object] = {}
    if traj is not None:
        ledger = _energy_ledger(traj)
        extra["energy_ledger"] = ledger
        if not ledger <= LEDGER_TOL:
            reasons.append(f"energy ledger {ledger:.3e} above {LEDGER_TOL:g}")
    counts = _solver_counts([summary])
    counts["bytes_written"] = _bytes_written(outdir)
    return Gate(1, 1 if reasons else 0, reasons, counts, extra)


# plane_sgd -------------------------------------------------------------

def _plane_inputs(seed: int, workdir: Path, tiny: bool) -> List[str]:
    rng = _rng("plane_sgd", seed)
    # a unit start with zero velocity keeps the step count within about
    # 1% across seeds; a random speed would spread it by 10%
    u = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in u))
    x0 = ", ".join(repr(c / norm) for c in u)
    cfg = _config({
        "scenario": {"name": "plane_sgd"},
        "schedule": {"kind": "PowerLaw", "c": 1.0, "gamma": 1.0, "s0": 1.0},
        "potential": {"kind": "PPower", "p": 4, "n": 3},
        "run": {"x0": x0, "v0": 0.0, "t_end": 200 if tiny else 2000, "rel_tol": "1e-8"},
        "sgd": {"rule": "PowerDecay", "eps0": 0.05, "rho": 0.7, "sigma": 0.5,
                "seed": rng.getrandbits(32), "N": _plane_steps(tiny)},
    })
    path = _write(workdir / "plane_sgd.cfg", cfg)
    return ["run", path, "--outdir", str(workdir / "out")]


def _plane_steps(tiny: bool) -> int:
    return 500 if tiny else 30000


def _plane_check(outdir: Path, rc: int, stdout: str, tiny: bool, traj) -> Gate:
    if rc != 0:
        return Gate(1, 1, [f"run exited {rc}"], {}, {})
    summary = _summary(outdir / "plane_sgd_summary.json")
    if summary is None or summary.get("sgd") is None:
        return Gate(1, 1, ["no sgd summary written"], {}, {})
    sgd = summary["sgd"]
    reasons = []
    if not sgd["drift_identity_max"] <= DRIFT_IDENTITY_TOL:
        reasons.append(f"drift_identity_max {sgd['drift_identity_max']}")
    if not math.isfinite(sgd["ode_deviation"]):
        reasons.append(f"ode_deviation {sgd['ode_deviation']}")
    path_csv = outdir / "plane_sgd_path.csv"
    path_rows = path_csv.read_text().count("\n") - 1 if path_csv.is_file() else 0
    if path_rows != _plane_steps(tiny) + 1:
        reasons.append(f"{path_rows} path rows, want {_plane_steps(tiny) + 1}")
    counts = _solver_counts([summary])
    counts["recursion_steps"] = sgd["n_steps"]
    counts["path_rows"] = path_rows
    counts["bytes_written"] = _bytes_written(outdir)
    return Gate(1, 1 if reasons else 0, reasons, counts, {})


# verify ----------------------------------------------------------------

# A8's fixture, 20 double-well members to t=1e4, is 16 of the full suite's
# 21 s, and A9 and A10 build it too.  One repetition of the whole suite per
# run leaves nothing to take a median over, and no run was steady that way,
# so the three are left out; that fixture's work, a scalar-stepper
# ensemble, is what well_sweep measures.
CRITERIA = tuple(f"A{k}" for k in range(1, 14) if k not in (8, 9, 10))
TINY_CRITERIA = ("A1", "A7", "A12")


def _verify_inputs(seed: int, workdir: Path, tiny: bool) -> List[str]:
    # the suite runs on fixed internal seeds, so --seed changes nothing here
    return ["verify", "--json", "--only", ",".join(TINY_CRITERIA if tiny else CRITERIA)]


def _verify_report(stdout: str) -> List[dict]:
    """The JSON array that ``verify --json`` prints between its progress lines."""
    lines = stdout.splitlines()
    start = lines.index("[")
    end = len(lines) - 1 - lines[::-1].index("]")
    return json.loads("\n".join(lines[start:end + 1]))


def _verify_check(outdir: Path, rc: int, stdout: str, tiny: bool, traj) -> Gate:
    wanted = TINY_CRITERIA if tiny else CRITERIA
    try:
        report = {r["id"]: r for r in _verify_report(stdout)}
    except ValueError:
        return Gate(len(wanted), len(wanted), [f"no JSON report (exit {rc})"], {}, {})
    reasons = []
    for cid in wanted:
        result = report.get(cid)
        if result is None:
            reasons.append(f"{cid} missing")
        elif not result["passed"]:
            reasons.append(f"{cid} FAIL {result['detail']}")
    if rc != 0:
        reasons.append(f"verify exited {rc}, want 0")
    return Gate(len(wanted), min(len(wanted), len(reasons)), reasons, {"criteria": len(report)}, {})


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="well_sweep",
            why=(
                "many short double-well members sharing schedule, potential and t_end: "
                "the traffic an ensemble kernel would batch, with per-row analysis cost"
            ),
            predictions=(
                ("integrate.scalar.us_per_step", "wall_s", "52%"),
                ("analyze.classify_limit.s", "wall_s", "39%"),
                ("analyze.lower_bound_residual.s", "wall_s", "7%"),
                ("config.load_run_config.s", "wall_s", "0.2%: caching it should gain nothing"),
                ("cli.self_s", "wall_s", "no change: write_series is off"),
            ),
            write_inputs=_sweep_inputs,
            check=_sweep_check,
        ),
        Workload(
            name="long_run",
            why=(
                "one double-well member to t=1e5: batching cannot help; per-step scalar cost, "
                "event refinement, stride thinning and the CSV writer dominate"
            ),
            predictions=(
                ("integrate.scalar.us_per_step", "wall_s", "78%"),
                ("cli.write_mb_per_s", "wall_s", "17% (series and events CSV)"),
                ("analyze.s", "wall_s", "under 5%"),
                ("integrate.samples", "peak_rss_mb", "stored samples and stride doubling"),
            ),
            write_inputs=_long_inputs,
            check=_long_check,
        ),
        Workload(
            name="plane_sgd",
            why=(
                "3-D PPower run plus the averaged-gradient recursion: the only workload "
                "where the array stepper and the vector recursion do the work"
            ),
            predictions=(
                ("integrate.array.us_per_step", "wall_s", "52%"),
                ("sgd.vector.us_per_step", "wall_s", "29%"),
                ("cli.write_mb_per_s", "wall_s", "12% (path CSV)"),
                ("integrate.scalar.us_per_step", "wall_s", "about 0%"),
            ),
            write_inputs=_plane_inputs,
            check=_plane_check,
        ),
        Workload(
            name="verify",
            why=(
                "the acceptance suite but A8-A10 (their shared ensemble is 80% of the suite): "
                "the only workload that runs oracle and acceptance"
            ),
            predictions=(
                ("acceptance.A11.s", "wall_s", "about 23%"),
                ("acceptance.A2.s", "wall_s", "about 21%"),
                ("sgd.run_recursion.s", "wall_s", "A12, about 13%"),
                ("oracle.s", "wall_s", "about 5%"),
            ),
            write_inputs=_verify_inputs,
            check=_verify_check,
        ),
    )
}
