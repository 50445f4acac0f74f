"""Command-line scenario runner.

Subcommands (``run``, ``sweep`` and ``verify`` hand their independent
calls to a ``workers.Pool``; see README, "Worker processes"):

* ``run <cfg>``: integrate one configured scenario, analyze it, and
  write ``<name>_series.csv``, ``<name>_events.csv`` and
  ``<name>_summary.json`` (plus ``<name>_path.csv`` when the config has
  an [sgd] section, whose recursion runs beside the integration).
* ``sweep <cfg>``: run a grid or random-start family of scenarios,
  writing one summary per row plus an aggregate table.
* ``verify [--list] [--only IDS]``: run the built-in acceptance suite,
  or the comma-separated criteria of ``--only`` (each once, in
  registration order).  A criterion's ``seconds`` in ``--json`` is the
  wait for its runs plus its judgement.
* ``oracle <kind>``: print closed-form reference values.

Exit codes: 0 success, 1 criterion failure, 2 config error, 3 solver
failure.  Artifacts are written atomically: each goes to a temp file
beside its name, a CSV one block of rows at a time as it is formatted,
and is renamed into place once whole, so no CSV is held whole in
memory.  All numbers use the shortest round-trip form, so re-running
a scenario with the same config and seed reproduces the files byte for
byte apart from the wall-clock field inside the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from . import acceptance
from .analyze import classify_limit, lower_bound_residual, rate_fit
from .config import ParsedConfig, RunConfig, build_sweep_plan, config_echo, load_run_config
from .errors import ConfigError, SolverError, VanishDampError
from .integrate import Trajectory, integrate
from .oracle import bessel_j, linear_regular_solution, power_law_exact
from .potential import Potential
from .sgd import DiscretePath, NoiseModel, StepSchedule, compare_to_ode, run_recursion
from .workers import Pool

__all__ = ["main"]


# characters written at a time when an artifact is text: the encoder never
# holds a second copy of the whole of it
_WRITE_SLICE = 1 << 20


@contextlib.contextmanager
def _staged(path: Path, mode: str = "wb"):
    """A file opened beside ``path`` that is renamed over ``path`` when the
    block ends.  A failure anywhere in the block, a write or the rename,
    removes the file and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, data: Union[str, bytes, bytearray]) -> None:
    """Write the whole of ``data``, text or bytes, to ``path`` through
    ``_staged``, one slice at a time."""
    with _staged(path, "w" if isinstance(data, str) else "wb") as handle:
        for start in range(0, len(data), _WRITE_SLICE):
            handle.write(data[start:start + _WRITE_SLICE])


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell (RFC 4180): quoted, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# rows formatted per block: the cells of one block, as strings, stay well
# under 1 MB
_CSV_BLOCK_ROWS = 1024


def _csv(handle: BinaryIO, header: List[str], columns: list) -> None:
    """Write the ASCII CSV of equal-length columns to ``handle``, each
    ``_CSV_BLOCK_ROWS`` rows as soon as they are formatted, so that no more
    than one block of the artifact is held: float arrays in shortest
    round-trip form, ``range`` index columns with ``str``."""
    handle.write((",".join(header) + "\n").encode("ascii"))
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [column[lo:lo + _CSV_BLOCK_ROWS] for column in columns]
        # repr of the Python floats tolist() gives is _fmt of each entry
        cells = [map(str, c) if isinstance(c, range) else map(repr, c.tolist()) for c in block]
        handle.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode("ascii"))


def _names(prefix: str, n: int) -> List[str]:
    return [f"{prefix}_{i}" for i in range(n)]


def _series_csv(traj: Trajectory, target: Path) -> None:
    header = ["t", *_names("x", traj.n), *_names("v", traj.n), "E", "a", "gnorm"]
    a = traj.spec.schedule.a_values(traj.ts)
    gnorm = traj.spec.potential.grad_norms(traj.xs)
    with _staged(target) as handle:
        _csv(handle, header, [traj.ts, *traj.xs.T, *traj.vs.T, traj.energies, a, gnorm])


def _events_csv(traj: Trajectory, target: Path) -> None:
    events = traj.events
    header = ["i", "t", *_names("x", traj.n), "E"]
    with _staged(target) as handle:
        _csv(handle, header, [range(len(events)), events.time, *events.x.T, events.energy])


def _path_csv(path: DiscretePath, target: Path) -> None:
    header = ["n", "tau", *_names("h", path.dim), *_names("x", path.dim)]
    with _staged(target) as handle:
        _csv(handle, header, [range(len(path.tau)), path.tau, *path.h.T, *path.x.T])


def _fit_block(traj: Trajectory) -> Optional[dict]:
    ts = traj.ts
    t_end = float(ts[-1])
    first = int(np.searchsorted(ts, 0.0, side="right"))  # the first positive time
    lo = max(t_end / 100.0, float(ts[first]) if first < len(ts) else 0.0)
    if not lo < t_end:
        return None
    phase = np.sum(traj.xs**2, axis=1) + np.sum(traj.vs**2, axis=1)
    try:
        return rate_fit(ts, phase, (lo, t_end), model="PowerLaw").as_dict()
    except VanishDampError:
        return None


def _summarize(run_cfg: RunConfig, traj: Trajectory, wall: float) -> dict:
    et = traj.events.time
    count = len(et)
    verdict_block = classify_limit(traj).as_dict() if traj.n == 1 else None
    event_block = {
        "count": count,
        "first_time": float(et[0]) if count else None,
        "last_time": float(et[-1]) if count else None,
        "last_gap": float(et[-1] - et[-2]) if count > 1 else None,
    }
    return {
        "name": run_cfg.name,
        "config": config_echo(run_cfg.parsed),
        "wall_clock_s": round(wall, 4),
        "solver": {**traj.stats.as_dict(), "samples": len(traj.ts)},
        "events": event_block,
        "energy": {
            "initial": float(traj.energies[0]),
            "final": float(traj.energies[-1]),
        },
        "verdict": verdict_block,
        "rate_fit": _fit_block(traj),
        "lower_bound_residual": lower_bound_residual(traj),
    }


def _recursion_half(
    pot: Potential, sgd: Tuple[StepSchedule, NoiseModel, int], x0, staged: Path
) -> dict:
    """The [sgd] half of a run, as ``_run_scenario``'s pool runs it: the
    recursion, its comparison with the limiting ODE and the summary
    block.  The path CSV goes to ``staged``, beside its final name."""
    steps, noise, n_steps = sgd
    path = run_recursion(pot, steps, noise, x0, n_steps)
    comparison = compare_to_ode(path, pot)
    staged.parent.mkdir(parents=True, exist_ok=True)
    _path_csv(path, staged)
    return {
        "n_steps": path.n_steps,
        "final_tau": float(path.tau[-1]),
        "final_x": [float(v) for v in path.x[-1]],
        "drift_identity_max": path.drift_identity_max,
        "ode_deviation": comparison.deviation,
        "ode_metric": comparison.metric,
    }


def _run_scenario(run_cfg: RunConfig, write_series: bool = True) -> dict:
    path_csv = run_cfg.outdir / f"{run_cfg.name}_path.csv"
    staged = path_csv.with_name(path_csv.name + ".staged")
    recursion = None
    with contextlib.ExitStack() as stack:
        if run_cfg.sgd is not None:
            # the recursion shares nothing with the integration until the
            # summary, so a worker may run it meanwhile.  Leaving the
            # block waits for the worker, then removes the staged path CSV
            # unless it was moved into place
            stack.callback(staged.unlink, missing_ok=True)
            pool = stack.enter_context(Pool(1, here=1))
            recursion = pool.submit(
                _recursion_half, run_cfg.spec.potential, run_cfg.sgd, run_cfg.spec.x0, staged
            )
        started = time.perf_counter()
        traj = integrate(run_cfg.spec)
        summary = _summarize(run_cfg, traj, time.perf_counter() - started)
        if recursion is None:
            summary["sgd"] = None
        else:
            summary["sgd"] = recursion.result()
            os.replace(staged, path_csv)

    run_cfg.outdir.mkdir(parents=True, exist_ok=True)
    if write_series:
        _series_csv(traj, run_cfg.outdir / f"{run_cfg.name}_series.csv")
        _events_csv(traj, run_cfg.outdir / f"{run_cfg.name}_events.csv")
    _atomic_write(
        run_cfg.outdir / f"{run_cfg.name}_summary.json",
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    return summary


def _cmd_run(args: argparse.Namespace) -> int:
    run_cfg = load_run_config(args.config, outdir=args.outdir)
    summary = _run_scenario(run_cfg)
    verdict = summary["verdict"]["verdict"] if summary["verdict"] else "n/a"
    fit = summary["rate_fit"]
    slope = f"{fit['exponent']:.4f}" if fit else "n/a"
    print(f"{run_cfg.name}: verdict {verdict}, rate exponent {slope}, "
          f"{summary['events']['count']} events, "
          f"{summary['solver']['accepted']} steps")
    print(f"wrote {run_cfg.outdir / (run_cfg.name + '_summary.json')}")
    return 0


def _sweep_row(parsed: ParsedConfig, overrides: Dict[Tuple[str, str], str],
               outdir: Optional[str], row_name: str, write_series: bool) -> dict:
    try:
        run_cfg = load_run_config(parsed, overrides=overrides, outdir=outdir)
        run_cfg.name = row_name
        summary = _run_scenario(run_cfg, write_series=write_series)
        summary["error"] = None
        return summary
    except VanishDampError as exc:
        return {"name": row_name, "error": f"{type(exc).__name__}: {exc}"}


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = load_run_config(args.config, outdir=args.outdir)
    plan = build_sweep_plan(base.parsed, base.spec.potential)
    # every row starts from this one parse, so an edit to the file while
    # the sweep runs reaches no row
    with Pool(len(plan.rows), cap=args.jobs) as pool:
        futures = [pool.submit(_sweep_row, base.parsed, overrides, args.outdir,
                               f"{base.name}_row{i:04d}", plan.write_series)
                   for i, overrides in enumerate(plan.rows)]
        summaries = [future.result() for future in futures]

    rows = []
    verdict_counts: Dict[str, int] = {}
    location_counts: Dict[str, int] = {}
    slopes = []
    failures = 0
    for label, summary in zip(plan.labels, summaries):
        if summary["error"] is not None:
            failures += 1
            rows.append((summary["name"], label, "error", "", summary["error"]))
            continue
        verdict = summary["verdict"]["verdict"] if summary["verdict"] else "n/a"
        verdict_counts[verdict] = verdict_counts.get(verdict, 0) + 1
        if (
            summary["verdict"]
            and verdict in ("ConvergesToMin", "ConvergesToMax")
            and summary["verdict"]["nearest_location"] is not None
        ):
            # adding 0.0 after rounding folds -0.0 into 0.0
            loc = f"{round(summary['verdict']['nearest_location'], 3) + 0.0:.3f}"
            location_counts[loc] = location_counts.get(loc, 0) + 1
        fit = summary["rate_fit"]
        slope = fit["exponent"] if fit else None
        if slope is not None:
            slopes.append(slope)
        rows.append(
            (summary["name"], label, verdict, "" if slope is None else _fmt(slope), "")
        )

    total = len(summaries)
    aggregate = {
        "rows": total,
        "failures": failures,
        "fraction_by_verdict": {
            k: v / total for k, v in sorted(verdict_counts.items())
        },
        "fraction_by_location": {
            k: v / total for k, v in sorted(location_counts.items())
        },
        "mean_rate_exponent": float(np.mean(slopes)) if slopes else None,
    }

    outdir = Path(args.outdir) if args.outdir is not None else base.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    table = ["row,label,verdict,rate_exponent,error"]
    for row in rows:
        table.append(",".join(map(_csv_cell, row)))
    _atomic_write(outdir / f"{base.name}_sweep.csv", "\n".join(table) + "\n")
    _atomic_write(
        outdir / f"{base.name}_aggregate.json",
        json.dumps(aggregate, indent=2, sort_keys=True) + "\n",
    )

    for name, label, verdict, slope, error in rows:
        tail = error if error else (f"rate {slope}" if slope else "")
        print(f"{name}  {label}: {verdict} {tail}".rstrip())
    print(
        f"{total} rows ({failures} failed); verdict fractions "
        + json.dumps(aggregate["fraction_by_verdict"], sort_keys=True)
    )
    print(f"wrote {outdir / (base.name + '_sweep.csv')}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for cid, title in acceptance.list_criteria():
            print(f"{cid}  {title}")
        return 0
    ids = [cid.strip() for cid in args.only.split(",")] if args.only else None
    results = acceptance.run_criteria(ids=ids, progress=lambda r: print(r.line(), flush=True))
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2, sort_keys=True))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# kind: (the option it needs, header, the values after t); the lambdas
# call the oracle functions through this module's names
_ORACLES = {
    "bessel": ("nu", "t,value", lambda nu, t: (bessel_j(nu, t),)),
    "linear": ("c", "t,value", lambda c, t: (linear_regular_solution(c, t),)),
    "power": ("beta", "t,x,v,c", lambda beta, t: power_law_exact(beta, t)),
}


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        times = [float(t) for t in args.t]
    except ValueError:
        raise ConfigError(f"--t expects numbers, got {args.t}") from None
    if args.kind not in _ORACLES:
        raise ConfigError(f"unknown oracle kind '{args.kind}'; expected bessel, linear or power")
    option, header, values = _ORACLES[args.kind]
    param = getattr(args, option)
    if param is None:
        raise ConfigError(f"oracle {args.kind} needs --{option}")
    # every row is computed before the first is printed, so a refused
    # time prints none
    rows = [",".join(map(_fmt, (t, *values(param, t)))) for t in times]
    print(header, *rows, sep="\n")
    return 0


def _jobs(text: str) -> int:
    jobs = int(text) if text.strip().isdecimal() else 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanishdamp",
        description="Run, sweep and verify damped gradient-system scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured scenario")
    p_run.add_argument("config", help="path to a scenario config")
    p_run.add_argument("--outdir", default=None, help="artifact directory override")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a configured family of scenarios")
    p_sweep.add_argument("config", help="path to a scenario config with a [sweep] section")
    p_sweep.add_argument("--outdir", default=None, help="artifact directory override")
    p_sweep.add_argument("--jobs", type=_jobs, default=1,
                         help="most rows run at once, at least 1 (default: 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--list", action="store_true", help="list criteria and exit")
    p_verify.add_argument("--only", default=None,
                          help="comma-separated criterion ids to run")
    p_verify.add_argument("--json", action="store_true",
                          help="also print the full report as JSON")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="print closed-form reference values")
    p_oracle.add_argument("kind", help="bessel, linear or power")
    p_oracle.add_argument("--nu", type=float, default=None, help="order (bessel)")
    p_oracle.add_argument("--c", type=float, default=None, help="damping amplitude (linear)")
    p_oracle.add_argument("--beta", type=float, default=None, help="decay exponent (power)")
    p_oracle.add_argument("--t", nargs="+", required=True, help="evaluation times")
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except VanishDampError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
