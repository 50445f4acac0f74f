"""Benchmark of vanishdamp: four workloads, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --tiny --trace 1 --seconds 0   # smoke: all four in seconds

NAME is one of well_sweep, long_run, plane_sgd, verify (see
``workloads.py`` for what each runs and why).  The package is imported
from ``src/`` next to this directory, so the benchmark runs from a plain
source checkout; it writes only under ``.bench_out/`` there.

One run:

1. times ``import vanishdamp.cli`` plus input generation in fresh
   interpreters (``setup_s`` is the median of several);
2. runs the workload at smoke size once to finish lazy set-up;
3. repeats the workload's command through ``vanishdamp.cli.main`` until
   ``--seconds`` have passed, checking every repetition's outputs and that
   its artifacts (apart from the wall-clock fields) and exact work counts
   are identical to the first repetition's;
4. prints every metric as ``metric <workload> <name> <value> <unit>`` and,
   as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

Timings are medians over the repetitions.  ``setup_s``, ``wall_s`` and
``cpu_s`` are in reference seconds, corrected for the host's speed as a
fixed micro-kernel sampled all through the timed code sees it
(``speed.py``), because a shared host's speed swings far more from minute
to minute than any change worth catching.  The raw seconds are printed
beside them as ``setup_raw_s``, ``wall_raw_s`` and ``cpu_raw_s``, and the
per-layer times are raw.  With ``--trace 0`` the result line holds the
end-to-end metrics.  With ``--trace 1`` the repetitions
alternate between untraced and traced, and the result line holds the
per-layer metrics of the traced ones, including the tracing overhead
(traced minus untraced wall time).  ``rows_per_s`` (sweep rows per second,
``well_sweep`` only) and ``error_rate`` (failed over attempted operations)
are printed as metric lines; the result line carries the error rate as
``failed`` and ``attempted``.

Each run also writes ``.bench_out/<workload>/result-seed<N>-trace<T>.json``
(machine record, exact work counts, every repetition's wall time) and,
when traced, the spans as ``spans-seed<N>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

from spans import LAYERS, Tracer, layer_metrics, write_spans  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import CRITERIA, WORKLOADS, Gate, artifact_pieces, clock_free  # noqa: E402

SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
REPORTED = (
    ("rows_per_s", "1/s"),
    ("error_rate", "ratio"),
    ("setup_raw_s", "s"),
    ("wall_raw_s", "s"),
    ("cpu_raw_s", "s"),
)


def _per_layer() -> tuple:
    units = []
    for layer in LAYERS:
        units += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
    units += [(f"integrate.{k}", "count")
              for k in ("accepted", "rejected", "rhs_evals", "events", "samples", "stride_max")]
    units += [
        ("integrate.accept_ratio", "ratio"),
        ("integrate.scalar.us_per_step", "us"),
        ("integrate.array.us_per_step", "us"),
        ("analyze.classify_limit.s", "s"),
        ("analyze.lower_bound_residual.s", "s"),
        ("analyze.rate_fit.s", "s"),
        ("analyze.other.s", "s"),
        ("sgd.run_recursion.s", "s"),
        ("sgd.compare_to_ode.s", "s"),
        ("sgd.steps", "count"),
        ("sgd.scalar.us_per_step", "us"),
        ("sgd.vector.us_per_step", "us"),
        ("cli.bytes_written", "count"),
        ("cli.write_s", "s"),
        ("cli.write_mb_per_s", "MB/s"),
        ("config.load_run_config.s", "s"),
    ]
    units += [(f"acceptance.{cid}.s", "s") for cid in CRITERIA]
    units += [
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return tuple(units)


PER_LAYER = _per_layer()
UNITS = dict(END_TO_END + REPORTED + PER_LAYER)


def _import_cli():
    """Import ``vanishdamp.cli`` from this checkout's ``src``, or exit 2."""
    if not (SRC / "vanishdamp" / "__init__.py").is_file():
        print(f"bench: no vanishdamp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vanishdamp.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "vanishdamp":
        print(f"bench: imported vanishdamp from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _digest(outdir: Path, stdout: str) -> str:
    h = hashlib.sha256()
    for line in clock_free(stdout.splitlines(keepends=True)):
        h.update(line.encode())
    if outdir.is_dir():
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode() + b"\0")
            for piece in artifact_pieces(path):
                h.update(piece)
    return h.hexdigest()


def _machine() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            sha = done.stdout.strip()
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _probe_setup(name: str, seed: int, tiny: bool) -> Tuple[float, float]:
    """Raw and reference seconds a fresh interpreter needs to import the CLI
    and write the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw, ref = done.stdout.strip().splitlines()[-1].split()
    return float(raw), float(ref)


@dataclass
class Rep:
    """One repetition of the workload's command."""

    traced: bool
    # raw seconds; untraced repetitions also in reference seconds (speed.py)
    wall_raw: float = 0.0
    cpu_raw: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    # wall time of the whole repetition, checks included
    total: float = 0.0
    digest: str = ""
    gate: Optional[Gate] = None
    layer: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _run_once(cli, workload, argv: List[str], outdir: Path, tiny: bool,
              tracer: Optional[Tracer]) -> Rep:
    began = time.perf_counter()
    rep = Rep(tracer is not None)
    shutil.rmtree(outdir, ignore_errors=True)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    out = io.StringIO()
    failure = None
    clock = SpeedClock() if tracer is None else contextlib.nullcontext()
    try:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with clock, contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            # a crash is a failed operation, not the end of the benchmark
            rc, failure = -1, traceback.format_exc()
        if tracer is None:
            rep.wall_raw, rep.cpu_raw = clock.raw, clock.cpu_raw
            rep.wall, rep.cpu = clock.ref, clock.cpu_ref
        else:
            rep.wall_raw = time.perf_counter() - t0
            rep.cpu_raw = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    traj = tracer.last_trajectory if tracer is not None else None
    rep.gate = workload.check(outdir, rc, out.getvalue(), tiny, traj)
    if failure:
        rep.gate.reasons.append(failure)
    rep.digest = _digest(outdir, out.getvalue())
    if tracer is not None:
        rep.layer = layer_metrics(tracer.spans)
        rep.spans = tracer.spans
        tracer.reset()
    rep.total = time.perf_counter() - began
    return rep


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    cli = _import_cli()
    workload = WORKLOADS[name]
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    machine = _machine()

    setups = [_probe_setup(name, seed, tiny) for _ in range(1 if tiny else SETUP_PROBES)]
    argv = workload.write_inputs(seed, work / "main", tiny)
    outdir = work / "main" / "out"

    attempted = failed = 0
    reasons: List[str] = []

    def tally(rep: Rep) -> None:
        nonlocal attempted, failed
        attempted += rep.gate.attempted
        failed += rep.gate.failed
        reasons.extend(rep.gate.reasons)

    if not tiny:
        tally(_run_once(cli, workload, workload.write_inputs(seed, work / "warmup", True),
                        work / "warmup" / "out", True, None))

    tracer = Tracer() if trace else None
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = _run_once(cli, workload, argv, outdir, tiny, tracer if traced else None)
        tally(rep)
        reps.append(rep)
        # stop once the next repetition would likely end past the budget,
        # but not before a traced run has its traced repetition
        if (not trace or len(reps) >= 2) and \
                time.perf_counter() - start + 0.5 * rep.total > seconds:
            break

    # determinism: every repetition against the first, traced ones included
    for rep in reps[1:]:
        attempted += 1
        if (rep.digest, rep.gate.counts) != (reps[0].digest, reps[0].gate.counts):
            failed += 1
            reasons.append("artifacts or work counts differ from the first repetition")
    traced_reps = [r for r in reps if r.traced]
    counts = [{k: v for k, v in r.layer.items() if UNITS[k] == "count"} for r in traced_reps]
    for c in counts[1:]:
        attempted += 1
        if c != counts[0]:
            failed += 1
            reasons.append("traced work counts differ between repetitions")

    plain = [r for r in reps if not r.traced]
    wall = statistics.median(r.wall for r in plain)
    wall_raw = statistics.median(r.wall_raw for r in plain)
    e2e = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reported = {
        "error_rate": failed / attempted,
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "wall_raw_s": wall_raw,
        "cpu_raw_s": statistics.median(r.cpu_raw for r in plain),
    }
    if name == "well_sweep":
        reported["rows_per_s"] = reps[0].gate.counts.get("rows", 0) / wall
    layer: Dict[str, float] = {}
    if traced_reps:
        for key, _ in PER_LAYER:
            values = [r.layer.get(key, 0) for r in traced_reps]
            # counts repeat exactly (checked above)
            layer[key] = values[0] if UNITS[key] == "count" else statistics.median(values)
        layer["trace.wall_s"] = statistics.median(r.wall_raw for r in traced_reps)
        layer["trace.untraced_wall_s"] = wall_raw
        layer["trace.overhead_s"] = layer["trace.wall_s"] - wall_raw
        write_spans([r.spans for r in traced_reps], work / f"spans-seed{seed}.csv")

    extra = {k: v for r in reps for k, v in r.gate.extra.items()}
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {name} seed {seed} reps {len(plain)} untraced, {len(traced_reps)} traced"
          f"{' (tiny)' if tiny else ''}")
    print("counts " + json.dumps(reps[0].gate.counts, sort_keys=True))
    for key, value in extra.items():
        print(f"{key} " + json.dumps(value, sort_keys=True))
    if trace:
        for metric, target, share in workload.predictions:
            print(f"prediction {metric} moves {target}: {share}")
    for reason in reasons[:20]:
        print(f"FAILED {reason.rstrip()}")
    shown = {**e2e, **reported, **layer}
    for key, value in shown.items():
        print(f"metric {name} {key} {_fmt(value)} {UNITS[key]}")

    chosen = layer if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in chosen.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny,
                  machine=machine, counts=reps[0].gate.counts, extra=extra,
                  rep_walls=[(r.traced, r.wall_raw, r.wall) for r in reps],
                  predictions=workload.predictions,
                  all_metrics=shown, reasons=reasons)
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, no warm-up")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        # set-up is short: sample the host's speed often enough to matter
        with SpeedClock(interval=0.02) as clock:
            _import_cli()
            WORKLOADS[args.workload].write_inputs(args.seed, OUT / args.workload / "probe", args.tiny)
        print(f"{clock.raw!r} {clock.ref!r}")
        return 0
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd + (["--tiny"] if args.tiny else []), timeout=900).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
