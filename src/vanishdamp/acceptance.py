"""Built-in verification suite.

Each criterion exercises one published claim of the package end to end
(integrator accuracy against closed forms, decay-rate fits, bound
residuals, limit classification, density statistics, and the averaged
stochastic recursion) and reports a machine-checkable pass/fail with the
measured numbers.  The CLI `verify` subcommand and the acceptance tests
both run through this module, so there is exactly one definition of
what "passing" means.

Adding a criterion takes one decorated function:

    @_criterion("A14", "what the criterion shows")
    def _a14(suite: _Suite) -> _Outcome:
        ...
        return passed, detail, measured

Registration order is run order.  ``run_criteria`` times each call and
builds its ``CriterionResult``; runs that several criteria share are
cached fixtures on ``_Suite``.

Criteria run one at a time in this process.  The independent runs of an
ensemble (A2's amplitudes, A8's and A11's random starts, A12's
recursions, A13's horizons) are spread by ``_Suite.map`` over the CPUs
this process may use, as calls of private module-level task functions
with picklable arguments.  Each run is deterministic, so the results do
not depend on where it ran; with one usable CPU no process is started.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .analyze import (
    cesaro_mean,
    classify_limit,
    lower_bound_residual,
    occupation_density,
    omega_limit_extent,
    rate_fit,
    sign_change_gaps,
    upper_bound_check,
)
from .errors import DomainError
from .integrate import SystemSpec, Trajectory, integrate
from .oracle import linear_regular_solution, power_law_exact
from .potential import DoubleWell, FlatBottom, Quadratic, SignedPower
from .schedule import Constant, PowerLaw
from .sgd import NoiseModel, StepSchedule, compare_to_ode, run_recursion

__all__ = ["CriterionResult", "list_criteria", "run_criteria", "CRITERION_IDS"]

_START_BOX = 2.0  # random starts drawn from [-2, 2] for x0 and v0
_A8_SEED = 20260815
_A11_SEED = 11


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: str
    title: str
    passed: bool
    detail: str
    measured: Dict[str, object]
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.criterion_id} {verdict}  {self.detail}"

    def as_dict(self) -> dict:
        return {
            "id": self.criterion_id,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
            "measured": self.measured,
            "seconds": round(self.seconds, 3),
        }


def _random_starts(seed: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return _START_BOX * (2.0 * gen.uniform(size=(count, 2)) - 1.0)


def _solve(schedule, potential, x0, v0, t_end, rel_tol, **options) -> Trajectory:
    return integrate(SystemSpec(schedule, potential, x0, v0, t_end, rel_tol, **options))


def _max_error(traj: Trajectory, reference: Callable[[float], float]) -> float:
    """max |x - reference(t)| over the stored samples of a 1D run."""
    return max(abs(float(x) - reference(float(t))) for t, x in zip(traj.ts, traj.xs[:, 0]))


# tasks that _Suite.map sends to worker processes: module-level, private
# (the benchmark's tracer replaces every public function of the package,
# and a captured replaced function no longer pickles) and calling the
# public functions by name when they run

_DECAY_AMPLITUDES = (0.5, 1.0, 2.0, 3.0)
_PLANE_HORIZONS = (2.0e3, 2.0e4)
_A12_EPS = 1e-3
_A12_HORIZON = 20.0


def _decay_run(c: float) -> Trajectory:
    return _solve(PowerLaw(c=c, gamma=1.0, s0=1.0), Quadratic(1), 1.0, 0.0, 1.0e3, 1e-9,
                  abs_tol=1e-14)


class _WellRun(NamedTuple):
    """What A8 reads of one random double-well start, and the whole run
    for the one that A9 and A10 read as well (None for the others)."""

    verdict: str
    events_by_1e2: int
    events: int
    traj: Optional[Trajectory]


def _well_run(x0: float, v0: float, whole: bool) -> _WellRun:
    traj = _solve(PowerLaw(c=1.0, gamma=1.0, s0=1.0), DoubleWell(), x0, v0, 1.0e4, 1e-6)
    by_1e2 = int(np.searchsorted(traj.events.time, 1.0e2, side="right"))
    return _WellRun(classify_limit(traj).verdict, by_1e2, len(traj.events),
                    traj if whole else None)


def _constant_damping_run(x0: float, v0: float) -> Trajectory:
    return _solve(Constant(1.0), DoubleWell(), x0, v0, 1.0e2, 1e-9)


def _plane_flat_run(t_end: float) -> Trajectory:
    return _solve(
        PowerLaw(c=1.0, gamma=1.0, s0=1.0), FlatBottom(2), (0.0, 0.0), (1.2, 0.9), t_end, 1e-8)


def _recursion_run(steps: StepSchedule, noise: NoiseModel, n_steps: int, keep: str):
    """One of A12's recursions on the unit quadratic from x = 1, reduced to
    what A12 reads of it: its deviation from the ODE, its drift-identity
    gap, or its (x, h, tau) rows."""
    quad = Quadratic(1)
    path = run_recursion(quad, steps, noise, 1.0, n_steps)
    if keep == "deviation":
        return compare_to_ode(path, quad, horizon=_A12_HORIZON).deviation
    if keep == "drift":
        return path.drift_identity_max
    return path.x, path.h, path.tau


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Suite:
    """Lazily built, cached fixture runs shared between criteria, and the
    process pool that builds an ensemble's runs side by side.  ``close``
    shuts the pool down."""

    def __init__(self) -> None:
        self._cache: Dict[str, object] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def _get(self, key: str, build: Callable[[], object]) -> object:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def map(self, task: Callable, args: Sequence[Sequence]) -> list:
        """``[task(*a) for a in args]``, run on min(tasks, usable CPUs)
        worker processes, or in this process when that is one.  The pool
        is started by the first map that can use it and replaced by a
        larger one only when a later map can use more workers."""
        workers = min(len(args), _usable_cpus())
        if workers < 2:
            return [task(*a) for a in args]
        if workers > self._workers:
            self.close()
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
        return list(self._pool.map(task, *zip(*args)))

    def close(self) -> None:
        """Cancel the pool's queued tasks and wait for its workers to exit."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool, self._workers = None, 0

    def linear_singular_run(self) -> Trajectory:
        return self._get("linear_singular", lambda: _solve(
            PowerLaw(c=1.0, gamma=1.0, s0=0.0), Quadratic(1), 1.0, 0.0, 50.0, 1e-9))

    def decay_runs(self) -> Dict[float, Trajectory]:
        """The unit quadratic from x = 1 under c/(t+1) for A2's amplitudes c."""
        return self._get("decay_runs", lambda: dict(zip(
            _DECAY_AMPLITUDES, self.map(_decay_run, [(c,) for c in _DECAY_AMPLITUDES]))))

    def slow_decay_run(self) -> Trajectory:
        # sub-linear damping drives the phase norm below 1e-30, so the
        # absolute floor is pushed out of the way and the relative
        # tolerance alone steers the step size
        return self._get("slow_decay", lambda: _solve(
            PowerLaw(c=1.0, gamma=0.5, s0=1.0), Quadratic(1), 1.0, 0.0, 1.0e3, 1e-9,
            abs_tol=1e-300))

    def flat_sweep_run(self, t_end: float) -> Trajectory:
        return self._get(f"flat_sweep_{t_end}", lambda: _solve(
            PowerLaw(c=1.0, gamma=1.0, s0=1.0), FlatBottom(1), 0.0, 1.5, t_end, 1e-9))

    def flat_settling_run(self) -> Trajectory:
        return self._get("flat_settling", lambda: _solve(
            PowerLaw(c=1.0, gamma=0.5, s0=1.0), FlatBottom(1), 0.0, 1.5, 1.0e4, 1e-9))

    def well_runs(self) -> List[_WellRun]:
        """A8's random double-well starts; only run 0 comes back whole,
        so the workers do not send 19 trajectories that no one reads."""
        return self._get("well_runs", lambda: self.map(_well_run, [
            (x0, v0, k == 0)
            for k, (x0, v0) in enumerate(_random_starts(_A8_SEED, 20).tolist())]))

    def constant_damping_runs(self) -> List[Trajectory]:
        return self._get("constant_damping_runs", lambda: self.map(
            _constant_damping_run, _random_starts(_A11_SEED, 20).tolist()))

    def plane_flat_runs(self) -> Dict[float, Trajectory]:
        """The planar flat-floor run to each of A13's horizons."""
        return self._get("plane_flat_runs", lambda: dict(zip(
            _PLANE_HORIZONS, self.map(_plane_flat_run, [(t,) for t in _PLANE_HORIZONS]))))


# criteria --------------------------------------------------------------

_Outcome = Tuple[bool, str, Dict[str, object]]
_CRITERIA: List[Tuple[str, str, Callable[[_Suite], _Outcome]]] = []


def _criterion(cid: str, title: str):
    """Register the decorated ``check(suite) -> (passed, detail, measured)``."""

    def register(check: Callable[[_Suite], _Outcome]) -> Callable[[_Suite], _Outcome]:
        _CRITERIA.append((cid, title, check))
        return check

    return register


@_criterion("A1", "singular-damping run matches the series reference")
def _a1(suite: _Suite) -> _Outcome:
    traj = suite.linear_singular_run()
    err = _max_error(traj, lambda t: linear_regular_solution(1.0, t))
    return (
        err <= 1e-6,
        f"max |x - reference| = {err:.3e} (tol 1e-06) over {len(traj.ts)} samples",
        {"max_error": err, "samples": len(traj.ts)},
    )


@_criterion("A2", "phase-norm decay exponent tracks the damping amplitude")
def _a2(suite: _Suite) -> _Outcome:
    slopes = {}
    ok = True
    for c, traj in suite.decay_runs().items():
        phase = traj.xs[:, 0] ** 2 + traj.vs[:, 0] ** 2
        fit = rate_fit(traj.ts, phase, (1.0e2, 1.0e3), model="PowerLaw")
        slopes[str(c)] = fit.exponent
        ok = ok and abs(fit.exponent + c) <= 0.05 * c
    detail = ", ".join(f"c={c}: {s:.4f}" for c, s in slopes.items())
    return ok, f"fitted slopes {detail} (each within 5% of -c)", {"slopes": slopes}


@_criterion("A3", "sub-linear damping decays like the damping integral")
def _a3(suite: _Suite) -> _Outcome:
    traj = suite.slow_decay_run()
    phase = traj.xs[:, 0] ** 2 + traj.vs[:, 0] ** 2
    fit = rate_fit(
        traj.ts,
        phase,
        (1.0e2, 1.0e3),
        model="ExponentialInIntegralOfA",
        schedule=traj.spec.schedule,
    )
    return (
        abs(fit.exponent - 1.0) <= 0.1,
        f"slope vs -int a = {fit.exponent:.4f} (want 1.0 +/- 0.1, "
        f"residual rms {fit.residual_rms:.3f})",
        {"slope": fit.exponent, "residual_rms": fit.residual_rms},
    )


@_criterion("A4", "energy never dips below the kernel-squared floor")
def _a4(suite: _Suite) -> _Outcome:
    residuals = {}
    runs = [("singular", suite.linear_singular_run()), ("slow", suite.slow_decay_run())]
    runs += [(f"c={c}", traj) for c, traj in suite.decay_runs().items()]
    ok = True
    for label, traj in runs:
        res = lower_bound_residual(traj)
        residuals[label] = res
        ok = ok and res >= -1e-8
    worst = min(residuals.values())
    return (
        ok,
        f"worst residual {worst:.3e} over {len(runs)} runs (floor -1e-08)",
        {"residuals": residuals},
    )


@_criterion("A5", "energy-gap envelopes hold in both damping regimes")
def _a5(suite: _Suite) -> _Outcome:
    near = upper_bound_check(suite.decay_runs()[1.0], theta=0.5, regime="K1", K=1.0)
    far = upper_bound_check(suite.slow_decay_run(), theta=0.5, regime="K2", K=0.5)
    return (
        near.passed and near.stable and far.passed and math.isfinite(far.constant),
        f"kernel regime C = {near.constant:.4f} (stable: {near.stable}); "
        f"rate regime D = {far.constant:.4f}",
        {
            "kernel_constant": near.constant,
            "kernel_stable": near.stable,
            "rate_constant": far.constant,
        },
    )


@_criterion("A6", "flat-floor runs sweep under 1/t damping and settle under slower damping")
def _a6(suite: _Suite) -> _Outcome:
    measured: Dict[str, object] = {}
    ok = True
    for horizon in (1.0e3, 1.0e4):
        traj = suite.flat_sweep_run(10.0 * horizon)
        ext = omega_limit_extent(traj, 0.9)
        lo, hi = float(ext[0, 0]), float(ext[0, 1])
        measured[f"sweep_extent_T{horizon:g}"] = [lo, hi]
        ok = ok and lo <= -0.95 and hi >= 0.95
    ext = omega_limit_extent(suite.flat_settling_run(), 0.1)
    width = float(ext[0, 1] - ext[0, 0])
    mid = 0.5 * float(ext[0, 0] + ext[0, 1])
    measured["settle_width"] = width
    measured["settle_limit"] = mid
    return (
        ok and width <= 1e-3 and -1.0 <= mid <= 1.0,
        f"sweep extents {measured['sweep_extent_T1000']} and "
        f"{measured['sweep_extent_T10000']}; settle width {width:.2e} at {mid:.4f}",
        measured,
    )


@_criterion("A7", "matched-damping runs track the exact power-law solution")
def _a7(suite: _Suite) -> _Outcome:
    errors = {}
    ok = True
    for beta in (0.5, 1.0, 2.0):
        _, v_init, c = power_law_exact(beta, 0.0)
        traj = _solve(PowerLaw(c=c, gamma=1.0, s0=1.0), SignedPower(beta), 1.0, v_init, 100.0, 1e-9)
        err = _max_error(traj, lambda t: power_law_exact(beta, t)[0])
        errors[str(beta)] = err
        ok = ok and err <= 1e-6
    worst = max(errors.values())
    return ok, f"worst max |x - (t+1)^-beta| = {worst:.3e} (tol 1e-06)", {"errors": errors}


@_criterion("A8", "random double-well starts all settle at a floor, never the hump")
def _a8(suite: _Suite) -> _Outcome:
    verdicts = []
    ratios_ok = True
    max_hits = 0
    min_ratio = math.inf
    for run in suite.well_runs():
        verdicts.append(run.verdict)
        if run.verdict == "ConvergesToMax":
            max_hits += 1
        n2, n4 = run.events_by_1e2, run.events
        ratio = n4 / n2 if n2 else math.inf
        min_ratio = min(min_ratio, ratio)
        ratios_ok = ratios_ok and n4 >= 10 * n2
    all_min = all(v == "ConvergesToMin" for v in verdicts)
    return (
        all_min and ratios_ok and max_hits == 0,
        f"20/20 ConvergesToMin: {all_min}; min event ratio 1e4/1e2 = "
        f"{min_ratio:.1f} (want >= 10); hump count {max_hits}",
        {
            "verdicts": verdicts,
            "min_event_ratio": None if math.isinf(min_ratio) else min_ratio,
            "max_hits": max_hits,
        },
    )


@_criterion("A9", "turning-point gaps: trapped period and logarithmic gap growth")
def _a9(suite: _Suite) -> _Outcome:
    report = sign_change_gaps(suite.well_runs()[0].traj)
    tail = report.gaps[report.times > 1.0e3]
    target = math.pi / math.sqrt(2.0)
    period_dev = float(np.max(np.abs(tail - target)) / target) if tail.size else math.inf
    period_ok = tail.size > 0 and period_dev <= 0.02

    rep = sign_change_gaps(suite.flat_sweep_run(1.0e5))
    ratios = {}
    for horizon in (1.0e2, 1.0e3, 1.0e4):
        mask = rep.times <= horizon
        vals = rep.gaps[mask] / (1.0 + np.log1p(rep.times[mask]))
        ratios[f"{horizon:g}"] = float(np.max(vals)) if vals.size else 0.0
    positive = [v for v in ratios.values() if v > 0.0]
    spread = max(ratios.values()) / min(positive) if positive else math.inf
    log_ok = spread <= 2.0
    return (
        period_ok and log_ok,
        f"trapped gaps within {period_dev:.4f} of pi/sqrt(2) (tol 0.02); "
        f"flat-floor gap/(1+log) spread {spread:.1f}x across decades (want <= 2; "
        "coasting across a zero-force floor grows gaps linearly in t, so this "
        "clause fails for the flat floor by design of the dynamics)",
        {
            "period_max_dev": period_dev,
            "period_ok": period_ok,
            "log_ratio_by_horizon": ratios,
            "log_spread": spread,
            "log_ok": log_ok,
        },
    )


@_criterion("A10", "time spent away from the limit thins out; long-run average matches")
def _a10(suite: _Suite) -> _Outcome:
    traj = suite.well_runs()[0].traj
    cl = classify_limit(traj)
    limit = cl.nearest_location if cl.nearest_location is not None else cl.limit_estimate[0]
    report = occupation_density(traj, [limit], 0.1, (1.0e2, 1.0e3, 1.0e4))
    f2, f3, f4 = report.fractions
    decreasing = f2 > f3 > f4
    cesaro = float(cesaro_mean(traj, 1.0e4)[0])
    cesaro_err = abs(cesaro - float(limit))
    return (
        decreasing and f4 <= 0.05 and cesaro_err <= 0.05,
        f"fractions outside 0.1-ball: {f2:.3f} > {f3:.3f} > {f4:.3f} "
        f"(final <= 0.05); |cesaro - limit| = {cesaro_err:.4f}",
        {
            "fractions": list(report.fractions),
            "cesaro": cesaro,
            "limit": float(limit),
            "cesaro_error": cesaro_err,
        },
    )


@_criterion("A11", "constant damping settles every random start by t = 100")
def _a11(suite: _Suite) -> _Outcome:
    runs = suite.constant_damping_runs()
    settled = 0
    worst_width = 0.0
    for traj in runs:
        cl = classify_limit(traj)
        worst_width = max(worst_width, cl.tail_width)
        if cl.limit_exists and cl.verdict == "ConvergesToMin":
            settled += 1
    return (
        settled == len(runs),
        f"{settled}/{len(runs)} settled; worst tail width {worst_width:.2e}",
        {"settled": settled, "runs": len(runs), "worst_tail_width": worst_width},
    )


@_criterion("A12", "averaged recursion: first-order in step, exact drift algebra, seeded replay")
def _a12(suite: _Suite) -> _Outcome:
    coarse = StepSchedule.constant(_A12_EPS)
    n_coarse = int(round(_A12_HORIZON / _A12_EPS))
    noisy = NoiseModel.gaussian(1.0, seed=404)
    # longest first, so that no long recursion starts last
    drift_c, drift_p, dev_fine, dev_coarse, noisy_a, noisy_b = suite.map(_recursion_run, [
        (coarse, NoiseModel.none(), 100_000, "drift"),
        (StepSchedule.power_decay(1e-2, 0.7), NoiseModel.none(), 100_000, "drift"),
        (StepSchedule.constant(_A12_EPS / 2.0), NoiseModel.none(), 2 * n_coarse, "deviation"),
        (coarse, NoiseModel.none(), n_coarse, "deviation"),
        (coarse, noisy, 5_000, "path"),
        (coarse, noisy, 5_000, "path"),
    ])
    ratio = dev_coarse / dev_fine
    ratio_ok = 1.6 <= ratio <= 2.4

    drift = max(drift_c, drift_p)
    drift_ok = drift <= 1e-10

    bitwise = all(np.array_equal(a, b) for a, b in zip(noisy_a, noisy_b))
    return (
        ratio_ok and drift_ok and bitwise,
        f"step-halving deviation ratio {ratio:.3f} (want [1.6, 2.4]); "
        f"drift identity {drift:.2e} (tol 1e-10); bitwise replay {bitwise}",
        {
            "deviation_ratio": ratio,
            "dev_coarse": dev_coarse,
            "dev_fine": dev_fine,
            "drift_identity_max": drift,
            "bitwise": bitwise,
        },
    )


@_criterion("A13", "planar flat-floor run keeps wandering at every horizon")
def _a13(suite: _Suite) -> _Outcome:
    measured = {}
    ok = True
    for horizon in (1.0e3, 1.0e4):
        ext = omega_limit_extent(suite.plane_flat_runs()[2.0 * horizon], 0.5)
        widths = ext[:, 1] - ext[:, 0]
        # the largest per-axis spread bounds the diameter from below
        diameter = float(np.max(widths))
        measured[f"diameter_T{horizon:g}"] = diameter
        ok = ok and diameter >= 0.5
    return (
        ok,
        f"tail diameters {measured['diameter_T1000']:.3f} and "
        f"{measured['diameter_T10000']:.3f} (want >= 0.5)",
        measured,
    )


CRITERION_IDS = tuple(cid for cid, _, _ in _CRITERIA)


def list_criteria() -> List[tuple]:
    """(id, title) pairs in run order, without running anything."""
    return [(cid, title) for cid, title, _ in _CRITERIA]


def run_criteria(
    ids: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[CriterionResult], None]] = None,
) -> List[CriterionResult]:
    """Run the requested criteria (all by default) sharing fixture runs."""
    wanted = list(CRITERION_IDS) if ids is None else list(ids)
    unknown = [c for c in wanted if c not in CRITERION_IDS]
    if unknown:
        raise DomainError(f"unknown criterion ids {unknown}; known ids {list(CRITERION_IDS)}")
    suite = _Suite()
    by_id = {cid: (title, check) for cid, title, check in _CRITERIA}
    results = []
    try:
        for cid in wanted:
            title, check = by_id[cid]
            t0 = time.perf_counter()
            passed, detail, measured = check(suite)
            result = CriterionResult(
                cid, title, passed, detail, measured, time.perf_counter() - t0)
            results.append(result)
            if progress is not None:
                progress(result)
    finally:
        suite.close()
    return results
