"""Built-in verification suite.

Each criterion exercises one published claim of the package end to end
(integrator accuracy against closed forms, decay-rate fits, bound
residuals, limit classification, density statistics, and the averaged
stochastic recursion) and reports a machine-checkable pass/fail with the
measured numbers.  The CLI `verify` subcommand and the acceptance tests
both run through this module, so there is exactly one definition of
what "passing" means.

Adding a criterion takes one decorated function that names the fixtures
it reads:

    @_criterion("A14", "what the criterion shows", reads=("decay",))
    def _a14(suite: _Suite) -> _Outcome:
        runs = suite.fixture("decay")
        ...
        return passed, detail, measured

Registration order is run order.  ``run_criteria`` times each call and
builds its ``CriterionResult``.

A fixture is a list of calls of private module-level task functions
with picklable arguments (``_fixture_calls``), and criteria share its
results.  Before judging the first criterion, ``run_criteria`` submits
every call of every fixture the chosen criteria read, in table order,
to one ``workers.Pool`` (see README, "Worker processes").  A criterion
waits only for its own fixtures' runs, and a task's error is raised
when the first criterion that reads its fixture is judged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .analyze import (
    LimitClassification,
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
from .potential import DoubleWell, FlatBottom, PPower, Quadratic
from .schedule import Constant, PowerLaw
from .sgd import NoiseModel, StepSchedule, compare_to_ode, run_recursion
from .workers import Pool

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


# fixtures: lists of calls of private module-level tasks (the
# benchmark's tracer replaces every public function of the package, and a
# captured replaced function no longer pickles) that call the public
# functions by name when they run.  A task whose fixture only one
# criterion reads returns just what that criterion reads, so the
# judging runs in the workers too and the whole run is not sent back.

_DECAY_AMPLITUDES = (0.5, 1.0, 2.0, 3.0)
_SWEEP_HORIZONS = (1.0e4, 1.0e5)
_MATCHED_BETAS = (0.5, 1.0, 2.0)
_PLANE_HORIZONS = (2.0e4, 2.0e3)  # longest first, as in _fixture_calls
_A12_EPS = 1e-3
_A12_HORIZON = 20.0

_Call = Tuple[Callable, tuple]


def _linear_singular_run() -> Trajectory:
    return _solve(PowerLaw(c=1.0, gamma=1.0, s0=0.0), Quadratic(1), 1.0, 0.0, 50.0, 1e-9)


def _decay_run(c: float) -> Trajectory:
    return _solve(PowerLaw(c=c, gamma=1.0, s0=1.0), Quadratic(1), 1.0, 0.0, 1.0e3, 1e-9,
                  abs_tol=1e-14)


def _slow_decay_run() -> Trajectory:
    # sub-linear damping drives the phase norm below 1e-30, so the
    # absolute floor is pushed out of the way and the relative
    # tolerance alone steers the step size
    return _solve(PowerLaw(c=1.0, gamma=0.5, s0=1.0), Quadratic(1), 1.0, 0.0, 1.0e3, 1e-9,
                  abs_tol=1e-300)


def _flat_sweep_run(t_end: float) -> Trajectory:
    return _solve(PowerLaw(c=1.0, gamma=1.0, s0=1.0), FlatBottom(1), 0.0, 1.5, t_end, 1e-9)


def _flat_settling_run() -> Trajectory:
    return _solve(PowerLaw(c=1.0, gamma=0.5, s0=1.0), FlatBottom(1), 0.0, 1.5, 1.0e4, 1e-9)


def _matched_error(beta: float) -> float:
    """A7: max |x - (t+1)^-beta| over the run whose damping matches beta."""
    _, v_init, c = power_law_exact(beta, 0.0)
    pot = PPower(2.0 + 2.0 / beta)  # gradient sign(x)|x|^(1+2/beta)
    traj = _solve(PowerLaw(c=c, gamma=1.0, s0=1.0), pot, 1.0, v_init, 100.0, 1e-9)
    return _max_error(traj, lambda t: power_law_exact(beta, t)[0])


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


def _constant_damping_limit(x0: float, v0: float) -> LimitClassification:
    """A11: the limit classification of one random start under constant damping."""
    return classify_limit(_solve(Constant(1.0), DoubleWell(), x0, v0, 1.0e2, 1e-9))


def _plane_flat_extent(t_end: float) -> np.ndarray:
    """A13: the per-axis extent of the last half of the planar flat-floor run."""
    return omega_limit_extent(_solve(
        PowerLaw(c=1.0, gamma=1.0, s0=1.0), FlatBottom(2), (0.0, 0.0), (1.2, 0.9), t_end, 1e-8),
        0.5)


def _recursion_run(steps: StepSchedule, noise: NoiseModel, n_steps: int, keep: str):
    """One of A12's recursions on the unit quadratic from x = 1, reduced to
    what A12 reads of it: its drift-identity gap, its deviation from the
    ODE through clock ``_A12_HORIZON``, both (as a pair), or its (x, h, tau)
    rows.  The deviation reads only the rows up to the horizon, so a run
    past it gives the deviation of the run that stops there, bit for bit."""
    quad = Quadratic(1)
    path = run_recursion(quad, steps, noise, 1.0, n_steps)
    if keep == "path":
        return path.x, path.h, path.tau
    drift = path.drift_identity_max
    if keep == "drift":
        return drift
    deviation = compare_to_ode(path, quad, horizon=_A12_HORIZON).deviation
    return deviation if keep == "deviation" else (drift, deviation)


def _fixture_calls() -> Dict[str, List[_Call]]:
    """Every fixture's task calls, in the order the pool is given them.
    Built when a suite starts, from the module's constants as they are
    then."""
    coarse = StepSchedule(_A12_EPS)
    n_coarse = int(round(_A12_HORIZON / _A12_EPS))
    noisy = NoiseModel(1.0, seed=404)
    # longest first, so that no long run starts last and leaves the other
    # workers idle; this measured faster than registration order
    return {
        "plane_flat_extents": [(_plane_flat_extent, (t,)) for t in _PLANE_HORIZONS],
        # the unit quadratic from x = 1 under c/(t+1) for A2's amplitudes c
        "decay": [(_decay_run, (c,)) for c in _DECAY_AMPLITUDES],
        "slow_decay": [(_slow_decay_run, ())],
        # the coarse drift run passes the horizon, so it gives the coarse
        # deviation too
        "recursions": [
            (_recursion_run, (coarse, NoiseModel(), max(100_000, n_coarse), "both")),
            (_recursion_run,
             (StepSchedule(1e-2, 0.7), NoiseModel(), 100_000, "drift")),
            (_recursion_run,
             (StepSchedule(_A12_EPS / 2.0), NoiseModel(), 2 * n_coarse, "deviation")),
            (_recursion_run, (coarse, noisy, 5_000, "path")),
            (_recursion_run, (coarse, noisy, 5_000, "path")),
        ],
        "linear_singular": [(_linear_singular_run, ())],
        "flat_sweep": [(_flat_sweep_run, (t,)) for t in _SWEEP_HORIZONS],
        "flat_settling": [(_flat_settling_run, ())],
        "matched_errors": [(_matched_error, (beta,)) for beta in _MATCHED_BETAS],
        # A8's random starts; only run 0 comes back whole, so the workers
        # do not send 19 trajectories that no one reads
        "wells": [(_well_run, (x0, v0, k == 0))
                  for k, (x0, v0) in enumerate(_random_starts(_A8_SEED, 20).tolist())],
        "constant_damping_limits": [(_constant_damping_limit, tuple(start))
                                    for start in _random_starts(_A11_SEED, 20).tolist()],
    }


class _Suite:
    """The fixtures' results, shared between criteria.  Making it submits
    every call of ``calls`` to ``pool``, in table order."""

    def __init__(self, pool: Pool, calls: Dict[str, List[_Call]]) -> None:
        self._futures = {name: [pool.submit(task, *args) for task, args in fixture]
                         for name, fixture in calls.items()}
        self._results: Dict[str, list] = {}

    def fixture(self, name: str) -> list:
        """The named fixture's results, in order: waits for its calls and
        raises a task's error, or ``KeyError`` if it was not submitted."""
        if name not in self._results:
            self._results[name] = [future.result() for future in self._futures[name]]
        return self._results[name]


# criteria --------------------------------------------------------------

_Outcome = Tuple[bool, str, Dict[str, object]]
_CRITERIA: List[Tuple[str, str, Tuple[str, ...], Callable[[_Suite], _Outcome]]] = []


def _criterion(cid: str, title: str, reads: Tuple[str, ...]):
    """Register the decorated ``check(suite) -> (passed, detail, measured)``,
    which reads the named fixtures and no others."""

    def register(check: Callable[[_Suite], _Outcome]) -> Callable[[_Suite], _Outcome]:
        _CRITERIA.append((cid, title, reads, check))
        return check

    return register


@_criterion("A1", "singular-damping run matches the series reference", reads=("linear_singular",))
def _a1(suite: _Suite) -> _Outcome:
    [traj] = suite.fixture("linear_singular")
    err = _max_error(traj, lambda t: linear_regular_solution(1.0, t))
    return (
        err <= 1e-6,
        f"max |x - reference| = {err:.3e} (tol 1e-06) over {len(traj.ts)} samples",
        {"max_error": err, "samples": len(traj.ts)},
    )


@_criterion("A2", "phase-norm decay exponent tracks the damping amplitude", reads=("decay",))
def _a2(suite: _Suite) -> _Outcome:
    slopes = {}
    ok = True
    for c, traj in zip(_DECAY_AMPLITUDES, suite.fixture("decay")):
        phase = traj.xs[:, 0] ** 2 + traj.vs[:, 0] ** 2
        fit = rate_fit(traj.ts, phase, (1.0e2, 1.0e3), model="PowerLaw")
        slopes[str(c)] = fit.exponent
        ok = ok and abs(fit.exponent + c) <= 0.05 * c
    detail = ", ".join(f"c={c}: {s:.4f}" for c, s in slopes.items())
    return ok, f"fitted slopes {detail} (each within 5% of -c)", {"slopes": slopes}


@_criterion("A3", "sub-linear damping decays like the damping integral", reads=("slow_decay",))
def _a3(suite: _Suite) -> _Outcome:
    [traj] = suite.fixture("slow_decay")
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


@_criterion("A4", "energy never dips below the kernel-squared floor",
            reads=("linear_singular", "slow_decay", "decay"))
def _a4(suite: _Suite) -> _Outcome:
    residuals = {}
    runs = [("singular", *suite.fixture("linear_singular")), ("slow", *suite.fixture("slow_decay"))]
    runs += [(f"c={c}", traj) for c, traj in zip(_DECAY_AMPLITUDES, suite.fixture("decay"))]
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


@_criterion("A5", "energy-gap envelopes hold in both damping regimes",
            reads=("decay", "slow_decay"))
def _a5(suite: _Suite) -> _Outcome:
    unit = suite.fixture("decay")[_DECAY_AMPLITUDES.index(1.0)]
    [slow] = suite.fixture("slow_decay")
    near = upper_bound_check(unit, theta=0.5, regime="K1", K=1.0)
    far = upper_bound_check(slow, theta=0.5, regime="K2", K=0.5)
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


@_criterion("A6", "flat-floor runs sweep under 1/t damping and settle under slower damping",
            reads=("flat_sweep", "flat_settling"))
def _a6(suite: _Suite) -> _Outcome:
    measured: Dict[str, object] = {}
    ok = True
    for t_end, traj in zip(_SWEEP_HORIZONS, suite.fixture("flat_sweep")):
        horizon = t_end / 10.0
        ext = omega_limit_extent(traj, 0.9)
        lo, hi = float(ext[0, 0]), float(ext[0, 1])
        measured[f"sweep_extent_T{horizon:g}"] = [lo, hi]
        ok = ok and lo <= -0.95 and hi >= 0.95
    [settling] = suite.fixture("flat_settling")
    ext = omega_limit_extent(settling, 0.1)
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


@_criterion("A7", "matched-damping runs track the exact power-law solution",
            reads=("matched_errors",))
def _a7(suite: _Suite) -> _Outcome:
    errors = {str(beta): err for beta, err in zip(_MATCHED_BETAS, suite.fixture("matched_errors"))}
    ok = all(err <= 1e-6 for err in errors.values())
    worst = max(errors.values())
    return ok, f"worst max |x - (t+1)^-beta| = {worst:.3e} (tol 1e-06)", {"errors": errors}


@_criterion("A8", "random double-well starts all settle at a floor, never the hump",
            reads=("wells",))
def _a8(suite: _Suite) -> _Outcome:
    verdicts = []
    ratios_ok = True
    max_hits = 0
    min_ratio = math.inf
    for run in suite.fixture("wells"):
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


@_criterion("A9", "turning-point gaps: trapped period and logarithmic gap growth",
            reads=("wells", "flat_sweep"))
def _a9(suite: _Suite) -> _Outcome:
    times, gaps = sign_change_gaps(suite.fixture("wells")[0].traj)
    tail = gaps[times > 1.0e3]
    target = math.pi / math.sqrt(2.0)
    period_dev = float(np.max(np.abs(tail - target)) / target) if tail.size else math.inf
    period_ok = tail.size > 0 and period_dev <= 0.02

    times, gaps = sign_change_gaps(suite.fixture("flat_sweep")[_SWEEP_HORIZONS.index(1.0e5)])
    ratios = {}
    for horizon in (1.0e2, 1.0e3, 1.0e4):
        mask = times <= horizon
        vals = gaps[mask] / (1.0 + np.log1p(times[mask]))
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


@_criterion("A10", "time spent away from the limit thins out; long-run average matches",
            reads=("wells",))
def _a10(suite: _Suite) -> _Outcome:
    traj = suite.fixture("wells")[0].traj
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


@_criterion("A11", "constant damping settles every random start by t = 100",
            reads=("constant_damping_limits",))
def _a11(suite: _Suite) -> _Outcome:
    runs = suite.fixture("constant_damping_limits")
    settled = 0
    worst_width = 0.0
    for cl in runs:
        worst_width = max(worst_width, cl.tail_width)
        if cl.limit_exists and cl.verdict == "ConvergesToMin":
            settled += 1
    return (
        settled == len(runs),
        f"{settled}/{len(runs)} settled; worst tail width {worst_width:.2e}",
        {"settled": settled, "runs": len(runs), "worst_tail_width": worst_width},
    )


@_criterion("A12", "averaged recursion: first-order in step, exact drift algebra, seeded replay",
            reads=("recursions",))
def _a12(suite: _Suite) -> _Outcome:
    (drift_c, dev_coarse), drift_p, dev_fine, noisy_a, noisy_b = suite.fixture("recursions")
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


@_criterion("A13", "planar flat-floor run keeps wandering at every horizon",
            reads=("plane_flat_extents",))
def _a13(suite: _Suite) -> _Outcome:
    measured = {}
    ok = True
    for t_end, ext in zip(_PLANE_HORIZONS, suite.fixture("plane_flat_extents")):
        horizon = t_end / 2.0
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


CRITERION_IDS = tuple(cid for cid, _, _, _ in _CRITERIA)


def list_criteria() -> List[tuple]:
    """(id, title) pairs in run order, without running anything."""
    return [(cid, title) for cid, title, _, _ in _CRITERIA]


def run_criteria(
    ids: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[CriterionResult], None]] = None,
) -> List[CriterionResult]:
    """Judge the requested criteria (all by default) sharing fixture runs,
    each once and in registration order, whatever the order of ``ids``.
    Every fixture they read is submitted before the first is judged."""
    if ids is not None:
        unknown = [c for c in ids if c not in CRITERION_IDS]
        if unknown:
            raise DomainError(f"unknown criterion ids {unknown}; known ids {list(CRITERION_IDS)}")
    wanted = [c for c in _CRITERIA if ids is None or c[0] in ids]
    reads = {name for _, _, names, _ in wanted for name in names}
    calls = {name: fixture for name, fixture in _fixture_calls().items() if name in reads}
    results = []
    with Pool(sum(map(len, calls.values()))) as pool:
        suite = _Suite(pool, calls)
        for cid, title, _, check in wanted:
            t0 = time.perf_counter()
            passed, detail, measured = check(suite)
            result = CriterionResult(
                cid, title, passed, detail, measured, time.perf_counter() - t0)
            results.append(result)
            if progress is not None:
                progress(result)
    return results
