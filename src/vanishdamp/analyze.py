"""Trajectory diagnostics: decay rates, bound residuals, occupation
density, Cesaro means, omega-limit extent, sign-change statistics, and
limit classification.

Every function here is a pure consumer of a Trajectory.  The quantities
mirror the convergence theory for the damped system: the energy gap
E(t) - min G, its weighted integral against a(t), the two-sided decay
envelopes, the time fraction spent outside a ball around the candidate
limit, and the dichotomy "limit is a local minimum iff the velocity keeps
changing sign".

The omega-limit extent and the tail velocity are exact min/max over the
samples and a fine grid of the cubic Hermite dense output, but the grid
is evaluated only on the pieces whose Bernstein hull reaches the running
min or max; the decay kernel and int_0^t a are read on whole arrays of
sample times.  Both give the same bits as evaluating every grid point and
every kernel value one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, HypothesisError, UnsupportedError
from .integrate import Record, Trajectory
from .potential import critical_points

_trapz = getattr(np, "trapezoid", None) or np.trapz
_TINY = float(np.finfo(float).tiny)
# grid points of one dense evaluation in _dense_extent and occupation_density
_DENSE_BLOCK = 8192

# finite-horizon thresholds for "the limit exists"
LIMIT_WIDTH_TOL = 1.0e-3
LIMIT_VELOCITY_TOL = 1.0e-3
# a candidate limit must sit this close to a critical point to be matched
MATCH_DISTANCE = 1.0e-2
# occupation density grid resolution (time units)
DENSITY_STEP = 0.01
# points of the geometric grid on which upper_bound_check tests its regime
HYPOTHESIS_GRID = 200


def _min_g(traj: Trajectory) -> float:
    pot = traj.spec.potential
    if pot.min_value is not None:
        return float(pot.min_value)
    # Custom potentials carry no exact minimum; fall back to the sampled
    # floor and let callers treat gap diagnostics as approximate.
    return float(np.min(traj.energies - 0.5 * np.sum(traj.vs**2, axis=1)))


def energy_gap_series(traj: Trajectory):
    """(t, E(t) - min G) over the stored samples."""
    g0 = _min_g(traj)
    return traj.ts.copy(), traj.energies - g0


def weighted_energy_integral(traj: Trajectory):
    """Trapezoid quadrature of a(t) (E(t) - min G) and its running series.

    For schedules singular at the origin the quadrature starts at the
    first positive sample: the theorem's content is the convergence of the
    tail, and a(t) itself is not integrable against a positive gap there.
    """
    g0 = _min_g(traj)
    ts = traj.ts
    gap = traj.energies - g0
    sched = traj.spec.schedule
    if sched.singular_at_zero:
        mask = ts > 0.0
        ts = ts[mask]
        gap = gap[mask]
    integrand = sched.a_values(ts) * gap
    if len(ts) < 2:
        return 0.0, (ts, np.zeros_like(ts))
    widths = np.diff(ts)
    increments = 0.5 * (integrand[1:] + integrand[:-1]) * widths
    running = np.concatenate([[0.0], np.cumsum(increments)])
    return float(running[-1]), (ts, running)


def lower_bound_residual(traj: Trajectory) -> float:
    """Minimal slack of the rate lower bound

        E(t) - min G >= (E(0) - min G) exp(-2 int_0^t a).

    Nonnegative for exact solutions (the bound is a theorem); small
    negative values expose integrator drift.
    """
    g0 = _min_g(traj)
    gap = traj.energies - g0
    sched = traj.spec.schedule
    ts = traj.ts
    idx = np.arange(len(ts))
    if sched.kernel_by_quadrature and len(ts) > 2000:
        # quadrature-backed schedules price each kernel call; subsample
        idx = np.linspace(0, len(ts) - 1, 2000).astype(int)
    gap0 = float(gap[0])
    kern = sched.decay_kernels(ts[idx])
    # fmin: a NaN slack is skipped, never returned
    return float(np.fmin.reduce(gap[idx] - gap0 * kern * kern, initial=math.inf))


@dataclass(frozen=True)
class UpperBoundResult(Record):
    """Fitted envelope constant for one decay regime."""

    regime: str
    rate: Optional[float]
    constant: float
    stable: bool
    passed: bool
    times: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)


def upper_bound_check(
    traj: Trajectory,
    theta: float,
    regime: str,
    K: float,
) -> UpperBoundResult:
    """Fit the decay-envelope constant for one of the two upper-bound
    regimes and judge its stability.

    Regime "K1" assumes a' + K a^2 <= 0 and fits C in
    gap <= C exp(-m int a) with m = min(1/(theta+1/2), K); regime "K2"
    assumes a' + K a^2 >= 0 and fits D in gap <= D a(t).  The differential
    inequality is checked on a geometric grid first and a violation raises
    HypothesisError.  The fitted constant is the max ratio over samples;
    it "passes" when finite and the final decade of the run does not push
    it above twice the maximum seen earlier (a still-climbing ratio means
    the envelope is wrong).
    """
    if regime not in ("K1", "K2"):
        raise DomainError(f"regime must be K1 or K2, got {regime!r}")
    if K <= 0:
        raise DomainError(f"regime constant must be > 0, got {K}")
    sched = traj.spec.schedule
    ts = traj.ts
    t_lo = float(ts[0]) if ts[0] > 0 else float(ts[min(1, len(ts) - 1)])
    t_hi = float(ts[-1])
    grid = np.geomspace(max(t_lo, 1e-6), t_hi, HYPOTHESIS_GRID)
    for tg, a in zip(grid.tolist(), sched.a_values(grid).tolist()):
        da = sched.da_at(tg)
        lhs = da + K * a ** 2
        tol = 1.0e-12 * (1.0 + abs(da))
        if regime == "K1" and lhs > tol:
            raise HypothesisError(
                f"a' + K a^2 = {lhs:.3e} > 0 at t={tg:.6g}; regime K1 needs <= 0"
            )
        if regime == "K2" and lhs < -tol:
            raise HypothesisError(
                f"a' + K a^2 = {lhs:.3e} < 0 at t={tg:.6g}; regime K2 needs >= 0"
            )

    g0 = _min_g(traj)
    gap = traj.energies - g0
    if regime == "K1":
        m = min(1.0 / (theta + 0.5), K)
        env = np.fromiter(map(pow, sched.decay_kernels(ts).tolist(), repeat(m)), dtype=float)
        rate = m
    else:
        env = sched.a_values(ts)
        rate = None
    valid = env > 0
    if not np.any(valid):
        raise DomainError("envelope vanishes on the whole run; nothing to fit")
    ratios = gap[valid] / env[valid]
    rts = ts[valid]
    constant = float(np.max(ratios))
    cut = t_hi / 10.0
    head = ratios[rts < cut]
    tail = ratios[rts >= cut]
    if len(head) == 0 or len(tail) == 0:
        stable = False
    else:
        stable = float(np.max(tail)) <= 2.0 * float(np.max(head))
    passed = math.isfinite(constant) and stable
    return UpperBoundResult(regime, rate, constant, stable, passed, rts, ratios)


@dataclass(frozen=True)
class RateFit(Record):
    """Least-squares decay exponent over a log window."""

    window: tuple
    model: str
    exponent: float
    residual_rms: float
    samples: int


def rate_fit(
    times,
    values,
    window,
    model: str = "PowerLaw",
    schedule=None,
) -> RateFit:
    """Fit ln(values) linearly against ln t ("PowerLaw") or against
    -int_0^t a ("ExponentialInIntegralOfA", expected slope 1)."""
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    t0, t1 = float(window[0]), float(window[1])
    if not (ts[0] <= t0 < t1 <= ts[-1]):
        raise DomainError(f"window [{t0}, {t1}] outside series span")
    mask = (ts >= t0) & (ts <= t1)
    tw = ts[mask]
    vw = vs[mask]
    if len(tw) < 30:
        raise DomainError(f"need >= 30 samples in the window, have {len(tw)}")
    if np.any(vw <= 0.0):
        raise DomainError("series must be positive on the fit window")
    if model == "PowerLaw":
        if np.any(tw <= 0.0):
            raise DomainError("PowerLaw fit needs positive times")
        xs = np.log(tw)
    elif model == "ExponentialInIntegralOfA":
        if schedule is None:
            raise DomainError("ExponentialInIntegralOfA needs the schedule")
        xs = -schedule.integral_a_to(tw)
        if not np.all(np.isfinite(xs)):
            raise DomainError("int a diverges on the window; model unusable")
    else:
        raise DomainError(f"unknown model {model!r}")
    ys = np.log(vw)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return RateFit(
        window=(t0, t1),
        model=model,
        exponent=float(slope),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        samples=int(len(tw)),
    )


def cesaro_mean(traj: Trajectory, T: float) -> np.ndarray:
    """(1/T) int_0^T x(t) dt by trapezoid quadrature on the samples."""
    if not traj.ts[0] <= T <= traj.ts[-1]:
        raise DomainError(f"T={T} outside trajectory span")
    if T <= 0:
        raise DomainError("T must be positive")
    mask = traj.ts <= T
    tt = traj.ts[mask]
    xx = traj.xs[mask]
    if tt[-1] < T:
        tt = np.append(tt, T)
        xx = np.vstack([xx, traj.positions_at([T])])
    return _trapz(xx, tt, axis=0) / T


@dataclass(frozen=True)
class DensityReport(Record):
    """Occupation fractions outside a ball, per horizon."""

    reference: np.ndarray
    radius: float
    horizons: tuple
    fractions: tuple


def occupation_density(
    traj: Trajectory,
    reference,
    radius: float,
    horizons: Sequence[float],
    step: float = DENSITY_STEP,
) -> DensityReport:
    """Fraction of [0, T] spent with |x(t) - x*| > radius, per horizon,
    measured on a uniform grid of the dense output.  The grid is
    evaluated in blocks, so the interpolant's temporaries stay bounded;
    the count of outside points over m is exactly the mean over the
    whole grid."""
    ref = np.atleast_1d(np.asarray(reference, dtype=float))
    if ref.shape != (traj.n,):
        raise DomainError(f"reference of shape {ref.shape} for dimension {traj.n}")
    if radius <= 0:
        raise DomainError("radius must be positive")
    hs = [float(h) for h in horizons]
    if not hs:
        raise DomainError("need at least one horizon")
    if any(h2 <= h1 for h1, h2 in zip(hs, hs[1:])):
        raise DomainError("horizons must be strictly increasing")
    if hs[-1] > traj.ts[-1] or hs[0] <= traj.ts[0]:
        raise DomainError("horizons must lie inside the trajectory span")
    fractions = []
    for T in hs:
        m = max(2, int(math.ceil((T - traj.ts[0]) / step)) + 1)
        grid = np.linspace(traj.ts[0], T, m)
        outside = 0
        for start in range(0, m, _DENSE_BLOCK):
            pos = traj.positions_at(grid[start:start + _DENSE_BLOCK])
            outside += int(np.count_nonzero(np.linalg.norm(pos - ref[None, :], axis=1) > radius))
        fractions.append(outside / m)
    return DensityReport(ref, float(radius), tuple(hs), tuple(fractions))


def omega_limit_extent(traj: Trajectory, tail_fraction: float = 0.1) -> np.ndarray:
    """Per-axis (min, max) of x over the final tail_fraction of the span.

    Combines stored samples, event states (exact turning points of the
    monitored velocity), and a dense grid, so thinned storage cannot hide
    excursions between samples.
    """
    if not 0.0 < tail_fraction <= 0.9:
        raise DomainError(f"tail_fraction must be in (0, 0.9], got {tail_fraction}")
    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    return _extent_window(traj, t1 - tail_fraction * (t1 - t0))


def _extent_window(traj: Trajectory, cut: float) -> np.ndarray:
    """Per-axis (min, max) of x over [cut, end of run]: the samples, the
    event states and the dense output on a grid of about one point per
    0.01 time units (1000 to 200000 points).  Exact over that grid; only
    the pieces that can reach the running min or max are evaluated."""
    t1 = float(traj.ts[-1])
    ev = traj.events.x[np.searchsorted(traj.events.time, cut):]  # time >= cut
    m = min(200_000, max(1000, int((t1 - cut) / 0.01) + 1))
    return _dense_extent(traj, traj.xs, traj.vs, traj.positions_at, cut, m, ev)


def _dense_extent(traj: Trajectory, ys, dys, dense, cut: float, m: int, extra=()) -> np.ndarray:
    """Per-axis (min, max) over [cut, end of run] of one stored column
    ``ys``: its samples, the ``extra`` rows, and its cubic Hermite
    interpolant ``dense`` (slopes ``dys``) on linspace(cut, end, m).

    The result equals the min/max over all m grid values, but the grid is
    evaluated only on the pieces that could reach past the running min or
    max of the samples and extra rows.  A cubic Hermite piece lies in the
    hull of its Bernstein control points y0, y0 + dt y0'/3, y1 - dt y1'/3,
    y1; the margin 1e-12 (|y0| + |y1| + dt (|y0'| + |y1'|)), floored at
    the smallest normal float, covers the rounding of both that hull and
    the evaluation.
    """
    ts = traj.ts
    X = ys[ts >= cut]
    if len(extra):
        X = np.vstack([X, extra])
    lo, hi = X.min(axis=0), X.max(axis=0)
    grid = np.linspace(cut, ts[-1], m)
    # pieces j0 .. len(ts)-2 cover the grid; grid points with
    # ts[j] <= t < ts[j+1] fall in piece j, and the last piece holds t = end
    j0 = min(max(int(np.searchsorted(ts, cut, side="right")) - 1, 0), len(ts) - 2)
    bounds = np.searchsorted(grid, ts[j0 + 1:-1], side="left")
    counts = np.diff(bounds, prepend=0, append=m)
    dt = np.diff(ts[j0:])[:, None]
    y0, y1 = ys[j0:-1], ys[j0 + 1:]
    s0, s1 = dt * dys[j0:-1], dt * dys[j0 + 1:]
    c0, c1 = y0 + s0 / 3.0, y1 - s1 / 3.0
    margin = 1.0e-12 * (np.abs(y0) + np.abs(y1) + np.abs(s0) + np.abs(s1)) + _TINY
    hull_lo = np.minimum(np.minimum(y0, y1), np.minimum(c0, c1)) - margin
    hull_hi = np.maximum(np.maximum(y0, y1), np.maximum(c0, c1)) + margin
    inside = (hull_lo > lo) & (hull_hi < hi)
    reach = grid[np.repeat(~inside.all(axis=1), counts)]
    # in blocks: an interpolant's temporaries on the whole grid would cost
    # far more memory than its result, and min and max are exact either way
    for start in range(0, len(reach), _DENSE_BLOCK):
        V = dense(reach[start:start + _DENSE_BLOCK])
        lo = np.minimum(lo, V.min(axis=0))
        hi = np.maximum(hi, V.max(axis=0))
    return np.stack([lo, hi], axis=1)


@dataclass(frozen=True)
class GapReport:
    """Consecutive sign-change gaps and their logarithmic envelope fit."""

    times: np.ndarray
    gaps: np.ndarray
    log_slope: float
    max_log_ratio: float

    def as_dict(self) -> dict:
        return {
            "count": int(len(self.gaps)),
            "log_slope": self.log_slope,
            "max_log_ratio": self.max_log_ratio,
            "last_gap": float(self.gaps[-1]) if len(self.gaps) else None,
        }


def sign_change_gaps(traj: Trajectory) -> GapReport:
    """Gaps t_{i+1} - t_i between events, with a fit of gap against
    ln(1 + t_i) and the max ratio gap / (1 + ln(1 + t_i))."""
    et = traj.events.time
    if len(et) < 2:
        raise DomainError("need at least 2 events for gap statistics")
    gaps = np.diff(et)
    base = et[:-1]
    logs = np.log1p(base)
    if len(gaps) >= 2 and np.ptp(logs) > 0:
        slope = float(np.polyfit(logs, gaps, 1)[0])
    else:
        slope = 0.0
    ratio = float(np.max(gaps / (1.0 + logs)))
    return GapReport(base, gaps, slope, ratio)


@dataclass(frozen=True)
class LimitClassification(Record):
    """Finite-horizon verdict on the trajectory's limit behavior.

    limit_exists is the honest tail test (extent and velocity below
    thresholds over the final 10%); the verdict can assert convergence to
    a minimum beyond that via the oscillation dichotomy: localized
    oscillation around an isolated minimum with a growing sign-change
    count is convergence in progress even when the tail is still wide.
    """

    limit_estimate: np.ndarray
    limit_exists: bool
    nearest_kind: Optional[str]
    nearest_location: Optional[float]
    nearest_distance: Optional[float]
    sign_changes: int
    verdict: str
    oscillating: bool
    horizon: float
    tail_width: float
    tail_velocity: float


def _tail_velocity_max(traj: Trajectory, cut: float) -> float:
    """max |v| over [cut, end of run]: samples and a dense grid of about
    one point per 0.01 time units (1000 to 100000 points)."""
    m = min(100_000, max(1000, int((traj.ts[-1] - cut) / 0.01) + 1))
    ext = _dense_extent(traj, traj.vs, traj.accs, traj.velocities_at, cut, m)
    return float(np.max(np.abs(ext)))


def classify_limit(traj: Trajectory) -> LimitClassification:
    """Classify the run per the sign-change dichotomy (1D only).

    Verdicts: ConvergesToMin (localized at a minimum, usually with a
    growing sign-change count), ConvergesToMax (settled limit at a local
    maximum, no recent events), NotConverged (persistently wide tail),
    Undetermined (horizon too short to tell).
    """
    pot = traj.spec.potential
    if traj.n != 1:
        raise UnsupportedError("limit classification is 1D only")

    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    span = t1 - t0
    ext10 = omega_limit_extent(traj, 0.1)
    w10 = float(ext10[0, 1] - ext10[0, 0])
    xbar = 0.5 * (ext10[0, 0] + ext10[0, 1])
    # log-scale tails: a sweep that still fills space over the whole last
    # decade is non-convergent even when any 10% window looks narrow
    ext_dec = _extent_window(traj, max(t0, t1 / 10.0))
    ext_2dec = _extent_window(traj, max(t0, t1 / 100.0))
    w_dec = float(ext_dec[0, 1] - ext_dec[0, 0])
    w_2dec = float(ext_2dec[0, 1] - ext_2dec[0, 0])
    vmax = _tail_velocity_max(traj, t1 - 0.1 * span)
    limit_exists = w10 < LIMIT_WIDTH_TOL and vmax < LIMIT_VELOCITY_TOL

    # nearest critical structure
    nearest_kind: Optional[str] = None
    nearest_loc: Optional[float] = None
    nearest_dist: Optional[float] = None
    separation = math.inf
    isolated = False
    if pot.argmin_ball is not None:
        r = pot.argmin_ball
        if abs(xbar) <= r + MATCH_DISTANCE:
            nearest_kind = "LocalMin"
            nearest_loc = float(np.clip(xbar, -r, r))
            nearest_dist = max(0.0, abs(xbar) - r)
            separation = 2.0 * r
            isolated = r <= MATCH_DISTANCE
    else:
        lo = float(np.min(traj.xs)) - 1.0
        hi = float(np.max(traj.xs)) + 1.0
        try:
            cps = critical_points(pot, (lo, hi))
        except UnsupportedError:
            cps = []
        if cps:
            dists = [abs(cp.location - xbar) for cp in cps]
            j = int(np.argmin(dists))
            nearest_kind = cps[j].kind
            nearest_loc = cps[j].location
            nearest_dist = dists[j]
            others = [abs(cp.location - cps[j].location) for cp in cps if cp is not cps[j]]
            separation = min(others) if others else math.inf
            isolated = True

    et = traj.events.time  # in time order
    n_events = len(et)
    n_half = int(np.searchsorted(et, t0 + span / 2.0, side="right"))
    events_growing = n_events >= 2 and n_events > n_half
    recent_events = n_events > int(np.searchsorted(et, t1 - 0.2 * span))

    matched_min = (
        nearest_kind == "LocalMin"
        and nearest_dist is not None
        and nearest_dist <= MATCH_DISTANCE
    )
    matched_max = (
        nearest_kind == "LocalMax"
        and nearest_dist is not None
        and nearest_dist <= MATCH_DISTANCE
    )

    if limit_exists:
        if matched_max and not recent_events:
            verdict = "ConvergesToMax"
        elif matched_min:
            verdict = "ConvergesToMin"
        else:
            verdict = "Undetermined"
    elif matched_min and isolated and w_dec < 0.5 * separation and events_growing:
        # oscillation localized around one isolated minimum: the
        # dichotomy's convergent branch, even though no finite-horizon
        # limit is resolved yet
        verdict = "ConvergesToMin"
    elif w_dec >= 0.1 and w_dec >= 0.7 * w_2dec:
        verdict = "NotConverged"
    else:
        verdict = "Undetermined"

    return LimitClassification(
        limit_estimate=np.array([xbar]),
        limit_exists=limit_exists,
        nearest_kind=nearest_kind,
        nearest_location=nearest_loc,
        nearest_distance=nearest_dist,
        sign_changes=n_events,
        verdict=verdict,
        oscillating=events_growing,
        horizon=t1,
        tail_width=w10,
        tail_velocity=vmax,
    )
