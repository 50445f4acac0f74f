"""Trajectory diagnostics: decay rates, bound residuals, occupation
density, Cesaro means, omega-limit extent, sign-change statistics, and
limit classification.

Every function here is a pure consumer of a Trajectory.  The quantities
mirror the convergence theory for the damped system: the energy gap
E(t) - min G, the two-sided decay envelopes, the time fraction spent
outside a ball around the candidate limit, and the dichotomy "limit is a
local minimum iff the velocity keeps changing sign".

The omega-limit extent and the tail velocity are exact min/max over the
samples and np.linspace's grid of the quintic Hermite dense output on
the window, but the grid is evaluated only on the pieces whose Bernstein
hull (Trajectory._hull) reaches the running min or max; the decay kernel
and int_0^t a are read on whole arrays of sample times.  Both give the
same bits as evaluating every grid point and every kernel value one by
one.  classify_limit compares its decade widths with thresholds and
computes one exactly only when its bounds do not decide the comparison;
lower_bound_residual takes the kernel only in the blocks of samples that
can hold the least slack.
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
from .schedule import Constant, PowerLaw

_trapz = getattr(np, "trapezoid", None) or np.trapz
_TINY = float(np.finfo(float).tiny)
# pieces of one hull block and grid points of one dense evaluation in
# the extents and occupation_density
_DENSE_BLOCK = 8192
# samples per block of lower_bound_residual's bound on its slacks
_RESIDUAL_BLOCK = 64

# finite-horizon thresholds for "the limit exists"
LIMIT_WIDTH_TOL = 1.0e-3
LIMIT_VELOCITY_TOL = 1.0e-3
# a candidate limit must sit this close to a critical set to be matched
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
    gap0 = float(gap[0])
    if (type(sched) in (Constant, PowerLaw) and 0.0 <= gap0 < math.inf
            and not np.signbit(gap[gap == 0.0]).any()):
        return _blocked_residual(sched, ts, gap, gap0)
    idx = np.arange(len(ts))
    if sched.kernel_by_quadrature and len(ts) > 2000:
        # quadrature-backed schedules price each kernel call; subsample
        idx = np.linspace(0, len(ts) - 1, 2000).astype(int)
    return _least_slack(sched, ts, gap, gap0, idx)


def _least_slack(sched, ts: np.ndarray, gap: np.ndarray, gap0: float, idx: np.ndarray) -> float:
    """The least slack of the lower bound at the samples idx."""
    kern = sched.decay_kernels(ts[idx])
    # fmin: a NaN slack is skipped, never returned
    return float(np.fmin.reduce(gap[idx] - gap0 * kern * kern, initial=math.inf))


def _blocked_residual(sched, ts: np.ndarray, gap: np.ndarray, gap0: float) -> float:
    """The least slack over every sample, with the kernels taken only in
    the blocks of _RESIDUAL_BLOCK samples that can hold it.

    A schedule whose a(t) >= 0 by construction has a kernel that does not
    increase, so no slack of a block is below its least gap less gap0 K^2,
    K the kernel at the block's start.  K is widened by 1e-9 of itself and
    by the smallest normal float: int_0^t a and exp round by a few units
    in the last place, a few 1e-16 times the integral, which is below 750
    wherever the kernel is a normal float.  Rounding is monotone, so a
    block whose bound is above the least slack found holds no smaller one.
    No gap is -0.0, so that least slack is one float whichever blocks hold
    it.
    """
    starts = np.arange(0, len(ts), _RESIDUAL_BLOCK)
    top = sched.decay_kernels(ts[starts]) * (1.0 + 1.0e-9) + _TINY
    # an all-NaN block's bound is NaN, read as +inf: it has no slack
    bound = np.fmin(np.fmin.reduceat(gap, starts) - gap0 * top * top, math.inf)
    sizes = np.diff(np.append(starts, len(ts)))
    first = np.arange(len(starts)) == int(np.argmin(bound))
    best = _least_slack(sched, ts, gap, gap0, np.flatnonzero(np.repeat(first, sizes)))
    rest = ~first & (bound < best)
    if not rest.any():
        return best
    return min(best, _least_slack(sched, ts, gap, gap0, np.flatnonzero(np.repeat(rest, sizes))))


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
    if not (K > 0 and theta >= 0):
        raise DomainError(f"need K > 0 and theta >= 0, got {K} and {theta}")
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
    if not np.all((vw > 0.0) & (vw < math.inf)):
        raise DomainError("series must be positive and finite on the fit window")
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
    samples = len(tw)
    # the window's copies are not needed by the fit: freed, they leave
    # room for the fit's own temporaries on a long run
    del mask, tw, vw
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return RateFit(
        window=(t0, t1),
        model=model,
        exponent=float(slope),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        samples=samples,
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
    if not np.all(np.isfinite(ref)):
        raise DomainError(f"reference must be finite, got {ref}")
    if not (radius > 0 and step > 0):
        raise DomainError(f"radius and step must be positive, got {radius} and {step}")
    hs = [float(h) for h in horizons]
    if not hs:
        raise DomainError("need at least one horizon")
    if not all(h2 > h1 for h1, h2 in zip(hs, hs[1:])):
        raise DomainError("horizons must be strictly increasing")
    if not traj.ts[0] < hs[0] <= hs[-1] <= traj.ts[-1]:
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
    monitored velocity), and the dense output on np.linspace over the tail
    (about one point per 0.01 time units, 1000 to 200000), so thinned
    storage cannot hide excursions between samples.  The grid is evaluated
    only on the pieces whose hull reaches past the running min or max.
    """
    if not 0.0 < tail_fraction <= 0.9:
        raise DomainError(f"tail_fraction must be in (0, 0.9], got {tail_fraction}")
    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    return _extent_window(traj, t1 - tail_fraction * (t1 - t0))


def _extent_window(traj: Trajectory, cut: float) -> np.ndarray:
    """Per-axis (min, max) of x over [cut, end of run]: the samples, the
    event states and the dense output on a grid of about one point per
    0.01 time units (1000 to 200000 points)."""
    return _Column(traj, False, cut).extent(cut)


class _Linspace:
    """The points of np.linspace(cut, end, m) by linspace's own arithmetic,
    k * step + cut with the last one at end, without the m-point array."""

    def __init__(self, cut: float, end: float, m: int):
        self.cut, self.end, self.m = cut, end, m
        self.delta = np.subtract(end, cut, dtype=float)
        self.step = self.delta / (m - 1)

    def at(self, k: np.ndarray) -> np.ndarray:
        """The points of the integer indices k."""
        k = k.astype(float)
        if self.step == 0:  # linspace's order for a step below the float range
            points = k / (self.m - 1) * self.delta + self.cut
        else:
            points = k * self.step + self.cut
        return np.where(k == self.m - 1, self.end, points)

    def first_at(self, times: np.ndarray) -> np.ndarray:
        """np.searchsorted of the points for times at most end: an estimate
        by arithmetic, corrected against the points, which do not
        decrease."""
        if not self.delta > 0:
            return np.zeros(len(times), dtype=np.intp)
        ratio = np.clip(times - self.cut, 0.0, self.delta) / self.delta  # in [0, 1]
        k = np.ceil(ratio * (self.m - 1)).astype(np.intp)
        while True:
            low = self.at(k) < times
            high = (k > 0) & (self.at(k - 1) >= times)
            if not (low.any() or high.any()):
                return k
            k = k + low - high


class _Column:
    """The positions (events included) or the velocities of a run from
    the piece holding ``first`` on, with the hull of each piece of its
    interpolant, taken once for every window that starts at or after
    ``first``.

    Each piece of the interpolant lies in the hull of its Bernstein
    control points, which ``Trajectory._hull`` gives from the piece's end
    samples (degree 5 for x, 4 for v) with a magnitude S, the sum of the
    terms that the control points and the evaluation add up.  Both round
    by a few dozen units in the last place of S at most, so the margin
    1e-12 S (about 4500 units), floored at the smallest normal float,
    covers them.  The pieces go in blocks of _DENSE_BLOCK, so the hull's
    temporaries stay that size whatever the number of samples.
    """

    def __init__(self, traj: Trajectory, velocity: bool, first: float):
        self.traj, self.velocity = traj, velocity
        # grid points per window: about one per 0.01 time units
        self.cap = 100_000 if velocity else 200_000
        (self.j0,), _ = traj._pieces(first)
        last = len(traj.ts) - 1
        self.lo = np.empty((last - self.j0, traj.n))
        self.hi = np.empty_like(self.lo)
        for j in range(self.j0, last, _DENSE_BLOCK):
            k = min(j + _DENSE_BLOCK, last)
            points, scale = traj._hull(j, k, velocity)
            margin = 1.0e-12 * scale + _TINY
            self.lo[j - self.j0:k - self.j0] = np.minimum.reduce(points) - margin
            self.hi[j - self.j0:k - self.j0] = np.maximum.reduce(points) + margin

    def stored(self, cut: float):
        """Per-axis min and max of the samples at or after cut, and of the
        event states there for positions."""
        traj = self.traj
        Y = (traj.vs if self.velocity else traj.xs)[np.searchsorted(traj.ts, cut):]  # ts >= cut
        if not self.velocity:
            ev = traj.events.x[np.searchsorted(traj.events.time, cut):]  # time >= cut
            if len(ev):
                Y = np.vstack([Y, ev])
        return Y.min(axis=0), Y.max(axis=0)

    def width_bounds(self, cut: float):
        """Bounds on the width of axis 0's extent over [cut, end]: the
        stored values' width below, the hulls' above.  The extent's min
        and max lie between them, and a difference rounds monotonically."""
        lo, hi = self.stored(cut)
        j = self.traj._pieces(cut)[0][0] - self.j0
        lower = float(hi[0] - lo[0])
        upper = float(max(hi[0], self.hi[j:, 0].max()) - min(lo[0], self.lo[j:, 0].min()))
        return lower, upper

    def extent(self, cut: float) -> np.ndarray:
        """Per-axis (min, max) over [cut, end of run] of the stored values
        and of the interpolant on the grid np.linspace(cut, end, m).

        The result equals the min/max over all m grid values, but the grid
        is evaluated only on the pieces whose hull reaches past the running
        min or max, in _DENSE_BLOCK blocks of points, so the interpolant's
        temporaries stay that size; the grid's points are computed a block
        at a time too (_Linspace), never the m of them at once.
        """
        ts = self.traj.ts
        last = len(ts) - 1
        m = min(self.cap, max(1000, int((ts[-1] - cut) / 0.01) + 1))
        grid = _Linspace(cut, ts[-1], m)
        lo, hi = self.stored(cut)
        # grid points with ts[j] <= t < ts[j+1] fall in piece j, and the
        # last piece holds t = end, as in Trajectory._pieces
        (j0,), _ = self.traj._pieces(cut)
        for j in range(j0, last, _DENSE_BLOCK):
            k = min(j + _DENSE_BLOCK, last)
            inside = ((self.lo[j - self.j0:k - self.j0] > lo)
                      & (self.hi[j - self.j0:k - self.j0] < hi)).all(axis=1)
            reach = j + np.flatnonzero(~inside)
            if not len(reach):
                continue
            begin = grid.first_at(ts[reach])
            counts = np.where(reach + 1 == last, m, grid.first_at(ts[reach + 1])) - begin
            # the reaching pieces' points in a row: row position q is grid
            # index q + shift of its piece
            stops = np.cumsum(counts)
            shift = begin - (stops - counts)
            total = int(stops[-1])
            for q in range(0, total, _DENSE_BLOCK):
                r = min(q + _DENSE_BLOCK, total)
                p = slice(int(np.searchsorted(stops, q, side="right")),
                          int(np.searchsorted(stops, r - 1, side="right")) + 1)
                sizes = np.minimum(stops[p], r) - np.maximum(stops[p] - counts[p], q)
                V = self.traj._dense(np.repeat(reach[p], sizes),
                                     grid.at(np.arange(q, r) + np.repeat(shift[p], sizes)),
                                     self.velocity)
                lo = np.minimum(lo, V.min(axis=0))
                hi = np.maximum(hi, V.max(axis=0))
        return np.stack([lo, hi], axis=1)


def sign_change_gaps(traj: Trajectory):
    """(t_i, t_{i+1} - t_i): each event's time and the gap to the next."""
    et = traj.events.time
    if len(et) < 2:
        raise DomainError("need at least 2 events for gap statistics")
    return et[:-1], np.diff(et)


@dataclass(frozen=True)
class LimitClassification(Record):
    """Finite-horizon verdict on the trajectory's limit behavior.

    limit_exists is the honest tail test (extent and velocity below
    thresholds over the final 10%); the verdict can assert convergence to
    a minimum beyond that via the oscillation dichotomy: localized
    oscillation around an isolated minimum with a growing sign-change
    count is convergence in progress even when the tail is still wide.
    The nearest_* fields, Python floats, describe the critical set nearest
    the limit estimate: its kind, its point nearest the estimate, and the
    distance to it (0 inside the set); None when there is no set.
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
    return float(np.max(np.abs(_Column(traj, True, cut).extent(cut))))


class _Width:
    """The width of x's extent over [cut, end of run], held as bounds from
    the column's stored values and hulls, and computed exactly only when
    a comparison asks for it and its bounds straddle the threshold.  The
    rounded products and differences are monotone, so a comparison that
    the bounds decide equals the exact one."""

    def __init__(self, column: _Column, cut: float):
        self.column, self.cut = column, cut
        self.lower, self.upper = column.width_bounds(cut)
        self.exact = False

    def refine(self) -> None:
        if not self.exact:
            ext = self.column.extent(self.cut)
            self.lower = self.upper = float(ext[0, 1] - ext[0, 0])
            self.exact = True

    def at_least(self, bound: float) -> bool:
        """width >= bound"""
        if self.lower >= bound:
            return True
        if self.upper < bound:
            return False
        self.refine()
        return self.lower >= bound

    def at_least_share(self, share: float, other: "_Width") -> bool:
        """width >= share * other's width"""
        for width in (self, other):
            if self.lower >= share * other.upper:
                return True
            if self.upper < share * other.lower:
                return False
            width.refine()
        return self.lower >= share * other.lower


def classify_limit(traj: Trajectory) -> LimitClassification:
    """Classify the run per the sign-change dichotomy (1D only).

    Verdicts: ConvergesToMin (localized at a minimum, usually with a
    growing sign-change count), ConvergesToMax (settled limit at a local
    maximum, no recent events), NotConverged (persistently wide tail),
    Undetermined (horizon too short to tell).  The limit estimate is
    matched to the nearest critical set in the range of the run widened by
    1; a set counts as isolated when it is no wider than 2 MATCH_DISTANCE.
    The tail's extent and velocity are exact; the widths over the last
    decade and two decades only enter comparisons, which their bounds
    decide unless they straddle the threshold.
    """
    pot = traj.spec.potential
    if traj.n != 1:
        raise UnsupportedError("limit classification is 1D only")

    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    span = t1 - t0
    tail = t1 - 0.1 * span
    # log-scale tails: a sweep that still fills space over the whole last
    # decade is non-convergent even when any 10% window looks narrow
    cut_dec, cut_2dec = max(t0, t1 / 10.0), max(t0, t1 / 100.0)
    xcol = _Column(traj, False, min(tail, cut_dec, cut_2dec))
    ext10 = xcol.extent(tail)
    w10 = float(ext10[0, 1] - ext10[0, 0])
    xbar = 0.5 * (ext10[0, 0] + ext10[0, 1])
    w_dec, w_2dec = _Width(xcol, cut_dec), _Width(xcol, cut_2dec)
    vmax = _tail_velocity_max(traj, tail)
    limit_exists = w10 < LIMIT_WIDTH_TOL and vmax < LIMIT_VELOCITY_TOL

    # nearest critical set, its point nearest xbar, and the gap to the next
    nearest_kind: Optional[str] = None
    nearest_loc: Optional[float] = None
    nearest_dist: Optional[float] = None
    separation = math.inf
    isolated = False
    sets = critical_points(pot, (float(np.min(traj.xs)) - 1.0, float(np.max(traj.xs)) + 1.0))
    if sets:
        dists = [max(s.left - xbar, xbar - s.right, 0.0) for s in sets]
        j = int(np.argmin(dists))
        near = sets[j]
        nearest_kind = near.kind
        nearest_loc = float(np.clip(xbar, near.left, near.right))
        nearest_dist = float(dists[j])
        gaps = [max(s.left - near.right, near.left - s.right) for s in sets if s is not near]
        separation = min(gaps, default=math.inf)
        isolated = near.right - near.left <= 2.0 * MATCH_DISTANCE

    et = traj.events.time  # in time order
    n_events = len(et)
    n_half = int(np.searchsorted(et, t0 + span / 2.0, side="right"))
    events_growing = n_events >= 2 and n_events > n_half
    recent_events = n_events > int(np.searchsorted(et, t1 - 0.2 * span))

    matched = nearest_dist is not None and nearest_dist <= MATCH_DISTANCE
    matched_min = matched and nearest_kind == "LocalMin"
    matched_max = matched and nearest_kind == "LocalMax"

    if limit_exists:
        if matched_max and not recent_events:
            verdict = "ConvergesToMax"
        elif matched_min:
            verdict = "ConvergesToMin"
        else:
            verdict = "Undetermined"
    elif matched_min and isolated and events_growing and not w_dec.at_least(0.5 * separation):
        # oscillation localized around one isolated minimum: the
        # dichotomy's convergent branch, even though no finite-horizon
        # limit is resolved yet
        verdict = "ConvergesToMin"
    elif w_dec.at_least(0.1) and w_dec.at_least_share(0.7, w_2dec):
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
