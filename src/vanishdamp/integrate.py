"""Adaptive integration of the damped system x'' + a(t) x' + grad G(x) = 0.

The solver is an explicit Dormand-Prince 5(4) pair with first-same-as-last
stage reuse and a quartic interpolant on every accepted step.  On top of
plain stepping it provides:

  * velocity sign-change events, refined on the in-flight interpolant to
    1e-10 in time (grazing zeros that do not flip the sign are not events);
  * a running dissipation integral int_0^t a |x'|^2, accumulated per step
    by 3-point Gauss-Legendre quadrature on the interpolant, independently
    of the energy difference it is later checked against;
  * memory-bounded output: stored samples are thinned by stride doubling
    to at most MAX_STORED_SAMPLES states, events are never thinned;
  * a series bootstrap for schedules behaving like c/t at the origin,
    where the vector field itself is singular.

There is one stepper for every dimension.  Its arithmetic is elementwise,
so the same lines run on plain floats for n=1 (the hot case; long
double-well sweeps spend millions of steps here) and on (n,) arrays for
n >= 2.  The few operations that differ (gradient, energy, finiteness,
maximum, component sum, norm, event projection) are bound once per run
by state_ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as _Fr
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DomainError,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
    UnsupportedError,
)
from .potential import Potential
from .schedule import DampingSchedule, PowerLaw

BOOTSTRAP_H0 = 1.0e-6
MAX_STORED_SAMPLES = 100_000
EVENT_TIME_TOL = 1.0e-10
# StepUnderflow when h < MIN_STEP_FRACTION * t_end
MIN_STEP_FRACTION = 1.0e-14

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# Lund-stabilized step control: factor = safety * norm^-(1/5 - 0.75b) * prev^b
_PI_BETA = 0.04
_PI_EXPO = 0.2 - 0.75 * _PI_BETA


def _fr(num: int, den: int) -> float:
    return float(_Fr(num, den))


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, _fr(8, 9)
_A21 = 0.2
_A31, _A32 = _fr(3, 40), _fr(9, 40)
_A41, _A42, _A43 = _fr(44, 45), _fr(-56, 15), _fr(32, 9)
_A51, _A52, _A53, _A54 = _fr(19372, 6561), _fr(-25360, 2187), _fr(64448, 6561), _fr(-212, 729)
_A61, _A62, _A63, _A64, _A65 = (
    _fr(9017, 3168),
    _fr(-355, 33),
    _fr(46732, 5247),
    _fr(49, 176),
    _fr(-5103, 18656),
)
_B1, _B3, _B4, _B5, _B6 = _fr(35, 384), _fr(500, 1113), _fr(125, 192), _fr(-2187, 6784), _fr(11, 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    _fr(71, 57600),
    _fr(-71, 16695),
    _fr(71, 1920),
    _fr(-17253, 339200),
    _fr(22, 525),
    _fr(-1, 40),
)

# Quartic dense-output matrix (Shampine): y(theta) = y0 + h * Q(theta),
# Q(theta) = sum_j theta^j (P^T K)_j.  Column 0 is e1, so the interpolant
# starts with slope k1; each row sums to the solution weight of its stage,
# so theta=1 reproduces the accepted endpoint.
_P = (
    (1.0, _fr(-8048581381, 2820520608), _fr(8663915743, 2820520608), _fr(-12715105075, 11282082432)),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, _fr(131558114200, 32700410799), _fr(-68118460800, 10900136933), _fr(87487479700, 32700410799)),
    (0.0, _fr(-1754552775, 470086768), _fr(14199869525, 1410260304), _fr(-10690763975, 1880347072)),
    (0.0, _fr(127303824393, 49829197408), _fr(-318862633887, 49829197408), _fr(701980252875, 199316789632)),
    (0.0, _fr(-282668133, 205662961), _fr(2019193451, 616988883), _fr(-1453857185, 822651844)),
    (0.0, _fr(40617522, 29380423), _fr(-110615467, 29380423), _fr(69997945, 29380423)),
)

_B_FULL = (_B1, 0.0, _B3, _B4, _B5, _B6, 0.0)
for _row, _b in zip(_P, _B_FULL):
    assert abs(sum(_row) - _b) < 1.0e-12, "dense-output rows must sum to solution weights"

# 3-point Gauss-Legendre on [0, 1]
_GL_NODES = (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))
_GL_WEIGHTS = (_fr(5, 18), _fr(8, 18), _fr(5, 18))


@dataclass(frozen=True)
class State:
    """Phase-space point (t, x, v)."""

    t: float
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Event:
    """A sign change of the monitored velocity projection."""

    index: int
    time: float
    x: np.ndarray
    v: np.ndarray
    energy: float
    direction: np.ndarray
    kind: str = "VelocitySignChange"


@dataclass
class SolverStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    stride: int = 1


@dataclass(frozen=True)
class SystemSpec:
    """Everything needed to reproduce one integration."""

    schedule: DampingSchedule
    potential: Potential
    x0: object
    v0: object
    t_end: float
    rel_tol: float = 1.0e-9
    abs_tol: float = 1.0e-12
    max_steps: int = 10_000_000
    sample_stride: Optional[int] = None
    event_dir: Optional[Sequence[float]] = None
    fixed_step: Optional[float] = None


class Trajectory:
    """Immutable result of one integration.

    Stored samples are (t, x, v, x'') rows plus energy and the cumulative
    dissipation integral; events carry full interpolated states.  Dense
    evaluation between samples is cubic Hermite in each component, which
    keeps the interpolation error at solver order for unthinned output and
    degrades gracefully once stride doubling spreads the samples out.
    """

    __slots__ = (
        "ts",
        "xs",
        "vs",
        "accs",
        "energies",
        "dissipation",
        "events",
        "stats",
        "spec",
        "n",
    )

    def __init__(self, ts, xs, vs, accs, energies, dissipation, events, stats, spec, n):
        self.ts = ts
        self.xs = xs
        self.vs = vs
        self.accs = accs
        self.energies = energies
        self.dissipation = dissipation
        self.events = events
        self.stats = stats
        self.spec = spec
        self.n = n

    @property
    def final_state(self) -> State:
        return State(float(self.ts[-1]), self.xs[-1].copy(), self.vs[-1].copy())

    @property
    def initial_energy(self) -> float:
        return float(self.energies[0])

    def _theta(self, tq: np.ndarray):
        ts = self.ts
        if tq.min() < ts[0] or tq.max() > ts[-1]:
            raise DomainError(
                f"dense evaluation outside [{ts[0]:.6g}, {ts[-1]:.6g}]"
            )
        idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
        dt = ts[idx + 1] - ts[idx]
        theta = (tq - ts[idx]) / dt
        return idx, dt, theta

    def _hermite(self, y, dy, idx, dt, theta):
        th2 = theta * theta
        th3 = th2 * theta
        h00 = 2.0 * th3 - 3.0 * th2 + 1.0
        h10 = th3 - 2.0 * th2 + theta
        h01 = -2.0 * th3 + 3.0 * th2
        h11 = th3 - th2
        dtc = dt[:, None]
        return (
            h00[:, None] * y[idx]
            + h10[:, None] * dtc * dy[idx]
            + h01[:, None] * y[idx + 1]
            + h11[:, None] * dtc * dy[idx + 1]
        )

    def positions_at(self, times) -> np.ndarray:
        """Interpolated x on an array of query times; shape (m, n)."""
        tq = np.atleast_1d(np.asarray(times, dtype=float))
        idx, dt, theta = self._theta(tq)
        return self._hermite(self.xs, self.vs, idx, dt, theta)

    def velocities_at(self, times) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(times, dtype=float))
        idx, dt, theta = self._theta(tq)
        return self._hermite(self.vs, self.accs, idx, dt, theta)

    def dense_eval(self, t: float) -> State:
        """Interpolated state at one time inside the sample range."""
        tq = np.array([float(t)])
        i = int(np.searchsorted(self.ts, tq[0]))
        if i < len(self.ts) and self.ts[i] == tq[0]:
            return State(tq[0], self.xs[i].copy(), self.vs[i].copy())
        idx, dt, theta = self._theta(tq)
        x = self._hermite(self.xs, self.vs, idx, dt, theta)[0]
        v = self._hermite(self.vs, self.accs, idx, dt, theta)[0]
        return State(tq[0], x, v)


def _normalize_spec(spec: SystemSpec):
    pot = spec.potential
    n = pot.n
    x0 = np.atleast_1d(np.asarray(spec.x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(spec.v0, dtype=float))
    if x0.shape != (n,) or v0.shape != (n,):
        raise DomainError(
            f"initial data of shapes {x0.shape}/{v0.shape} for dimension {n}"
        )
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(v0))):
        raise DomainError("initial data must be finite")
    if not spec.t_end > 0:
        raise DomainError(f"t_end must be > 0, got {spec.t_end}")
    if not (spec.rel_tol > 0 and spec.abs_tol > 0):
        raise DomainError("tolerances must be positive")
    if spec.max_steps < 1:
        raise DomainError("max_steps must be >= 1")
    if spec.fixed_step is not None and not spec.fixed_step > 0:
        raise DomainError("fixed_step must be positive")
    if spec.sample_stride is not None and spec.sample_stride < 1:
        raise DomainError("sample_stride must be >= 1")
    if spec.schedule.singular_at_zero and float(np.max(np.abs(v0))) != 0.0:
        raise DomainError("a singular schedule requires v0 = 0")
    d = np.zeros(n)
    if spec.event_dir is not None:
        d = np.asarray(spec.event_dir, dtype=float)
        if d.shape != (n,) or not np.any(d):
            raise DomainError("event direction must be a nonzero n-vector")
        d = d / np.linalg.norm(d)
    else:
        d[0] = 1.0
    return n, x0, v0, d


def bootstrap_singular_start(spec: SystemSpec) -> State:
    """Series start for a(t) ~ c/t: the field is singular at t=0, but the
    solution is smooth with x'(0) = 0, so one quadratic Taylor step

        x(h) = x0 - g(x0) h^2 / (2(1+c)),   v(h) = -g(x0) h / (1+c)

    at h = BOOTSTRAP_H0 has O(h^4) truncation error and lands where the
    adaptive stepper can take over.
    """
    sched = spec.schedule
    if not (isinstance(sched, PowerLaw) and sched.s0 == 0):
        raise UnsupportedError("bootstrap applies to PowerLaw schedules with offset 0")
    if sched.gamma != 1.0:
        raise UnsupportedError(
            f"singular start implemented for exponent 1 only, got {sched.gamma}"
        )
    n, x0, v0, _ = _normalize_spec(spec)
    if float(np.max(np.abs(v0))) != 0.0:
        raise DomainError("singular start requires v0 = 0")
    c = sched.c
    g0 = spec.potential.grad(x0)
    h0 = BOOTSTRAP_H0
    x = x0 - g0 * (h0 * h0 / (2.0 * (1.0 + c)))
    v = -g0 * (h0 / (1.0 + c))
    return State(h0, x, v)


class StateOps(NamedTuple):
    """The operations that depend on how a state is held.

    For n = 1 a state is a plain float and these are builtins and the
    potential's scalar closures; for n >= 2 it is an (n,) array and they
    wrap numpy and the array API.  Everything else in the stepper and in
    the recursion is elementwise arithmetic that runs on either.
    """

    states: Callable  # array of (n,) rows -> float(s) or array
    grad: Callable  # x -> grad G(x)
    energy: Callable  # (x, v) -> |v|^2 / 2 + G(x)
    finite: Callable  # every component finite
    maximum: Callable  # elementwise max of two states
    total: Callable  # sum of the components, a float
    norm: Callable  # Euclidean norm, a float
    project: Callable  # component along the event direction, a float


def state_ops(pot: Potential, direction: Optional[np.ndarray] = None) -> StateOps:
    """Bind the dimension-dependent operations for ``pot`` once."""
    if pot.n == 1:
        energy_of = pot.scalar_energy_fn()
        return StateOps(
            states=lambda a: a[..., 0].tolist(),
            grad=pot.scalar_grad_fn(),
            energy=lambda x, v: 0.5 * v * v + energy_of(x),
            finite=math.isfinite,
            maximum=max,
            total=float,
            norm=abs,
            # +-v changes sign exactly where v does
            project=float,
        )
    energy_of = pot.energy
    return StateOps(
        states=lambda a: np.asarray(a, dtype=float),
        grad=pot.grad,
        energy=lambda x, v: 0.5 * float(v @ v) + energy_of(x),
        finite=lambda a: bool(np.isfinite(a).all()),
        maximum=np.maximum,
        total=lambda a: float(a.sum()),
        norm=lambda a: float(np.linalg.norm(a)),
        project=lambda w: float(direction @ w),
    )


def integrate(spec: SystemSpec) -> Trajectory:
    """Solve the system on [0, t_end] and return the sampled trajectory.

    Stationary initial data (critical point, zero velocity) short-circuits
    to a two-sample constant trajectory.  Schedules singular at the origin
    are started by bootstrap_singular_start and the exact t=0 state is
    prepended to the output.  A finite state too large to evaluate (the
    scalar closures raise OverflowError where numpy returns inf) at the
    start or in the first-step estimate raises NonFiniteState.  The
    stepper tests every stage and the first-step estimate for inf and NaN
    (a rejected stage, or NonFiniteState), so numpy's overflow and invalid
    warnings on arrays are silenced rather than printed on the way.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _solve(spec)
    except OverflowError as exc:
        raise NonFiniteState(f"state left the float range: {exc}") from exc


def _solve(spec: SystemSpec) -> Trajectory:
    n, x0, v0, d = _normalize_spec(spec)
    pot = spec.potential
    sched = spec.schedule
    ops = state_ops(pot, d)
    g0 = pot.grad(x0)

    if float(np.max(np.abs(v0))) == 0.0 and float(np.max(np.abs(g0))) == 0.0:
        ts = np.array([0.0, spec.t_end])
        xs = np.vstack([x0, x0])
        vs = np.zeros((2, n))
        accs = np.zeros((2, n))
        e0 = pot.energy(x0)
        return Trajectory(
            ts, xs, vs, accs, np.array([e0, e0]), np.zeros(2), [],
            SolverStats(), spec, n,
        )

    prelude = None
    diss0 = 0.0
    if sched.singular_at_zero:
        start = bootstrap_singular_start(spec)
        t0 = start.t
        y_x, y_v = start.x, start.v
        c = sched.c
        # exact-to-O(h0^4) accumulated dissipation and t=0 row
        gn2 = float(g0 @ g0)
        diss0 = c * gn2 * BOOTSTRAP_H0 ** 2 / (2.0 * (1.0 + c) ** 2)
        prelude = (
            0.0, ops.states(x0), ops.states(np.zeros(n)),
            ops.states(-g0 / (1.0 + c)), pot.energy(x0), 0.0,
        )
    else:
        t0 = 0.0
        y_x, y_v = x0, v0

    if spec.t_end <= t0:
        raise DomainError(f"t_end={spec.t_end} does not exceed the start time {t0}")

    out = _run(spec, ops, t0, ops.states(y_x), ops.states(y_v), diss0)
    ts_l, xs_l, vs_l, accs_l, es_l, ds_l, raw_events, stats = out
    if prelude is not None:
        for column, value in zip(out, prelude):
            column.insert(0, value)

    events = [
        Event(
            index=i,
            time=te,
            x=np.atleast_1d(np.asarray(xe, dtype=float)),
            v=np.atleast_1d(np.asarray(ve, dtype=float)),
            energy=ee,
            direction=d.copy(),
        )
        for i, (te, xe, ve, ee) in enumerate(raw_events)
    ]
    return Trajectory(
        np.asarray(ts_l, dtype=float),
        np.asarray(xs_l, dtype=float).reshape(-1, n),
        np.asarray(vs_l, dtype=float).reshape(-1, n),
        np.asarray(accs_l, dtype=float).reshape(-1, n),
        np.asarray(es_l, dtype=float),
        np.asarray(ds_l, dtype=float),
        events,
        stats,
        spec,
        n,
    )


def _run(spec: SystemSpec, ops: StateOps, t0: float, x0, v0, diss0: float):
    """The stepper: x, v and the stages are floats for n=1, arrays for n >= 2."""
    rate = spec.schedule.rate_fn()
    g, energy_of, all_finite = ops.grad, ops.energy, ops.finite
    maximum, total, project = ops.maximum, ops.total, ops.project
    two_n = 2.0 * spec.potential.n
    t_end = spec.t_end
    rtol, atol = spec.rel_tol, spec.abs_tol
    max_steps = spec.max_steps
    fixed_h = spec.fixed_step
    stride = spec.sample_stride or 1
    h_min = MIN_STEP_FRACTION * t_end

    a21 = _A21
    a31, a32 = _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    p11, p12, p13, p14 = _P[0]
    p32, p33, p34 = _P[2][1], _P[2][2], _P[2][3]
    p42, p43, p44 = _P[3][1], _P[3][2], _P[3][3]
    p52, p53, p54 = _P[4][1], _P[4][2], _P[4][3]
    p62, p63, p64 = _P[5][1], _P[5][2], _P[5][3]
    p72, p73, p74 = _P[6][1], _P[6][2], _P[6][3]
    gl1, gl2, gl3 = _GL_NODES
    gw1, gw2, gw3 = _GL_WEIGHTS

    t, x, v = t0, x0, v0
    k1x = v
    k1v = -rate(t) * v - g(x)
    if not all_finite(k1v):
        raise NonFiniteState(f"vector field non-finite at start t={t}")
    nfev = 1
    if fixed_h is not None:
        h = fixed_h
    else:
        # One magnitude scale for both components: per-component scales can
        # degenerate (v0 = 0 with a tiny abs_tol) and overflow the squares.
        s = atol + rtol * max(float(np.max(np.abs(x))), float(np.max(np.abs(v))), 1.0e-12)
        d0 = math.sqrt(total(x * x + v * v) / two_n) / s
        d1 = math.sqrt(total(k1x * k1x + k1v * k1v) / two_n) / s
        if not d1 < math.inf:
            raise NonFiniteState(f"|f|^2 overflows at start t={t}")
        h0 = 1.0e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, (t_end - t) * 0.5)
        x1 = x + h0 * k1x
        v1 = v + h0 * k1v
        f1v = -rate(t + h0) * v1 - g(x1)
        d2 = math.sqrt(total((v1 - k1x) ** 2 + (f1v - k1v) ** 2) / two_n) / s / h0
        nfev += 1
        dm = max(d1, d2)
        h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1.0e-6, h0 * 1e-3)
        h = min(100.0 * h0, h1, t_end - t)
        if not h > 0.0:  # the second evaluation's |f|^2 overflowed
            raise NonFiniteState(f"first-step estimate overflowed at t={t}")
    h = min(h, t_end - t)

    diss = diss0
    diss_c = 0.0  # Kahan compensation

    ts = [t]
    xs = [x]
    vs = [v]
    accs = [k1v]
    es = [energy_of(x, v)]
    ds = [diss]
    events = []
    w = project(v)
    last_sign = 0.0 if w == 0.0 else math.copysign(1.0, w)
    pending_zero = None

    stats = SolverStats(stride=stride)
    since_store = 0
    just_rejected = False
    facold = 1.0e-4

    while t < t_end:
        if stats.accepted + stats.rejected >= max_steps:
            raise MaxStepsExceeded(
                f"{max_steps} steps exhausted at t={t:.6g} of {t_end:.6g}"
            )
        clipped = t + h >= t_end
        if clipped:
            h = t_end - t
        elif h < h_min:
            raise StepUnderflow(f"step {h:.3e} below {h_min:.3e} at t={t:.6g}")

        # stages (k1 carried over: first-same-as-last)
        try:
            xx = x + h * (a21 * k1x)
            vv = v + h * (a21 * k1v)
            k2x = vv
            k2v = -rate(t + c2 * h) * vv - g(xx)
            xx = x + h * (a31 * k1x + a32 * k2x)
            vv = v + h * (a31 * k1v + a32 * k2v)
            k3x = vv
            k3v = -rate(t + c3 * h) * vv - g(xx)
            xx = x + h * (a41 * k1x + a42 * k2x + a43 * k3x)
            vv = v + h * (a41 * k1v + a42 * k2v + a43 * k3v)
            k4x = vv
            k4v = -rate(t + c4 * h) * vv - g(xx)
            xx = x + h * (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x)
            vv = v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
            k5x = vv
            k5v = -rate(t + c5 * h) * vv - g(xx)
            xx = x + h * (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x)
            vv = v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
            k6x = vv
            k6v = -rate(t + h) * vv - g(xx)
            x_new = x + h * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
            v_new = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            t_new = t_end if clipped else t + h
            k7x = v_new
            k7v = -rate(t_new) * v_new - g(x_new)
            finite = all_finite(x_new) and all_finite(v_new) and all_finite(k7v)
        except OverflowError:
            # a scalar closure overflowed where an array would hold inf
            finite = False
        nfev += 6

        if fixed_h is None:
            if finite:
                err_x = h * (e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
                err_v = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
                rx = abs(err_x) / (atol + rtol * maximum(abs(x), abs(x_new)))
                rv = abs(err_v) / (atol + rtol * maximum(abs(v), abs(v_new)))
                norm = math.sqrt(total(rx * rx + rv * rv) / two_n)
            else:
                norm = math.inf
            if not norm <= 1.0:
                stats.rejected += 1
                just_rejected = True
                if not math.isfinite(norm):
                    h *= _MIN_FACTOR
                    if h < h_min and not finite:
                        raise NonFiniteState(
                            f"state non-finite at t={t:.6g} and step cannot shrink"
                        )
                else:
                    h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
                continue
            if norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = min(
                    _MAX_FACTOR,
                    max(_MIN_FACTOR, _SAFETY * norm ** -_PI_EXPO * facold ** _PI_BETA),
                )
                facold = max(norm, 1.0e-4)
            if just_rejected:
                factor = min(factor, 1.0)
                just_rejected = False
        elif not finite:
            raise NonFiniteState(f"state non-finite at t={t:.6g} with fixed step")
        else:
            factor = 1.0

        # quartic interpolant coefficients for the velocity component
        qv1 = k1v * p11
        qv2 = k1v * p12 + k3v * p32 + k4v * p42 + k5v * p52 + k6v * p62 + k7v * p72
        qv3 = k1v * p13 + k3v * p33 + k4v * p43 + k5v * p53 + k6v * p63 + k7v * p73
        qv4 = k1v * p14 + k3v * p34 + k4v * p44 + k5v * p54 + k6v * p64 + k7v * p74

        # dissipation increment: 3-point Gauss-Legendre on a(t) |v(t)|^2
        va = v + h * (gl1 * (qv1 + gl1 * (qv2 + gl1 * (qv3 + gl1 * qv4))))
        vb = v + h * (gl2 * (qv1 + gl2 * (qv2 + gl2 * (qv3 + gl2 * qv4))))
        vc = v + h * (gl3 * (qv1 + gl3 * (qv2 + gl3 * (qv3 + gl3 * qv4))))
        inc = h * total(
            gw1 * rate(t + gl1 * h) * va * va
            + gw2 * rate(t + gl2 * h) * vb * vb
            + gw3 * rate(t + gl3 * h) * vc * vc
        )
        yk = inc - diss_c
        tk = diss + yk
        diss_c = (tk - diss) - yk
        diss = tk

        # events: the monitored velocity projection flipped sign across this step
        w_new = project(v_new)
        if w_new != 0.0:
            new_sign = math.copysign(1.0, w_new)
            if last_sign != 0.0 and new_sign != last_sign:
                if pending_zero is not None:
                    te, xe, ve = pending_zero
                else:
                    qx1 = k1x * p11
                    qx2 = k1x * p12 + k3x * p32 + k4x * p42 + k5x * p52 + k6x * p62 + k7x * p72
                    qx3 = k1x * p13 + k3x * p33 + k4x * p43 + k5x * p53 + k6x * p63 + k7x * p73
                    qx4 = k1x * p14 + k3x * p34 + k4x * p44 + k5x * p54 + k6x * p64 + k7x * p74

                    def wq(tau, _t=t, _h=h, _w=project(v), _q1=project(qv1),
                           _q2=project(qv2), _q3=project(qv3), _q4=project(qv4)):
                        th = (tau - _t) / _h
                        return _w + _h * (th * (_q1 + th * (_q2 + th * (_q3 + th * _q4))))

                    te = float(brentq(wq, t, t_new, xtol=EVENT_TIME_TOL, rtol=8.9e-16))
                    th = (te - t) / h
                    xe = x + h * (th * (qx1 + th * (qx2 + th * (qx3 + th * qx4))))
                    ve = v + h * (th * (qv1 + th * (qv2 + th * (qv3 + th * qv4))))
                events.append((te, xe, ve, energy_of(xe, ve)))
            last_sign = new_sign
            pending_zero = None
        else:
            pending_zero = (t_new, x_new, v_new)

        t, x, v = t_new, x_new, v_new
        k1x, k1v = k7x, k7v
        stats.accepted += 1

        since_store += 1
        if since_store >= stride or t >= t_end:
            ts.append(t)
            xs.append(x)
            vs.append(v)
            accs.append(k1v)
            es.append(energy_of(x, v))
            ds.append(diss)
            since_store = 0
        if len(ts) > MAX_STORED_SAMPLES:
            ts = ts[::2]
            xs = xs[::2]
            vs = vs[::2]
            accs = accs[::2]
            es = es[::2]
            ds = ds[::2]
            stride *= 2
            stats.stride = stride

        if fixed_h is not None:
            h = fixed_h
        else:
            h = min(h * factor, t_end - t) if t < t_end else h

    if ts[-1] != t:
        ts.append(t)
        xs.append(x)
        vs.append(v)
        accs.append(k1v)
        es.append(energy_of(x, v))
        ds.append(diss)
    stats.rhs_evals = nfev
    return ts, xs, vs, accs, es, ds, events, stats
