"""Adaptive integration of the damped system x'' + a(t) x' + grad G(x) = 0.

The solver is an explicit Dormand-Prince 5(4) pair with first-same-as-last
stage reuse and a quartic interpolant, built only on the steps that
bracket an event.  On top of plain stepping it provides:

  * velocity sign-change events, refined on the step's interpolant to
    1e-10 in time (grazing zeros that do not flip the sign are not events).
    The loop detects them and keeps each bracketing step's data; whenever
    EVENT_CHUNK brackets have gathered, and once after the loop, one
    vectorised Brent pass (the arithmetic of scipy's brentq, so the same
    bits) refines them together and keeps only each event's time and state;
  * a running dissipation integral int_0^t a |x'|^2, integrated as one
    more component of the system by the step's own fifth-order weights
    (from the stage rates and velocities the step already has),
    independently of the energy difference it is later checked against;
  * bounded memory: stored samples are thinned by stride doubling to at
    most MAX_STORED_SAMPLES states, events are never thinned.  For n=1 a
    run holds 40 bytes per stored sample (t, x, v, x'' and the dissipation
    packed as floats; the energy adds 8 after the loop), 24 bytes per
    event (t, x, v; the energy adds 8), and fewer than EVENT_CHUNK = 4096
    unrefined brackets of about 570 bytes each (the step's times, state
    and stage slopes, from which the refinement builds the interpolant).
    The returned arrays take over the packed columns without a copy;
  * a series bootstrap for schedules behaving like c/t at the origin,
    where the vector field itself is singular.

There is one stepper for every dimension.  Its arithmetic is elementwise,
so the same lines run on plain floats for n=1 (the hot case; long
double-well sweeps spend millions of steps here) and on (n,) arrays for
n >= 2.  The few operations that differ (gradient, energy, finiteness,
maximum, component sum, norm, event projection, constants) are bound once
per run by state_ops.  On (n,) arrays a numpy call costs far more than its
arithmetic, so the array branch avoids the fixed costs that do not change
a bit: the potential's unchecked closures instead of its validated
methods, and the tableau coefficients held as (n,) arrays, since an
array-by-array product is cheaper than a float-by-array one and rounds
the same.  On floats the interpreter's own work per call is the cost, so
the loop drops every call it can drop without changing a bit: the n=1
maximum is a lambda, not the builtin, the step-size clamps are
conditional expressions, and the stage-6 rate and the accepted state's
magnitudes are reused.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from fractions import Fraction as _Fr
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

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
# event brackets refined together inside the step loop
EVENT_CHUNK = 4096
# relative tolerance and iteration cap of the event root-finder (brentq's)
_EVENT_RTOL = 8.9e-16
_EVENT_MAXITER = 100
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


@dataclass(frozen=True)
class State:
    """Phase-space point (t, x, v)."""

    t: float
    x: np.ndarray
    v: np.ndarray


class _ReadOnlyArrays:
    """Base of the result dataclasses whose array fields are read-only.
    The constructor sets the flags, and unpickling calls the constructor,
    so a copy made by pickle (as a worker process returns one) is
    read-only too."""

    __slots__ = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Events(_ReadOnlyArrays):
    """Sign changes of the monitored velocity projection, one row each in
    time order: ``time`` (E,), interpolated ``x`` and ``v`` (E, n) and
    ``energy`` (E,), and the unit ``direction`` the velocity is projected
    on.  The columns are read-only; a slice is a table over the same rows."""

    time: np.ndarray
    x: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    direction: np.ndarray

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, rows: slice) -> "Events":
        if not isinstance(rows, slice):
            raise TypeError(f"Events takes slices, got {type(rows).__name__}")
        return Events(self.time[rows], self.x[rows], self.v[rows], self.energy[rows], self.direction)


class Record:
    """Base of the result records (dataclasses): ``as_dict`` is the JSON of
    the fields that ``repr`` shows, with arrays and tuples as lists."""

    def as_dict(self) -> dict:
        return {
            f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.repr
        }


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


@dataclass
class SolverStats(Record):
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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Trajectory(_ReadOnlyArrays):
    """Immutable result of one integration: the fields cannot be
    reassigned and the sample arrays are read-only, in a copy made by
    pickle too.

    Stored samples are (t, x, v, x'') rows plus energy and the cumulative
    dissipation integral; events carry full interpolated states.  Dense
    evaluation between samples is cubic Hermite in each component: fourth
    order, below the fifth-order steps, so its error does not shrink with
    ``rel_tol`` as the step error does.  On A7's closed form, unthinned,
    its x error is 2.7 to 73 times ``rel_tol`` for ``rel_tol`` 1e-6 to
    1e-11, and it grows once stride doubling spreads the samples out.  A
    quintic Hermite on the stored ``accs`` would close the gap (ROADMAP
    item 3).
    """

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    energies: np.ndarray
    dissipation: np.ndarray
    events: Events
    stats: SolverStats
    spec: SystemSpec
    n: int

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
        return State(tq[0], self.positions_at(tq)[0], self.velocities_at(tq)[0])


def _start_point(value, n: int, what: str) -> np.ndarray:
    """``value`` as a finite (n,) float array, else DomainError."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (n,):
        raise DomainError(f"{what} has shape {arr.shape}, expected ({n},)")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr


def _normalize_spec(spec: SystemSpec):
    n = spec.potential.n
    x0 = _start_point(spec.x0, n, "x0")
    v0 = _start_point(spec.v0, n, "v0")
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


class StateOps(NamedTuple):
    """The operations that depend on how a state is held.

    For n = 1 a state is a plain float and these are builtins, the
    potential's float closures and, for ``maximum``, a lambda that
    returns what the builtin ``max`` returns at less cost per call; for
    n >= 2 it is an (n,) array and they are numpy calls and the
    potential's array closures, each chosen for the least fixed cost at
    the bits of its checked form.  Everything else in the stepper and in
    the recursion is elementwise arithmetic that runs on either.

    ``column`` makes the growable sequence the stepper stores samples and
    events in: an ``array('d')`` of packed floats for n = 1 (8 bytes a
    value, against 32 for a list of boxed floats), a list of (n,) arrays
    for n >= 2.  Both append, thin by ``[::2]``, insert at 0 and convert
    with ``np.asarray`` alike, the packed one without a copy.
    """

    states: Callable  # array of (n,) rows -> float(s) or array
    grad: Callable  # x -> grad G(x)
    energy: Callable  # (x, v) -> |v|^2 / 2 + G(x)
    finite: Callable  # every component finite
    maximum: Callable  # elementwise max of two states
    total: Callable  # sum of the components, a float
    norm: Callable  # Euclidean norm, a float
    project: Callable  # component along the event direction, a float
    const: Callable  # a float c -> c in the state's type, read-only
    column: Callable  # iterable of states -> a growable column holding them


def state_ops(pot: Potential, direction: Optional[np.ndarray] = None) -> StateOps:
    """Bind the dimension-dependent operations for ``pot`` once."""
    energy_of = pot.energy_fn()
    if pot.n == 1:
        return StateOps(
            states=lambda a: a[..., 0].tolist(),
            grad=pot.grad_fn(),
            energy=lambda x, v: 0.5 * v * v + energy_of(x),
            finite=math.isfinite,
            maximum=lambda a, b: b if b > a else a,
            total=float,
            norm=abs,
            # +-v changes sign exactly where v does
            project=float,
            const=float,
            column=partial(array, "d"),
        )
    n = pot.n

    def const(c: float) -> np.ndarray:
        a = np.full(n, c)
        a.flags.writeable = False
        return a

    return StateOps(
        states=lambda a: np.asarray(a, dtype=float),
        grad=pot.grad_fn(),
        energy=lambda x, v: 0.5 * float(v.dot(v)) + energy_of(x),
        finite=lambda a: all(map(math.isfinite, a.tolist())),
        maximum=np.maximum,
        # the reduction ndarray.sum runs, without the method's dispatch
        total=lambda a: float(np.add.reduce(a)),
        # np.linalg.norm's own formula for a 1-D array, without its overhead
        norm=lambda a: math.sqrt(a.dot(a)),
        project=lambda w: float(direction.dot(w)),
        const=const,
        column=list,
    )


def integrate(spec: SystemSpec) -> Trajectory:
    """Solve the system on [0, t_end] and return the sampled trajectory.

    Stationary initial data (critical point, zero velocity) short-circuits
    to a two-sample constant trajectory.  Schedules singular at the origin
    are started by a series step and the exact t=0 state is prepended to
    the output.  A finite state too large to evaluate (the scalar closures
    raise OverflowError where numpy returns inf) at the start or in the
    first-step estimate raises NonFiniteState.  The stepper tests every
    stage and the first-step estimate for inf and NaN (a rejected stage,
    or NonFiniteState), so numpy's overflow and invalid warnings on arrays
    are silenced rather than printed on the way.
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
        no_events = Events(np.empty(0), np.empty((0, n)), np.empty((0, n)), np.empty(0), d)
        return Trajectory(
            ts, xs, vs, accs, np.array([e0, e0]), np.zeros(2), no_events, SolverStats(), spec, n,
        )

    prelude = None
    diss0 = 0.0
    if sched.singular_at_zero:
        # Series start for a(t) ~ c/t: the field is singular at t=0, but the
        # solution is smooth with x'(0) = 0, so one quadratic Taylor step
        #     x(h) = x0 - g(x0) h^2 / (2(1+c)),   v(h) = -g(x0) h / (1+c)
        # at h = BOOTSTRAP_H0 has O(h^4) truncation error and lands where
        # the adaptive stepper can take over.
        if not (isinstance(sched, PowerLaw) and sched.s0 == 0):
            raise UnsupportedError("bootstrap applies to PowerLaw schedules with offset 0")
        if sched.gamma != 1.0:
            raise UnsupportedError(
                f"singular start implemented for exponent 1 only, got {sched.gamma}"
            )
        c = sched.c
        t0 = h0 = BOOTSTRAP_H0
        y_x = x0 - g0 * (h0 * h0 / (2.0 * (1.0 + c)))
        y_v = -g0 * (h0 / (1.0 + c))
        # exact-to-O(h0^4) accumulated dissipation and t=0 row
        gn2 = float(g0 @ g0)
        diss0 = c * gn2 * h0 ** 2 / (2.0 * (1.0 + c) ** 2)
        prelude = (
            0.0, ops.states(x0), ops.states(np.zeros(n)),
            ops.states(-g0 / (1.0 + c)), pot.energy(x0), 0.0,
        )
    else:
        t0 = 0.0
        y_x, y_v = x0, v0

    if spec.t_end <= t0:
        raise DomainError(f"t_end={spec.t_end} does not exceed the start time {t0}")

    *columns, stats = _run(spec, ops, t0, ops.states(y_x), ops.states(y_v), diss0)
    if prelude is not None:
        for column, value in zip(columns, prelude):
            column.insert(0, value)
    # a packed n=1 column becomes an array without a copy
    ts, xs, vs, accs, es, ds, et, ex, ev, ee = (np.asarray(c, dtype=float) for c in columns)
    return Trajectory(
        ts, xs.reshape(-1, n), vs.reshape(-1, n), accs.reshape(-1, n), es, ds,
        Events(et, ex.reshape(-1, n), ev.reshape(-1, n), ee, d), stats, spec, n,
    )


def _run(spec: SystemSpec, ops: StateOps, t0: float, x0, v0, diss0: float):
    """The stepper: x, v and the stages are floats for n=1, arrays for n >= 2.

    Returns the ops.column columns of the stored samples (t, x, v, x'',
    energy, dissipation) and of the events (t, x, v, energy), then the
    stats.  The coefficients that multiply a state (the tableau's a, b and
    e) are held in the state's type; the c_i, which multiply the float h,
    and the dissipation's weights q_i, which multiply a float rate, stay
    floats.
    """
    rate = spec.schedule.rate_fn()
    g, energy_of, all_finite = ops.grad, ops.energy, ops.finite
    maximum, total, project, const = ops.maximum, ops.total, ops.project, ops.const
    column = ops.column
    n = spec.potential.n
    two_n = 2.0 * n
    t_end = spec.t_end
    rtol, atol = spec.rel_tol, spec.abs_tol
    max_steps = spec.max_steps
    fixed_h = spec.fixed_step
    stride = spec.sample_stride or 1
    h_min = MIN_STEP_FRACTION * t_end

    a21 = const(_A21)
    a31, a32 = map(const, (_A31, _A32))
    a41, a42, a43 = map(const, (_A41, _A42, _A43))
    a51, a52, a53, a54 = map(const, (_A51, _A52, _A53, _A54))
    a61, a62, a63, a64, a65 = map(const, (_A61, _A62, _A63, _A64, _A65))
    b1, b3, b4, b5, b6 = map(const, (_B1, _B3, _B4, _B5, _B6))
    e1, e3, e4, e5, e6, e7 = map(const, (_E1, _E3, _E4, _E5, _E6, _E7))
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    q1, q3, q4, q5, q6 = _B1, _B3, _B4, _B5, _B6

    t, x, v = t0, x0, v0
    k1x = v
    r1 = rate(t)
    k1v = -r1 * v - g(x)
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

    ts = column((t,))
    xs = column((x,))
    vs = column((v,))
    accs = column((k1v,))
    ds = column((diss,))
    events = (column(), column(), column())  # t, x, v of each event, in time order
    brackets = []  # sign changes inside a step not yet refined, fewer than EVENT_CHUNK
    failure = None  # what refining raised in the loop, raised after it
    w = project(v)
    last_sign = 0.0 if w == 0.0 else math.copysign(1.0, w)
    pending_zero = None

    accepted = rejected = 0
    since_store = 0
    just_rejected = False
    facold = 1.0e-4
    # |x| and |v| of the accepted state, for the error norm of the next steps
    ax, av = abs(x), abs(v)

    # The step-size clamps below are conditional expressions, not min and
    # max: each one returns what the builtin call it stands for returns
    # (min(a, b) is b if b < a else a; max(a, b) is b if b > a else a).
    while t < t_end:
        if accepted + rejected >= max_steps:
            raise MaxStepsExceeded(
                f"{max_steps} steps exhausted at t={t:.6g} of {t_end:.6g}"
            )
        t_h = t + h
        clipped = t_h >= t_end
        if clipped:
            h = t_end - t
            t_h = t + h  # may round to a float other than t_end
        elif h < h_min:
            raise StepUnderflow(f"step {h:.3e} below {h_min:.3e} at t={t:.6g}")

        # stages (k1 carried over: first-same-as-last)
        try:
            xx = x + h * (a21 * k1x)
            vv = v + h * (a21 * k1v)
            k2x = vv
            r2 = rate(t + c2 * h)
            k2v = -r2 * vv - g(xx)
            xx = x + h * (a31 * k1x + a32 * k2x)
            vv = v + h * (a31 * k1v + a32 * k2v)
            k3x = vv
            r3 = rate(t + c3 * h)
            k3v = -r3 * vv - g(xx)
            xx = x + h * (a41 * k1x + a42 * k2x + a43 * k3x)
            vv = v + h * (a41 * k1v + a42 * k2v + a43 * k3v)
            k4x = vv
            r4 = rate(t + c4 * h)
            k4v = -r4 * vv - g(xx)
            xx = x + h * (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x)
            vv = v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
            k5x = vv
            r5 = rate(t + c5 * h)
            k5v = -r5 * vv - g(xx)
            xx = x + h * (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x)
            vv = v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
            k6x = vv
            r6 = rate(t_h)
            k6v = -r6 * vv - g(xx)
            x_new = x + h * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
            v_new = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            t_new = t_end if clipped else t_h
            k7x = v_new
            # the last stage is at t_new, where stage 6 already took the rate
            # unless the step was clipped
            r7 = rate(t_new) if clipped else r6
            k7v = -r7 * v_new - g(x_new)
            finite = all_finite(x_new) and all_finite(v_new) and all_finite(k7v)
        except OverflowError:
            # a scalar closure overflowed where an array would hold inf
            finite = False

        if fixed_h is None:
            if finite:
                err_x = h * (e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
                err_v = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
                ax_new, av_new = abs(x_new), abs(v_new)
                # only squared, so the sign need not go: |e|/s is |e/s| exactly
                rx = err_x / (atol + rtol * maximum(ax, ax_new))
                rv = err_v / (atol + rtol * maximum(av, av_new))
                norm = math.sqrt(total(rx * rx + rv * rv) / two_n)
            else:
                norm = math.inf
            if not norm <= 1.0:
                rejected += 1
                just_rejected = True
                if not math.isfinite(norm):
                    h *= _MIN_FACTOR
                    if h < h_min and not finite:
                        raise NonFiniteState(
                            f"state non-finite at t={t:.6g} and step cannot shrink"
                        )
                else:
                    shrink = _SAFETY * norm ** -0.2
                    h *= shrink if shrink > _MIN_FACTOR else _MIN_FACTOR
                continue
            ax, av = ax_new, av_new
            if norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * norm ** -_PI_EXPO * facold ** _PI_BETA
                factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
                facold = 1.0e-4 if 1.0e-4 > norm else norm
            if just_rejected:
                factor = 1.0 if 1.0 < factor else factor
                just_rejected = False
        elif not finite:
            raise NonFiniteState(f"state non-finite at t={t:.6g} with fixed step")
        else:
            factor = 1.0

        # dissipation increment: a |v|^2 taken as one more component of the
        # system, integrated by the step's own weights from its stage rates
        # and velocities (fifth order, like the step)
        inc = h * total(
            q1 * r1 * k1x * k1x + q3 * r3 * k3x * k3x + q4 * r4 * k4x * k4x
            + q5 * r5 * k5x * k5x + q6 * r6 * k6x * k6x
        )
        yk = inc - diss_c
        tk = diss + yk
        diss_c = (tk - diss) - yk
        diss = tk

        # events: the monitored velocity projection flipped sign across this
        # step.  A bracketed flip keeps the step's data, and _refine_brackets
        # finds the crossings of EVENT_CHUNK of them at once, or of fewer
        # ahead of a step that ended exactly on a zero.
        w_new = project(v_new)
        if w_new != 0.0:
            new_sign = 1.0 if w_new > 0.0 else -1.0  # w_new is finite and not 0
            if last_sign != 0.0 and new_sign != last_sign:
                if pending_zero is None:
                    brackets.append((t, t_new, h, x, v, k1x, k3x, k4x, k5x, k6x, k7x,
                                     k1v, k3v, k4v, k5v, k6v, k7v))
                if brackets and (pending_zero is not None or len(brackets) >= EVENT_CHUNK):
                    # held, so that a loop error raised later takes precedence
                    if failure is None:
                        try:
                            _refine_brackets(brackets, events, ops, n)
                        except Exception as exc:
                            failure = exc
                    brackets = []
                if pending_zero is not None:
                    for event_column, value in zip(events, pending_zero):
                        event_column.append(value)
            last_sign = new_sign
            pending_zero = None
        else:
            pending_zero = (t_new, x_new, v_new)

        t, x, v = t_new, x_new, v_new
        k1x, k1v, r1 = k7x, k7v, r7
        accepted += 1

        since_store += 1
        if since_store >= stride or t >= t_end:
            ts.append(t)
            xs.append(x)
            vs.append(v)
            accs.append(k1v)
            ds.append(diss)
            since_store = 0
            if len(ts) > MAX_STORED_SAMPLES:
                ts = ts[::2]
                xs = xs[::2]
                vs = vs[::2]
                accs = accs[::2]
                ds = ds[::2]
                stride *= 2

        if fixed_h is not None:
            h = fixed_h
        elif t < t_end:
            h *= factor
            rest = t_end - t
            h = rest if rest < h else h

    if ts[-1] != t:
        ts.append(t)
        xs.append(x)
        vs.append(v)
        accs.append(k1v)
        ds.append(diss)
    # every attempt, accepted or rejected, evaluates six stages
    stats = SolverStats(accepted, rejected, nfev + 6 * (accepted + rejected), stride)
    es = column(map(energy_of, xs, vs))  # of the samples thinning kept
    if failure is not None:
        raise failure
    if brackets:
        _refine_brackets(brackets, events, ops, n)
    et, ex, ev = events
    return ts, xs, vs, accs, es, ds, et, ex, ev, column(map(energy_of, ex, ev)), stats


def _refine_brackets(brackets, events, ops: StateOps, n: int) -> None:
    """Append the time, position and velocity of the crossing in each
    bracket, a step's (t, t_new, h, x, v, k1x, k3x..k7x, k1v, k3v..k7v),
    to the three columns ``events``.

    Every crossing is found at once by _brentq_batch on the step's
    projected quartic, and the states are the step's interpolant there,
    with the bits of one scipy.optimize.brentq call and one scalar
    interpolation per event, however the brackets are grouped.
    """
    t, t_new, h, x, v, *k = (np.array(column) for column in zip(*brackets))
    m = len(t)
    x, v, *k = (a.reshape(m, n) for a in (x, v, *k))
    p1, _, p3, p4, p5, p6, p7 = _P

    def quartic(k1, k3, k4, k5, k6, k7):
        # the interpolant's coefficients of theta^1..theta^4 from the slopes
        return [k1 * p1[0]] + [
            k1 * p1[j] + k3 * p3[j] + k4 * p4[j] + k5 * p5[j] + k6 * p6[j] + k7 * p7[j]
            for j in (1, 2, 3)
        ]

    qx, qv = quartic(*k[:6]), quartic(*k[6:])
    project = ops.project

    def along(a):
        # row by row, as the loop projects v: a stacked product may round
        # differently; an n=1 state is its own projection
        return a[:, 0] if n == 1 else np.array([project(row) for row in a])

    w, q1, q2, q3, q4 = map(along, (v, *qv))

    def wq(tau, i):
        hi = h[i]
        th = (tau - t[i]) / hi
        return w[i] + hi * (th * (q1[i] + th * (q2[i] + th * (q3[i] + th * q4[i]))))

    te = _brentq_batch(wq, t, t_new, EVENT_TIME_TOL, _EVENT_RTOL, _EVENT_MAXITER)
    th = ((te - t) / h).reshape(m, 1)
    h = h.reshape(m, 1)
    et, ex, ev = events
    et.extend(te.tolist())
    for y, (c1, c2, c3, c4), column in ((x, qx, ex), (v, qv, ev)):
        column.extend(ops.states(y + h * (th * (c1 + th * (c2 + th * (c3 + th * c4))))))


def _brentq_batch(f, xa, xb, xtol: float, rtol: float, maxiter: int) -> np.ndarray:
    """scipy.optimize.brentq on every bracket [xa[i], xb[i]] at once.

    ``f(x, i)`` evaluates the functions of brackets ``i`` (an index array)
    at the points ``x``.  Each bracket goes through the floating-point
    operations of scipy's brentq.c in the same order, so each root has the
    bits of the scalar call.  Where that call raises (a NaN function value
    or no sign change: ValueError; no convergence in ``maxiter``
    iterations: RuntimeError), this raises the same error for the first
    such bracket in index order.
    """
    roots = np.empty(len(xa))
    errors = {}  # bracket -> what its brentq call raises

    def evaluate(x, i):
        fx = f(x, i)
        # a NaN fails its bracket, which may run on: brackets never mix
        for k in np.flatnonzero(np.isnan(fx)):
            errors.setdefault(int(i[k]), ValueError(
                f"The function value at x={float(x[k])} is NaN; solver cannot continue."))
        return fx

    i = np.arange(len(xa))
    xpre, xcur = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    fpre, fcur = evaluate(xpre, i), evaluate(xcur, i)
    at_a = fpre == 0.0
    at_b = ~at_a & (fcur == 0.0)
    roots[at_a], roots[at_b] = xpre[at_a], xcur[at_b]
    same = ~(at_a | at_b) & (np.signbit(fpre) == np.signbit(fcur))
    for k in np.flatnonzero(same):
        errors.setdefault(int(k), ValueError("f(a) and f(b) must have different signs"))
    live = ~(at_a | at_b | same)
    i, xpre, xcur, fpre, fcur = i[live], xpre[live], xcur[live], fpre[live], fcur[live]
    xblk, fblk, spre, scur = (np.zeros(len(i)) for _ in range(4))
    with np.errstate(all="ignore"):  # both step formulas run; one is kept
        for _ in range(maxiter):
            if not len(i):
                break
            flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre = np.where(flip, xcur - xpre, spre)
            scur = np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))

            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():
                roots[i[done]] = xcur[done]
                live = ~done
                i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    a[live]
                    for a in (i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
                )

            # secant or inverse quadratic step where short enough, else bisection
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            limit = 3 * np.abs(sbis) - delta
            limit = np.where(np.abs(spre) < limit, np.abs(spre), limit)  # C's MIN
            short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            short &= 2 * np.abs(stry) < limit
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = evaluate(xcur, i)
    for k in i.tolist():
        errors.setdefault(k, RuntimeError(f"Failed to converge after {maxiter} iterations."))
    if errors:
        raise errors[min(errors)]
    return roots
