"""Adaptive integration of the damped system x'' + a(t) x' + grad G(x) = 0.

The solver is the explicit Dormand-Prince 8(5,3) pair (DOP853) with
first-same-as-last stage reuse.  Its dense output is the quintic Hermite
on the stored (x, v, x'') at both ends of a piece, with v the derivative
of the x interpolant; it needs no stage data, so a thinned trajectory and
the event refinement evaluate the same polynomial.  On top of plain
stepping the solver provides:

  * velocity sign-change events, refined on that interpolant to 1e-10 in
    time (grazing zeros that do not flip the sign are not events).
    The loop detects them and keeps each bracketing step's two end
    states; whenever EVENT_CHUNK brackets have gathered, and once after
    the loop, one vectorised Brent pass (the arithmetic of scipy's
    brentq, so the same bits) refines them together and keeps only each
    event's time and state;
  * a running dissipation integral int_0^t a |x'|^2, integrated as one
    more component of the system by the step's own eighth-order weights
    (from the stage rates and velocities the step already has),
    independently of the energy difference it is later checked against;
  * bounded memory: stored samples are thinned by stride doubling to at
    most MAX_STORED_SAMPLES states, events are never thinned.  For n=1 a
    run holds 40 bytes per stored sample (t, x, v, x'' and the dissipation
    packed as floats; the energy adds 8 after the loop), 24 bytes per
    event (t, x, v; the energy adds 8), and fewer than EVENT_CHUNK = 4096
    unrefined brackets of about 300 bytes each (the step's times and its
    two end states (x, v, x'')).
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
conditional expressions, and the last stage's rate and the accepted
state's magnitudes are reused.  Stage positions go straight into the
gradient, unnamed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
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
# the step-size exponent of the eighth-order pair
_EXPO = 0.125
# Lund-stabilized step control: factor = safety * norm^-(1/8 - 0.75b) * prev^b
_PI_BETA = 0.04
_PI_EXPO = _EXPO - 0.75 * _PI_BETA

# Dormand-Prince 8(5,3) tableau (DOP853; Hairer, Norsett and Wanner, Solving
# Ordinary Differential Equations I), the floats of scipy's
# dop853_coefficients written out, so that a run loads no scipy.  _A holds
# each stage's row below the diagonal, zeros included.  The solution
# weights _B and the fifth- and third-order error weights _E5 and _E3
# vanish on stages 2 to 5; the stage at c = 1 is the last.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)


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


def _quintic_x(x0, x1, v0, v1, a0, a1, dt, th):
    """The quintic Hermite on a piece of length dt at th in [0, 1]: the
    polynomial that takes the position x, velocity v and acceleration a
    given at both ends.  Exact at th = 0 and th = 1."""
    u = 1.0 - th
    th2, u2 = th * th, u * u
    th3, u3 = th2 * th, u2 * u
    return (
        u3 * (1.0 + th * (3.0 + 6.0 * th)) * x0 + th3 * (10.0 - th * (15.0 - 6.0 * th)) * x1
        + dt * (th * u3 * (1.0 + 3.0 * th) * v0 - th3 * u * (4.0 - 3.0 * th) * v1)
        + 0.5 * dt * dt * (th2 * u3 * a0 + th3 * u2 * a1)
    )


def _quintic_v(dx, v0, v1, a0, a1, dt, th):
    """The time derivative of _quintic_x, from the position difference
    dx = x1 - x0.  Exact at th = 0 and th = 1."""
    u = 1.0 - th
    th2, u2 = th * th, u * u
    return (
        30.0 * th2 * u2 * dx / dt + u2 * (1.0 + th * (2.0 - 15.0 * th)) * v0
        + th2 * (th * (28.0 - 15.0 * th) - 12.0) * v1
        + 0.5 * dt * th * u * (u * (2.0 - 5.0 * th) * a0 + th * (3.0 - 5.0 * th) * a1)
    )


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Trajectory(_ReadOnlyArrays):
    """Immutable result of one integration: the fields cannot be
    reassigned and the sample arrays are read-only, in a copy made by
    pickle too.

    Stored samples are (t, x, v, x'') rows plus energy and the cumulative
    dissipation integral; events carry full interpolated states.  Dense
    evaluation between samples is the quintic Hermite on (x, v, x'') at
    both ends of a piece, and the velocity is its derivative: sixth order
    in x, below the eighth-order steps, so its error relative to
    ``rel_tol`` grows as ``rel_tol`` falls.  On A7's closed form (t = 100,
    unthinned) its x error at the middle of the pieces is 0.05 to 23 times
    ``rel_tol`` for ``rel_tol`` 1e-6 to 1e-11 (the samples: 1e-4 to 3e-3
    times).  On a double-well run to t = 1e5 at ``rel_tol`` 1e-6, thinned
    to stride 2, it stays within 1.3e-5 (x) and 1.0e-5 (v) of the stepped
    states in the last decade.
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

    def _pieces(self, times):
        """The end samples of the piece holding each query time, the
        piece lengths and the offsets in [0, 1], shaped to broadcast
        against (m, n) rows."""
        tq = np.atleast_1d(np.asarray(times, dtype=float))
        ts = self.ts
        if tq.min() < ts[0] or tq.max() > ts[-1]:
            raise DomainError(
                f"dense evaluation outside [{ts[0]:.6g}, {ts[-1]:.6g}]"
            )
        i = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
        dt = ts[i + 1] - ts[i]
        theta = (tq - ts[i]) / dt
        return i, i + 1, dt[:, None], theta[:, None]

    def positions_at(self, times) -> np.ndarray:
        """Interpolated x on an array of query times; shape (m, n)."""
        i, j, dt, th = self._pieces(times)
        xs, vs, accs = self.xs, self.vs, self.accs
        return _quintic_x(xs[i], xs[j], vs[i], vs[j], accs[i], accs[j], dt, th)

    def velocities_at(self, times) -> np.ndarray:
        """Interpolated v, the derivative of positions_at; shape (m, n)."""
        i, j, dt, th = self._pieces(times)
        xs, vs, accs = self.xs, self.vs, self.accs
        return _quintic_v(xs[j] - xs[i], vs[i], vs[j], accs[i], accs[j], dt, th)


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
    stats.  The coefficients that multiply a state (the tableau's a and b
    and the error weights e5 and e3) are held in the state's type;
    the c_i, which multiply the float h, and the dissipation's weights q_i
    (the b_i again), which multiply a float rate, stay floats.
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

    (
        _, (a2_1,), (a3_1, a3_2), (a4_1, _, a4_3), (a5_1, _, a5_3, a5_4),
        (a6_1, _, _, a6_4, a6_5), (a7_1, _, _, a7_4, a7_5, a7_6),
        (a8_1, _, _, a8_4, a8_5, a8_6, a8_7), (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
        (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11),
    ) = [tuple(map(const, row)) for row in _A]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = map(const, _B)
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = map(const, _E5)
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = map(const, _E3)
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _ = _C
    q1, _, _, _, _, q6, q7, q8, q9, q10, q11, q12 = _B

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
        h1 = (0.01 / dm) ** _EXPO if dm > 1e-15 else max(1.0e-6, h0 * 1e-3)
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

        # stages (k1 carried over: first-same-as-last); the stage positions
        # go straight into the gradient, and the rates of stages 2 to 5,
        # whose solution weights are 0, are not kept
        try:
            k2x = v + h * (a2_1 * k1v)
            k2v = -rate(t + c2 * h) * k2x - g(x + h * (a2_1 * k1x))
            k3x = v + h * (a3_1 * k1v + a3_2 * k2v)
            k3v = -rate(t + c3 * h) * k3x - g(x + h * (a3_1 * k1x + a3_2 * k2x))
            k4x = v + h * (a4_1 * k1v + a4_3 * k3v)
            k4v = -rate(t + c4 * h) * k4x - g(x + h * (a4_1 * k1x + a4_3 * k3x))
            k5x = v + h * (a5_1 * k1v + a5_3 * k3v + a5_4 * k4v)
            k5v = -rate(t + c5 * h) * k5x - g(x + h * (a5_1 * k1x + a5_3 * k3x + a5_4 * k4x))
            k6x = v + h * (a6_1 * k1v + a6_4 * k4v + a6_5 * k5v)
            r6 = rate(t + c6 * h)
            k6v = -r6 * k6x - g(x + h * (a6_1 * k1x + a6_4 * k4x + a6_5 * k5x))
            k7x = v + h * (a7_1 * k1v + a7_4 * k4v + a7_5 * k5v + a7_6 * k6v)
            r7 = rate(t + c7 * h)
            k7v = -r7 * k7x - g(x + h * (a7_1 * k1x + a7_4 * k4x + a7_5 * k5x + a7_6 * k6x))
            k8x = v + h * (a8_1 * k1v + a8_4 * k4v + a8_5 * k5v + a8_6 * k6v + a8_7 * k7v)
            r8 = rate(t + c8 * h)
            k8v = -r8 * k8x - g(
                x + h * (a8_1 * k1x + a8_4 * k4x + a8_5 * k5x + a8_6 * k6x + a8_7 * k7x)
            )
            k9x = v + h * (
                a9_1 * k1v + a9_4 * k4v + a9_5 * k5v + a9_6 * k6v + a9_7 * k7v + a9_8 * k8v
            )
            r9 = rate(t + c9 * h)
            k9v = -r9 * k9x - g(x + h * (
                a9_1 * k1x + a9_4 * k4x + a9_5 * k5x + a9_6 * k6x + a9_7 * k7x + a9_8 * k8x
            ))
            k10x = v + h * (
                a10_1 * k1v + a10_4 * k4v + a10_5 * k5v + a10_6 * k6v + a10_7 * k7v
                + a10_8 * k8v + a10_9 * k9v
            )
            r10 = rate(t + c10 * h)
            k10v = -r10 * k10x - g(x + h * (
                a10_1 * k1x + a10_4 * k4x + a10_5 * k5x + a10_6 * k6x + a10_7 * k7x
                + a10_8 * k8x + a10_9 * k9x
            ))
            k11x = v + h * (
                a11_1 * k1v + a11_4 * k4v + a11_5 * k5v + a11_6 * k6v + a11_7 * k7v
                + a11_8 * k8v + a11_9 * k9v + a11_10 * k10v
            )
            r11 = rate(t + c11 * h)
            k11v = -r11 * k11x - g(x + h * (
                a11_1 * k1x + a11_4 * k4x + a11_5 * k5x + a11_6 * k6x + a11_7 * k7x
                + a11_8 * k8x + a11_9 * k9x + a11_10 * k10x
            ))
            k12x = v + h * (
                a12_1 * k1v + a12_4 * k4v + a12_5 * k5v + a12_6 * k6v + a12_7 * k7v
                + a12_8 * k8v + a12_9 * k9v + a12_10 * k10v + a12_11 * k11v
            )
            r12 = rate(t_h)  # c12 = 1
            k12v = -r12 * k12x - g(x + h * (
                a12_1 * k1x + a12_4 * k4x + a12_5 * k5x + a12_6 * k6x + a12_7 * k7x
                + a12_8 * k8x + a12_9 * k9x + a12_10 * k10x + a12_11 * k11x
            ))
            x_new = x + h * (
                b1 * k1x + b6 * k6x + b7 * k7x + b8 * k8x + b9 * k9x + b10 * k10x
                + b11 * k11x + b12 * k12x
            )
            v_new = v + h * (
                b1 * k1v + b6 * k6v + b7 * k7v + b8 * k8v + b9 * k9v + b10 * k10v
                + b11 * k11v + b12 * k12v
            )
            t_new = t_end if clipped else t_h
            # the next step's first stage is at t_new, where stage 12 already
            # took the rate unless the step was clipped
            r13 = rate(t_new) if clipped else r12
            k13v = -r13 * v_new - g(x_new)
            finite = all_finite(x_new) and all_finite(v_new) and all_finite(k13v)
        except OverflowError:
            # a scalar closure overflowed where an array would hold inf
            finite = False

        if fixed_h is None:
            if finite:
                ax_new, av_new = abs(x_new), abs(v_new)
                sx = atol + rtol * maximum(ax, ax_new)
                sv = atol + rtol * maximum(av, av_new)
                # only squared, so the sign need not go: |e|/s is |e/s| exactly
                ex5 = h * (
                    e5_1 * k1x + e5_6 * k6x + e5_7 * k7x + e5_8 * k8x + e5_9 * k9x + e5_10 * k10x
                    + e5_11 * k11x + e5_12 * k12x
                ) / sx
                ev5 = h * (
                    e5_1 * k1v + e5_6 * k6v + e5_7 * k7v + e5_8 * k8v + e5_9 * k9v + e5_10 * k10v
                    + e5_11 * k11v + e5_12 * k12v
                ) / sv
                ex3 = h * (
                    e3_1 * k1x + e3_6 * k6x + e3_7 * k7x + e3_8 * k8x + e3_9 * k9x + e3_10 * k10x
                    + e3_11 * k11x + e3_12 * k12x
                ) / sx
                ev3 = h * (
                    e3_1 * k1v + e3_6 * k6v + e3_7 * k7v + e3_8 * k8v + e3_9 * k9v + e3_10 * k10v
                    + e3_11 * k11v + e3_12 * k12v
                ) / sv
                # DOP853's norm: the fifth-order estimate, damped where the
                # third-order one is much larger
                s5 = total(ex5 * ex5 + ev5 * ev5)
                s3 = total(ex3 * ex3 + ev3 * ev3)
                norm = s5 / math.sqrt((s5 + 0.01 * s3) * two_n) if s5 else 0.0
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
                    shrink = _SAFETY * norm ** -_EXPO
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
        # and velocities (eighth order, like the step)
        inc = h * total(
            q1 * r1 * k1x * k1x + q6 * r6 * k6x * k6x + q7 * r7 * k7x * k7x
            + q8 * r8 * k8x * k8x + q9 * r9 * k9x * k9x + q10 * r10 * k10x * k10x
            + q11 * r11 * k11x * k11x + q12 * r12 * k12x * k12x
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
                    brackets.append((t, t_new, x, v, k1v, x_new, v_new, k13v))
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
        k1x, k1v, r1 = v_new, k13v, r13
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
    # every attempt, accepted or rejected, evaluates twelve stages
    stats = SolverStats(accepted, rejected, nfev + 12 * (accepted + rejected), stride)
    es = column(map(energy_of, xs, vs))  # of the samples thinning kept
    if failure is not None:
        raise failure
    if brackets:
        _refine_brackets(brackets, events, ops, n)
    et, ex, ev = events
    return ts, xs, vs, accs, es, ds, et, ex, ev, column(map(energy_of, ex, ev)), stats


def _refine_brackets(brackets, events, ops: StateOps, n: int) -> None:
    """Append the time, position and velocity of the crossing in each
    bracket, a step's (t, t_new, x, v, x'', x_new, v_new, x''_new), to the
    three columns ``events``.

    Every crossing is found at once by _brentq_batch on the projected
    velocity of the step's quintic Hermite, the interpolant
    Trajectory.positions_at and velocities_at evaluate, and the states are
    that interpolant there, with the bits of one scipy.optimize.brentq call
    and one scalar interpolation per event, however the brackets are
    grouped.
    """
    t, t_new, x0, v0, a0, x1, v1, a1 = (np.array(column) for column in zip(*brackets))
    m = len(t)
    x0, v0, a0, x1, v1, a1 = (a.reshape(m, n) for a in (x0, v0, a0, x1, v1, a1))
    dx = x1 - x0
    dt = t_new - t
    project = ops.project

    def along(a):
        # row by row, as the loop projects v: a stacked product may round
        # differently; an n=1 state is its own projection
        return a[:, 0] if n == 1 else np.array([project(row) for row in a])

    wdx, w0, w1, wa0, wa1 = map(along, (dx, v0, v1, a0, a1))

    def wq(tau, i):
        return _quintic_v(wdx[i], w0[i], w1[i], wa0[i], wa1[i], dt[i], (tau - t[i]) / dt[i])

    te = _brentq_batch(wq, t, t_new, EVENT_TIME_TOL, _EVENT_RTOL, _EVENT_MAXITER)
    th = ((te - t) / dt).reshape(m, 1)
    dt = dt.reshape(m, 1)
    et, ex, ev = events
    et.extend(te.tolist())
    ex.extend(ops.states(_quintic_x(x0, x1, v0, v1, a0, a1, dt, th)))
    ev.extend(ops.states(_quintic_v(dx, v0, v1, a0, a1, dt, th)))


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
