"""Adaptive integration of the damped system x'' + a(t) x' + grad G(x) = 0.

The solver is the explicit Dormand-Prince 8(5,3) pair (DOP853) with
first-same-as-last stage reuse.  Its dense output is the quintic Hermite
on the stored (x, v, x'') at both ends of a piece, with v the derivative
of the x interpolant; it needs no stage data, so a thinned trajectory and
the event refinement evaluate the same polynomial.  Its form is written
here once: the evaluation (_quintic_x, _quintic_v) and the Bernstein
control points that bound each piece (_position_hull, _velocity_hull),
which a Trajectory applies to its pieces (_dense, _hull).  On top of plain
stepping the solver provides:

  * events: the sign changes of the first velocity component (of v for
    n=1), refined on that interpolant to 1e-10 in time (grazing zeros
    that do not flip the sign are not events).
    The step loops record their steps; whenever EVENT_CHUNK have
    gathered, and after the loop, one pass over them (_Output) finds the
    events and refines their brackets together by a vectorised Brent
    search (scipy's brentq's arithmetic, so the same bits);
  * a running dissipation integral int_0^t a |x'|^2, integrated as one
    more component of the system by the step's own eighth-order weights
    (from the stage rates and velocities the step already has),
    independently of the energy difference it is later checked against;
  * bounded memory: stored samples are thinned by stride doubling to at
    most MAX_STORED_SAMPLES states, events are never thinned.  A step is
    recorded as one row of 3n + 2 packed floats (t, x, v, x'' and the
    dissipation), so a run holds (3n + 2) * 8 bytes per stored sample
    (the energy adds 8 after the loop), (2n + 1) * 8 per event (t, x, v;
    the energy adds 8) and at most EVENT_CHUNK = 16384 recorded steps of
    (3n + 2) * 8 bytes, plus about 370 a bracket for the at most
    _REFINE_SLICE = 4096 brackets refined together while the pass runs.
    The time and dissipation columns, and for n = 1 every column, become
    the returned arrays uncopied;
  * a series bootstrap for schedules behaving like c/t at the origin,
    where the vector field itself is singular.

There are two steppers with one arithmetic.  For n=1 (the hot case; long
double-well sweeps spend millions of steps here) _run runs the stages as
unrolled sums on plain floats, where the interpreter's own work per call
is the cost, so it drops every call it can drop without changing a bit:
the step-size clamps and error scales are conditional expressions, not
min and max, the last stage's rate and the accepted state's magnitudes
are reused, and an accepted step makes one call, to record itself.
Stage positions go straight into the gradient, unnamed.  For n >= 2,
where a numpy call costs far more than its arithmetic, _run_array keeps
the state (x, v) in one (2n,) array and the stage rates in one (12, 2n)
buffer, so that a stage, the solution, the error estimates and the
dissipation increment are each one weighted np.add.reduce over buffer
rows: O(stages) numpy calls an attempt, whatever n is.  Such a reduce
adds the rows in index order, the order of the unrolled sums, so the
n >= 2 stepper gives the bits of _run's lines run elementwise on (n,)
arrays; a BLAS dot would sum in its own order.  It writes each attempt's
new state and x'' into its one (3n + 2,) row, which its finiteness test
reads and an accepted step records.
Both evaluate the potential's unchecked closures, not its validated
methods, and share the start (_start) and the output (_Output), where
the event and thinning rules are written once, on the packed rows, for
every n.
"""

from __future__ import annotations

import math
import traceback
from array import array
from dataclasses import dataclass, fields
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
    UnsupportedError,
)
from .potential import Potential, row_dots
from .schedule import DampingSchedule, PowerLaw

BOOTSTRAP_H0 = 1.0e-6
MAX_STORED_SAMPLES = 100_000
EVENT_TIME_TOL = 1.0e-10
# recorded steps whose events and stored samples one pass takes
EVENT_CHUNK = 16384
# brackets refined together: the refinement's temporaries stay near 1.5 MB
# however many of a chunk's steps bracket a crossing
_REFINE_SLICE = 4096
# stored states whose G one call takes: its temporaries stay near 100 KB
_ENERGY_BLOCK = 4096
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


# The n >= 2 stepper's tables.  A stage, the solution and each error
# estimate sum only the terms of their nonzero coefficients, in stage
# order, as the n = 1 stepper's unrolled sums do: a zero coefficient's
# term 0 * k is NaN where k is infinite, and its +0.0 where k >= 0 turns a
# sum of -0.0 terms into +0.0.
# Stages 2 to 12: (c_i, the earlier stages with a nonzero a_ij, those a_ij
# as a column).
_STAGES = tuple(
    (_C[i], np.flatnonzero(_A[i]), np.array(_A[i])[np.flatnonzero(_A[i]), None])
    for i in range(1, 12)
)
# the stages the solution and the error estimates weigh (1 and 6 to 12)
# and their (3, 8, 1) weights b, e5 and e3
_SUMMED = np.flatnonzero(_B)
_WEIGHTS = np.array([_B, _E5, _E3])[:, _SUMMED, None]


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
    """Sign changes of the first velocity component, one row each in time
    order: ``time`` (E,), interpolated ``x`` and ``v`` (E, n) and
    ``energy`` (E,).  The columns are read-only."""

    time: np.ndarray
    x: np.ndarray
    v: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


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


def _position_hull(x0, x1, v0, v1, a0, a1, dt):
    """Bernstein control points of _quintic_x on each piece, and the
    magnitude that bounds its rounding: the sum of the terms its
    evaluation adds up."""
    s0, s1 = dt * v0, dt * v1
    q0, q1 = dt * dt * a0, dt * dt * a1
    points = (x0, x0 + s0 / 5.0, x0 + 0.4 * s0 + q0 / 20.0,
              x1 - 0.4 * s1 + q1 / 20.0, x1 - s1 / 5.0, x1)
    scale = np.abs(x0) + np.abs(x1) + np.abs(s0) + np.abs(s1) + np.abs(q0) + np.abs(q1)
    return points, scale


def _velocity_hull(x0, x1, v0, v1, a0, a1, dt):
    """Bernstein control points of _quintic_v on each piece, the quartic
    derivative of the quintic x, and the magnitude that bounds its
    rounding."""
    r = (x1 - x0) / dt
    s0, s1 = dt * a0, dt * a1
    points = (v0, v0 + s0 / 4.0, 5.0 * r - 2.0 * (v0 + v1) - (s0 - s1) / 4.0, v1 - s1 / 4.0, v1)
    scale = 30.0 * np.abs(r) + np.abs(v0) + np.abs(v1) + np.abs(s0) + np.abs(s1)
    return points, scale


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
        """The piece holding each query time (a NaN time is outside the
        run) and the times as a float array."""
        tq = np.atleast_1d(np.asarray(times, dtype=float))
        ts = self.ts
        if not np.all((ts[0] <= tq) & (tq <= ts[-1])):
            raise DomainError(
                f"dense evaluation outside [{ts[0]:.6g}, {ts[-1]:.6g}]"
            )
        return np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2), tq

    def _dense(self, i: np.ndarray, times: np.ndarray, velocity: bool) -> np.ndarray:
        """The interpolant's x, or its v, at times inside the pieces i
        (from sample i to sample i + 1); shape (m, n)."""
        ts, xs, vs, accs = self.ts, self.xs, self.vs, self.accs
        j = i + 1
        start = ts.take(i)
        dt = ts.take(j) - start
        th = ((times - start) / dt)[:, None]
        dt = dt[:, None]
        x0, x1 = xs.take(i, 0), xs.take(j, 0)
        v0, v1, a0, a1 = vs.take(i, 0), vs.take(j, 0), accs.take(i, 0), accs.take(j, 0)
        if velocity:
            return _quintic_v(x1 - x0, v0, v1, a0, a1, dt, th)
        return _quintic_x(x0, x1, v0, v1, a0, a1, dt, th)

    def _hull(self, j: int, k: int, velocity: bool):
        """The Bernstein control points of the interpolant's x, or its v,
        on the pieces j to k - 1, each of shape (k - j, n), and the
        magnitude that bounds their rounding and that of _dense."""
        ts, xs, vs, accs = self.ts, self.xs, self.vs, self.accs
        hull = _velocity_hull if velocity else _position_hull
        return hull(xs[j:k], xs[j + 1:k + 1], vs[j:k], vs[j + 1:k + 1],
                    accs[j:k], accs[j + 1:k + 1], np.diff(ts[j:k + 1])[:, None])

    def positions_at(self, times) -> np.ndarray:
        """Interpolated x on an array of query times; shape (m, n)."""
        return self._dense(*self._pieces(times), False)

    def velocities_at(self, times) -> np.ndarray:
        """Interpolated v, the derivative of positions_at; shape (m, n)."""
        return self._dense(*self._pieces(times), True)


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
    if not 0.0 < spec.t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {spec.t_end}")
    if not (0.0 < spec.rel_tol < math.inf and 0.0 < spec.abs_tol < math.inf):
        raise DomainError("tolerances must be positive and finite")
    if not (isinstance(spec.max_steps, Integral) and spec.max_steps >= 1):
        raise DomainError(f"max_steps must be an integer >= 1, got {spec.max_steps!r}")
    if spec.schedule.singular_at_zero and float(np.max(np.abs(v0))) != 0.0:
        raise DomainError("a singular schedule requires v0 = 0")
    return n, x0, v0


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
    n, x0, v0 = _normalize_spec(spec)
    pot = spec.potential
    sched = spec.schedule
    g0 = pot.grad(x0)

    if float(np.max(np.abs(v0))) == 0.0 and float(np.max(np.abs(g0))) == 0.0:
        ts = np.array([0.0, spec.t_end])
        xs = np.vstack([x0, x0])
        vs = np.zeros((2, n))
        accs = np.zeros((2, n))
        e0 = pot.energy(x0)
        no_events = Events(np.empty(0), np.empty((0, n)), np.empty((0, n)), np.empty(0))
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
        prelude = np.concatenate(([0.0], x0, np.zeros(n), -g0 / (1.0 + c), [0.0])).tolist()
    else:
        t0 = 0.0
        y_x, y_v = x0, v0

    if spec.t_end <= t0:
        raise DomainError(f"t_end={spec.t_end} does not exceed the start time {t0}")

    run = _run if n == 1 else _run_array
    samples, events, stats = run(spec, t0, y_x, y_v, diss0)
    if prelude is not None:
        for column, value in zip(samples, prelude):
            column.insert(0, value)
    # the packed time and dissipation columns become arrays without a copy
    ts, ds, et = (np.asarray(c) for c in (samples[0], samples[-1], events[0]))
    xs, vs, accs = (_states(samples, i, n) for i in range(3))
    ex, ev = (_states(events, i, n) for i in range(2))
    return Trajectory(
        ts, xs, vs, accs, _energies(pot, xs, vs), ds,
        Events(et, ex, ev, _energies(pot, ex, ev)), stats, spec, n,
    )


def _states(columns, i: int, n: int) -> np.ndarray:
    """State i, (m, n), of packed columns that hold a time and then the
    states' n components each; the one column of n = 1 is not copied."""
    first = 1 + i * n
    if n == 1:
        return np.asarray(columns[first]).reshape(-1, 1)
    return np.stack(columns[first:first + n], axis=1)


def _energies(pot: Potential, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """|v|^2 / 2 + G(x) of (m, n) states, with the bits of 0.5 * v * v +
    G(x) on floats for n = 1 and of 0.5 * v.dot(v) + G(x) for n >= 2."""
    es = 0.5 * vs[:, 0] * vs[:, 0] if pot.n == 1 else 0.5 * row_dots(vs)
    energy = pot.energy_fn()
    for lo in range(0, len(es), _ENERGY_BLOCK):
        es[lo:lo + _ENERGY_BLOCK] += pot.on_rows(energy, xs[lo:lo + _ENERGY_BLOCK])
    return es


def _run(spec: SystemSpec, t0: float, x0: np.ndarray, v0: np.ndarray, diss0: float):
    """The n = 1 stepper: x, v, the stages and the coefficients are floats.

    Returns what _Output.finish returns: the packed columns of the stored
    samples and of the events, then the stats.
    """
    rate = spec.schedule.rate_fn()
    g, isfinite = spec.potential.grad_fn(), math.isfinite
    t_end = spec.t_end
    rtol, atol = spec.rel_tol, spec.abs_tol
    max_steps = spec.max_steps
    h_min = MIN_STEP_FRACTION * t_end

    (
        _, (a2_1,), (a3_1, a3_2), (a4_1, _, a4_3), (a5_1, _, a5_3, a5_4),
        (a6_1, _, _, a6_4, a6_5), (a7_1, _, _, a7_4, a7_5, a7_6),
        (a8_1, _, _, a8_4, a8_5, a8_6, a8_7), (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
        (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11),
    ) = _A
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _B
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = _E5
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = _E3
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _ = _C
    q1, _, _, _, _, q6, q7, q8, q9, q10, q11, q12 = _B

    t, x, v = t0, x0.item(), v0.item()
    k1x = v
    r1, k1v, h = _start(spec, rate, g, t, x, v)

    diss = diss0
    diss_c = 0.0  # Kahan compensation

    out = _Output(1, (t, x, v, k1v, diss))
    record, chunk = out.records.extend, EVENT_CHUNK

    accepted = rejected = 0
    just_rejected = False
    facold = 1.0e-4
    # |x| and |v| of the accepted state, for the error norm of the next steps
    ax, av = abs(x), abs(v)

    # The step-size clamps and error scales below are conditional
    # expressions, not min and max: each returns what the builtin call it
    # stands for returns (min(a, b) is b if b < a else a; max likewise).
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
            finite = isfinite(x_new) and isfinite(v_new) and isfinite(k13v)
        except OverflowError:
            # a scalar closure overflowed where an array would hold inf
            finite = False

        if finite:
            ax_new, av_new = abs(x_new), abs(v_new)
            sx = atol + rtol * (ax_new if ax_new > ax else ax)
            sv = atol + rtol * (av_new if av_new > av else av)
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
            s5 = ex5 * ex5 + ev5 * ev5
            s3 = ex3 * ex3 + ev3 * ev3
            norm = s5 / math.sqrt((s5 + 0.01 * s3) * 2.0) if s5 else 0.0
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

        # dissipation increment: a |v|^2 taken as one more component of the
        # system, integrated by the step's own weights from its stage rates
        # and velocities (eighth order, like the step)
        inc = h * (
            q1 * r1 * k1x * k1x + q6 * r6 * k6x * k6x + q7 * r7 * k7x * k7x
            + q8 * r8 * k8x * k8x + q9 * r9 * k9x * k9x + q10 * r10 * k10x * k10x
            + q11 * r11 * k11x * k11x + q12 * r12 * k12x * k12x
        )
        yk = inc - diss_c
        tk = diss + yk
        diss_c = (tk - diss) - yk
        diss = tk

        t, x, v = t_new, x_new, v_new
        k1x, k1v, r1 = v_new, k13v, r13
        accepted += 1
        record((t, x, v, k1v, diss))  # the step's packed row, for the events and samples
        if accepted % chunk == 0:
            out.take()

        if t < t_end:
            h *= factor
            rest = t_end - t
            h = rest if rest < h else h

    return out.finish(accepted, rejected)


def _run_array(spec: SystemSpec, t0: float, x0: np.ndarray, v0: np.ndarray, diss0: float):
    """The n >= 2 stepper on one stage buffer; returns what _run returns.

    The state y = (x, v) is one (2n,) array, and stage i's rate
    (x', v') = (v_i, -a(t_i) v_i - grad G(x_i)) is row i of one (12, 2n)
    buffer k.  A stage is y plus h times one np.add.reduce of the
    weighted rows it reads (_STAGES), and the solution and both error
    estimates are one reduce of the rows they weigh (_WEIGHTS).  Each
    attempt writes its new y and x'' into the packed row of the step's
    record by slice assignment; the finiteness test reads them there, and
    an accepted step adds t and the dissipation and appends the row's
    bytes to the records.  The elementwise operations run along the last
    axis and the stage sums along the one before it, so that a leading
    member axis can be added to y and k.
    """
    rate = spec.schedule.rate_fn()
    g, isfinite = spec.potential.grad_fn(), math.isfinite
    n = spec.potential.n
    two_n = 2.0 * n
    t_end = spec.t_end
    rtol, atol = spec.rel_tol, spec.abs_tol
    max_steps = spec.max_steps
    h_min = MIN_STEP_FRACTION * t_end

    t = t0
    y = np.concatenate((x0, v0))
    x, v = y[..., :n], y[..., n:]
    r1, k1v, h = _start(spec, rate, g, t, x, v)
    k = np.empty((12, 2 * n))  # the stage rates, one row a stage
    first_x, first_v = k[..., 0, :n], k[..., 0, n:]  # stage 1's: (v, x'') at t
    first_x[...], first_v[...] = v, k1v
    rates = [r1] + [0.0] * 11  # a(t_i) of each stage
    # Per stage i: c_i, the rows it reads, their a_ij spread to the rows'
    # shape (an array-by-array product costs less than a broadcast one and
    # rounds the same) and the two halves of its row.
    stages = [
        (i, c, reads, np.repeat(a, 2 * n, axis=-1), k[..., i, :n], k[..., i, n:])
        for i, (c, reads, a) in enumerate(_STAGES, 1)
    ]
    weights = np.repeat(_WEIGHTS, 2 * n, axis=-1)  # b, e5, e3
    # np.add.reduce starts from +0.0, which turns a sum of -0.0 terms into
    # +0.0; started from -0.0, which adds nothing, it is the left fold of
    # its rows, as the unrolled sums are
    add, take = np.add.reduce, k.take
    q = _WEIGHTS[0, :, 0]  # the dissipation's weights: the b_i again

    diss = diss0
    diss_c = 0.0  # Kahan compensation

    # the record of a step: t, then (x, v), then x'', then the dissipation
    row = np.empty(3 * n + 2)
    state = row[1:3 * n + 1]  # (x, v, x'')
    row_bytes = memoryview(row).cast("B")  # what frombytes takes
    row[0], row[1:2 * n + 1], row[2 * n + 1:-1], row[-1] = t, y, k1v, diss
    out = _Output(n, row.tolist())
    record, chunk = out.records.frombytes, EVENT_CHUNK

    accepted = rejected = 0
    just_rejected = False
    facold = 1.0e-4
    ay = np.abs(y)  # |y| of the accepted state, for the error norm of the next steps

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

        try:
            # stages 2 to 12 (stage 1 carried over: first-same-as-last); the
            # last one, at c = 1, takes the rate at t + h = t_h
            for i, c, reads, a, kx_i, kv_i in stages:
                y_i = y + h * add(a * take(reads, -2), -2, initial=-0.0)
                v_i = y_i[..., n:]
                r = rates[i] = rate(t + c * h)
                kx_i[...] = v_i
                kv_i[...] = -r * v_i - g(y_i[..., :n])
            summed = take(_SUMMED, -2)
            sums = add(weights * summed, -2, initial=-0.0)  # solution, e5, e3
            y_new = y + h * sums[0]
            x_new, v_new = y_new[..., :n], y_new[..., n:]
            t_new = t_end if clipped else t_h
            # the next step's first stage is at t_new, where stage 12 already
            # took the rate unless the step was clipped
            r13 = rate(t_new) if clipped else r
            k13v = -r13 * v_new - g(x_new)
            row[1:2 * n + 1], row[2 * n + 1:-1] = y_new, k13v
            finite = all(map(isfinite, state.tolist()))
        except OverflowError:
            # a closure overflowed in float arithmetic where numpy's gives inf
            finite = False

        if finite:
            ay_new = np.abs(y_new)
            # only squared, so the sign need not go: |e|/s is |e/s| exactly
            err = h * sums[1:] / (atol + rtol * np.maximum(ay, ay_new))
            err *= err
            # DOP853's norm: the fifth-order estimate, damped where the
            # third-order one is much larger
            s5, s3 = np.add.reduce(err[..., :n] + err[..., n:], axis=-1).tolist()
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
        ay = ay_new
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

        # dissipation increment: a |v|^2 integrated by the step's weights
        # from its stage rates and velocities, as in _run
        kx = summed[..., :n]
        qr = (q * np.array(rates).take(_SUMMED))[..., None]  # q_i a(t_i)
        inc = h * float(np.add.reduce(add(qr * kx * kx, -2, initial=-0.0)))
        yk = inc - diss_c
        tk = diss + yk
        diss_c = (tk - diss) - yk
        diss = tk

        t, y, v, k1v = t_new, y_new, v_new, k13v
        first_x[...], first_v[...], rates[0] = v, k1v, r13
        accepted += 1
        row[0], row[-1] = t, diss
        record(row_bytes)  # as in _run
        if accepted % chunk == 0:
            out.take()

        if t < t_end:
            h *= factor
            rest = t_end - t
            h = rest if rest < h else h

    return out.finish(accepted, rejected)


def _start(spec: SystemSpec, rate: Callable, g: Callable, t: float, x, v):
    """The rate a(t), the acceleration and the first step size at the
    start (x, v), for a float or an (n,) array state: two evaluations of
    the vector field, g the potential's gradient closure."""
    t_end, rtol, atol = spec.t_end, spec.rel_tol, spec.abs_tol
    two_n = 2.0 * spec.potential.n
    k1x = v
    r1 = rate(t)
    k1v = -r1 * v - g(x)
    if not np.all(np.isfinite(k1v)):
        raise NonFiniteState(f"vector field non-finite at start t={t}")
    # One magnitude scale for both components: per-component scales can
    # degenerate (v0 = 0 with a tiny abs_tol) and overflow the squares.
    s = atol + rtol * max(float(np.max(np.abs(x))), float(np.max(np.abs(v))), 1.0e-12)
    d0 = math.sqrt(float(np.sum(x * x + v * v)) / two_n) / s
    d1 = math.sqrt(float(np.sum(k1x * k1x + k1v * k1v)) / two_n) / s
    if not d1 < math.inf:
        raise NonFiniteState(f"|f|^2 overflows at start t={t}")
    h0 = 1.0e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, (t_end - t) * 0.5)
    x1 = x + h0 * k1x
    v1 = v + h0 * k1v
    f1v = -rate(t + h0) * v1 - g(x1)
    d2 = math.sqrt(float(np.sum((v1 - k1x) ** 2 + (f1v - k1v) ** 2)) / two_n) / s / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** _EXPO if dm > 1e-15 else max(1.0e-6, h0 * 1e-3)
    h = min(100.0 * h0, h1, t_end - t)
    if not h > 0.0:  # the second evaluation's |f|^2 overflowed
        raise NonFiniteState(f"first-step estimate overflowed at t={t}")
    return r1, k1v, h


def _turns(w, up):
    """The event rule on first velocity components ``w``, given whether
    the last nonzero one before them is > 0 (``up``; None if there is
    none): the indices k of the nonzero components whose sign differs from
    the last nonzero one's, whether w[k - 1] is nonzero too (the step to k
    then brackets a crossing; else the zero's state is the event, and a
    zero the sign does not cross makes none), and ``up`` after w."""
    rows = w.nonzero()[0]
    ups = (w > 0.0)[rows]
    if up is not None and w[0] == 0.0:  # the sign before w[0]
        rows, ups = np.concatenate(([-1], rows)), np.concatenate(([up], ups))
    turns = np.flatnonzero(ups[1:] != ups[:-1]) + 1
    k = rows[turns]
    return k, rows[turns - 1] == k - 1, bool(ups[-1]) if len(ups) else up


class _Output:
    """A run's events and stored samples, taken from its recorded steps.

    A stepper appends each accepted step's row of 3n + 2 packed floats
    (t, x, v, x'' and the dissipation) to ``records``, which start with
    the step before them, calls ``take`` whenever EVENT_CHUNK steps have
    gathered and ``finish`` after its loop.  Each call is one numpy pass
    over the steps and gives what these rules give applied one step at a
    time: the event rule of _turns, and a step is stored when it is the
    stride-th since the last stored one, as is the step that reaches
    t_end; when that makes more than MAX_STORED_SAMPLES samples, every
    other one is dropped and the stride doubles, but the step that reaches
    t_end is kept.  Samples and events are kept in one packed column per
    component, so a column slices, thins and inserts alike for every n.
    An error of the event pass (its refinement can fail) is held until
    ``finish``, so that an error the loop raises later takes precedence.
    """

    def __init__(self, n: int, start):
        self.n, self.width = n, 3 * n + 2
        self.records = array("d", start)
        self.kept = [array("d", (value,)) for value in start]  # t, x, v, x'', dissipation
        self.events = [array("d") for _ in range(2 * n + 1)]  # t, x, v, in time order
        self.up = None  # whether the last nonzero first velocity component is > 0
        self.since = 0  # steps since the last stored one
        self.stride = 1
        self.failure = None

    def take(self) -> None:
        """Take the events and samples from the records gathered, and keep
        only the last record."""
        records, width = self.records, self.width
        if self.failure is None:
            try:
                self._events(records)
            except Exception as exc:
                traceback.clear_frames(exc.__traceback__)  # whose views pin the records
                self.failure = exc
            self._keep(records, len(records) // width - 1)
        del records[:-width]  # in place: a new column each chunk fragments the heap

    def _events(self, records) -> None:
        n = self.n
        steps = np.frombuffer(records).reshape(-1, self.width)
        t, x, v, a = (steps[:, 0], steps[:, 1:n + 1], steps[:, n + 1:2 * n + 1],
                      steps[:, 2 * n + 1:-1])
        k, crossing, self.up = _turns(v[:, 0], self.up)
        te, xe, ve = t[k - 1], x[k - 1], v[k - 1]
        if crossing.any():
            rows = np.flatnonzero(crossing)
            # slices in index order: the first failing bracket's error is raised
            for lo in range(0, len(rows), _REFINE_SLICE):
                at = rows[lo:lo + _REFINE_SLICE]
                i = k[at]
                ends = (s[r] for r in (i - 1, i) for s in (x, v, a))
                te[at], xe[at], ve[at] = _refine_brackets(t[i - 1], t[i], *ends)
        for column, values in zip(self.events, (te, *xe.T, *ve.T)):
            column.extend(values.tolist())

    def _keep(self, records, m: int) -> None:
        last = -self.since  # the record of the last stored step
        while True:
            room = MAX_STORED_SAMPLES + 1 - len(self.kept[0])  # stores until thinning
            rows = range(last + self.stride, m + 1, self.stride)[:room]
            self._store(records, rows)
            last = rows[-1] if rows else last
            if len(rows) < room:
                break
            self._thin()
        self.since = m - last

    def _store(self, records, rows: range) -> None:
        width = self.width
        for j, column in enumerate(self.kept):
            column += records[width * rows.start + j:width * rows.stop:width * rows.step]

    def _thin(self) -> None:
        for column in self.kept:
            del column[1::2]  # in place: the kept half is never copied
        self.stride *= 2

    def finish(self, accepted: int, rejected: int):
        """The columns of the stored samples (t, x, v, x'' and the
        dissipation: 3n + 2) and of the events (t, x, v: 2n + 1), then the
        stats; a held refinement error is raised here."""
        if len(self.records) > self.width:
            self.take()
        end = range(1)  # the one record left: the step that reached t_end
        if self.since:
            self._store(self.records, end)
            if len(self.kept[0]) > MAX_STORED_SAMPLES:
                self._thin()
        if self.kept[0][-1] != self.records[0]:
            self._store(self.records, end)
        # the start and the first-step estimate, then twelve stages an attempt
        stats = SolverStats(accepted, rejected, 2 + 12 * (accepted + rejected), self.stride)
        if self.failure is not None:
            raise self.failure
        return self.kept, self.events, stats


def _refine_brackets(t, t_new, x0, v0, a0, x1, v1, a1):
    """The time, position and velocity of the crossing in each bracket, a
    step from (t, x0, v0, a0) to (t_new, x1, v1, a1): (m,) times and
    (m, n) states, a0 and a1 the accelerations x''.

    Every crossing is found at once by _brentq_batch on the first velocity
    component of the step's quintic Hermite, the interpolant
    Trajectory.positions_at and velocities_at evaluate, and the states are
    that interpolant there, with the bits of one scipy.optimize.brentq call
    and one scalar interpolation per event, however the brackets are
    grouped.
    """
    dx = x1 - x0
    dt = t_new - t
    wdx, w0, w1, wa0, wa1 = (a[:, 0] for a in (dx, v0, v1, a0, a1))

    def wq(tau, i):
        return _quintic_v(wdx[i], w0[i], w1[i], wa0[i], wa1[i], dt[i], (tau - t[i]) / dt[i])

    te = _brentq_batch(wq, t, t_new, EVENT_TIME_TOL, _EVENT_RTOL, _EVENT_MAXITER)
    th = ((te - t) / dt)[:, None]
    dt = dt[:, None]
    return te, _quintic_x(x0, x1, v0, v1, a0, a1, dt, th), _quintic_v(dx, v0, v1, a0, a1, dt, th)


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
