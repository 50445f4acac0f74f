"""Damping coefficient schedules a(t) and their calculus.

A schedule represents a nonnegative damping coefficient a : R+ -> R+ for the
second-order system  x'' + a(t) x' + grad G(x) = 0.  Besides pointwise
evaluation the solver and the analyzers need a's derivative, the running
integral int_{t0}^{t1} a, the decay kernel exp(-int_0^t a), and a
classification of the schedule against the convergence conditions for the
damped system (integral divergence, kernel integrability, the boundedness and
slow-log conditions).

Constant and PowerLaw schedules carry analytic closed forms throughout;
Custom schedules fall back to adaptive quadrature and are flagged heuristic.
The analyzers read int_0^t a and the decay kernel on whole arrays of
sample times through integral_a_to and decay_kernels, which agree bit for
bit with the scalar integral_a(0, t) and decay_kernel(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import DomainError

# heuristic classification knobs (Custom schedules only, never used for
# analytic kinds): horizon for numeric integration and the threshold above
# which a running integral is declared divergent
CLASSIFY_HORIZON = 1.0e6
DIVERGENCE_THRESHOLD = 1.0e3

# quadrature targets for Custom integrals; the absolute floor keeps the
# subdivision from chasing underflowed decay kernels
QUAD_REL_TOL = 1.0e-10
QUAD_ABS_FLOOR = 1.0e-14


def _each(fn: Callable, *columns) -> np.ndarray:
    """``fn`` mapped over Python floats.  numpy's exp, log and power can
    differ from the math module's in the last bit; the array methods call
    the same functions as the scalar ones, so both agree exactly."""
    return np.fromiter(map(fn, *columns), dtype=float)


@dataclass(frozen=True)
class ScheduleClassification:
    """Flags of a schedule against the convergence conditions.

    integral_a_diverges: int_0^inf a = inf (slow damping: energy reaches min G)
    exp_integral_finite: int_0^inf exp(-int_0^t a) dt < inf; the negation is
        the fast-decay divergence condition under which trajectories over a
        flat argmin do not converge
    bounded_below:       exists a0 > 0 with a(t) >= a0 for all t
    slow_log_condition:  int_1^inf a(t ln t) dt = inf
    analytic:            True when the flags are closed-form consequences of
        the schedule parameters, False when obtained by quadrature heuristics
    """

    integral_a_diverges: bool
    exp_integral_finite: bool
    bounded_below: bool
    slow_log_condition: bool
    analytic: bool


class DampingSchedule:
    """Common interface: a_at, da_at, integral_a, decay_kernel, classify."""

    #: True when a(0) is undefined (evaluation requires t > 0)
    singular_at_zero = False
    #: True when the schedule promises a(t1) >= a(t2) for t1 <= t2
    nonincreasing = True
    #: True when da_at uses finite differences rather than an analytic form
    fd_derivative = False

    def a_at(self, t: float) -> float:
        raise NotImplementedError

    def da_at(self, t: float) -> float:
        raise NotImplementedError

    def dda_at(self, t: float) -> float:
        """Second derivative; used by envelope hypothesis checks."""
        raise NotImplementedError

    def integral_a(self, t0: float, t1: float) -> float:
        raise NotImplementedError

    def decay_kernel(self, t: float) -> float:
        """exp(-int_0^t a); the natural clock for linear-case envelopes."""
        if t < 0:
            raise DomainError(f"decay_kernel needs t >= 0, got {t}")
        ia = self.integral_a(0.0, t)
        return math.exp(-ia) if ia != math.inf else 0.0

    def integral_a_to(self, times) -> np.ndarray:
        """int_0^t a for every t of an array, equal bit for bit to
        integral_a(0, t).  Constant and PowerLaw override this per-point
        loop with their closed forms."""
        return np.array([self.integral_a(0.0, t) for t in self._times(times).tolist()])

    def decay_kernels(self, times) -> np.ndarray:
        """decay_kernel(t) for every t of an array, bit for bit."""
        return _each(math.exp, (-self.integral_a_to(times)).tolist())

    @staticmethod
    def _times(times) -> np.ndarray:
        ts = np.asarray(times, dtype=float)
        if np.any(ts < 0):
            raise DomainError(f"need times >= 0, got {float(np.min(ts))}")
        return ts

    def classify(self) -> ScheduleClassification:
        raise NotImplementedError

    def rate_fn(self) -> Callable[[float], float]:
        """Unchecked a(t) closure for the integrator hot loop."""
        return self.a_at

    def _check_times(self, t0: float, t1: float) -> None:
        if t0 < 0 or t1 < t0:
            raise DomainError(f"need 0 <= t0 <= t1, got [{t0}, {t1}]")


@dataclass(frozen=True)
class Constant(DampingSchedule):
    """a(t) = level, level >= 0.  level=0 is the undamped system."""

    level: float

    def __post_init__(self):
        if not (self.level >= 0):
            raise DomainError(f"Constant level must be >= 0, got {self.level}")

    def a_at(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"schedule evaluated at t={t} < 0")
        return self.level

    def rate_fn(self) -> Callable[[float], float]:
        level = self.level
        return lambda t: level

    def da_at(self, t: float) -> float:
        return 0.0

    def dda_at(self, t: float) -> float:
        return 0.0

    def integral_a(self, t0: float, t1: float) -> float:
        self._check_times(t0, t1)
        return self.level * (t1 - t0)

    def integral_a_to(self, times) -> np.ndarray:
        return self.level * self._times(times)

    def classify(self) -> ScheduleClassification:
        pos = self.level > 0
        return ScheduleClassification(
            integral_a_diverges=pos,
            exp_integral_finite=pos,
            bounded_below=pos,
            slow_log_condition=pos,
            analytic=True,
        )


@dataclass(frozen=True)
class PowerLaw(DampingSchedule):
    """a(t) = c/(t+s0)^gamma with c > 0, gamma >= 0, s0 >= 0.

    s0 = 0 makes the schedule singular at t=0 and is permitted only with
    gamma <= 1 (the singular-start regime the integrator's bootstrap covers).
    """

    c: float
    gamma: float = 1.0
    s0: float = 1.0

    def __post_init__(self):
        if not (self.c > 0):
            raise DomainError(f"PowerLaw amplitude must be > 0, got {self.c}")
        if not (self.gamma >= 0):
            raise DomainError(f"PowerLaw exponent must be >= 0, got {self.gamma}")
        if self.s0 < 0:
            raise DomainError(f"PowerLaw offset must be >= 0, got {self.s0}")
        if self.s0 == 0 and self.gamma > 1:
            raise DomainError(
                "PowerLaw with offset 0 requires gamma <= 1 "
                "(integral of a must converge at the origin or be the "
                "gamma=1 singular case)"
            )

    @property
    def singular_at_zero(self) -> bool:  # type: ignore[override]
        return self.s0 == 0 and self.gamma > 0

    def a_at(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"schedule evaluated at t={t} < 0")
        if t == 0 and self.singular_at_zero:
            raise DomainError("PowerLaw with offset 0 is singular at t=0")
        return self.c / (t + self.s0) ** self.gamma

    def rate_fn(self) -> Callable[[float], float]:
        c, g, s0 = self.c, self.gamma, self.s0
        if g == 1.0:
            return lambda t: c / (t + s0)
        if g == 0.0:
            return lambda t: c
        return lambda t: c / (t + s0) ** g

    def da_at(self, t: float) -> float:
        if t == 0 and self.singular_at_zero:
            raise DomainError("PowerLaw with offset 0 is singular at t=0")
        return -self.c * self.gamma / (t + self.s0) ** (self.gamma + 1.0)

    def dda_at(self, t: float) -> float:
        if t == 0 and self.singular_at_zero:
            raise DomainError("PowerLaw with offset 0 is singular at t=0")
        g = self.gamma
        return self.c * g * (g + 1.0) / (t + self.s0) ** (g + 2.0)

    def integral_a(self, t0: float, t1: float) -> float:
        """Closed form; +inf when the interval hits the singular origin
        non-integrably (s0=0, gamma=1, t0=0)."""
        self._check_times(t0, t1)
        c, g, s0 = self.c, self.gamma, self.s0
        if g == 1.0:
            if t0 + s0 == 0.0:
                return math.inf if t1 > t0 else 0.0
            return c * math.log((t1 + s0) / (t0 + s0))
        # gamma < 1 is integrable at the origin even with s0 = 0
        return c * ((t1 + s0) ** (1.0 - g) - (t0 + s0) ** (1.0 - g)) / (1.0 - g)

    def integral_a_to(self, times) -> np.ndarray:
        """integral_a(0, t) over an array, with the same float operations."""
        ts = self._times(times)
        c, g, s0 = self.c, self.gamma, self.s0
        if g == 1.0:
            if s0 == 0.0:
                return np.where(ts > 0.0, math.inf, 0.0)
            return c * _each(math.log, ((ts + s0) / (0.0 + s0)).tolist())
        e = 1.0 - g
        return c * (_each(pow, (ts + s0).tolist(), repeat(e)) - (0.0 + s0) ** e) / e

    def classify(self) -> ScheduleClassification:
        g, c = self.gamma, self.c
        diverges = g <= 1.0
        exp_finite = g < 1.0 or (g == 1.0 and c > 1.0)
        return ScheduleClassification(
            integral_a_diverges=diverges,
            exp_integral_finite=exp_finite,
            bounded_below=(g == 0.0),
            slow_log_condition=(g <= 1.0),
            analytic=True,
        )


@dataclass(frozen=True)
class Custom(DampingSchedule):
    """Schedule given by callbacks.

    ``a`` is required.  ``da`` is optional; when omitted the derivative is a
    central finite difference with step h = max(1e-6, 1e-6*t) and the
    schedule is flagged ``fd_derivative``.  ``nonincreasing_flag`` is the
    declared monotonicity (spot-checked by tests, never proven).
    """

    a: Callable[[float], float]
    da: Optional[Callable[[float], float]] = None
    nonincreasing_flag: bool = True
    singular: bool = False

    @property
    def singular_at_zero(self) -> bool:  # type: ignore[override]
        return self.singular

    @property
    def nonincreasing(self) -> bool:  # type: ignore[override]
        return self.nonincreasing_flag

    @property
    def fd_derivative(self) -> bool:  # type: ignore[override]
        return self.da is None

    def a_at(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"schedule evaluated at t={t} < 0")
        if t == 0 and self.singular:
            raise DomainError("schedule declared singular at t=0")
        return self.a(t)

    def rate_fn(self) -> Callable[[float], float]:
        return self.a

    def da_at(self, t: float) -> float:
        if self.da is not None:
            return self.da(t)
        h = max(1.0e-6, 1.0e-6 * t)
        lo = max(t - h, 1.0e-300) if self.singular else t - h
        if lo < 0:
            lo = 0.0
        return (self.a(t + h) - self.a(lo)) / (t + h - lo)

    def dda_at(self, t: float) -> float:
        h = max(1.0e-5, 1.0e-5 * t)
        return (self.da_at(t + h) - self.da_at(max(t - h, h * 1e-6))) / (
            (t + h) - max(t - h, h * 1e-6)
        )

    def integral_a(self, t0: float, t1: float) -> float:
        self._check_times(t0, t1)
        if t1 == t0:
            return 0.0
        val, _ = quad(
            self.a, t0, t1, epsrel=QUAD_REL_TOL, epsabs=QUAD_ABS_FLOOR, limit=200
        )
        return val

    def classify(self) -> ScheduleClassification:
        """Heuristic horizon classification; analytic=False always."""
        # running integral of a on geometric panels up to the horizon
        panels = [0.0] + [10.0 ** k for k in range(0, 7)]
        start = 1.0e-9 if self.singular else 0.0
        total = 0.0
        cum = []  # (t, int_0^t a)
        lo = start
        for hi in panels[1:]:
            if hi <= lo:
                continue
            val, _ = quad(self.a, lo, hi, epsrel=1e-8, epsabs=1e-12, limit=200)
            total += val
            cum.append((hi, total))
            lo = hi
            if total > DIVERGENCE_THRESHOLD:
                break
        diverges = total > DIVERGENCE_THRESHOLD or (
            # still growing near the horizon: extrapolate divergence when the
            # last decade contributed a non-vanishing share
            len(cum) >= 2 and cum[-1][1] - cum[-2][1] > 1.0e-3 * max(1.0, cum[-1][1])
        )

        # kernel integral int exp(-I(t)) dt on the same panels, piecewise
        # quadrature with the running integral interpolated per panel
        kernel_total = 0.0
        kernel_incr = []
        lo = start
        base = 0.0
        for hi in panels[1:]:
            if hi <= lo:
                continue

            def kern(s, lo=lo, base=base):
                val, _ = quad(self.a, lo, s, epsrel=1e-8, epsabs=1e-12, limit=100)
                return math.exp(-(base + val))

            inc, _ = quad(kern, lo, hi, epsrel=1e-6, epsabs=1e-12, limit=60)
            seg, _ = quad(self.a, lo, hi, epsrel=1e-8, epsabs=1e-12, limit=200)
            base += seg
            kernel_total += inc
            kernel_incr.append(inc)
            lo = hi
            if kernel_total > DIVERGENCE_THRESHOLD:
                break
        exp_finite = kernel_total <= DIVERGENCE_THRESHOLD and (
            len(kernel_incr) >= 2
            and kernel_incr[-1] < 1.0e-3 * max(kernel_total, 1.0e-30)
        )

        # bounded below: for a declared-nonincreasing schedule the infimum is
        # approached at the horizon
        tail = self.a(CLASSIFY_HORIZON)
        if self.nonincreasing_flag:
            bounded = tail > 1.0e-9
        else:
            grid = [10.0 ** (k / 4.0) for k in range(-8, 25)]
            bounded = min(self.a(t) for t in grid) > 1.0e-9

        slog_total = 0.0
        slog_incr = []
        lo = math.e
        for hi in panels[2:]:
            if hi <= lo:
                continue
            inc, _ = quad(
                lambda t: self.a(t * math.log(t)),
                lo,
                hi,
                epsrel=1e-8,
                epsabs=1e-12,
                limit=200,
            )
            slog_total += inc
            slog_incr.append(inc)
            lo = hi
        slow_log = slog_total > DIVERGENCE_THRESHOLD or (
            len(slog_incr) >= 2
            and slog_incr[-1] > 1.0e-3 * max(1.0, slog_total)
        )

        return ScheduleClassification(
            integral_a_diverges=diverges,
            exp_integral_finite=exp_finite,
            bounded_below=bounded,
            slow_log_condition=slow_log,
            analytic=False,
        )


def slow_log_example() -> Custom:
    """a(t) = 1/((t+1) ln(ln(t+3))): integral of a(t ln t) diverges while the
    plain integral of a barely does; the standard example for the slow-log
    condition.  Ships as a Custom schedule rather than a dedicated kind."""

    def a(t: float) -> float:
        return 1.0 / ((t + 1.0) * math.log(math.log(t + 3.0)))

    def da(t: float) -> float:
        inner = math.log(t + 3.0)
        big = math.log(inner)
        d_big = 1.0 / (inner * (t + 3.0))
        denom = (t + 1.0) * big
        return -(big + (t + 1.0) * d_big) / denom**2

    return Custom(a=a, da=da, nonincreasing_flag=True)
