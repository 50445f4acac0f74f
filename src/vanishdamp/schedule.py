"""Damping coefficient schedules a(t) and their calculus.

A schedule represents a nonnegative damping coefficient a : R+ -> R+ for the
second-order system  x'' + a(t) x' + grad G(x) = 0.  The solver needs a(t)
one point at a time (rate_fn); the analyzers read a(t), the running
integral int_0^t a and the decay kernel exp(-int_0^t a) on whole arrays of
sample times (a_values, integral_a_to, decay_kernels), a's derivative
(da_at), and a classification of the schedule against the convergence
conditions for the damped system (integral divergence, kernel
integrability and the slow-log condition).

Constant and PowerLaw schedules carry analytic closed forms throughout;
Custom schedules fall back to adaptive quadrature (scipy's, imported on
first use) for their integrals and state no classification flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# quadrature targets for Custom integrals; the absolute floor keeps the
# subdivision from chasing underflowed decay kernels
QUAD_REL_TOL = 1.0e-10
QUAD_ABS_FLOOR = 1.0e-14


def _each(fn: Callable, *columns) -> np.ndarray:
    """``fn`` mapped over Python floats.  numpy's exp, log and power can
    differ from the math module's in the last bit; the array methods call
    the same functions as the scalar ones, so both agree exactly."""
    return np.fromiter(map(fn, *columns), dtype=float)


def _power(base: float, e: float) -> float:
    """base ** e on floats, inf where it overflows: Python's float power
    raises OverflowError where the C library's pow returns inf."""
    try:
        return base ** e
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ScheduleClassification:
    """Flags of a schedule against the convergence conditions, each a
    closed-form consequence of the schedule's parameters, or None where
    the schedule has no closed form that decides it.

    integral_a_diverges: int_0^inf a = inf (slow damping: energy reaches min G)
    exp_integral_finite: int_0^inf exp(-int_0^t a) dt < inf; the negation is
        the fast-decay divergence condition under which trajectories over a
        flat argmin do not converge
    slow_log_condition:  int_1^inf a(t ln t) dt = inf
    """

    integral_a_diverges: Optional[bool]
    exp_integral_finite: Optional[bool]
    slow_log_condition: Optional[bool]


class DampingSchedule:
    """Common interface: rate_fn, a_values, da_at, integral_a_to,
    decay_kernels, classify.  The array methods take times >= 0."""

    #: True when a(0) is undefined (evaluation requires t > 0)
    singular_at_zero = False
    #: True when integral_a_to and decay_kernels run one adaptive
    #: quadrature per time, so that each value has a price
    kernel_by_quadrature = False

    def rate_fn(self) -> Callable[[float], float]:
        """Unchecked a(t) closure for the integrator hot loop."""
        raise NotImplementedError

    def a_values(self, times) -> np.ndarray:
        """a(t) for every t of an array, with inf at t=0 when the schedule
        is singular there.  Constant overrides this loop over rate_fn."""
        fn = self.rate_fn()
        singular = self.singular_at_zero
        return np.fromiter(
            (math.inf if singular and t == 0.0 else fn(t) for t in self._times(times).tolist()),
            dtype=float,
        )

    def da_at(self, t: float) -> float:
        raise NotImplementedError

    def integral_a_to(self, times) -> np.ndarray:
        """int_0^t a for every t of an array; +inf where the origin is
        non-integrably singular."""
        raise NotImplementedError

    def decay_kernels(self, times) -> np.ndarray:
        """exp(-int_0^t a) for every t of an array, 0 where the integral is
        infinite; the natural clock for linear-case envelopes."""
        return _each(math.exp, (-self.integral_a_to(times)).tolist())

    @staticmethod
    def _times(times) -> np.ndarray:
        ts = np.asarray(times, dtype=float)
        if np.any(ts < 0):
            raise DomainError(f"need times >= 0, got {float(np.min(ts))}")
        return ts

    def classify(self) -> ScheduleClassification:
        """No flag: a schedule without a closed form decides none."""
        return ScheduleClassification(None, None, None)


@dataclass(frozen=True)
class Constant(DampingSchedule):
    """a(t) = level, level >= 0.  level=0 is the undamped system."""

    level: float

    def __post_init__(self):
        if not 0 <= self.level < math.inf:
            raise DomainError(f"Constant level must be >= 0 and finite, got {self.level}")

    def a_values(self, times) -> np.ndarray:
        return np.full(self._times(times).shape, float(self.level))

    def rate_fn(self) -> Callable[[float], float]:
        level = self.level
        return lambda t: level

    def da_at(self, t: float) -> float:
        return 0.0

    def integral_a_to(self, times) -> np.ndarray:
        return self.level * self._times(times)

    def classify(self) -> ScheduleClassification:
        pos = self.level > 0
        return ScheduleClassification(
            integral_a_diverges=pos,
            exp_integral_finite=pos,
            slow_log_condition=pos,
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
        if not 0 < self.c < math.inf:
            raise DomainError(f"PowerLaw amplitude must be > 0 and finite, got {self.c}")
        if not 0 <= self.gamma < math.inf:
            raise DomainError(f"PowerLaw exponent must be >= 0 and finite, got {self.gamma}")
        if not 0 <= self.s0 < math.inf:
            raise DomainError(f"PowerLaw offset must be >= 0 and finite, got {self.s0}")
        if self.s0 == 0 and self.gamma > 1:
            raise DomainError(
                "PowerLaw with offset 0 requires gamma <= 1 "
                "(integral of a must converge at the origin or be the "
                "gamma=1 singular case)"
            )

    @property
    def singular_at_zero(self) -> bool:  # type: ignore[override]
        return self.s0 == 0 and self.gamma > 0

    def rate_fn(self) -> Callable[[float], float]:
        c, g, s0 = self.c, self.gamma, self.s0
        if g == 1.0:
            return lambda t: c / (t + s0)

        def rate(t):
            try:
                return c / (t + s0) ** g
            except OverflowError:  # the power is above the float range
                return 0.0

        return rate

    def da_at(self, t: float) -> float:
        if t == 0 and self.singular_at_zero:
            raise DomainError("PowerLaw with offset 0 is singular at t=0")
        return -self.c * self.gamma / _power(t + self.s0, self.gamma + 1.0)

    def integral_a_to(self, times) -> np.ndarray:
        """Closed form; +inf for t > 0 when the origin is non-integrably
        singular (s0=0, gamma=1).  gamma < 1 is integrable at the origin
        even with s0 = 0."""
        ts = self._times(times)
        c, g, s0 = self.c, self.gamma, self.s0
        if g == 1.0:
            if s0 == 0.0:
                return np.where(ts > 0.0, math.inf, 0.0)
            return c * _each(math.log, ((ts + s0) / s0).tolist())
        e = 1.0 - g
        if s0 == 0.0:
            return c * _each(pow, ts.tolist(), repeat(e)) / e
        # s0^e ((1 + t/s0)^e - 1) / e, without the cancellation of the
        # difference of powers as gamma nears 1
        return c * s0**e * _each(lambda t: math.expm1(e * math.log1p(t / s0)), ts.tolist()) / e

    def classify(self) -> ScheduleClassification:
        g, c = self.gamma, self.c
        diverges = g <= 1.0
        exp_finite = g < 1.0 or (g == 1.0 and c > 1.0)
        return ScheduleClassification(
            integral_a_diverges=diverges,
            exp_integral_finite=exp_finite,
            slow_log_condition=(g <= 1.0),
        )


@dataclass(frozen=True)
class Custom(DampingSchedule):
    """Schedule given by callbacks.

    ``a`` is required.  ``da`` is optional; when omitted the derivative is a
    central finite difference with step h = max(1e-6, 1e-6*t).  int_0^t a
    and the kernel are one quadrature per time.
    """

    a: Callable[[float], float]
    da: Optional[Callable[[float], float]] = None
    singular: bool = False

    kernel_by_quadrature = True

    @property
    def singular_at_zero(self) -> bool:  # type: ignore[override]
        return self.singular

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

    def integral_a_to(self, times) -> np.ndarray:
        """One quadrature per time; DomainError where it does not
        converge, as on a non-integrable singularity at the origin, whose
        +inf no quadrature can tell from a large finite value."""
        from scipy.integrate import quad

        def integral(t: float) -> float:
            if not t:
                return 0.0
            value, _, _, *warning = quad(
                self.a, 0.0, t, epsrel=QUAD_REL_TOL, epsabs=QUAD_ABS_FLOOR, limit=200,
                full_output=1,
            )
            if warning:
                raise DomainError(
                    f"int_0^{t} a did not converge: {warning[0].splitlines()[0]}"
                )
            return value

        return np.array([integral(t) for t in self._times(times).tolist()])


class _SlowLog(Custom):
    """The schedule of slow_log_example, with the flags that a comparison
    with 1/(t ln ln t) gives: int a ~ ln t / ln ln t diverges, so
    exp(-int a) decays more slowly than every power and its integral is
    infinite, and int a(t ln t) ~ ln ln ln t diverges."""

    def classify(self) -> ScheduleClassification:
        return ScheduleClassification(True, False, True)


def slow_log_example() -> Custom:
    """a(t) = 1/((t+1) ln(ln(t+3))): integral of a(t ln t) diverges while the
    plain integral of a barely does; the standard example for the slow-log
    condition.  Ships as a Custom schedule rather than a dedicated kind;
    unlike other Custom schedules, it states its classification flags."""

    def a(t: float) -> float:
        return 1.0 / ((t + 1.0) * math.log(math.log(t + 3.0)))

    def da(t: float) -> float:
        inner = math.log(t + 3.0)
        big = math.log(inner)
        d_big = 1.0 / (inner * (t + 3.0))
        denom = (t + 1.0) * big
        return -(big + (t + 1.0) * d_big) / denom**2

    return _SlowLog(a=a, da=da)
