"""Closed-form reference solutions for the damped second-order system.

These are the ground-truth values the integrator and the analyzers are
checked against: regular Bessel solutions of the linear equation
x'' + (c/t) x' + x = 0, the zero-potential quadrature solution and the
exact power-law solution of the nonlinear equation with matching damping.

Bessel values come from ``scipy.special.jv`` and the gamma function from
``math.gamma``; this module only validates inputs and assembles the closed
forms.  scipy is imported on first use, so importing this module (and the
command line, which imports it) loads numpy only.  The references are
accurate to about 1e-14 at every t, long horizons included.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import DomainError
from .schedule import Constant, DampingSchedule, PowerLaw

ArrayLike = Union[float, np.ndarray]

# supported order range; (c-1)/2 for damping amplitudes c in (0, 7]
_NU_MIN = -0.5
_NU_MAX = 3.0


def bessel_j(nu: float, t: float) -> float:
    """Bessel function of the first kind, J_nu(t), for nu in (-0.5, 3]."""
    if not (_NU_MIN < nu <= _NU_MAX):
        raise DomainError(f"order {nu} outside supported range ({_NU_MIN}, {_NU_MAX}]")
    if not 0 <= t < math.inf:
        raise DomainError(f"bessel_j needs a finite t >= 0, got {t}")
    if t == 0.0 and nu < 0.0:
        raise DomainError("J_nu(0) diverges for negative order")
    from scipy.special import jv

    return float(jv(nu, t))


def linear_regular_solution(c: float, t: float) -> float:
    """The solution of x'' + (c/t) x' + x = 0 finite at 0 with x(0) = 1.

    x_c(t) = Gamma(nu+1) (t/2)^{-nu} J_nu(t) with nu = (c-1)/2.
    """
    if not (0.0 < c <= 7.0):
        raise DomainError(f"damping amplitude must be in (0, 7], got {c}")
    if not 0 <= t < math.inf:
        raise DomainError(f"time must be >= 0 and finite, got {t}")
    if t == 0.0:
        return 1.0
    from scipy.special import jv

    nu = (c - 1.0) / 2.0
    return float(math.gamma(nu + 1.0) * (t / 2.0) ** (-nu) * jv(nu, t))


def _kernel_displacement(sched: DampingSchedule, t: float) -> float:
    """int_0^t exp(-int_0^s a) ds, closed form where available."""
    if t == 0.0:
        return 0.0
    if isinstance(sched, Constant):
        if sched.level == 0.0:
            return t
        return (1.0 - math.exp(-sched.level * t)) / sched.level
    if isinstance(sched, PowerLaw):
        c, g, s0 = sched.c, sched.gamma, sched.s0
        if g == 0.0:
            return (1.0 - math.exp(-c * t)) / c
        if g == 1.0:
            if s0 == 0.0:
                return 0.0  # kernel vanishes identically off the singular start
            if c == 1.0:
                return s0 * math.log((t + s0) / s0)
            return s0**c * ((t + s0) ** (1.0 - c) - s0 ** (1.0 - c)) / (1.0 - c)
    # no elementary antiderivative: integrate the kernel numerically
    from scipy.integrate import quad

    val, _ = quad(
        lambda s: sched.decay_kernels([s])[0], 0.0, t, epsrel=1e-11, epsabs=1e-14, limit=400
    )
    return val


def zero_potential_solution(
    sched: DampingSchedule, x0: ArrayLike, v0: ArrayLike, t: float
) -> tuple[ArrayLike, ArrayLike]:
    """Exact state (x, v) at time t for G identically 0.

    v(t) = v0 exp(-int_0^t a); x(t) = x0 + v0 int_0^t exp(-int_0^s a) ds.
    Accepts scalars or arrays for x0, v0.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"time must be >= 0 and finite, got {t}")
    kern = float(sched.decay_kernels([t])[0])
    disp = _kernel_displacement(sched, t)
    if isinstance(x0, np.ndarray) or isinstance(v0, np.ndarray):
        x0 = np.asarray(x0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
    return x0 + v0 * disp, v0 * kern


def power_law_exact(beta: float, t: float) -> tuple[float, float, float]:
    """The exact solution x(t) = (t+1)^{-beta} of the nonlinear equation
    x'' + c/(t+1) x' + sign(x)|x|^{1+2/beta} = 0 with c = 1 + beta + 1/beta.

    Returns (x, v, c).
    """
    if not 0 < beta < math.inf:
        raise DomainError(f"exponent must be > 0 and finite, got {beta}")
    c = 1.0 + beta + 1.0 / beta
    if c == math.inf:
        raise DomainError(f"c = 1 + beta + 1/beta overflows at beta = {beta}")
    if not 0 <= t < math.inf:
        raise DomainError(f"time must be >= 0 and finite, got {t}")
    x = (t + 1.0) ** (-beta)
    v = -beta * (t + 1.0) ** (-beta - 1.0)
    return x, v, c
