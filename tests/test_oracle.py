"""Reference-solution checks: the oracle must stand on its own feet
before anything else is judged against it."""

import math

import numpy as np
import pytest

from vanishdamp import (
    Constant,
    DomainError,
    PowerLaw,
    PPower,
    Quadratic,
    SystemSpec,
    Zero,
    integrate,
    slow_log_example,
)
from vanishdamp.oracle import (
    bessel_j,
    linear_regular_solution,
    power_law_exact,
    zero_potential_solution,
)

# Frozen fixtures, precomputed once with 40-digit arithmetic (mpmath)
# and pasted as literals so the test needs no extra dependency.
BESSEL = [
    (0.0, 1.0, 0.7651976865579666),
    (0.0, 10.0, -0.24593576445134835),
    (0.0, 50.0, 0.055812327669251816),
    (0.5, 3.0, 0.06500818287737578),
    (1.0, 25.0, -0.1253502495802899),
    (2.5, 80.0, 0.08898874697094535),
    (3.0, 160.0, -0.05236551897736482),
    (-0.25, 2.0, 0.003586915624172916),
    (0.0, 0.1, 0.99750156206604),
    (1.5, 120.0, -0.05894972841661796),
]
LINEAR = [
    (1.0, 5.0, -0.1775967713143383),
    (2.0, 5.0, -0.1917848549326277),
    (3.0, 10.0, 0.008694549233772287),
    (0.5, 2.0, 0.004395466316194799),
    (7.0, 40.0, -9.46086116293656e-05),
    (1.0, 60.0, -0.09147180408906187),
    (3.0, 200.0, -0.0005430453818237823),
    (0.5, 500.0, -0.17310399030683543),
]
J0_FIRST_ZERO = 2.404825557695773


@pytest.mark.parametrize("nu,t,expected", BESSEL)
def test_bessel_matches_frozen_values(nu, t, expected):
    assert bessel_j(nu, t) == pytest.approx(expected, abs=5e-14, rel=5e-12)


def test_bessel_first_zero_is_tiny():
    assert abs(bessel_j(0.0, J0_FIRST_ZERO)) < 1e-14


@pytest.mark.parametrize("c,t,expected", LINEAR)
def test_linear_solution_frozen_values(c, t, expected):
    assert linear_regular_solution(c, t) == pytest.approx(expected, abs=1e-14, rel=1e-11)


def test_linear_solution_value_at_zero():
    for c in (0.5, 1.0, 2.0, 5.0):
        assert linear_regular_solution(c, 0.0) == 1.0


@pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
def test_linear_solution_satisfies_equation(c):
    # centered second difference on a fine grid; the residual of
    # x'' + (c/t) x' + x should vanish to truncation error
    h = 1e-4
    worst = 0.0
    for t in np.linspace(1.0, 200.0, 797):
        t = float(t)
        xm, x0, xp = (linear_regular_solution(c, t + k * h) for k in (-1, 0, 1))
        acc = (xp - 2.0 * x0 + xm) / h**2
        vel = (xp - xm) / (2.0 * h)
        worst = max(worst, abs(acc + (c / t) * vel + x0))
    assert worst <= 1e-6


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_power_law_exact_satisfies_system(beta):
    # substitute the closed form into x'' + c/(t+1) x' + g(x) with the
    # matching odd-power gradient; the residual is algebraically zero
    pot = PPower(2.0 + 2.0 / beta)
    grad = pot.grad_fn()
    _, _, c = power_law_exact(beta, 0.0)
    for t in np.linspace(0.0, 100.0, 401):
        t = float(t)
        x, v, _ = power_law_exact(beta, t)
        acc = beta * (beta + 1.0) * (t + 1.0) ** (-beta - 2.0)
        residual = acc + (c / (t + 1.0)) * v + grad(x)
        assert abs(residual) <= 1e-10


def test_zero_potential_solution_matches_integrator():
    schedules = [
        Constant(0.7),
        PowerLaw(c=1.0, gamma=1.0, s0=1.0),
        PowerLaw(c=2.0, gamma=1.0, s0=1.0),
        PowerLaw(c=1.0, gamma=0.5, s0=1.0),
        PowerLaw(c=1.5, gamma=0.0, s0=1.0),
        slow_log_example(),
    ]
    for sched in schedules:
        traj = integrate(
            SystemSpec(
                schedule=sched,
                potential=Zero(1),
                x0=0.3,
                v0=1.2,
                t_end=20.0,
                rel_tol=1e-11,
                abs_tol=1e-13,
            )
        )
        for t in (0.5, 5.0, 20.0):
            x_ref, v_ref = zero_potential_solution(sched, 0.3, 1.2, t)
            x_got = float(traj.positions_at(np.array([t]))[0, 0])
            v_got = float(traj.velocities_at(np.array([t]))[0, 0])
            assert abs(x_got - x_ref) <= 1e-8, sched
            assert abs(v_got - v_ref) <= 1e-8, sched


def test_zero_potential_solution_vector_start():
    sched = Constant(1.0)
    x, v = zero_potential_solution(sched, np.array([1.0, -2.0]), np.array([0.5, 0.5]), 3.0)
    assert x.shape == (2,) and v.shape == (2,)
    assert v == pytest.approx([0.5 * math.exp(-3.0)] * 2)


def test_singular_run_matches_series_solution(j_run):
    worst = max(
        abs(float(x) - linear_regular_solution(1.0, float(t)))
        for t, x in zip(j_run.ts, j_run.xs[:, 0])
    )
    assert worst <= 1e-6


@pytest.mark.parametrize("c", [1.0, 3.0])
def test_singular_run_matches_bessel_solution_late(c):
    # a long singular-start run must track the closed form deep into the
    # oscillatory tail, not only on the short horizon A1 checks
    traj = integrate(
        SystemSpec(
            schedule=PowerLaw(c=c, gamma=1.0, s0=0.0),
            potential=Quadratic(1),
            x0=1.0,
            v0=0.0,
            t_end=1000.0,
            rel_tol=1e-10,
            abs_tol=1e-13,
        )
    )
    late = traj.ts >= 500.0
    assert late.sum() > 100
    worst = max(
        abs(float(x) - linear_regular_solution(c, float(t)))
        for t, x in zip(traj.ts[late], traj.xs[late, 0])
    )
    assert worst <= 1e-9


def test_oracle_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(5.0, 1.0)  # order outside the supported band
    with pytest.raises(DomainError):
        bessel_j(-0.5, 1.0)  # band is open at the lower endpoint
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.25, 0.0)  # J_nu(0) diverges for negative order
    with pytest.raises(DomainError):
        linear_regular_solution(0.0, 1.0)
    with pytest.raises(DomainError):
        linear_regular_solution(8.0, 1.0)
    with pytest.raises(DomainError):
        power_law_exact(-1.0, 1.0)
    with pytest.raises(DomainError):
        power_law_exact(1.0, -0.5)
    # non-finite input
    with pytest.raises(DomainError):
        bessel_j(0.0, math.nan)
    with pytest.raises(DomainError):
        bessel_j(0.0, math.inf)
    with pytest.raises(DomainError):
        linear_regular_solution(0.5, math.inf)
    with pytest.raises(DomainError):
        power_law_exact(0.8, math.nan)
    with pytest.raises(DomainError):
        power_law_exact(math.inf, 1.0)
    with pytest.raises(DomainError):
        power_law_exact(math.nan, 1.0)
    with pytest.raises(DomainError):
        power_law_exact(1e-320, 1.0)  # c = 1 + beta + 1/beta overflows
    with pytest.raises(DomainError):
        zero_potential_solution(Constant(1.0), 1.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        zero_potential_solution(PowerLaw(1.0, 2.0), 1.0, 1.0, math.inf)
