"""Damping-schedule invariants.

Closed-form integrals are checked against independent quadrature, the
decay kernel against its defining identity, and the analytic
classification flags against the quadrature-based classifier running on
the same rate function.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vanishdamp import (
    Constant,
    CustomSchedule,
    DomainError,
    PowerLaw,
    slow_log_example,
)

# 1e-3 .. 1e5, eight points per decade
LOG_GRID = [10.0 ** (k / 4.0) for k in range(-12, 21)]


def _stable_id(sched):
    # a Custom repr names its callbacks with their memory addresses, which
    # change from run to run; drop them so test ids stay the same
    return re.sub(r" at 0x[0-9a-f]+", "", repr(sched))


# ---------------------------------------------------------------------------
# decay kernel and closed-form integrals


@pytest.mark.parametrize(
    "sched",
    [
        Constant(0.005),
        Constant(0.0),
        PowerLaw(0.5),
        PowerLaw(1.0),
        PowerLaw(2.0),
        PowerLaw(1.0, gamma=0.5),
        PowerLaw(3.0, gamma=2.0, s0=0.5),
    ],
    ids=repr,
)
def test_decay_kernel_inverts_integral(sched):
    # exp(-int a) * exp(+int a) == 1; parameters are chosen so the
    # integral stays below the exp overflow threshold on the grid
    for t in LOG_GRID:
        ia = sched.integral_a(0.0, t)
        assert ia < 700.0
        assert sched.decay_kernel(t) * math.exp(ia) == pytest.approx(1.0, rel=1e-12)
    assert sched.decay_kernel(0.0) == 1.0


# every schedule kind, singular origins included
EVERY_KIND = [
    Constant(0.005),
    Constant(0.0),
    PowerLaw(1.0),
    PowerLaw(1.0, gamma=1.0, s0=0.0),
    PowerLaw(0.5, gamma=0.5, s0=0.0),
    PowerLaw(1.0, gamma=0.5),
    PowerLaw(3.0, gamma=2.0, s0=0.5),
    PowerLaw(0.2, gamma=0.0),
    pytest.param(CustomSchedule(a=lambda t: 1.0 / (1.0 + t)), id="Custom(a=1/(1+t))"),
    slow_log_example(),
]


@pytest.mark.parametrize("sched", EVERY_KIND, ids=_stable_id)
def test_array_kernel_matches_scalar_bitwise(sched):
    # the array entry point makes the same float operations and the same
    # math-module calls as the scalar methods, point for point
    ts = np.concatenate([[0.0], np.geomspace(1.0e-3, 1.0e5, 97), [1.0e300]])
    if isinstance(sched, CustomSchedule):
        ts = ts[::8]  # quadrature per point
    ia = sched.integral_a_to(ts)
    kern = sched.decay_kernels(ts)
    assert ia.shape == kern.shape == ts.shape
    for t, i, k in zip(ts.tolist(), ia.tolist(), kern.tolist()):
        assert repr(i) == repr(sched.integral_a(0.0, t))
        assert repr(k) == repr(sched.decay_kernel(t))
    with pytest.raises(DomainError):
        sched.decay_kernels(np.array([1.0, -0.5]))


@pytest.mark.parametrize(
    "sched",
    EVERY_KIND + [
        # exponents where numpy's power and the C library's can differ
        PowerLaw(0.7, gamma=0.3, s0=0.0),
        PowerLaw(2.0, gamma=1.7, s0=0.25),
        pytest.param(CustomSchedule(a=lambda t: 2.0 / t, singular=True), id="Custom(a=2/t)"),
    ],
    ids=_stable_id,
)
def test_a_values_match_a_at_bitwise(sched):
    # the a column of the series CSV was a_at(t) row by row, and the cell
    # "inf" at the origin of a singular schedule
    ts = np.concatenate([[0.0], np.geomspace(1.0e-300, 1.0e3, 301)])
    want = np.array(
        [math.inf if t == 0.0 and sched.singular_at_zero else sched.a_at(t) for t in ts.tolist()]
    )
    got = sched.a_values(ts)
    assert got.shape == ts.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(DomainError):
        sched.a_values(np.array([1.0, -0.5]))


@pytest.mark.parametrize(
    "c,gamma,s0",
    [
        (0.7, 1.0, 1.0),
        (2.0, 0.5, 1.0),
        (1.3, 2.0, 0.25),
        (0.9, 1.0, 0.0),
        (1.1, 0.7, 0.0),
        (0.4, 0.0, 3.0),
    ],
)
def test_integral_matches_quadrature(c, gamma, s0):
    sched = PowerLaw(c, gamma, s0)
    for t0, t1 in [(0.5, 37.0), (2.0, 11.0), (3.0, 3.0)]:
        ref, _ = quad(lambda t: c / (t + s0) ** gamma, t0, t1, epsrel=1e-12)
        assert sched.integral_a(t0, t1) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_integral_from_singular_origin():
    # gamma = 1 with offset 0: non-integrable at the origin
    hard = PowerLaw(1.0, 1.0, 0.0)
    assert hard.integral_a(0.0, 2.0) == math.inf
    assert hard.integral_a(0.0, 0.0) == 0.0
    assert hard.decay_kernel(2.0) == 0.0
    assert hard.decay_kernel(0.0) == 1.0
    # gamma < 1 with offset 0: integrable; reference via a weighted
    # quadrature that carries the endpoint singularity exactly
    soft = PowerLaw(1.1, 0.7, 0.0)
    ref, _ = quad(lambda t: 1.1, 0.0, 2.0, weight="alg", wvar=(-0.7, 0.0))
    assert soft.integral_a(0.0, 2.0) == pytest.approx(ref, rel=1e-10)


@given(
    c=st.floats(0.05, 4.0),
    gamma=st.floats(0.0, 2.0),
    s0=st.floats(0.05, 5.0),
    times=st.lists(st.floats(0.0, 1.0e4), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_integral_additivity(c, gamma, s0, times):
    t0, t1, t2 = sorted(times)
    sched = PowerLaw(c, gamma, s0)
    whole = sched.integral_a(t0, t2)
    split = sched.integral_a(t0, t1) + sched.integral_a(t1, t2)
    assert abs(whole - split) <= 1e-10 * (1.0 + abs(whole))


# ---------------------------------------------------------------------------
# classification


def test_classification_analytic_table():
    # the slow/fast decay dichotomy boundary for a ~ c/t sits at c = 1
    assert not PowerLaw(1.0, 1.0).classify().exp_integral_finite
    assert PowerLaw(1.2, 1.0).classify().exp_integral_finite
    assert PowerLaw(0.5, 0.5).classify().exp_integral_finite
    slow = PowerLaw(0.5, 0.5).classify()
    assert slow.integral_a_diverges and slow.slow_log_condition
    fast = PowerLaw(3.0, 2.0).classify()
    assert not fast.integral_a_diverges
    assert not fast.exp_integral_finite  # kernel tends to a positive constant
    const = Constant(2.0).classify()
    assert const.integral_a_diverges and const.exp_integral_finite
    assert const.bounded_below and const.slow_log_condition
    off = Constant(0.0).classify()
    assert not (off.integral_a_diverges or off.exp_integral_finite)
    assert not (off.bounded_below or off.slow_log_condition)
    assert PowerLaw(1.0, 0.0).classify().bounded_below
    assert not PowerLaw(1.0, 0.5).classify().bounded_below


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_classification_dual_route(c, gamma):
    # the closed-form flags must agree with the quadrature classifier
    # running blind on the same rate function.  bounded_below is
    # excluded: no finite-horizon probe can tell "vanishes slowly"
    # from "positive limit", which is exactly the information the
    # analytic route encodes.
    analytic = PowerLaw(c, gamma, 1.0).classify()
    blind = CustomSchedule(a=PowerLaw(c, gamma, 1.0).rate_fn()).classify()
    assert analytic.analytic and not blind.analytic
    for flag in ("integral_a_diverges", "exp_integral_finite", "slow_log_condition"):
        assert getattr(analytic, flag) == getattr(blind, flag), flag


def test_classification_dual_route_constant():
    analytic = Constant(1.0).classify()
    blind = CustomSchedule(a=lambda t: 1.0).classify()
    for flag in (
        "integral_a_diverges",
        "exp_integral_finite",
        "bounded_below",
        "slow_log_condition",
    ):
        assert getattr(analytic, flag) == getattr(blind, flag), flag


def test_slow_log_example_schedule():
    sched = slow_log_example()
    assert sched.a_at(0.0) == pytest.approx(1.0 / math.log(math.log(3.0)), rel=1e-12)
    # analytic derivative against a central difference
    for t in (0.5, 3.0, 100.0):
        h = 1e-6 * max(1.0, t)
        fd = (sched.a_at(t + h) - sched.a_at(t - h)) / (2.0 * h)
        assert sched.da_at(t) == pytest.approx(fd, rel=1e-6)
    # monotone decreasing on the grid, as declared
    vals = [sched.a_at(t) for t in LOG_GRID]
    assert all(u >= v for u, v in zip(vals, vals[1:]))
    cls = sched.classify()
    assert cls.integral_a_diverges
    assert cls.slow_log_condition
    assert not cls.exp_integral_finite
    assert not cls.analytic


# ---------------------------------------------------------------------------
# derivatives and rate functions


@pytest.mark.parametrize(
    "sched",
    [
        Constant(0.7),
        PowerLaw(0.5),
        PowerLaw(2.0, gamma=1.0, s0=0.3),
        PowerLaw(1.0, gamma=0.5),
        PowerLaw(1.5, gamma=0.0),
        PowerLaw(1.3, gamma=2.0, s0=2.0),
    ],
    ids=repr,
)
def test_rate_fn_equals_a_at(sched):
    fn = sched.rate_fn()
    for t in LOG_GRID:
        assert fn(t) == sched.a_at(t)


@pytest.mark.parametrize(
    "sched",
    [PowerLaw(0.8), PowerLaw(2.0, gamma=0.5), PowerLaw(1.0, gamma=2.0, s0=0.5)],
    ids=repr,
)
def test_analytic_derivatives_match_finite_differences(sched):
    for t in (0.25, 1.0, 7.0, 300.0):
        h = 1e-5 * max(1.0, t)
        fd1 = (sched.a_at(t + h) - sched.a_at(t - h)) / (2.0 * h)
        fd2 = (sched.a_at(t + h) - 2.0 * sched.a_at(t) + sched.a_at(t - h)) / h**2
        assert sched.da_at(t) == pytest.approx(fd1, rel=1e-7)
        assert sched.dda_at(t) == pytest.approx(fd2, rel=1e-4)


def test_custom_schedule_derivative_fallback():
    explicit = CustomSchedule(a=lambda t: 1.0 / (t + 1.0), da=lambda t: -1.0 / (t + 1.0) ** 2)
    assert not explicit.fd_derivative
    assert explicit.da_at(2.0) == -1.0 / 9.0
    fallback = CustomSchedule(a=lambda t: 1.0 / (t + 1.0))
    assert fallback.fd_derivative
    assert fallback.da_at(2.0) == pytest.approx(-1.0 / 9.0, rel=1e-5)
    assert fallback.dda_at(2.0) == pytest.approx(2.0 / 27.0, rel=1e-3)


def test_singular_power_law_evaluation():
    sched = PowerLaw(1.0, 1.0, 0.0)
    assert sched.singular_at_zero
    with pytest.raises(DomainError):
        sched.a_at(0.0)
    with pytest.raises(DomainError):
        sched.da_at(0.0)
    assert sched.a_at(1e-12) == pytest.approx(1e12)
    # integrable singular start: finite integral despite a(0) undefined
    soft = PowerLaw(1.0, 0.5, 0.0)
    assert soft.singular_at_zero
    with pytest.raises(DomainError):
        soft.a_at(0.0)
    assert soft.integral_a(0.0, 4.0) == pytest.approx(4.0, rel=1e-12)
    # gamma = 0 with offset 0 is just a constant, not singular
    flat = PowerLaw(1.0, 0.0, 0.0)
    assert not flat.singular_at_zero
    assert flat.a_at(0.0) == 1.0


# ---------------------------------------------------------------------------
# validation


def test_parameter_validation():
    for bad in (lambda: PowerLaw(0.0), lambda: PowerLaw(-1.0),
                lambda: PowerLaw(1.0, gamma=-0.1), lambda: PowerLaw(1.0, s0=-1.0),
                lambda: PowerLaw(1.0, gamma=1.5, s0=0.0),
                lambda: Constant(-0.1), lambda: Constant(math.nan)):
        with pytest.raises(DomainError):
            bad()


def test_time_validation():
    sched = PowerLaw(1.0)
    with pytest.raises(DomainError):
        sched.a_at(-1.0)
    with pytest.raises(DomainError):
        Constant(1.0).a_at(-0.5)
    with pytest.raises(DomainError):
        sched.integral_a(2.0, 1.0)
    with pytest.raises(DomainError):
        sched.integral_a(-1.0, 3.0)
    with pytest.raises(DomainError):
        sched.decay_kernel(-0.5)
    with pytest.raises(DomainError):
        CustomSchedule(a=lambda t: 1.0, singular=True).a_at(0.0)
