"""Damping-schedule invariants.

Closed-form integrals are checked against independent quadrature, the
decay kernel against its defining identity, the array methods against the
scalar expressions they replaced (kept here as references) and against
SHA-256 pins, and the classification flags against their closed forms.
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vanishdamp import (
    Constant,
    CustomSchedule,
    DomainError,
    PowerLaw,
    ScheduleClassification,
    slow_log_example,
)
from vanishdamp.schedule import QUAD_ABS_FLOOR, QUAD_REL_TOL

# 1e-3 .. 1e5, eight points per decade
LOG_GRID = [10.0 ** (k / 4.0) for k in range(-12, 21)]
# the origin, 1e-3 .. 1e5 and a huge time, for int_0^t a and the kernel
KERNEL_GRID = np.concatenate([[0.0], np.geomspace(1.0e-3, 1.0e5, 97), [1.0e300]])
# the origin and 1e-300 .. 1e3, for a(t)
A_GRID = np.concatenate([[0.0], np.geomspace(1.0e-300, 1.0e3, 301)])


def _stable_id(sched):
    # a Custom repr names its callbacks with their memory addresses, which
    # change from run to run; drop them so test ids stay the same
    return re.sub(r" at 0x[0-9a-f]+", "", repr(sched))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# scalar references: a(t), int_0^t a and the kernel at one time, with the
# float operations the schedules' array methods must reproduce bit for bit


def a_at(sched, t):
    if isinstance(sched, Constant):
        return sched.level
    if isinstance(sched, PowerLaw):
        return sched.c / (t + sched.s0) ** sched.gamma
    return sched.a(t)


def integral_a(sched, t):
    if isinstance(sched, Constant):
        return sched.level * t
    if isinstance(sched, PowerLaw):
        c, g, s0 = sched.c, sched.gamma, sched.s0
        if g == 1.0:
            if s0 == 0.0:
                return math.inf if t > 0.0 else 0.0
            return c * math.log((t + s0) / s0)
        e = 1.0 - g
        if s0 == 0.0:
            return c * t ** e / e
        return c * s0 ** e * math.expm1(e * math.log1p(t / s0)) / e
    if t == 0.0:
        return 0.0
    return quad(sched.a, 0.0, t, epsrel=QUAD_REL_TOL, epsabs=QUAD_ABS_FLOOR, limit=200)[0]


def decay_kernel(sched, t):
    ia = integral_a(sched, t)
    return math.exp(-ia) if ia != math.inf else 0.0


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
    ia = sched.integral_a_to(LOG_GRID)
    kern = sched.decay_kernels(LOG_GRID)
    for i, k in zip(ia.tolist(), kern.tolist()):
        assert i < 700.0
        assert k * math.exp(i) == pytest.approx(1.0, rel=1e-12)
    assert sched.decay_kernels([0.0]).tolist() == [1.0]


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
    # the array methods make the same float operations and the same
    # math-module calls as the scalar references, point for point
    ts = KERNEL_GRID[::8] if isinstance(sched, CustomSchedule) else KERNEL_GRID  # quadrature per point
    ia = sched.integral_a_to(ts)
    kern = sched.decay_kernels(ts)
    assert ia.shape == kern.shape == ts.shape
    for t, i, k in zip(ts.tolist(), ia.tolist(), kern.tolist()):
        assert repr(i) == repr(integral_a(sched, t))
        assert repr(k) == repr(decay_kernel(sched, t))
    with pytest.raises(DomainError):
        sched.decay_kernels(np.array([1.0, -0.5]))


# SHA-256 of the bytes of a_values on A_GRID, then integral_a_to and
# decay_kernels on KERNEL_GRID (every eighth point for Custom schedules),
# computed when each array method still had a scalar twin; the three
# PowerLaw rows with gamma != 1 and s0 > 0 since int_0^t a is the
# expm1/log1p form
ARRAY_SHA256 = {
    "Constant(level=0.005)": "4f97f0ef189a67abd86320ade51bbd4c177cde9a28d2bbad5b17e91f0e7b0024",
    "Constant(level=0.0)": "a18820224eeb0968daa4a4c422c622ae837691ea94a66eb9b7ab105baea1cb3c",
    "PowerLaw(c=1.0, gamma=1.0, s0=1.0)": "4c72fda5e37b4ebb3c73a19d29f84e7180068193be0d7272ed0d98735e3b8534",
    "PowerLaw(c=1.0, gamma=1.0, s0=0.0)": "401eada053c2921a642756e551f31e3823ca97275bdb8af1984702a1ced1001f",
    "PowerLaw(c=0.5, gamma=0.5, s0=0.0)": "ed644b4341f546ba54e9729a160411b561249698205feec64d0a2b9fe24e3a50",
    "PowerLaw(c=1.0, gamma=0.5, s0=1.0)": "732fc8254c6fed6b78faf1684ba4c30fe439800cd6aaf72d92efa1c5f07e3dd9",
    "PowerLaw(c=3.0, gamma=2.0, s0=0.5)": "76eaa6215cbeb2ba7c578b8794f87539b02958d8ae139a00520fdef9c81f3d00",
    "PowerLaw(c=0.2, gamma=0.0, s0=1.0)": "baa764cd9e3e0af64aae780ef6d2d96b237556d2711d63b964ab7f10706fb561",
    "Custom(a=1/(1+t))": "3d10be37e9bb4d5c7fd70b8710e1f4d5054f16389ab11c73918131968a0ff14b",
    "slow_log_example()": "e743843d491e8b34bf091964e0f1085fef75a2a9b76cd4fa37a35c556dcb5d84",
}


@pytest.mark.parametrize(
    "sched,digest",
    [
        pytest.param(p.values[0] if hasattr(p, "values") else p, digest, id=key)
        for p, (key, digest) in zip(EVERY_KIND, ARRAY_SHA256.items())
    ],
)
def test_array_methods_are_pinned_bitwise(sched, digest):
    kernel_grid = KERNEL_GRID[::8] if isinstance(sched, CustomSchedule) else KERNEL_GRID
    h = hashlib.sha256()
    for arr in (sched.a_values(A_GRID), sched.integral_a_to(kernel_grid), sched.decay_kernels(kernel_grid)):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


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
    # "inf" at the origin of a singular schedule; away from that origin
    # a_values is also the integrator's rate_fn, point by point
    singular = sched.singular_at_zero
    ts = A_GRID.tolist()
    got = sched.a_values(A_GRID)
    assert got.shape == A_GRID.shape
    want = [math.inf if t == 0.0 and singular else a_at(sched, t) for t in ts]
    assert np.array_equal(_bits(got), _bits(want))
    fn = sched.rate_fn()
    start = 1 if singular else 0
    assert np.array_equal(_bits(got[start:]), _bits([fn(t) for t in ts[start:]]))
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
    ts = [0.5, 3.0, 11.0, 37.0]
    for t, got in zip(ts, sched.integral_a_to(ts).tolist()):
        if s0 == 0.0 and gamma == 1.0:
            ref = math.inf  # c/t is not integrable at the origin
        elif s0 == 0.0:
            # the weight carries the endpoint singularity t^-gamma exactly
            ref, _ = quad(lambda s: c, 0.0, t, weight="alg", wvar=(-gamma, 0.0))
        else:
            ref, _ = quad(lambda s: c / (s + s0) ** gamma, 0.0, t, epsrel=1e-12)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)
    assert sched.integral_a_to([0.0]).tolist() == [0.0]


def test_integral_from_singular_origin():
    # gamma = 1 with offset 0: non-integrable at the origin
    hard = PowerLaw(1.0, 1.0, 0.0)
    assert hard.integral_a_to([0.0, 2.0]).tolist() == [0.0, math.inf]
    assert hard.decay_kernels([0.0, 2.0]).tolist() == [1.0, 0.0]
    # gamma < 1 with offset 0: integrable; reference via a weighted
    # quadrature that carries the endpoint singularity exactly
    soft = PowerLaw(1.1, 0.7, 0.0)
    ref, _ = quad(lambda t: 1.1, 0.0, 2.0, weight="alg", wvar=(-0.7, 0.0))
    assert soft.integral_a_to([2.0])[0] == pytest.approx(ref, rel=1e-10)


@given(
    c=st.floats(0.05, 4.0),
    gamma=st.floats(0.0, 2.0),
    s0=st.floats(0.05, 5.0),
    t=st.floats(0.0, 1.0e4),
)
@settings(max_examples=80, deadline=None)
# near gamma = 1 a difference of powers cancels (relative error 1e-3 at
# |1 - gamma| = 1e-14); the closed form must not
@example(c=1.0, gamma=1.0 + 1e-9, s0=1.0, t=1.0e4)
@example(c=1.0, gamma=1.0 - 1e-9, s0=1.0, t=1.0e4)
@example(c=1.0, gamma=1.0 + 1e-12, s0=1.0, t=1.0e4)
@example(c=1.0, gamma=1.0 - 1e-12, s0=1.0, t=1.0e4)
@example(c=1.0, gamma=1.0 + 1e-14, s0=1.0, t=1.0e4)
@example(c=1.0, gamma=1.0 - 1e-14, s0=1.0, t=1.0e4)
def test_integral_matches_quadrature_anywhere(c, gamma, s0, t):
    # in u = log(t + s0) the integrand c e^{(1-gamma) u} is smooth for
    # every exponent, so the quadrature is an independent reference
    got = PowerLaw(c, gamma, s0).integral_a_to([t])[0]
    ref, _ = quad(
        lambda u: c * math.exp((1.0 - gamma) * u), math.log(s0), math.log(t + s0), epsrel=1e-13
    )
    assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))


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
    assert const.slow_log_condition
    off = Constant(0.0).classify()
    assert not (off.integral_a_diverges or off.exp_integral_finite)
    assert not off.slow_log_condition
    # just past gamma = 1, int a converges and the kernel tends to a
    # positive constant; at gamma = 1 the kernel (1+t)^-c is integrable
    # exactly when c > 1
    for gamma in (1.02, 1.05, 1.1):
        assert PowerLaw(1.0, gamma).classify() == ScheduleClassification(False, False, False)
    for c, finite in ((0.97, False), (1.03, True), (1.1, True)):
        assert PowerLaw(c, 1.0).classify() == ScheduleClassification(True, finite, True)


def test_slow_log_example_schedule():
    sched = slow_log_example()
    a = sched.rate_fn()
    assert a(0.0) == pytest.approx(1.0 / math.log(math.log(3.0)), rel=1e-12)
    # analytic derivative against a central difference
    for t in (0.5, 3.0, 100.0):
        h = 1e-6 * max(1.0, t)
        fd = (a(t + h) - a(t - h)) / (2.0 * h)
        assert sched.da_at(t) == pytest.approx(fd, rel=1e-6)
    # monotone decreasing on the grid, as declared
    vals = sched.a_values(LOG_GRID)
    assert np.all(vals[:-1] >= vals[1:])
    cls = sched.classify()
    assert cls.integral_a_diverges
    assert cls.slow_log_condition
    assert not cls.exp_integral_finite


# (integral_a_diverges, exp_integral_finite, slow_log_condition) of Custom
# schedules, singular origins and a non-monotone rate included: a Custom
# schedule has no closed form, so it states no flag, whatever its rate;
# slow_log_example states the flags that its comparison with
# 1/(t ln ln t) gives
CUSTOM_FLAGS = [
    (CustomSchedule(a=PowerLaw(0.5, 0.5, 1.0).rate_fn()), "0.5/(t+1)^0.5", (None, None, None)),
    (CustomSchedule(a=PowerLaw(1.0, 1.0, 1.0).rate_fn()), "1/(t+1)", (None, None, None)),
    (CustomSchedule(a=PowerLaw(2.0, 1.0, 1.0).rate_fn()), "2/(t+1)", (None, None, None)),
    (CustomSchedule(a=PowerLaw(3.0, 2.0, 0.5).rate_fn()), "3/(t+0.5)^2", (None, None, None)),
    (CustomSchedule(a=PowerLaw(1.5, 1.1, 5.0).rate_fn()), "1.5/(t+5)^1.1", (None, None, None)),
    (CustomSchedule(a=lambda t: 0.0), "0", (None, None, None)),
    (CustomSchedule(a=lambda t: 1.0), "1", (None, None, None)),
    (CustomSchedule(a=lambda t: 2.0 / t, singular=True), "2/t", (None, None, None)),
    (CustomSchedule(a=lambda t: 1.0 / math.sqrt(t), singular=True), "1/sqrt(t)", (None, None, None)),
    (CustomSchedule(a=lambda t: math.exp(-t)), "exp(-t)", (None, None, None)),
    (
        CustomSchedule(a=lambda t: (1.0 + 0.5 * math.sin(t)) / (1.0 + t)),
        "(1+sin(t)/2)/(1+t)",
        (None, None, None),
    ),
    (slow_log_example(), "slow_log_example()", (True, False, True)),
    (
        CustomSchedule(a=lambda t: 1.0 / ((t + 2.0) * math.log(t + 2.0))),
        "1/((t+2)ln(t+2))",
        (None, None, None),
    ),
]


@pytest.mark.parametrize(
    "sched,flags", [pytest.param(s, f, id=name) for s, name, f in CUSTOM_FLAGS]
)
def test_custom_classification_is_pinned(sched, flags):
    cls = sched.classify()
    assert (
        cls.integral_a_diverges,
        cls.exp_integral_finite,
        cls.slow_log_condition,
    ) == flags


def test_custom_classification_integrates_nothing(monkeypatch):
    # the flags of a Custom schedule come from no quadrature
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("classify ran a quadrature")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    cls = CustomSchedule(a=lambda t: 1.0 / (1.0 + t)).classify()
    assert cls == ScheduleClassification(None, None, None)


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
        assert fn(t) == a_at(sched, t)


@pytest.mark.parametrize(
    "sched",
    [PowerLaw(0.8), PowerLaw(2.0, gamma=0.5), PowerLaw(1.0, gamma=2.0, s0=0.5)],
    ids=repr,
)
def test_analytic_derivatives_match_finite_differences(sched):
    a = sched.rate_fn()
    for t in (0.25, 1.0, 7.0, 300.0):
        h = 1e-5 * max(1.0, t)
        fd1 = (a(t + h) - a(t - h)) / (2.0 * h)
        assert sched.da_at(t) == pytest.approx(fd1, rel=1e-7)


def test_custom_schedule_derivative_fallback():
    explicit = CustomSchedule(a=lambda t: 1.0 / (t + 1.0), da=lambda t: -1.0 / (t + 1.0) ** 2)
    assert explicit.da_at(2.0) == -1.0 / 9.0
    fallback = CustomSchedule(a=lambda t: 1.0 / (t + 1.0))
    assert fallback.da_at(2.0) == pytest.approx(-1.0 / 9.0, rel=1e-5)
    # with or without da, the kernel of a Custom schedule is quadrature
    assert explicit.kernel_by_quadrature and fallback.kernel_by_quadrature
    assert not (Constant(1.0).kernel_by_quadrature or PowerLaw(1.0).kernel_by_quadrature)


def test_singular_power_law_evaluation():
    sched = PowerLaw(1.0, 1.0, 0.0)
    assert sched.singular_at_zero
    with pytest.raises(DomainError):
        sched.da_at(0.0)
    assert sched.a_values([0.0]).tolist() == [math.inf]
    assert sched.a_values([1e-12])[0] == pytest.approx(1e12)
    # integrable singular start: finite integral despite a(0) undefined
    soft = PowerLaw(1.0, 0.5, 0.0)
    assert soft.singular_at_zero
    assert soft.a_values([0.0]).tolist() == [math.inf]
    assert soft.integral_a_to([4.0])[0] == pytest.approx(4.0, rel=1e-12)
    # gamma = 0 with offset 0 is just a constant, not singular
    flat = PowerLaw(1.0, 0.0, 0.0)
    assert not flat.singular_at_zero
    assert flat.a_values([0.0]).tolist() == [1.0]


def test_custom_integral_refuses_a_non_integrable_origin():
    # quadrature of 2/t from 0 stops at its subdivision limit on the same
    # finite value (291.3) for every t, where the integral is +inf, as
    # the PowerLaw closed form gives; a Custom schedule cannot tell the
    # two apart, so it refuses to answer
    sched = CustomSchedule(a=lambda t: 2.0 / t, singular=True)
    for method in (sched.integral_a_to, sched.decay_kernels):
        with pytest.raises(DomainError, match="did not converge"):
            method([1.0, 10.0])
    assert PowerLaw(2.0, 1.0, 0.0).integral_a_to([1.0, 10.0]).tolist() == [math.inf, math.inf]
    # an integrable singular origin still converges
    soft = CustomSchedule(a=lambda t: 0.5 / math.sqrt(t), singular=True)
    assert soft.integral_a_to([0.0, 4.0]).tolist() == pytest.approx([0.0, 2.0], rel=1e-12)


def test_power_law_overflow_gives_the_zero_limit():
    # (t + s0) ** gamma overflows long before t does; a(t) and a'(t) tend
    # to 0 there, which a raw OverflowError from the float power hid
    sched = PowerLaw(3.0, gamma=2.0, s0=0.5)
    big = [1e300, 1e160, 1e200]
    assert sched.a_values(big).tolist() == [0.0, 0.0, 0.0]
    assert [sched.rate_fn()(t) for t in big] == [0.0, 0.0, 0.0]
    assert [sched.da_at(t) for t in big] == [0.0, 0.0, 0.0]
    # below the overflow the float power is unchanged
    assert sched.a_values([1e150]).tolist() == [3.0 / 1e150 ** 2.0]
    assert sched.rate_fn()(1e150) == 3.0 / 1e150 ** 2.0
    assert sched.da_at(1e100) == -6.0 / 1e100 ** 3.0


# ---------------------------------------------------------------------------
# validation


def test_parameter_validation():
    for bad in (lambda: PowerLaw(0.0), lambda: PowerLaw(-1.0),
                lambda: PowerLaw(1.0, gamma=-0.1), lambda: PowerLaw(1.0, s0=-1.0),
                lambda: PowerLaw(1.0, gamma=1.5, s0=0.0),
                lambda: Constant(-0.1), lambda: Constant(math.nan),
                # non-finite parameters, which ran to meaningless results
                lambda: PowerLaw(math.inf), lambda: PowerLaw(1.0, gamma=math.inf),
                lambda: PowerLaw(1.0, s0=math.inf), lambda: PowerLaw(1.0, s0=math.nan),
                lambda: Constant(math.inf)):
        with pytest.raises(DomainError):
            bad()


def test_time_validation():
    singular = CustomSchedule(a=lambda t: 1.0, singular=True)
    for sched in (PowerLaw(1.0), Constant(1.0), singular):
        for method in (sched.a_values, sched.integral_a_to, sched.decay_kernels):
            with pytest.raises(DomainError):
                method([2.0, -0.5])
    assert singular.a_values([0.0]).tolist() == [math.inf]
