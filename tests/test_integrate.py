"""Integrator invariants.

Energy bookkeeping against the dissipation identity, event location,
dense output against the closed-form solution, the singular-origin
bootstrap, and the bits of the step loop pinned by SHA-256.
"""

import dataclasses
import functools
import hashlib
import importlib
import math
import operator
import pickle
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from scipy.optimize import brentq

from vanishdamp import (
    Constant,
    CustomPotential,
    CustomSchedule,
    DomainError,
    DoubleWell,
    FlatBottom,
    MaxStepsExceeded,
    NoiseModel,
    NonFiniteState,
    Polynomial1D,
    PowerLaw,
    PPower,
    Quadratic,
    StepSchedule,
    SystemSpec,
    UnsupportedError,
    Zero,
    integrate,
    run_recursion,
)
from vanishdamp.integrate import (
    _EVENT_MAXITER,
    _EVENT_RTOL,
    BOOTSTRAP_H0,
    EVENT_TIME_TOL,
    _brentq_batch,
)
from vanishdamp.acceptance import _flat_settling_run
from vanishdamp.oracle import linear_regular_solution, power_law_exact


def _drift_budget(traj):
    return 1e3 * traj.spec.rel_tol * (1.0 + abs(traj.energies[0]))


# ---------------------------------------------------------------------------
# energy bookkeeping


def test_energy_monotone_up_to_drift(j_run, well_run):
    for traj in (j_run, well_run):
        running_min = np.minimum.accumulate(traj.energies)
        worst_rise = float(np.max(traj.energies - running_min))
        assert worst_rise <= _drift_budget(traj)


def test_energy_identity(j_run, well_run):
    # E(t) = E(0) - int_0^t a |v|^2: the solver tracks the dissipation
    # integral alongside the state, so the triple must close to solver
    # accuracy at every sample.  Tight budget at reference tolerance:
    short_well = integrate(
        SystemSpec(
            schedule=PowerLaw(1.0), potential=DoubleWell(),
            x0=0.37, v0=1.1, t_end=100.0, rel_tol=1e-9,
        )
    )
    for traj in (j_run, short_well):
        e0 = traj.energies[0]
        gap = np.abs(e0 - traj.dissipation - traj.energies)
        assert float(gap.max()) <= 1e-6 * (1.0 + abs(e0))
    # on the long coarse run the accumulated closure error must stay on
    # the solver's own tolerance scale (~16k accepted steps)
    e0 = well_run.energies[0]
    gap = np.abs(e0 - well_run.dissipation - well_run.energies)
    assert float(gap.max()) <= 10.0 * well_run.spec.rel_tol * (1.0 + abs(e0))


def test_dissipation_nondecreasing(j_run, well_run):
    # the step's weights include negative ones (b8, b10), so a nonnegative
    # increment is measured, not built in: also on A6's flat-floor
    # settling run, which comes to rest, and on an n=2 run
    for traj in (j_run, well_run, _flat_settling_run(), integrate(_SLANTED_EVENTS[0])):
        assert np.all(np.diff(traj.dissipation) >= -1e-15)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_dissipation_matches_closed_form(beta):
    # On A7's matched runs x = (t+1)^-beta exactly, so the dissipation is
    # int_0^t c/(s+1) x'(s)^2 ds = c beta^2/(2 beta+2) (1 - (t+1)^(-2 beta-2)).
    # The worst error measured is 0.014 of the bound.
    _, v0, c = power_law_exact(beta, 0.0)
    scale = c * beta**2 / (2.0 * beta + 2.0)
    for rel_tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        traj = integrate(
            SystemSpec(PowerLaw(c=c, gamma=1.0, s0=1.0), PPower(2.0 + 2.0 / beta), 1.0, v0, 100.0,
                       rel_tol)
        )
        exact = scale * (1.0 - (traj.ts + 1.0) ** (-2.0 * beta - 2.0))
        assert float(np.max(np.abs(traj.dissipation - exact))) <= rel_tol * max(1.0, scale)


def _state_energy(pot, x, v):
    """|v|^2 / 2 + G(x) of one state, summed on its own."""
    kinetic = 0.5 * v[0] * v[0] if pot.n == 1 else 0.5 * float(v.dot(v))
    return kinetic + pot.energy(x)


def test_stored_energy_matches_state(j_run, well_run):
    # every stored sample's and event's energy has the bits of the state's
    # own sum; j_run starts singular, so its t = 0 row is put in before the
    # energies are taken
    plane = integrate(SystemSpec(
        schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=3),
        x0=[-0.0756, 0.587, -0.806], v0=[0.3, 0.0, -0.1], t_end=60.0, rel_tol=1e-8,
    ))
    assert j_run.ts[0] == 0.0 and len(plane.events) > 0
    for traj in (j_run, well_run, plane):
        pot = traj.spec.potential
        for states, energies in ((traj, traj.energies), (traj.events, traj.events.energy)):
            xs, vs = (states.xs, states.vs) if states is traj else (states.x, states.v)
            want = [_state_energy(pot, x, v) for x, v in zip(xs, vs)]
            assert np.array_equal(np.asarray(energies).view(np.int64),
                                  np.array(want, dtype=float).view(np.int64))


def test_coercive_bound_from_initial_energy(well_run):
    # G(x) <= E(0) forces |x| <= sqrt(1 + 2 sqrt(E0)) for the double well
    e0 = well_run.energies[0]
    bound = math.sqrt(1.0 + 2.0 * math.sqrt(e0))
    assert float(np.abs(well_run.xs).max()) <= bound + 1e-9


# ---------------------------------------------------------------------------
# accuracy and order


def test_matches_closed_form_solution(j_run):
    # the singular-damping linear run against the independent series /
    # special-function evaluation, on the solver's own samples
    worst = max(
        abs(float(x) - linear_regular_solution(1.0, float(t)))
        for t, x in zip(j_run.ts, j_run.xs[:, 0])
    )
    assert worst <= 1e-6


def test_dense_output_between_samples(j_run):
    rng = np.random.default_rng(7)
    tq = np.sort(rng.uniform(0.5, 49.5, size=200))
    xs = j_run.positions_at(tq)[:, 0]
    worst = max(abs(x - linear_regular_solution(1.0, float(t))) for t, x in zip(tq, xs))
    assert worst <= 1e-6
    # node queries reproduce stored samples exactly: the quintic is exact at theta = 0
    k = len(j_run.ts) // 2
    node = [j_run.ts[k]]
    assert j_run.positions_at(node)[0, 0] == j_run.xs[k, 0]
    assert j_run.velocities_at(node)[0, 0] == j_run.vs[k, 0]
    # velocity interpolation is consistent with a position difference
    t0 = 20.0
    d = 1e-4
    xm, xp = j_run.positions_at([t0 - d, t0 + d])[:, 0]
    v = j_run.velocities_at([t0])[0, 0]
    assert v == pytest.approx((xp - xm) / (2.0 * d), rel=1e-5, abs=1e-8)
    with pytest.raises(DomainError):
        j_run.positions_at([-1.0])
    with pytest.raises(DomainError):
        j_run.positions_at([50.0 + 1e-9])


def test_dense_output_refuses_nan_and_takes_no_times(j_run):
    # a NaN time is outside the run, whatever else is queried with it, and
    # no times give no rows
    for traj in (j_run, integrate(_SLANTED_EVENTS[0])):
        for evaluate in (traj.positions_at, traj.velocities_at):
            for times in ([math.nan], [1.0, math.nan]):
                with pytest.raises(DomainError, match="dense evaluation outside"):
                    evaluate(times)
            assert evaluate([]).shape == (0, traj.n)


def test_event_spacing_approaches_pi(j_run_long):
    # velocity sign changes of the oscillatory linear solution settle to
    # spacing pi (two per period)
    times = j_run_long.events.time[j_run_long.events.time > 50.0]
    assert len(times) >= 40
    gaps = np.diff(times)
    assert float(np.abs(gaps - math.pi).max()) <= 0.01 * math.pi


def test_events_carry_interpolated_states(j_run):
    events = j_run.events
    assert events, "oscillatory run must produce events"
    m = len(events)
    assert events.time.shape == events.energy.shape == (m,)
    assert events.x.shape == events.v.shape == (m, 1)
    assert float(np.abs(events.v[:10, 0]).max()) <= 1e-8
    assert np.all(np.diff(events.time) > 0.0)  # rows are in time order


@pytest.mark.parametrize("x0", [1.0, 0.0])  # 0.0: the stationary shortcut
def test_trajectory_is_read_only(x0):
    traj = integrate(SystemSpec(Constant(1.0), Quadratic(1), x0, 0.0, 5.0))
    events = traj.events
    assert len(events) == (1 if x0 else 0)
    for column in (traj.ts, traj.xs, traj.vs, traj.accs, traj.energies, traj.dissipation,
                   events.time, events.x, events.v, events.energy):
        with pytest.raises(ValueError):
            column[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.ts = traj.ts[:1]


def test_pickled_trajectory_is_the_same_and_read_only(j_run):
    # a worker process hands its trajectory back through pickle
    copy = pickle.loads(pickle.dumps(j_run))
    for table, columns in (
        (j_run, ("ts", "xs", "vs", "accs", "energies", "dissipation")),
        (j_run.events, ("time", "x", "v", "energy")),
    ):
        copied = copy if table is j_run else copy.events
        for name in columns:
            want, got = getattr(table, name), getattr(copied, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert not got.flags.writeable, name
    assert (copy.stats, copy.spec.t_end, copy.n) == (j_run.stats, j_run.spec.t_end, j_run.n)
    events = pickle.loads(pickle.dumps(j_run.events))
    assert len(events) == len(j_run.events) and not events.time.flags.writeable


def test_run_without_sign_changes_has_an_empty_table():
    # free motion with damping: v = exp(-t) never changes sign
    traj = integrate(
        SystemSpec(schedule=Constant(1.0), potential=CustomPotential(
            2, energy=lambda x: 0.0, grad=lambda x: np.zeros(2)),
            x0=[0.0, 0.0], v0=[1.0, -1.0], t_end=20.0)
    )
    events = traj.events
    assert traj.stats.accepted > 0 and not events and len(events) == 0
    assert events.time.shape == events.energy.shape == (0,)
    assert events.x.shape == events.v.shape == (0, 2)


# ---------------------------------------------------------------------------
# multi-dimensional runs


def test_plane_run_decouples_into_components():
    # for a separable quadratic the 2D integration must agree with two
    # independent 1D integrations of the same scalar equation
    sched = Constant(1.0)
    common = dict(t_end=12.0, rel_tol=1e-10, abs_tol=1e-13)
    plane = integrate(
        SystemSpec(
            schedule=sched, potential=Quadratic(2),
            x0=[1.0, 0.0], v0=[0.0, 1.0], **common,
        )
    )
    line_a = integrate(
        SystemSpec(schedule=sched, potential=Quadratic(1), x0=1.0, v0=0.0, **common)
    )
    line_b = integrate(
        SystemSpec(schedule=sched, potential=Quadratic(1), x0=0.0, v0=1.0, **common)
    )
    tq = np.linspace(0.5, 11.5, 60)
    got = plane.positions_at(tq)
    want = np.column_stack([line_a.positions_at(tq)[:, 0], line_b.positions_at(tq)[:, 0]])
    assert np.max(np.abs(got - want)) <= 1e-8


def _quartic_brackets(m, seed=7):
    """Event-like brackets [t, t + h] of w + h th (q1 + th (q2 + th (q3 + th q4))).

    Widths run from about EVENT_TIME_TOL / 2 to 30 and magnitudes from 1e-200
    (where f(a) f(b) underflows) to 1e5.  Each f(b) is set against the sign
    of f(a) = w, and four rows end on exact zeros: f(a) = 0 twice, f(b) = 0
    twice (th = 1 exactly there).
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(-5.0, 100.0, m)
    h = 10.0 ** rng.uniform(-10.3, 1.5, m)
    scale = 10.0 ** rng.uniform(-200.0, 5.0, m)
    w = rng.choice([-1.0, 1.0], m) * rng.uniform(0.01, 1.0, m) * scale
    q2, q3, q4 = (rng.normal(size=m) * scale for _ in range(3))
    fb = -np.sign(w) * rng.uniform(0.01, 1.0, m) * scale
    q1 = (fb - w) / h - (q2 + q3 + q4)
    exact = np.array([
        # t, h, w, q1, q2, q3, q4
        [1.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0],
        [2.0, 1e-10, 0.0, -3.0, 1.0, 0.5, 0.0],
        [0.5, 0.25, 1.0, -4.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, -3.0, 1.0, 0.5, 0.0, 0.0],
    ])
    return np.concatenate([np.stack([t, h, w, q1, q2, q3, q4]), exact.T], axis=1)


def _scalar_brentq(row, maxiter=_EVENT_MAXITER):
    # one event as the step loop used to refine it
    t, h, w, q1, q2, q3, q4 = (float(c) for c in row)

    def wq(tau):
        th = (tau - t) / h
        return w + h * (th * (q1 + th * (q2 + th * (q3 + th * q4))))

    return brentq(wq, t, t + h, xtol=EVENT_TIME_TOL, rtol=_EVENT_RTOL, maxiter=maxiter)


def _batch_brentq(rows, maxiter=_EVENT_MAXITER):
    t, h, w, q1, q2, q3, q4 = rows

    def wq(tau, i):
        th = (tau - t[i]) / h[i]
        return w[i] + h[i] * (th * (q1[i] + th * (q2[i] + th * (q3[i] + th * q4[i]))))

    return _brentq_batch(wq, t, t + h, EVENT_TIME_TOL, _EVENT_RTOL, maxiter)


def test_batched_brent_matches_scipy_bitwise():
    rows = _quartic_brackets(3000)
    got = _batch_brentq(rows)
    want = np.array([_scalar_brentq(row) for row in rows.T])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[-4:].tolist() == [1.0, 2.0, 0.75, 2.0]  # the exact zeros


def test_batched_brent_fails_where_scipy_fails():
    rows = _quartic_brackets(400)
    # too few iterations: the same roots, and the same RuntimeError
    for maxiter in (1, 3):
        for k in range(rows.shape[1]):
            try:
                want = _scalar_brentq(rows[:, k], maxiter)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as err:
                    _batch_brentq(rows[:, k:k + 1], maxiter)
                assert str(err.value) == str(exc)
            else:
                got = _batch_brentq(rows[:, k:k + 1], maxiter)[0]
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    same_sign = [1.0, 0.5, 1.0, 1.0, 0.0, 0.0, 0.0]  # f(a) = 1, f(b) = 1.5
    nan_at_b = [1.0, 0.5, 1.0, math.nan, 0.0, 0.0, 0.0]
    for bad in (same_sign, nan_at_b):
        with pytest.raises(ValueError) as want:
            _scalar_brentq(np.array(bad))
        with pytest.raises(ValueError) as got:
            _batch_brentq(np.insert(rows, 200, bad, axis=1))
        assert str(got.value) == str(want.value)
    # two failing brackets: the error of the first is raised
    with pytest.raises(ValueError, match="different signs"):
        _batch_brentq(np.insert(np.insert(rows, 300, nan_at_b, axis=1), 100, same_sign, axis=1))


# ---------------------------------------------------------------------------
# special starts and modes


def test_stationary_start_short_circuits():
    for x0 in (1.0, 0.0, -1.0):  # both wells and the unstable maximum
        traj = integrate(
            SystemSpec(
                schedule=PowerLaw(1.0), potential=DoubleWell(),
                x0=x0, v0=0.0, t_end=100.0,
            )
        )
        assert len(traj.ts) == 2
        assert traj.stats.accepted == 0
        assert not traj.events
        assert float(np.abs(traj.vs).max()) == 0.0
        assert traj.xs[-1, 0] == x0


def test_tiny_start_off_a_critical_point_takes_steps():
    # grad G(1e-200) = 1e-100 for PPower(1.5); a norm that squares the
    # point first underflows to 0 and took this start for a critical point
    traj = integrate(
        SystemSpec(schedule=PowerLaw(1.0), potential=PPower(1.5), x0=1e-200, v0=0.0, t_end=1.0)
    )
    assert traj.stats.accepted > 0
    assert traj.vs[-1, 0] != 0.0


def test_singular_start_bootstrap(j_run):
    # the t=0 row is exact initial data, the first computed row is the
    # quadratic Taylor step at the bootstrap offset
    assert j_run.ts[0] == 0.0
    assert j_run.xs[0, 0] == 1.0 and j_run.vs[0, 0] == 0.0
    assert j_run.ts[1] == BOOTSTRAP_H0
    g0 = 1.0  # gradient of the unit quadratic at x0 = 1
    assert j_run.xs[1, 0] == pytest.approx(1.0 - g0 * BOOTSTRAP_H0**2 / 4.0, rel=1e-15)
    assert j_run.vs[1, 0] == pytest.approx(-g0 * BOOTSTRAP_H0 / 2.0, rel=1e-15)


def test_singular_start_validation():
    with pytest.raises(DomainError):
        integrate(
            SystemSpec(
                schedule=PowerLaw(1.0, 1.0, 0.0), potential=Quadratic(1),
                x0=1.0, v0=0.5, t_end=1.0,
            )
        )
    with pytest.raises(UnsupportedError):
        integrate(
            SystemSpec(
                schedule=PowerLaw(1.0, 0.5, 0.0), potential=Quadratic(1),
                x0=1.0, v0=0.0, t_end=1.0,
            )
        )
    # a singular schedule the series start does not cover
    with pytest.raises(UnsupportedError):
        integrate(
            SystemSpec(
                schedule=CustomSchedule(lambda t: 1.0 / t, singular=True), potential=Quadratic(1),
                x0=1.0, v0=0.0, t_end=1.0,
            )
        )


def _trajectory_digest(traj, samples=True):
    # the dissipation has a digest of its own (_dissipation_digest), so a
    # change to its quadrature alone moves no sample or event digest
    h = hashlib.sha256()
    if samples:
        for a in (traj.ts, traj.xs, traj.vs, traj.accs, traj.energies):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    ev = traj.events
    rows = np.column_stack([ev.time, ev.x, ev.v, ev.energy])  # one event per row
    h.update(np.ascontiguousarray(rows, dtype="<f8").tobytes())
    return h.hexdigest()


def _dissipation_digest(traj):
    return hashlib.sha256(np.ascontiguousarray(traj.dissipation, dtype="<f8").tobytes()).hexdigest()


# SHA-256 of every stored array but the dissipation and of every event of
# the well_run fixture, and SHA-256 of its dissipation
_WELL_RUN_DIGEST = "bf7aa5defe72bacf7f2987d1572be06293d80638faf057b70502a16e61efce9f"
_WELL_RUN_DISSIPATION = "de54082f17d63a413f6fc74c4d560dd6ca838aceb024a5141eca0aa263dd52de"
# the well_run system to t=1e3: 1,611 steps, 449 events
_WELL_SHORT = SystemSpec(
    schedule=PowerLaw(1.0, 1.0, 1.0), potential=DoubleWell(), x0=0.37, v0=1.1,
    t_end=1.0e3, rel_tol=1e-6,
)
# a slanted orbit: the start lies off both axes, so v_1 is not 0 where v_0
# changes sign; its event count and the SHA-256 of its events
_SLANTED_EVENTS = (
    SystemSpec(
        schedule=Constant(0.05), potential=Quadratic(2), x0=[1.0, 0.3],
        v0=[0.0, 0.2], t_end=100.0,
    ),
    31,
    "8b2ec2f5a19e14ac5ce27bfd26b5e91e1e845b74f100e11e45c9c15c41cf37b5",
)


def test_scalar_output_is_pinned_bitwise(j_run, well_run):
    # SHA-256 of every stored array and event of two n=1 runs, with the
    # dissipation hashed apart: adaptive with events, singular start, and
    # the solver's counters.
    # A stepper change that moves any bit of n=1 output shows up here.
    assert (len(well_run.events), len(j_run.events)) == (4500, 15)
    assert _trajectory_digest(well_run) == _WELL_RUN_DIGEST
    assert _dissipation_digest(well_run) == _WELL_RUN_DISSIPATION
    assert well_run.stats.as_dict() == (
        {"accepted": 15612, "rejected": 2363, "rhs_evals": 215702, "stride": 1}
    )
    assert _trajectory_digest(j_run) == (
        "418f1ad9570fe854cd2ea0898e2b51002b5400575160dc47b5897fa59060f438"
    )
    assert _dissipation_digest(j_run) == (
        "2ecf99efdb69dd56662ce990c97eadf245c05b05904c3af9ee62a46ecd19783a"
    )
    assert j_run.stats.as_dict() == (
        {"accepted": 148, "rejected": 7, "rhs_evals": 1862, "stride": 1}
    )


def test_clipped_final_step_is_pinned_bitwise():
    # The last step is clipped to end on t_end, and here t + (t_end - t)
    # rounds to a float other than t_end.  Its final stage must take the
    # rate at t_end, not stage 12's rate at t + h: here the two give
    # different accelerations.  SHA-256 of every stored array (the
    # dissipation apart) and the counters.
    spec = dataclasses.replace(_WELL_SHORT, t_end=0.2204)
    traj = integrate(spec)
    t = float(traj.ts[-2])  # every step is stored: the clipped one starts here
    t_h = t + (spec.t_end - t)
    assert t_h != spec.t_end
    rate, grad = spec.schedule.rate_fn(), spec.potential.grad_fn()
    x, v = float(traj.xs[-1, 0]), float(traj.vs[-1, 0])
    assert traj.accs[-1, 0] == -rate(spec.t_end) * v - grad(x) != -rate(t_h) * v - grad(x)
    assert traj.stats.as_dict() == {"accepted": 2, "rejected": 0, "rhs_evals": 26, "stride": 1}
    assert _trajectory_digest(traj) == (
        "499497c181845bef99bb14bda7c2977c9c32b0cca35c490fa2ac5a9522c40f79"
    )
    assert _dissipation_digest(traj) == (
        "4de8f1281ea02b96e1de296f231a22db54bd1b8276ef4435cdd7538a1f897631"
    )


@pytest.mark.parametrize(
    "spec, count, digest",
    [
        # the n=3 PPower system of the CSV pins in test_cli
        (SystemSpec(
            schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=3),
            x0=[-0.07559280905748289, 0.5870771547907805, -0.805993884307791],
            v0=[0.0, 0.0, 0.0], t_end=200.0, rel_tol=1e-8,
        ), 14, "8b9356ac090138078a63d39a77b0eb84c68510b1a006241ad88e9740ef00b930"),
        _SLANTED_EVENTS,
    ],
    ids=["ppower_n3", "quadratic_n2_slanted"],
)
def test_array_events_are_pinned_bitwise(spec, count, digest):
    # SHA-256 of time, x, v and energy of every event of two n >= 2 runs,
    # refined on the quintic Hermite of each bracketing step
    traj = integrate(spec)
    assert len(traj.events) == count
    assert _trajectory_digest(traj, samples=False) == digest


@pytest.mark.parametrize(
    "spec, counts, digest, dissipation",
    [
        # crosses the kink of the flat floor: many rejected steps
        (SystemSpec(
            schedule=PowerLaw(1.0, 1.0, 1.0), potential=FlatBottom(2), x0=[2.5, -1.5],
            v0=[0.3, 0.9], t_end=60.0, rel_tol=1e-8,
        ), (211, 7, 154), "8c674c7a699cbf19aff9d7907f60f7638c34267a21dd9e9c0eff5b2a0e4d6188",
         "86cc29ee81eaf6aeb9c6d6ece0c7bfc39b3d4254a71cd3ece8697ecf8c34fa3d"),
        # singular start: the bootstrap and its t=0 row in three dimensions
        (SystemSpec(
            schedule=PowerLaw(1.0, 1.0, 0.0), potential=Quadratic(3), x0=[1.0, -0.5, 0.25],
            v0=[0.0, 0.0, 0.0], t_end=40.0, rel_tol=1e-9,
        ), (123, 12, 6), "957ee9da1aed9f5d4012e685ee8e5424f6180290cf03ff28e5dba5273ef13da8",
         "3cb7261dd14080f009b9c1bdb0190ce6a2a3b72c5a5f74f86a7790cb8088ccaa"),
    ],
    ids=["flatbottom_n2", "quadratic_n3_singular"],
)
def test_array_output_is_pinned_bitwise(spec, counts, digest, dissipation):
    # SHA-256 of every stored array and event of two n >= 2 runs, the
    # dissipation apart; a change to the array stepper that moves any bit
    # of its output shows up here
    traj = integrate(spec)
    assert (len(traj.ts), len(traj.events), traj.stats.rejected) == counts
    assert _trajectory_digest(traj) == digest
    assert _dissipation_digest(traj) == dissipation


def test_signed_zero_components_are_pinned_bitwise():
    # An n = 3 run whose second component starts at -0.0 in x and v and
    # whose third starts at +0.0: the radial gradient keeps both exactly 0
    # all along, and the stored states and accelerations hold -0.0 in
    # them, whose signs the SHA-256 (as above) covers.  The sums that set
    # those signs are checked term by term in
    # test_array_sums_are_left_folds_in_stage_order; on this run neither
    # a zero coefficient's term nor a reduce that starts from +0.0 moves
    # a bit, since a +0.0 base absorbs the sign of what is added to it.
    spec = SystemSpec(
        schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=3), x0=[0.6, -0.0, 0.0],
        v0=[-0.2, -0.0, 0.0], t_end=60.0, rel_tol=1e-8,
    )
    traj = integrate(spec)

    def negative_zeros(a):
        return np.count_nonzero((a == 0.0) & np.signbit(a), axis=0).tolist()

    assert not np.any(traj.xs[:, 1:]) and not np.any(traj.vs[:, 1:])
    assert (negative_zeros(traj.xs), negative_zeros(traj.vs)) == ([0, 1, 0], [0, 1, 0])
    assert negative_zeros(traj.accs) == [0, 51, 52]
    assert (len(traj.ts), len(traj.events), traj.stats.rejected) == (52, 3, 2)
    assert _trajectory_digest(traj) == (
        "10fb2657047da71ae60521e10c6e590a1292bed60e7863e2dae3ad7ef542e81e"
    )
    assert _dissipation_digest(traj) == (
        "fba73dd1f31915c7c568eb6f1429f7fe1dfb137cc3663a83cf06635a08ce344f"
    )


_integrate_module = importlib.import_module("vanishdamp.integrate")


@pytest.mark.parametrize(
    "spec, counts, stats, digest, dissipation",
    [
        (_WELL_SHORT, (52, 449, 32),
         {"accepted": 1611, "rejected": 324, "rhs_evals": 23222, "stride": 32},
         "d6c5174d11b575d62460d207a276f9a1036b0692ee0bc3fcd01ef7aa2be01544",
         "ddafc69d16464774330c64ae526cb2f35789cfe664f6f6649ddbfc460c9e49d9"),
        (_SLANTED_EVENTS[0], (68, 31, 4),
         {"accepted": 268, "rejected": 0, "rhs_evals": 3218, "stride": 4},
         "6145bef24789de7125b77befd3bde17380b2919dbd5ed89783abc4bdecb59ceb",
         "2d4821f30e5d033030297042909b2b78e4dd4b7c537952c56ee3258960ba5927"),
        (SystemSpec(schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=3),
                    x0=[0.6, -0.3, 0.2], v0=[-0.2, 0.1, 0.4], t_end=3000.0, rel_tol=1e-8),
         (53, 68, 16),
         {"accepted": 824, "rejected": 12, "rhs_evals": 10034, "stride": 16},
         "25cd016f2e24e6e6fa954be32f2c2ecffa03d0fd4342434495cb0083357c9126",
         "e1aabd74b43add97995584864baea13fd350d7343f2c92cb8b91738e4aa9382e"),
    ],
    ids=["doublewell_n1", "quadratic_n2_slanted", "ppower_n3"],
)
def test_stride_doubling_is_pinned_bitwise(spec, counts, stats, digest, dissipation,
                                          monkeypatch):
    # a small sample cap makes the runs thin their samples by automatic
    # stride doubling; SHA-256 of every stored array and event (the
    # dissipation apart), and the solver's counters
    cap = 100
    monkeypatch.setattr(_integrate_module, "MAX_STORED_SAMPLES", cap)
    traj = integrate(spec)
    assert traj.stats.stride > 1
    assert len(traj.ts) <= cap + 1
    assert (len(traj.ts), len(traj.events), traj.stats.stride) == counts
    assert traj.stats.as_dict() == stats
    assert _trajectory_digest(traj) == digest
    assert _dissipation_digest(traj) == dissipation


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("stored", [1, 2, 7, 8, 1001])
def test_thinning_keeps_exactly_the_even_rows(n, stored):
    # every column of a row (widths 1 and n) keeps rows 0, 2, 4, ... bit
    # for bit, signed zeros and NaN payloads included, and nothing else
    width = 3 * n + 2
    rows = np.random.default_rng(n).standard_normal((stored, width))
    rows[::3, 1] = -0.0
    rows.view(np.uint64)[1::5, -1] = 0x7FF8_0000_0000_0BAD  # a NaN with a payload
    out = _integrate_module._Output(n, rows[0])
    out.kept = [array("d", rows[:, field].tobytes()) for field in out.fields]
    out._thin()
    assert out.stride == 2
    assert [column.tobytes() for column in out.kept] == [
        np.ascontiguousarray(rows[::2, field]).tobytes() for field in out.fields]


def test_thinned_dense_output_matches_the_unthinned_run(monkeypatch):
    # A long double-well run (t = 1e5, rel_tol 1e-6, as the benchmark's
    # long run) thins its samples to stride 2.  The steps do not depend on
    # thinning, so an unthinned run stores every state the thinned one
    # stepped through; in the last decade the thinned dense output must
    # land within 1e-4 of them.  Measured: 1.3e-5 in x, 1.0e-5 in v; the
    # cubic Hermite on DP5's stride-8 samples was at 3.5e-4 and 8.9e-4.
    spec = SystemSpec(PowerLaw(1.0, 1.0, 1.0), DoubleWell(), 0.37, 1.9, 1.0e5, rel_tol=1e-6)
    thin = integrate(spec)
    monkeypatch.setattr(_integrate_module, "MAX_STORED_SAMPLES", 10**7)
    full = integrate(spec)
    assert thin.stats.stride > 1 and full.stats.stride == 1
    tail = full.ts >= 1.0e4
    t = full.ts[tail]
    assert np.max(np.abs(thin.positions_at(t) - full.xs[tail])) <= 1e-4
    assert np.max(np.abs(thin.velocities_at(t) - full.vs[tail])) <= 1e-4


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
def test_event_chunks_move_no_bit(chunk, well_run, monkeypatch):
    # events and samples are taken from chunks of EVENT_CHUNK recorded
    # steps during the step loop; where the chunks end must not change a
    # bit of any run
    if chunk is not None:
        monkeypatch.setattr(_integrate_module, "EVENT_CHUNK", chunk)
    traj = integrate(well_run.spec)
    assert _trajectory_digest(traj) == _WELL_RUN_DIGEST
    assert _dissipation_digest(traj) == _WELL_RUN_DISSIPATION
    spec, count, digest = _SLANTED_EVENTS
    traj = integrate(spec)
    assert len(traj.events) == count
    assert _trajectory_digest(traj, samples=False) == digest


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
@pytest.mark.parametrize(
    "spec, snap, exact, digest, dissipation",
    [
        (_WELL_SHORT, 3e-3, 65,
         "38d990cbbf1e90f3a7945fa25b3ff697ab43992d29dfaeef307e742bd04d5dfc",
         "1eea7a5efc359f17be400892207031a9bcbe907ea27d01a2226a2cd3728741ae"),
        (_SLANTED_EVENTS[0], 3e-3, 3,
         "569f520fa92ffce45ac8e86e7f3758caefb69946c7274d9e387d665b0f6e1bee",
         "0ba900c910c3c0bfa760ed7c6c04aa9a5b50ffe41db4ffb30325b842c207f667"),
    ],
    ids=["doublewell_n1", "quadratic_n2_slanted"],
)
def test_exact_zero_events_keep_their_place(spec, snap, exact, digest, dissipation, chunk,
                                            monkeypatch):
    # a first velocity component below ``snap`` reads as an exact zero to
    # the step loop, so many steps end on one: those events are the step's
    # own state, recorded between crossings refined in chunks (on the
    # unsnapped component), and every chunking gives the same digests.
    turns = _integrate_module._turns

    def snapped(w, up):
        return turns(np.where(np.abs(w) < snap, 0.0, w), up)

    monkeypatch.setattr(_integrate_module, "_turns", snapped)
    if chunk is not None:
        monkeypatch.setattr(_integrate_module, "EVENT_CHUNK", chunk)
    traj = integrate(spec)
    ev = traj.events
    # a refined crossing has v_0 of about 0; an exact zero's step more
    assert int(np.sum(np.abs(ev.v[:, 0]) > 1e-9)) == exact
    assert np.all(np.diff(ev.time) > 0)
    assert _trajectory_digest(traj) == digest
    assert _dissipation_digest(traj) == dissipation


def test_tableau_is_scipys_dop853():
    # the literals are the floats of scipy's DOP853 coefficients, bit for
    # bit; A holds each row below the diagonal, and E5, E3 leave out the
    # weight of the new state's rate, which is 0
    from scipy.integrate._ivp import dop853_coefficients as ref

    stages = ref.N_STAGES
    assert len(_integrate_module._A) == stages
    assert list(_integrate_module._C) == ref.C[:stages].tolist()
    for i, row in enumerate(_integrate_module._A):
        assert list(row) == ref.A[i, :i].tolist(), i
        assert not ref.A[i, i:stages].any()
    assert list(_integrate_module._B) == ref.B.tolist()
    assert list(_integrate_module._E5) + [0.0] == ref.E5.tolist()
    assert list(_integrate_module._E3) + [0.0] == ref.E3.tolist()


def _calls_per_attempt(calls_from, loop, spec):
    # The calls made from the stepper ``loop``'s own frame per attempted
    # step: the attempts of ``spec``'s run and the calls per attempt.
    traj, calls = calls_from(loop, lambda: integrate(spec))
    attempts = traj.stats.accepted + traj.stats.rejected
    return attempts, calls / attempts


def test_step_loop_call_count_is_bounded(calls_from):
    # Guards the step loop's interpreter overhead without timing anything,
    # so it cannot flake on a busy or shared host: the Python and C calls
    # made from _run's own frame, per attempted step, are deterministic.
    # The bound is what the loop reached with twelve stages an attempt
    # (37.70 here; DP5's six-stage loop made 25.18, 29.67 when the
    # dissipation took three more rates on the interpolant and the error
    # norm called abs, 37.17 when the step-size clamps still called min and
    # max).  36.63 since the start and the output are helpers, shared with
    # the n >= 2 stepper, whose calls _run's frame no longer makes; 30.00
    # since an accepted step makes one call to record itself, for the
    # event component and the five sample appends it made, and the error
    # norm and the dissipation call no float() or local maximum.
    attempts, calls = _calls_per_attempt(calls_from, _integrate_module._run, _WELL_SHORT)
    assert attempts == 1935
    assert calls <= 30.1


def test_array_step_call_count_is_bounded(calls_from):
    # The same guard for the n >= 2 stepper, on the n = 3 run of the
    # ppower_n3 pin: a reduce and a take, the rate and the gradient per
    # stage, and the error norm, dissipation and the step's record once an
    # attempt.  The bound is what _run_array reached (56.72 here; 56.74
    # since it records a packed row, whose set-up adds four calls a run;
    # 62.40 while it took the event component and appended each sample's
    # five values itself).  The hook counts calls, not array operators: the
    # array stepper this one replaced, which ran _run's unrolled sums on
    # (n,) arrays with about 300 operators an attempt, made 39.86 calls an
    # attempt on this run.
    spec = SystemSpec(
        schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=3),
        x0=[-0.07559280905748289, 0.5870771547907805, -0.805993884307791],
        v0=[0.0, 0.0, 0.0], t_end=200.0, rel_tol=1e-8,
    )
    attempts, calls = _calls_per_attempt(calls_from, _integrate_module._run_array, spec)
    assert attempts == 208
    assert calls <= 56.8


@pytest.mark.parametrize("n", [2, 3, 64, 256])
def test_array_sums_are_left_folds_in_stage_order(n):
    # Each sum over the stages of the n >= 2 stepper is one np.add.reduce
    # of weighted rows of the stage buffer.  It must equal, bit for bit,
    # the left fold of the nonzero coefficients' terms in stage order that
    # the n = 1 stepper's unrolled sums compute, on stage data holding
    # +0.0 and -0.0: a zero coefficient's term, or a reduce in another
    # order, moves such bits.  The two component sums of the error norm
    # must equal the 1-D reduce of each row.
    from vanishdamp.integrate import _A, _B, _C, _E3, _E5, _STAGES, _SUMMED, _WEIGHTS

    rng = np.random.default_rng(n)
    k = rng.standard_normal((12, 2 * n)) * 10.0 ** rng.integers(-3, 4, (12, 2 * n))
    zeros = rng.random(k.shape) < 0.4
    k[zeros] = np.where(rng.random(k.shape) < 0.5, 0.0, -0.0)[zeros]
    assert np.any(np.signbit(k) & (k == 0.0)) and np.any(~np.signbit(k) & (k == 0.0))

    def fold(weights, rows):
        # the nonzero coefficients' terms added left to right
        return functools.reduce(operator.add, (w * rows[j] for j, w in enumerate(weights) if w))

    def same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

    for i, (c, reads, a) in enumerate(_STAGES, 1):
        assert c == _C[i]
        got = np.add.reduce(np.repeat(a, 2 * n, axis=-1) * k.take(reads, -2), -2, initial=-0.0)
        assert same_bits(got, fold(_A[i], k)), i
    assert np.flatnonzero(_E5).tolist() == np.flatnonzero(_E3).tolist() == _SUMMED.tolist()
    summed = k.take(_SUMMED, -2)
    got = np.add.reduce(np.repeat(_WEIGHTS, 2 * n, axis=-1) * summed, -2, initial=-0.0)
    for row, weights in zip(got, (_B, _E5, _E3)):
        assert same_bits(row, fold(weights, k))
    # the dissipation's terms are (q_i a(t_i)) v_i v_i, in that order
    rates = rng.random(12)
    kx = summed[:, :n]
    qr = (_WEIGHTS[0, :, 0] * rates.take(_SUMMED))[:, None]
    got = np.add.reduce(qr * kx * kx, -2, initial=-0.0)
    want = functools.reduce(operator.add, (q * r * v * v for q, r, v in zip(_B, rates, k) if q))
    assert same_bits(got, want[:n])
    squares = rng.standard_normal((2, 2 * n)) ** 2
    got = np.add.reduce(squares[:, :n] + squares[:, n:], -1)
    want = np.array([np.add.reduce(row[:n] + row[n:]) for row in squares])
    assert same_bits(got, want)


def test_refinement_errors_yield_to_loop_errors(monkeypatch):
    # a chunk whose refinement fails during the loop is raised after the
    # loop, so an error of the loop itself still comes first
    calls = []

    def failing(*args):
        calls.append(len(calls))
        raise ValueError(f"refinement {len(calls)} failed")

    monkeypatch.setattr(_integrate_module, "_brentq_batch", failing)
    monkeypatch.setattr(_integrate_module, "EVENT_CHUNK", 2)
    with pytest.raises(MaxStepsExceeded):
        integrate(dataclasses.replace(_WELL_SHORT, max_steps=1000))
    assert calls == [0]  # the first chunk failed; no later one was refined
    calls.clear()
    with pytest.raises(ValueError, match="refinement 1 failed"):
        integrate(_WELL_SHORT)
    assert calls == [0]


def test_event_refinement_runs_in_bounded_slices(monkeypatch):
    # An undamped oscillator at a loose tolerance brackets a crossing every
    # 1.5 steps or so, so its one chunk holds more than _REFINE_SLICE
    # brackets.  They are refined in slices of at most _REFINE_SLICE, which
    # bounds the refinement's temporaries, and the slices move no bit: the
    # run that refines them all at once writes the same trajectory.
    spec = SystemSpec(Constant(0.0), Quadratic(1), 1.0, 0.0, 2.0e4, rel_tol=1e-3)
    batches = []
    brent = _integrate_module._brentq_batch

    def recording(f, xa, *args):
        batches.append(len(xa))
        return brent(f, xa, *args)

    monkeypatch.setattr(_integrate_module, "_brentq_batch", recording)
    sliced = integrate(spec)
    limit = _integrate_module._REFINE_SLICE
    assert sliced.stats.accepted < _integrate_module.EVENT_CHUNK  # one chunk
    assert sum(batches) == len(sliced.events) > limit
    assert max(batches) == limit
    batches.clear()
    monkeypatch.setattr(_integrate_module, "_REFINE_SLICE", _integrate_module.EVENT_CHUNK + 1)
    whole = integrate(spec)
    assert batches == [len(whole.events)]
    assert _trajectory_digest(sliced) == _trajectory_digest(whole)
    assert _dissipation_digest(sliced) == _dissipation_digest(whole)


def _step_by_step(ws, cap):
    """The event and thinning rules applied one step at a time, as a step
    loop would, to steps ending at t = 1, ..., N on the first velocity
    components ws[1:] (ws[0]: the start's).  Returns the events in time
    order (a step k that brackets a crossing as k - 0.5, a step j whose
    exact zero is the event as j), the stored steps and the stride."""
    events = []
    last_sign = 0.0 if ws[0] == 0.0 else math.copysign(1.0, ws[0])
    pending_zero = None
    stored, stride, since = [0], 1, 0
    end = len(ws) - 1
    for k in range(1, end + 1):
        if ws[k] != 0.0:
            sign = 1.0 if ws[k] > 0.0 else -1.0
            if last_sign != 0.0 and sign != last_sign:
                events.append(k - 0.5 if pending_zero is None else pending_zero)
            last_sign, pending_zero = sign, None
        else:
            pending_zero = k
        since += 1
        if since >= stride or k == end:
            stored.append(k)
            since = 0
            if len(stored) > cap:
                stored, stride = stored[::2], 2 * stride
    if stored[-1] != end:
        stored.append(end)
    return events, stored, stride


def _random_components(rng, steps, start_at_rest):
    # runs of exact zeros (some crossed, some grazed) between runs of one
    # sign; +0.0 and -0.0 both
    ws = [0.0 if start_at_rest else 1.0]
    while len(ws) <= steps:
        ws += [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))] * int(rng.integers(1, 6))
        if rng.random() < 0.4:
            ws += [float(rng.choice([0.0, -0.0]))] * int(rng.integers(1, 4))
    return ws[:steps + 1]


@pytest.mark.parametrize("cap", [5, 6, 33])
@pytest.mark.parametrize("chunk", [1, 2, 7, None], ids=["chunk1", "chunk2", "chunk7", "default"])
def test_output_pass_matches_the_step_by_step_rules(chunk, cap, monkeypatch):
    # The output takes events and stored samples from a chunk of recorded
    # steps at once; it must give what the rules give one step at a time
    # (_step_by_step): the same steps bracketing crossings, the same
    # zero-ending steps as events, all in order, and the same stored steps
    # and stride.  Step k records the packed row t = k, x = 1000 + k,
    # v_0 = ws[k], x'' = 2000 + k and the dissipation 3000 + k (for n >= 2
    # component j > 0 of x, v and x'' is -j - k, j + 0.5 + k and 7j + k); a
    # stand-in refinement checks that it gets the two ends of each bracket
    # and returns the midpoint time and the bracket's first state.  Each
    # sample and event column holds its field of every stored step's or
    # event's row, the n components side by side.  The runs end after
    # every step count to 48, so that the last step lands on each place of
    # a chunk and of the thinning (the store of the last step thins the
    # samples and drops it), and after 196 steps, a chunk edge for chunks
    # 1, 2 and 7.
    if chunk is not None:
        monkeypatch.setattr(_integrate_module, "EVENT_CHUNK", chunk)
    monkeypatch.setattr(_integrate_module, "MAX_STORED_SAMPLES", cap)

    def refine(t, t_new, x0, v0, a0, x1, v1, a1):
        assert np.array_equal(t_new, t + 1.0)
        for x, a, tt in ((x0, a0, t), (x1, a1, t_new)):
            assert np.array_equal(x[:, 0], 1000.0 + tt) and np.array_equal(a[:, 0], 2000.0 + tt)
        assert np.all(v0[:, 0] * v1[:, 0] < 0.0)
        return 0.5 * (t + t_new), x0, v0

    monkeypatch.setattr(_integrate_module, "_refine_brackets", refine)
    rng = np.random.default_rng(cap)
    seen = set()
    for n, start_at_rest in ((1, False), (1, True), (2, False), (2, True), (3, False)):
        all_ws = _random_components(rng, 197, start_at_rest)
        for steps in [*range(1, 49), 196, 197]:
            ws = all_ws[:steps + 1]

            def fields(k):
                js = range(1, n)
                return ([float(k)], [1000.0 + k, *(-j - k for j in js)],
                        [ws[k], *(j + 0.5 + k for j in js)],
                        [2000.0 + k, *(7.0 * j + k for j in js)], [3000.0 + k])

            def row(k):
                return [value for field in fields(k) for value in field]

            def column(f, ks):
                return [value for k in ks for value in fields(k)[f]]

            out = _integrate_module._Output(n, row(0))
            for k in range(1, steps + 1):
                out.records.extend(row(k))
                if k % _integrate_module.EVENT_CHUNK == 0:
                    out.take()
            samples, evs, stats = out.finish(steps, 0)
            events, stored, stride = _step_by_step(ws, cap)
            assert evs[0].tolist() == events
            # a crossing at k - 1/2 takes step k - 1's state, a zero step k's
            at = [math.floor(e) for e in events]
            assert [list(c) for c in evs[1:]] == [column(f, at) for f in (1, 2)]
            assert [list(c) for c in samples] == [column(f, stored) for f in range(5)]
            assert stats.stride == stride
            seen |= {e % 1 == 0 for e in events}  # exact zeros and crossings both
            seen |= {"graze" for j in range(1, steps) if ws[j] == 0.0 and ws[j + 1] != 0.0
                     and ws[j - 1] != 0.0 and (ws[j - 1] > 0.0) == (ws[j + 1] > 0.0)}
    assert seen == {True, False, "graze"}


def _held_beyond_returned(spec, chunk, cap, monkeypatch):
    # The run of ``spec`` at EVENT_CHUNK ``chunk`` and MAX_STORED_SAMPLES
    # ``cap`` (after one short run for the lazy set-up), and its traced
    # peak less the bytes of the arrays it returns.
    monkeypatch.setattr(_integrate_module, "EVENT_CHUNK", chunk)
    monkeypatch.setattr(_integrate_module, "MAX_STORED_SAMPLES", cap)
    integrate(dataclasses.replace(spec, t_end=50.0))
    tracemalloc.start()
    try:
        traj = integrate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(
        a.nbytes
        for a in (traj.ts, traj.xs, traj.vs, traj.accs, traj.energies, traj.dissipation,
                  traj.events.time, traj.events.x, traj.events.v, traj.events.energy)
    )
    return traj, peak - returned


def test_run_memory_is_bounded_by_chunk_and_sample_cap(monkeypatch):
    # Beyond the arrays it returns, a run holds at most one chunk of
    # recorded steps, 128 bytes a step: 40 for the step's five packed
    # floats and the rest for the pass over them, about 10 a step for the
    # event scan and 300 for each bracket it refines (this run brackets
    # one step in four).  It holds MAX_STORED_SAMPLES stored samples, five
    # packed columns of 40 bytes a sample; refined events and kept samples
    # are the returned arrays themselves.  Taking all 351 steps in one
    # pass (52 KB measured), or boxed floats for the samples, exceeds the
    # bound; the chunks of 64 took 23 KB.
    chunk, cap = 64, 256
    spec = dataclasses.replace(_WELL_SHORT, t_end=200.0)
    traj, held = _held_beyond_returned(spec, chunk, cap, monkeypatch)
    assert len(traj.events) == 89 and traj.stats.stride > 1
    assert traj.stats.accepted == 351
    assert held <= 16 * 1024 + 128 * chunk + 64 * cap


def test_array_run_memory_is_bounded_by_chunk_and_sample_cap(monkeypatch):
    # The n = 3 counterpart: both steppers record a step as one row of
    # 3n + 2 packed floats, and the output keeps samples and events in one
    # packed column per field of that row, which the returned (m, n)
    # arrays view, so the bound is set from that layout, (3n + 2) * 8 =
    # 88 bytes, twice over per recorded step (the row and the pass over
    # it) and per stored sample (the columns and their growth), with the
    # slack of the n = 1 test.  Kept as lists of a float and three (n,)
    # arrays a step and a sample, a few hundred bytes each, the run
    # exceeds it.
    chunk, cap, n = 64, 256, 3
    bound = 16 * 1024 + 2 * (3 * n + 2) * 8 * (chunk + cap)
    spec = SystemSpec(
        schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=n),
        x0=[-0.07559280905748289, 0.5870771547907805, -0.805993884307791],
        v0=[0.0] * n, t_end=2000.0, rel_tol=1e-8,
    )
    traj, held = _held_beyond_returned(spec, chunk, cap, monkeypatch)
    assert len(traj.events) == 67 and traj.stats.stride > 1
    assert traj.stats.accepted == 886
    assert held <= bound


@pytest.mark.parametrize("spec", [
    dataclasses.replace(_WELL_SHORT, t_end=50.0),
    _SLANTED_EVENTS[0],
    SystemSpec(
        schedule=PowerLaw(1.0, 1.0, 0.0), potential=Quadratic(3), x0=[1.0, -0.5, 0.25],
        v0=[0.0] * 3, t_end=40.0,
    ),
], ids=["n1", "n2", "n3_singular"])
def test_returned_states_are_views_of_the_packed_columns(spec):
    # Every returned sample and event array is a view of the output's
    # packed column of its field, whatever n is, and the t = 0 row of the
    # singular start is inserted into those columns: none is copied.
    traj = integrate(spec)
    n = spec.potential.n
    assert len(traj.events) > 0 and traj.ts[0] == 0.0
    for a in (traj.xs, traj.vs, traj.accs, traj.events.x, traj.events.v):
        assert a.shape[1:] == (n,) and a.flags.c_contiguous
        assert not a.flags.owndata
    for a in (traj.ts, traj.dissipation, traj.events.time):
        assert not a.flags.owndata


@pytest.mark.parametrize("n", [2, 3])
def test_array_finite_flags_every_component(n):
    # The n >= 2 stepper's finiteness test reads every component of its
    # row.  On an undamped oscillator along axis k whose gradient turns
    # inf, -inf or NaN in that component alone past x_k = 0.5, the steps
    # shrink toward the wall until the step cannot shrink, with a
    # non-finite state: NonFiniteState.  A test that missed component k
    # would take those attempts as finite, rejected on their NaN error
    # norm, and end in StepUnderflow instead.
    for k in range(n):
        for bad in (math.inf, -math.inf, math.nan):
            def grad(p, k=k, bad=bad):
                g = p.copy()
                if p[k] > 0.5:
                    g[k] = bad
                return g

            pot = CustomPotential(n, energy=lambda p: 0.5 * float(p @ p), grad=grad)
            spec = SystemSpec(Constant(0.0), pot, np.zeros(n), np.eye(n)[k], t_end=10.0)
            with pytest.raises(NonFiniteState, match="step cannot shrink"):
                integrate(spec)


@pytest.mark.parametrize(
    "pot", [Quadratic(2), PPower(4.0, n=3), FlatBottom(2), Zero(3)],
    ids=lambda p: type(p).__name__,
)
def test_array_loops_do_not_call_the_validated_methods(pot, monkeypatch):
    # the n >= 2 stepper and recursion evaluate through the unchecked
    # closures; the validated grad and energy may run a fixed number of
    # times per call (start-up checks), never once per step
    calls = []
    for name in ("grad", "energy"):
        def spy(self, x, method=getattr(type(pot), name)):
            calls.append(method)
            return method(self, x)

        monkeypatch.setattr(type(pot), name, spy)
    start = np.linspace(1.5, -0.5, pot.n)

    def counted(run):
        calls.clear()
        steps = run()
        return len(calls), steps

    def solve(t_end):
        spec = SystemSpec(schedule=PowerLaw(1.0, 1.0, 1.0), potential=pot, x0=start,
                          v0=np.full(pot.n, 0.5), t_end=t_end)
        return integrate(spec).stats.accepted

    def recurse(n_steps):
        return run_recursion(pot, StepSchedule(1e-2), NoiseModel(0.1, seed=1),
                             start, n_steps).n_steps

    for run, sizes in ((solve, (2.0, 20.0)), (recurse, (50, 500))):
        (short_calls, short_steps), (long_calls, long_steps) = (
            counted(lambda size=size: run(size)) for size in sizes
        )
        assert long_steps > 2 * short_steps
        assert long_calls == short_calls <= 2


@pytest.mark.parametrize("n", [1, 2])
def test_rhs_evals_count(n):
    # one evaluation at the start, one more for the first-step estimate,
    # twelve per attempted step (the thirteenth, at the new state, is the
    # next step's first).  The quartic well, since the eighth-order pair
    # rejects no step on a quadratic one here.
    base = dict(
        schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4.0, n=n),
        x0=[1.0] * n, v0=[0.5] * n, t_end=20.0,
    )
    stats = integrate(SystemSpec(rel_tol=1e-8, **base)).stats
    assert stats.rejected > 0
    assert stats.rhs_evals == 2 + 12 * (stats.accepted + stats.rejected)


def test_reruns_are_bitwise_identical(j_run):
    again = integrate(j_run.spec)
    assert np.array_equal(again.ts, j_run.ts)
    assert np.array_equal(again.xs, j_run.xs)
    assert np.array_equal(again.vs, j_run.vs)
    assert np.array_equal(again.events.time, j_run.events.time)


# ---------------------------------------------------------------------------
# failure modes


@pytest.mark.parametrize("n", [1, 2])
def test_max_steps_exceeded(n):
    with pytest.raises(MaxStepsExceeded):
        integrate(
            SystemSpec(
                schedule=Constant(0.1), potential=Quadratic(n),
                x0=[1.0] * n, v0=[0.0] * n, t_end=1000.0, max_steps=10,
            )
        )


def _inverted_parabola(n):
    if n == 1:
        return Polynomial1D([0.0, 0.0, -1.0])
    return CustomPotential(n, energy=lambda p: -float(p @ p), grad=lambda p: -2.0 * p)


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_state_detected(n):
    # inverted parabola: x grows like e^{sqrt(2) t} and overflows
    with pytest.raises(NonFiniteState):
        integrate(
            SystemSpec(
                schedule=Constant(0.0), potential=_inverted_parabola(n),
                x0=[1.0] + [0.0] * (n - 1), v0=[0.0] * n, t_end=1000.0,
            )
        )


@pytest.mark.parametrize("n", [1, 2])
def test_stage_overflow_is_rejected_and_retried(n):
    # |x|^119 overflows a float beyond |x| ~ 390: coasting on the flat
    # middle grows the step until a trial stage lands far past the steep
    # wall.  The gradient raises OverflowError there (|x| is a float for
    # n = 2 too); the stepper must treat it like an infinite stage,
    # shrink the step and go on.
    traj = integrate(
        SystemSpec(
            schedule=Constant(0.05), potential=PPower(120.0, n=n),
            x0=[0.0] * n, v0=[1.0] + [0.0] * (n - 1), t_end=5000.0,
        )
    )
    assert traj.stats.rejected > 0
    assert traj.ts[-1] == 5000.0
    assert float(np.abs(traj.xs).max()) <= 1.1
    e0 = traj.energies[0]
    assert float(np.abs(e0 - traj.dissipation - traj.energies).max()) <= 1e-6


def test_spec_validation():
    ok = dict(schedule=Constant(1.0), potential=Quadratic(1), x0=1.0, v0=0.0, t_end=1.0)
    with pytest.raises(DomainError):
        integrate(SystemSpec(**{**ok, "x0": [1.0, 2.0]}))
    with pytest.raises(DomainError):
        integrate(SystemSpec(**{**ok, "x0": math.nan}))
    with pytest.raises(DomainError):
        integrate(SystemSpec(**{**ok, "t_end": 0.0}))
    with pytest.raises(DomainError):
        integrate(SystemSpec(**{**ok, "rel_tol": -1e-9}))
    with pytest.raises(DomainError):
        integrate(SystemSpec(**{**ok, "max_steps": 0}))
    # the bounds the config enforces: an infinite tolerance accepted every
    # step, an infinite t_end ended in StepUnderflow, a fractional budget ran
    for key, value, message in (
        ("rel_tol", math.inf, "tolerances must be positive and finite"),
        ("abs_tol", math.inf, "tolerances must be positive and finite"),
        ("rel_tol", math.nan, "tolerances must be positive and finite"),
        ("t_end", math.inf, "t_end must be positive and finite, got inf"),
        ("t_end", math.nan, "t_end must be positive and finite, got nan"),
        ("max_steps", 2.5, "max_steps must be an integer >= 1, got 2.5"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            integrate(SystemSpec(**{**ok, key: value}))


def test_custom_potential_integrates():
    # callback-defined potential runs through the generic gradient path
    pot = CustomPotential(
        n=1,
        energy=lambda p: 0.5 * float(p @ p),
        grad=lambda p: p,
        coercive=True,
        min_value=0.0,
    )
    traj = integrate(
        SystemSpec(schedule=Constant(1.0), potential=pot, x0=1.0, v0=0.0, t_end=5.0)
    )
    ref = integrate(
        SystemSpec(schedule=Constant(1.0), potential=Quadratic(1), x0=1.0, v0=0.0, t_end=5.0)
    )
    assert traj.xs[-1, 0] == pytest.approx(ref.xs[-1, 0], rel=1e-8)
