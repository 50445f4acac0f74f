"""Analysis invariants.

Rate fits on synthetic series with known exponents, energy-bound
residuals against closed forms, occupation density on a hand-built step
trajectory, and the limit-classification verdict table on the shared
fixture runs.
"""

import contextlib
import math
import signal
import tracemalloc

import numpy as np
import pytest

from vanishdamp import (
    Constant,
    CustomSchedule,
    DomainError,
    DoubleWell,
    Events,
    HypothesisError,
    PowerLaw,
    PPower,
    Quadratic,
    SolverStats,
    SystemSpec,
    Trajectory,
    UnsupportedError,
    Zero,
    cesaro_mean,
    check_base_inequality,
    check_strong_convexity_window,
    classify_limit,
    energy_gap_series,
    integrate,
    lower_bound_residual,
    occupation_density,
    omega_limit_extent,
    rate_fit,
    sign_change_gaps,
    slow_log_example,
    upper_bound_check,
)
from vanishdamp import analyze as analyze_module
from vanishdamp.analyze import DENSITY_STEP, _Column, _extent_window, _tail_velocity_max


@pytest.fixture(scope="module")
def decay_run():
    return integrate(
        SystemSpec(
            schedule=PowerLaw(1.0, 1.0, 1.0), potential=Quadratic(1),
            x0=1.0, v0=0.0, t_end=1.0e3, rel_tol=1e-9,
        )
    )


@pytest.fixture(scope="module")
def slow_run():
    return integrate(
        SystemSpec(
            schedule=PowerLaw(1.0, 0.5, 1.0), potential=Quadratic(1),
            x0=1.0, v0=0.0, t_end=300.0, rel_tol=1e-9,
        )
    )


@pytest.fixture(scope="module")
def free_run():
    # zero potential: the energy gap is exactly (v0^2/2) e^{-2 int a}
    return integrate(
        SystemSpec(
            schedule=Constant(1.0), potential=Zero(1),
            x0=0.3, v0=1.0, t_end=10.0, rel_tol=1e-10, abs_tol=1e-13,
        )
    )


def _step_trajectory():
    """Hand-built trajectory: x = 1 until t = 1, then exactly 0."""
    spec = SystemSpec(
        schedule=Constant(1.0), potential=Quadratic(1), x0=1.0, v0=0.0, t_end=100.0
    )
    ts = np.array([0.0, 1.0, 1.0 + 1e-6, 100.0])
    xs = np.array([[1.0], [1.0], [0.0], [0.0]])
    vs = np.zeros((4, 1))
    accs = np.zeros((4, 1))
    energies = np.zeros(4)
    dissipation = np.zeros(4)
    return Trajectory(ts, xs, vs, accs, energies, dissipation, [], SolverStats(), spec, 1)


# ---------------------------------------------------------------------------
# rate fits


def test_rate_fit_recovers_power_law_exponent():
    ts = np.geomspace(1.0, 1.0e3, 200)
    vals = 3.7 * ts**-2.5
    fit = rate_fit(ts, vals, (10.0, 900.0))
    assert fit.model == "PowerLaw"
    assert fit.exponent == pytest.approx(-2.5, abs=1e-6)
    assert fit.residual_rms <= 1e-10
    assert fit.samples >= 30


def test_rate_fit_in_integral_clock():
    ts = np.linspace(1.0, 100.0, 400)
    vals = 5.0 * np.exp(-0.9 * ts)
    fit = rate_fit(ts, vals, (2.0, 95.0), model="ExponentialInIntegralOfA",
                   schedule=Constant(0.3))
    # ln v = -0.9 t and the clock is -0.3 t, so the slope is 3
    assert fit.exponent == pytest.approx(3.0, abs=1e-10)


def _rate_fit_holding_its_window(ts, values, window, model, schedule):
    """rate_fit as written before it freed the window's copies ahead of
    the fit, kept as the reference for its bits."""
    t0, t1 = window
    mask = (ts >= t0) & (ts <= t1)
    tw = ts[mask]
    vw = values[mask]
    xs = np.log(tw) if model == "PowerLaw" else -schedule.integral_a_to(tw)
    ys = np.log(vw)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return (float(slope), float(np.sqrt(np.mean(resid**2))), int(len(tw)))


@pytest.mark.parametrize("t_end", [1.0e3, 1.0e5], ids=["well_sweep", "long_run"])
def test_rate_fit_gives_the_bits_of_the_fit_that_held_its_window(t_end):
    # the double well under 1/(t+1) to a sweep row's horizon and to the
    # long run's, fitted as the run summary fits them: |x|^2 + |v|^2 on
    # the last two decades
    schedule = PowerLaw(1.0, 1.0, 1.0)
    traj = integrate(SystemSpec(schedule=schedule, potential=DoubleWell(),
                                x0=1.3, v0=-0.7, t_end=t_end, rel_tol=1e-6))
    phase = np.sum(traj.xs**2, axis=1) + np.sum(traj.vs**2, axis=1)
    window = (t_end / 100.0, t_end)
    for model in ("PowerLaw", "ExponentialInIntegralOfA"):
        fit = rate_fit(traj.ts, phase, window, model=model, schedule=schedule)
        want = _rate_fit_holding_its_window(traj.ts, phase, window, model, schedule)
        assert (fit.exponent, fit.residual_rms, fit.samples) == want
        assert fit.window == window and fit.model == model
    if t_end == 1.0e5:
        assert fit.samples > 50_000


def test_rate_fit_validation():
    ts = np.geomspace(1.0, 100.0, 100)
    vals = ts**-1.0
    with pytest.raises(DomainError):
        rate_fit(ts, vals, (0.1, 50.0))  # window leaves the span
    with pytest.raises(DomainError):
        rate_fit(ts, vals, (90.0, 100.0))  # too few samples
    with pytest.raises(DomainError):
        rate_fit(ts, vals - 1.0, (1.0, 100.0))  # nonpositive values
    with pytest.raises(DomainError):
        rate_fit(ts, vals, (1.0, 100.0), model="Spline")
    with pytest.raises(DomainError):
        rate_fit(ts, vals, (1.0, 100.0), model="ExponentialInIntegralOfA")
    with pytest.raises(DomainError):
        # int_0^t a diverges for the singular schedule: model unusable
        rate_fit(ts, vals, (1.0, 100.0), model="ExponentialInIntegralOfA",
                 schedule=PowerLaw(1.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# energy bounds


def test_gap_series_shares_no_storage(decay_run):
    ts, gap = energy_gap_series(decay_run)
    assert gap[0] == pytest.approx(0.5, rel=1e-12)  # E(0) = G(1) = 1/2
    ts[0] = -1.0
    assert decay_run.ts[0] == 0.0


def test_gap_envelope_on_decay_run(decay_run):
    # with a = 1/(t+1) the gap decays like K/t: the product t * gap must
    # stay bounded once the oscillation is established
    ts, gap = energy_gap_series(decay_run)
    m = ts >= 10.0
    assert float(np.max(ts[m] * gap[m])) <= 1.0
    assert np.all(gap[m] > 0.0)


def test_lower_bound_residual_nonnegative(j_run, decay_run, free_run):
    for traj in (j_run, decay_run, free_run):
        assert lower_bound_residual(traj) >= -1e-8


def test_lower_bound_is_equality_for_zero_potential(free_run):
    # gap(t) = (v0^2/2) e^{-2t} exactly, so the slack sits at zero
    assert abs(lower_bound_residual(free_run)) <= 1e-8


def test_lower_bound_detects_violations():
    # energies pushed below the kernel envelope must yield negative slack
    spec = SystemSpec(
        schedule=Constant(1.0), potential=Quadratic(1), x0=1.0, v0=0.0, t_end=2.0
    )
    ts = np.array([0.0, 1.0, 2.0])
    energies = np.array([0.5, 0.4 * math.exp(-2.0), 0.4 * math.exp(-4.0)])
    traj = Trajectory(
        ts, np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)),
        energies, np.zeros(3), [], SolverStats(), spec, 1,
    )
    assert lower_bound_residual(traj) == pytest.approx(-0.1 * math.exp(-2.0), rel=1e-9)


def test_lower_bound_residual_subsamples_quadrature_kernels(monkeypatch):
    # a SlowLog run supplies an analytic da, but its kernel is still one
    # quadrature per time: more than 2000 samples cost 2000 kernel values
    kernel_times = []
    integral_a_to = CustomSchedule.integral_a_to

    def counted(self, times):
        kernel_times.append(len(times))
        return integral_a_to(self, times)

    monkeypatch.setattr(CustomSchedule, "integral_a_to", counted)
    spec = SystemSpec(
        schedule=slow_log_example(), potential=Quadratic(1), x0=1.0, v0=0.0, t_end=50.0
    )
    ts = np.linspace(0.0, 50.0, 2501)
    energies = 0.5 * np.exp(-0.01 * ts)
    zeros = np.zeros((len(ts), 1))
    traj = Trajectory(ts, zeros, zeros, zeros, energies, np.zeros(len(ts)), [], SolverStats(), spec, 1)
    assert math.isfinite(lower_bound_residual(traj))
    assert sum(kernel_times) == 2000


def _every_slack_min(traj):
    """Reference for lower_bound_residual: the kernel at every sample."""
    gap = traj.energies - analyze_module._min_g(traj)
    kern = traj.spec.schedule.decay_kernels(traj.ts)
    return float(np.fmin.reduce(gap - float(gap[0]) * kern * kern, initial=math.inf))


def _late_minimum_run():
    """test_lower_bound_detects_violations' run: its least slack is last."""
    spec = SystemSpec(
        schedule=Constant(1.0), potential=Quadratic(1), x0=1.0, v0=0.0, t_end=2.0
    )
    ts = np.array([0.0, 1.0, 2.0])
    energies = np.array([0.5, 0.4 * math.exp(-2.0), 0.4 * math.exp(-4.0)])
    return Trajectory(
        ts, np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)),
        energies, np.zeros(3), [], SolverStats(), spec, 1,
    )


def _residual_cases():
    yield "undamped", integrate(SystemSpec(  # Constant(0): the kernel is 1
        schedule=Constant(0.0), potential=DoubleWell(), x0=0.37, v0=1.1, t_end=100.0, rel_tol=1e-9))
    yield "custom", integrate(SystemSpec(
        schedule=CustomSchedule(a=lambda t: 1.0 / (1.0 + t)), potential=DoubleWell(),
        x0=0.37, v0=1.1, t_end=100.0, rel_tol=1e-8))
    yield "late_minimum", _late_minimum_run()


@pytest.mark.parametrize("block", [1, 2, 64])
def test_blocked_residual_equals_every_kernel(block, request, monkeypatch):
    # the kernels are taken only in the blocks that can hold the least
    # slack; whatever the block size, the residual keeps its bits
    monkeypatch.setattr(analyze_module, "_RESIDUAL_BLOCK", block)
    runs = [(name, request.getfixturevalue(name)) for name in (
        "j_run", "well_run", "flat_sweep_run", "flat_settle_run", "constant_well_run",
        "decay_run", "free_run")]
    for name, traj in runs + list(_residual_cases()):
        assert lower_bound_residual(traj).hex() == _every_slack_min(traj).hex(), name


def test_blocked_residual_takes_few_kernels(well_run, monkeypatch):
    # well_run's least slack is its first, 0.0: after the kernels at the
    # 244 block starts, one block of 64 samples is evaluated
    taken = []
    kernels = PowerLaw.decay_kernels

    def counted(self, times):
        taken.append(len(times))
        return kernels(self, times)

    monkeypatch.setattr(PowerLaw, "decay_kernels", counted)
    assert lower_bound_residual(well_run) == 0.0
    assert sum(taken) < len(well_run.ts) // 40


def test_upper_bound_regimes(decay_run, slow_run):
    res = upper_bound_check(decay_run, theta=0.5, regime="K1", K=1.0)
    assert res.passed and res.stable
    assert res.rate == pytest.approx(1.0)
    assert 0.0 < res.constant < 10.0
    res2 = upper_bound_check(slow_run, theta=0.5, regime="K2", K=0.5)
    assert res2.passed
    assert res2.rate is None
    assert 0.0 < res2.constant < 10.0
    d = res2.as_dict()
    assert d["regime"] == "K2" and d["passed"] is True


def test_upper_bound_hypothesis_violations(decay_run, slow_run):
    # a = 1/(t+1): a' + K a^2 = (K-1)/(t+1)^2, so K1 needs K <= 1 and
    # K2 needs K >= 1
    with pytest.raises(HypothesisError):
        upper_bound_check(decay_run, theta=0.5, regime="K2", K=0.5)
    with pytest.raises(HypothesisError):
        upper_bound_check(slow_run, theta=0.5, regime="K1", K=1.0)
    with pytest.raises(DomainError):
        upper_bound_check(decay_run, theta=0.5, regime="K3", K=1.0)
    with pytest.raises(DomainError):
        upper_bound_check(decay_run, theta=0.5, regime="K1", K=0.0)


# ---------------------------------------------------------------------------
# occupation density and means


def test_step_function_density_vanishes():
    traj = _step_trajectory()
    rep = occupation_density(traj, 0.0, 0.1, [10.0, 50.0, 99.0])
    assert rep.fractions == tuple(sorted(rep.fractions, reverse=True))
    for T, f in zip(rep.horizons, rep.fractions):
        assert f * T == pytest.approx(1.0, abs=0.06)  # one unit outside
    assert rep.fractions[-1] <= 0.012
    d = rep.as_dict()
    assert d["radius"] == 0.1 and len(d["fractions"]) == 3


def _whole_grid_fractions(traj, ref, radius, horizons, step):
    """occupation_density's fractions, each horizon's grid in one call."""
    fractions = []
    for T in horizons:
        m = max(2, int(math.ceil((T - traj.ts[0]) / step)) + 1)
        pos = traj.positions_at(np.linspace(traj.ts[0], T, m))
        fractions.append(float(np.mean(np.linalg.norm(pos - ref, axis=1) > radius)))
    return tuple(fractions)


def test_density_memory_is_bounded_and_its_fractions_exact(well_run):
    ref = np.sign(well_run.xs[-1])
    horizons = (1.0e2, 1.0e3, 1.0e4)
    tracemalloc.start()
    try:
        rep = occupation_density(well_run, ref, 0.1, horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1e4 horizon's grid is 1e6 points (8 MB); evaluated in one call,
    # the interpolant's temporaries took about 114 MB
    assert peak < 16e6
    assert 0.0 < rep.fractions[2] < rep.fractions[0] < 1.0
    assert rep.fractions[:2] == _whole_grid_fractions(
        well_run, ref, 0.1, horizons[:2], DENSITY_STEP)
    # a coarser step spreads the 1e4 horizon's 1e5 points over 13 blocks
    assert occupation_density(well_run, ref, 0.1, horizons, step=0.1).fractions == \
        _whole_grid_fractions(well_run, ref, 0.1, horizons, 0.1)


def test_density_validation():
    traj = _step_trajectory()
    with pytest.raises(DomainError):
        occupation_density(traj, [0.0, 0.0], 0.1, [10.0])
    with pytest.raises(DomainError):
        occupation_density(traj, 0.0, -0.1, [10.0])
    with pytest.raises(DomainError):
        occupation_density(traj, 0.0, 0.1, [50.0, 10.0])
    with pytest.raises(DomainError):
        occupation_density(traj, 0.0, 0.1, [10.0, 1000.0])
    with pytest.raises(DomainError):
        occupation_density(traj, 0.0, 0.1, [])


@pytest.mark.parametrize(
    "call",
    [
        lambda traj: check_base_inequality(Quadratic(1), math.nan, [0.0]),
        lambda traj: check_base_inequality(Quadratic(1), 0.5, [0.0], radius=math.nan),
        lambda traj: check_strong_convexity_window(DoubleWell(), 1.0, math.nan, 0.7),
        lambda traj: check_strong_convexity_window(DoubleWell(), math.nan, 0.1, 0.7),
        lambda traj: check_strong_convexity_window(DoubleWell(), -math.inf, 0.1, 0.7),
        lambda traj: upper_bound_check(traj, 0.5, "K1", math.nan),
        lambda traj: upper_bound_check(traj, math.nan, "K1", 1.0),
        lambda traj: occupation_density(traj, 0.0, math.nan, [10.0]),
        lambda traj: occupation_density(traj, 0.0, 0.1, [math.nan]),
        lambda traj: occupation_density(traj, 0.0, 0.1, [10.0, math.nan, 20.0]),
        lambda traj: occupation_density(traj, 0.0, 0.1, [10.0], step=math.nan),
        lambda traj: occupation_density(traj, 0.0, 0.1, [10.0], step=0.0),
        lambda traj: occupation_density(traj, math.nan, 0.1, [10.0]),
        lambda traj: rate_fit(traj.ts, np.where(traj.ts < 50.0, 1.0, math.nan), (1.0, 100.0)),
        lambda traj: rate_fit(traj.ts, np.where(traj.ts < 50.0, 1.0, math.inf), (1.0, 100.0)),
        lambda traj: check_base_inequality(DoubleWell(), 0.5, math.nan),
        lambda traj: check_base_inequality(Zero(1), 0.5, math.inf),
        lambda traj: check_base_inequality(Quadratic(1), 0.5, [0.0], radius=math.inf),
        lambda traj: check_base_inequality(Quadratic(1), 0.5, [0.0], probes=2.5),
    ],
    ids=["base_theta", "base_radius", "window_eps", "window_centre_nan", "window_centre_inf",
         "upper_K", "upper_theta", "density_radius",
         "density_horizon", "density_inner_horizon", "density_step_nan", "density_step_zero",
         "density_reference_nan", "rate_values_nan", "rate_values_inf", "base_anchor_nan",
         "base_anchor_inf", "base_radius_inf", "base_probes_fraction"],
)
def test_nan_and_zero_parameters_are_refused(call, decay_run):
    # each bound is written so that NaN fails it; a NaN radius or anchor
    # made check_base_inequality's probe loop run forever, a NaN theta gave
    # upper_bound_check a NaN rate, a NaN reference gave occupation_density
    # fractions 0 and NaN values gave rate_fit a NaN exponent
    with _time_limit(20.0), pytest.raises(DomainError):
        call(decay_run)


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError when the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_cesaro_mean_of_step():
    traj = _step_trajectory()
    # integral of x over [0, 100] is exactly the first unit interval
    assert cesaro_mean(traj, 100.0)[0] == pytest.approx(0.01, rel=1e-3)
    assert cesaro_mean(traj, 1.0)[0] == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(DomainError):
        cesaro_mean(traj, 200.0)


# ---------------------------------------------------------------------------
# extents, gaps, classification


def test_extent_validation(j_run):
    with pytest.raises(DomainError):
        omega_limit_extent(j_run, 0.0)
    with pytest.raises(DomainError):
        omega_limit_extent(j_run, 0.95)


def test_extent_shrinks_for_decaying_run(j_run):
    ext = omega_limit_extent(j_run, 0.1)
    width = float(ext[0, 1] - ext[0, 0])
    assert 0.0 < width < 0.3  # oscillation amplitude ~ 0.11 at t ~ 50


def _full_extent(traj, cut):
    """Reference for the pruned extent: min/max over every sample, event
    state and value of the dense grid on [cut, end]."""
    t1 = float(traj.ts[-1])
    chunks = [traj.xs[traj.ts >= cut]]
    chunks.append(traj.events.x[traj.events.time >= cut])
    m = min(200_000, max(1000, int((t1 - cut) / 0.01) + 1))
    chunks.append(traj.positions_at(np.linspace(cut, t1, m)))
    X = np.vstack(chunks)
    return np.stack([X.min(axis=0), X.max(axis=0)], axis=1)


def _full_velocity_max(traj, cut):
    """Reference for the pruned tail velocity: max |v| over every sample
    and value of the dense grid on [cut, end]."""
    vmax = float(np.max(np.abs(traj.vs[traj.ts >= cut])))
    m = min(100_000, max(1000, int((traj.ts[-1] - cut) / 0.01) + 1))
    grid = np.linspace(cut, traj.ts[-1], m)
    return max(vmax, float(np.max(np.abs(traj.velocities_at(grid)))))


@pytest.mark.parametrize(
    "fixture",
    ["well_run", "j_run", "flat_sweep_run", "flat_settle_run", "constant_well_run"],
)
def test_pruned_extents_equal_the_full_grid(fixture, request):
    # at the three windows classify_limit reads: last 10% of the span,
    # last decade, last two decades
    traj = request.getfixturevalue(fixture)
    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    tail = t1 - 0.1 * (t1 - t0)
    assert np.array_equal(omega_limit_extent(traj, 0.1), _full_extent(traj, tail))
    for cut in (tail, max(t0, t1 / 10.0), max(t0, t1 / 100.0)):
        assert np.array_equal(_extent_window(traj, cut), _full_extent(traj, cut))
        assert _tail_velocity_max(traj, cut) == _full_velocity_max(traj, cut)


@pytest.mark.parametrize("fixture", ["flat_settle_run", "well_run"])
def test_blocked_hull_gives_the_unblocked_extents(fixture, request, monkeypatch):
    # the hull test goes over _DENSE_BLOCK pieces at a time; one block over
    # all pieces (the unblocked test), or blocks of 64, give the same bits
    traj = request.getfixturevalue(fixture)
    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    cuts = (t1 - 0.1 * (t1 - t0), max(t0, t1 / 10.0), max(t0, t1 / 100.0))

    def extents():
        return [(_extent_window(traj, cut).tobytes(), _tail_velocity_max(traj, cut))
                for cut in cuts]

    blocked = extents()
    for block in (len(traj.ts), 64):
        monkeypatch.setattr(analyze_module, "_DENSE_BLOCK", block)
        assert extents() == blocked, block


def test_pruned_extent_is_per_axis_in_the_plane():
    traj = integrate(
        SystemSpec(
            schedule=PowerLaw(1.0, 1.0, 1.0), potential=PPower(4, n=2),
            x0=[1.0, -0.5], v0=[0.0, 0.3], t_end=500.0, rel_tol=1e-8,
        )
    )
    assert traj.n == 2 and len(traj.events) > 10
    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    for frac in (0.1, 0.5, 0.9):
        cut = t1 - frac * (t1 - t0)
        assert np.array_equal(omega_limit_extent(traj, frac), _full_extent(traj, cut))
        assert _tail_velocity_max(traj, cut) == _full_velocity_max(traj, cut)


def test_pruned_extent_sees_excursions_between_samples():
    # samples span x in [-1, 1]; from t = 2 on they sit at x = 0.5 with
    # slopes +-3, so each piece bulges to 0.5 +- 0.75 between samples,
    # past the samples' range, and the velocity pieces overshoot too
    spec = SystemSpec(
        schedule=Constant(1.0), potential=Quadratic(1), x0=-1.0, v0=0.0, t_end=10.0
    )
    ts = np.linspace(0.0, 10.0, 11)
    xs = np.array([[-1.0], [1.0]] + [[0.5]] * 9)
    vs = np.array([[0.0], [0.0]] + [[3.0 * (-1.0) ** k] for k in range(9)])
    accs = np.full((11, 1), 30.0)
    none = Events(np.empty(0), np.empty((0, 1)), np.empty((0, 1)), np.empty(0))
    traj = Trajectory(ts, xs, vs, accs, np.zeros(11), np.zeros(11), none, SolverStats(), spec, 1)
    for cut in (0.0, 1.5):
        assert np.array_equal(_extent_window(traj, cut), _full_extent(traj, cut))
        assert _tail_velocity_max(traj, cut) == _full_velocity_max(traj, cut)
    assert _extent_window(traj, 0.0)[0, 1] > 1.2
    assert _tail_velocity_max(traj, 0.0) > 5.0


def _sampled_run(ts, xs, vs, accs=None):
    """A 1-D run with the given samples, no events, under Quadratic(1)."""
    n = len(ts)
    spec = SystemSpec(schedule=Constant(1.0), potential=Quadratic(1), x0=float(xs[0]),
                      v0=float(vs[0]), t_end=float(ts[-1]))
    none = Events(np.empty(0), np.empty((0, 1)), np.empty((0, 1)), np.empty(0))
    accs = np.zeros(n) if accs is None else accs
    return Trajectory(np.asarray(ts, dtype=float),
                      *(np.asarray(c, dtype=float).reshape(n, 1) for c in (xs, vs, accs)),
                      np.zeros(n), np.zeros(n), none, SolverStats(), spec, 1)


def _edge_windows():
    """(name, run, cut) at the edges of the extents' grid."""
    # a linspace step that underflows to 0 on a window of 5e-322
    yield "step_underflow", _sampled_run([0.0, 2.5e-322, 5.0e-322], [0.5] * 3, [0.0, 1.0, 0.0]), 0.0
    bulging = _sampled_run(np.linspace(0.0, 10.0, 11), [-1.0, 1.0] + [0.5] * 9,
                           [0.0, 0.0] + [3.0 * (-1.0) ** k for k in range(9)], np.full(11, 30.0))
    # every grid point at the end of the run
    yield "zero_width", bulging, 10.0
    # 501 points by the 0.01 rule, raised to the floor of 1000
    yield "point_floor", bulging, 5.0
    # 250,001 points by the rule, capped at 200,000 for x and 100,000 for v
    ts = np.arange(0.0, 2501.0)
    yield "point_cap", _sampled_run(ts, np.sin(0.7 * ts), 0.7 * np.cos(0.7 * ts),
                                    -0.49 * np.sin(0.7 * ts)), 0.0


@pytest.mark.parametrize("name, traj, cut", list(_edge_windows()),
                         ids=[case[0] for case in _edge_windows()])
def test_extents_at_the_grid_edges_equal_the_full_grid(name, traj, cut):
    assert np.array_equal(_extent_window(traj, cut), _full_extent(traj, cut))
    assert _tail_velocity_max(traj, cut) == _full_velocity_max(traj, cut)


def test_classification_memory_is_bounded_at_both_grid_caps(monkeypatch):
    # samples at +-1 at rest, one a time unit: every piece's hull reaches
    # past the samples, so the tail over [27000, 30000] evaluates all of
    # its 200,000 x and 100,000 v grid points
    ts = np.arange(0.0, 30001.0)
    traj = _sampled_run(ts, (-1.0) ** ts, np.zeros(len(ts)))
    tracemalloc.start()
    try:
        got = classify_limit(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the x grid, and 64 float arrays of a block of pieces or points; one
    # call on the whole x grid takes the interpolant 32 MB
    assert peak < 8 * 200_000 + 64 * 8 * analyze_module._DENSE_BLOCK
    tail = 27000.0
    assert got.tail_width == float(np.diff(_full_extent(traj, tail)[0])[0]) == 2.0
    assert got.tail_velocity == _full_velocity_max(traj, tail)
    assert got.verdict == "NotConverged"
    evaluated = {False: 0, True: 0}
    dense = Trajectory._dense

    def counted(self, i, times, velocity):
        evaluated[velocity] += len(times)
        return dense(self, i, times, velocity)

    monkeypatch.setattr(Trajectory, "_dense", counted)
    classify_limit(traj)
    assert evaluated == {False: 200_000, True: 100_000}


def _built_run(pot, xs, bulge, event_times, event_x):
    """A run at t = 0, 1, ..., len(xs) - 1 at rest but on the piece from
    t = 30 to 31, where both ends move at ``bulge``, so that the piece
    bulges past the samples: its hull bounds the decade widths above."""
    n = len(xs)
    vs = np.zeros((n, 1))
    vs[30:32] = bulge
    spec = SystemSpec(schedule=Constant(1.0), potential=pot, x0=float(xs[0]), v0=0.0,
                      t_end=float(n - 1))
    et = np.asarray(event_times, dtype=float)
    events = Events(et, np.full((len(et), 1), event_x), np.zeros((len(et), 1)), np.zeros(len(et)))
    return Trajectory(np.arange(float(n)), np.asarray(xs, dtype=float)[:, None], vs,
                      np.zeros((n, 1)), np.zeros(n), np.zeros(n), events, SolverStats(), spec, 1)


def _straddling_runs():
    """(name, run, verdict) whose decade-width bounds straddle a threshold."""
    sign = (-1.0) ** np.arange(101)
    well = 1.0 + 0.2 * sign
    well[-12:] = 1.0 + 0.001 * sign[-12:]  # a tail about the minimum at 1
    # w_dec in [0.4, 0.64] against 0.5 * separation = 0.5: exact 0.453 and 0.529
    yield "separation_below", _built_run(DoubleWell(), well, 0.3, [60.0, 70.0], 1.0), "ConvergesToMin"
    yield "separation_above", _built_run(DoubleWell(), well, 0.6, [60.0, 70.0], 1.0), "NotConverged"
    # no critical set near x = 5: w_dec in [0.08, 0.112] or [0.08, 0.176] against 0.1
    flat = 5.0 + 0.04 * sign
    yield "tenth_below", _built_run(Quadratic(1), flat, 0.04, [], 5.0), "Undetermined"
    yield "tenth_above", _built_run(Quadratic(1), flat, 0.12, [], 5.0), "NotConverged"
    # w_dec in [0.2, 0.28] against 0.7 w_2dec in [0.21, 0.238], and in
    # [0.2, 0.44] against [0.28, 0.364]
    for top, bulge, verdict in ((5.2, 0.1, "NotConverged"), (5.3, 0.3, "Undetermined")):
        wide = 5.0 + 0.1 * sign
        wide[5] = top
        yield f"share_{verdict}", _built_run(Quadratic(1), wide, bulge, [], 5.0), verdict


def _classify_with_exact_widths(traj, monkeypatch):
    """Reference for classify_limit: every decade width computed exactly,
    since bounds of (-inf, inf) decide no comparison."""
    with monkeypatch.context() as patch:
        patch.setattr(_Column, "width_bounds", lambda self, cut: (-math.inf, math.inf))
        return classify_limit(traj)


@pytest.mark.parametrize(
    "fixture",
    ["well_run", "j_run", "flat_sweep_run", "flat_settle_run", "constant_well_run"],
)
def test_bounded_widths_give_the_exact_verdict(fixture, request, monkeypatch):
    traj = request.getfixturevalue(fixture)
    want = _classify_with_exact_widths(traj, monkeypatch)
    assert repr(classify_limit(traj).as_dict()) == repr(want.as_dict())


@pytest.mark.parametrize("name, traj, verdict", list(_straddling_runs()),
                         ids=[case[0] for case in _straddling_runs()])
def test_straddling_bounds_fall_back_to_exact_widths(name, traj, verdict, monkeypatch):
    want = _classify_with_exact_widths(traj, monkeypatch)
    extents = []
    exact = _Column.extent

    def counted(self, cut):
        extents.append(cut)
        return exact(self, cut)

    monkeypatch.setattr(_Column, "extent", counted)
    got = classify_limit(traj)
    assert got.verdict == verdict
    assert repr(got.as_dict()) == repr(want.as_dict())
    # besides the tail's x and v, at least one decade width was exact
    assert len(extents) > 2


def test_oscillation_gaps_settle(j_run_long, well_run):
    # linear run: velocity sign changes settle to spacing pi
    times, gaps = sign_change_gaps(j_run_long)
    late = gaps[times > 50.0]
    assert np.abs(late - math.pi).max() <= 0.01 * math.pi
    # trapped double-well branch: curvature 2 at the wells gives period
    # 2 pi / sqrt(2), so velocity sign changes arrive every pi / sqrt(2)
    times, gaps = sign_change_gaps(well_run)
    late = gaps[times > 1.0e3]
    want = math.pi / math.sqrt(2.0)
    assert abs(float(np.mean(late)) - want) <= 0.02 * want


def test_gap_report_needs_events():
    still = integrate(
        SystemSpec(schedule=Constant(1.0), potential=DoubleWell(), x0=1.0, v0=0.0, t_end=10.0)
    )
    with pytest.raises(DomainError):
        sign_change_gaps(still)


def _assert_matched_to_the_floor(cls):
    # FlatBottom's critical set is the floor [-1, 1]: the nearest point and
    # the distance are those of the interval, bit for bit, as Python floats
    xbar = cls.limit_estimate[0]
    assert cls.nearest_kind == "LocalMin"
    for got, want in [(cls.nearest_location, np.clip(xbar, -1.0, 1.0)),
                      (cls.nearest_distance, max(0.0, abs(xbar) - 1.0))]:
        assert type(got) is float
        assert got.hex() == float(want).hex()


def test_verdict_table(j_run, well_run, flat_sweep_run, flat_settle_run, constant_well_run):
    # oscillating convergence to an isolated minimum
    cls = classify_limit(well_run)
    assert cls.verdict == "ConvergesToMin"
    assert cls.oscillating
    assert cls.nearest_kind == "LocalMin"
    assert abs(abs(cls.nearest_location) - 1.0) <= 1e-6
    assert cls.sign_changes > 100

    # same dichotomy on the linear run: not settled at the horizon, but
    # localized oscillation about the single minimum
    cls = classify_limit(j_run)
    assert cls.verdict == "ConvergesToMin"
    assert not cls.limit_exists

    # flat argmin with critical damping: the sweep never localizes
    cls = classify_limit(flat_sweep_run)
    assert cls.verdict == "NotConverged"
    assert not cls.limit_exists
    assert cls.tail_width > 0.1  # still sweeping in the final 10% window
    _assert_matched_to_the_floor(cls)

    # flat argmin with gentler damping: settles inside the flat region
    cls = classify_limit(flat_settle_run)
    assert cls.verdict == "ConvergesToMin"
    assert cls.limit_exists
    assert abs(cls.limit_estimate[0]) <= 1.0
    assert cls.tail_width < 1e-3
    _assert_matched_to_the_floor(cls)

    # constant damping: settled well before the horizon
    cls = classify_limit(constant_well_run)
    assert cls.verdict == "ConvergesToMin"
    assert cls.limit_exists
    assert cls.nearest_distance <= 1e-6


def test_verdict_at_local_maximum():
    traj = integrate(
        SystemSpec(
            schedule=PowerLaw(1.0), potential=DoubleWell(), x0=0.0, v0=0.0, t_end=100.0
        )
    )
    cls = classify_limit(traj)
    assert cls.verdict == "ConvergesToMax"
    assert cls.limit_exists and not cls.oscillating
    assert cls.nearest_kind == "LocalMax"


def test_verdict_on_a_critical_set_without_flanks():
    # zero potential: a limit exists, inside the one critical set, the
    # whole line, which has no flank and so no kind of extremum
    traj = integrate(
        SystemSpec(
            schedule=Constant(1.0), potential=Zero(1), x0=0.3, v0=1.0, t_end=30.0
        )
    )
    cls = classify_limit(traj)
    assert cls.limit_exists
    assert cls.limit_estimate[0] == pytest.approx(1.3, abs=1e-6)
    assert cls.nearest_kind == "Degenerate"
    assert cls.nearest_distance == 0.0
    assert cls.nearest_location == cls.limit_estimate[0]
    assert cls.verdict == "Undetermined"


def test_classification_is_one_dimensional():
    plane = integrate(
        SystemSpec(
            schedule=Constant(1.0), potential=Quadratic(2),
            x0=[1.0, 0.0], v0=[0.0, 0.0], t_end=5.0,
        )
    )
    with pytest.raises(UnsupportedError):
        classify_limit(plane)
