"""Analysis invariants.

Rate fits on synthetic series with known exponents, energy-bound
residuals against closed forms, occupation density on a hand-built step
trajectory, and the limit-classification verdict table on the shared
fixture runs.
"""

import math
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
    weighted_energy_integral,
)
from vanishdamp.analyze import DENSITY_STEP, _extent_window, _tail_velocity_max


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


def test_weighted_integral_closed_form(free_run):
    # int_0^inf 1 * (1/2) e^{-2t} dt = 1/4
    total, (ts, running) = weighted_energy_integral(free_run)
    assert total == pytest.approx(0.25, abs=1e-4)
    assert np.all(np.diff(running) >= -1e-15)
    assert running[-1] == pytest.approx(total, rel=1e-12)
    assert running[0] == 0.0


def test_weighted_integral_flattens_when_gap_decays(decay_run):
    total, (ts, running) = weighted_energy_integral(decay_run)
    assert total > 0.0
    # the final decade contributes a vanishing share (integrand ~ t^-2)
    k = int(np.searchsorted(ts, ts[-1] / 10.0))
    assert total - float(running[k]) <= 0.05 * total


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
    none = Events(np.empty(0), np.empty((0, 1)), np.empty((0, 1)), np.empty(0), np.ones(1))
    traj = Trajectory(ts, xs, vs, accs, np.zeros(11), np.zeros(11), none, SolverStats(), spec, 1)
    for cut in (0.0, 1.5):
        assert np.array_equal(_extent_window(traj, cut), _full_extent(traj, cut))
        assert _tail_velocity_max(traj, cut) == _full_velocity_max(traj, cut)
    assert _extent_window(traj, 0.0)[0, 1] > 1.2
    assert _tail_velocity_max(traj, 0.0) > 5.0


def test_oscillation_gaps_settle(j_run_long, well_run):
    # linear run: velocity sign changes settle to spacing pi
    rep = sign_change_gaps(j_run_long)
    late = rep.gaps[rep.times > 50.0]
    assert np.abs(late - math.pi).max() <= 0.01 * math.pi
    assert abs(rep.log_slope) <= 0.05
    assert rep.as_dict()["count"] == len(rep.gaps)
    # trapped double-well branch: curvature 2 at the wells gives period
    # 2 pi / sqrt(2), so velocity sign changes arrive every pi / sqrt(2)
    rep = sign_change_gaps(well_run)
    late = rep.gaps[rep.times > 1.0e3]
    want = math.pi / math.sqrt(2.0)
    assert abs(float(np.mean(late)) - want) <= 0.02 * want


def test_gap_report_needs_events():
    still = integrate(
        SystemSpec(schedule=Constant(1.0), potential=DoubleWell(), x0=1.0, v0=0.0, t_end=10.0)
    )
    with pytest.raises(DomainError):
        sign_change_gaps(still)


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

    # flat argmin with gentler damping: settles inside the flat region
    cls = classify_limit(flat_settle_run)
    assert cls.verdict == "ConvergesToMin"
    assert cls.limit_exists
    assert abs(cls.limit_estimate[0]) <= 1.0
    assert cls.tail_width < 1e-3

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


def test_verdict_without_critical_structure():
    # zero potential: a limit exists but there is nothing to match it to
    traj = integrate(
        SystemSpec(
            schedule=Constant(1.0), potential=Zero(1), x0=0.3, v0=1.0, t_end=30.0
        )
    )
    cls = classify_limit(traj)
    assert cls.limit_exists
    assert cls.limit_estimate[0] == pytest.approx(1.3, abs=1e-6)
    assert cls.nearest_kind is None
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
