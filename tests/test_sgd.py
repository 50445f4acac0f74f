"""Averaged-gradient recursion invariants.

Drift-average algebra against an independent closed-form reconstruction,
exact clock accounting, seeded-noise reproducibility, the dissipative
envelope of the energy analogue, and agreement with the limiting ODE at
first order in the step size.
"""

import hashlib
import math

import numpy as np
import pytest

from vanishdamp import (
    CustomPotential,
    DomainError,
    DoubleWell,
    NoiseModel,
    NonFiniteState,
    PPower,
    Quadratic,
    StepSchedule,
    Zero,
    compare_to_ode,
    run_recursion,
)
from vanishdamp import sgd


@pytest.fixture(scope="module")
def quad_const_path():
    """Long noise-free run with a constant step on the 1D quadratic."""
    return run_recursion(
        Quadratic(1), StepSchedule.constant(1e-3), NoiseModel.none(), 1.0, 120_000
    )


@pytest.fixture(scope="module")
def quad_decay_path():
    """Long noise-free run with a decaying step on the 1D quadratic."""
    return run_recursion(
        Quadratic(1), StepSchedule.power_decay(1e-2, 0.7), NoiseModel.none(), 1.0, 100_000
    )


# ---------------------------------------------------------------------------
# recursion algebra


def test_zero_drift_keeps_iterate_fixed():
    path = run_recursion(Zero(1), StepSchedule.constant(0.2), NoiseModel.none(), 0.7, 100)
    assert np.all(path.x == 0.7)
    assert np.all(path.h == 0.0)
    assert path.drift_identity_max == 0.0


def test_first_update_reproduces_initial_gradient():
    # tau_0 equals eps_0, so the first update collapses to the bare gradient
    path = run_recursion(Quadratic(1), StepSchedule.constant(1e-3), NoiseModel.none(), 1.37, 1)
    assert path.h[1, 0] == 1.37
    assert path.x[1, 0] == 1.37 - 1e-3 * 1.37

    noise = NoiseModel.gaussian(0.5, seed=11)
    noisy = run_recursion(Quadratic(1), StepSchedule.constant(1e-3), noise, 1.37, 1)
    xi0 = noise.stream(1, 1)[0, 0]
    assert math.isclose(noisy.h[1, 0], 1.37 + xi0, rel_tol=1e-15)


def test_clock_is_exact_prefix_sum():
    for steps in (StepSchedule.constant(1e-3), StepSchedule.power_decay(1e-2, 0.7)):
        path = run_recursion(Quadratic(1), steps, NoiseModel.none(), 1.0, 5_000)
        for n in (0, 1, 7, 500, 4_999, 5_000):
            assert path.tau[n] == math.fsum(steps.eps(i) for i in range(n + 1))


def test_drift_identity_stays_at_rounding_scale(quad_const_path, quad_decay_path):
    assert quad_const_path.drift_identity_max <= 1e-10
    assert quad_decay_path.drift_identity_max <= 1e-10


def test_drift_matches_external_reconstruction():
    """h at every step equals the weighted mean of all past gradient draws.

    Reconstructed here from scratch — fsum over the stored iterates and
    the independently regenerated noise stream — rather than through the
    recursion's own bookkeeping.
    """
    steps = StepSchedule.power_decay(1e-2, 0.7)
    for noise in (NoiseModel.none(), NoiseModel.gaussian(0.5, seed=11)):
        path = run_recursion(Quadratic(1), steps, noise, 1.0, 5_000)
        xi = noise.stream(5_000, 1)[:, 0]
        grad = Quadratic(1).grad_fn()
        scale = max(1.0, float(np.abs(path.h).max()))
        for n in (0, 1, 7, 500, 4_999):
            tau_n = math.fsum(steps.eps(i) for i in range(n + 1))
            num = math.fsum(
                steps.eps(i) * (grad(path.x[i, 0]) + xi[i]) for i in range(n + 1)
            )
            assert abs(path.h[n + 1, 0] - num / tau_n) <= 1e-10 * scale


def test_vector_run_decouples_by_component():
    steps = StepSchedule.power_decay(5e-3, 0.8)
    plane = run_recursion(
        Quadratic(2), steps, NoiseModel.none(), np.array([1.0, -0.4]), 3_000
    )
    line_a = run_recursion(Quadratic(1), steps, NoiseModel.none(), 1.0, 3_000)
    line_b = run_recursion(Quadratic(1), steps, NoiseModel.none(), -0.4, 3_000)
    assert np.abs(plane.x[:, 0] - line_a.x[:, 0]).max() <= 1e-13
    assert np.abs(plane.x[:, 1] - line_b.x[:, 0]).max() <= 1e-13
    assert plane.drift_identity_max <= 1e-10


def test_path_properties():
    path = run_recursion(Quadratic(2), StepSchedule.constant(0.1), NoiseModel.none(),
                         np.array([1.0, 2.0]), 17)
    assert path.n_steps == 17
    assert path.dim == 2
    assert path.tau.shape == (18,)
    assert path.x.shape == (18, 2)


# ---------------------------------------------------------------------------
# energy analogue


def test_energy_analogue_envelope_decreases(quad_const_path):
    """The analogue G(x) + |h|^2/2 dissipates at the envelope scale.

    Pointwise monotonicity cannot hold at any tail: the limiting system
    keeps oscillating, trading potential against drift energy, so the
    analogue rises and falls once per period forever.  What decays is
    the envelope — the maximum over each oscillation period drops, and
    single-step rises never exceed the discretization scale.
    """
    path = quad_const_path
    e = 0.5 * path.x[:, 0] ** 2 + 0.5 * path.h[:, 0] ** 2
    s = 2.0 * np.sqrt(path.tau)  # clock in which the period is ~2*pi
    burn = 1_000

    edges = [s[burn] + 2.0 * math.pi * k for k in range(4)]
    maxima = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        window = (s >= lo) & (s < hi)
        maxima.append(e[window].max())
    for prev, nxt in zip(maxima, maxima[1:]):
        assert nxt <= 0.7 * prev

    assert e[-1] <= 0.1 * e[burn]
    assert np.diff(e[burn:]).max() <= 1e-4  # rises stay at the step scale


# ---------------------------------------------------------------------------
# noise model


def test_noise_stream_mean_and_spread():
    sigma = 2.0
    draws = NoiseModel.gaussian(sigma, seed=7).stream(10_000, 1)[:, 0]
    # zero conditional mean: the sample average sits within 3 sigma / sqrt(N)
    assert abs(draws.mean()) <= 3.0 * sigma / 100.0
    assert abs(draws.std() - sigma) <= 0.05 * sigma


def test_noise_stream_prefix_stability():
    noise = NoiseModel.gaussian(1.0, seed=42)
    long = noise.stream(1_000, 2)
    short = noise.stream(100, 2)
    assert np.array_equal(short, long[:100])


def test_noise_stream_silent_cases():
    assert np.all(NoiseModel.none().stream(50, 3) == 0.0)
    assert np.all(NoiseModel.gaussian(0.0, seed=5).stream(50, 3) == 0.0)


def _ulps_around(value, k):
    """value and its k float neighbours on each side."""
    below, above = [value], [value]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_ndtri_port_is_scipy_bitwise():
    from scipy.special import ndtri  # the reference, for this test only

    bits = np.random.Generator(np.random.Philox(key=2024))
    raw = bits.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    stream_shaped = (raw.astype(np.float64) + 0.5) * 2.0 ** -64
    edge = sgd._EXP_M2
    # x = sqrt(-2 ln y) crosses 8 near y = exp(-32)
    switch = _ulps_around(math.exp(-32.0), 400)
    x = [math.sqrt(-2.0 * math.log(y)) for y in switch]
    assert min(x) < 8.0 <= max(x)
    tails = np.geomspace(2.0 ** -65, 0.25, 20_000)
    special = np.array(
        _ulps_around(edge, 40) + _ulps_around(1.0 - edge, 40)
        + switch + _ulps_around(1.0 - switch[400], 40)
        + [2.0 ** -k for k in range(1, 66)] + [1.0 - 2.0 ** -k for k in range(1, 54)]
        + [0.0, 1.0, 0.5]
    )
    u = np.concatenate([stream_shaped, tails, 1.0 - tails, special])
    assert u.min() == 0.0 and u.max() == 1.0
    port, ref = sgd._ndtri(u), ndtri(u)
    assert np.array_equal(port.view(np.uint64), ref.view(np.uint64))
    assert sgd._ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]


def test_uniform_holds_the_top_raw_values_below_one():
    top = np.array([2 ** 64 - 1, 2 ** 64 - 512, 2 ** 64 - 1024], dtype=np.uint64)
    below = np.array([2 ** 64 - 1025, 2 ** 64 - 2048, 0, 2 ** 63], dtype=np.uint64)
    # unclamped, the top 1024 raw values round to exactly 1, whose ndtri is inf
    assert np.all((top.astype(np.float64) + 0.5) * 2.0 ** -64 == 1.0)
    u = sgd._uniform(top)
    assert np.all(u == math.nextafter(1.0, 0.0))
    z = sgd._ndtri(u)
    assert np.all(np.isfinite(z)) and abs(z[0] - 8.2095) < 1e-4
    # every other raw value keeps its uniform
    assert np.array_equal(sgd._uniform(below), (below.astype(np.float64) + 0.5) * 2.0 ** -64)
    assert 0.0 < sgd._uniform(below).min()


# rows per block: 1, 2, 3, 7 and 1365 for dim 3
@pytest.mark.parametrize("block", [1, 6, 9, 21, 4096])
def test_noise_blocks_continue_one_stream(monkeypatch, block):
    noise = NoiseModel.gaussian(0.5, seed=42)
    whole = noise.stream(1_000, 3)
    monkeypatch.setattr(sgd, "_NOISE_BLOCK", block)
    assert np.array_equal(noise.stream(1_000, 3).view(np.uint64), whole.view(np.uint64))


def test_seeded_replay_is_bitwise():
    def run(seed):
        return run_recursion(
            Quadratic(1), StepSchedule.constant(1e-2),
            NoiseModel.gaussian(1.0, seed=seed), 1.0, 2_000,
        )

    a, b = run(404), run(404)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.tau, b.tau)
    assert not np.array_equal(a.x, run(405).x)


def test_scalar_path_is_pinned_bitwise():
    # SHA-256 of x, h and tau of a noisy 1-D run; any change to the bits of
    # the n=1 recursion shows up here
    path = run_recursion(
        DoubleWell(), StepSchedule.power_decay(0.05, 0.7),
        NoiseModel.gaussian(0.5, seed=3), 0.4, 5_000,
    )
    digest = hashlib.sha256()
    for a in (path.x, path.h, path.tau):
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert digest.hexdigest() == (
        "2cd8dcc3a457cef6c9d41384d5bf77e86c7b96506c7362d7d4487671fc51e59b"
    )
    assert path.drift_identity_max == 3.8491183850914274e-15


def test_vector_path_is_pinned_bitwise():
    # the same for a noisy n=2 run through the array branch of the loop
    path = run_recursion(
        PPower(3.0, n=2), StepSchedule.power_decay(0.05, 0.7),
        NoiseModel.gaussian(0.5, seed=3), [0.4, -1.2], 5_000,
    )
    digest = hashlib.sha256()
    for a in (path.x, path.h, path.tau):
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert digest.hexdigest() == (
        "37534b1b97d77502ccafa0c3cd8386873795eaf01dbc17338b6c9b940b3e7b91"
    )
    assert path.drift_identity_max == 8.992994743338063e-16


# ---------------------------------------------------------------------------
# limiting system


def test_compare_to_ode_first_order_in_step():
    quad = Quadratic(1)
    coarse = run_recursion(quad, StepSchedule.constant(4e-3), NoiseModel.none(), 1.0, 2_000)
    fine = run_recursion(quad, StepSchedule.constant(2e-3), NoiseModel.none(), 1.0, 4_000)
    dev_c = compare_to_ode(coarse, quad, horizon=8.0).deviation
    dev_f = compare_to_ode(fine, quad, horizon=8.0).deviation
    assert dev_c < 0.05 and dev_f < 0.05
    assert 1.6 <= dev_c / dev_f <= 2.4  # halving the step halves the error


def test_compare_to_ode_horizon_handling():
    quad = Quadratic(1)
    path = run_recursion(quad, StepSchedule.constant(1e-3), NoiseModel.none(), 1.0, 10)

    at_origin = compare_to_ode(path, quad, horizon=1e-3)  # the clock start itself
    assert at_origin.deviation == 0.0
    assert at_origin.metric == "sup"
    assert at_origin.points_compared == 1

    clipped = compare_to_ode(path, quad, horizon=1e9)
    assert clipped.clock_horizon == pytest.approx(path.tau[-1], rel=1e-15)
    assert clipped.points_compared == 11
    assert set(clipped.as_dict()) == {
        "deviation", "metric", "clock_horizon", "points_compared",
    }

    with pytest.raises(DomainError):
        compare_to_ode(path, quad, horizon=1e-4)  # precedes the clock start


def test_compare_to_ode_noisy_reports_rms():
    quad = Quadratic(1)
    path = run_recursion(
        quad, StepSchedule.constant(1e-2), NoiseModel.gaussian(0.1, seed=3), 1.0, 500
    )
    report = compare_to_ode(path, quad)
    assert report.metric == "rms"
    assert 0.0 < report.deviation < 1.0
    assert report.points_compared == 501


def test_long_decaying_step_tracks_ode():
    """First-order error of a million-step decaying-step run.

    The deviation band is frozen from a reference run: at this step
    profile the Euler-scheme error through clock 20 sits near 0.157.
    """
    quad = Quadratic(1)
    path = run_recursion(
        quad, StepSchedule.power_decay(0.1, 0.7), NoiseModel.none(), 1.0, 1_000_000
    )
    report = compare_to_ode(path, quad, horizon=20.0)
    assert report.metric == "sup"
    assert 0.14 <= report.deviation <= 0.18


# ---------------------------------------------------------------------------
# divergence and validation


def test_divergent_path_raises():
    # a steep potential with a unit step overflows within a few updates
    with pytest.raises(NonFiniteState):
        run_recursion(PPower(4.0), StepSchedule.constant(1.0), NoiseModel.none(), 2.0, 50)

    steep = CustomPotential(
        n=1,
        energy=lambda x: 5e9 * float(x[0]) ** 2,
        grad=lambda x: 1e10 * x,
    )
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteState):
            run_recursion(steep, StepSchedule.constant(1.0), NoiseModel.none(), 2.0, 60)


def test_step_schedule_validation():
    with pytest.raises(DomainError):
        StepSchedule("Harmonic", 1e-3)
    with pytest.raises(DomainError):
        StepSchedule.constant(0.0)
    with pytest.raises(DomainError):
        StepSchedule.constant(math.nan)
    with pytest.raises(DomainError):
        StepSchedule("Constant", 1e-3, rho=0.7)
    with pytest.raises(DomainError):
        StepSchedule("PowerDecay", 1e-3)
    with pytest.raises(DomainError):
        StepSchedule.power_decay(1e-3, 0.5)  # boundary excluded
    with pytest.raises(DomainError):
        StepSchedule.power_decay(1e-3, 1.2)
    with pytest.raises(DomainError):
        StepSchedule.constant(1e-3).eps(-1)

    assert StepSchedule.power_decay(1e-3, 1.0).eps(3) == pytest.approx(2.5e-4)
    assert not StepSchedule.constant(1e-3).has_summable_power
    assert StepSchedule.power_decay(1e-3, 0.9).has_summable_power


def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel("Laplace")
    with pytest.raises(DomainError):
        NoiseModel.gaussian(-1.0)
    with pytest.raises(DomainError):
        NoiseModel("None", sigma=0.5)
    with pytest.raises(DomainError):
        NoiseModel.gaussian(1.0, seed=2 ** 64)
    with pytest.raises(DomainError):
        NoiseModel.gaussian(1.0, seed=-1)
    with pytest.raises(DomainError):
        NoiseModel.gaussian(1.0).stream(-1, 1)
    with pytest.raises(DomainError):
        NoiseModel.gaussian(1.0).stream(5, 0)


@pytest.mark.parametrize("seed", [1.5, -0.5, 1.0, "3"])
def test_noise_seed_must_be_an_integer(seed):
    # int() used to truncate 1.5 onto seed 1's stream and -0.5 onto seed 0's
    with pytest.raises(DomainError, match="seed must be an integer"):
        NoiseModel.gaussian(1.0, seed=seed)


def test_noise_seed_takes_numpy_integers():
    wide = NoiseModel.gaussian(1.0, seed=np.uint64(2 ** 64 - 1)).stream(4, 1)
    assert np.array_equal(wide, NoiseModel.gaussian(1.0, seed=2 ** 64 - 1).stream(4, 1))


def test_run_recursion_validation():
    quad = Quadratic(1)
    with pytest.raises(DomainError):
        run_recursion(quad, StepSchedule.constant(1e-3), NoiseModel.none(), 1.0, 0)
    with pytest.raises(DomainError):
        run_recursion(quad, StepSchedule.constant(1e-3), NoiseModel.none(),
                      np.array([1.0, 2.0]), 5)
    with pytest.raises(DomainError):
        run_recursion(quad, StepSchedule.constant(1e-3), NoiseModel.none(), math.nan, 5)
