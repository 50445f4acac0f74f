"""Averaged-drift stochastic approximation and its continuous-time limit.

The recursion keeps a running average ``h`` of past (possibly noisy)
gradients, weighted by the step sizes, and moves the iterate against
that average:

    h_next = h - eps_n * h / tau + eps_n * g(x, noise) / tau
    tau_next = tau + eps_{n+1}
    x_next = x - eps_{n+1} * h_next

with ``tau`` the running sum of step sizes (the interpolation clock)
and ``h`` starting at zero so the first update uses exactly the first
sampled gradient.  The clock is summed before the step loop, and ``h``
is checked against its closed form sum(eps_i g_i) / tau after it.
Linear interpolation of ``x`` against ``tau`` approaches the solution of

    X''(t) = -(X'(t) + grad G(X(t))) / (t + beta)

which a quadratic clock change turns into the damped system handled by
:mod:`vanishdamp.integrate` with damping rate 1/(s + 2*sqrt(tau0)).
``compare_to_ode`` exploits that to measure the deviation between the
discrete path and its limit with an independent integrator.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import count, islice, repeat
from numbers import Integral
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, NonFiniteState
from .integrate import Record, SystemSpec, Trajectory, _start_point, integrate
from .potential import Potential, row_dots
from .schedule import PowerLaw, _each

__all__ = [
    "StepSchedule",
    "NoiseModel",
    "DiscretePath",
    "OdeComparison",
    "run_recursion",
    "compare_to_ode",
]

_U64_SCALE = 2.0 ** -64
_BELOW_ONE = math.nextafter(1.0, 0.0)
# noise draws generated and transformed at a time: a stream of any length
# holds its output plus one block's temporaries
_NOISE_BLOCK = 1 << 14
# relative tolerance of compare_to_ode's reference integration
ODE_REL_TOL = 1e-10

# Cephes ndtri.c, the inverse normal CDF that scipy.special.ndtri runs:
# sqrt(2 pi), exp(-2), and the rational approximations in y - 1/2 for
# exp(-2) < y < 1 - exp(-2) (P0/Q0), and in z = 1/x with
# x = sqrt(-2 ln y) for 2 <= x < 8 (P1/Q1) and x >= 8 (P2/Q2).  The Q
# tables leave out their leading coefficient 1.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes polevl: coef[0] x^N + ... + coef[N], in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes p1evl: polevl with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of a float array, bit for bit scipy.special.ndtri.

    The operations of Cephes ``ndtri`` in the same order.  0 gives -inf,
    1 gives +inf, and NaN or values outside [0, 1] give NaN.
    """
    out = np.full(u.shape, np.nan)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI

    tail = (y > 0.0) & ~mid
    # the C library's log, as Cephes calls it: numpy's can differ in the last bit
    x = np.sqrt(-2.0 * _each(math.log, y[tail].tolist()))
    x0 = x - _each(math.log, x.tolist()) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    edge = y == 0.0
    out[edge] = np.where(upper[edge], np.inf, -np.inf)
    return out


def _uniform(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit draws mapped to floats strictly inside (0, 1).

    (raw + 1/2) 2^-64, which rounds to 1 for the top 1024 raw values;
    those are held at the largest float below 1.
    """
    u = (raw.astype(np.float64) + 0.5) * _U64_SCALE
    return np.minimum(u, _BELOW_ONE, out=u)


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence eps_n for the averaged-drift recursion.

    Without ``rho`` the steps are constant, eps_n = eps0.  With ``rho``
    they decay as eps_n = eps0 * (n+1)**(-rho), rho in (1/2, 1], the
    window where the steps sum to infinity while some power 1+alpha of
    them is summable.
    """

    eps0: float
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise DomainError(f"eps0 must be positive and finite, got {self.eps0}")
        if self.rho is not None and not (0.5 < self.rho <= 1.0):
            raise DomainError(f"PowerDecay needs rho in (1/2, 1], got {self.rho}")

    def sizes(self) -> Iterator[float]:
        """The endless sequence eps_0, eps_1, ..."""
        if self.rho is None:
            return repeat(self.eps0)
        eps0, expo = self.eps0, -self.rho
        return (eps0 * float(k) ** expo for k in count(1))

    @property
    def has_summable_power(self) -> bool:
        """True when sum eps_n**(1+alpha) is finite for some alpha > 0."""
        return self.rho is not None


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian gradient noise of scale ``sigma``; 0 is none.

    Sampling is counter-based (Philox keyed by ``seed``) with the
    Gaussian produced by inverse-CDF, so a path is reproducible bit for
    bit across runs and platforms.  The inverse CDF is a numpy port of
    Cephes ``ndtri``, tested bit for bit against
    ``scipy.special.ndtri``, so drawing noise loads no scipy.  A nonzero
    seed needs a positive sigma, so noise-free is the one value
    ``NoiseModel()``.
    """

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise DomainError(f"sigma must be >= 0 and finite, got {self.sigma}")
        # a float seed would be truncated onto another seed's stream
        if not (isinstance(self.seed, Integral) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.seed and self.sigma == 0.0:
            raise DomainError(f"seed {self.seed} needs a positive sigma")

    def stream(self, count: int, dim: int) -> np.ndarray:
        """The first ``count`` noise increments, shape (count, dim).

        A prefix of a longer stream is identical to the shorter one, so
        resuming or extending a run keeps the same draws.
        """
        if count < 0 or dim < 1:
            raise DomainError("need count >= 0 and dim >= 1")
        if self.sigma == 0.0:
            return np.zeros((count, dim))
        bits = np.random.Generator(np.random.Philox(key=int(self.seed)))
        out = np.empty((count, dim))
        rows = max(1, _NOISE_BLOCK // dim)
        # consecutive blocks of raw draws continue one stream
        for start in range(0, count, rows):
            block = out[start:start + rows]
            raw = bits.integers(0, 2 ** 64, size=block.shape, dtype=np.uint64)
            block[...] = _ndtri(_uniform(raw))
        out *= self.sigma
        return out


@dataclass(frozen=True)
class DiscretePath:
    """Sampled recursion: clock tau, averaged drift h, and iterate x.

    Arrays hold rows n = 0..N.  ``drift_identity_max`` is the largest
    gap observed between the recursively updated drift and its closed
    form sum(eps_i * g_i) / tau_n, measured relative to the largest
    drift magnitude seen up to that step.  The drift oscillates through
    zero, so a pointwise quotient would divide rounding noise by a
    vanishing denominator at each sign change; scaling by the running
    magnitude reports accumulated rounding instead.
    """

    tau: np.ndarray
    h: np.ndarray
    x: np.ndarray
    drift_identity_max: float
    steps: StepSchedule
    noise: NoiseModel

    @property
    def n_steps(self) -> int:
        return len(self.tau) - 1

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _compensated_sums(terms, sums):
    """``sums`` with the running compensated (Kahan) sums of the floats
    ``terms``, from +0.0 in the order given, appended."""
    total = comp = 0.0
    keep = sums.append
    for term in terms:
        term = term - comp
        new = total + term
        comp = (new - total) - term
        total = new
        keep(total)
    return sums


def run_recursion(
    pot: Potential,
    steps: StepSchedule,
    noise: NoiseModel,
    x0,
    n_steps: int,
) -> DiscretePath:
    """Run the averaged-drift recursion for ``n_steps`` updates.

    The clock, the compensated prefix sums of the step sizes, is summed
    before the loop, and the drift average is checked against its closed
    form after it, from the rows eps_n g_n the loop records.  For n=1 the
    loop runs on floats; for n >= 2 it keeps h and g in one (2, n) buffer
    so that one multiply by eps_n and one divide by tau_n serve both terms
    of h's update.  Both call the potential's gradient closure and test
    every component of x for finiteness.
    """
    if not (isinstance(n_steps, Integral) and n_steps >= 1):
        raise DomainError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    dim = pot.n
    grad, isfinite = pot.grad_fn(), math.isfinite
    start = _start_point(x0, dim, "start point")
    sizes = array("d", islice(steps.sizes(), n_steps + 1))
    clock = _compensated_sums(sizes, array("d"))
    if dim == 1:
        h, x = 0.0, float(start[0])
        # packed floats: a list would keep every value as an object
        h_rows, x_rows, eg_rows = array("d", [h]), array("d", [x]), array("d")
        keep_h, keep_x, keep_eg = h_rows.append, x_rows.append, eg_rows.append
        rows = zip(memoryview(noise.stream(n_steps, 1)[:, 0]), sizes, clock, islice(sizes, 1, None))
        for xi_n, e_n, tau, e_next in rows:
            try:
                g_n = grad(x) + xi_n
            except OverflowError as exc:
                # scalar float ops raise instead of producing inf
                raise NonFiniteState(f"recursion diverged at step {len(x_rows) - 1}") from exc
            eg = e_n * g_n
            h = h - e_n * h / tau + eg / tau
            # e_next * h is inf or NaN wherever h is, so x is finite only if h is
            x = x - e_next * h
            if not isfinite(x):
                raise NonFiniteState(f"recursion diverged at step {len(x_rows)}")
            keep_h(h)
            keep_x(x)
            keep_eg(eg)
        hs, xs, egs = (np.asarray(column)[:, None] for column in (h_rows, x_rows, eg_rows))
    else:
        hs, xs = np.zeros((2, n_steps + 1, dim))
        xs[0] = start
        hg, terms = np.zeros((2, dim)), np.empty((2, dim))
        (h, g), (h_term, g_term) = hg, terms  # terms: eps_n (h, g), then over tau_n
        egs = np.empty((n_steps, dim))
        x = xs[0]

        def finite(a):  # every component: one call a step, as isfinite at n = 1
            return all(map(isfinite, a.tolist()))

        rows = zip(noise.stream(n_steps, dim), sizes, clock, islice(sizes, 1, None),
                   egs, hs[1:], xs[1:])
        for n, (xi_n, e_n, tau, e_next, eg, h_out, x_out) in enumerate(rows):
            try:
                np.add(grad(x), xi_n, out=g)
            except OverflowError as exc:
                raise NonFiniteState(f"recursion diverged at step {n}") from exc
            np.multiply(e_n, hg, out=terms)
            eg[...] = g_term
            terms /= tau
            h -= h_term
            h += g_term
            h_out[...] = h
            x = np.subtract(x, np.multiply(e_next, h, out=h_term), out=x_out)
            if not finite(x):
                raise NonFiniteState(f"recursion diverged at step {n + 1}")

    # the drift identity (see DiscretePath): the closed form's sums on floats
    # a component at a time, in place; np.fmax skips NaN gaps and magnitudes
    # as a step loop's `>` tests skip them; a row's norm has the bits of
    # the loop's abs(x) for n = 1 and of sqrt(x.dot(x)) for n >= 2

    def norms(rows):
        return np.abs(rows[:, 0]) if dim == 1 else np.sqrt(row_dots(rows))

    for c in egs.T:
        c[...] = _compensated_sums(memoryview(c), array("d"))
    taus = np.asarray(clock)
    closed = np.divide(egs, taus[:-1, None], out=egs)
    scale = np.fmax.accumulate(norms(closed))
    scale[~(scale > 0.0)] = 1.0
    gaps = norms(np.subtract(hs[1:], closed, out=closed)) / scale
    worst = float(np.fmax.reduce(gaps, initial=0.0))
    return DiscretePath(tau=taus, h=hs, x=xs, drift_identity_max=worst, steps=steps, noise=noise)


@dataclass(frozen=True)
class OdeComparison(Record):
    """Deviation between a discrete path and its limiting trajectory.

    ``metric`` is "sup" for noise-free paths and "rms" for noisy ones;
    a noisy path has no deterministic limit, so its number is a report,
    not a pass/fail quantity.
    """

    deviation: float
    metric: str
    clock_horizon: float
    points_compared: int
    trajectory: Trajectory = field(repr=False)


def compare_to_ode(
    path: DiscretePath,
    pot: Potential,
    horizon: Optional[float] = None,
) -> OdeComparison:
    """Deviation of the path from the limiting system through clock ``horizon``.

    The limiting system X'' = -(X' + grad G(X)) / (t + beta) depends on
    time only through the clock t + beta, which the path carries as tau,
    so the comparison is done on the clock and needs no beta.  Substituting
    clock = (s + C)**2 / 4 with C = 2*sqrt(tau_0) turns the limit into
    the damped system with rate 1/(s + C) and unit gradient, which the
    adaptive integrator solves; deviations are measured at every stored
    clock value tau_n <= horizon.  A horizon of None or inf, or one past
    the path's last clock value, compares the whole path; NaN is refused.
    """
    tau0 = float(path.tau[0])
    if tau0 <= 0.0:
        raise DomainError(f"path clock must start positive, got {tau0}")
    if horizon is not None and math.isnan(horizon):
        raise DomainError(f"horizon must be a clock value, got {horizon}")
    tau_end = float(path.tau[-1])
    tau_hor = tau_end if horizon is None else min(float(horizon), tau_end)
    if tau_hor < tau0:
        raise DomainError(f"horizon {tau_hor} precedes the clock start {tau0}")

    c_shift = 2.0 * math.sqrt(tau0)
    s_end = 2.0 * math.sqrt(tau_hor) - c_shift
    x0 = path.x[0]
    # x'(s) = X'(clock) * dclock/ds, and dclock/ds = sqrt(tau0) at s = 0
    v0 = -path.h[0] * math.sqrt(tau0)

    mask = path.tau <= tau_hor * (1.0 + 1e-12)
    taus = path.tau[mask]
    n_pts = int(taus.size)

    spec = SystemSpec(
        schedule=PowerLaw(c=1.0, gamma=1.0, s0=c_shift),
        potential=pot,
        x0=x0,
        v0=v0,
        t_end=s_end if s_end > 0.0 else 1e-9,
        rel_tol=ODE_REL_TOL,
    )
    traj = integrate(spec)
    if s_end <= 0.0:
        # the horizon stops at the clock origin: nothing to compare
        return OdeComparison(0.0, "sup", tau_hor, n_pts, traj)

    s_vals = 2.0 * np.sqrt(taus) - c_shift
    ref = traj.positions_at(np.clip(s_vals, 0.0, s_end))
    gaps = np.max(np.abs(path.x[mask] - ref), axis=1)

    if path.noise.sigma > 0.0:
        return OdeComparison(
            float(np.sqrt(np.mean(gaps ** 2))), "rms", tau_hor, n_pts, traj
        )
    return OdeComparison(float(np.max(gaps)), "sup", tau_hor, n_pts, traj)
