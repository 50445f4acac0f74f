"""Potentials G : R^n -> R with gradients, critical sets, and convexity
certificates.

Ships the canonical test potentials for the damped system: quadratic,
p-power (with p = 2 + 2/beta, the potential of the exact power-law
solution), the double well, the flat-bottom potential whose argmin is
the closed unit ball, 1D polynomials, and the zero potential.  Each
states G and grad G once, as the unchecked closures the hot loops of the
stepper and the recursion call; the validated methods check a point and
run the same closures, so both give the same bits in every dimension.
On top of evaluation the module locates the critical sets of 1D
potentials, intervals such as FlatBottom's floor [-1, 1] or a single
root, checks the base inequality G(x) - G(z) <= theta <grad G(x), x - z>
on quasi-random probes, checks strong convexity/concavity on windows,
and brackets the plateau interval of a local maximum's level set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, UnsupportedError

# critical-point scan: number of cells per search box, bisection tolerance
SCAN_CELLS = 10_000
ROOT_TOL = 1.0e-10
_FLOAT_MAX = np.finfo(float).max  # a numpy scalar, on which g overflows to inf

# base-inequality violation threshold: slack below -1e-9*(1+|G(x)|)
VIOLATION_REL = 1.0e-9


def _dimension(n) -> int:
    """``n`` as the dimension of a potential, which is at least 1."""
    if int(n) < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return int(n)


def row_dots(rows: np.ndarray, others: Optional[np.ndarray] = None) -> np.ndarray:
    """The ndarray.dot of each row of an (m, n) array with the same row of
    ``others``, or with itself, bit for bit, which numpy >= 2's vecdot
    calls row by row without a Python loop; a row's root with itself is
    its np.linalg.norm."""
    others = rows if others is None else others
    if hasattr(np, "vecdot"):
        return np.vecdot(rows, others)
    return np.array([r.dot(o) for r, o in zip(rows, others)], dtype=float)


class Potential:
    """Base interface; subclasses are immutable after construction.

    A builtin states G and grad G once, as the unchecked closures from
    ``energy_fn()`` and ``grad_fn()``, which the hot loops of the stepper,
    the recursion and the 1D scans call directly.  They take and return
    plain floats for n = 1 and take (n,) float arrays for n >= 2, where
    the norm is the root of ``row_dots``, np.linalg.norm's own formula; a
    closure may return its argument, so callers treat the result as
    read-only.  The validated ``energy(x)`` and ``grad(x)`` check a point
    of shape (n,) and run the same closures, so every way to evaluate
    gives the same bits.
    """

    n: int
    coercive: bool
    min_value: Optional[float]
    # whether the n = 1 closures are only +, -, * and /, which round alike
    # on floats and on arrays, so that on_rows runs them on a whole column
    elementwise = False

    def grad_fn(self) -> Callable:
        raise NotImplementedError

    def energy_fn(self) -> Callable:
        raise NotImplementedError

    # For n = 1 the closures run on the numpy scalar p[0], whose ``**``
    # overflows to inf where a Python float's raises OverflowError.
    def energy(self, x) -> float:
        p = self._as_point(x)
        return float(self.energy_fn()(p[0] if self.n == 1 else p))

    def grad(self, x) -> np.ndarray:
        p = self._as_point(x)
        g = self.grad_fn()(p[0] if self.n == 1 else p)
        return np.array(g, dtype=float, ndmin=1)  # a copy: the closure may return p

    # an overflow reads as +-inf, and numpy is as silent as float arithmetic
    @np.errstate(over="ignore", invalid="ignore")
    def on_rows(self, fn: Callable, xs) -> np.ndarray:
        """fn, the closure from energy_fn() or grad_fn(), at every row of an
        (m, n) array with the bits of fn at each row alone: (m,) values, or
        (m, n) gradients for n >= 2, read-only (they may be xs itself).  An
        ``elementwise`` kind's fn runs once on a column, any other once a
        row, on Python floats for n = 1 unless it overflows there; then on
        numpy scalars, whose ``**`` gives inf where a float's raises."""
        rows = np.asarray(xs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise DomainError(f"rows of shape {rows.shape} for potential of dimension {self.n}")
        if self.n > 1:
            return np.array([fn(x) for x in np.ascontiguousarray(rows)], dtype=float)
        col = rows[:, 0]
        if self.elementwise:
            return fn(col)
        try:
            return np.fromiter(map(fn, col.tolist()), dtype=float, count=len(col))
        except OverflowError:
            return np.fromiter(map(fn, col), dtype=float, count=len(col))

    def grad_norms(self, xs) -> np.ndarray:
        """|grad G(x)| for every row of an (m, n) array, equal bit for bit
        to np.linalg.norm(grad(x))."""
        return np.sqrt(row_dots(self.on_rows(self.grad_fn(), xs).reshape(-1, self.n)))

    def _as_point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.n,):
            raise DomainError(
                f"point of dimension {p.shape} for potential of dimension {self.n}"
            )
        return p


class Quadratic(Potential):
    """G(x) = |x|^2/2; gradient x; the linear-equation test case."""

    elementwise = True

    def __init__(self, n: int = 1):
        self.n = _dimension(n)
        self.coercive = True
        self.min_value = 0.0

    def grad_fn(self):
        return lambda x: x

    def energy_fn(self):
        if self.n == 1:
            return lambda x: 0.5 * x * x
        return lambda x: 0.5 * float(x.dot(x))


class PPower(Potential):
    """G(x) = |x|^p / p with p > 1; gradient x |x|^{p-2} (0 at the origin)."""

    def __init__(self, p: float, n: int = 1):
        if not 1 < p < math.inf:
            raise DomainError(f"PPower needs a finite p > 1, got {p}")
        self.p = float(p)
        self.n = _dimension(n)
        self.coercive = True
        self.min_value = 0.0

    def grad_fn(self):
        if self.n == 1:
            e = self.p - 1.0
            return lambda x: math.copysign(abs(x) ** e, x) if x != 0.0 else 0.0
        e, n = self.p - 2.0, self.n

        def g(x):
            r = math.sqrt(x.dot(x))
            return np.zeros(n) if r == 0.0 else x * r ** e

        return g

    def energy_fn(self):
        p = self.p
        if self.n == 1:
            return lambda x: abs(x) ** p / p

        # numpy's power: inf where a float's ** would raise
        return lambda x: float(np.float64(math.sqrt(x.dot(x))) ** p / p)


class DoubleWell(Potential):
    """G(x) = (x^2-1)^2/4: minima at +-1 (value 0), local max at 0 (value 1/4)."""

    elementwise = True

    def __init__(self):
        self.n = 1
        self.coercive = True
        self.min_value = 0.0

    def grad_fn(self):
        return lambda x: x * (x * x - 1.0)

    def energy_fn(self):
        def e(x):
            w = x * x - 1.0
            return 0.25 * w * w

        return e


class FlatBottom(Potential):
    """G(x) = (max(|x|-1, 0))^2 in R^n: argmin is the closed unit ball.

    C^1 with locally Lipschitz gradient; the canonical potential with
    non-isolated minima (1D argmin interval [-1, 1], 2D the unit disk).
    """

    def __init__(self, n: int = 1):
        self.n = _dimension(n)
        self.coercive = True
        self.min_value = 0.0

    def grad_fn(self):
        if self.n == 1:
            def g(x):
                e = abs(x) - 1.0
                return math.copysign(2.0 * e, x) if e > 0.0 else 0.0

            return g
        n = self.n

        def g(x):
            r = math.sqrt(x.dot(x))
            return np.zeros(n) if r <= 1.0 else (2.0 * (r - 1.0) / r) * x

        return g

    def energy_fn(self):
        if self.n == 1:
            def e(x):
                w = abs(x) - 1.0
                return w * w if w > 0.0 else 0.0

            return e

        def e(x):
            w = math.sqrt(x.dot(x)) - 1.0
            return w * w if w > 0.0 else 0.0

        return e


class Polynomial1D(Potential):
    """G(x) = sum coeffs[k] x^k (ascending coefficients)."""

    elementwise = True

    def __init__(self, coeffs: Sequence[float]):
        c = [float(v) for v in coeffs]
        if not all(map(math.isfinite, c)):
            raise DomainError(f"polynomial coefficients must be finite, got {c}")
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if len(c) < 2:
            raise DomainError("polynomial potential needs degree >= 1")
        self.coeffs = tuple(c)
        self.dcoeffs = tuple(k * c[k] for k in range(1, len(c)))
        self.n = 1
        deg = len(c) - 1
        self.coercive = deg % 2 == 0 and c[-1] > 0.0 and deg >= 2
        self.min_value = None
        if self.coercive:
            self.min_value = self._global_min()

    def _horner(self, coeffs: tuple, x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def _global_min(self) -> float:
        # Cauchy root bound for g puts all critical points inside [-R, R]
        lead = self.dcoeffs[-1]
        bound = 1.0 + max(abs(c / lead) for c in self.dcoeffs[:-1]) if len(self.dcoeffs) > 1 else 1.0
        pts = critical_points(self, (-bound, bound))
        return min(p.value for p in pts)

    def grad_fn(self):
        dc = self.dcoeffs
        h = self._horner
        return lambda x: h(dc, x)

    def energy_fn(self):
        c = self.coeffs
        h = self._horner
        return lambda x: h(c, x)


class Zero(Potential):
    """G identically 0: free motion with damping."""

    def __init__(self, n: int = 1):
        self.n = _dimension(n)
        self.coercive = False
        self.min_value = 0.0

    def grad_fn(self):
        if self.n == 1:
            return lambda x: 0.0
        n = self.n
        return lambda x: np.zeros(n)

    def energy_fn(self):
        return lambda x: 0.0


class Custom(Potential):
    """Potential from callbacks; energy and gradient must be pure.

    The only kind whose validated methods are its own: they call the
    callbacks and check the gradient's shape, and the closures wrap them.
    """

    def __init__(
        self,
        n: int,
        energy: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        coercive: bool = False,
        min_value: Optional[float] = None,
    ):
        self.n = _dimension(n)
        self.coercive = bool(coercive)
        self.min_value = min_value
        self._energy = energy
        self._grad = grad

    def energy(self, x) -> float:
        return float(self._energy(self._as_point(x)))

    def grad(self, x) -> np.ndarray:
        g = np.atleast_1d(np.asarray(self._grad(self._as_point(x)), dtype=float))
        if g.shape != (self.n,):
            raise DomainError(f"gradient callback returned shape {g.shape}")
        return g

    def grad_fn(self) -> Callable:
        grad = self.grad
        if self.n == 1:
            return lambda x: float(grad(np.array([x]))[0])
        return grad

    def energy_fn(self) -> Callable:
        energy = self.energy
        if self.n == 1:
            return lambda x: energy(np.array([x]))
        return energy


# ---------------------------------------------------------------------------
# critical sets


@dataclass(eq=False, slots=True)
class CriticalSet:
    """An interval [left, right] where g is 0 (left == right for an isolated
    root), with value, kind and concavity/convexity modulus at one point."""

    left: float
    right: float
    value: float
    kind: str  # LocalMin | LocalMax | Degenerate
    delta: float = 0.0

    def __repr__(self):
        return (
            f"CriticalSet([{self.left:.12g}, {self.right:.12g}], value={self.value:.12g}, "
            f"kind={self.kind}, delta={self.delta:.4g})"
        )


def _bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Plain bisection on a sign change; deterministic, ~53 halvings."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= ROOT_TOL * (1.0 + abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _zero_end(g: Callable[[float], float], z: float, step: float) -> float:
    """The last float where g is still 0 from z (g(z) == 0) toward step's
    sign: step out by step, 2 step, 4 step, ... until g != 0, then bisect
    on g == 0 to adjacent floats; +-inf if g is 0 to the float range's end."""
    edge = z
    while abs(z) < _FLOAT_MAX:
        nz = min(max(edge + step, -_FLOAT_MAX), _FLOAT_MAX)
        if g(nz) != 0.0:
            break
        z, step = nz, 2.0 * step
    else:
        return math.copysign(math.inf, step)
    while True:
        m = 0.5 * z + 0.5 * nz  # halves first: z and nz may be near the float range's end
        if not min(z, nz) < m < max(z, nz):
            return z
        z, nz = (m, nz) if g(m) == 0.0 else (z, m)


def _second_derivative(g: Callable[[float], float], x: float) -> float:
    h = 1.0e-6 * (1.0 + abs(x))
    return (g(x + h) - g(x - h)) / (2.0 * h)


# the bisections and flank probes run g on numpy scalars (xs[i]): an
# overflow reads as +-inf
@np.errstate(over="ignore")
def critical_points(pot: Potential, search_box: tuple[float, float]) -> list[CriticalSet]:
    """The critical sets of a 1D potential that meet the box, classified
    and sorted.

    Sign-scan with SCAN_CELLS cells, bisection to ROOT_TOL on each sign
    change; a run of nodes where g is 0 is one set, ending where g stops
    being 0 (see _zero_end), with value and delta at the run's midpoint.
    A bisection that lands where g is 0 ends its set the same way, with
    value and delta at the set's middle, so a stretch narrower than a
    cell gives the same set whether or not a node falls on it.
    The kind reads g one probe beyond each end; a set where g does not
    change sign, or with an infinite end, is Degenerate.
    """
    if pot.n != 1:
        raise UnsupportedError("critical point enumeration is 1D only")
    lo, hi = float(search_box[0]), float(search_box[1])
    # a width that overflows makes the scan's nodes NaN
    if not (lo < hi and math.isfinite(hi - lo)):
        raise DomainError(f"invalid search box [{lo}, {hi}]")

    g = pot.grad_fn()
    energy = pot.energy_fn()
    xs = np.linspace(lo, hi, SCAN_CELLS + 1)
    gs = pot.on_rows(g, xs[:, None])
    cell = (hi - lo) / SCAN_CELLS

    # (representative point, left, right)
    sets: list[tuple[float, float, float]] = []

    def push(r: float, left: float, right: float) -> None:
        # sets arrive in scan order, so a near-duplicate is the last one
        if not sets or abs(sets[-1][0] - r) > 1.0e-8 * (1.0 + abs(r)):
            sets.append((r, left, right))

    # the first node of each run of zero nodes, and the cells whose sign
    # changes strictly inside, visited left to right
    neg = gs < 0.0
    zero = gs == 0.0
    run_ends = iter(np.flatnonzero(zero & ~np.r_[zero[1:], False]).tolist())
    first = zero & ~np.r_[False, zero[:-1]]
    crossing = np.r_[(neg[:-1] != neg[1:]) & ~zero[:-1] & ~zero[1:], False]
    for i in np.flatnonzero(first | crossing):
        if zero[i]:
            j = next(run_ends)
            push(0.5 * (xs[i] + xs[j]), _zero_end(g, xs[i], -cell), _zero_end(g, xs[j], cell))
        else:
            r = _bisect_root(g, xs[i], xs[i + 1])
            if g(r) != 0.0:
                push(r, r, r)
                continue
            # the bisection landed on a zero stretch inside the cell, or on
            # an exact root: its ends, stepping out from r to the cell's
            # nodes, where g is not 0; value and delta at its middle
            left, right = _zero_end(g, r, xs[i] - r), _zero_end(g, r, xs[i + 1] - r)
            push(0.5 * (left + right), left, right)

    out: list[CriticalSet] = []
    for r, left, right in sets:
        # an infinite end has no flank, so no sign
        h = max(cell, 1.0e-7 * (1.0 + abs(r)))
        gl = g(left - h) if math.isfinite(left) else 0.0
        gr = g(right + h) if math.isfinite(right) else 0.0
        if gl < 0.0 < gr:
            kind = "LocalMin"
        elif gl > 0.0 > gr:
            kind = "LocalMax"
        else:  # flat out to infinity, or an inflection with horizontal tangent
            kind = "Degenerate"
        d2 = _second_derivative(g, r)
        delta = abs(d2) / 2.0 if abs(d2) > 1.0e-8 else 0.0
        out.append(CriticalSet(float(left), float(right), energy(r), kind, delta))
    return out


# ---------------------------------------------------------------------------
# certificates


@dataclass(eq=False, slots=True)
class ConvexityCertificate:
    """Result of a base-inequality check at quasi-random probes."""

    theta: float
    z: np.ndarray
    validity: str  # "Analytic" | "Sampled"
    violations: int
    probes: int
    worst_slack: float

    @property
    def holds(self) -> bool:
        return self.violations == 0

    def __repr__(self):
        return (
            f"ConvexityCertificate(theta={self.theta}, validity={self.validity}, "
            f"violations={self.violations}/{self.probes}, "
            f"worst_slack={self.worst_slack:.3g})"
        )


def _weyl_probes(n: int, count: int, radius: float, center: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic quasi-random points in the ball of given radius, as
    the rows of a (count, n) array.

    The additive (Weyl) low-discrepancy sequence k sqrt(p) mod 1 over the
    first n primes p, seedable by index offset, fills the cube around the
    ball.  Each point is moved radially, the cube's shell of max-norm s onto
    the sphere of radius s, since the ball holds too small a share of the
    cube to drop the points outside it (V_n / 2^n: 1.6% at n = 8, 4e-6 at
    n = 16).  For n = 1 the map is the identity.  The norms are
    np.linalg.norm's, row by row.
    """
    primes: list[int] = []
    p = 2
    while len(primes) < n:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    alphas = np.array([math.sqrt(p) % 1.0 for p in primes])
    k = seed + 1
    batches = []
    produced = 0
    while produced < count:
        ks = np.arange(k, k + count - produced, dtype=float)
        w = 2.0 * ((ks[:, None] * alphas) % 1.0) - 1.0
        norm = np.sqrt(row_dots(w))
        moved = norm > 0.0
        w[moved] *= (np.abs(w[moved]).max(axis=1) / norm[moved])[:, None]
        pts = center + radius * w
        k += len(ks)
        kept = pts[np.sqrt(row_dots(pts - center)) <= radius]  # guards rounding only
        if not len(kept):
            raise DomainError(f"no probe of radius {radius} about {center} is in the float range")
        batches.append(kept)
        produced += len(kept)
    return np.concatenate(batches)


def check_base_inequality(
    pot: Potential,
    theta: float,
    z,
    probes: int = 10_000,
    radius: float = 5.0,
    seed: int = 0,
) -> ConvexityCertificate:
    """Check G(x) - G(z) <= theta <g(x), x - z> at quasi-random probes.

    z must be a finite minimizer (|g(z)| <= 1e-8).  A probe is a violation
    when the slack theta<g(x), x-z> - (G(x) - G(z)) falls below
    -1e-9 (1 + |G(x)|).  The probes are evaluated together, each with the
    bits it has alone; the worst slack is the first least one in probe
    order, a NaN slack skipped.  The quadratic with theta=1/2 and the
    p-power with theta=1/p (z=0) hold as closed-form identities and are
    tagged Analytic.
    """
    if not theta >= 0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if not (isinstance(probes, numbers.Integral) and probes >= 1 and 0 < radius < math.inf):
        raise DomainError(
            f"need a whole number of probes >= 1 and a finite positive radius, "
            f"got {probes} and {radius}"
        )
    zp = pot._as_point(z)
    if not np.all(np.isfinite(zp)):
        raise DomainError(f"anchor z must be finite, got {zp}")
    gz = pot.grad(zp)
    if not float(np.linalg.norm(gz)) <= 1.0e-8:
        raise DomainError(f"anchor z is not a critical point: |g(z)|={np.linalg.norm(gz):.3g}")

    analytic = (
        float(np.linalg.norm(zp)) == 0.0
        and (
            (isinstance(pot, Quadratic) and theta == 0.5)
            or (isinstance(pot, PPower) and theta == 1.0 / pot.p)
        )
    )

    Gz = pot.energy(zp)
    xs = _weyl_probes(pot.n, probes, radius, zp, seed)
    Gx = pot.on_rows(pot.energy_fn(), xs)
    gx = pot.on_rows(pot.grad_fn(), xs).reshape(-1, pot.n)
    slack = theta * row_dots(gx, xs - zp) - (Gx - Gz)
    least = np.fmin.reduce(slack, initial=math.inf)
    worst = float(slack[np.argmax(slack == least)]) if least < math.inf else math.inf
    violations = int(np.count_nonzero(slack < -VIOLATION_REL * (1.0 + np.abs(Gx))))
    return ConvexityCertificate(
        theta=theta,
        z=zp,
        validity="Analytic" if analytic and violations == 0 else "Sampled",
        violations=violations,
        probes=probes,
        worst_slack=worst,
    )


def check_strong_convexity_window(
    pot: Potential,
    xstar: float,
    eps: float,
    delta: float,
    concave: bool = False,
) -> tuple[bool, float]:
    """Grid test of G(y) >= G(x) + (y-x)G'(x) + delta (y-x)^2 on the window
    (xstar-eps, xstar+eps), 200x200 (x, y) pairs.

    With concave=True the inequality is applied to -G (strong concavity).
    Returns (passed, worst slack); the pass tolerance is 1e-12 on the
    window's energy scale.
    """
    if pot.n != 1:
        raise DomainError("strong convexity window check is 1D only")
    if not (eps > 0 and delta > 0):
        raise DomainError("need eps > 0 and delta > 0")
    if not math.isfinite(xstar):
        raise DomainError(f"window centre must be finite, got {xstar}")
    sgn = -1.0 if concave else 1.0
    xs = np.linspace(xstar - eps, xstar + eps, 200)
    G = sgn * pot.on_rows(pot.energy_fn(), xs[:, None])
    dG = sgn * pot.on_rows(pot.grad_fn(), xs[:, None])
    dxy = xs[None, :] - xs[:, None]  # y - x
    slack = G[None, :] - G[:, None] - dxy * dG[:, None] - delta * dxy * dxy
    worst = float(slack.min())
    tol = 1.0e-12 * (1.0 + float(np.abs(G).max()))
    return worst >= -tol, worst


def plateau_interval(
    pot: Potential, xstar: float, search_box: tuple[float, float]
) -> tuple[float, float]:
    """Level-set bracket (X1, X2) of a local maximum's value.

    X1 = sup{x <= x* : G(x) > G(x*)}, X2 = inf{x >= x* : G(x) > G(x*)};
    located by outward scan then bisection on G - G(x*) to ROOT_TOL.
    """
    if pot.n != 1:
        raise DomainError("plateau interval is 1D only")
    if not pot.coercive:
        raise DomainError("plateau interval requires a coercive potential")
    lo, hi = float(search_box[0]), float(search_box[1])
    if not (lo < xstar < hi):
        raise DomainError(f"x*={xstar} not inside box [{lo}, {hi}]")
    energy = pot.energy_fn()
    lam = energy(xstar)

    def bracket(end: float) -> float:
        xs = xstar + (end - xstar) * np.arange(1, SCAN_CELLS + 1) / SCAN_CELLS
        above = pot.on_rows(energy, xs[:, None]) > lam
        if not above.any():
            raise DomainError(
                f"level G(x*)={lam:.6g} never exceeded toward {end}; enlarge the box"
            )
        i = int(above.argmax())
        # G(prev) <= lam < G(x): bisect on G - lam
        x, prev = xs[i].item(), xs[i - 1].item() if i else xstar
        a, b = (x, prev) if x < prev else (prev, x)
        return _bisect_root(lambda u: energy(u) - lam, a, b)

    return bracket(lo), bracket(hi)

