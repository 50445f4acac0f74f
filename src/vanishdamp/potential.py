"""Potentials G : R^n -> R with gradients, critical points, and convexity
certificates.

Ships the canonical test potentials for the damped system: quadratic,
p-power, the odd signed power matching the exact power-law solution, the
double well, the flat-bottom potential whose argmin is the closed unit ball,
1D polynomials, and the zero potential.  On top of evaluation the module
locates critical points of 1D potentials, checks the base inequality
G(x) - G(z) <= theta <grad G(x), x - z> on quasi-random probes, checks
strong convexity/concavity on windows, and brackets the plateau interval of
a local maximum's level set.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, UnsupportedError

# critical-point scan: number of cells per search box, bisection tolerance
SCAN_CELLS = 10_000
ROOT_TOL = 1.0e-10

# base-inequality violation threshold: slack below -1e-9*(1+|G(x)|)
VIOLATION_REL = 1.0e-9


class Potential:
    """Base interface; subclasses are immutable after construction.

    Two ways to evaluate: the array API, ``energy(x)`` and ``grad(x)`` on
    points of shape (n,), validated and valid in any dimension; and, for
    n = 1, the scalar closures from ``scalar_energy_fn()`` and
    ``scalar_grad_fn()``, which take and return plain floats.
    """

    n: int
    kind: str
    coercive: bool
    min_value: Optional[float]
    #: radius of a flat argmin ball centered at the origin, when the
    #: minimizer set is a continuum (FlatBottom); None for isolated minima
    argmin_ball: Optional[float] = None

    def energy(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def _as_point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.n,):
            raise DomainError(
                f"point of dimension {p.shape} for potential of dimension {self.n}"
            )
        return p

    # Scalar closures on plain floats, for the integrator hot loop and the
    # 1D geometry scans.  The defaults wrap the array API (only Custom uses
    # them); builtins override the underscore hooks with plain float math.
    def scalar_grad_fn(self) -> Callable[[float], float]:
        if self.n != 1:
            raise DomainError("scalar gradient closure needs n=1")
        return self._scalar_grad()

    def scalar_energy_fn(self) -> Callable[[float], float]:
        if self.n != 1:
            raise DomainError("scalar energy closure needs n=1")
        return self._scalar_energy()

    def _scalar_grad(self) -> Callable[[float], float]:
        grad = self.grad
        return lambda x: float(grad(np.array([x]))[0])

    def _scalar_energy(self) -> Callable[[float], float]:
        energy = self.energy
        return lambda x: energy(np.array([x]))


class Quadratic(Potential):
    """G(x) = |x|^2/2; gradient x; the linear-equation test case."""

    def __init__(self, n: int = 1):
        self.n = int(n)
        self.kind = "Quadratic"
        self.coercive = True
        self.min_value = 0.0

    def energy(self, x) -> float:
        p = self._as_point(x)
        return 0.5 * float(p @ p)

    def grad(self, x) -> np.ndarray:
        return self._as_point(x).copy()

    def _scalar_grad(self):
        return lambda x: x

    def _scalar_energy(self):
        return lambda x: 0.5 * x * x


class PPower(Potential):
    """G(x) = |x|^p / p with p > 1; gradient x |x|^{p-2} (0 at the origin)."""

    def __init__(self, p: float, n: int = 1):
        if not p > 1:
            raise DomainError(f"PPower needs p > 1, got {p}")
        self.p = float(p)
        self.n = int(n)
        self.kind = "PPower"
        self.coercive = True
        self.min_value = 0.0

    def energy(self, x) -> float:
        p = self._as_point(x)
        return float(np.linalg.norm(p) ** self.p / self.p)

    def grad(self, x) -> np.ndarray:
        pt = self._as_point(x)
        r = float(np.linalg.norm(pt))
        if r == 0.0:
            return np.zeros(self.n)
        return pt * r ** (self.p - 2.0)

    def _scalar_grad(self):
        e = self.p - 1.0
        return lambda x: math.copysign(abs(x) ** e, x) if x != 0.0 else 0.0

    def _scalar_energy(self):
        p = self.p
        return lambda x: abs(x) ** p / p


class SignedPower(Potential):
    """1D odd gradient sign(x)|x|^q with q = 1 + 2/beta.

    G(x) = |x|^{q+1}/(q+1) is C^1 and even; the exact power-law solution of
    the matched damped system lives on x > 0 where the odd extension is
    irrelevant.
    """

    def __init__(self, beta: float):
        if not beta > 0:
            raise DomainError(f"SignedPower needs beta > 0, got {beta}")
        self.beta = float(beta)
        self.q = 1.0 + 2.0 / self.beta
        self.n = 1
        self.kind = "SignedPower"
        self.coercive = True
        self.min_value = 0.0

    def energy(self, x) -> float:
        p = self._as_point(x)
        return float(abs(p[0]) ** (self.q + 1.0) / (self.q + 1.0))

    def grad(self, x) -> np.ndarray:
        p = self._as_point(x)
        v = p[0]
        return np.array([math.copysign(abs(v) ** self.q, v) if v != 0.0 else 0.0])

    def _scalar_grad(self):
        q = self.q
        return lambda x: math.copysign(abs(x) ** q, x) if x != 0.0 else 0.0

    def _scalar_energy(self):
        r = self.q + 1.0
        return lambda x: abs(x) ** r / r


class DoubleWell(Potential):
    """G(x) = (x^2-1)^2/4: minima at +-1 (value 0), local max at 0 (value 1/4)."""

    def __init__(self):
        self.n = 1
        self.kind = "DoubleWell"
        self.coercive = True
        self.min_value = 0.0

    def energy(self, x) -> float:
        v = self._as_point(x)[0]
        w = v * v - 1.0
        return 0.25 * w * w

    def grad(self, x) -> np.ndarray:
        v = self._as_point(x)[0]
        return np.array([v * (v * v - 1.0)])

    def _scalar_grad(self):
        return lambda x: x * (x * x - 1.0)

    def _scalar_energy(self):
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
        self.n = int(n)
        self.kind = "FlatBottom"
        self.coercive = True
        self.min_value = 0.0
        self.argmin_ball = 1.0

    def energy(self, x) -> float:
        r = float(np.linalg.norm(self._as_point(x)))
        e = r - 1.0
        return e * e if e > 0.0 else 0.0

    def grad(self, x) -> np.ndarray:
        p = self._as_point(x)
        r = float(np.linalg.norm(p))
        if r <= 1.0:
            return np.zeros(self.n)
        return (2.0 * (r - 1.0) / r) * p

    def _scalar_grad(self):
        def g(x):
            e = abs(x) - 1.0
            return math.copysign(2.0 * e, x) if e > 0.0 else 0.0

        return g

    def _scalar_energy(self):
        def e(x):
            w = abs(x) - 1.0
            return w * w if w > 0.0 else 0.0

        return e


class Polynomial1D(Potential):
    """G(x) = sum coeffs[k] x^k (ascending coefficients)."""

    def __init__(self, coeffs: Sequence[float]):
        c = [float(v) for v in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if len(c) < 2:
            raise DomainError("polynomial potential needs degree >= 1")
        self.coeffs = tuple(c)
        self.dcoeffs = tuple(k * c[k] for k in range(1, len(c)))
        self.n = 1
        self.kind = "Polynomial1D"
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

    def energy(self, x) -> float:
        return self._horner(self.coeffs, self._as_point(x)[0])

    def grad(self, x) -> np.ndarray:
        return np.array([self._horner(self.dcoeffs, self._as_point(x)[0])])

    def _scalar_grad(self):
        dc = self.dcoeffs
        h = self._horner
        return lambda x: h(dc, x)

    def _scalar_energy(self):
        c = self.coeffs
        h = self._horner
        return lambda x: h(c, x)


class Zero(Potential):
    """G identically 0: free motion with damping."""

    def __init__(self, n: int = 1):
        self.n = int(n)
        self.kind = "Zero"
        self.coercive = False
        self.min_value = 0.0

    def energy(self, x) -> float:
        self._as_point(x)
        return 0.0

    def grad(self, x) -> np.ndarray:
        self._as_point(x)
        return np.zeros(self.n)

    def _scalar_grad(self):
        return lambda x: 0.0

    def _scalar_energy(self):
        return lambda x: 0.0


class Custom(Potential):
    """Potential from callbacks; energy and gradient must be pure."""

    def __init__(
        self,
        n: int,
        energy: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        coercive: bool = False,
        min_value: Optional[float] = None,
    ):
        self.n = int(n)
        self.kind = "Custom"
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


# ---------------------------------------------------------------------------
# critical points


class CriticalPoint:
    """A root of g with its value, kind, and concavity/convexity modulus."""

    __slots__ = ("location", "value", "kind", "delta")

    def __init__(self, location: float, value: float, kind: str, delta: float = 0.0):
        self.location = location
        self.value = value
        self.kind = kind  # LocalMin | LocalMax | Saddle | Degenerate
        self.delta = delta

    def __repr__(self):
        return (
            f"CriticalPoint(x={self.location:.12g}, value={self.value:.12g}, "
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


def _second_derivative(g: Callable[[float], float], x: float) -> float:
    h = 1.0e-6 * (1.0 + abs(x))
    return (g(x + h) - g(x - h)) / (2.0 * h)


def critical_points(pot: Potential, search_box: tuple[float, float]) -> list[CriticalPoint]:
    """All roots of g in the box for 1D potentials, classified and sorted.

    Sign-scan with SCAN_CELLS cells, bisection to ROOT_TOL on each sign
    change; a root where g does not change sign is Degenerate.  Potentials
    whose critical set is a continuum (FlatBottom, Zero) are rejected: a
    finite list cannot represent them (their geometry is carried by the
    ``argmin_ball`` field instead).
    """
    if pot.kind in ("FlatBottom", "Zero"):
        raise UnsupportedError(
            f"{pot.kind} has a continuum of critical points; "
            "not representable as a finite list"
        )
    if pot.n != 1:
        raise UnsupportedError("critical point enumeration is 1D only")
    lo, hi = float(search_box[0]), float(search_box[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"invalid search box [{lo}, {hi}]")

    g = pot.scalar_grad_fn()
    energy = pot.scalar_energy_fn()
    xs = np.linspace(lo, hi, SCAN_CELLS + 1)
    gs = np.array([g(x) for x in xs])

    roots: list[float] = []

    def push(r: float) -> None:
        for existing in roots:
            if abs(existing - r) <= 1.0e-8 * (1.0 + abs(r)):
                return
        roots.append(r)

    # cells whose left node is a root, or whose sign changes strictly
    # inside; visited left to right so push sees the roots in scan order
    neg = gs < 0.0
    zero = gs == 0.0
    flagged = zero[:-1] | ((neg[:-1] != neg[1:]) & ~zero[1:])
    for i in np.flatnonzero(flagged):
        if zero[i]:
            push(xs[i])
        else:
            push(_bisect_root(g, xs[i], xs[i + 1]))
    if zero[-1]:
        push(xs[-1])

    out: list[CriticalPoint] = []
    for r in sorted(roots):
        # flanking signs, stepping outward past numerically-zero cells
        h = max((hi - lo) / SCAN_CELLS, 1.0e-7 * (1.0 + abs(r)))
        gl = gr = 0.0
        for k in range(1, 50):
            gl = g(r - k * h)
            if gl != 0.0 or r - k * h < lo:
                break
        for k in range(1, 50):
            gr = g(r + k * h)
            if gr != 0.0 or r + k * h > hi:
                break
        if gl < 0.0 < gr:
            kind = "LocalMin"
        elif gl > 0.0 > gr:
            kind = "LocalMax"
        elif gl == 0.0 and gr == 0.0:
            kind = "Degenerate"
        elif gl * gr > 0.0:
            kind = "Degenerate"  # inflection with horizontal tangent
        else:
            kind = "Degenerate"
        d2 = _second_derivative(g, r)
        delta = abs(d2) / 2.0 if abs(d2) > 1.0e-8 else 0.0
        out.append(CriticalPoint(float(r), energy(r), kind, delta))
    return out


# ---------------------------------------------------------------------------
# certificates


class ConvexityCertificate:
    """Result of a base-inequality check at quasi-random probes."""

    __slots__ = ("theta", "z", "validity", "violations", "probes", "worst_slack")

    def __init__(self, theta, z, validity, violations, probes, worst_slack):
        self.theta = theta
        self.z = z
        self.validity = validity  # "Analytic" | "Sampled"
        self.violations = violations
        self.probes = probes
        self.worst_slack = worst_slack

    @property
    def holds(self) -> bool:
        return self.violations == 0

    def __repr__(self):
        return (
            f"ConvexityCertificate(theta={self.theta}, validity={self.validity}, "
            f"violations={self.violations}/{self.probes}, "
            f"worst_slack={self.worst_slack:.3g})"
        )


# square roots of primes: an additive (Weyl) low-discrepancy generator;
# deterministic and seedable by index offset
_WEYL_ALPHA = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19)]


def _weyl_probes(n: int, count: int, radius: float, center: np.ndarray, seed: int):
    """Deterministic quasi-random points in the ball of given radius."""
    alphas = _WEYL_ALPHA[:n]
    k = seed + 1
    produced = 0
    while produced < count:
        u = np.array([(k * a) % 1.0 for a in alphas])
        pt = center + radius * (2.0 * u - 1.0)
        k += 1
        if np.linalg.norm(pt - center) <= radius:
            produced += 1
            yield pt


def check_base_inequality(
    pot: Potential,
    theta: float,
    z,
    probes: int = 10_000,
    radius: float = 5.0,
    seed: int = 0,
) -> ConvexityCertificate:
    """Check G(x) - G(z) <= theta <g(x), x - z> at quasi-random probes.

    z must be a minimizer (|g(z)| <= 1e-8).  A probe is a violation when the
    slack theta<g(x), x-z> - (G(x) - G(z)) falls below -1e-9 (1 + |G(x)|).
    The quadratic with theta=1/2 and the p-power with theta=1/p (z=0) hold
    as closed-form identities and are tagged Analytic.
    """
    if theta < 0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if probes < 1:
        raise DomainError("need at least one probe")
    zp = pot._as_point(z)
    gz = pot.grad(zp)
    if float(np.linalg.norm(gz)) > 1.0e-8:
        raise DomainError(f"anchor z is not a critical point: |g(z)|={np.linalg.norm(gz):.3g}")

    analytic = (
        float(np.linalg.norm(zp)) == 0.0
        and (
            (pot.kind == "Quadratic" and theta == 0.5)
            or (pot.kind == "PPower" and theta == 1.0 / pot.p)
        )
    )

    Gz = pot.energy(zp)
    violations = 0
    worst = math.inf
    for x in _weyl_probes(pot.n, probes, radius, zp, seed):
        Gx = pot.energy(x)
        slack = theta * float(pot.grad(x) @ (x - zp)) - (Gx - Gz)
        worst = min(worst, slack)
        if slack < -VIOLATION_REL * (1.0 + abs(Gx)):
            violations += 1
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
    if eps <= 0 or delta <= 0:
        raise DomainError("need eps > 0 and delta > 0")
    sgn = -1.0 if concave else 1.0
    xs = np.linspace(xstar - eps, xstar + eps, 200)
    energy = pot.scalar_energy_fn()
    g = pot.scalar_grad_fn()
    G = sgn * np.array([energy(x) for x in xs])
    dG = sgn * np.array([g(x) for x in xs])
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
    energy = pot.scalar_energy_fn()
    lam = energy(xstar)

    def bracket(direction: float) -> float:
        end = lo if direction < 0 else hi
        steps = SCAN_CELLS
        prev = xstar
        for i in range(1, steps + 1):
            x = xstar + (end - xstar) * i / steps
            if energy(x) > lam:
                # G(prev) <= lam < G(x): bisect on G - lam
                a, b = (x, prev) if x < prev else (prev, x)
                return _bisect_root(lambda u: energy(u) - lam, a, b)
            prev = x
        raise DomainError(
            f"level G(x*)={lam:.6g} never exceeded toward {end}; enlarge the box"
        )

    x1 = bracket(-1.0)
    x2 = bracket(+1.0)
    return x1, x2


def estimate_lipschitz(
    pot: Potential, radius: float, samples: int = 2000, seed: int = 0
) -> float:
    """Sampled Lipschitz constant of g on the ball of given radius."""
    pts = list(_weyl_probes(pot.n, samples, radius, np.zeros(pot.n), seed))
    best = 0.0
    for i in range(0, len(pts) - 1, 2):
        x, y = pts[i], pts[i + 1]
        d = float(np.linalg.norm(x - y))
        if d < 1.0e-12:
            continue
        best = max(best, float(np.linalg.norm(pot.grad(x) - pot.grad(y))) / d)
    return best
