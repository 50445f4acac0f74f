"""Potential invariants.

Analytic gradients are checked against central differences of the
energy, the array API and the scalar closures against each other,
critical-point enumeration and certificates against closed-form geometry.
"""

import math
import warnings

import numpy as np
import pytest

from vanishdamp import (
    CustomPotential,
    DomainError,
    DoubleWell,
    FlatBottom,
    Polynomial1D,
    PPower,
    Quadratic,
    UnsupportedError,
    Zero,
)
from vanishdamp.integrate import _energies
from vanishdamp.potential import (
    Potential,
    check_base_inequality,
    check_strong_convexity_window,
    critical_points,
    plateau_interval,
)

# (potential, predicate selecting points where the energy is C^2 so the
# central difference of the energy converges at second order)
SMOOTH_CASES = [
    (Quadratic(1), lambda p: True),
    (Quadratic(3), lambda p: True),
    (PPower(1.5), lambda p: abs(p[0]) > 1e-2),
    (PPower(3.0, n=2), lambda p: float(np.linalg.norm(p)) > 1e-2),
    (PPower(4.0), lambda p: True),
    (DoubleWell(), lambda p: True),
    (FlatBottom(1), lambda p: abs(abs(p[0]) - 1.0) > 1e-2),
    (FlatBottom(2), lambda p: abs(float(np.linalg.norm(p)) - 1.0) > 1e-2),
    (Polynomial1D([0.0, -1.0, 0.5, 0.25]), lambda p: True),
    (Zero(2), lambda p: True),
    (PPower(3.0), lambda p: abs(p[0]) > 1e-2),
]


@pytest.mark.parametrize("pot,smooth", SMOOTH_CASES,
                         ids=lambda c: type(c).__name__ if isinstance(c, Potential) else "")
def test_gradient_matches_finite_differences(pot, smooth):
    rng = np.random.default_rng(0)
    h = 1e-6
    checked = 0
    while checked < 1000:
        p = rng.uniform(-5.0, 5.0, size=pot.n)
        if not smooth(p):
            continue
        checked += 1
        g = pot.grad(p)
        for k in range(pot.n):
            e = np.zeros(pot.n)
            e[k] = h
            fd = (pot.energy(p + e) - pot.energy(p - e)) / (2.0 * h)
            assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-6)


_TINY_TO_LARGE = np.geomspace(1e-300, 1e3, 301)
_SIGNED_GRID = np.concatenate([[0.0], _TINY_TO_LARGE, -_TINY_TO_LARGE])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "pot",
    [Quadratic(1), PPower(1.5), PPower(3.0), DoubleWell(), FlatBottom(1),
     Polynomial1D([0.0, 2.0, 0.0, 0.0, 1.0]), Zero(1), PPower(6.0)],
    ids=lambda p: type(p).__name__,
)
def test_gradient_code_paths_agree(pot):
    # the validated methods run the closures, so the two agree exactly,
    # down to the underflow range where a norm that squares the point
    # would not
    fn = pot.grad_fn()
    en = pot.energy_fn()
    for x in np.concatenate([np.linspace(-4.0, 4.0, 83), _SIGNED_GRID]).tolist():
        assert _same_bits(fn(x), pot.grad(np.array([x]))[0]), x
        assert _same_bits(en(x), pot.energy(np.array([x]))), x


def test_builtins_state_g_only_in_their_closures():
    # one definition of G and grad G per builtin: the validated methods
    # are the base class's, and only Custom, whose callbacks are G and
    # grad G, keeps its own
    builtins = [cls for cls in Potential.__subclasses__() if cls is not CustomPotential]
    assert {cls.__name__ for cls in builtins} == {
        "Quadratic", "PPower", "DoubleWell", "FlatBottom", "Polynomial1D", "Zero"
    }
    for cls in builtins:
        assert "energy" not in vars(cls) and "grad" not in vars(cls), cls.__name__
        assert "energy_fn" in vars(cls) and "grad_fn" in vars(cls), cls.__name__
    assert {"energy", "grad", "energy_fn", "grad_fn"} <= set(vars(CustomPotential))


def test_gradients_vanish_at_origin():
    for pot in (Quadratic(2), PPower(1.5), PPower(4.0), FlatBottom(2), Zero(3)):
        assert np.all(pot.grad(np.zeros(pot.n)) == 0.0)


def test_dimension_validation():
    pot = Quadratic(2)
    with pytest.raises(DomainError):
        pot.energy([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        PPower(0.9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PPower(math.inf),
        lambda: PPower(math.nan),
        lambda: Polynomial1D([0.0, math.nan, 1.0]),
        lambda: Polynomial1D([0.0, 0.0, math.inf]),
    ],
    ids=["PPower_inf", "PPower_nan", "Polynomial1D_nan", "Polynomial1D_inf"],
)
def test_non_finite_parameter_is_a_domain_error(make):
    with pytest.raises(DomainError, match="finite"):
        make()


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize(
    "make",
    [
        Quadratic,
        lambda n: PPower(2.0, n),
        FlatBottom,
        Zero,
        lambda n: CustomPotential(n, lambda x: 0.0, lambda x: np.zeros_like(x)),
    ],
    ids=["Quadratic", "PPower", "FlatBottom", "Zero", "Custom"],
)
def test_dimension_below_one_is_a_domain_error(make, n):
    with pytest.raises(DomainError, match=f"dimension must be >= 1, got {n}"):
        make(n)


# ---------------------------------------------------------------------------
# specific geometry


def test_double_well_critical_points():
    pts = critical_points(DoubleWell(), (-2.0, 2.0))
    assert len(pts) == 3
    assert [p.kind for p in pts] == ["LocalMin", "LocalMax", "LocalMin"]
    assert [p.left for p in pts] == [p.right for p in pts]
    assert [p.left for p in pts] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
    assert [p.value for p in pts] == pytest.approx([0.0, 0.25, 0.0], abs=1e-12)
    # |G''|/2 at the three roots: G'' = 3x^2 - 1
    assert [p.delta for p in pts] == pytest.approx([1.0, 0.5, 1.0], rel=1e-4)


def _narrow_floor_grad(p):
    # sign(x) 2 max(|x| - 1e-6, 0): g is 0 exactly on [-1e-6, 1e-6]
    x = float(p[0])
    return np.array([math.copysign(2.0 * max(abs(x) - 1.0e-6, 0.0), x)])


# G = max(|x| - 1e-6, 0)^2: a floor far narrower than a scan cell
_NARROW_FLOOR = CustomPotential(
    1, energy=lambda p: max(abs(float(p[0])) - 1.0e-6, 0.0) ** 2, grad=_narrow_floor_grad,
)


# (left, right, value, kind, delta) of every set; an isolated root's
# left == right is the location found before the sign scan was
# vectorised, bit for bit, its sign of zero included
CRITICAL_POINT_PINS = [
    # 0.0 and +-1.0 are scan nodes where g is exactly 0, and so is no
    # float beside them
    (DoubleWell(), (-2.0, 2.0), [
        (-1.0, -1.0, 0.0, "LocalMin", 0.9999999999891226),
        (0.0, 0.0, 0.25, "LocalMax", 0.4999999999995),
        (1.0, 1.0, 0.0, "LocalMin", 0.9999999999891226),
    ]),
    # no root on a node: three bisections
    (DoubleWell(), (-1.7, 2.3), [
        (-1.0000000000953673, -1.0000000000953673, 9.094916117993612e-21, "LocalMin",
         1.000000000270951),
        (-4.768349377572879e-11, -4.768349377572879e-11, 0.25, "LocalMax", 0.4999999999995),
        (0.9999999999046327, 0.9999999999046327, 9.094916117993612e-21, "LocalMin",
         0.9999999997211714),
    ]),
    # g = 3 (x - 1/2)^2: double root, no sign change, g == 0 on a node;
    # Horner's rounding makes g exactly 0 on a stretch about 6e-9 wide
    # around it, and the set's ends are the last floats of that stretch
    (Polynomial1D([0.0, 0.75, -1.5, 1.0]), (-1.0, 2.0), [
        (0.49999999628067265, 0.500000002288818, 0.125, "Degenerate", 0.0),
    ]),
    # g = x^2 - 1e-20: roots at +-1e-10 in the two cells beside the node 0;
    # the second bisection is a duplicate and is dropped
    (Polynomial1D([0.0, -1.0e-20, 0.0, 1.0 / 3.0]), (-1.0, 1.0), [
        (-1.4305114746092175e-10, -1.4305114746092175e-10, 4.547295193725858e-31, "Degenerate",
         0.0),
    ]),
    # x^399 underflows to 0 for |x| below about 0.155: the 773 scan nodes
    # in a row where g is 0 are one set, whose ends are the last floats
    # where g is still 0, classified by the signs beyond them; its value
    # and delta are read at the run's node midpoint
    (PPower(400.0), (-2.0, 2.0), [
        (-0.15450917454169333, 0.15450917454169333, 0.0, "LocalMin", 0.0),
    ]),
    # g is 0 exactly where |x| <= 1, so each end of the floor is the float
    # +-1.0; over (-0.5, 3) the floor runs past the box's left edge and its
    # end is found beyond it
    (FlatBottom(1), (-3.0, 3.0), [(-1.0, 1.0, 0.0, "LocalMin", 0.0)]),
    (FlatBottom(1), (-0.5, 3.0), [(-1.0, 1.0, 0.0, "LocalMin", 0.0)]),
    # g is 0 out to the end of the float range: no flank, so no sign
    (Zero(1), (-2.0, 2.0), [(-math.inf, math.inf, 0.0, "Degenerate", 0.0)]),
    # x^1199 underflows to 0 for |x| below about 0.537, a run that passes
    # the box's left edge
    (PPower(1200.0), (-0.1, 1.9), [
        (-0.5371584115247068, 0.5371584115247068, 0.0, "LocalMin", 0.0),
    ]),
    # the hump's bisection lands on 0.0, where g is exactly 0 and no float
    # beside it is: the set stays the point
    (DoubleWell(), (-1.9375, 2.0625), [
        (-1.0, -1.0, 0.0, "LocalMin", 0.9999999999891226),
        (0.0, 0.0, 0.25, "LocalMax", 0.4999999999995),
        (0.9999999999046327, 0.9999999999046327, 9.094916117993612e-21, "LocalMin",
         0.9999999997211714),
    ]),
    # x^3 underflows to 0 for |x| below about 1.4e-108: the set is the
    # same whether a node (-2, 2) or a bisection (-1.9375, 2.0625) finds 0
    (PPower(4.0), (-2.0, 2.0), [
        (-1.3518179858534569e-108, 1.3518179858534569e-108, 0.0, "LocalMin", 0.0),
    ]),
    (PPower(4.0), (-1.9375, 2.0625), [
        (-1.3518179858534569e-108, 1.3518179858534569e-108, 0.0, "LocalMin", 0.0),
    ]),
    # a floor narrower than a cell: over (-1, 1.3) no node falls on it and
    # the bisection lands inside it; over (-1, 1) the node 0 does
    (_NARROW_FLOOR, (-1.0, 1.3), [(-1.0e-6, 1.0e-6, 0.0, "LocalMin", 0.0)]),
    (_NARROW_FLOOR, (-1.0, 1.0), [(-1.0e-6, 1.0e-6, 0.0, "LocalMin", 0.0)]),
]


@pytest.mark.parametrize("pot, box, want", CRITICAL_POINT_PINS)
def test_critical_points_are_pinned(pot, box, want):
    got = [(p.left, p.right, p.value, p.kind, p.delta) for p in critical_points(pot, box)]
    assert got == want

    def signs(sets):
        return [(math.copysign(1.0, left), math.copysign(1.0, right)) for left, right, *_ in sets]

    assert signs(got) == signs(want)


# points whose cube (from 1e103) or square (from 1e155) overflows to
# +-inf, and inf itself, where 0 * inf is NaN
_OVERFLOWING = np.array([1e103, 1e155, 1e200, 1e308, math.inf])


@pytest.mark.parametrize(
    "pot",
    [Quadratic(1), PPower(1.5), PPower(2.5), PPower(3.0), PPower(4.0), DoubleWell(), FlatBottom(1),
     Polynomial1D([0.0, 0.75, -1.5, 1.0]), Zero(1), PPower(6.0), PPower(4.5),
     PPower(2.0 + 2.0 / 3.0),
     CustomPotential(1, energy=lambda x: float(x[0] ** 4), grad=lambda x: 4.0 * x ** 3)],
    ids=lambda p: type(p).__name__,
)
def test_scalar_gradient_is_bitwise_the_same_on_python_floats(pot):
    # the stepper runs the closures on Python floats, and on_rows (the
    # scans of critical_points, plateau_interval and the window check,
    # grad_norms, the trajectory's energies) on Python floats or, for a
    # kind declared elementwise, once on the whole column; the validated
    # methods and the pinned roots run them on numpy float64 scalars,
    # whose `**` and arithmetic are numpy's
    tiny = np.geomspace(1e-300, 1e3, 2001)
    grid = np.concatenate([np.linspace(-5.0, 5.0, 20_001), tiny, -tiny, [0.0, -0.0]])
    # PPower, FlatBottom and Custom branch or take powers: a float each
    assert pot.elementwise == isinstance(pot, (Quadratic, DoubleWell, Polynomial1D))
    for fn in (pot.grad_fn(), pot.energy_fn()):
        on_floats = np.array([fn(x) for x in grid.tolist()], dtype=float)
        on_scalars = np.array([fn(x) for x in grid], dtype=float)
        assert _same_bits(on_floats, on_scalars)
        called_on = set()

        def spy(x):
            called_on.add(type(x))
            return fn(x)

        if not pot.elementwise:
            assert _same_bits(pot.on_rows(spy, grid[:, None]), on_floats)
            assert called_on == {float}
            continue
        # as silent as float arithmetic where a value overflows or is NaN
        wide = np.concatenate([grid, _OVERFLOWING, -_OVERFLOWING])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_column = pot.on_rows(spy, wide[:, None])
        assert called_on == {np.ndarray}
        assert _same_bits(on_column, [fn(x) for x in wide.tolist()])


@pytest.mark.parametrize(
    "pot",
    [Quadratic(1), PPower(1.5), PPower(4.0), PPower(6.0), PPower(2.0 + 2.0 / 3.0), DoubleWell(),
     FlatBottom(1), Polynomial1D([0.0, 0.75, -1.5, 1.0]), Zero(1),
     CustomPotential(1, energy=lambda x: float(x[0] ** 4), grad=lambda x: 4.0 * x ** 3),
     Quadratic(3), PPower(4.0, n=3), FlatBottom(3), Zero(3),
     CustomPotential(3, energy=lambda x: float(x @ x), grad=lambda x: 2.0 * x)],
    ids=["Quadratic_n1", "PPower1.5_n1", "PPower4_n1", "PPower6_n1", "PPower8/3_n1",
         "DoubleWell", "FlatBottom_n1", "Polynomial1D", "Zero_n1", "Custom_n1",
         "Quadratic_n3", "PPower4_n3", "FlatBottom_n3", "Zero_n3", "Custom_n3"],
)
def test_grad_norms_match_the_per_row_norm_bitwise(pot):
    # the gnorm column of the series CSV was np.linalg.norm(grad(x)) row by
    # row; the column method must give the same bits for every kind
    g = _SIGNED_GRID
    xs = g[:, None] if pot.n == 1 else np.column_stack([g, np.roll(g, 101), -np.roll(g, 7)])
    want = np.array([np.linalg.norm(pot.grad(x)) for x in xs], dtype=float)
    got = pot.grad_norms(xs)
    assert got.shape == (len(xs),)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(DomainError):
        pot.grad_norms(np.zeros((2, pot.n + 1)))


def test_grad_norms_overflow_to_inf_as_grad_does():
    # Python's float ** raises OverflowError where numpy's, which the
    # validated grad runs, gives inf
    pot = PPower(4.0)
    xs = np.array([[2.0], [1e200], [-1e200]])
    with np.errstate(over="ignore"):
        want = [np.linalg.norm(pot.grad(x)) for x in xs]
        assert pot.grad_norms(xs).tolist() == want == [8.0, math.inf, math.inf]


def _vector_points(n):
    """Points of dimension n where the hot closures must give the bits of
    the validated methods: the origin, random directions at radii from
    1e-300 to 1e200 (FlatBottom inside, on and outside its unit ball; PPower
    energies that overflow), and axis points."""
    rng = np.random.default_rng(n)
    pts = [np.zeros(n), -np.zeros(n)]
    for radius in np.concatenate([np.geomspace(1e-300, 1e200, 51), [0.5, 1.0, 1.0 + 1e-15, 2.0]]):
        for _ in range(25):
            u = rng.normal(size=n)
            pts.append(radius * u / np.linalg.norm(u))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        pts += [e, -3.0 * e, 0.999 * e, 1.001 * e]
    return pts


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "make",
    [Quadratic, lambda n: PPower(1.5, n), lambda n: PPower(2.5, n), lambda n: PPower(3.0, n),
     lambda n: PPower(4.0, n), FlatBottom, Zero],
    ids=["Quadratic", "PPower1.5", "PPower2.5", "PPower3", "PPower4", "FlatBottom", "Zero"],
)
def test_hot_closures_match_the_validated_methods_bitwise(make, n):
    # the n >= 2 stepper and recursion evaluate grad G through grad_fn(),
    # and the trajectory's energy column G through energy_fn(); they must
    # give the validated methods' bits, inf included
    pot = make(n)
    grad, energy = pot.grad_fn(), pot.energy_fn()
    points = _vector_points(n)
    with np.errstate(over="ignore"):
        at_rest = _energies(pot, np.array(points), np.zeros((len(points), n)))
        for x, e in zip(points, at_rest):
            want_grad, want_energy = pot.grad(x), pot.energy(x)
            assert _same_bits(e, want_energy), x
            assert _same_bits(grad(x), want_grad), x
            assert _same_bits(energy(x), want_energy), x


def test_double_well_plateau_is_level_set_bracket():
    x1, x2 = plateau_interval(DoubleWell(), 0.0, (-3.0, 3.0))
    assert x1 == pytest.approx(-math.sqrt(2.0), abs=1e-9)
    assert x2 == pytest.approx(math.sqrt(2.0), abs=1e-9)


_CUBIC_HUMP = Polynomial1D([0.0, 0.75, -1.5, 1.0])


# the plateau scan's brackets, bit for bit, as the per-point loop found them
@pytest.mark.parametrize("pot, xstar, box, want", [
    (DoubleWell(), 0.0, (-3.0, 3.0), (-1.4142135623216627, 1.4142135623216627)),
    (DoubleWell(), 0.0, (-2.0, 2.5), (-1.4142135622978214, 1.4142135623693466)),
    (DoubleWell(), 0.5, (-1.0, 2.0), (0.49999999992847444, 1.3228756554841996)),
    (PPower(4.0), 0.0, (-3.0, 3.0), (-3.576278686523437e-11, 0.0)),
    (PPower(4.0), 0.5, (-1.0, 2.0), (-0.4999999999761583, 0.5)),
])
def test_plateau_interval_is_pinned(pot, xstar, box, want):
    got = plateau_interval(pot, xstar, box)
    assert got == want
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
    assert all(type(x) is float for x in got)


def test_plateau_interval_refuses_a_potential_that_is_not_coercive():
    with pytest.raises(DomainError, match="coercive"):
        plateau_interval(_CUBIC_HUMP, 0.5, (-1.0, 2.0))


# (xstar, eps, delta, concave) -> (passed, worst slack), bit for bit
@pytest.mark.parametrize("pot, args, want", [
    (DoubleWell(), (1.0, 0.1, 0.7, False), (True, 0.0)),
    (DoubleWell(), (0.0, 0.1, 0.45, True), (True, 0.0)),
    (DoubleWell(), (0.5, 0.2, 0.1, False), (False, -0.04880000000000001)),
    (DoubleWell(), (0.5, 0.2, 0.1, True), (False, -0.015215186895458812)),
    (DoubleWell(), (-1.0, 0.3, 0.9, False), (False, -0.06319788848576299)),
    (DoubleWell(), (0.3, 1.0, 0.5, False), (False, -2.66)),
    (_CUBIC_HUMP, (1.0, 0.1, 0.7, False), (True, 0.0)),
    (_CUBIC_HUMP, (0.5, 0.2, 0.1, False), (False, -0.04799999999999995)),
    (_CUBIC_HUMP, (0.5, 0.2, 0.1, True), (False, -0.04799999999999986)),
    (_CUBIC_HUMP, (-1.0, 0.3, 0.9, False), (False, -2.052000000000002)),
    (PPower(4.0), (1.0, 0.1, 0.7, False), (True, 0.0)),
    (PPower(4.0), (0.0, 0.1, 0.45, True), (False, -0.0182)),
    (PPower(4.0), (0.5, 0.2, 0.1, True), (False, -0.09519999999999997)),
    (PPower(4.0), (0.0, 0.5, 0.1, False), (False, -0.02992138440684216)),
    (PPower(4.0), (0.3, 1.0, 0.5, False), (False, -0.7499555784538765)),
    (PPower(4.0), (-1.0, 0.3, 0.9, False), (False, -0.0012250516850841019)),
])
def test_strong_convexity_window_is_pinned(pot, args, want):
    xstar, eps, delta, concave = args
    assert check_strong_convexity_window(pot, xstar, eps, delta, concave=concave) == want


def test_flat_bottom_geometry():
    pot = FlatBottom(2)
    # zero energy and gradient on the argmin ball
    for r in (0.0, 0.3, 0.999):
        p = np.array([r, 0.0])
        assert pot.energy(p) == 0.0
        assert np.all(pot.grad(p) == 0.0)
    # outside: energy (r-1)^2 and gradient along the outward ray, so the
    # normalized gradient recovers the nearest boundary point
    for ang in np.linspace(0.0, 2.0 * math.pi, 17):
        u = np.array([math.cos(ang), math.sin(ang)])
        for r in (1.5, 4.0):
            g = pot.grad(r * u)
            assert pot.energy(r * u) == pytest.approx((r - 1.0) ** 2, rel=1e-12)
            assert g / np.linalg.norm(g) == pytest.approx(u, abs=1e-12)
            assert np.linalg.norm(g) == pytest.approx(2.0 * (r - 1.0), rel=1e-12)


def test_critical_points_refuse_a_plane_and_an_empty_box():
    with pytest.raises(UnsupportedError):
        critical_points(Quadratic(2), (-2.0, 2.0))
    with pytest.raises(DomainError):
        critical_points(Quadratic(1), (2.0, 2.0))
    # finite ends whose width overflows: the scan's nodes would be NaN
    with pytest.raises(DomainError, match="invalid search box"):
        critical_points(Quadratic(1), (-1e308, 1e308))


def test_degenerate_critical_points():
    # quartic floor: sign change but vanishing curvature
    quartic = Polynomial1D([0.0, 0.0, 0.0, 0.0, 1.0])
    pts = critical_points(quartic, (-1.5, 1.5))
    assert len(pts) == 1
    assert pts[0].kind == "LocalMin"
    assert pts[0].delta == 0.0
    # cubic inflection: root of g without a sign change.  A sign scan
    # can only see such a root when a grid node hits it exactly, which
    # interior nodes never do; box endpoints are exact, so anchor there.
    cubic = Polynomial1D([0.0, 0.0, 0.0, 1.0])
    assert critical_points(cubic, (-1.5, 1.5)) == []
    pts = critical_points(cubic, (0.0, 1.5))
    assert len(pts) == 1
    assert pts[0].kind == "Degenerate"
    pts = critical_points(cubic, (-1.5, 0.0))
    assert len(pts) == 1
    assert pts[0].kind == "Degenerate"


def test_polynomial_against_double_well():
    # (x^2-1)^2/4 written out as a quartic must match DoubleWell exactly
    poly = Polynomial1D([0.25, 0.0, -0.5, 0.0, 0.25])
    dw = DoubleWell()
    assert poly.coercive
    assert poly.min_value == pytest.approx(0.0, abs=1e-12)
    poly_e, poly_g = poly.energy_fn(), poly.grad_fn()
    dw_e, dw_g = dw.energy_fn(), dw.grad_fn()
    for x in np.linspace(-2.0, 2.0, 41):
        x = float(x)
        assert poly_e(x) == pytest.approx(dw_e(x), abs=1e-14)
        assert poly_g(x) == pytest.approx(dw_g(x), abs=1e-13)
        assert poly.energy(np.array([x])) == pytest.approx(dw.energy(np.array([x])), abs=1e-14)
        assert poly.grad(np.array([x]))[0] == pytest.approx(dw.grad(np.array([x]))[0], abs=1e-13)


def test_polynomial_validation_and_coercivity():
    assert Polynomial1D([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)
    assert not Polynomial1D([0.0, 1.0, 0.0, 1.0]).coercive  # odd degree
    assert Polynomial1D([0.0, 1.0, 0.0, 1.0]).min_value is None
    assert not Polynomial1D([0.0, 0.0, -1.0]).coercive  # downward parabola
    with pytest.raises(DomainError):
        Polynomial1D([3.0])
    with pytest.raises(DomainError):
        Polynomial1D([0.0, 0.0, 0.0])


def test_custom_potential_callbacks():
    pot = CustomPotential(
        n=2,
        energy=lambda p: float(p @ p),
        grad=lambda p: 2.0 * p,
        coercive=True,
        min_value=0.0,
    )
    p = np.array([1.0, -2.0])
    assert pot.energy(p) == 5.0
    assert np.all(pot.grad(p) == np.array([2.0, -4.0]))
    bad = CustomPotential(n=2, energy=lambda p: 0.0, grad=lambda p: np.zeros(3))
    with pytest.raises(DomainError):
        bad.grad(p)


# ---------------------------------------------------------------------------
# certificates


def test_base_inequality_analytic_cases():
    cert = check_base_inequality(Quadratic(1), 0.5, 0.0, probes=2000)
    assert cert.holds and cert.validity == "Analytic"
    assert cert.worst_slack >= -1e-12
    for p in (1.5, 2.0, 3.0, 4.0):
        cert = check_base_inequality(PPower(p), 1.0 / p, 0.0, probes=2000)
        assert cert.holds, (p, cert)
        assert cert.validity == "Analytic"


@pytest.mark.parametrize("n", [9, 16])
def test_certificates_past_eight_dimensions(n):
    # the probes step by sqrt(p) mod 1 over the first n primes; past 8
    # dimensions they are moved onto the ball rather than dropped
    cert = check_base_inequality(Quadratic(n), 0.5, np.zeros(n))
    assert cert.validity == "Analytic" and cert.violations == 0


def test_base_inequality_detects_failures():
    # theta below the sharp constant: every off-center probe violates
    cert = check_base_inequality(Quadratic(1), 0.3, 0.0, probes=500)
    assert not cert.holds
    assert cert.validity == "Sampled"
    assert cert.worst_slack < 0.0
    # the double well is not convex about either minimum at this radius:
    # the probe at the opposite well has G = G(z) but <g, x-z> = 0
    cert = check_base_inequality(DoubleWell(), 0.5, 1.0, probes=2000, radius=3.0)
    assert not cert.holds
    # anchors must be critical points
    with pytest.raises(DomainError):
        check_base_inequality(Quadratic(1), 0.5, 0.7)
    with pytest.raises(DomainError):
        check_base_inequality(Quadratic(1), -0.1, 0.0)


@pytest.mark.parametrize(
    "pot, theta, z, options, violations, worst",
    [
        (Quadratic(1), 0.5, 0.0, {}, 0, "0x0.0p+0"),
        (Quadratic(1), 0.3, 0.0, {"probes": 500}, 500, "-0x1.3ee44b5bfed00p+2"),
        (PPower(4), 0.25, 0.0, {}, 0, "-0x1.0000000000000p-45"),
        (PPower(4), 0.2, 0.0, {"probes": 700, "radius": 3.0, "seed": 5}, 697,
         "-0x1.0168648a2612cp+2"),
        (DoubleWell(), 0.5, 1.0, {}, 2000, "-0x1.afffff65ed522p-2"),
        (DoubleWell(), 0.5, -1.0, {"radius": 0.5, "probes": 1000}, 498, "-0x1.7e3a449157c40p-5"),
        (Polynomial1D([0.0, 0.0, 1.0, -0.5, 0.25]), 0.5, 0.0, {"radius": 2.0}, 2495,
         "-0x1.affffe9ae2e80p-6"),
        (Quadratic(3), 0.5, np.zeros(3), {"probes": 2000}, 0, "0x0.0p+0"),
        (Quadratic(3), 0.45, np.zeros(3), {"probes": 1000, "radius": 2.0, "seed": 3}, 1000,
         "-0x1.99031ad02eda8p-3"),
        (PPower(4, n=3), 0.25, np.zeros(3), {"probes": 2000}, 0, "-0x1.0000000000000p-44"),
        (PPower(3, n=3), 0.3, np.zeros(3), {"probes": 1000}, 1000, "-0x1.0a17c05abbd68p+2"),
    ],
    ids=["quadratic", "quadratic_0.3", "ppower4", "ppower4_0.2", "well", "well_left",
         "polynomial", "quadratic3", "quadratic3_0.45", "ppower4_n3", "ppower3_n3_0.3"],
)
def test_base_inequality_is_pinned(pot, theta, z, options, violations, worst):
    # pinned when each probe was evaluated alone: taking them all at once
    # keeps every slack's bits and the first least one in probe order
    cert = check_base_inequality(pot, theta, z, **options)
    assert cert.violations == violations
    assert cert.worst_slack.hex() == worst


def test_base_inequality_deterministic():
    a = check_base_inequality(DoubleWell(), 0.5, 1.0, probes=500, seed=3)
    b = check_base_inequality(DoubleWell(), 0.5, 1.0, probes=500, seed=3)
    assert (a.violations, a.worst_slack) == (b.violations, b.worst_slack)
    assert a.probes == 500


def test_strong_convexity_window_thresholds():
    # moduli computed from the curvature range over the window:
    # G'' = 3x^2 - 1, so on (0.9, 1.1) the dip is G''(0.9)/2 = 0.715 and
    # on (-0.1, 0.1) the concave modulus is (1 - 3*0.01)/2 = 0.485
    dw = DoubleWell()
    assert check_strong_convexity_window(dw, 1.0, 0.1, 0.70)[0]
    assert check_strong_convexity_window(dw, 1.0, 0.1, 0.715)[0]
    assert not check_strong_convexity_window(dw, 1.0, 0.1, 0.72)[0]
    assert not check_strong_convexity_window(dw, 1.0, 0.1, 0.85)[0]
    assert check_strong_convexity_window(dw, 0.0, 0.1, 0.45, concave=True)[0]
    assert not check_strong_convexity_window(dw, 0.0, 0.1, 0.49, concave=True)[0]
    # the quadratic is exactly 1/2-strongly convex on any window
    q = Quadratic(1)
    assert check_strong_convexity_window(q, 0.0, 1.0, 0.5)[0]
    assert not check_strong_convexity_window(q, 0.0, 1.0, 0.5000001)[0]
    with pytest.raises(DomainError):
        check_strong_convexity_window(q, 0.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        check_strong_convexity_window(Quadratic(2), 0.0, 1.0, 0.5)
