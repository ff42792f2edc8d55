"""Critical-point structure and level-set geometry of a potential.

The long-run behavior of both processes is governed by four families of
critical points of F: positive/negative maxima and minima. Minima of F
(`floor set`) are where paths settle while the interaction integral U grows;
`traps` (negative maxima and positive minima) are the only points where a
path can localize forever. The level geometry below each minimum (well
interval, mid-level points, escape region) is what the hitting and escape
estimators measure against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, ArcSet, wrap
from .errors import (
    CirclelabError,
    ConfigError,
    DegenerateCriticalPointError,
    MonotonicityError,
    NoValidMarginError,
    ZeroCriticalValueError,
)
from .potential import _XTOL, PeriodicPotential, _circle_roots, _root

DEFAULT_GRID = 4096
DEFAULT_ORDER_CAP = 8
# A polished root of F' may leave |F'| up to this, scaled by the size of F''.
_POLISH_TOL = 1e-12
# The contact order of a critical point is the first derivative above this.
_ORDER_TOL = 1e-8
# A critical value this close to zero breaks F'(x) = 0 => F(x) != 0.
_VALUE_TOL = 1e-9
# compute_level_margin gives up below this margin.
_MARGIN_FLOOR = 1e-6
# Number of log-spaced eta' over which kappa is minimized.
_KAPPA_GRID = 32
# Zero threshold of validate_assumptions.
_ASSUMPTION_TOL = 1e-8


@dataclass(frozen=True)
class CriticalPoint:
    """A root of F' with its value, kind and contact order.

    `order` is the smallest n >= 1 with F^(n)(x) significantly nonzero; for
    a generic extremum it is 2.
    """

    x: float
    value: float
    kind: str  # "max" or "min"
    order: int


@dataclass(frozen=True)
class CriticalLandscape:
    """All critical points of a potential, partitioned by kind and sign."""

    points: tuple[CriticalPoint, ...]

    def _select(self, kind: str, positive: bool) -> tuple[CriticalPoint, ...]:
        return tuple(
            p for p in self.points if p.kind == kind and ((p.value > 0) == positive)
        )

    @property
    def maxima_positive(self) -> tuple[CriticalPoint, ...]:
        return self._select("max", True)

    @property
    def maxima_negative(self) -> tuple[CriticalPoint, ...]:
        return self._select("max", False)

    @property
    def minima_positive(self) -> tuple[CriticalPoint, ...]:
        return self._select("min", True)

    @property
    def minima_negative(self) -> tuple[CriticalPoint, ...]:
        return self._select("min", False)

    @property
    def floor(self) -> tuple[CriticalPoint, ...]:
        """All minima of F (the set paths visit while |U| grows)."""
        return tuple(p for p in self.points if p.kind == "min")

    @property
    def traps(self) -> tuple[CriticalPoint, ...]:
        """Negative maxima and positive minima: the localization targets.
        Paths can converge to a point x* only if x* is in this set."""
        return self.maxima_negative + self.minima_positive

    def trap_positions(self) -> tuple[float, ...]:
        return tuple(p.x for p in self.traps)


def find_critical_points(
    potential: PeriodicPotential,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> tuple[CriticalPoint, ...]:
    """Locate and classify all sign-change roots of F' on the circle.

    Roots are bracketed on a DEFAULT_GRID-cell grid and polished by
    Brent's method; one left with |F'| > _POLISH_TOL (scaled by the size
    of F'') raises.  A root where no derivative up to order_cap exceeds
    _ORDER_TOL raises DegenerateCriticalPointError.  A coefficient whose
    term of F' or F'' (which the scan, the polish and the kind test read)
    overflows to inf raises ConfigError naming it.
    """
    for n in (1, 2):
        for k, p, q in potential.coefficients(n):
            for name, c in ((f"a_{int(k)}", p), (f"b_{int(k)}", q)):
                if math.isinf(c):
                    raise ConfigError(
                        f"potential coefficient {name!r}: its term of "
                        f"F^({n}) overflows to inf, so F' and F'' cannot "
                        f"be evaluated")
    roots = _circle_roots(potential.derivative, DEFAULT_GRID, 1e-7)
    scale = max(1.0, potential.coefficient_bound_derivative(2))
    points = []
    for r in roots:
        if abs(potential.derivative(r)) > _POLISH_TOL * scale:
            raise CirclelabError(f"root polish failed at x={r}")
        order = None
        for n in range(1, order_cap + 1):
            if abs(potential.derivative(r, n)) > _ORDER_TOL:
                order = n
                break
        if order is None:
            raise DegenerateCriticalPointError(
                f"no derivative up to order {order_cap} separates from zero at x={r}"
            )
        # kind from the sign change of F' across the root
        h = TWO_PI / (4 * DEFAULT_GRID)
        left = potential.derivative(r - h)
        right = potential.derivative(r + h)
        if left > 0 and right < 0:
            kind = "max"
        elif left < 0 and right > 0:
            kind = "min"
        else:
            raise DegenerateCriticalPointError(
                f"F' does not change sign cleanly at x={r}"
            )
        if order % 2 == 0:
            deriv = potential.derivative(r, order)
            consistent = (deriv > 0 and kind == "min") or (deriv < 0 and kind == "max")
            if not consistent:
                raise DegenerateCriticalPointError(
                    f"sign of F^({order}) contradicts the bracket at x={r}"
                )
        points.append(CriticalPoint(x=r, value=float(potential.value(r)), kind=kind, order=order))
    if not points:
        raise DegenerateCriticalPointError("no critical points located")
    kinds = [p.kind for p in points]
    for k1, k2 in zip(kinds, kinds[1:] + kinds[:1]):
        if k1 == k2:
            raise CirclelabError("maxima and minima fail to alternate; roots were missed")
    return tuple(points)


def classify_landscape(
    potential: PeriodicPotential,
    points: tuple[CriticalPoint, ...] | None = None,
) -> CriticalLandscape:
    """Partition critical points by kind and by the sign of their value.

    A critical value within _VALUE_TOL of zero violates the standing
    assumption F'(x)=0 => F(x)!=0 and raises ZeroCriticalValueError.
    """
    if points is None:
        points = find_critical_points(potential)
    for p in points:
        if abs(p.value) <= _VALUE_TOL:
            raise ZeroCriticalValueError(
                f"critical value {p.value} at x={p.x} is indistinguishable from zero"
            )
    return CriticalLandscape(points=tuple(points))


# ----- level margin and level-set geometry -------------------------------


def _neighbor_maxima(landscape: CriticalLandscape, minimum: CriticalPoint):
    """Adjacent maxima of a minimum, in lifted coordinates around it."""
    pts = sorted(landscape.points, key=lambda p: p.x)
    idx = min(range(len(pts)), key=lambda i: abs(pts[i].x - minimum.x))
    prev_p = pts[idx - 1]
    next_p = pts[(idx + 1) % len(pts)]
    prev_x = prev_p.x if prev_p.x < minimum.x else prev_p.x - TWO_PI
    next_x = next_p.x if next_p.x > minimum.x else next_p.x + TWO_PI
    return (prev_x, prev_p), (next_x, next_p)


def _level_crossings(potential, minimum, level, lo, hi):
    """Roots of F - level between each of lo and hi (above the level) and
    the minimum (below it)."""
    def f(z):
        return potential.value(z) - level
    return _root(f, lo, minimum.x, _XTOL), _root(f, hi, minimum.x, _XTOL)


def _well_interval(potential, landscape, minimum, rise):
    """Connected component of {F <= F(min) + rise} around a minimum, with a
    grid monotonicity check on both flanks. Returns (lo, hi) in lifted
    coordinates or None if the component is not a clean well."""
    level = minimum.value + rise
    (prev_x, prev_p), (next_x, next_p) = _neighbor_maxima(landscape, minimum)
    if level >= min(prev_p.value, next_p.value):
        return None
    lo, hi = _level_crossings(potential, minimum, level, prev_x, next_x)
    for a, b, slope in ((lo, minimum.x, -1.0), (minimum.x, hi, 1.0)):
        zs = np.linspace(a, b, DEFAULT_GRID // 8)
        if np.any(slope * np.diff(potential.value(zs)) < -1e-12):
            return None
    return lo, hi


def compute_level_margin(
    potential: PeriodicPotential,
    landscape: CriticalLandscape | None = None,
) -> float:
    """Largest admissible level margin delta for the hitting/escape geometry.

    Starts from -max{F on negative minima}/3 when negative minima exist
    (else (max F - min F)/4) and halves until every minimum's component of
    {F <= F(min) + 2*delta} is monotone on both flanks.
    """
    if landscape is None:
        landscape = classify_landscape(potential)
    if not landscape.floor:
        raise MonotonicityError("potential has no minima")
    neg = landscape.minima_negative
    if neg:
        cap = -max(p.value for p in neg) / 3.0
    else:
        cap = (potential.max_value - potential.min_value) / 4.0
    delta = cap
    while delta >= _MARGIN_FLOOR:
        if all(
            _well_interval(potential, landscape, m, 2.0 * delta) is not None
            for m in landscape.floor
        ):
            return float(delta)
        delta *= 0.5
    raise NoValidMarginError(f"no valid margin above {_MARGIN_FLOOR}")


@dataclass(frozen=True)
class WellGeometry:
    """Level geometry below one minimum.

    interval        component of {F <= F(min)+2*delta} (lifted coords)
    mid_points      the two crossings of level F(min)+eta inside it
    inner_interval  component of {F <= F(min)+2*eta}
    """

    minimum: CriticalPoint
    interval: tuple[float, float]
    mid_points: tuple[float, ...]
    inner_interval: tuple[float, float]


@dataclass(frozen=True)
class LevelGeometry:
    """Wells, mid-level points and escape region at margins (delta, eta).

    The escape region is the complement of the union of the inner (2*eta)
    well components; reaching it from a mid-level point is the escape event
    the estimators measure. kappa satisfies d(min, mid-level at eta') >=
    kappa*sqrt(eta') for all eta' in (0, delta].
    """

    delta: float
    eta: float
    wells: tuple[WellGeometry, ...]
    kappa: float

    @property
    def escape_complement(self) -> tuple[tuple[float, float], ...]:
        return tuple(w.inner_interval for w in self.wells)

    def escape_region(self) -> ArcSet:
        return ArcSet.from_endpoints(self.escape_complement).complement()

    def mid_level_points(self) -> tuple[float, ...]:
        return tuple(x for w in self.wells for x in w.mid_points)

    def mid_level_set(self) -> ArcSet:
        return ArcSet.points([wrap(x) for x in self.mid_level_points()])

    def floor_set(self) -> ArcSet:
        return ArcSet.points([w.minimum.x for w in self.wells])


def compute_level_geometry(
    potential: PeriodicPotential,
    landscape: CriticalLandscape | None = None,
    delta: float | None = None,
    eta: float | None = None,
) -> LevelGeometry:
    """Build the well/mid-level/escape geometry at margins (delta, eta).

    delta defaults to compute_level_margin; eta defaults to delta and must
    lie in (0, delta], else ConfigError (a ValueError). kappa is 0.99
    times the grid minimum of d(min, mid-level at eta')/sqrt(eta') over 32
    log-spaced eta'.
    """
    if landscape is None:
        landscape = classify_landscape(potential)
    if delta is None:
        delta = compute_level_margin(potential, landscape)
    if eta is None:
        eta = delta
    if not 0.0 < eta <= delta:
        raise ConfigError(f"eta must lie in (0, delta]; got eta={eta}, delta={delta}")

    wells = []
    for minimum in landscape.floor:
        outer = _well_interval(potential, landscape, minimum, 2.0 * delta)
        if outer is None:
            raise MonotonicityError(
                f"well at x={minimum.x} is not monotone at margin {delta}"
            )
        lo, hi = outer
        mid = _level_crossings(potential, minimum, minimum.value + eta, lo, hi)
        if eta >= delta - 1e-12:
            # The inner level coincides with the outer one; a root search
            # for it would start from a bracket endpoint that is a root up to
            # rounding, with an arbitrary sign.
            inner = (lo, hi)
        else:
            inner = _level_crossings(
                potential, minimum, minimum.value + 2.0 * eta, lo, hi)
        wells.append(
            WellGeometry(
                minimum=minimum,
                interval=(float(lo), float(hi)),
                mid_points=(float(mid[0]), float(mid[1])),
                inner_interval=(float(inner[0]), float(inner[1])),
            )
        )

    kappa = math.inf
    for eta_p in np.geomspace(delta * 1e-4, delta, _KAPPA_GRID):
        for w in wells:
            lo, hi = w.interval
            left, right = _level_crossings(
                potential, w.minimum, w.minimum.value + eta_p, lo, hi
            )
            d = min(w.minimum.x - left, right - w.minimum.x)
            kappa = min(kappa, d / math.sqrt(eta_p))
    kappa *= 0.99

    return LevelGeometry(delta=float(delta), eta=float(eta), wells=tuple(wells), kappa=float(kappa))


# ----- standing assumptions ----------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def validate_assumptions(potential: PeriodicPotential) -> AssumptionReport:
    """Verify the standing assumptions the simulators rely on.

    Checks: F non-constant; F takes both signs; critical values are
    nonzero; every point of a DEFAULT_GRID-point grid has some derivative
    up to DEFAULT_ORDER_CAP separated from zero; critical points classify
    cleanly.  "Zero" means within _ASSUMPTION_TOL.
    """
    grid, order_cap, tol = DEFAULT_GRID, DEFAULT_ORDER_CAP, _ASSUMPTION_TOL
    checks = []
    rng_var = potential.max_value - potential.min_value
    checks.append(
        CheckResult("non_constant", rng_var > tol, f"max-min={rng_var:.3g}")
    )
    signs = potential.min_value < -tol and potential.max_value > tol
    checks.append(
        CheckResult(
            "changes_signs",
            signs,
            f"min={potential.min_value:.6g}, max={potential.max_value:.6g}",
        )
    )

    points = None
    classify_ok, classify_detail = True, "all roots classified"
    try:
        points = find_critical_points(potential)
    except (DegenerateCriticalPointError, CirclelabError) as exc:
        classify_ok, classify_detail = False, str(exc)
    checks.append(CheckResult("classifiable_critical_points", classify_ok, classify_detail))

    if points is not None:
        bad = [p for p in points if abs(p.value) <= tol]
        checks.append(
            CheckResult(
                "nonzero_critical_values",
                not bad,
                "ok" if not bad else f"zero-level critical point at x={bad[0].x:.6g}",
            )
        )
    else:
        checks.append(CheckResult("nonzero_critical_values", False, "roots unavailable"))

    xs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    alive = np.zeros(grid, dtype=bool)
    for n in range(1, order_cap + 1):
        alive |= np.abs(potential.derivative(xs, n)) > tol
        if np.all(alive):
            break
    checks.append(
        CheckResult(
            "finite_contact_order",
            bool(np.all(alive)),
            "ok" if np.all(alive) else f"{int(np.sum(~alive))} grid points flat to order {order_cap}",
        )
    )
    return AssumptionReport(checks=tuple(checks))
