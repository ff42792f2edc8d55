"""Landscape geometry against closed-form oracles.

Oracle values are computed here from independent closed forms (arccos
identities for the two reference potentials), never from the library's own
root finder.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from circlelab import (
    CirclelabError,
    ConfigError,
    DegenerateCriticalPointError,
    DegeneratePotentialError,
    MonotonicityError,
    PeriodicPotential,
    ZeroCriticalValueError,
    classify_landscape,
    compute_level_geometry,
    compute_level_margin,
    find_critical_points,
    validate_assumptions,
)
from circlelab.control import potential_zeros
from circlelab.diffusion import _HarmonicWorkspace
from circlelab.potential import _root

TWO_PI = 2.0 * math.pi

# F = cos x: critical points {0, pi}; delta = 1/3; mid-level at arccos(-2/3)
COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
# F = cos x + cos 2x - 0.2: minima at +-arccos(-1/4) with value -1.325,
# maxima at 0 (1.8) and pi (-0.2); trap set {pi}
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))
X_MIN_MIX = math.acos(-0.25)
# The scan grid of PeriodicPotential's extremes and derivative sups.
SCAN = np.linspace(0.0, TWO_PI, 8192, endpoint=False)


def harmonic_potentials():
    """Random non-constant potentials with well-scaled coefficients."""
    coef = st.floats(-2.0, 2.0, allow_nan=False)
    return (
        st.lists(
            st.tuples(st.integers(1, 4), coef, coef), min_size=1, max_size=3,
            unique_by=lambda t: t[0],
        )
        .map(lambda hs: [(k, a, b) for k, a, b in hs if abs(a) + abs(b) > 0.05])
        .filter(lambda hs: len(hs) > 0)
        .flatmap(
            lambda hs: st.floats(-0.5, 0.5, allow_nan=False).map(
                lambda a0: PeriodicPotential(a0, tuple(hs))
            )
        )
    )


# A sine term (b_k != 0) and a harmonic k = 3, which is not a power of two.
SKEWED = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))


def sparse_potentials():
    """Random non-constant potentials with k up to 5 whose a_k and b_k are
    often exactly zero."""
    coef = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
    return (
        st.lists(st.tuples(st.integers(1, 5), coef, coef), min_size=1,
                 max_size=4, unique_by=lambda t: t[0])
        .filter(lambda hs: any(a != 0.0 or b != 0.0 for _, a, b in hs))
        .flatmap(lambda hs: st.one_of(st.just(0.0), st.floats(-0.5, 0.5))
                 .map(lambda a0: PeriodicPotential(a0, tuple(hs))))
    )


def evaluation_points():
    """Angles with 0.0 first, then negatives, the circle and |x| near 1e3."""
    far = st.floats(990.0, 1010.0)
    point = st.one_of(st.floats(-20.0, 20.0), far, far.map(lambda x: -x))
    return st.lists(point, min_size=1, max_size=8).map(lambda xs: [0.0] + xs)


def pot_reference(pot, order, x):
    """F^(order)(x) by the textbook formula, independent of the library's
    tables: sum_k k^n (a_k cos(kx + n pi/2) + b_k sin(kx + n pi/2)), plus
    a0 for F and a0 x for G (order -1)."""
    k = np.array([h[0] for h in pot.harmonics], dtype=float)
    a = np.array([h[1] for h in pot.harmonics])
    b = np.array([h[2] for h in pot.harmonics])
    phase = k * x + order * math.pi / 2
    total = np.sum(k ** order * (a * np.cos(phase) + b * np.sin(phase)))
    return total + {0: pot.a0, -1: pot.a0 * x}.get(order, 0.0)


def assert_bitwise(got, want):
    """Exact equality, sign of zero included."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


class TestEvaluation:
    def test_cosine_values(self):
        assert COSINE.value(0.0) == pytest.approx(1.0, abs=1e-15)
        assert COSINE.value(math.pi) == pytest.approx(-1.0, abs=1e-15)

    def test_mixture_value_at_pi(self):
        # cos(pi) + cos(2*pi) - 0.2 = -1 + 1 - 0.2
        assert MIXTURE.value(math.pi) == pytest.approx(-0.2, abs=1e-12)

    def test_exact_derivatives(self):
        assert COSINE.derivative(math.pi / 2) == pytest.approx(-1.0, abs=1e-12)
        assert COSINE.derivative(math.pi, 2) == pytest.approx(1.0, abs=1e-12)
        assert COSINE.derivative(0.0) == 0.0  # exact zero preserved

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0, TWO_PI, 17)
        assert_bitwise(MIXTURE.value(xs), [MIXTURE.value_s(float(x)) for x in xs])
        assert_bitwise(MIXTURE.derivative(xs),
                       [MIXTURE.derivative_s(float(x)) for x in xs])

    @settings(max_examples=80)
    @given(sparse_potentials(), evaluation_points())
    @example(SKEWED, [0.0, -0.0, -2.5, 1e3, -1e3 + 0.1])
    def test_every_evaluator_sums_the_same_table(self, pot, xs):
        xs = np.array(xs)
        scalars = {
            0: (pot.value(xs), pot.value_s),
            1: (pot.derivative(xs), pot.derivative_s),
            2: (pot.derivative(xs, 2), lambda z: pot.derivative(z, 2)),
            -1: (pot.antiderivative(xs), pot.antiderivative_s),
        }
        for order, (array, scalar) in scalars.items():
            assert_bitwise(array, [scalar(float(x)) for x in xs])
            np.testing.assert_allclose(
                array, [pot_reference(pot, order, x) for x in xs], rtol=0.0,
                atol=1e-12 * (1.0 + pot.coefficient_bound_derivative(order)))
        joint = [pot.value_derivative_s(float(x)) for x in xs]
        assert_bitwise([f for f, _ in joint], scalars[0][0])
        assert_bitwise([fp for _, fp in joint], scalars[1][0])
        one = _HarmonicWorkspace(pot, 1)
        for x, (f, fp) in zip(xs, joint):
            one.eval(np.array([x]))
            assert_bitwise([one.fv[0], one.fp[0]], [f, fp])
        rows = np.resize(xs, 7)
        seven = _HarmonicWorkspace(pot, 7)
        seven.eval(rows)
        assert_bitwise(seven.fv, np.resize([f for f, _ in joint], 7))
        assert_bitwise(seven.fp, np.resize([fp for _, fp in joint], 7))

    @settings(max_examples=60)
    @given(harmonic_potentials(), st.floats(-20.0, 20.0, allow_nan=False))
    def test_joint_scalar_evaluator_is_bitwise(self, pot, x):
        assert pot.value_derivative_s(x) == (pot.value_s(x), pot.derivative_s(x))

    @settings(max_examples=60)
    @given(harmonic_potentials(), st.floats(0.0, TWO_PI, allow_nan=False), st.integers(1, 4))
    def test_derivative_matches_finite_difference(self, pot, x, order):
        h = 1e-5
        lower = pot.derivative(x - h, order - 1) if order > 1 else pot.value(x - h)
        upper = pot.derivative(x + h, order - 1) if order > 1 else pot.value(x + h)
        fd = (upper - lower) / (2 * h)
        exact = pot.derivative(x, order)
        scale = max(1.0, pot.coefficient_bound_derivative(order))
        assert abs(fd - exact) < 1e-5 * scale

    @settings(max_examples=40)
    @given(harmonic_potentials(), st.floats(0.0, TWO_PI, allow_nan=False))
    def test_antiderivative_inverts_value(self, pot, x):
        h = 1e-6
        fd = (pot.antiderivative(x + h) - pot.antiderivative(x - h)) / (2 * h)
        assert abs(fd - pot.value(x)) < 1e-6 * max(1.0, pot.coefficient_bound_derivative(1))

    def test_constant_potential_rejected(self):
        with pytest.raises(DegeneratePotentialError):
            PeriodicPotential(1.5, ((1, 0.0, 0.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a0", "a_2", "b_2"])
    def test_non_finite_coefficient_rejected(self, field, value):
        a0, a2, b2 = (value if name == field else 0.5
                      for name in ("a0", "a_2", "b_2"))
        with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
            PeriodicPotential(a0, ((1, 1.0, 0.0), (2, a2, b2)))
        record = {"a0": a0, "harmonics": [[1, 1.0, 0.0], [2, a2, b2]]}
        with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
            PeriodicPotential.from_record(record)


class TestRootFinder:
    """`_root` is a port of scipy's brentq: same bits, same end cases."""

    @settings(max_examples=60)
    @given(harmonic_potentials(), st.floats(0.0, 1.0),
           st.lists(st.floats(-7.0, 7.0), min_size=2, max_size=10),
           st.sampled_from([1e-10, 1e-14]))
    def test_matches_brentq_bitwise(self, pot, frac, xs, xtol):
        level = pot.min_value + frac * (pot.max_value - pot.min_value)

        def f(x):
            return pot.value_s(x) - level

        # consecutive draws as brackets, either way round, plus one that
        # always changes sign
        brackets = list(zip(xs, xs[1:])) + [(pot.argmin, pot.argmax)]
        for lo, hi in brackets:
            if (f(lo) > 0.0 and f(hi) > 0.0) or (f(lo) < 0.0 and f(hi) < 0.0):
                continue
            assert _root(f, lo, hi, xtol) == brentq(f, lo, hi, xtol=xtol)

    def test_zero_at_an_end_is_returned(self):
        def f(x):
            return x - 1.0

        assert _root(f, 1.0, 3.0, 1e-10) == 1.0 == brentq(f, 1.0, 3.0)
        assert _root(f, -2.0, 1.0, 1e-10) == 1.0 == brentq(f, -2.0, 1.0)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(CirclelabError, match="no sign change"):
            _root(COSINE.value_s, 2.0, 4.0, 1e-10)


class TestGeometryAccuracy:
    """Extremes, derivative sups and zeros are as exact as Brent's polish
    to 1e-14 allows, and never worse than the scan grid."""

    @settings(max_examples=60)
    @given(harmonic_potentials())
    def test_extremes_are_critical_and_bound_the_grid(self, pot):
        scale = max(1.0, pot.coefficient_bound_derivative(2))
        assert abs(pot.derivative(pot.argmin)) <= 1e-12 * scale
        assert abs(pot.derivative(pot.argmax)) <= 1e-12 * scale
        values = pot.value(SCAN)
        assert pot.min_value <= values.min()
        assert pot.max_value >= values.max()

    @settings(max_examples=60)
    @given(harmonic_potentials())
    def test_sup_abs_derivative_bounds_the_grid(self, pot):
        for n in (1, 2):
            assert pot.sup_abs_derivative(n) >= np.abs(pot.derivative(SCAN, n)).max()

    @settings(max_examples=60)
    @given(harmonic_potentials())
    def test_zeros_are_zeros(self, pot):
        scale = max(1.0, pot.coefficient_bound_derivative(1))
        for z in potential_zeros(pot):
            assert abs(pot.value(z)) <= 1e-12 * scale


class TestCriticalPoints:
    def test_cosine_points(self):
        pts = find_critical_points(COSINE)
        assert len(pts) == 2
        by_kind = {p.kind: p for p in pts}
        assert by_kind["max"].x == pytest.approx(0.0, abs=1e-8)
        assert by_kind["max"].value == pytest.approx(1.0, abs=1e-10)
        assert by_kind["min"].x == pytest.approx(math.pi, abs=1e-8)
        assert by_kind["min"].value == pytest.approx(-1.0, abs=1e-10)
        assert all(p.order == 2 for p in pts)

    def test_mixture_points(self):
        pts = find_critical_points(MIXTURE)
        xs = sorted(p.x for p in pts)
        expected = [0.0, X_MIN_MIX, math.pi, TWO_PI - X_MIN_MIX]
        np.testing.assert_allclose(xs, expected, atol=1e-8)
        values = {round(p.x, 6): p.value for p in pts}
        assert values[0.0] == pytest.approx(1.8, abs=1e-9)
        assert values[round(math.pi, 6)] == pytest.approx(-0.2, abs=1e-9)
        assert values[round(X_MIN_MIX, 6)] == pytest.approx(-1.325, abs=1e-9)

    def test_quartic_contact_order(self):
        # F = cos x - cos(2x)/4 has F'=F''=F'''=0 and F''''=-3 at x=0
        quartic = PeriodicPotential(0.0, ((1, 1.0, 0.0), (2, -0.25, 0.0)))
        pts = find_critical_points(quartic)
        at_zero = min(pts, key=lambda p: min(p.x, TWO_PI - p.x))
        assert at_zero.order == 4
        assert at_zero.kind == "max"

    def test_order_cap_raises(self):
        quartic = PeriodicPotential(0.0, ((1, 1.0, 0.0), (2, -0.25, 0.0)))
        with pytest.raises(DegenerateCriticalPointError):
            find_critical_points(quartic, order_cap=2)

    @settings(max_examples=25)
    @given(harmonic_potentials())
    def test_alternation_and_gradient_sign(self, pot):
        try:
            pts = find_critical_points(pot)
        except Exception:
            return  # degenerate draws are not this property's concern
        kinds = [p.kind for p in pts]
        for k1, k2 in zip(kinds, kinds[1:] + kinds[:1]):
            assert k1 != k2
        # F is monotone between consecutive critical points
        xs = [p.x for p in pts] + [pts[0].x + TWO_PI]
        for a, b in zip(xs, xs[1:]):
            grid = np.linspace(a + 1e-6, b - 1e-6, 200)
            d = pot.derivative(grid)
            assert np.all(d > -1e-6 * max(1, pot.coefficient_bound_derivative(1))) or np.all(
                d < 1e-6 * max(1, pot.coefficient_bound_derivative(1))
            )


class TestClassification:
    def test_mixture_sets(self):
        land = classify_landscape(MIXTURE)
        assert [round(p.x, 4) for p in land.maxima_positive] == [0.0]
        assert [round(p.x, 4) for p in land.maxima_negative] == [round(math.pi, 4)]
        assert land.minima_positive == ()
        np.testing.assert_allclose(
            sorted(p.x for p in land.minima_negative),
            [X_MIN_MIX, TWO_PI - X_MIN_MIX],
            atol=1e-8,
        )
        np.testing.assert_allclose(land.trap_positions(), [math.pi], atol=1e-8)

    def test_cosine_has_no_traps(self):
        assert classify_landscape(COSINE).traps == ()

    def test_negated_mixture(self):
        flipped = PeriodicPotential(0.2, ((1, -1.0, 0.0), (2, -1.0, 0.0)))
        land = classify_landscape(flipped)
        minima_pos = [p for p in land.minima_positive]
        assert len(minima_pos) == 1
        assert minima_pos[0].x == pytest.approx(math.pi, abs=1e-8)
        assert minima_pos[0].value == pytest.approx(0.2, abs=1e-9)
        np.testing.assert_allclose(land.trap_positions(), [math.pi], atol=1e-8)

    @settings(max_examples=20)
    @given(harmonic_potentials())
    def test_negation_swaps_components(self, pot):
        neg = PeriodicPotential(-pot.a0, tuple((k, -a, -b) for k, a, b in pot.harmonics))
        try:
            land = classify_landscape(pot)
            land_neg = classify_landscape(neg)
        except Exception:
            return

        def xs(points):
            return sorted(round(p.x, 7) for p in points)

        assert xs(land_neg.maxima_positive) == xs(land.minima_negative)
        assert xs(land_neg.maxima_negative) == xs(land.minima_positive)
        assert xs(land_neg.minima_positive) == xs(land.maxima_negative)
        assert xs(land_neg.minima_negative) == xs(land.maxima_positive)
        # hence the trap set is invariant under negating the potential
        assert xs(land_neg.traps) == xs(land.traps)

    def test_zero_critical_value_raises(self):
        # cos x + cos 2x has F(pi) = 0 at a critical point
        with pytest.raises(ZeroCriticalValueError):
            classify_landscape(PeriodicPotential(0.0, ((1, 1.0, 0.0), (2, 1.0, 0.0))))


class TestLevelMargin:
    def test_cosine_margin_is_third(self):
        assert compute_level_margin(COSINE) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_mixture_margin(self):
        # cap -max{F on negative minima}/3 = 1.325/3 is already admissible
        assert compute_level_margin(MIXTURE) == pytest.approx(1.325 / 3.0, abs=1e-8)

    def test_margin_respects_cap_and_wells(self):
        land = classify_landscape(MIXTURE)
        delta = compute_level_margin(MIXTURE, land)
        for p in land.minima_negative:
            assert delta <= -p.value / 3.0 + 1e-12


class TestLevelGeometry:
    def test_cosine_interval_and_midpoints(self):
        geom = compute_level_geometry(COSINE)
        well = geom.wells[0]
        lo, hi = well.interval
        assert lo == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-8)
        assert hi == pytest.approx(TWO_PI - math.acos(-1.0 / 3.0), abs=1e-8)
        np.testing.assert_allclose(
            sorted(well.mid_points),
            [math.acos(-2.0 / 3.0), TWO_PI - math.acos(-2.0 / 3.0)],
            atol=1e-8,
        )

    def test_cosine_midpoint_distance(self):
        geom = compute_level_geometry(COSINE)
        d = min(
            math.pi - min(geom.wells[0].mid_points),
            max(geom.wells[0].mid_points) - math.pi,
        )
        assert d == pytest.approx(math.pi - math.acos(-2.0 / 3.0), abs=1e-8)
        assert d == pytest.approx(0.8411, abs=2e-4)

    def test_cosine_kappa(self):
        geom = compute_level_geometry(COSINE)
        # d(pi, mid-level at eta)/sqrt(eta) -> sqrt(2); grid min times 0.99
        assert 0.985 * math.sqrt(2.0) <= geom.kappa <= math.sqrt(2.0)
        # kappa*sqrt(eta) is a valid lower bound across eta in (0, delta]
        for eta in np.geomspace(geom.delta * 1e-4, geom.delta, 23):
            sub = compute_level_geometry(COSINE, delta=geom.delta, eta=float(eta))
            d = min(
                math.pi - min(sub.wells[0].mid_points),
                max(sub.wells[0].mid_points) - math.pi,
            )
            assert d >= geom.kappa * math.sqrt(eta)

    def test_mixture_geometry_at_full_margin(self):
        # eta defaults to delta, where the inner component coincides with
        # the outer one; both wells of the mixture must come out clean.
        geom = compute_level_geometry(MIXTURE)
        assert len(geom.wells) == 2
        for well in geom.wells:
            assert well.inner_interval == well.interval
            lo, hi = well.interval
            for mid in well.mid_points:
                assert lo < mid < hi
                level = well.minimum.value + geom.delta
                assert MIXTURE.value(mid) == pytest.approx(level, abs=1e-9)

    def test_inner_interval_at_smaller_eta(self):
        geom = compute_level_geometry(COSINE, eta=1.0 / 6.0)
        lo, hi = geom.wells[0].inner_interval
        assert lo == pytest.approx(math.acos(-2.0 / 3.0), abs=1e-8)
        assert hi == pytest.approx(TWO_PI - math.acos(-2.0 / 3.0), abs=1e-8)

    def test_escape_region_complement_structure(self):
        geom = compute_level_geometry(COSINE)
        region = geom.escape_region()
        assert region.contains(0.0)
        assert not region.contains(math.pi)
        lo, hi = geom.wells[0].inner_interval
        assert region.contains(lo) and region.contains(hi)  # closed boundary shared

    def test_escape_covers_high_ground_without_traps(self):
        # With no traps, {F >= -delta} lies inside the escape region at
        # eta = delta.
        delta = compute_level_margin(COSINE)
        geom = compute_level_geometry(COSINE, delta=delta, eta=delta)
        xs = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        high = xs[COSINE.value(xs) >= -delta + 1e-9]
        assert high.size > 0
        assert np.all(geom.escape_region().indicator(high))

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            compute_level_geometry(COSINE, delta=1.0 / 3.0, eta=0.5)


class TestAssumptions:
    def test_cosine_passes(self):
        assert validate_assumptions(COSINE).ok

    def test_mixture_passes(self):
        assert validate_assumptions(MIXTURE).ok

    def test_single_sign_fails(self):
        report = validate_assumptions(PeriodicPotential(2.0, ((1, 1.0, 0.0),)))
        assert not report.ok
        assert "changes_signs" in report.failed()

    def test_zero_critical_value_fails(self):
        report = validate_assumptions(PeriodicPotential(0.0, ((1, 1.0, 0.0), (2, 1.0, 0.0))))
        assert not report.ok
        assert "nonzero_critical_values" in report.failed()
