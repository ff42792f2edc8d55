"""Tests for the event-driven velocity-jump simulator."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from circlelab.angles import TWO_PI, ArcSet, circle_dist, wrap
from circlelab.config import scenario_from_dict
from circlelab.control import plan_diffusion_control
from circlelab.diffusion import DiffusionState
from circlelab.errors import RunawayError
from circlelab.pdmp import (
    _WINDOW_PROPOSAL_CAP,
    CAUSE_CONSTANT,
    CAUSE_END,
    CAUSE_HIT,
    CAUSE_INIT,
    CAUSE_LANDSCAPE,
    PdmpState,
    sample_landscape_time,
    sample_next_event,
    segment_u,
    simulate_pdmp,
    simulate_pdmp_driven,
)
from circlelab.potential import PeriodicPotential
from circlelab.runner import run_scenario
from circlelab.seeding import generator_from_seed
from oracles import jump_time_cdf_oracle
from test_landscape import assert_bitwise, sparse_potentials

COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))
SKEWED = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))


class TestLocalRate:
    """The total jump intensity lam + (y * u * F'(x))_+ at a state, read off
    the oracle's first-jump CDF as -log(1 - P(theta <= h)) / h at tiny h."""

    @staticmethod
    def _rate(lam, state, h=1e-8):
        cdf = jump_time_cdf_oracle(COSINE, lam, state.x, state.y, state.u,
                                   [h], subintervals=2)
        return -math.log1p(-float(cdf[0])) / h

    def test_negative_part_clips_to_constant(self):
        # F' = -sin, so at x = pi/2 the product y*u*F' = -3 is clipped.
        state = PdmpState(math.pi / 2, 3.0, 1)
        assert self._rate(1.0, state) == pytest.approx(1.0, rel=1e-6)

    def test_positive_part_adds_to_constant(self):
        # At x = 3*pi/2, F' = 1, so the landscape term contributes 3.
        state = PdmpState(3 * math.pi / 2, 3.0, 1)
        assert self._rate(1.0, state) == pytest.approx(4.0, rel=1e-6)

    def test_zero_interaction_gives_bare_rate(self):
        state = PdmpState(1.3, 0.0, -1)
        assert self._rate(0.7, state) == pytest.approx(0.7, rel=1e-6)

    def test_nonpositive_lam_rejected(self):
        # The simulator's clock needs a bare rate lam > 0 at every state.
        gen = generator_from_seed(0)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                sample_next_event(COSINE, lam, PdmpState(0.0, 0.0, 1), gen)

    def test_nan_lam_rejected(self):
        gen = generator_from_seed(0)
        with pytest.raises(ValueError, match="lam"):
            sample_next_event(COSINE, math.nan, PdmpState(1.0, 0.5, 1), gen)


class TestSegmentU:
    def test_cosine_integral_is_sine(self):
        for s in (0.3, math.pi / 3, 2.0, 5.5):
            got = segment_u(COSINE, 0.0, 1, s, 1.0)
            assert got == pytest.approx(1.0 + math.sin(s), abs=1e-12)

    def test_half_period_from_zero_returns_to_start(self):
        assert segment_u(COSINE, 0.0, 1, math.pi, 5.0) == pytest.approx(
            5.0, abs=1e-12)

    def test_full_period_accumulates_mean_only(self):
        # Over one full turn the harmonics cancel and only a0 remains.
        for x0 in (0.0, 1.0, 4.5):
            for y in (1, -1):
                got = segment_u(MIXTURE, x0, y, TWO_PI, 2.0)
                assert got == pytest.approx(2.0 - 0.2 * TWO_PI, abs=1e-12)

    def test_retraced_arc_accumulates_twice(self):
        # dU = F(X) dt runs in forward time whatever the travel direction,
        # so going back over the same arc doubles the integral.
        fwd = segment_u(COSINE, 1.0, 1, 0.7, 0.0)
        bwd = segment_u(COSINE, 1.0 + 0.7, -1, 0.7, fwd)
        assert bwd == pytest.approx(2.0 * fwd, abs=1e-12)
        assert fwd == pytest.approx(math.sin(1.7) - math.sin(1.0), abs=1e-12)

    def test_invalid_velocity_rejected(self):
        with pytest.raises(ValueError):
            segment_u(COSINE, 0.0, 0, 1.0, 0.0)


class TestJumpTimeOracle:
    def test_silent_landscape_reduces_to_exponential(self):
        # From x0 = 0 with u0 = 0 on the cosine potential, u(s) = sin(s)
        # and F'(s) = -sin(s), so the landscape term is never positive.
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        cdf = jump_time_cdf_oracle(COSINE, 0.8, 0.0, 1, 0.0, grid)
        assert np.allclose(cdf, 1.0 - np.exp(-0.8 * grid), atol=1e-9)

    def test_frozen_drive_closed_form(self):
        # With g = 4 from x0 = pi moving right, the rate is 4*sin(s)_+ and
        # the cumulative hazard is 4*(1 - cos(s)) on [0, pi]; lam = 0 is
        # allowed for the oracle.
        grid = np.array([math.pi / 8, math.pi / 4, math.pi / 2,
                         3 * math.pi / 4, math.pi])
        cdf = jump_time_cdf_oracle(COSINE, 0.0, math.pi, 1, None, grid, g=4.0)
        assert np.allclose(cdf, 1.0 - np.exp(-4.0 * (1.0 - np.cos(grid))),
                           atol=1e-9)

    def test_piecewise_active_region(self):
        # With g = 3 from x0 = pi/2 the landscape rate is 3*(-cos s)_+,
        # active only on [pi/2, 3*pi/2].
        lam = 0.25
        grid = np.array([math.pi / 4, math.pi / 2, math.pi,
                         3 * math.pi / 2, 2 * math.pi])
        hazard_piece = np.array([0.0, 0.0, 1.0, 2.0, 2.0])
        expected = 1.0 - np.exp(-(lam * grid + 3.0 * hazard_piece))
        cdf = jump_time_cdf_oracle(COSINE, lam, math.pi / 2, 1, None, grid,
                                   g=3.0)
        assert np.allclose(cdf, expected, atol=1e-9)

    def test_cdf_is_nondecreasing_and_bounded(self):
        grid = np.linspace(0.05, 6.0, 120)
        cdf = jump_time_cdf_oracle(MIXTURE, 0.5, 1.0, -1, 3.0, grid)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[0] >= 0.0 and cdf[-1] <= 1.0

    def test_input_validation(self):
        grid = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, -0.1, 0.0, 1, 0.0, grid)
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, 1.0, 0.0, 0, 0.0, grid)
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, 1.0, 0.0, 1, 0.0, grid, g=1.0)
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, 1.0, 0.0, 1, None, grid)
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, 1.0, 0.0, 1, 0.0, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, 1.0, 0.0, 1, 0.0, np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            jump_time_cdf_oracle(COSINE, 1.0, 0.0, 1, 0.0, grid, subintervals=7)


def _cdf_from_grid(grid, values):
    def cdf(s):
        return np.interp(s, grid, values, left=0.0, right=1.0)

    return cdf


class TestLandscapeClock:
    def test_matches_closed_form_survival(self):
        # Frozen drive g = 4 from x0 = pi: hazard 4*(1 - cos s) per half
        # turn, flat on the second half turn.
        gen = generator_from_seed(314)

        def exact_cdf(s):
            s = np.asarray(s, dtype=float)
            turns = np.floor(s / TWO_PI)
            rem = s - TWO_PI * turns
            local = 4.0 * (1.0 - np.cos(np.minimum(rem, math.pi)))
            return 1.0 - np.exp(-(8.0 * turns + local))

        samples = []
        for _ in range(10_000):
            t = sample_landscape_time(COSINE, math.pi, 1, gen, 4 * TWO_PI,
                                      g=4.0)
            assert t is not None
            samples.append(t)
        ks = stats.kstest(samples, exact_cdf)
        assert ks.statistic < 0.035

    def test_zero_drive_never_fires(self):
        gen = generator_from_seed(0)
        for _ in range(32):
            assert sample_landscape_time(COSINE, 2.0, 1, gen, 50.0,
                                         g=0.0) is None

    def test_requires_exactly_one_interaction_source(self):
        gen = generator_from_seed(0)
        with pytest.raises(ValueError):
            sample_landscape_time(COSINE, 0.0, 1, gen, 1.0)
        with pytest.raises(ValueError):
            sample_landscape_time(COSINE, 0.0, 1, gen, 1.0, u0=1.0, g=1.0)


class TestNextEvent:
    def test_silent_landscape_gives_pure_exponential(self):
        # From (0, 0, +1) on the cosine potential the landscape clock is
        # silent (rate -sin^2 <= 0), so every event is constant-rate with
        # an Exp(lam) law.
        gen = generator_from_seed(99)
        state = PdmpState(0.0, 0.0, 1)
        samples = []
        for _ in range(4000):
            theta, cause = sample_next_event(COSINE, 1.0, state, gen)
            assert cause == CAUSE_CONSTANT
            samples.append(theta)
        ks = stats.kstest(samples, stats.expon.cdf)
        assert ks.statistic < 0.035

    def test_matches_oracle_with_active_landscape(self):
        # From (pi, 2, +1): u(s) = 2 - sin s and F'(pi + s) = sin s, so the
        # landscape clock competes with the constant one.
        lam, x0, u0 = 0.5, math.pi, 2.0
        grid = np.linspace(0.005, 12.0, 2400)
        oracle = jump_time_cdf_oracle(COSINE, lam, x0, 1, u0, grid,
                                      subintervals=10)
        gen = generator_from_seed(2718)
        state = PdmpState(x0, u0, 1)
        samples = []
        causes = set()
        for _ in range(4000):
            theta, cause = sample_next_event(COSINE, lam, state, gen)
            samples.append(theta)
            causes.add(cause)
        assert causes == {CAUSE_CONSTANT, CAUSE_LANDSCAPE}
        ks = stats.kstest(samples, _cdf_from_grid(grid, oracle))
        assert ks.statistic < 0.035

    def test_large_interaction_matches_oracle(self):
        # |u| ~ 500 exercises the window-shrinking path of the thinning
        # loop; the rate switches on sharply near s = pi - 2.
        lam, x0, u0 = 1.0, 2.0, 500.0
        grid = np.concatenate([
            np.linspace(0.002, 1.0, 500),
            np.linspace(1.0, 1.6, 3000)[1:],
            np.linspace(1.6, 3.0, 100)[1:],
        ])
        oracle = jump_time_cdf_oracle(COSINE, lam, x0, 1, u0, grid,
                                      subintervals=10)
        gen = generator_from_seed(41)
        state = PdmpState(x0, u0, 1)
        samples = [sample_next_event(COSINE, lam, state, gen)[0]
                   for _ in range(1000)]
        ks = stats.kstest(samples, _cdf_from_grid(grid, oracle))
        assert ks.statistic < 0.07

    def test_matches_first_row_of_simulate(self):
        # The simulator's first jump is one sample_next_event step from
        # the same seed and state, here on a b_k != 0 potential.
        for seed in range(50):
            state = PdmpState(float(wrap(0.3 * seed)), 4.0 - 0.2 * seed,
                              1 - 2 * (seed % 2))
            log = simulate_pdmp(SKEWED, 0.8, state, 50.0, seed=seed)
            gen = generator_from_seed(seed)
            assert sample_next_event(SKEWED, 0.8, state, gen) \
                == (float(log.times[1]), log.causes[1])

    def test_horizon_cutoff_returns_none(self):
        gen = generator_from_seed(7)
        state = PdmpState(0.0, 0.0, 1)
        assert sample_next_event(COSINE, 1.0, state, gen, s_max=1e-12) is None

    def test_nonpositive_lam_rejected(self):
        gen = generator_from_seed(0)
        with pytest.raises(ValueError):
            sample_next_event(COSINE, 0.0, PdmpState(0.0, 0.0, 1), gen)

    def test_nan_lam_rejected(self):
        gen = generator_from_seed(0)
        with pytest.raises(ValueError, match="lam"):
            sample_next_event(COSINE, math.nan, PdmpState(1.0, 0.5, 1), gen,
                              5.0)


class TestSimulate:
    def test_log_shape_and_flow_consistency(self):
        log = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.3, 0.5, 1), 50.0,
                            seed=11)
        assert log.causes[0] == CAUSE_INIT
        assert log.causes[-1] == CAUSE_END
        assert log.n_jumps == len(log) - 2
        assert log.times[0] == 0.0
        assert log.times[-1] == 50.0
        assert np.all(np.diff(log.times) >= 0.0)
        fp = MIXTURE.derivative_s
        for i in range(len(log) - 1):
            dt = float(log.times[i + 1] - log.times[i])
            x_i, u_i, y_i = float(log.x[i]), float(log.u[i]), int(log.y[i])
            # Unit-speed transport between rows.
            assert circle_dist(log.x[i + 1], wrap(x_i + y_i * dt)) < 1e-10
            # The u column follows the closed-form segment integral.
            assert abs(log.u[i + 1]
                       - segment_u(MIXTURE, x_i, y_i, dt, u_i)) < 1e-10
            cause = log.causes[i + 1]
            if cause in (CAUSE_LANDSCAPE, CAUSE_CONSTANT):
                assert int(log.y[i + 1]) == -y_i
            else:
                assert int(log.y[i + 1]) == y_i
            if cause == CAUSE_LANDSCAPE:
                # The pre-flip state must have had a positive landscape
                # rate: (-y_row) * u * F'(x) > 0 up to rounding.
                rate = (-int(log.y[i + 1])) * float(log.u[i + 1]) * fp(
                    float(log.x[i + 1]))
                assert rate > -1e-9
        assert log.n_jumps > 10

    @settings(max_examples=25)
    @given(a0=st.floats(-0.5, 0.5),
           coefs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                          min_size=3, max_size=3).filter(
                              lambda c: any(a or b for a, b in c)),
           x0=st.floats(0.0, TWO_PI, exclude_max=True),
           u0=st.floats(0.0, 10.0), u_sign=st.sampled_from([-1.0, 1.0]),
           y0=st.sampled_from([-1, 1]), seed=st.integers(0, 2**63 - 1))
    @example(a0=0.0, coefs=[(1.0, 0.5), (0.0, 0.0), (0.3, -0.4)], x0=1.0,
             u0=8.0, u_sign=-1.0, y0=-1, seed=7)
    def test_u_column_is_segment_u_row_by_row(self, a0, coefs, x0, u0,
                                               u_sign, y0, seed):
        # Harmonics k = 1, 2, 3 with drawn cosine and sine coefficients.
        potential = PeriodicPotential(
            a0, tuple((k, a, b) for k, (a, b) in enumerate(coefs, 1)))
        log = simulate_pdmp(potential, 1.0, PdmpState(x0, u_sign * u0, y0),
                            5.0, seed=seed)
        for i in range(len(log) - 1):
            u_i = float(log.u[i])
            expected = segment_u(potential, float(log.x[i]), int(log.y[i]),
                                 float(log.times[i + 1] - log.times[i]), u_i)
            assert abs(float(log.u[i + 1]) - expected) <= 1e-9 * (1 + abs(u_i))

    def test_state_lookup_interpolates_the_flow(self):
        log = simulate_pdmp(COSINE, 2.0, PdmpState(1.0, -0.5, -1), 20.0,
                            seed=5)
        for t in (0.0, 3.7, 11.25, 20.0):
            i = int(np.searchsorted(log.times, t, side="right")) - 1
            i = min(max(i, 0), len(log) - 1)
            s = t - float(log.times[i])
            x_ref = wrap(float(log.x[i]) + int(log.y[i]) * s)
            assert circle_dist(log.x_at(t), x_ref) < 1e-12
            u_ref = segment_u(COSINE, float(log.x[i]), int(log.y[i]), s,
                              float(log.u[i]))
            assert log.u_at(t) == pytest.approx(u_ref, abs=1e-12)
        term = log.terminal_state
        assert term.x == log.x[-1]
        assert term.u == log.u[-1]
        assert term.y == log.y[-1]
        with pytest.raises(ValueError):
            log.x_at(21.0)
        with pytest.raises(ValueError):
            log.x_at(-0.5)

    def test_interaction_growth_is_bounded_by_sup_f(self):
        log = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.0, 0.0, 1), 30.0,
                            seed=3)
        sup_f = abs(MIXTURE.a0) + 2.0
        assert np.all(np.abs(log.u) <= sup_f * log.times + 1e-9)

    def test_same_seed_reproduces_bitwise(self):
        a = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.3, 0.5, 1), 40.0, seed=21)
        b = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.3, 0.5, 1), 40.0, seed=21)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.y, b.y)
        assert a.causes == b.causes
        c = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.3, 0.5, 1), 40.0, seed=22)
        assert len(c) != len(a) or not np.array_equal(a.times, c.times)

    def test_event_cap_raises(self):
        with pytest.raises(RunawayError):
            simulate_pdmp(COSINE, 200.0, PdmpState(0.0, 0.0, 1), 10.0,
                          seed=1, max_events=3)

    @pytest.mark.parametrize("field", ["x0", "u0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, field, value):
        start = {"x0": 1.0, "u0": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            simulate_pdmp(COSINE, 1.0, PdmpState(start["x0"], start["u0"], 1),
                          5.0)

    @pytest.mark.parametrize("field", ["lam", "horizon"])
    def test_nan_rate_or_horizon_rejected(self, field):
        args = {"lam": 1.0, "horizon": 5.0, field: math.nan}
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            simulate_pdmp(COSINE, args["lam"], PdmpState(1.0, 0.0, 1),
                          args["horizon"])

    def test_output_arrays_are_frozen(self):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.0, 0.0, 1), 5.0, seed=0)
        with pytest.raises(ValueError):
            log.times[0] = -1.0


class TestSimulateDriven:
    def test_telegraph_circle_cover_probability(self):
        # With zero drive the position is a telegraph process; the chance
        # of covering the circle with no flip is exp(-2*pi*lam).
        lam = 0.05
        n = 2000
        covered = 0
        for seed in range(n):
            log = simulate_pdmp_driven(COSINE, lam, 0.0, 1.0, 1, TWO_PI,
                                       seed=seed)
            assert set(log.causes[1:-1]) <= {CAUSE_CONSTANT}
            assert np.all(log.u == 0.0)
            if log.n_jumps == 0:
                covered += 1
        p = math.exp(-TWO_PI * lam)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(covered / n - p) < 3.0 * se + 1e-3

    def test_callable_drive_echoes_in_u_column(self):
        log = simulate_pdmp_driven(COSINE, 1.0, 2.5, 0.0, 1, 10.0, seed=4)
        assert log.n_jumps > 0
        assert np.all(log.u == 2.5)
        assert log.kind == "driven"
        with pytest.raises(ValueError):
            log.u_at(1.0)

    @pytest.mark.parametrize("field", ["x0", "g"])
    def test_non_finite_input_rejected(self, field):
        args = {"x0": 1.0, "g": 0.5, field: math.nan}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            simulate_pdmp_driven(COSINE, 1.0, args["g"], args["x0"], 1, 5.0)

    def test_driven_landscape_jumps_match_oracle_rate(self):
        # Strong constant drive from the top of the cosine well: the first
        # jump time follows the closed-form mixed hazard.
        lam, g = 0.5, 6.0
        grid = np.linspace(0.002, 4.0, 2000)
        oracle = jump_time_cdf_oracle(COSINE, lam, math.pi, 1, None, grid,
                                      g=g, subintervals=10)
        samples = []
        for seed in range(3000):
            log = simulate_pdmp_driven(COSINE, lam, g, math.pi, 1, 4.0,
                                       seed=seed)
            if log.n_jumps > 0:
                samples.append(float(log.times[1]))
            else:
                samples.append(4.0)

        def cdf(s):
            return np.interp(s, grid, oracle, left=0.0, right=1.0)

        # Censor both sides at the horizon: compare on [0, 3.5] only.
        inside = [s for s in samples if s <= 3.5]
        ks = stats.kstest(inside, lambda s: cdf(s) / cdf(3.5))
        assert ks.statistic < 0.04


class TestUntil:
    def test_start_inside_target_hits_immediately(self):
        target = ArcSet.from_endpoints([(0.5, 1.5)])
        log = simulate_pdmp(COSINE, 1.0, PdmpState(1.0, 0.0, 1), 10.0,
                            seed=2, until=[target])
        assert log.hit_time == 0.0
        assert log.hit_target == 0
        assert log.causes[-1] == CAUSE_HIT
        assert len(log) == 2

    def test_hit_time_dominates_circle_distance(self):
        # Unit speed makes the travel distance a hard lower bound on the
        # hitting time of any target set.
        target = ArcSet.from_endpoints([(math.pi - 0.1, math.pi + 0.1)])
        d_min = math.pi - 0.1 - 1.0
        hits = 0
        for seed in range(200):
            log = simulate_pdmp(MIXTURE, 1.0, PdmpState(1.0, 0.5, 1), 100.0,
                                seed=seed, until=[target])
            if log.hit_time is None:
                assert log.causes[-1] == CAUSE_END
                continue
            hits += 1
            assert log.hit_time >= d_min - 1e-12
            assert log.hit_time == log.times[-1]
            assert log.causes[-1] == CAUSE_HIT
            gap = min(target.first_entry(float(log.x[-1]), 1),
                      target.first_entry(float(log.x[-1]), -1))
            assert gap < 1e-9
        assert hits >= 150

    def test_earliest_of_several_targets_wins(self):
        targets = [ArcSet.from_endpoints([(2.9, 3.1)]),
                    ArcSet.from_endpoints([(5.0, 5.2)])]
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.0, 0.0, 1), 200.0,
                            seed=9, until=targets)
        assert log.hit_time is not None
        chosen = targets[log.hit_target]
        gap = min(chosen.first_entry(float(log.x[-1]), 1),
                  chosen.first_entry(float(log.x[-1]), -1))
        assert gap < 1e-9
        other = targets[1 - log.hit_target]
        # The path never entered the other target strictly earlier.
        for t0, t1, x0, u0, y in log.segments():
            s = other.first_entry(x0, y, max_travel=t1 - t0)
            if s is not None:
                assert t0 + s >= log.hit_time - 1e-9


def _arc_derivative_range(potential: PeriodicPotential, x_from: float,
                          y: int, h: float, lipschitz_fp: float):
    """Certified (min, max) of F' on the arc swept from x_from over h."""
    d0 = potential.derivative_s(x_from)
    d1 = potential.derivative_s(x_from + y * (0.5 * h))
    d2 = potential.derivative_s(x_from + y * h)
    slack = lipschitz_fp * (0.25 * h)
    return min(d0, d1, d2) - slack, max(d0, d1, d2) + slack


def _sample_landscape_time(potential, x0, y, gen, cutoff, value_at, lipschitz_u):
    """First arrival of the thinned landscape clock, or None past cutoff.

    value_at(s) is the interaction value after flow time s (closed-form u
    for the homogeneous process, the constant for the frozen variant);
    lipschitz_u bounds |d value_at / ds|.  The window bound is the corner
    maximum of (y * u) * F' over the certified product of intervals, so
    stretches where the rate is provably zero are skipped without any
    proposals.
    """
    if cutoff <= 0.0:
        return None
    deriv = potential.derivative_s
    lip_fp = potential.coefficient_bound_derivative(2)
    h_base = min(math.pi, 0.5 / potential.coefficient_bound_derivative(1))
    s = 0.0
    while s < cutoff:
        h = h_base
        d_lo, d_hi = _arc_derivative_range(potential, x0 + y * s, y, h, lip_fp)
        w0 = y * value_at(s)
        w_lo = w0 - h * lipschitz_u
        w_hi = w0 + h * lipschitz_u
        r_bar = max(0.0, w_lo * d_lo, w_lo * d_hi, w_hi * d_lo, w_hi * d_hi)
        if r_bar <= 0.0:
            s = min(s + h, cutoff)
            continue
        if r_bar * h > _WINDOW_PROPOSAL_CAP:
            # A shorter window keeps expected proposals bounded; r_bar
            # still dominates the rate on the sub-window.
            h = _WINDOW_PROPOSAL_CAP / r_bar
        hi = min(s + h, cutoff)
        pos = s
        while True:
            pos += gen.standard_exponential() / r_bar
            if pos >= hi:
                break
            r = y * value_at(pos) * deriv(x0 + y * pos)
            if r > 0.0 and gen.random() * r_bar <= r:
                return pos
        s = hi
    return None


def reference_landscape_time(potential, x0, y, gen, cutoff, *, u0=None,
                             g=None):
    """The thinning loop over value_s, derivative_s and antiderivative_s
    that the generated samplers must reproduce bit for bit, draw for
    draw: the interaction is the closed-form u from u0, or the frozen
    drive g."""
    if u0 is None:
        gv = float(g)
        return _sample_landscape_time(potential, x0, y, gen, cutoff,
                                      lambda s: gv, 0.0)
    anti = potential.antiderivative_s
    g0 = anti(x0)
    return _sample_landscape_time(
        potential, x0, y, gen, cutoff,
        lambda s: u0 + y * (anti(x0 + y * s) - g0),
        abs(potential.a0) + potential.coefficient_bound_derivative(0))


class CountingGenerator:
    """A seeded generator that counts its exponential and uniform draws."""

    def __init__(self, seed):
        self.gen = generator_from_seed(seed)
        self.draws = [0, 0]

    def standard_exponential(self):
        self.draws[0] += 1
        return self.gen.standard_exponential()

    def random(self):
        self.draws[1] += 1
        return self.gen.random()


class TestGeneratedSampler:
    @settings(max_examples=120, deadline=None)
    @given(sparse_potentials(),
           st.one_of(st.floats(-20.0, 20.0), st.just(0.0)),
           st.sampled_from([-1, 1]),
           st.one_of(st.floats(-1e3, 1e3), st.floats(-10.0, 10.0),
                     st.just(0.0)),
           st.booleans(),
           st.one_of(st.floats(-2.0, 0.0), st.floats(0.0, 8.0)),
           st.integers(0, 2 ** 32 - 1))
    @example(COSINE, 1.0, 1, 0.0, False, 0.0, 0)
    @example(SKEWED, 2.5, -1, -1e3, True, 5.0, 1)
    def test_samplers_are_the_reference_loop_bitwise(self, pot, x0, y, w,
                                                     frozen, cutoff, seed):
        drive = {"g": w} if frozen else {"u0": w}
        got_gen, want_gen = CountingGenerator(seed), CountingGenerator(seed)
        # Three arrivals from one stream, so later draws line up too.
        for _ in range(3):
            got = sample_landscape_time(pot, x0, y, got_gen, cutoff, **drive)
            want = reference_landscape_time(pot, x0, y, want_gen, cutoff,
                                            **drive)
            assert (got is None) == (want is None)
            if got is not None:
                assert_bitwise(got, want)
            assert got_gen.draws == want_gen.draws
        assert got_gen.gen.bit_generator.state == \
            want_gen.gen.bit_generator.state

    def test_potential_pickles_after_a_plan_and_a_sample(self):
        pot = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))
        plan_diffusion_control(pot, DiffusionState(1.0, 0.5),
                               DiffusionState(4.0, 1.0), 2.0, epsilon=0.01)
        runs = [lambda p: simulate_pdmp(p, 1.0, PdmpState(1.0, 3.0, 1), 20.0,
                                        seed=5),
                lambda p: simulate_pdmp_driven(p, 1.0, -2.0, 1.0, 1, 20.0,
                                               seed=5)]
        logs = [run(pot) for run in runs]
        copy = pickle.loads(pickle.dumps(pot))
        assert copy == pot
        for run, log in zip(runs, logs):
            again = run(copy)
            for name in ("times", "x", "u", "y"):
                assert_bitwise(getattr(again, name), getattr(log, name))
        # An event log carries its potential, generated samplers and all.
        pickle.loads(pickle.dumps(logs[0]))

    def test_two_workers_return_the_saved_logs(self, tmp_path, monkeypatch):
        files = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("CIRCLELAB_WORKERS", workers)
            out = tmp_path / workers
            manifest = run_scenario(scenario_from_dict({
                "kind": "ergodic", "process": "pdmp", "potential": {
                    "a0": 0.0, "harmonics": [[1, 1.0, 0.5]]},
                "horizon": 30.0, "replicas": 3, "u0": 2.0,
                "out_dir": str(out), "options": {"save_paths": 2}}))
            assert manifest.failures == ()
            files[workers] = [(out / f"events_{rep}.csv").read_bytes()
                              for rep in range(2)]
        assert files["1"] == files["2"]
