"""Tests for the Euler-Maruyama simulators and the exit-probability oracle."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab.angles import TWO_PI
from circlelab.diffusion import (
    _MASKED_WRAP_MIN,
    DiffusionState,
    _HarmonicWorkspace,
    _noise_buffers,
    analytic_escape_probability,
    run_exit_trials,
    simulate_diffusion,
    simulate_diffusion_ensemble,
    simulate_terminal_u_coupled,
)
from circlelab.errors import MonotonicityError, RunawayError
from circlelab.landscape import compute_level_geometry
from circlelab.potential import PeriodicPotential
from circlelab.seeding import derive_replica_seeds, generators_from_seeds

COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))
# A sine term (b_k != 0) and a harmonic k = 3: each reorders F or F' if the
# two EM loops disagree on arithmetic order.
SKEWED = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))
ODD_HARMONIC = PeriodicPotential(0.1, ((1, 1.0, 0.0), (3, 0.3, 0.0)))
# The first nonzero term is a sine term, and no harmonic has k = 1.
SINE_FIRST = PeriodicPotential(0.0, ((2, 0.0, 0.8), (3, 0.3, 0.0),
                                     (5, 0.0, 0.0)))


class TestEmStep:
    """A one-step simulate_diffusion run is one Euler-Maruyama step,
    x' = x + sqrt(dt) g - (u F'(x)) dt, u' = u + F(x) dt, with g the first
    normal draw of the seed's stream."""

    @staticmethod
    def _one_step(x0, u0, dt, seed=3):
        traj = simulate_diffusion(COSINE, DiffusionState(x0, u0), dt, dt=dt,
                                  seed=seed, record_every=1)
        g = generators_from_seeds((seed,))[0].standard_normal()
        return float(traj.x[-1]), float(traj.u[-1]), math.sqrt(dt) * g

    def test_flat_derivative_at_maximum(self):
        x, u, noise = self._one_step(0.0, 0.0, 1e-3)
        assert x == noise % TWO_PI
        assert u == 1e-3

    def test_flat_derivative_at_minimum(self):
        x, u, noise = self._one_step(math.pi, 5.0, 1e-3)
        assert x == pytest.approx((math.pi + noise) % TWO_PI, abs=1e-15)
        assert u == 5.0 - 1e-3

    def test_pure_drift_at_zero_of_potential(self):
        x, u, noise = self._one_step(math.pi / 2, 2.0, 1e-3)
        assert x == pytest.approx(math.pi / 2 + 2e-3 + noise, abs=1e-15)
        assert u == 2.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            simulate_diffusion(COSINE, DiffusionState(0.0, 0.0), 1.0, dt=0.0)


class TestSimulate:
    def test_identical_seeds_identical_trajectories(self):
        kw = dict(dt=1e-3, seed=5, record_every=10)
        a = simulate_diffusion(MIXTURE, DiffusionState(1.0, 0.5), 0.5, **kw)
        b = simulate_diffusion(MIXTURE, DiffusionState(1.0, 0.5), 0.5, **kw)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)

    def test_wrapped_start_matches_unwrapped(self):
        a = simulate_diffusion(COSINE, DiffusionState(0.5, 1.0), 0.5, seed=7)
        b = simulate_diffusion(COSINE, DiffusionState(0.5 + TWO_PI, 1.0), 0.5, seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)

    def test_u_increment_support_bound(self):
        traj = simulate_diffusion(MIXTURE, DiffusionState(1.0, 0.3), 5.0, seed=2)
        span = np.diff(traj.times)
        du = np.diff(traj.u)
        assert np.all(du >= MIXTURE.min_value * span - 1e-9)
        assert np.all(du <= MIXTURE.max_value * span + 1e-9)

    def test_u_uses_left_endpoint_rule(self):
        traj = simulate_diffusion(
            MIXTURE, DiffusionState(2.0, -1.0), 0.05, dt=1e-3, seed=9, record_every=1
        )
        expected = MIXTURE.value(traj.x[:-1]) * traj.dt
        assert np.max(np.abs(np.diff(traj.u) - expected)) < 1e-12

    def test_recording_grid_includes_final_partial_stride(self):
        traj = simulate_diffusion(
            COSINE, DiffusionState(0.0, 0.0), 1.05, dt=1e-2, seed=0, record_every=10
        )
        assert len(traj) == 12
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 1.05) < 1e-12
        assert np.all(np.diff(traj.times) > 0)

    def test_ensemble_replica_matches_single_run(self):
        ens = simulate_diffusion_ensemble(
            MIXTURE, 1.0, 2.0, 0.2, seeds=(11, 22, 33), record_every=5
        )
        single = simulate_diffusion(
            MIXTURE, DiffusionState(1.0, 2.0), 0.2, seed=22, record_every=5
        )
        rep = ens.replica(1)
        assert rep.seed == 22
        assert np.array_equal(rep.x, single.x)
        assert np.array_equal(rep.u, single.u)

    def test_scalar_and_vector_engines_agree(self):
        # Six replicas run the vector loop; each single-seed run takes the
        # scalar loop on the same noise stream.
        seeds = derive_replica_seeds(77, 6)
        ens = simulate_diffusion_ensemble(MIXTURE, 1.0, 0.5, 1.0, dt=1e-3,
                                          seeds=seeds, record_every=50)
        for i, seed in enumerate(seeds):
            single = simulate_diffusion(MIXTURE, DiffusionState(1.0, 0.5), 1.0,
                                        dt=1e-3, seed=seed, record_every=50)
            assert np.array_equal(ens.x[i], single.x)
            assert np.array_equal(ens.u[i], single.u)

    @settings(max_examples=20)
    @given(root=st.integers(0, 2**63 - 1),
           potential=st.sampled_from([SKEWED, ODD_HARMONIC]),
           x0=st.floats(0.0, TWO_PI, allow_nan=False),
           u0=st.floats(-5.0, 5.0, allow_nan=False))
    def test_replica_path_is_bitwise_the_same_at_every_width(
            self, root, potential, x0, u0):
        # Widths 1-4 take the scalar loop and 5-8 the vector loop; the last
        # w seeds of an 8-wide batch must give the same rows at width w.
        seeds = derive_replica_seeds(root, 8)
        kw = dict(dt=1e-3, record_every=40)
        full = simulate_diffusion_ensemble(potential, x0, u0, 1.0,
                                           seeds=seeds, **kw)
        for w in range(1, 8):
            ens = simulate_diffusion_ensemble(potential, x0, u0, 1.0,
                                              seeds=seeds[8 - w:], **kw)
            assert np.array_equal(ens.x, full.x[8 - w:]), w
            assert np.array_equal(ens.u, full.u[8 - w:]), w

    @settings(max_examples=8)
    @given(root=st.integers(0, 2**63 - 1),
           potential=st.sampled_from([SKEWED, ODD_HARMONIC, SINE_FIRST,
                                      MIXTURE]),
           x0=st.one_of(st.just(0.0), st.floats(0.0, TWO_PI, allow_nan=False)),
           u0=st.floats(-5.0, 5.0, allow_nan=False))
    def test_wide_batch_rows_match_narrow_batches(self, root, potential, x0,
                                                  u0):
        # 2500 steps span two noise blocks at widths 300, 256 and 64, with
        # the block edge at step 1747 at width 300 and at step 2048 at the
        # other two; widths 1 and 3 take the scalar loop.
        seeds = derive_replica_seeds(root, 300)
        kw = dict(dt=1e-3, record_every=250)
        full = simulate_diffusion_ensemble(potential, x0, u0, 2.5,
                                           seeds=seeds, **kw)
        for lo, hi in ((0, 1), (1, 4), (4, 68), (44, 300)):
            ens = simulate_diffusion_ensemble(potential, x0, u0, 2.5,
                                              seeds=seeds[lo:hi], **kw)
            assert np.array_equal(ens.x, full.x[lo:hi]), (lo, hi)
            assert np.array_equal(ens.u, full.u[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("n", [64, 100, 256, 1000, 2048])
    @pytest.mark.parametrize("multiple_of", [1, 4])
    def test_noise_buffers_stay_within_8_mb(self, n, multiple_of):
        block, steps = _noise_buffers(n, multiple_of)
        assert block.size + steps.size <= 1 << 20
        assert steps.shape[0] <= 2048
        assert block.shape == steps.shape[::-1] == (n, steps.shape[0])
        assert steps.shape[0] % multiple_of == 0

    def test_wide_noise_blocks_keep_256_steps(self):
        assert _noise_buffers(5000)[1].shape == (256, 5000)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            simulate_diffusion(COSINE, DiffusionState(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            simulate_diffusion(COSINE, DiffusionState(0.0, 0.0), 1.0, dt=2.0)
        with pytest.raises(ValueError):
            simulate_diffusion(COSINE, DiffusionState(0.0, 0.0), 1.0, record_every=0)

    @pytest.mark.parametrize("field", ["x0", "u0"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_start_rejected(self, field, value):
        start = {"x0": 1.0, "u0": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            simulate_diffusion(COSINE, DiffusionState(start["x0"], start["u0"]),
                               0.1)
        # One bad replica in a per-replica start array is enough.
        starts = {"x0": 1.0, "u0": 0.5, field: [0.0, value, 0.0]}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            simulate_diffusion_ensemble(COSINE, starts["x0"], starts["u0"],
                                        0.1, seeds=(1, 2, 3))


@contextlib.contextmanager
def _wrap_choices(force=None):
    """Record, for wide batches, whether each block took the masked wrap;
    force=True overrides the guard."""
    choices = []
    real = _HarmonicWorkspace.choose_wrap

    def spy(self, umax, sn, dt):
        real(self, umax, sn, dt)
        if self.mask is not None:
            if force is not None:
                self.masked = force
            choices.append(self.masked)

    with mock.patch.object(_HarmonicWorkspace, "choose_wrap", spy):
        yield choices


def _scalar_rows(potential, x0, u0, horizon, seeds, **kw):
    """x and u of each replica from its own one-seed (scalar loop) run."""
    u0 = np.broadcast_to(np.asarray(u0, dtype=float), (len(seeds),))
    runs = [simulate_diffusion(potential, DiffusionState(x0, float(u)),
                               horizon, seed=seed, **kw)
            for seed, u in zip(seeds, u0)]
    return np.array([r.x for r in runs]), np.array([r.u for r in runs])


class TestMaskedWrap:
    """Batches at least _MASKED_WRAP_MIN wide wrap x with two masked
    corrections in the blocks that the guard admits; every row stays
    bitwise equal to the scalar loop, which keeps the modulo."""

    WIDE = _MASKED_WRAP_MIN + 20

    @staticmethod
    def _assert_wrapped(x):
        assert np.all((x >= 0.0) & (x <= TWO_PI))
        assert not np.any(np.signbit(x))  # never -0.0

    @settings(max_examples=4)
    @given(root=st.integers(0, 2**63 - 1),
           potential=st.sampled_from([COSINE, MIXTURE, SKEWED]),
           x0=st.one_of(st.just(0.0), st.floats(0.0, TWO_PI, allow_nan=False)),
           u0=st.floats(-5.0, 5.0, allow_nan=False))
    def test_rows_match_the_scalar_loop_across_the_cutoff(self, root,
                                                          potential, x0, u0):
        # 1100 steps span two noise blocks at both widths; the narrow
        # batch sits one replica below the cut-off and keeps np.remainder.
        seeds = derive_replica_seeds(root, self.WIDE)
        kw = dict(dt=1e-3, record_every=1)
        with _wrap_choices() as choices:
            full = simulate_diffusion_ensemble(potential, x0, u0, 1.1,
                                               seeds=seeds, **kw)
        assert choices == [True, True]
        self._assert_wrapped(full.x)
        narrow = simulate_diffusion_ensemble(
            potential, x0, u0, 1.1, seeds=seeds[:_MASKED_WRAP_MIN - 1], **kw)
        assert np.array_equal(narrow.x, full.x[:_MASKED_WRAP_MIN - 1])
        assert np.array_equal(narrow.u, full.u[:_MASKED_WRAP_MIN - 1])
        x_ref, u_ref = _scalar_rows(potential, x0, u0, 1.1, seeds, **kw)
        assert np.array_equal(full.x, x_ref)
        assert np.array_equal(full.u, u_ref)

    def test_guard_keeps_the_modulo_when_a_step_can_pass_2pi(self):
        # From u0 = -5000 one step moves x by about u F'(x) dt ~ 10.
        seeds = derive_replica_seeds(5, self.WIDE)
        kw = dict(dt=2e-3, record_every=1)
        with _wrap_choices() as choices:
            full = simulate_diffusion_ensemble(COSINE, 1.0, -5000.0, 0.6,
                                               seeds=seeds, **kw)
        assert choices == [False]
        self._assert_wrapped(full.x)
        x_ref, u_ref = _scalar_rows(COSINE, 1.0, -5000.0, 0.6, seeds, **kw)
        assert np.array_equal(full.x, x_ref)
        assert np.array_equal(full.u, u_ref)
        # The input is sharp: without the guard x leaves [0, 2pi].
        with _wrap_choices(force=True):
            forced = simulate_diffusion_ensemble(COSINE, 1.0, -5000.0, 0.6,
                                                 seeds=seeds, **kw)
        assert forced.x.min() < 0.0 or forced.x.max() > TWO_PI

    def test_coupled_levels_on_seed_chunks_equal_one_call(self):
        seeds = derive_replica_seeds(23, self.WIDE + 80)
        levels = (4e-3, 2e-3, 1e-3)
        with _wrap_choices() as choices:
            whole = simulate_terminal_u_coupled(MIXTURE, 1.0, 0.5, 2.0,
                                                levels, seeds=seeds)
        assert choices and all(choices)
        cuts = (0, 3, 100, len(seeds))
        for d in levels:
            parts = [simulate_terminal_u_coupled(
                MIXTURE, 1.0, 0.5, 2.0, levels, seeds=seeds[lo:hi])[d]
                for lo, hi in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole[d]), d


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestRunaway:
    """A replica state that turns non-finite raises RunawayError naming the
    first bad replica's seed, in every EM loop."""

    @pytest.mark.parametrize("width", [1, 8, 300, _MASKED_WRAP_MIN + 20])
    def test_ensemble_raises_with_the_first_bad_seed(self, width):
        seeds = derive_replica_seeds(9, width)
        u0 = np.zeros(width)
        bad = width // 2
        u0[bad:] = 1e308
        with pytest.raises(RunawayError, match=f"seed {seeds[bad]}: "):
            simulate_diffusion_ensemble(MIXTURE, 1.0, u0, 0.01, dt=1e-3,
                                        seeds=seeds)

    def test_ensemble_raises_at_the_block_start_it_is_seen(self):
        # The state turns non-finite in the first steps; the scalar loop
        # sees it at the start of its second 4096-step block, the vector
        # loop at the start of its second 2048-step block.
        with pytest.raises(RunawayError, match=r"t = 4\.096"):
            simulate_diffusion_ensemble(MIXTURE, 1.0, 1e308, 6.0, dt=1e-3,
                                        seeds=(3,))
        with pytest.raises(RunawayError, match=r"t = 2\.048"):
            simulate_diffusion_ensemble(MIXTURE, 1.0, 1e308, 6.0, dt=1e-3,
                                        seeds=tuple(range(3, 9)))

    def test_coupled_levels_raise(self):
        seeds = derive_replica_seeds(9, 6)
        u0 = [0.0, 0.0, 1e308, 0.0, 1e308, 0.0]
        with pytest.raises(RunawayError, match=f"seed {seeds[2]}: "):
            simulate_terminal_u_coupled(MIXTURE, 1.0, u0, 0.04,
                                        (2e-3, 1e-3), seeds=seeds)


class TestCoupledRefinement:
    def test_finest_level_matches_plain_vector_run(self):
        seeds = derive_replica_seeds(21, 32)
        coupled = simulate_terminal_u_coupled(
            MIXTURE, 1.0, 0.5, 2.0, (4e-3, 2e-3, 1e-3), seeds=seeds
        )
        ens = simulate_diffusion_ensemble(
            MIXTURE, 1.0, 0.5, 2.0, dt=1e-3, seeds=seeds, record_every=2000
        )
        assert np.array_equal(coupled[1e-3], ens.u[:, -1])

    def test_levels_share_the_brownian_path(self):
        seeds = derive_replica_seeds(22, 256)
        coupled = simulate_terminal_u_coupled(
            MIXTURE, 1.0, 0.5, 2.0, (4e-3, 1e-3), seeds=seeds
        )
        coarse, fine = coupled[4e-3], coupled[1e-3]
        corr = np.corrcoef(coarse, fine)[0, 1]
        assert corr > 0.99
        assert np.std(coarse - fine) < 0.1 * np.std(fine)

    def test_rejects_non_nested_levels(self):
        with pytest.raises(ValueError):
            simulate_terminal_u_coupled(
                COSINE, 0.0, 0.0, 1.0, (3e-3, 2e-3), seeds=(0,)
            )
        with pytest.raises(ValueError):
            simulate_terminal_u_coupled(
                COSINE, 0.0, 0.0, 3e-3, (2e-3, 1e-3), seeds=(0,)
            )


class TestEscapeOracle:
    def test_boundary_values(self):
        assert analytic_escape_probability(COSINE, 4.0, math.pi, math.pi, 4.0) == 1.0
        assert analytic_escape_probability(COSINE, 4.0, math.pi, 4.0, 4.0) == 0.0
        assert (
            analytic_escape_probability(COSINE, 4.0, math.pi, math.pi, 4.0, "escape")
            == 0.0
        )

    def test_zero_drive_is_affine_in_arc_length(self):
        got = analytic_escape_probability(COSINE, 0.0, math.pi, 3.6, 4.3)
        assert abs(got - (4.3 - 3.6) / (4.3 - math.pi)) < 1e-10

    def test_orientations_are_complementary(self):
        printed = analytic_escape_probability(COSINE, 5.0, math.pi, 3.9, 4.3)
        escape = analytic_escape_probability(COSINE, 5.0, math.pi, 3.9, 4.3, "escape")
        assert abs(printed + escape - 1.0) < 1e-12

    def test_drift_suppresses_uphill_exit(self):
        flat = analytic_escape_probability(COSINE, 0.0, math.pi, 3.9, 4.3, "escape")
        pushed = analytic_escape_probability(COSINE, 6.0, math.pi, 3.9, 4.3, "escape")
        assert pushed < flat

    def test_non_monotone_arc_rejected(self):
        with pytest.raises(MonotonicityError):
            analytic_escape_probability(COSINE, 1.0, 2.0, 3.0, 4.5)
        with pytest.raises(MonotonicityError):
            analytic_escape_probability(COSINE, 1.0, 5.0, 6.0, 1.0)

    def test_monotone_arc_through_wrap(self):
        shifted = PeriodicPotential(0.0, ((1, math.cos(1.0), math.sin(1.0)),))
        got = analytic_escape_probability(shifted, 0.0, 4.2, 6.0, 0.9)
        arc = (0.9 + TWO_PI) - 4.2
        assert abs(got - ((0.9 + TWO_PI) - 6.0) / arc) < 1e-10
        assert 0.0 < analytic_escape_probability(shifted, 3.0, 4.2, 6.0, 0.9) < 1.0


class TestExitTrials:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_exit_trials(COSINE, 1.0, 1.0, 1.5, 1.0, seeds=(0,), max_time=1.0)
        with pytest.raises(ValueError):
            run_exit_trials(COSINE, 1.0, 1.0, 1.0, 2.0, seeds=(0,), max_time=1.0)

    @pytest.mark.parametrize("field", ["drive", "low", "x_start", "high",
                                       "dt", "max_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, field, value):
        kw = dict(drive=1.0, low=0.5, x_start=1.5, high=2.5, dt=1e-2,
                  max_time=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            run_exit_trials(COSINE, seeds=(1, 2, 3), **kw)

    def test_determinism_and_chunk_invariance(self):
        seeds = derive_replica_seeds(101, 64)
        kw = dict(dt=2e-3, max_time=20.0)
        whole = run_exit_trials(COSINE, 3.0, math.pi, 3.9, 4.4, seeds=seeds, **kw)
        first = run_exit_trials(COSINE, 3.0, math.pi, 3.9, 4.4, seeds=seeds[:32], **kw)
        second = run_exit_trials(COSINE, 3.0, math.pi, 3.9, 4.4, seeds=seeds[32:], **kw)
        assert np.array_equal(
            whole.exit_side, np.concatenate([first.exit_side, second.exit_side])
        )
        assert np.array_equal(
            whole.exit_time, np.concatenate([first.exit_time, second.exit_time])
        )

    def test_outcome_independent_of_batch_width(self):
        # A b_k != 0, k = 3 potential: each seed's outcome is the same
        # alone as in batches of 5 and 37, and the first eight match the
        # values recorded before exit trials moved onto the shared
        # evaluator.
        seeds = derive_replica_seeds(7, 37)
        kw = dict(dt=2e-3, max_time=2.0)

        def outcomes(width):
            runs = [run_exit_trials(SKEWED, 2.0, 0.3, 1.2, 2.6,
                                    seeds=seeds[i:i + width], **kw)
                    for i in range(0, len(seeds), width)]
            return (np.concatenate([r.exit_time for r in runs]),
                    np.concatenate([r.exit_side for r in runs]))

        times, sides = outcomes(37)
        for width in (1, 5):
            other_times, other_sides = outcomes(width)
            assert np.array_equal(other_times, times)
            assert np.array_equal(other_sides, sides)
        assert sides[:8].tolist() == [-1, -1, 1, 1, -1, -1, 0, -1]
        steps = np.array([86, 650, 184, 857, 240, 336, 1000, 253])
        assert np.array_equal(times[:8], steps * 2e-3)

    def test_empirical_exit_matches_scale_function_oracle(self):
        geo = compute_level_geometry(COSINE, eta=1.0 / 3.0)
        well = geo.wells[0]
        start = well.mid_points[1]
        upper = well.inner_interval[1]
        drive = 6.0
        seeds = derive_replica_seeds(2024, 2000)
        trials = run_exit_trials(
            COSINE, drive, math.pi, start, upper,
            seeds=seeds, dt=5e-4, max_time=200.0,
        )
        assert trials.n_censored == 0
        oracle = analytic_escape_probability(
            COSINE, drive, math.pi, start, upper, "escape"
        )
        q_hat = trials.fraction_upper
        se = math.sqrt(max(oracle * (1.0 - oracle), 1e-12) / len(seeds))
        assert abs(q_hat - oracle) < 3.5 * se + 2.0 / len(seeds)
