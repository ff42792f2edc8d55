"""Tests for the Euler-Maruyama simulators and the exit-probability oracle."""

import contextlib
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab import diffusion
from circlelab.angles import TWO_PI, wrap
from circlelab.diffusion import (
    _MASKED_WRAP_MIN,
    _SCALAR_PATH_MAX,
    DiffusionState,
    _choose_wrap,
    _em_block,
    _em_state,
    _fill_noise,
    _finite_umax,
    _noise_buffers,
    _scaled_transpose,
    _seed_tuple,
    level_factors,
    run_exit_trials,
    simulate_diffusion,
    simulate_diffusion_ensemble,
    simulate_terminal_u_coupled,
)
from circlelab.errors import MonotonicityError, RunawayError
from circlelab.landscape import compute_level_geometry
from circlelab.potential import PeriodicPotential
from circlelab.seeding import derive_replica_seeds, generators_from_seeds
from oracles import analytic_escape_probability
from test_landscape import assert_bitwise

COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))
# A sine term (b_k != 0) and a harmonic k = 3: each reorders F or F' if the
# two EM loops disagree on arithmetic order.
SKEWED = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))
ODD_HARMONIC = PeriodicPotential(0.1, ((1, 1.0, 0.0), (3, 0.3, 0.0)))
# The first nonzero term is a sine term, and no harmonic has k = 1.
SINE_FIRST = PeriodicPotential(0.0, ((2, 0.0, 0.8), (3, 0.3, 0.0),
                                     (5, 0.0, 0.0)))


# The per-harmonic vector evaluator and Euler-Maruyama step, one numpy call
# per term, that the generated block of `diffusion._em_source` must
# reproduce bit for bit.
class ReferenceWorkspace:
    """Preallocated buffers for evaluating F and F' on a batch of n
    replicas, and for the vector Euler-Maruyama step built on it."""

    def __init__(self, potential: PeriodicPotential, n: int):
        self.a0 = float(potential.a0)
        self.ph = np.empty(n)
        self.c = np.empty(n)
        self.s = np.empty(n)
        self.t = np.empty(n)
        self.fv = np.empty(n)
        self.fp = np.empty(n)
        # The masked wrap of em_step: its mask buffer (wide batches only),
        # whether the current block may use it, and the bounds on |F| and
        # |F'| that its guard needs.
        self.mask = np.empty(n, dtype=bool) if n >= _MASKED_WRAP_MIN else None
        self.masked = False
        self.sup_f = abs(self.a0) + potential.coefficient_bound_derivative(0)
        self.sup_fp = potential.coefficient_bound_derivative(1)
        self.rows = tuple(zip(potential.coefficients(0),
                              potential.coefficients(1)))

    def eval(self, x: np.ndarray) -> None:
        """Write F(x) into fv and F'(x) into fp.

        F and F' are summed term by term in the order of the potential's
        tables, zero terms skipped.  The first term is written straight
        into fv and fp (fv then adds a0), which gives the same sums as
        starting from a0 and -0.0.
        """
        c, s, t, fv, fp = self.c, self.s, self.t, self.fv, self.fp
        fresh = True
        for (k, a, b), (_, da, db) in self.rows:
            ph = x if k == 1.0 else np.multiply(x, k, out=self.ph)
            np.cos(ph, out=c)
            np.sin(ph, out=s)
            for src_f, cf, src_d, cd in ((c, a, s, da), (s, b, c, db)):
                if not cf:
                    continue
                if fresh:
                    np.multiply(src_f, cf, out=fv)
                    fv += self.a0
                    np.multiply(src_d, cd, out=fp)
                    fresh = False
                else:
                    np.multiply(src_f, cf, out=t)
                    fv += t
                    np.multiply(src_d, cd, out=t)
                    fp += t

    def choose_wrap(self, umax: float, sn: np.ndarray, dt: float) -> None:
        """Let the next len(sn) em_step calls use the masked wrap if no step
        among them can move x by pi or more.

        sn holds the block's sqrt(dt)-scaled noise, one row per step, and
        umax is max|u| at the block start.  Within the block |u| stays
        below umax + len(sn) dt sup|F|, so one step moves x by at most
        max|sn| + (umax + len(sn) dt sup|F|) sup|F'| dt; the sups are the
        potential's coefficient bounds.  Batches narrower than
        _MASKED_WRAP_MIN always keep np.remainder.
        """
        if self.mask is None:
            return
        smax = max(float(sn.max()), -float(sn.min()))
        reach = (umax + len(sn) * dt * self.sup_f) * self.sup_fp * dt
        self.masked = smax + reach < math.pi

    def em_step(self, x: np.ndarray, u: np.ndarray, sn: np.ndarray,
                dt: float) -> None:
        """Advance every replica's (x, u) in place by one step of size dt,
        with sn holding sqrt(dt) times one standard normal per replica.

        x starts in [0, 2pi].  Under the guard of choose_wrap the step
        leaves it in (-pi, 3pi), where subtracting 2pi from x >= 2pi and
        then adding 2pi to x < 0 gives the bits of np.remainder: x - 2pi
        is exact there (Sterbenz's lemma), as fmod is, and below 0 both
        forms round x + 2pi.  The one input where they differ, -0.0, does
        not arise, since x + step is -0.0 only when x is.
        """
        self.eval(x)
        fv, fp = self.fv, self.fp
        fp *= u
        fp *= dt
        np.subtract(sn, fp, out=fp)
        x += fp
        if self.masked:
            mask = self.mask
            np.greater_equal(x, TWO_PI, out=mask)
            np.subtract(x, TWO_PI, out=x, where=mask)
            np.less(x, 0.0, out=mask)
            np.add(x, TWO_PI, out=x, where=mask)
        else:
            np.remainder(x, TWO_PI, out=x)
        fv *= dt
        u += fv


def reference_block(potential, x, u, steps, dt, masked, marks):
    """x and u of each replica at the step counts in marks, from the
    reference step run once per row of steps on copies of x and u; and the
    final x and u."""
    ws = ReferenceWorkspace(potential, x.size)
    ws.masked = masked
    x, u = x.copy(), u.copy()
    out_x = np.empty((x.size, len(marks)))
    out_u = np.empty((x.size, len(marks)))
    rec = 0
    for step, sn in enumerate(steps, start=1):
        ws.em_step(x, u, sn, dt)
        if step == marks[rec]:
            out_x[:, rec] = x
            out_u[:, rec] = u
            rec += 1
    return out_x, out_u, x, u


def reference_coupled(potential, x0, u0, horizon, dt_levels, *, seeds):
    """simulate_terminal_u_coupled's loop over the reference step."""
    n = len(seeds)
    factors, n_steps_f = level_factors(horizon, dt_levels)
    lcm = math.lcm(*factors)
    dt_f = min(dt_levels)
    xs = [wrap(np.full(n, float(x0))) for _ in dt_levels]
    us = [np.full(n, float(u0)) for _ in dt_levels]
    gens = generators_from_seeds(seeds)
    ws = ReferenceWorkspace(potential, n)
    block, steps = _noise_buffers(n, multiple_of=lcm)
    step = 0
    while step < n_steps_f:
        m = min(steps.shape[0], n_steps_f - step)
        _fill_noise(block, gens, m)
        for lvl, f in enumerate(factors):
            dt = dt_levels[lvl]
            if f == 1:
                coarse = block[:, :m]
            else:
                coarse = block[:, :m].reshape(n, m // f, f).sum(axis=2)
                coarse *= 1.0 / math.sqrt(f)
            _scaled_transpose(coarse, steps[:m // f], math.sqrt(dt))
            umax = _finite_umax(xs[lvl], us[lvl], seeds, step * dt_f)
            ws.choose_wrap(umax, steps[:m // f], dt)
            for sn in steps[:m // f]:
                ws.em_step(xs[lvl], us[lvl], sn, dt)
        step += m
    return {dt_levels[lvl]: us[lvl] for lvl in range(len(dt_levels))}


# The exit-trial loop with F' read from the compiled array evaluator,
# which `TestCompiledSums` checks bitwise against the reference sums, and
# each replica stopped at the step it leaves the arc; `run_exit_trials`
# reads F' from the stacked sums in a generated block, scans for exits at
# block ends, and must give the same outcomes bit for bit.
def reference_exit_trials(potential, drive, low, x_start, high, *, seeds,
                          dt, max_time, positions):
    """(exit_time, exit_side, final_s) of the reference loop on
    `potential._sum(1, True)`; appends (replica indices, positions) of
    each step's F' reads to `positions`."""
    seeds = _seed_tuple(seeds)
    n = len(seeds)
    arc = float(wrap(high - low))
    s0 = float(wrap(x_start - low))
    max_steps = int(math.ceil(max_time / dt - 1e-9))
    drv = float(drive)
    sqrt_dt = math.sqrt(dt)
    gens = generators_from_seeds(seeds)
    exit_time = np.full(n, max_steps * dt)
    exit_side = np.zeros(n, dtype=np.int8)
    final_s = np.empty(n)
    alive = np.arange(n)
    s = np.full(n, s0)
    fprime = potential._sum(1, True)
    block, steps = _noise_buffers(n)
    blen = 256
    step = 0
    while step < max_steps and alive.size:
        m = min(blen, max_steps - step)
        na = alive.size
        _fill_noise(block[:na], gens, m)
        _scaled_transpose(block[:na, :m], steps[:m, :na], sqrt_dt)
        active = np.ones(na, dtype=bool)
        for i, sn in enumerate(steps[:m, :na]):
            xs = s + low
            positions.append((alive, xs))
            fp = fprime(xs)
            fp *= drv
            fp *= dt
            np.subtract(sn, fp, out=fp)
            fp *= active  # finished replicas stop moving
            s += fp
            hit_lo = (s <= 0.0) & active
            hit_hi = (s >= arc) & active
            if hit_lo.any() or hit_hi.any():
                t_now = (step + i + 1) * dt
                idx = alive[hit_lo]
                exit_time[idx] = t_now
                exit_side[idx] = -1
                final_s[idx] = s[hit_lo]
                idx = alive[hit_hi]
                exit_time[idx] = t_now
                exit_side[idx] = 1
                final_s[idx] = s[hit_hi]
                active &= ~(hit_lo | hit_hi)
        step += m
        if not active.all():
            alive = alive[active]
            s = s[active]
            gens = [gen for gen, keep in zip(gens, active) if keep]
    final_s[alive] = s
    return exit_time, exit_side, final_s


# The hand-written scalar EM loop that the generated block of
# `diffusion._scalar_source` must reproduce bit for bit, with its driver.
def reference_scalar_self(potential, x0, u0, dt, gen, seed, rec_steps, out_x,
                          out_u):
    # The potential's coefficient tables are the order reference: F and F'
    # are summed in their order, zero terms skipped, here and in the
    # generated vector block, so a replica's path is bitwise the same
    # as in a vector batch of any width.  The sum is inlined: calling a
    # joint (F, F') method once per step cost 30-50 % more (2-vCPU Xeon).
    a0 = potential.a0
    rows = tuple(zip(potential.coefficients(0), potential.coefficients(1)))
    sqrt_dt = math.sqrt(dt)
    cos = math.cos
    sin = math.sin
    x = float(x0)
    u = float(u0)
    out_x[0] = x
    out_u[0] = u
    marks = rec_steps.tolist()
    n_steps = marks[-1]
    rec = 1
    step = 0
    while step < n_steps:
        if not (math.isfinite(x) and math.isfinite(u)):
            break
        m = min(4096, n_steps - step)
        noise = gen.standard_normal(m).tolist()
        for g in noise:
            fv = a0
            fp = -0.0
            for (k, a, b), (_, da, db) in rows:
                ph = k * x
                c = cos(ph)
                s = sin(ph)
                if a:
                    fv += a * c
                    fp += da * s
                if b:
                    fv += b * s
                    fp += db * c
            x = (x + (sqrt_dt * g - (u * fp) * dt)) % TWO_PI
            u = u + fv * dt
            step += 1
            if step == marks[rec]:
                out_x[rec] = x
                out_u[rec] = u
                rec += 1
    if not (math.isfinite(x) and math.isfinite(u)):
        raise RunawayError(f"diffusion replica with seed {seed}: "
                           f"x or u is not finite at t = {step * dt!r}")


@st.composite
def em_potentials(draw):
    """Potentials with k up to 5 whose coefficients are often exactly 0,
    1 or -1."""
    coef = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                     st.floats(-2.0, 2.0, allow_nan=False))
    hs = draw(st.lists(st.tuples(st.integers(1, 5), coef, coef), min_size=1,
                       max_size=4, unique_by=lambda t: t[0])
              .filter(lambda hs: any(a or b for _, a, b in hs)))
    a0 = draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                        st.floats(-0.5, 0.5)))
    return PeriodicPotential(a0, tuple(hs))


class TestGeneratedBlock:
    """The generated vector EM block is the reference step loop, bit for
    bit: the recorded rows, the final state and the wrap it runs."""

    @settings(max_examples=40)
    @given(pot=em_potentials(),
           width=st.one_of(st.integers(22, 80),
                           st.integers(_MASKED_WRAP_MIN - 20, 700)),
           u0=st.one_of(st.floats(-1e3, 1e3), st.floats(-5.0, 5.0)),
           dt=st.sampled_from([1e-3, 2e-3]),
           modulo=st.booleans(),
           n_steps=st.integers(1, 300),
           stride=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(MIXTURE, _MASKED_WRAP_MIN + 20, 3.0, 1e-3, False, 300, 7, 1)
    @example(SKEWED, 700, -1e3, 2e-3, False, 200, 9, 2)
    @example(SINE_FIRST, 22, 1e3, 2e-3, True, 50, 50, 3)
    def test_block_is_the_reference_step_loop_bitwise(
            self, pot, width, u0, dt, modulo, n_steps, stride, seed):
        gen = np.random.default_rng(seed)
        x0 = gen.uniform(0.0, TWO_PI, width)
        x0[0] = 0.0
        u = u0 + gen.standard_normal(width)
        steps = math.sqrt(dt) * gen.standard_normal((n_steps, width))
        marks = list(range(stride, n_steps, stride)) + [n_steps]
        umax = float(np.max(np.abs(u)))
        masked = _choose_wrap(pot, width, umax, steps, dt)
        ws = ReferenceWorkspace(pot, width)
        ws.choose_wrap(umax, steps, dt)
        assert masked == ws.masked
        masked = masked and not modulo
        M = _em_state(pot, x0, u)
        got_x = np.empty((width, len(marks)))
        got_u = np.empty((width, len(marks)))
        assert _em_block(pot, masked)(M, steps, dt, 0, marks, 0, got_x,
                                      got_u) == (n_steps, len(marks))
        want_x, want_u, x, u = reference_block(pot, x0, u, steps, dt, masked,
                                               marks)
        assert_bitwise(got_x, want_x)
        assert_bitwise(got_u, want_u)
        assert_bitwise(M[1], x)
        assert_bitwise(M[0], u)

    @pytest.mark.parametrize("pot", [MIXTURE, SKEWED, SINE_FIRST])
    @pytest.mark.parametrize("width, levels", [
        pytest.param(width, levels, id=f"{width}{tag}")
        for tag, levels in (("", (4e-3, 2e-3, 1e-3)), ("-f3", (3e-3, 1e-3)))
        for width in (1, _SCALAR_PATH_MAX, 22, _MASKED_WRAP_MIN + 20)])
    def test_coupled_levels_are_the_reference_loop_bitwise(self, pot, width,
                                                           levels):
        # 2400 fine steps span two noise blocks at every width.
        seeds = derive_replica_seeds(31, width)
        got = simulate_terminal_u_coupled(pot, 1.0, 0.5, 2.4, levels,
                                          seeds=seeds)
        want = reference_coupled(pot, 1.0, 0.5, 2.4, levels, seeds=seeds)
        for d in levels:
            assert_bitwise(got[d], want[d])

    def test_potential_pickles_after_the_vector_loops(self):
        pot = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))
        seeds = derive_replica_seeds(4, 40)

        def run(p):
            ens = simulate_diffusion_ensemble(p, 1.0, 2.0, 0.5, seeds=seeds)
            levels = simulate_terminal_u_coupled(p, 1.0, 2.0, 0.4,
                                                 (2e-3, 1e-3), seeds=seeds)
            trials = run_exit_trials(p, 2.0, 0.3, 1.2, 2.6, seeds=seeds,
                                     dt=2e-3, max_time=1.0)
            return (ens.x, ens.u, levels[2e-3], levels[1e-3],
                    trials.exit_time, trials.exit_side)

        first = run(pot)
        copy = pickle.loads(pickle.dumps(pot))
        assert copy == pot
        for got, want in zip(run(copy), first):
            assert np.array_equal(got, want)


class TestScalarBlock:
    """The generated scalar EM block, run by the noise-block driver on a
    one-replica batch, is the reference scalar loop, bit for bit."""

    @settings(max_examples=25)
    @given(pot=em_potentials(),
           x0=st.one_of(st.just(0.0), st.floats(0.0, TWO_PI, exclude_max=True)),
           u0=st.one_of(st.floats(-1e3, 1e3), st.floats(-5.0, 5.0)),
           dt=st.sampled_from([1e-3, 2e-3]),
           n_steps=st.integers(4090, 4200),
           record_every=st.sampled_from([1, 7]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(MIXTURE, 0.0, 1e3, 1e-3, 4097, 7, 1)
    @example(SINE_FIRST, 3.0, -1e3, 2e-3, 4096, 1, 2)
    def test_block_is_the_reference_loop_bitwise(self, pot, x0, u0, dt,
                                                  n_steps, record_every, seed):
        rec_steps = diffusion._record_steps(n_steps * dt, dt, record_every)
        assert rec_steps[-1] == n_steps
        got_x, got_u = diffusion._simulate_recorded(pot, x0, u0, rec_steps,
                                                    dt, seeds=(seed,))
        want = np.empty((2, rec_steps.size))
        gen = generators_from_seeds((seed,))[0]
        reference_scalar_self(pot, x0, u0, dt, gen, seed, rec_steps, want[0],
                              want[1])
        assert_bitwise(got_x[0], want[0])
        assert_bitwise(got_u[0], want[1])


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

    def test_start_just_below_zero_is_the_same_at_every_width(self):
        # np.remainder(-1e-17, 2 pi) rounds up to 2 pi.  Every loop starts
        # from wrap(x0), which folds that endpoint to 0.0.
        seeds = derive_replica_seeds(5, _SCALAR_PATH_MAX + 2)
        kw = dict(dt=1e-3, record_every=10)
        wide = simulate_diffusion_ensemble(MIXTURE, -1e-17, 0.5, 0.2,
                                           seeds=seeds, **kw)
        narrow = simulate_diffusion_ensemble(MIXTURE, -1e-17, 0.5, 0.2,
                                             seeds=seeds[:1], **kw)
        assert wide.x[0, 0] == 0.0
        assert np.array_equal(narrow.x, wide.x[:1])
        assert np.array_equal(narrow.u, wide.u[:1])
        levels = (2e-3, 1e-3)
        below = simulate_terminal_u_coupled(MIXTURE, -1e-17, 0.5, 0.2, levels,
                                            seeds=seeds)
        zero = simulate_terminal_u_coupled(MIXTURE, 0.0, 0.5, 0.2, levels,
                                           seeds=seeds)
        for d in levels:
            assert np.array_equal(below[d], zero[d]), d

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
        # One replica above the cutoff runs the vector loop; each
        # single-seed run takes the scalar loop on the same noise stream.
        seeds = derive_replica_seeds(77, _SCALAR_PATH_MAX + 1)
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
        # Widths up to _SCALAR_PATH_MAX take the scalar loop and wider ones
        # the vector loop; the last w seeds of the widest batch must give
        # the same rows at width w.
        n = _SCALAR_PATH_MAX + 2
        seeds = derive_replica_seeds(root, n)
        kw = dict(dt=1e-3, record_every=40)
        full = simulate_diffusion_ensemble(potential, x0, u0, 1.0,
                                           seeds=seeds, **kw)
        for w in range(1, n):
            ens = simulate_diffusion_ensemble(potential, x0, u0, 1.0,
                                              seeds=seeds[n - w:], **kw)
            assert np.array_equal(ens.x, full.x[n - w:]), w
            assert np.array_equal(ens.u, full.u[n - w:]), w

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

    @pytest.mark.parametrize("horizon, levels, field", [
        pytest.param(math.inf, None, "horizon", id="horizon-inf"),
        pytest.param(1.0, [], "dt_levels", id="levels-empty"),
        pytest.param(1.0, [1e-3, 0.0], "dt_levels", id="levels-zero"),
        pytest.param(1.0, [-1e-3], "dt_levels", id="levels-negative"),
        pytest.param(1.0, [1e-3, math.nan], "dt_levels", id="levels-nan"),
        pytest.param(1.0, [1e-3, math.inf], "dt_levels", id="levels-inf"),
    ])
    def test_bad_grid_names_its_field(self, horizon, levels, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            if levels is None:
                simulate_diffusion_ensemble(COSINE, 1.0, 0.0, horizon)
            else:
                level_factors(horizon, levels)

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
    real = diffusion._choose_wrap

    def spy(potential, n, umax, sn, dt):
        masked = real(potential, n, umax, sn, dt)
        if n >= _MASKED_WRAP_MIN:
            if force is not None:
                masked = force
            choices.append(masked)
        return masked

    with mock.patch.object(diffusion, "_choose_wrap", spy):
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
        # The state turns non-finite in the first steps; the driver sees it
        # at the start of its second 2048-step noise block, on the scalar
        # block and on the vector block alike.
        for width in (1, _SCALAR_PATH_MAX + 1):
            with pytest.raises(RunawayError, match=r"t = 2\.048"):
                simulate_diffusion_ensemble(MIXTURE, 1.0, 1e308, 6.0, dt=1e-3,
                                            seeds=range(3, 3 + width))

    def test_coupled_levels_raise(self):
        seeds = derive_replica_seeds(9, 6)
        u0 = [0.0, 0.0, 1e308, 0.0, 1e308, 0.0]
        with pytest.raises(RunawayError, match=f"seed {seeds[2]}: "):
            simulate_terminal_u_coupled(MIXTURE, 1.0, u0, 0.04,
                                        (2e-3, 1e-3), seeds=seeds)

    def test_wide_coupled_levels_raise(self):
        # u0 = 1e308 is finite at the block start; u F' dt overflows in
        # the block's first steps.
        seeds = derive_replica_seeds(9, _MASKED_WRAP_MIN + 20)
        u0 = np.zeros(len(seeds))
        u0[[2, 4]] = 1e308
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

    @settings(max_examples=30)
    @given(pot=em_potentials(),
           width=st.integers(1, 300),
           drive=st.floats(-5.0, 5.0),
           low=st.floats(0.0, TWO_PI, exclude_max=True),
           arc=st.floats(0.2, 3.0),
           frac=st.floats(0.1, 0.9),
           max_time=st.floats(0.05, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(SINE_FIRST, 300, -3.0, 5.5, 1.5, 0.4, 1.0, 1)
    @example(SKEWED, 1, 2.0, 6.0, 2.0, 0.5, 1.0, 2)
    def test_outcomes_are_the_reference_loop_bitwise(
            self, pot, width, drive, low, arc, frac, max_time, seed):
        # Arcs with low + arc past 2 pi cross 0; 1.0 holds two 256-step
        # blocks at dt = 2e-3.
        # The positions that F' is read at are compared too, up to each
        # replica's exit step: an exit outcome hides most one-ulp moves of
        # a path.  The block moves a replica on after its exit, the
        # reference stops it, so later positions differ by design.
        high = float(wrap(low + arc))
        x_start = float(wrap(low + frac * arc))
        seeds = derive_replica_seeds(seed, width)
        real = PeriodicPotential._generated
        got_x = []

        def traced(self, name, source, *args):
            run = real(self, name, source, *args)

            def record(s, steps, low, drive, dt):
                s0 = s.copy()
                run(s, steps, low, drive, dt)
                got_x.extend(row + low for row in [s0, *steps[:-1]])
            return record if name == "exit_block" else run

        with mock.patch.object(PeriodicPotential, "_generated", traced):
            got = run_exit_trials(pot, drive, low, x_start, high,
                                  seeds=seeds, dt=2e-3, max_time=max_time)
        want = []
        want_time, want_side, want_s = reference_exit_trials(
            pot, drive, low, x_start, high, seeds=seeds, dt=2e-3,
            max_time=max_time, positions=want)
        assert got.exit_time.tobytes() == want_time.tobytes()
        assert got.exit_side.tobytes() == want_side.tobytes()
        assert got.final_s.tobytes() == want_s.tobytes()
        assert [x.size for x in got_x] == [x.size for _, x in want]
        exit_step = np.rint(want_time / 2e-3)
        for t, (got_t, (alive, want_t)) in enumerate(zip(got_x, want)):
            moving = t < exit_step[alive]
            assert_bitwise(got_t[moving], want_t[moving])

    @settings(max_examples=15, deadline=None)
    @given(pot=em_potentials(),
           arcs=st.lists(st.tuples(st.floats(0.0, TWO_PI, exclude_max=True),
                                   st.floats(0.2, 3.0), st.floats(0.1, 0.9)),
                         min_size=1, max_size=300),
           drive=st.floats(-5.0, 5.0),
           max_time=st.floats(0.05, 0.6),
           seed=st.integers(0, 2 ** 32 - 1),
           bad=st.integers(0, 299))
    @example(SKEWED, [(5.5, 1.5, 0.4), (0.3, 2.0, 0.5)] * 150, 2.0, 0.6, 3,
             299)
    def test_mixed_batch_is_each_replica_alone(self, pot, arcs, drive,
                                               max_time, seed, bad):
        # Arcs with low + length past 2 pi cross 0.
        low = np.array([lo for lo, _, _ in arcs])
        high = wrap(np.array([lo + arc for lo, arc, _ in arcs]))
        x_start = wrap(np.array([lo + f * arc for lo, arc, f in arcs]))
        seeds = derive_replica_seeds(seed, len(arcs))
        kw = dict(dt=2e-3, max_time=max_time)
        got = run_exit_trials(pot, drive, low, x_start, high, seeds=seeds,
                              **kw)
        alone = [run_exit_trials(pot, drive, low[j], x_start[j], high[j],
                                 seeds=seeds[j:j + 1], **kw)
                 for j in range(len(arcs))]
        for field in ("exit_time", "exit_side", "final_s"):
            want = np.concatenate([getattr(r, field) for r in alone])
            assert getattr(got, field).tobytes() == want.tobytes()
        j = bad % len(arcs)
        for field, value in (("x_start", low[j]), ("low", math.nan),
                             ("high", math.inf)):
            args = {"low": low.copy(), "x_start": x_start.copy(),
                    "high": high.copy()}
            args[field][j] = value
            with pytest.raises(ValueError, match=field):
                run_exit_trials(pot, drive, seeds=seeds, **args, **kw)

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
        q_hat = np.mean(trials.exit_side == 1)
        se = math.sqrt(max(oracle * (1.0 - oracle), 1e-12) / len(seeds))
        assert abs(q_hat - oracle) < 3.5 * se + 2.0 / len(seeds)
