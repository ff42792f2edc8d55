"""Euler-Maruyama simulators for the self-interacting diffusion on the circle.

The Markov pair (X, U) follows

    dX_t = dB_t - U_t F'(X_t) dt,        dU_t = F(X_t) dt,

for a trigonometric potential F.  U is the running integral of F along the
path; the drift -U F' pushes X toward minima of F while U > 0 and toward
maxima while U < 0.  The frozen-drive variant replaces U_t by a
constant level M, making X alone a time-homogeneous diffusion,
dX = dB - M F'(X) dt; `run_exit_trials` simulates it between two
absorbing points for the escape-probability experiments.

Conventions shared by every simulator in this module:

- Euler-Maruyama with a left-endpoint update for U.  One step reads
  x' = wrap(x + sqrt(dt) * g - (u * F'(x)) * dt), u' = u + F(x) * dt,
  with F and F' evaluated at the pre-step position.
- One PCG64 stream per replica, derived from that replica's seed and
  consumed only by that replica.  A replica's noise sequence is therefore
  a pure function of its seed, independent of batch grouping.
- A replica's path is bitwise the same at every batch width.  Up to
  _SCALAR_PATH_MAX replicas run a per-replica scalar loop and wider
  batches one vector step, `_HarmonicWorkspace.em_step`; both start from
  wrap(x0) and sum F and F' in the order of the potential's coefficient
  tables, with the same float operations.  `run_exit_trials` evaluates
  F' with the same `_HarmonicWorkspace.eval`, so an exit outcome does
  not depend on the batch width either.  The vector loops draw noise
  per replica in blocks of steps and scale it by sqrt(dt) into a
  time-major buffer, so each step reads one contiguous row.
- A wide batch wraps x with two masked corrections, which are
  bitwise equal to the modulo while one step moves x by less than pi;
  a guard checks that bound once per noise block and falls back to the
  modulo for a block it does not cover (`_HarmonicWorkspace.em_step`).
- At every noise-block boundary the loops check that each replica's
  state is finite, and raise RunawayError naming the first bad seed.
- Recording keeps step 0, every `record_every`-th step, and the final
  step.  With the default dt = 1e-3 and record_every = 100 a horizon of
  2000 yields 20001 samples per replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .angles import TWO_PI, wrap
from .errors import RunawayError
from .potential import PeriodicPotential
from .seeding import generators_from_seeds

__all__ = [
    "DiffusionState",
    "Trajectory",
    "EnsembleTrajectories",
    "ExitEnsemble",
    "simulate_diffusion",
    "simulate_diffusion_ensemble",
    "simulate_terminal_u_coupled",
    "run_exit_trials",
]

# Ensembles at most this large run the per-replica scalar loop: the widest
# batch at which it beat the vector loop on both cosine and mixture F
# (2-vCPU Xeon, horizon 20, dt 1e-3, best of 7 interleaved runs, ns per
# replica-step, scalar vs vector: cosine 392 vs 436 at 21 wide, 417 vs 409
# at 22; mixture 574 vs 650 at 21).  Both loops draw the same noise and do
# the same float operations in the same order, so a replica's path is
# bitwise the same whichever loop runs it.
_SCALAR_PATH_MAX = 21
# Batches at least this wide wrap x with two masked corrections instead
# of np.remainder.  Measured on a 2-vCPU Xeon, ns per replica-step with
# F = cos x + cos 2x - 0.2, remainder vs masks (median of 7 interleaved
# runs): 256 wide 171 vs 181, 448 wide 168 vs 171, 512 wide 165 vs 156,
# 2048 wide 154 vs 144.
_MASKED_WRAP_MIN = 512
# Replicas per tile when noise is transposed into the time-major block:
# a tile's rows stay in cache, and the transposed write of 2048 x 256
# normals took 2.8 instead of 5.7 ns per element.
_TILE = 128


@dataclass(frozen=True)
class DiffusionState:
    """Position x on the circle and the accumulated interaction u."""

    x: float
    u: float


@dataclass(frozen=True)
class Trajectory:
    """Samples of one path at a uniform stride of ``record_every`` steps.

    The u column is the simulated interaction variable.  The x column lies
    in [0, 2*pi) except that the right endpoint can appear as a one-ulp
    rounding artifact of the modulo; consumers that bin angles clip for
    that case.
    """

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    dt: float
    record_every: int
    seed: int
    potential_id: str

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def terminal_state(self) -> DiffusionState:
        return DiffusionState(float(self.x[-1]), float(self.u[-1]))


@dataclass(frozen=True)
class EnsembleTrajectories:
    """Recorded paths of a replica ensemble; row i belongs to seeds[i]."""

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    dt: float
    record_every: int
    seeds: tuple
    potential_id: str

    @property
    def n_replicas(self) -> int:
        return int(self.x.shape[0])

    def replica(self, i: int) -> Trajectory:
        return Trajectory(
            times=self.times,
            x=self.x[i],
            u=self.u[i],
            dt=self.dt,
            record_every=self.record_every,
            seed=self.seeds[i],
            potential_id=self.potential_id,
        )


@dataclass(frozen=True)
class ExitEnsemble:
    """First-passage outcomes between two absorbing boundaries.

    exit_side holds +1 for trials absorbed at the upper boundary, -1 for
    the lower boundary, and 0 for trials censored at max_time.
    """

    exit_time: np.ndarray
    exit_side: np.ndarray
    low: float
    high: float
    x_start: float
    drive: float
    dt: float
    max_time: float
    seeds: tuple

    @property
    def n_trials(self) -> int:
        return int(self.exit_side.size)

    @property
    def n_lower(self) -> int:
        return int(np.count_nonzero(self.exit_side == -1))

    @property
    def n_upper(self) -> int:
        return int(np.count_nonzero(self.exit_side == 1))

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.exit_side == 0))

    @property
    def fraction_upper(self) -> float:
        return self.n_upper / self.n_trials


# ---------------------------------------------------------------------------
# engine internals


class _HarmonicWorkspace:
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
        self.rows = potential._f_fp_rows

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


def _noise_buffers(n_replicas: int, multiple_of: int = 1):
    """The replica-major draw block and the time-major step block that the
    vector loops fill once per block of steps.

    A block spans at most 2048 steps, and up to 2048 replicas the two
    hold at most 1 << 20 floats (8 MB) together.  Wider batches keep a
    floor of 256 steps per block, so that one standard_normal call per
    replica per block stays amortized.  A block is also the unit of the
    loops' checks: at its start they check that the state is finite and
    let `_HarmonicWorkspace.choose_wrap` pick the wrap of its steps from
    their noise, so the masked wrap runs only where one step moves x by
    less than pi.
    """
    blen = max(256, min(2048, (1 << 19) // max(n_replicas, 1)))
    blen -= blen % multiple_of
    blen = max(blen, multiple_of)
    return np.empty((n_replicas, blen)), np.empty((blen, n_replicas))


def _as_replica_array(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} sequence")
    return arr.copy()


def _validate_grid(horizon: float, dt: float, record_every: int) -> int:
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    if not (horizon > 0.0):
        raise ValueError("horizon must be positive")
    if dt > horizon:
        raise ValueError("dt must not exceed the horizon")
    if record_every < 1 or int(record_every) != record_every:
        raise ValueError("record_every must be a positive integer")
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    return n_steps


def _record_steps(horizon: float, dt: float, record_every: int) -> np.ndarray:
    """Step counts that `simulate_diffusion_ensemble` records: 0, every
    record_every-th step and the last, round(horizon / dt).  Raises
    ValueError for a grid it would refuse."""
    n_steps = _validate_grid(horizon, dt, record_every)
    return np.append(np.arange(0, n_steps, record_every, dtype=np.int64),
                     n_steps)


def _finite_umax(x: np.ndarray, u: np.ndarray, seeds, t: float) -> float:
    """max|u| over a batch, after checking that every replica's state is
    finite at time t; RunawayError naming the first bad replica's seed
    otherwise."""
    umax = float(np.max(np.abs(u)))
    if not (math.isfinite(umax) and math.isfinite(float(np.max(np.abs(x))))):
        bad = int(np.flatnonzero(~(np.isfinite(x) & np.isfinite(u)))[0])
        raise RunawayError(f"diffusion replica with seed {seeds[bad]}: "
                           f"x or u is not finite at t = {t!r}")
    return umax


def _scalar_self(potential, x0, u0, dt, gen, seed, rec_steps, out_x, out_u):
    # The potential's coefficient tables are the order reference: F and F'
    # are summed in their order, zero terms skipped, here and in
    # _HarmonicWorkspace.em_step, so a replica's path is bitwise the same
    # as in a vector batch of any width.  The sum is inlined: calling a
    # joint (F, F') method once per step cost 30-50 % more (2-vCPU Xeon).
    a0 = potential.a0
    rows = potential._f_fp_rows
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


def _fill_noise(block: np.ndarray, gens, m: int) -> None:
    for j, gen in enumerate(gens):
        gen.standard_normal(out=block[j, :m])


def _scaled_transpose(src: np.ndarray, dst: np.ndarray,
                      scale: float) -> None:
    """dst = scale * src.T, in tiles of _TILE rows of src, so that each
    tile is written time-major while it is still in cache."""
    for lo in range(0, src.shape[0], _TILE):
        np.multiply(src[lo:lo + _TILE].T, scale, out=dst[:, lo:lo + _TILE])


def _fill_steps(block: np.ndarray, steps: np.ndarray, gens, m: int,
                scale: float) -> None:
    """Draw each replica's next m normals into its row of block and write
    them, times scale, into steps[:m], one row per step."""
    _fill_noise(block, gens, m)
    _scaled_transpose(block[:, :m], steps[:m], scale)


def _vector_self(potential, x, u, dt, gens, seeds, rec_steps, out_x, out_u):
    n = x.size
    ws = _HarmonicWorkspace(potential, n)
    sqrt_dt = math.sqrt(dt)
    block, steps = _noise_buffers(n)
    out_x[:, 0] = x
    out_u[:, 0] = u
    marks = rec_steps.tolist()
    n_steps = marks[-1]
    rec = 1
    step = 0
    while step < n_steps:
        m = min(steps.shape[0], n_steps - step)
        _fill_steps(block, steps, gens, m, sqrt_dt)
        ws.choose_wrap(_finite_umax(x, u, seeds, step * dt), steps[:m], dt)
        for sn in steps[:m]:
            ws.em_step(x, u, sn, dt)
            step += 1
            if step == marks[rec]:
                out_x[:, rec] = x
                out_u[:, rec] = u
                rec += 1
    _finite_umax(x, u, seeds, step * dt)


def _simulate_recorded(potential, x0, u0, rec_steps, dt, seeds):
    """(x, u) of every replica at each step count in rec_steps, an
    increasing int64 array starting at 0; both of shape (n, len(rec_steps))."""
    n = len(seeds)
    x = wrap(_as_replica_array(x0, n, "x0"))
    u = _as_replica_array(u0, n, "u0")
    out_x = np.empty((n, rec_steps.size))
    out_u = np.empty((n, rec_steps.size))
    gens = generators_from_seeds(seeds)
    if n <= _SCALAR_PATH_MAX:
        for j in range(n):
            _scalar_self(potential, x[j], u[j], dt, gens[j], seeds[j],
                         rec_steps, out_x[j], out_u[j])
    else:
        _vector_self(potential, x, u, dt, gens, seeds, rec_steps, out_x,
                     out_u)
    return out_x, out_u


def level_factors(horizon: float, dt_levels: Sequence[float]):
    """(factors, fine steps, lcm of the factors) of nested step sizes:
    factors[i] is dt_levels[i] over the finest level, which must be an
    integer, and the horizon must hold a whole number of steps of every
    level.  Raises ValueError otherwise."""
    dt_f = min(dt_levels)
    factors = []
    for d in dt_levels:
        f = int(round(d / dt_f))
        if abs(f * dt_f - d) > 1e-12 * d:
            raise ValueError("each dt level must be an integer multiple of the finest")
        factors.append(f)
    n_steps_f = _validate_grid(horizon, dt_f, 1)
    lcm = math.lcm(*factors)
    if n_steps_f % lcm:
        raise ValueError("horizon must contain a whole number of steps of every level")
    return factors, n_steps_f, lcm


def _seed_tuple(seeds) -> tuple:
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    return seeds


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


# ---------------------------------------------------------------------------
# public simulators


def simulate_diffusion_ensemble(potential: PeriodicPotential, x0, u0,
                                horizon: float, *, dt: float = 1e-3,
                                seeds: Sequence[int] = (0,),
                                record_every: int = 100) -> EnsembleTrajectories:
    """Simulate independent replicas of the self-interacting pair (X, U).

    x0 and u0 broadcast over replicas (scalar or length-len(seeds)).  Up
    to _SCALAR_PATH_MAX (21) replicas run a per-replica scalar loop and
    larger ensembles a replica-vectorized loop; both consume identical
    noise streams in the same arithmetic order, so a replica's path
    depends only on its seed and start, bitwise, not on the batch it runs
    in.  A non-finite x0 or u0 raises ValueError naming it; a state that
    turns non-finite during the run raises RunawayError naming the
    replica's seed.
    """
    seeds = _seed_tuple(seeds)
    rec_steps = _record_steps(horizon, dt, record_every)
    times = rec_steps.astype(float) * dt
    out_x, out_u = _simulate_recorded(potential, x0, u0, rec_steps, dt, seeds)
    _freeze(times, out_x, out_u)
    return EnsembleTrajectories(times=times, x=out_x, u=out_u, dt=dt,
                                record_every=record_every, seeds=seeds,
                                potential_id=potential.potential_id)


def simulate_diffusion(potential: PeriodicPotential, z0: DiffusionState,
                       horizon: float, *, dt: float = 1e-3, seed: int = 0,
                       record_every: int = 100) -> Trajectory:
    """Simulate one replica; equivalent to a one-seed ensemble."""
    ens = simulate_diffusion_ensemble(potential, z0.x, z0.u, horizon, dt=dt,
                                      seeds=(seed,), record_every=record_every)
    return ens.replica(0)


def simulate_terminal_u_coupled(potential: PeriodicPotential, x0, u0,
                                horizon: float, dt_levels: Sequence[float],
                                *, seeds: Sequence[int]) -> dict:
    """Terminal U per step size, driving all levels with one Brownian path.

    Each coarser level must use an integer multiple of the finest dt; its
    Gaussian increments are the block sums of the fine increments (scaled
    by 1/sqrt(factor)), so all levels discretize the same Brownian motion.
    The common path makes the level-to-level differences of E[U_horizon]
    nearly noise-free, which is what a step-size refinement ratio needs.
    A replica's values depend only on its seed and start, bitwise, so
    seed chunks concatenate to the one-call result.  A state that turns
    non-finite raises RunawayError naming the replica's seed.  Returns
    {dt: array of terminal u over replicas}.
    """
    seeds = _seed_tuple(seeds)
    n = len(seeds)
    dt_levels = [float(d) for d in dt_levels]
    dt_f = min(dt_levels)
    factors, n_steps_f, lcm = level_factors(horizon, dt_levels)
    xs = [wrap(_as_replica_array(x0, n, "x0")) for _ in dt_levels]
    us = [_as_replica_array(u0, n, "u0") for _ in dt_levels]
    gens = generators_from_seeds(seeds)
    ws = _HarmonicWorkspace(potential, n)
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
    for lvl in range(len(dt_levels)):
        _finite_umax(xs[lvl], us[lvl], seeds, step * dt_f)
    return {dt_levels[lvl]: us[lvl] for lvl in range(len(dt_levels))}


def run_exit_trials(potential: PeriodicPotential, drive: float, low: float,
                    x_start: float, high: float, *, seeds: Sequence[int],
                    dt: float = 1e-3, max_time: float) -> ExitEnsemble:
    """First-passage trials of the frozen-drive diffusion between two points.

    Replicas start at x_start on the positively oriented arc from low to
    high and run dX = dB - drive * F'(X) dt until crossing either boundary
    (detected by sign change at the dt scale) or until max_time, when the
    trial is censored.  Each replica consumes its own noise stream in
    fixed blocks, so a trial's outcome depends only on its seed.  A
    non-finite drive, boundary, start, dt or max_time raises ValueError
    naming it.
    """
    seeds = _seed_tuple(seeds)
    n = len(seeds)
    for name, value in (("drive", drive), ("low", low), ("x_start", x_start),
                        ("high", high), ("dt", dt), ("max_time", max_time)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not (dt > 0.0 and max_time > 0.0):
        raise ValueError("dt and max_time must be positive")
    arc = float(wrap(high - low))
    if arc == 0.0:
        raise ValueError("boundaries must be distinct")
    s0 = float(wrap(x_start - low))
    if not 0.0 < s0 < arc:
        raise ValueError("x_start must lie strictly between the boundaries")
    max_steps = int(math.ceil(max_time / dt - 1e-9))
    drv = float(drive)
    sqrt_dt = math.sqrt(dt)
    gens = generators_from_seeds(seeds)
    exit_time = np.full(n, max_steps * dt)
    exit_side = np.zeros(n, dtype=np.int8)
    alive = np.arange(n)
    s = np.full(n, s0)
    ws = _HarmonicWorkspace(potential, n)
    xs = np.empty(n)
    block, steps = _noise_buffers(n)
    # Finished replicas leave the batch every blen steps; until then they
    # cost a full step each, and 2048-step blocks ran slower.  A replica's
    # noise does not depend on blen (the buffers hold at least 256 steps).
    blen = 256
    step = 0
    while step < max_steps and alive.size:
        m = min(blen, max_steps - step)
        na = alive.size
        _fill_steps(block[:na], steps[:, :na], gens, m, sqrt_dt)
        active = np.ones(na, dtype=bool)
        for i, sn in enumerate(steps[:m, :na]):
            np.add(s, low, out=xs)
            ws.eval(xs)
            fp = ws.fp
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
                idx = alive[hit_hi]
                exit_time[idx] = t_now
                exit_side[idx] = 1
                active &= ~(hit_lo | hit_hi)
        step += m
        if not active.all():
            alive = alive[active]
            s = s[active]
            gens = [gen for gen, keep in zip(gens, active) if keep]
            ws = _HarmonicWorkspace(potential, alive.size)
            xs = np.empty(alive.size)
    _freeze(exit_time, exit_side)
    return ExitEnsemble(exit_time=exit_time, exit_side=exit_side,
                        low=float(low), high=float(high),
                        x_start=float(x_start), drive=drv, dt=dt,
                        max_time=max_steps * dt, seeds=seeds)
