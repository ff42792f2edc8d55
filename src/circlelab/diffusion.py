"""Euler-Maruyama simulators for the self-interacting diffusion on the circle.

The Markov pair (X, U) follows

    dX_t = dB_t - U_t F'(X_t) dt,        dU_t = F(X_t) dt,

for a trigonometric potential F.  U is the running integral of F along the
path; the drift -U F' pushes X toward minima of F while U > 0 and toward
maxima while U < 0.  The frozen-drive variant replaces U_t by a
constant level M, making X alone a time-homogeneous diffusion,
dX = dB - M F'(X) dt; `run_exit_trials` simulates it between two
absorbing points for the escape-probability experiments, whose analytic
counterpart is the scale-function oracle `analytic_escape_probability`.

Conventions shared by every simulator in this module:

- Euler-Maruyama with a left-endpoint update for U.  One step reads
  x' = wrap(x + sqrt(dt) * g - (u * F'(x)) * dt), u' = u + F(x) * dt,
  with F and F' evaluated at the pre-step position.
- One PCG64 stream per replica, derived from that replica's seed and
  consumed only by that replica.  A replica's noise sequence is therefore
  a pure function of its seed, independent of batch grouping.
- A replica's path is bitwise the same at every batch width.  Up to 4
  replicas run a per-replica scalar loop, the order reference; wider
  batches run one vector step, `_HarmonicWorkspace.em_step`, with the
  same float operations.  `run_exit_trials` evaluates F' with the same
  `_HarmonicWorkspace.eval`, so an exit outcome does not depend on the
  batch width either.  The vector loops draw noise per replica in
  blocks of steps and scale it by sqrt(dt) into a time-major buffer, so
  each step reads one contiguous row.
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
from .errors import MonotonicityError
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
    "analytic_escape_probability",
]

# Ensembles at most this large run the per-replica scalar loop, which is
# much faster than numpy vector ops on tiny arrays.  Both loops draw the
# same noise and do the same float operations in the same order, so a
# replica's path is bitwise the same whichever loop runs it.
_SCALAR_PATH_MAX = 4
_MONOTONE_GRID = 512


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
        # Per harmonic, its nonzero terms as (F source, F coefficient, F'
        # source, F' coefficient), c and s holding cos(kx) and sin(kx):
        # a_k adds c a to F and s (-k a) to F', b_k adds s b and c (k b).
        self.step_terms = []
        for k, a, b in potential.harmonics:
            k, a, b = float(k), float(a), float(b)
            parts = []
            if a != 0.0:
                parts.append((self.c, a, self.s, -k * a))
            if b != 0.0:
                parts.append((self.s, b, self.c, k * b))
            if parts:
                self.step_terms.append((k, parts))

    def eval(self, x: np.ndarray) -> None:
        """Write F(x) into fv and F'(x) into fp.

        F and F' are summed term by term in the order of `_scalar_self`;
        the first term is written straight into fv and fp (fv then adds
        a0), which gives the same sums as starting from a0 and 0.
        """
        t, fv, fp = self.t, self.fv, self.fp
        fresh = True
        for k, parts in self.step_terms:
            ph = x if k == 1.0 else np.multiply(x, k, out=self.ph)
            np.cos(ph, out=self.c)
            np.sin(ph, out=self.s)
            for src_f, cf, src_d, cd in parts:
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

    def em_step(self, x: np.ndarray, u: np.ndarray, sn: np.ndarray,
                dt: float) -> None:
        """Advance every replica's (x, u) in place by one step of size dt,
        with sn holding sqrt(dt) times one standard normal per replica."""
        self.eval(x)
        fv, fp = self.fv, self.fp
        fp *= u
        fp *= dt
        np.subtract(sn, fp, out=fp)
        x += fp
        np.remainder(x, TWO_PI, out=x)
        fv *= dt
        u += fv


def _noise_buffers(n_replicas: int, multiple_of: int = 1):
    """The replica-major draw block and the time-major step block that the
    vector loops fill once per block of steps.

    A block spans at most 2048 steps, and up to 2048 replicas the two
    hold at most 1 << 20 floats (8 MB) together.  Wider batches keep a
    floor of 256 steps per block, so that one standard_normal call per
    replica per block stays amortized.
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


def _scalar_self(potential, x0, u0, dt, gen, rec_steps, out_x, out_u):
    # The order reference for every potential: F and F' are summed
    # harmonic by harmonic, zero coefficients skipped, and
    # _HarmonicWorkspace.em_step does the same float operations, so a
    # replica's path is bitwise the same here as in a vector batch of any
    # width.
    a0 = float(potential.a0)
    terms = [(float(k), float(a), float(k) * float(a), float(b),
              float(k) * float(b)) for k, a, b in potential.harmonics]
    sqrt_dt = math.sqrt(dt)
    cos = math.cos
    sin = math.sin
    x = float(x0) % TWO_PI
    if x == TWO_PI:
        x = 0.0
    u = float(u0)
    out_x[0] = x
    out_u[0] = u
    marks = rec_steps.tolist()
    n_steps = marks[-1]
    rec = 1
    step = 0
    while step < n_steps:
        m = min(4096, n_steps - step)
        noise = gen.standard_normal(m).tolist()
        for g in noise:
            fv = a0
            fp = 0.0
            for k, a, ka, b, kb in terms:
                ph = k * x
                c = cos(ph)
                s = sin(ph)
                if a != 0.0:
                    fv += c * a
                    fp -= s * ka
                if b != 0.0:
                    fv += s * b
                    fp += c * kb
            x = (x + (sqrt_dt * g - (u * fp) * dt)) % TWO_PI
            u = u + fv * dt
            step += 1
            if step == marks[rec]:
                out_x[rec] = x
                out_u[rec] = u
                rec += 1


def _fill_noise(block: np.ndarray, gens, m: int) -> None:
    if m == block.shape[1]:
        for j, gen in enumerate(gens):
            gen.standard_normal(out=block[j])
    else:
        for j, gen in enumerate(gens):
            block[j, :m] = gen.standard_normal(m)


def _vector_self(potential, x, u, dt, gens, rec_steps, out_x, out_u):
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
        _fill_noise(block, gens, m)
        np.multiply(block[:, :m].T, sqrt_dt, out=steps[:m])
        for sn in steps[:m]:
            ws.em_step(x, u, sn, dt)
            step += 1
            if step == marks[rec]:
                out_x[:, rec] = x
                out_u[:, rec] = u
                rec += 1


def _simulate_recorded(potential, x0, u0, rec_steps, dt, seeds):
    """(x, u) of every replica at each step count in rec_steps, an
    increasing int64 array starting at 0; both of shape (n, len(rec_steps))."""
    n = len(seeds)
    x = _as_replica_array(x0, n, "x0")
    np.remainder(x, TWO_PI, out=x)
    u = _as_replica_array(u0, n, "u0")
    out_x = np.empty((n, rec_steps.size))
    out_u = np.empty((n, rec_steps.size))
    gens = generators_from_seeds(seeds)
    if n <= _SCALAR_PATH_MAX:
        for j in range(n):
            _scalar_self(potential, x[j], u[j], dt, gens[j], rec_steps,
                         out_x[j], out_u[j])
    else:
        _vector_self(potential, x, u, dt, gens, rec_steps, out_x, out_u)
    return out_x, out_u


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
    to 4 replicas run a per-replica scalar loop and larger ensembles a
    replica-vectorized loop; both consume identical noise streams in the
    same arithmetic order, so a replica's path depends only on its seed
    and start, bitwise, not on the batch it runs in.  A non-finite x0 or
    u0 raises ValueError naming it.
    """
    seeds = _seed_tuple(seeds)
    n_steps = _validate_grid(horizon, dt, record_every)
    rec_steps = np.append(np.arange(0, n_steps, record_every, dtype=np.int64),
                          n_steps)
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
    Returns {dt: array of terminal u over replicas}.
    """
    seeds = _seed_tuple(seeds)
    n = len(seeds)
    dt_levels = [float(d) for d in dt_levels]
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
    xs = [_as_replica_array(x0, n, "x0") for _ in dt_levels]
    for xl in xs:
        np.remainder(xl, TWO_PI, out=xl)
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
            np.multiply(coarse.T, math.sqrt(dt), out=steps[:m // f])
            for sn in steps[:m // f]:
                ws.em_step(xs[lvl], us[lvl], sn, dt)
        step += m
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
        _fill_noise(block[:na], gens, m)
        np.multiply(block[:na, :m].T, sqrt_dt, out=steps[:m, :na])
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


# ---------------------------------------------------------------------------
# scale-function oracle


def analytic_escape_probability(potential: PeriodicPotential, drive: float,
                                x0: float, x: float, x1: float,
                                orientation: str = "printed") -> float:
    """Exit probability of dX = dB - drive * F'(X) dt between x0 and x1.

    The arc runs from x0 to x1 in the positive direction and F must be
    monotone on it (checked on a grid).  The scale density is
    exp(2 * drive * F); with p the scale function, the "printed"
    orientation returns (p(x1) - p(x)) / (p(x1) - p(x0)), which is the
    probability of reaching x0 before x1 (it is 1 at x = x0 and 0 at
    x = x1).  orientation="escape" returns the complement, the
    probability of reaching x1 first.  Quadrature is adaptive with
    relative tolerance 1e-10 on the integrand shifted by the arc maximum
    of F, so the exponentials never overflow.  It needs scipy, which
    only the tests install.
    """
    from scipy.integrate import quad

    if orientation not in ("printed", "escape"):
        raise ValueError("orientation must be 'printed' or 'escape'")
    if drive < 0.0:
        raise ValueError("drive must be nonnegative")
    arc = float(wrap(x1 - x0))
    if arc == 0.0:
        raise ValueError("x0 and x1 must be distinct")
    sx = float(wrap(x - x0))
    if sx > arc:
        raise ValueError("x must lie on the arc from x0 to x1")
    grid = np.linspace(0.0, arc, _MONOTONE_GRID + 1)
    vals = potential.value(x0 + grid)
    diffs = np.diff(vals)
    tol = 1e-10 * max(1.0, potential.coefficient_bound_derivative(1))
    if not (np.all(diffs >= -tol) or np.all(diffs <= tol)):
        raise MonotonicityError(
            "potential is not monotone on the arc from x0 to x1")
    if sx == 0.0:
        return 1.0 if orientation == "printed" else 0.0
    if sx == arc:
        return 0.0 if orientation == "printed" else 1.0
    shift = float(np.max(vals))
    two_m = 2.0 * float(drive)

    def integrand(s):
        return math.exp(two_m * (potential.value_s(x0 + s) - shift))

    i_low, _ = quad(integrand, 0.0, sx, epsabs=0.0, epsrel=1e-10, limit=200)
    i_high, _ = quad(integrand, sx, arc, epsabs=0.0, epsrel=1e-10, limit=200)
    printed = i_high / (i_low + i_high)
    return printed if orientation == "printed" else 1.0 - printed
