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
- A replica's path is bitwise the same at every batch width.  One
  noise-block driver, `_run_levels`, runs ensembles and the coupled
  step-size levels at every width: per block of each replica's noise,
  up to _SCALAR_PATH_MAX replicas run a per-replica scalar block and
  wider batches a vector block, each generated once per potential;
  both start from wrap(x0) and add the terms of F and F' in the order
  of `PeriodicPotential._terms`, with the same float operations.  The
  vector block keeps its state as one array M = [u; x; k x ...]: rows 0
  and 1 are (u, x), and rows 1... are the phase stack of the harmonics,
  so one cos call and one sin call evaluate every harmonic, one
  multiply per coefficient column forms all of a table's terms, and one
  call updates u and x together.  A step costs a dozen numpy calls
  whatever the number of harmonics.  Its noise is scaled by sqrt(dt)
  into a time-major buffer, so each step reads one contiguous row.
  `run_exit_trials` runs a generated frozen-drive block with F' alone
  from the same stacked sums and scans each noise block for exits at
  its end, so an exit outcome does not depend on the batch width
  either.
- A wide batch wraps x with two masked corrections, which are
  bitwise equal to the modulo while one step moves x by less than pi;
  a guard checks that bound once per noise block and runs the block
  with the modulo where it does not hold (`_choose_wrap`).
- At every noise-block boundary the driver checks that each replica's
  state is finite, and raises RunawayError naming the first bad seed.
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

# Batches at most this wide run the per-replica scalar block: the widest
# batch at which it beat the generated vector block on both cosine and
# mixture F in every set of interleaved runs that measured it (three sets,
# 2-vCPU Xeon, horizon 20, dt 1e-3, u0 30, best of 9 runs, ns per
# replica-step, scalar vs vector: cosine 226 vs 267 and mixture 335 vs
# 369 at 19 wide; at 20 the mixture went either way, 354 vs 339 and 360
# vs 369; at 24 the vector block won on both, 222 vs 209 and 322 vs 288).
# Both loops do the same float operations on the same noise, so a
# replica's path is bitwise the same whichever loop runs it.
_SCALAR_PATH_MAX = 19
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
# Recording marks that no step count reaches: the coupled levels record
# nothing.
_NO_MARKS = (-1,)


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
    the lower boundary, and 0 for trials censored at max_time.  final_s
    holds each trial's arc coordinate (distance from low along the arc)
    at its exit or censoring, and low, high and x_start each trial's
    boundaries and start.
    """

    exit_time: np.ndarray
    exit_side: np.ndarray
    final_s: np.ndarray
    low: np.ndarray
    high: np.ndarray
    x_start: np.ndarray
    drive: float
    dt: float
    max_time: float
    seeds: tuple

    @property
    def n_censored(self) -> int:
        return int(np.count_nonzero(self.exit_side == 0))


# ---------------------------------------------------------------------------
# engine internals


def _sums_lines(potential: PeriodicPotential, outs: dict):
    """(setup, step): Python statements that write, for each order >= 0
    and name of `outs`, the table sum of that order (see
    `PeriodicPotential._terms`) at every column of the phase stack Q into
    the row bound to the name.

    Q holds x in row 0 and then k x for each harmonic k != 1, in table
    order; its phase rows are Q itself if the first harmonic is k = 1,
    and Q[1:] otherwise.  The setup statements bind views, buffers and
    coefficient columns once per Q.  The step statements make one numpy
    call per operation on the whole stack, not per harmonic: one
    multiply fills the k x rows, one cos and one sin call take every
    phase row, and one multiply per nonzero coefficient column of a
    table forms all of its terms.  A column whose nonzero entries are
    all 1.0 is the trig rows themselves, since c * 1.0 is c bitwise.
    The terms are then added in the order of `_terms`, zero terms left
    out, the first written straight in and a0 added after it for F, so
    each sum is bitwise the scalar evaluators' sum at that x.  A sum of
    one term (one harmonic, one nonzero coefficient) is written into its
    row by the multiply.  The statements read np and bind x, ph, kx,
    ks, C, S, multiply, add and names starting with t or v.
    """
    ks = [k for k, _, _ in potential.coefficients(0)]
    row = {int(k): i for i, k in enumerate(ks)}
    others = [[k] for k in ks if k != 1.0]
    head = ["x = Q[0]", f"ph = {'Q' if ks[0] == 1.0 else 'Q[1:]'}",
            "multiply = np.multiply", "add = np.add"]
    phases = []
    if others:
        head += ["kx = Q[1:]", f"ks = np.array({others!r})"]
        phases.append("multiply(x, ks, kx)")
    trig, columns, views = set(), [], {}
    products, sums, alias = [], [], {}
    for order, name in outs.items():
        coefs, terms = {}, []
        for coef, fn, k in potential._terms(order):
            tag, fn = f"t{order}{fn}", fn.upper()
            coefs.setdefault(tag, (fn, [[0.0] for _ in ks]))
            coefs[tag][1][row[k]][0] = coef
            terms.append((tag, row[k]))
        one = len(terms) == 1 and order > 0
        for tag, (fn, col) in coefs.items():
            trig.add(fn)
            if one:
                columns += [f"{tag}c = np.array({col!r})",
                            f"v{name} = {name}[None]"]
                products.append(f"multiply({fn}, {tag}c, v{name})")
            elif all(c == 1.0 for (c,) in col if c):
                alias[tag] = fn
            else:
                columns += [f"{tag}c = np.array({col!r})",
                            f"{tag} = np.empty(ph.shape)"]
                products.append(f"multiply({fn}, {tag}c, {tag})")
        if one:
            continue
        rows = []
        for tag, i in terms:
            arr = alias.get(tag, tag)
            rows.append(f"{arr}_{i}")
            views[rows[-1]] = f"{arr}[{i}]"
        if order == 0:
            sums.append(f"add({rows[0]}, {potential.a0!r}, {name})")
            rows = rows[1:]
        else:
            sums.append(f"add({rows[0]}, {rows[1]}, {name})")
            rows = rows[2:]
        sums += [f"add({name}, {r}, {name})" for r in rows]
    for fn in sorted(trig):
        head += [f"{fn} = np.empty(ph.shape)",
                 f"v{fn} = np.{'cos' if fn == 'C' else 'sin'}"]
        phases.append(f"v{fn}(ph, {fn})")
    return (head + columns + [f"{r} = {v}" for r, v in views.items()],
            phases + products + sums)


def _em_source(potential: PeriodicPotential, name: str, masked: bool) -> str:
    """Python text of the vector Euler-Maruyama block `name`(M, steps, dt,
    step, marks, rec, out_x, out_u).

    M is the (u, x) state of n replicas stacked on their phase rows: row
    0 holds u and rows 1... the phase stack of `_sums_lines`.  The block
    runs one step per row of steps, the sqrt(dt)-scaled noise, with F and
    F' in P = [F; F'] and the same float operations in the same order as
    the scalar loop:

        F' *= u;  P *= dt;  F' = noise - F';  [u; x] += P;  wrap x,

    that is x' = x + (sqrt(dt) g - (u F') dt) and u' = u + F dt.  x
    starts in [0, 2pi] and is wrapped by np.remainder or, if masked, by
    two masked corrections: under the guard of `_choose_wrap` the step
    leaves x in (-pi, 3pi), where subtracting 2pi from x >= 2pi and then
    adding 2pi to x < 0 gives the bits of np.remainder.  x - 2pi is exact
    there (Sterbenz's lemma), as fmod is, and below 0 both forms round
    x + 2pi.  The one input where they differ, -0.0, does not arise,
    since x + step is -0.0 only when x is.  step counts the steps taken;
    when it reaches marks[rec], x and u go into column rec of out_x and
    out_u and rec moves on.  Returns (step, rec).
    """
    setup, step = _sums_lines(potential, {0: "f", 1: "d"})
    if masked:
        setup.append("mask = np.empty(M.shape[1], dtype=bool)")
        wrap_x = [f"np.greater_equal(x, {TWO_PI!r}, mask)",
                  f"subtract(x, {TWO_PI!r}, out=x, where=mask)",
                  "np.less(x, 0.0, mask)",
                  f"add(x, {TWO_PI!r}, out=x, where=mask)"]
    else:
        wrap_x = [f"remainder(x, {TWO_PI!r}, x)"]
    head = "".join(f"\n    {line}" for line in setup)
    body = "".join(f"\n        {line}" for line in step + [
        "multiply(d, u, d)", "multiply(P, dt, P)",
        "subtract(sn, d, d)", "add(ux, P, ux)"] + wrap_x)
    return f"""def {name}(M, steps, dt, step, marks, rec, out_x, out_u):
    Q = M[1:]
    u = M[0]
    ux = M[:2]
    P = np.empty((2, M.shape[1]))
    f = P[0]
    d = P[1]
    subtract = np.subtract
    remainder = np.remainder{head}
    for sn in steps:{body}
        step += 1
        if step == marks[rec]:
            out_x[:, rec] = x
            out_u[:, rec] = u
            rec += 1
    return step, rec
"""


def _em_block(potential: PeriodicPotential, masked: bool):
    """The potential's vector EM block (see `_em_source`), with the masked
    wrap or np.remainder, generated on first use and cached on the
    potential."""
    return potential._generated("em_masked" if masked else "em_block",
                                _em_source, masked)


def _exit_source(potential: PeriodicPotential, name: str) -> str:
    """Python text of the frozen-drive block `name`(s, steps, low, drive,
    dt): per row of steps, the sqrt(dt)-scaled noise, F' at x = s + low
    by the statements of `_sums_lines` and then d *= drive; d *= dt;
    d = noise - d; s' = s + d, with s' written over the row.  Replicas
    move on after leaving the arc.  On the compiled array evaluator, one
    trig call per harmonic, a five-harmonic metastability run 8 to 64
    wide took 36 to 38 % longer (2-vCPU Xeon)."""
    setup, step = _sums_lines(potential, {1: "d"})
    rows = 1 + sum(k != 1.0 for k, _, _ in potential.coefficients(0))
    head = "".join(f"\n    {line}" for line in setup)
    body = "".join(f"\n        {line}" for line in ["add(s, low, x)"] + step + [
        "multiply(d, drive, d)", "multiply(d, dt, d)", "subtract(sn, d, d)",
        "add(s, d, sn)", "s = sn"])
    return f"""def {name}(s, steps, low, drive, dt):
    Q = np.empty(({rows}, s.size))
    d = np.empty(s.size)
    subtract = np.subtract{head}
    for sn in steps:{body}
"""


def _choose_wrap(potential: PeriodicPotential, n: int, umax: float,
                 sn: np.ndarray, dt: float) -> bool:
    """Whether a batch of n replicas may run the len(sn) steps of a noise
    block with the masked wrap: only batches at least _MASKED_WRAP_MIN
    wide, and only if no step among them can move x by pi or more.

    sn holds the block's sqrt(dt)-scaled noise, one row per step, and
    umax is max|u| at the block start.  Within the block |u| stays below
    umax + len(sn) dt sup|F|, so one step moves x by at most max|sn| +
    (umax + len(sn) dt sup|F|) sup|F'| dt; the sups are the potential's
    coefficient bounds.
    """
    if n < _MASKED_WRAP_MIN:
        return False
    sup_f = abs(potential.a0) + potential.coefficient_bound_derivative(0)
    smax = max(float(sn.max()), -float(sn.min()))
    reach = ((umax + len(sn) * dt * sup_f)
             * potential.coefficient_bound_derivative(1) * dt)
    return smax + reach < math.pi


def _em_state(potential: PeriodicPotential, x: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """The state M of `_em_source`: u and x over the unfilled rest of the
    phase stack, one row of k x per harmonic k != 1."""
    ks = [k for k, _, _ in potential.coefficients(0)]
    M = np.empty((2 + sum(k != 1.0 for k in ks), x.size))
    M[0] = u
    M[1] = x
    return M


def _noise_buffers(n_replicas: int, multiple_of: int = 1):
    """The replica-major draw block and the time-major step block that the
    EM driver and the exit trials fill once per block of steps.

    A block spans at most 2048 steps, and up to 2048 replicas the two
    hold at most 1 << 20 floats (8 MB) together.  Wider batches keep a
    floor of 256 steps per block, so that one standard_normal call per
    replica per block stays amortized.  A block is also the unit of the
    driver's checks: at its start it checks that the state is finite and
    lets `_choose_wrap` pick the wrap of its steps from their noise, so
    the masked wrap runs only where one step moves x by less than pi.
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
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
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


def _scalar_source(potential: PeriodicPotential, name: str) -> str:
    """Python text of `name`(x, u, noise, sqrt_dt, dt, step, marks, rec,
    out_x, out_u): one replica's EM step per normal of noise, F and F' by
    `_sums_block` and then the float operations of `_em_source`, whose
    step counting and recording it shares.  Returns (x, u, step, rec).
    `_run_levels` runs it on each replica's row of a noise block, where
    sqrt_dt * g is bitwise the vector block's scaled noise."""
    body = potential._sums_block("x", {0: "fv", 1: "fp"}, 8)
    return f"""def {name}(x, u, noise, sqrt_dt, dt, step, marks, rec, out_x, out_u):
    for g in noise:{body}
        x = (x + (sqrt_dt * g - (u * fp) * dt)) % {TWO_PI!r}
        u = u + fv * dt
        step += 1
        if step == marks[rec]:
            out_x[rec] = x
            out_u[rec] = u
            rec += 1
    return x, u, step, rec
"""


def _fill_noise(block: np.ndarray, gens, m: int) -> None:
    for j, gen in enumerate(gens):
        gen.standard_normal(out=block[j, :m])


def _scaled_transpose(src: np.ndarray, dst: np.ndarray,
                      scale: float) -> None:
    """dst = scale * src.T, in tiles of _TILE rows of src, so that each
    tile is written time-major while it is still in cache."""
    for lo in range(0, src.shape[0], _TILE):
        np.multiply(src[lo:lo + _TILE].T, scale, out=dst[:, lo:lo + _TILE])


def _run_levels(potential, states, dt_levels, factors, gens, seeds,
                n_steps, dt_finest, marks, out_x, out_u):
    """Run the Euler-Maruyama blocks on each state M of `states` for
    n_steps fine steps of size dt_finest, noise block by noise block, all
    levels on one Brownian path: the one driver at every width.

    Level i takes steps of dt_levels[i], factors[i] fine steps long; its
    normals are the block sums of factors[i] fine normals times
    1/sqrt(factors[i]).  After a finiteness check per noise block, up to
    _SCALAR_PATH_MAX replicas run the scalar block (`_scalar_source`)
    one by one on their rows of normals, wider batches the vector block
    (`_em_source`) on their scaled transpose.  Replica j records into
    out_x[j] and out_u[j] at the step counts in marks, an increasing list
    ending at n_steps; the coupled levels pass _NO_MARKS and (n, 0) arrays.
    """
    n = len(seeds)
    block, steps = _noise_buffers(n, multiple_of=math.lcm(*factors))
    rec = 0
    step = 0
    while step < n_steps:
        m = min(steps.shape[0], n_steps - step)
        _fill_noise(block, gens, m)
        for M, dt, f in zip(states, dt_levels, factors):
            if f == 1:
                coarse = block[:, :m]
            else:
                coarse = block[:, :m].reshape(n, m // f, f).sum(axis=2)
                coarse *= 1.0 / math.sqrt(f)
            umax = _finite_umax(M[1], M[0], seeds, step * dt_finest)
            if n <= _SCALAR_PATH_MAX:
                em = potential._generated("em_scalar", _scalar_source)
                for j, (x, u) in enumerate(zip(M[1].tolist(), M[0].tolist())):
                    M[1, j], M[0, j], _, end = em(
                        x, u, coarse[j].tolist(), math.sqrt(dt), dt, step // f,
                        marks, rec, out_x[j], out_u[j])
                rec = end
                continue
            sn = steps[:m // f]
            _scaled_transpose(coarse, sn, math.sqrt(dt))
            em = _em_block(potential, _choose_wrap(potential, n, umax, sn, dt))
            _, rec = em(M, sn, dt, step // f, marks, rec, out_x, out_u)
        step += m
    for M in states:
        _finite_umax(M[1], M[0], seeds, step * dt_finest)


def _simulate_recorded(potential, x0, u0, rec_steps, dt, seeds):
    """(x, u) of every replica at each step count in rec_steps, an
    increasing int64 array starting at 0; both of shape (n, len(rec_steps))."""
    n = len(seeds)
    x = wrap(_as_replica_array(x0, n, "x0"))
    u = _as_replica_array(u0, n, "u0")
    out_x = np.empty((n, rec_steps.size))
    out_u = np.empty((n, rec_steps.size))
    out_x[:, 0] = x
    out_u[:, 0] = u
    _run_levels(potential, [_em_state(potential, x, u)], [dt], [1],
                generators_from_seeds(seeds), seeds, int(rec_steps[-1]), dt,
                rec_steps[1:].tolist(), out_x[:, 1:], out_u[:, 1:])
    return out_x, out_u


def level_factors(horizon: float, dt_levels: Sequence[float]):
    """(factors, fine steps) of nested step sizes: factors[i] is
    dt_levels[i] over the finest level, which must be an integer, and the
    horizon must hold a whole number of steps of every level.  Raises
    ValueError otherwise."""
    if not dt_levels or not all(0.0 < d < math.inf for d in dt_levels):
        raise ValueError("dt_levels must be nonempty steps, each positive "
                         "and finite")
    dt_f = min(dt_levels)
    factors = []
    for d in dt_levels:
        f = int(round(d / dt_f))
        if abs(f * dt_f - d) > 1e-12 * d:
            raise ValueError("each dt level must be an integer multiple of the finest")
        factors.append(f)
    n_steps_f = _validate_grid(horizon, dt_f, 1)
    if n_steps_f % math.lcm(*factors):
        raise ValueError("horizon must contain a whole number of steps of every level")
    return factors, n_steps_f


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
    to _SCALAR_PATH_MAX (19) replicas run a per-replica scalar block and
    larger ensembles a replica-vectorized block, under one noise-block
    driver; both consume identical noise streams in the same arithmetic
    order, so a replica's path depends only on its seed and start,
    bitwise, not on the batch it runs in.  A non-finite x0 or u0 raises
    ValueError naming it; a state that turns non-finite during the run
    raises RunawayError naming the replica's seed.
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
    factors, n_steps_f = level_factors(horizon, dt_levels)
    x = wrap(_as_replica_array(x0, n, "x0"))
    u = _as_replica_array(u0, n, "u0")
    states = [_em_state(potential, x, u) for _ in dt_levels]
    no_out = np.empty((n, 0))
    _run_levels(potential, states, dt_levels, factors,
                generators_from_seeds(seeds), seeds, n_steps_f,
                min(dt_levels), _NO_MARKS, no_out, no_out)
    return {d: M[0] for d, M in zip(dt_levels, states)}


def run_exit_trials(potential: PeriodicPotential, drive: float, low, x_start,
                    high, *, seeds: Sequence[int], dt: float = 1e-3,
                    max_time: float) -> ExitEnsemble:
    """First-passage trials of the frozen-drive diffusion between two points.

    Replicas start at x_start on the positively oriented arc from low to
    high and run dX = dB - drive * F'(X) dt until crossing either boundary
    (detected by sign change at the dt scale) or until max_time, when the
    trial is censored.  low, x_start and high are scalars or one value
    per seed.  Replicas run 256-step noise blocks of the generated block
    (`_exit_source`); at a block's end one scan finds each replica's
    first step off its arc, and those that left drop out.  A trial's
    outcome depends only on its seed and arc, bitwise.  A non-finite
    drive, boundary, start, dt or max_time raises ValueError naming it.
    """
    seeds = _seed_tuple(seeds)
    n = len(seeds)
    for name, value in (("drive", drive), ("dt", dt), ("max_time", max_time)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not (dt > 0.0 and max_time > 0.0):
        raise ValueError("dt and max_time must be positive")
    low = _as_replica_array(low, n, "low")
    x_start = _as_replica_array(x_start, n, "x_start")
    high = _as_replica_array(high, n, "high")
    arc = wrap(high - low)
    if not np.all(arc):
        raise ValueError("boundaries must be distinct")
    s = wrap(x_start - low)
    if not np.all((0.0 < s) & (s < arc)):
        raise ValueError("x_start must lie strictly between the boundaries")
    max_steps = int(math.ceil(max_time / dt - 1e-9))
    drv = float(drive)
    sqrt_dt = math.sqrt(dt)
    gens = generators_from_seeds(seeds)
    exit_time = np.full(n, max_steps * dt)
    exit_side = np.zeros(n, dtype=np.int8)
    final_s = np.empty(n)
    alive = np.arange(n)
    block, steps = _noise_buffers(n)
    run = potential._generated("exit_block", _exit_source)
    step = 0
    while step < max_steps and alive.size:
        # Replicas that left cost a step each until the block ends (2048-
        # step blocks ran slower); a replica's noise does not depend on m.
        m = min(256, max_steps - step)
        na = alive.size
        _fill_noise(block[:na], gens, m)
        path = steps[:m, :na]
        _scaled_transpose(block[:na, :m], path, sqrt_dt)
        run(s, path, low[alive], drv, dt)
        off = (path <= 0.0) | (path >= arc[alive])
        first = off.argmax(axis=0)
        left = off[first, np.arange(na)]
        idx, first = alive[left], first[left]
        final_s[idx] = path[first, np.flatnonzero(left)]
        exit_time[idx] = (step + 1 + first) * dt
        exit_side[idx] = np.where(final_s[idx] <= 0.0, -1, 1)
        step += m
        s = path[m - 1, ~left]
        alive = alive[~left]
        gens = [gen for gen, out in zip(gens, left) if not out]
    final_s[alive] = s
    _freeze(exit_time, exit_side, final_s, low, x_start, high)
    return ExitEnsemble(exit_time=exit_time, exit_side=exit_side,
                        final_s=final_s, low=low, high=high,
                        x_start=x_start, drive=drv, dt=dt,
                        max_time=max_steps * dt, seeds=seeds)
