"""Exact event-driven simulation of the velocity-jump process on the circle.

The triple (X, U, Y) moves as dX = Y dt (unit speed, Y in {-1, +1}),
dU = F(X) dt, and Y flips sign at rate lambda + (Y * U * F'(X))_+.
Between jumps the flow is deterministic, so paths are represented exactly
by their event skeleton: X advances at unit speed and U follows the
closed-form segment integral of F.  No time discretization appears
anywhere in this module.  The frozen-drive variant (`simulate_pdmp_driven`)
replaces U in the rate by a constant level M, as in the escape bounds.

Jumps are sampled from two independent clocks, and the cause of each jump
is recorded:

- a constant-rate clock: theta2 = E / lambda with E standard exponential;
- a landscape clock for the inhomogeneous rate r(s) = (Y u(s) F'(X+Ys))_+,
  sampled by windowed thinning.  Over each lookahead window of width h the
  factor Y*u lies in [Y*u0 - h*L_u, Y*u0 + h*L_u] (L_u bounds the growth
  rate of the interaction: max|F|, or zero for a constant drive) and
  F' lies in a grid-plus-Lipschitz-slack interval over the swept arc; the
  corner maximum of their product is a certified rate bound r_bar.
  Windows where r_bar = 0 are skipped outright, and windows shrink so
  that r_bar * h stays moderate, which keeps the proposal count bounded
  even when |u| is large.

One event step, `_next_event`, races the two clocks; `sample_next_event`
takes it once and both simulators repeat it from row to row.  The
interaction in the rate is the closed-form u of the segment, or the frozen
drive, and the same value gives each row's u column.

The thinning sampler is generated per potential on first use, one for
the self-interacting clock and one for the frozen drive, and cached on
the potential (see `_thinning`): F', G and the window bounds are written
out from the potential's sum text (`PeriodicPotential._sums_block`),
which `derivative_s` and `antiderivative_s` are compiled from too, so
the samples are those of a loop over them bit for bit.  The event loop
takes G at each segment's ends from the compiled G of the same cache.

The RNG draw order is fixed, and generation leaves it unchanged: first
the theta2 exponential, then per thinning proposal one exponential
followed by one uniform.  A replica's event log is therefore
bit-reproducible from (seed, parameters, horizon).  The two clocks tie
only on a null event; ties resolve to constant-rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angles import ArcSet, wrap
from .errors import RunawayError
from .potential import PeriodicPotential
from .seeding import generator_from_seed

__all__ = [
    "CAUSE_INIT",
    "CAUSE_LANDSCAPE",
    "CAUSE_CONSTANT",
    "CAUSE_END",
    "CAUSE_HIT",
    "PdmpState",
    "EventLog",
    "segment_u",
    "sample_landscape_time",
    "sample_next_event",
    "simulate_pdmp",
    "simulate_pdmp_driven",
]

CAUSE_INIT = "init"
CAUSE_LANDSCAPE = "landscape"
CAUSE_CONSTANT = "constant-rate"
CAUSE_END = "horizon-end"
CAUSE_HIT = "hit-target"

# Expected thinning proposals per lookahead window stay near this cap.
_WINDOW_PROPOSAL_CAP = 8.0


@dataclass(frozen=True)
class PdmpState:
    """Position x, accumulated interaction u, and velocity y in {-1, +1}."""

    x: float
    u: float
    y: int

    def __post_init__(self):
        if self.y not in (-1, 1):
            raise ValueError("velocity y must be -1 or +1")


@dataclass(frozen=True)
class EventLog:
    """Event skeleton of one path: one row per event plus boundary rows.

    Row 0 is the initial state (cause "init"); each jump appends the
    post-flip state at the jump time (cause "landscape" or
    "constant-rate"); the final row closes the path at the horizon
    (cause "horizon-end") or at the first entry into a target set
    (cause "hit-target", with hit_time/hit_target filled).  States
    between rows follow the deterministic flow exactly: x at unit speed
    and u via `segment_u`.  For kind "driven" the u column echoes the
    constant frozen drive and `u_at` is unavailable.
    """

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    causes: tuple
    lam: float
    horizon: float
    seed: int
    potential: PeriodicPotential
    kind: str = "self"
    hit_time: Optional[float] = None
    hit_target: Optional[int] = None

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def n_jumps(self) -> int:
        return sum(1 for c in self.causes if c in (CAUSE_LANDSCAPE, CAUSE_CONSTANT))

    @property
    def terminal_state(self) -> PdmpState:
        return PdmpState(float(self.x[-1]), float(self.u[-1]), int(self.y[-1]))

    def segments(self):
        """Yield (t0, t1, x0, u0, y) for each inter-row flow segment."""
        for i in range(len(self) - 1):
            yield (
                float(self.times[i]),
                float(self.times[i + 1]),
                float(self.x[i]),
                float(self.u[i]),
                int(self.y[i]),
            )

    def _row_before(self, t: float) -> int:
        if t < 0.0 or t > float(self.times[-1]) + 1e-12:
            raise ValueError(f"time {t} outside the simulated span")
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), len(self) - 1)

    def x_at(self, t: float) -> float:
        i = self._row_before(t)
        return float(wrap(self.x[i] + int(self.y[i]) * (t - float(self.times[i]))))

    def u_at(self, t: float) -> float:
        if self.kind != "self":
            raise ValueError("u_at is undefined for driven logs; evaluate the drive")
        i = self._row_before(t)
        return segment_u(self.potential, float(self.x[i]), int(self.y[i]),
                         t - float(self.times[i]), float(self.u[i]))


def segment_u(potential: PeriodicPotential, x0: float, y: int, s: float,
              u0: float) -> float:
    """u after following the flow for time s from (x0, u0) at velocity y.

    Uses the closed-form antiderivative of F along the lifted line
    x0 + y*s', so the result is exact up to float rounding.
    """
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    return u0 + y * (potential.antiderivative_s(x0 + y * s)
                     - potential.antiderivative_s(x0))


def _thinning_source(potential: PeriodicPotential, name: str,
                     frozen: bool) -> str:
    """Python text of the thinning sampler `name` of the landscape clock.

    name(x0, y, w, g0, gen, cutoff) returns the first arrival before
    cutoff, or None.  The interaction after flow time s is
    w + y (G(x0 + y s) - g0), with g0 = G(x0), or the constant frozen
    drive w, which ignores g0; it grows at most at rate |a0| + sum_k
    (|a_k| + |b_k|), or not at all.  Over each window of width h from s,
    F' lies between the least and the greatest of its values at the
    window's start, middle and end, widened by h/4 times the coefficient
    bound on |F''|, and y times the interaction lies within h times its
    growth bound of its value at s.  r_bar, the largest product of the
    two intervals' ends (or 0), bounds the rate on the window.  A
    window with r_bar = 0 is skipped without a draw, and one with
    r_bar h above the cap shrinks to h = cap / r_bar.  Proposals in a
    window are exponential steps of rate r_bar, each accepted with
    probability r / r_bar by one uniform.  F', G and the bounds are
    written out as straight-line statements (see `_sums_block`).
    """
    h = min(math.pi, 0.5 / potential.coefficient_bound_derivative(1))
    slack = potential.coefficient_bound_derivative(2) * (0.25 * h)
    growth = 0.0 if frozen else (abs(potential.a0)
                                 + potential.coefficient_bound_derivative(0))
    cap = _WINDOW_PROPOSAL_CAP

    block = potential._sums_block
    def value(g):
        return "w" if frozen else f"(w + y * ({g} - g0))"

    at_start = {1: "d0"} if frozen else {-1: "g", 1: "d0"}
    at_pos = {1: "dp"} if frozen else {-1: "gp", 1: "dp"}
    return f"""def {name}(x0, y, w, g0, gen, cutoff):
    if cutoff <= 0.0:
        return None
    draw = gen.standard_exponential
    uniform = gen.random
    s = 0.0
    while s < cutoff:
        xf = x0 + y * s{block("xf", at_start, 8)}
        xm = xf + y * {0.5 * h!r}{block("xm", {1: "d1"}, 8)}
        xe = xf + y * {h!r}{block("xe", {1: "d2"}, 8)}
        d_lo = d0
        if d1 < d_lo:
            d_lo = d1
        if d2 < d_lo:
            d_lo = d2
        d_hi = d0
        if d1 > d_hi:
            d_hi = d1
        if d2 > d_hi:
            d_hi = d2
        d_lo = d_lo - {slack!r}
        d_hi = d_hi + {slack!r}
        w0 = y * {value("g")}
        w_lo = w0 - {h * growth!r}
        w_hi = w0 + {h * growth!r}
        r_bar = 0.0
        r = w_lo * d_lo
        if r > r_bar:
            r_bar = r
        r = w_lo * d_hi
        if r > r_bar:
            r_bar = r
        r = w_hi * d_lo
        if r > r_bar:
            r_bar = r
        r = w_hi * d_hi
        if r > r_bar:
            r_bar = r
        if r_bar <= 0.0:
            s = s + {h!r}
            if cutoff < s:
                s = cutoff
            continue
        if r_bar * {h!r} > {cap!r}:
            end = s + {cap!r} / r_bar
        else:
            end = s + {h!r}
        if cutoff < end:
            end = cutoff
        pos = s
        while True:
            pos += draw() / r_bar
            if pos >= end:
                break
            xp = x0 + y * pos{block("xp", at_pos, 12)}
            r = y * {value("gp")} * dp
            if r > 0.0 and uniform() * r_bar <= r:
                return pos
        s = end
    return None
"""


def _thinning(potential: PeriodicPotential, frozen: bool):
    """The potential's thinning sampler of the landscape clock (see
    `_thinning_source`), self-interacting or frozen-drive, generated on
    first use and cached on the potential."""
    return potential._generated("thin_frozen" if frozen else "thin_self",
                                _thinning_source, frozen)


def _next_event(thin, lam, x, y, w, g0, gen, s_max):
    """(theta, cause) of the next jump within s_max, or None.

    Draws theta2 = E/lambda from the constant-rate clock first, then runs
    the landscape clock by the thinning sampler `thin` (see `_thinning`)
    up to min(theta2, s_max).  Ties resolve to constant-rate.
    """
    theta2 = gen.standard_exponential() / lam
    theta1 = thin(x, y, w, g0, gen, min(theta2, s_max))
    if theta1 is not None and theta1 < theta2:
        return theta1, CAUSE_LANDSCAPE
    if theta2 < s_max:
        return theta2, CAUSE_CONSTANT
    return None


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def sample_landscape_time(potential: PeriodicPotential, x0: float, y: int,
                          gen: np.random.Generator, cutoff: float, *,
                          u0: Optional[float] = None,
                          g: Optional[float] = None):
    """Sample the landscape clock alone; returns a time < cutoff or None.

    Exactly one of u0 (homogeneous interaction, evolving by the flow) or
    g (frozen constant drive) must be given.  A non-finite cutoff, x0, u0
    or g raises ValueError naming it.
    """
    if (u0 is None) == (g is None):
        raise ValueError("provide exactly one of u0 or g")
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    _require_finite("cutoff", cutoff)
    _require_finite("x0", x0)
    if u0 is None:
        _require_finite("g", g)
        return _thinning(potential, True)(x0, y, float(g), 0.0, gen, cutoff)
    _require_finite("u0", u0)
    return _thinning(potential, False)(x0, y, u0,
                                       potential.antiderivative_s(x0), gen,
                                       cutoff)


def sample_next_event(potential: PeriodicPotential, lam: float,
                      state: PdmpState, gen: np.random.Generator,
                      s_max: float = math.inf):
    """Time to the next jump from `state` and its cause.

    Draws theta2 = E/lambda from the constant-rate clock first, then runs
    the landscape clock by thinning up to min(theta2, s_max).  Returns
    (theta, cause) with cause "landscape" or "constant-rate", or None if
    no jump occurs within s_max.  Ties resolve to constant-rate.  This is
    the step that `simulate_pdmp` repeats.  A lam that is not positive
    and finite raises ValueError naming it.
    """
    _require_positive("lam", lam)
    return _next_event(_thinning(potential, False), lam, state.x, state.y,
                       state.u, potential.antiderivative_s(state.x), gen,
                       s_max)


def _first_target_entry(targets, x, y, max_travel):
    """Earliest unit-speed entry (travel, target index) within max_travel."""
    best = None
    for idx, target in enumerate(targets):
        s = target.first_entry(x, y, max_travel)
        if s is not None and (best is None or s < best[0]):
            best = (s, idx)
    return best


def _simulate_core(potential, lam, x0, y0, horizon, max_events, until, u0, g,
                   seed):
    """The event loop of both simulators: `_next_event` from each row
    until the horizon or a target.  The interaction is u from u0, or the
    constant frozen drive g if u0 is None; a row's u column is its value
    at the row."""
    _require_positive("lam", lam)
    _require_positive("horizon", horizon)
    _require_finite("x0", x0)
    x = float(wrap(x0))
    y = int(y0)
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    gen = generator_from_seed(seed)
    frozen = u0 is None
    thin = _thinning(potential, frozen)
    anti = potential._sum(-1)
    w = g if frozen else u0
    g0 = 0.0
    times = [0.0]
    xs = [x]
    us = [w]
    ys = [y]
    causes = [CAUSE_INIT]
    hit_target = None
    t = 0.0
    n_events = 0
    while True:
        if not frozen:
            g0 = anti(x)
        s_rem = horizon - t
        evt = _next_event(thin, lam, x, y, w, g0, gen, s_rem)
        theta, cause = evt if evt is not None else (s_rem, CAUSE_END)
        hit = None if until is None else _first_target_entry(until, x, y,
                                                              theta)
        if hit is not None:
            theta, hit_target = hit
            cause = CAUSE_HIT
        t = horizon if cause == CAUSE_END else t + theta
        if not frozen:
            w = w + y * (anti(x + y * theta) - g0)
        x = float(wrap(x + y * theta))
        jump = cause in (CAUSE_LANDSCAPE, CAUSE_CONSTANT)
        if jump:
            y = -y
        times.append(t)
        xs.append(x)
        us.append(w)
        ys.append(y)
        causes.append(cause)
        if not jump:
            break
        n_events += 1
        if n_events > max_events:
            raise RunawayError(
                f"event count exceeded the cap of {max_events} before the horizon")
    times_a = np.asarray(times)
    x_a = np.asarray(xs)
    u_a = np.asarray(us)
    y_a = np.asarray(ys, dtype=np.int8)
    for arr in (times_a, x_a, u_a, y_a):
        arr.flags.writeable = False
    return EventLog(
        times=times_a, x=x_a, u=u_a, y=y_a, causes=tuple(causes),
        lam=float(lam), horizon=float(horizon), seed=int(seed),
        potential=potential, kind="self" if u0 is not None else "driven",
        hit_time=t if hit is not None else None, hit_target=hit_target)


def simulate_pdmp(potential: PeriodicPotential, lam: float, z0: PdmpState,
                  horizon: float, *, seed: int = 0,
                  max_events: int = 10 ** 8,
                  until: Optional[Sequence[ArcSet]] = None) -> EventLog:
    """Simulate the self-interacting velocity-jump process exactly.

    If `until` is given (a sequence of target sets), the run stops at the
    first entry of X into any target, recorded exactly from the unit-speed
    segments; hit_time/hit_target report the entry.  Raises RunawayError
    past max_events, and ValueError naming x0 or u0 for a non-finite start
    and lam or horizon where it is not positive and finite.
    """
    _require_finite("u0", z0.u)
    return _simulate_core(potential, lam, z0.x, z0.y, horizon, max_events,
                          until, float(z0.u), None, seed)


def simulate_pdmp_driven(potential: PeriodicPotential, lam: float, g: float,
                         x0: float, y0: int, horizon: float, *, seed: int = 0,
                         max_events: int = 10 ** 8,
                         until: Optional[Sequence[ArcSet]] = None) -> EventLog:
    """Simulate the frozen-drive variant: the rate uses the constant g in
    place of U.  The u column of the log echoes g on every row.  A
    non-finite x0 or g raises ValueError naming it, as does a lam or
    horizon that is not positive and finite.
    """
    _require_finite("g", float(g))
    return _simulate_core(potential, lam, x0, y0, horizon, max_events, until,
                          None, float(g), seed)
