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

The RNG draw order is fixed: first the theta2 exponential, then per
thinning proposal one exponential followed by one uniform.  A replica's
event log is therefore bit-reproducible from (seed, parameters, horizon).
The two clocks tie only on a null event; ties resolve to constant-rate.
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


def _homogeneous_value_at(potential, x0, y, u0):
    g0 = potential.antiderivative_s(x0)
    anti = potential.antiderivative_s

    def value_at(s):
        return u0 + y * (anti(x0 + y * s) - g0)

    return value_at


def _interaction(potential, x0, y, u0, g):
    """(value_at, lipschitz_u) of the segment from x0 at velocity y: the
    closed-form u from u0, or the constant frozen drive g if u0 is None."""
    if u0 is None:
        gv = float(g)
        return (lambda s: gv), 0.0
    return (_homogeneous_value_at(potential, x0, y, u0),
            abs(potential.a0) + potential.coefficient_bound_derivative(0))


def _next_event(potential, lam, x, y, gen, s_max, value_at, lip):
    """(theta, cause) of the next jump within s_max, or None.

    Draws theta2 = E/lambda from the constant-rate clock first, then runs
    the landscape clock by thinning up to min(theta2, s_max).  Ties
    resolve to constant-rate.
    """
    theta2 = gen.standard_exponential() / lam
    theta1 = _sample_landscape_time(potential, x, y, gen, min(theta2, s_max),
                                    value_at, lip)
    if theta1 is not None and theta1 < theta2:
        return theta1, CAUSE_LANDSCAPE
    if theta2 < s_max:
        return theta2, CAUSE_CONSTANT
    return None


def sample_landscape_time(potential: PeriodicPotential, x0: float, y: int,
                          gen: np.random.Generator, cutoff: float, *,
                          u0: Optional[float] = None,
                          g: Optional[float] = None):
    """Sample the landscape clock alone; returns a time < cutoff or None.

    Exactly one of u0 (homogeneous interaction, evolving by the flow) or
    g (frozen constant drive) must be given.
    """
    if (u0 is None) == (g is None):
        raise ValueError("provide exactly one of u0 or g")
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    value_at, lip = _interaction(potential, x0, y, u0, g)
    return _sample_landscape_time(potential, x0, y, gen, cutoff, value_at, lip)


def sample_next_event(potential: PeriodicPotential, lam: float,
                      state: PdmpState, gen: np.random.Generator,
                      s_max: float = math.inf):
    """Time to the next jump from `state` and its cause.

    Draws theta2 = E/lambda from the constant-rate clock first, then runs
    the landscape clock by thinning up to min(theta2, s_max).  Returns
    (theta, cause) with cause "landscape" or "constant-rate", or None if
    no jump occurs within s_max.  Ties resolve to constant-rate.  This is
    the step that `simulate_pdmp` repeats.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    value_at, lip = _interaction(potential, state.x, state.y, state.u, None)
    return _next_event(potential, lam, state.x, state.y, gen, s_max,
                       value_at, lip)


def _first_target_entry(targets, x, y, max_travel):
    """Earliest unit-speed entry (travel, target index) within max_travel."""
    best = None
    for idx, target in enumerate(targets):
        s = target.first_entry(x, y, max_travel)
        if s is not None and (best is None or s < best[0]):
            best = (s, idx)
    return best


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _simulate_core(potential, lam, x0, y0, horizon, max_events, until, u0, g,
                   seed):
    """The event loop of both simulators: `_next_event` from each row
    until the horizon or a target.  The interaction is u from u0, or the
    constant frozen drive g if u0 is None; either way a row's u column is
    the segment's value_at at the row."""
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    _require_finite("x0", x0)
    x = float(wrap(x0))
    y = int(y0)
    if y not in (-1, 1):
        raise ValueError("velocity y must be -1 or +1")
    gen = generator_from_seed(seed)
    value_at, lip = _interaction(potential, x, y, u0, g)
    times = [0.0]
    xs = [x]
    us = [g if u0 is None else u0]
    ys = [y]
    causes = [CAUSE_INIT]
    hit_target = None
    t = 0.0
    n_events = 0
    while True:
        s_rem = horizon - t
        evt = _next_event(potential, lam, x, y, gen, s_rem, value_at, lip)
        theta, cause = evt if evt is not None else (s_rem, CAUSE_END)
        hit = None if until is None else _first_target_entry(until, x, y,
                                                              theta)
        if hit is not None:
            theta, hit_target = hit
            cause = CAUSE_HIT
        t = horizon if cause == CAUSE_END else t + theta
        x = float(wrap(x + y * theta))
        u = value_at(theta)
        jump = cause in (CAUSE_LANDSCAPE, CAUSE_CONSTANT)
        if jump:
            y = -y
        times.append(t)
        xs.append(x)
        us.append(u)
        ys.append(y)
        causes.append(cause)
        if not jump:
            break
        n_events += 1
        if n_events > max_events:
            raise RunawayError(
                f"event count exceeded the cap of {max_events} before the horizon")
        if u0 is not None:
            value_at = _homogeneous_value_at(potential, x, y, u)
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
    past max_events, and ValueError naming x0 or u0 for a non-finite start.
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
    non-finite x0 or g raises ValueError naming it.
    """
    _require_finite("g", float(g))
    return _simulate_core(potential, lam, x0, y0, horizon, max_events, until,
                          None, float(g), seed)
