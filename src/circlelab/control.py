"""Piecewise-constant steering schedules for both processes.

Both planners realize the same idea: the interaction integral u can be
driven to any target strictly inside (u0 + t*min F, u0 + t*max F) by
parking the position where F attains its extremes for computed dwell
times, while short steering bursts move the position between the park
points and onto the final target.

For the diffusion the control enters as an additive drift v(s) in
dx = (v - u F'(x)) ds, du = F(x) ds.  Parking spots are critical points
of F, which are equilibria of x but can be exponentially unstable once
u changes sign; a long open-loop coast would amplify the landing error
beyond repair.  Coasts are therefore split into bounded-growth chunks
separated by brief re-steering windows that shoot the position back
onto the critical point, and the two coast durations are re-balanced
from the exactly integrated u-residual.

For the velocity-jump process the control is the velocity y(s) in
{-1, +1} of dx = y ds, du = F(x) ds.  Parking is approximated by fast
balanced zigzags around the park point, with an O(1/switch_rate) effect
on u; travel legs and dwell times are solved in closed form because the
flow integrates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from .angles import TWO_PI, circle_dist, wrap
from .diffusion import DiffusionState
from .errors import PlanningError, UnreachableTargetError
from .pdmp import PdmpState, _require_finite, segment_u
from .potential import PeriodicPotential, _circle_roots, _root

__all__ = [
    "ControlSchedule",
    "plan_diffusion_control",
    "integrate_diffusion_control",
    "plan_pdmp_velocity_schedule",
    "integrate_velocity_schedule",
    "potential_zeros",
]

# RK4 step targets: plain cap, and a finer cap while a strong control is
# sweeping the position quickly.
_RK_DT = 5e-3
_RK_SWEEP = 2e-2
_RK_MIN_STEPS = 16

# A coast chunk may amplify a landing perturbation by at most e**4 before
# the next re-steering window resets it.
_COAST_GROWTH_BUDGET = 4.0

_TRIVIAL_TOL = 1e-10

# Sign-scan cells of potential_zeros.
_ZERO_GRID = 4096

# Diffusion segment durations are snapped to this dyadic grid so that the
# breakpoints -> durations round trip is exact in floating point: the park
# equilibria are exponentially unstable, and re-integrating the schedule
# with durations perturbed by even one ulp would amplify the difference
# visibly by the landing time.
_TIME_QUANTUM = 2.0 ** -17


def _snap(duration: float) -> float:
    return max(1.0, round(duration / _TIME_QUANTUM)) * _TIME_QUANTUM


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control: values[i] applies on
    [breakpoints[i-1], breakpoints[i]) with an implicit leading 0."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size == 0 or bp.shape != vals.shape:
            raise ValueError("breakpoints and values must be matching 1-d arrays")
        for name, arr in (("breakpoints", bp), ("values", vals)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if bp[0] <= 0.0 or np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be positive and strictly increasing")
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def duration(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_segments(self) -> int:
        return int(self.breakpoints.size)

    def value_at(self, s):
        """Control value at time s (scalar or array); right-open segments."""
        idx = np.searchsorted(self.breakpoints, s, side="right")
        idx = np.minimum(idx, self.breakpoints.size - 1)
        out = self.values[idx]
        return float(out) if np.ndim(s) == 0 else out

    def segments(self) -> Iterable[Tuple[float, float, float]]:
        """Yield (t_start, t_end, value) triples."""
        t0 = 0.0
        for b, v in zip(self.breakpoints, self.values):
            yield t0, float(b), float(v)
            t0 = float(b)


def _require_state(name: str, z, velocity: bool = False) -> None:
    """ValueError naming the field unless z.x and z.u are finite and,
    with velocity, z.y is -1 or +1."""
    _require_finite(f"{name}.x", z.x)
    _require_finite(f"{name}.u", z.u)
    if velocity and z.y not in (-1, 1):
        raise ValueError(f"{name}.y must be -1 or +1, got {z.y!r}")


def _nearest_lift(target: float, ref: float) -> float:
    """Representative of target (mod 2*pi) closest to the lifted ref."""
    d = math.remainder(target - ref, TWO_PI)
    return ref + d


def _rk4_source(potential: PeriodicPotential, name: str) -> str:
    """Python text of `name`(x, u, v, n, h): n RK4 steps of size h for
    `_rk4_span`, with the potential's (F, F') block inlined at each of
    the four stages, so a step makes no call and tests no zero term;
    every float operation is the one `value_s` and `derivative_s` would
    make, in their order."""
    def stage(x, f):
        return potential._sums_block(x, {0: f, 1: "d"}, 8)

    return f"""def {name}(x, u, v, n, h):
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(n):{stage("x", "k1u")}
        k1x = v - u * d
        x2 = x + half * k1x{stage("x2", "k2u")}
        k2x = v - (u + half * k1u) * d
        x3 = x + half * k2x{stage("x3", "k3u")}
        k3x = v - (u + half * k2u) * d
        x4 = x + h * k3x{stage("x4", "k4u")}
        k4x = v - (u + h * k3u) * d
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
    return x, u
"""


def _rk4_span(potential: PeriodicPotential, x: float, u: float, v: float,
              duration: float) -> Tuple[float, float]:
    """Integrate dx = v - u F'(x), du = F(x) over one constant-v span.

    Positions are lifted reals (no wrapping), so the same discrete map is
    reproduced exactly when a schedule is re-integrated from the start.
    The steps run in the potential's generated loop (see `_rk4_source`),
    compiled on first use and cached on the potential.
    """
    if duration <= 0.0:
        return x, u
    dt_target = min(_RK_DT, _RK_SWEEP / (1.0 + abs(v)))
    n = max(_RK_MIN_STEPS, int(math.ceil(duration / dt_target)))
    loop = potential._generated("rk4_loop", _rk4_source)
    return loop(x, u, v, n, duration / n)


def integrate_diffusion_control(potential: PeriodicPotential,
                                schedule: ControlSchedule,
                                z0: DiffusionState) -> DiffusionState:
    """Terminal state of the controlled flow along the whole schedule."""
    x, u = float(z0.x), float(z0.u)
    for t0, t1, v in schedule.segments():
        x, u = _rk4_span(potential, x, u, v, t1 - t0)
    return DiffusionState(float(wrap(x)), u)


def _shoot_window(potential, x, u, epsilon, target_lift, drift_bound):
    """Constant v on a window of width epsilon landing x exactly on target,
    as (v, x_end, u_end): the state the window integrates to at that v.

    x(epsilon; v) is strictly increasing in v, so the root is bracketed by
    the naive transport speed plus the drift bound and found by `_root`.
    End states are memoized, so `_root` reuses the two bracketing
    integrations, and the v it returns, always one it evaluated, comes
    with its end state.
    """
    ends = {}

    def landing_gap(v):
        end = ends.get(v)
        if end is None:
            end = ends[v] = _rk4_span(potential, x, u, v, epsilon)
        return end[0] - target_lift

    v0 = (target_lift - x) / epsilon
    r = drift_bound + 1.0
    lo, hi = v0 - r, v0 + r
    for _ in range(64):
        if landing_gap(lo) < 0.0 < landing_gap(hi):
            break
        r *= 2.0
        lo, hi = v0 - r, v0 + r
    else:
        raise PlanningError("could not bracket the steering speed")
    v = _root(landing_gap, lo, hi, 1e-10)
    return (v,) + ends[v]


def _coast_chunks(duration: float, u_peak: float, lipschitz_fpp: float) -> int:
    """Number of chunks so each one amplifies an x-perturbation at the
    park point by at most exp(_COAST_GROWTH_BUDGET)."""
    if duration <= 0.0:
        return 1
    rate = lipschitz_fpp * (abs(u_peak) + 1.0)
    return max(1, int(math.ceil(duration * rate / _COAST_GROWTH_BUDGET)))


def _build_diffusion_schedule(potential, x0, u0, x1, t, d_min, d_max,
                              n_chunks, epsilon, drift_bound):
    """Assemble steer/coast segments sequentially, integrating as we go.

    All durations are quantum-snapped and the final window absorbs the
    remainder t - (sum so far), so the stored breakpoints recover every
    duration bitwise when the schedule is re-integrated.
    """
    x_min = potential.argmin
    x_max = potential.argmax
    segs: List[Tuple[float, float]] = []
    x, u = float(x0), float(u0)
    acc = 0.0

    def steer(target, duration):
        nonlocal x, u, acc
        tgt = _nearest_lift(target, x)
        v, x, u = _shoot_window(potential, x, u, duration, tgt, drift_bound)
        segs.append((duration, v))
        acc += duration

    def coast(park, total, chunks):
        nonlocal x, u, acc
        if total <= 0.0:
            return
        tau = _snap(total / chunks)
        for i in range(chunks):
            segs.append((tau, 0.0))
            x, u = _rk4_span(potential, x, u, 0.0, tau)
            acc += tau
            if i < chunks - 1:
                steer(park, epsilon)

    steer(x_min, epsilon)
    coast(x_min, d_min, n_chunks[0])
    steer(x_max, epsilon)
    coast(x_max, d_max, n_chunks[1])
    steer(_nearest_lift(x1, x), t - acc)
    return segs, float(wrap(x)), u


def plan_diffusion_control(potential: PeriodicPotential, z0: DiffusionState,
                           z1: DiffusionState, t: float,
                           epsilon: float = 0.01) -> ControlSchedule:
    """Plan a piecewise-constant drift v(s) moving z0 to z1 over time t.

    The schedule steers x onto the minimizer of F, coasts there, steers
    onto the maximizer, coasts again, and repositions onto x1 in a final
    window; the two coast durations split the u-budget.  Long coasts are
    broken by re-steering pulses that pin x to the park point (the park
    equilibria turn unstable when u changes sign), and the split is
    re-balanced from the integrated u-residual, so the landing satisfies
    x(t) = x1 up to solver precision and |u(t) - u1| well below O(epsilon).

    Raises UnreachableTargetError when u1 - u0 lies outside the open
    support interval ((min F) t, (max F) t), and PlanningError when the
    construction cannot fit the horizon (target too close to the support
    boundary for this epsilon).  A non-finite x, u, t or epsilon raises
    ValueError naming the field, before any integration.
    """
    _require_state("z0", z0)
    _require_state("z1", z1)
    _require_finite("t", t)
    _require_finite("epsilon", epsilon)
    if t <= 0.0:
        raise ValueError("t must be positive")
    if not 0.0 < epsilon < t / 4.0:
        raise ValueError("epsilon must lie in (0, t/4)")
    x0, u0 = float(wrap(z0.x)), float(z0.u)
    x1, u1 = float(wrap(z1.x)), float(z1.u)
    du = u1 - u0
    f_min, f_max = potential.min_value, potential.max_value
    if not f_min * t < du < f_max * t:
        raise UnreachableTargetError(
            f"u-increment {du:.6g} outside the open support interval "
            f"({f_min * t:.6g}, {f_max * t:.6g})")

    xe, ue = _rk4_span(potential, x0, u0, 0.0, t)
    if circle_dist(xe, x1) < _TRIVIAL_TOL and abs(ue - u1) < _TRIVIAL_TOL:
        return ControlSchedule(np.array([t]), np.array([0.0]))

    epsilon = _snap(epsilon)
    span = f_max - f_min
    lip_fpp = potential.coefficient_bound_derivative(2)
    sup_abs_f = abs(potential.a0) + potential.coefficient_bound_derivative(0)
    drift_bound = (abs(u0) + t * sup_abs_f) * \
        potential.coefficient_bound_derivative(1)

    def solve_split(t_coast):
        d_max = (du - f_min * t_coast) / span
        return t_coast - d_max, d_max

    d_min, d_max = solve_split(t - 3.0 * epsilon)
    if d_min < 0.0 or d_max < 0.0:
        raise PlanningError(
            "coast split infeasible; target too close to the support "
            "boundary for this horizon and epsilon")
    # Chunk counts are frozen from the first-pass split; the growth budget
    # is conservative, so later re-balancing cannot break it.
    u_a = u0 + f_min * d_min
    n_a = _coast_chunks(d_min, max(abs(u0), abs(u_a)), lip_fpp)
    u_b = u_a + f_max * d_max
    n_b = _coast_chunks(d_max, max(abs(u_a), abs(u_b)), lip_fpp)
    n_windows = 3 + (n_a - 1) + (n_b - 1)
    d_min, d_max = solve_split(t - n_windows * epsilon)
    if d_min < 0.0 or d_max < 0.0:
        raise PlanningError(
            "coast split infeasible once re-steering windows are budgeted; "
            "increase t or decrease epsilon")

    segs = None
    for _ in range(3):
        segs, _, ue = _build_diffusion_schedule(
            potential, x0, u0, x1, t, d_min, d_max, (n_a, n_b), epsilon,
            drift_bound)
        residual = ue - u1
        if abs(residual) < 1e-9:
            break
        shift = residual / span
        d_min, d_max = d_min + shift, d_max - shift
        if d_min < 0.0 or d_max < 0.0:
            raise PlanningError(
                "u-residual cannot be re-balanced inside the horizon")

    durations = np.array([d for d, _ in segs])
    values = np.array([v for _, v in segs])
    breakpoints = np.cumsum(durations)
    breakpoints[-1] = t
    return ControlSchedule(breakpoints, values)


def potential_zeros(potential: PeriodicPotential) -> List[float]:
    """All zeros of F on [0, 2*pi): a sign scan on _ZERO_GRID cells, each
    bracket polished by Brent's method to 1e-14."""
    return _circle_roots(potential.value, _ZERO_GRID, 1e-9)


def integrate_velocity_schedule(potential: PeriodicPotential,
                                schedule: ControlSchedule,
                                z0: PdmpState) -> PdmpState:
    """Exact terminal state of dx = y ds, du = F(x) ds along the schedule.

    Accepts values in {-1, 0, +1}; 0 parks the position (useful to check
    the idealized construction against its zigzag approximation).  The
    terminal velocity is the last nonzero schedule value, else z0.y.
    """
    x, u = float(z0.x), float(z0.u)
    y_last = int(z0.y)
    antiderivative = potential.antiderivative_s
    # G at the current x, carried across breakpoints: a moving segment
    # then costs one G evaluation, with the bits of segment_u.
    g0 = antiderivative(x)
    for t0, t1, v in schedule.segments():
        dur = t1 - t0
        yv = int(round(v))
        if yv not in (-1, 0, 1) or abs(v - yv) > 1e-12:
            raise ValueError("velocity schedule values must be -1, 0, or +1")
        if yv == 0:
            u += potential.value_s(x) * dur
        else:
            x += yv * dur
            g1 = antiderivative(x)
            u = u + yv * (g1 - g0)
            g0 = g1
            y_last = yv
    return PdmpState(float(wrap(x)), u, y_last)


def _zigzag(segs: List[Tuple[float, int]], duration: float,
            switch_rate: float):
    """Append balanced +1/-1 pairs approximating a parked position."""
    if duration <= 1e-12:
        return
    n_pairs = max(1, int(math.ceil(duration * switch_rate / 2.0)))
    half = duration / (2.0 * n_pairs)
    for _ in range(n_pairs):
        segs.append((half, 1))
        segs.append((half, -1))


def plan_pdmp_velocity_schedule(potential: PeriodicPotential, z0: PdmpState,
                                z1: PdmpState, t: float,
                                switch_rate: float = 1000.0) -> ControlSchedule:
    """Plan a velocity schedule in {-1, +1} moving z0 toward z1 over time t.

    Travel legs carry x between the start point, a park extremum of F, a
    zero of F, and finally x1 (approached with velocity z1.y); dwells at
    the two park points are realized as balanced zigzags, so u lands
    within O(1/switch_rate) of u1 while x(t) = x1 exactly.  The park
    extremum and travel directions are chosen by enumerating candidates
    and keeping the one with the largest slack in the dwell times.

    Raises UnreachableTargetError when u1 - u0 lies outside the open
    interval ((min F) t, (max F) t), and PlanningError when no candidate
    fits the horizon (t too short for the required travels and dwells).
    A non-finite x, u, t or switch_rate, or a y other than -1 or +1,
    raises ValueError naming the field, before any integration.
    """
    _require_state("z0", z0, velocity=True)
    _require_state("z1", z1, velocity=True)
    _require_finite("t", t)
    _require_finite("switch_rate", switch_rate)
    if t <= 0.0:
        raise ValueError("t must be positive")
    if switch_rate <= 0.0:
        raise ValueError("switch_rate must be positive")
    x0, u0, y0 = float(wrap(z0.x)), float(z0.u), int(z0.y)
    x1, u1 = float(wrap(z1.x)), float(z1.u)
    du = u1 - u0

    xe = wrap(x0 + y0 * t)
    ue = segment_u(potential, x0, y0, t, u0)
    if circle_dist(xe, x1) < _TRIVIAL_TOL and abs(ue - u1) < _TRIVIAL_TOL:
        return ControlSchedule(np.array([t]), np.array([float(y0)]))

    f_min, f_max = potential.min_value, potential.max_value
    if not f_min * t < du < f_max * t:
        raise UnreachableTargetError(
            f"u-increment {du:.6g} outside the open support interval "
            f"({f_min * t:.6g}, {f_max * t:.6g})")

    zeros = potential_zeros(potential)
    if not zeros:
        raise PlanningError("F has no zero; the parked leg cannot be placed")
    parks = [(potential.argmax, f_max), (potential.argmin, f_min)]
    y_final = int(z1.y)

    best = None
    for x_star, f_star in parks:
        if abs(f_star) < 1e-12:
            continue
        for y_a in (1, -1):
            s1 = float(np.remainder((x_star - x0) * y_a, TWO_PI))
            gain1 = segment_u(potential, x0, y_a, s1, 0.0)
            for x_zero in zeros:
                for y_b in (1, -1):
                    s3 = float(np.remainder((x_zero - x_star) * y_b, TWO_PI))
                    gain3 = segment_u(potential, x_star, y_b, s3, 0.0)
                    s5 = float(np.remainder((x1 - x_zero) * y_final, TWO_PI))
                    gain5 = segment_u(potential, x_zero, y_final, s5, 0.0)
                    d_star = (du - gain1 - gain3 - gain5) / f_star
                    d_wait = t - (s1 + s3 + s5 + d_star)
                    if d_star < -1e-9 or d_wait < -1e-9:
                        continue
                    slack = min(d_star, d_wait)
                    if best is None or slack > best[0]:
                        best = (slack, x_star, y_a, s1, d_star, y_b, s3,
                                x_zero, d_wait, s5)
    if best is None:
        raise PlanningError(
            "no feasible park/travel combination; the horizon is too short "
            "for this target")
    _, x_star, y_a, s1, d_star, y_b, s3, x_zero, d_wait, s5 = best

    segs: List[Tuple[float, int]] = []
    if s1 > 1e-12:
        segs.append((s1, y_a))
    _zigzag(segs, max(d_star, 0.0), switch_rate)
    if s3 > 1e-12:
        segs.append((s3, y_b))
    _zigzag(segs, max(d_wait, 0.0), switch_rate)
    if s5 > 1e-12:
        segs.append((s5, y_final))

    durations = np.array([d for d, _ in segs])
    values = np.array([float(y) for _, y in segs])
    breakpoints = np.cumsum(durations)
    breakpoints[-1] = t
    return ControlSchedule(breakpoints, values)
