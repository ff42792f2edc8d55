"""Tests for the piecewise-constant steering planners."""

import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_landscape import SKEWED, assert_bitwise, sparse_potentials

from circlelab.angles import TWO_PI, circle_dist, wrap
from circlelab.control import (
    _RK_DT,
    _RK_MIN_STEPS,
    _RK_SWEEP,
    ControlSchedule,
    _rk4_span,
    _shoot_window,
    integrate_diffusion_control,
    integrate_velocity_schedule,
    plan_diffusion_control,
    plan_pdmp_velocity_schedule,
    potential_zeros,
)
from circlelab.diffusion import DiffusionState
from circlelab.errors import PlanningError, UnreachableTargetError
from circlelab.pdmp import PdmpState, segment_u
from circlelab.potential import PeriodicPotential

COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))


class TestControlSchedule:
    def test_segment_lookup(self):
        sched = ControlSchedule(np.array([1.0, 2.5, 4.0]),
                                np.array([3.0, -1.0, 0.5]))
        assert sched.duration == 4.0
        assert sched.n_segments == 3
        assert sched.value_at(0.0) == 3.0
        assert sched.value_at(0.999) == 3.0
        assert sched.value_at(1.0) == -1.0
        assert sched.value_at(3.9) == 0.5
        assert np.allclose(sched.value_at(np.array([0.5, 2.0, 3.0])),
                           [3.0, -1.0, 0.5])
        assert list(sched.segments()) == [(0.0, 1.0, 3.0), (1.0, 2.5, -1.0),
                                          (2.5, 4.0, 0.5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlSchedule(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            ControlSchedule(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            ControlSchedule(np.array([1.0]), np.array([0.0, 1.0]))


class TestPotentialZeros:
    def test_cosine_zeros(self):
        zeros = potential_zeros(COSINE)
        assert np.allclose(zeros, [math.pi / 2, 3 * math.pi / 2], atol=1e-10)

    def test_zero_values(self):
        for z in potential_zeros(MIXTURE):
            assert abs(MIXTURE.value_s(z)) < 1e-10


class TestDiffusionPlanner:
    def test_identity_control_detected(self):
        z0 = DiffusionState(1.2, 0.4)
        z1 = integrate_diffusion_control(
            COSINE, ControlSchedule(np.array([5.0]), np.array([0.0])), z0)
        sched = plan_diffusion_control(COSINE, z0, z1, 5.0)
        assert sched.n_segments == 1
        assert sched.values[0] == 0.0
        assert sched.duration == 5.0

    def test_reference_target_lands_within_tolerance(self):
        z0 = DiffusionState(0.0, 0.0)
        z1 = DiffusionState(math.pi, 2.0)
        sched = plan_diffusion_control(COSINE, z0, z1, 10.0, epsilon=0.01)
        assert sched.duration == pytest.approx(10.0, abs=1e-12)
        end = integrate_diffusion_control(COSINE, sched, z0)
        assert circle_dist(end.x, math.pi) < 1e-9
        assert abs(end.u - 2.0) <= 0.05

    def test_negative_u_target(self):
        z0 = DiffusionState(0.5, 0.0)
        z1 = DiffusionState(4.0, -3.5)
        sched = plan_diffusion_control(COSINE, z0, z1, 12.0, epsilon=0.01)
        end = integrate_diffusion_control(COSINE, sched, z0)
        assert circle_dist(end.x, 4.0) < 1e-9
        assert abs(end.u - (-3.5)) <= 0.05

    def test_long_horizon_with_unstable_coast(self):
        # u sweeps deep into the sign that destabilizes the park points;
        # the re-steering pulses must keep the landing exact.
        z0 = DiffusionState(0.0, 0.0)
        z1 = DiffusionState(2.0, -8.0)
        sched = plan_diffusion_control(COSINE, z0, z1, 20.0, epsilon=0.01)
        end = integrate_diffusion_control(COSINE, sched, z0)
        assert circle_dist(end.x, 2.0) < 1e-9
        assert abs(end.u - (-8.0)) <= 0.05

    def test_mixture_potential_target(self):
        z0 = DiffusionState(1.0, 0.5)
        z1 = DiffusionState(5.5, 3.0)
        sched = plan_diffusion_control(MIXTURE, z0, z1, 10.0, epsilon=0.01)
        end = integrate_diffusion_control(MIXTURE, sched, z0)
        assert circle_dist(end.x, 5.5) < 1e-9
        assert abs(end.u - 3.0) <= 0.05

    def test_unreachable_targets_rejected_on_open_interval(self):
        z0 = DiffusionState(0.0, 0.0)
        with pytest.raises(UnreachableTargetError):
            plan_diffusion_control(COSINE, z0, DiffusionState(math.pi, 15.0),
                                   10.0)
        # The boundary itself is excluded (open interval).
        with pytest.raises(UnreachableTargetError):
            plan_diffusion_control(COSINE, z0, DiffusionState(math.pi, 10.0),
                                   10.0)
        with pytest.raises(UnreachableTargetError):
            plan_diffusion_control(COSINE, z0, DiffusionState(math.pi, -10.0),
                                   10.0)

    def test_parameter_validation(self):
        z0 = DiffusionState(0.0, 0.0)
        z1 = DiffusionState(1.0, 1.0)
        with pytest.raises(ValueError):
            plan_diffusion_control(COSINE, z0, z1, -1.0)
        with pytest.raises(ValueError):
            plan_diffusion_control(COSINE, z0, z1, 10.0, epsilon=0.0)
        with pytest.raises(ValueError):
            plan_diffusion_control(COSINE, z0, z1, 10.0, epsilon=5.0)


class TestPdmpPlanner:
    def test_single_piece_when_constant_velocity_suffices(self):
        z0 = PdmpState(1.0, 0.0, 1)
        t = 3.0
        x1 = wrap(1.0 + t)
        u1 = 0.0 + (math.sin(1.0 + t) - math.sin(1.0))
        sched = plan_pdmp_velocity_schedule(COSINE, z0,
                                            PdmpState(x1, u1, 1), t)
        assert sched.n_segments == 1
        assert sched.values[0] == 1.0

    def test_reference_target_error_scales_with_switch_rate(self):
        z0 = PdmpState(0.0, 0.0, 1)
        z1 = PdmpState(math.pi, 1.0, 1)
        errors = []
        for rate in (500.0, 1000.0, 2000.0, 4000.0):
            sched = plan_pdmp_velocity_schedule(COSINE, z0, z1, 10.0,
                                                switch_rate=rate)
            assert set(np.unique(sched.values)) <= {-1.0, 1.0}
            end = integrate_velocity_schedule(COSINE, sched, z0)
            assert circle_dist(end.x, math.pi) < 1e-9
            errors.append(abs(end.u - 1.0))
        assert errors[1] <= 0.02
        # Doubling the switch rate roughly halves the terminal u-error.
        assert errors[0] > errors[1] > errors[2] > errors[3]
        for a, b in zip(errors, errors[1:]):
            assert 1.3 < a / b < 2.7

    def test_opposite_terminal_velocity(self):
        z0 = PdmpState(0.0, 0.0, 1)
        z1 = PdmpState(math.pi, 1.0, -1)
        sched = plan_pdmp_velocity_schedule(COSINE, z0, z1, 10.0)
        end = integrate_velocity_schedule(COSINE, sched, z0)
        assert circle_dist(end.x, math.pi) < 1e-9
        assert abs(end.u - 1.0) <= 0.02
        assert end.y == -1

    def test_negative_u_target_parks_at_minimum(self):
        z0 = PdmpState(0.5, 0.0, -1)
        z1 = PdmpState(2.0, -4.0, 1)
        sched = plan_pdmp_velocity_schedule(MIXTURE, z0, z1, 15.0)
        end = integrate_velocity_schedule(MIXTURE, sched, z0)
        assert circle_dist(end.x, 2.0) < 1e-9
        assert abs(end.u - (-4.0)) <= 0.02

    def test_unreachable_rejected_on_open_interval(self):
        z0 = PdmpState(0.0, 0.0, 1)
        with pytest.raises(UnreachableTargetError):
            plan_pdmp_velocity_schedule(COSINE, z0,
                                        PdmpState(math.pi, 15.0, 1), 10.0)
        with pytest.raises(UnreachableTargetError):
            plan_pdmp_velocity_schedule(COSINE, z0,
                                        PdmpState(math.pi, 10.0, 1), 10.0)

    def test_horizon_too_short_raises_planning_error(self):
        z0 = PdmpState(0.0, 0.0, 1)
        # u1 = 1.9 needs a dwell near 2 time units plus travels, but the
        # open-interval condition alone would allow it at t = 2.
        with pytest.raises(PlanningError):
            plan_pdmp_velocity_schedule(COSINE, z0, PdmpState(1.0, 1.9, 1),
                                        2.0)

    def test_schedule_times_are_exact(self):
        z0 = PdmpState(0.0, 0.0, 1)
        sched = plan_pdmp_velocity_schedule(COSINE, z0,
                                            PdmpState(math.pi, 1.0, 1), 10.0)
        assert sched.duration == 10.0
        assert np.all(np.diff(sched.breakpoints) > 0.0)


class TestIntegrators:
    def test_velocity_integrator_matches_manual_flow(self):
        sched = ControlSchedule(np.array([1.0, 3.0, 3.5]),
                                np.array([1.0, -1.0, 1.0]))
        end = integrate_velocity_schedule(COSINE, sched, PdmpState(0.0, 0.0, 1))
        # x: 0 -> 1 -> -1 -> -0.5; u = int cos along the path.
        assert circle_dist(end.x, wrap(-0.5)) < 1e-12
        expected_u = (math.sin(1.0) - 0.0) + (-(math.sin(-1.0) - math.sin(1.0))) \
            + (math.sin(-0.5) - math.sin(-1.0))
        assert end.u == pytest.approx(expected_u, abs=1e-12)
        assert end.y == 1

    def test_velocity_integrator_accepts_parked_segments(self):
        sched = ControlSchedule(np.array([2.0]), np.array([0.0]))
        end = integrate_velocity_schedule(COSINE, sched, PdmpState(1.0, 0.0, 1))
        assert end.x == pytest.approx(1.0, abs=1e-15)
        assert end.u == pytest.approx(2.0 * math.cos(1.0), abs=1e-12)

    def test_velocity_integrator_rejects_other_values(self):
        sched = ControlSchedule(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            integrate_velocity_schedule(COSINE, sched, PdmpState(0.0, 0.0, 1))

    def test_rk4_integrator_tracks_drift_free_flow(self):
        # With v = 0 and x parked at a critical point, u grows linearly.
        sched = ControlSchedule(np.array([4.0]), np.array([0.0]))
        end = integrate_diffusion_control(COSINE, sched,
                                          DiffusionState(0.0, 1.0))
        assert end.x == pytest.approx(0.0, abs=1e-12)
        assert end.u == pytest.approx(1.0 + 4.0, abs=1e-10)


def reference_rk4_span(potential, x, u, v, duration):
    """The straight RK4 loop over value_s and derivative_s that the
    generated loop of `_rk4_span` must reproduce bit for bit."""
    if duration <= 0.0:
        return x, u
    def fd(z):
        return potential.value_s(z), potential.derivative_s(z)
    dt_target = min(_RK_DT, _RK_SWEEP / (1.0 + abs(v)))
    n = max(_RK_MIN_STEPS, int(math.ceil(duration / dt_target)))
    h = duration / n
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(n):
        k1u, d = fd(x)
        k1x = v - u * d
        x2 = x + half * k1x
        k2u, d = fd(x2)
        k2x = v - (u + half * k1u) * d
        x3 = x + half * k2x
        k3u, d = fd(x3)
        k3x = v - (u + half * k2u) * d
        x4 = x + h * k3x
        k4u, d = fd(x4)
        k4x = v - (u + h * k3u) * d
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
    return x, u


@st.composite
def rk4_spans(draw):
    """(v, duration): |v| up to 300, and a duration of 0, of fewer than
    _RK_MIN_STEPS target steps, or of several hundred."""
    v = draw(st.floats(-300.0, 300.0))
    dt_target = min(_RK_DT, _RK_SWEEP / (1.0 + abs(v)))
    steps = draw(st.one_of(st.just(0.0), st.floats(0.0, _RK_MIN_STEPS - 1.0),
                           st.floats(200.0, 600.0)))
    return v, steps * dt_target


class TestGeneratedRk4:
    @settings(max_examples=60)
    @given(sparse_potentials(), st.floats(-1e3, 1e3), st.floats(-50.0, 50.0),
           rk4_spans())
    def test_rk4_span_is_the_reference_loop_bitwise(self, pot, x, u, span):
        v, duration = span
        assert_bitwise(_rk4_span(pot, x, u, v, duration),
                       reference_rk4_span(pot, x, u, v, duration))

    @pytest.mark.parametrize("pot", [COSINE, MIXTURE, SKEWED])
    @pytest.mark.parametrize("u", [-2.5, 3.0])
    def test_shot_returns_its_landing_integration(self, pot, u):
        x, epsilon = 1.0, 0.01
        target = x + 0.7
        v, xe, ue = _shoot_window(pot, x, u, epsilon, target, 10.0)
        assert_bitwise((xe, ue), _rk4_span(pot, x, u, v, epsilon))
        assert abs(xe - target) < 1e-9

    def test_potential_pickles_after_planning(self):
        pot = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))
        want = _rk4_span(pot, 1.0, 0.5, 2.0, 0.3)
        copy = pickle.loads(pickle.dumps(pot))
        assert copy == pot
        assert_bitwise(_rk4_span(copy, 1.0, 0.5, 2.0, 0.3), want)


def segment_u_integration(potential, schedule, z0):
    """The velocity-schedule integration by one segment_u per moving
    segment, which evaluates G at both ends of every segment."""
    x, u = float(z0.x), float(z0.u)
    y_last = int(z0.y)
    for t0, t1, v in schedule.segments():
        dur = t1 - t0
        yv = int(round(v))
        if yv == 0:
            u += potential.value_s(x) * dur
        else:
            u = segment_u(potential, x, yv, dur, u)
            x += yv * dur
            y_last = yv
    return PdmpState(float(wrap(x)), u, y_last)


class TestVelocityIntegratorCarriesG:
    def test_zigzag_plan(self):
        z0 = PdmpState(1.0, 0.5, 1)
        sched = plan_pdmp_velocity_schedule(MIXTURE, z0, PdmpState(4.0, 1.5, -1),
                                            12.0, switch_rate=1000.0)
        assert sched.n_segments > 1000
        end = integrate_velocity_schedule(MIXTURE, sched, z0)
        want = segment_u_integration(MIXTURE, sched, z0)
        assert_bitwise((end.x, end.u), (want.x, want.u))
        assert end.y == want.y

    @settings(max_examples=40)
    @given(sparse_potentials(), st.floats(-20.0, 20.0), st.floats(-5.0, 5.0),
           st.sampled_from([-1, 1]),
           st.lists(st.tuples(st.floats(1e-3, 2.0), st.sampled_from([-1, 0, 1])),
                    min_size=1, max_size=30))
    def test_parked_and_moving_segments(self, pot, x, u, y, segs):
        sched = ControlSchedule(np.cumsum([d for d, _ in segs]),
                                np.array([float(v) for _, v in segs]))
        z0 = PdmpState(x, u, y)
        end = integrate_velocity_schedule(pot, sched, z0)
        want = segment_u_integration(pot, sched, z0)
        assert_bitwise((end.x, end.u), (want.x, want.u))
        assert end.y == want.y


_PLAN_INPUTS = {"z0.x": 1.0, "z0.u": 0.5, "z0.y": 1, "z1.x": 4.0, "z1.u": 1.5,
                "z1.y": -1, "t": 12.0, "epsilon": 0.01, "switch_rate": 1000.0}


def _plan_with(call, field, value):
    a = {**_PLAN_INPUTS, field: value}
    if call == "schedule":
        bp, vals = [1.0, 2.0], [0.0, 1.0]
        (bp if field == "breakpoints" else vals)[1] = value
        return ControlSchedule(np.array(bp), np.array(vals))
    if call == "diffusion":
        return plan_diffusion_control(
            COSINE, DiffusionState(a["z0.x"], a["z0.u"]),
            DiffusionState(a["z1.x"], a["z1.u"]), a["t"], epsilon=a["epsilon"])
    z0, z1 = (SimpleNamespace(x=a[f"{z}.x"], u=a[f"{z}.u"], y=a[f"{z}.y"])
              for z in ("z0", "z1"))
    return plan_pdmp_velocity_schedule(COSINE, z0, z1, a["t"],
                                       switch_rate=a["switch_rate"])


@pytest.mark.parametrize("call, field, value", [
    ("diffusion", "t", math.inf),
    ("diffusion", "t", math.nan),
    ("diffusion", "epsilon", math.nan),
    ("diffusion", "z0.x", math.nan),
    ("diffusion", "z0.u", math.inf),
    ("diffusion", "z1.x", -math.inf),
    ("diffusion", "z1.u", math.nan),
    ("pdmp", "t", math.inf),
    ("pdmp", "z0.x", math.nan),
    ("pdmp", "z1.u", -math.inf),
    ("pdmp", "switch_rate", math.inf),
    ("pdmp", "switch_rate", math.nan),
    ("pdmp", "z0.y", 0),
    ("pdmp", "z1.y", math.nan),
    ("schedule", "values", math.nan),
    ("schedule", "breakpoints", math.inf),
])
def test_non_finite_input_names_its_field(call, field, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be "):
        _plan_with(call, field, value)
