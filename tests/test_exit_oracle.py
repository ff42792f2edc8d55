"""The exact exit law of the frozen-drive velocity-jump process
(exit_oracle.py) against closed forms and against the simulators."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circlelab.angles import ArcSet
from circlelab.landscape import compute_level_geometry
from circlelab.pdmp import simulate_pdmp_driven
from circlelab.potential import PeriodicPotential
from circlelab.seeding import derive_replica_seeds
from circlelab.stats import escape_hits
from exit_oracle import escape_probabilities, exit_upper_probability

COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
# A k = 3 harmonic and sine terms (b_k != 0).
SKEWED = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))


def test_zero_drive_is_the_telegraph_exit_law():
    # g = 0: D is constant and h_+(x) = (1 + lam (x - a)) / (1 + lam (b - a)).
    lam, a, b, x = 0.7, 1.0, 3.0, 1.5
    p_up = (1.0 + lam * (x - a)) / (1.0 + lam * (b - a))
    assert exit_upper_probability(SKEWED, lam, 0.0, a, b, x, 1) == \
        pytest.approx(p_up, rel=1e-12)
    assert exit_upper_probability(SKEWED, lam, 0.0, a, b, x, -1) == \
        pytest.approx(p_up - 1.0 / (1.0 + lam * (b - a)), rel=1e-12)


def test_mirror_image_swaps_the_exits():
    # x -> -x maps F to F(-x), velocity y to -y and exit b to exit -b.
    mirrored = PeriodicPotential(0.0, ((1, 1.0, -0.5), (3, 0.3, 0.4)))
    for g, y in ((2.0, 1), (-1.5, -1)):
        p = exit_upper_probability(SKEWED, 0.4, g, 0.5, 3.5, 1.5, y)
        q = exit_upper_probability(mirrored, 0.4, g, -3.5, -0.5, -1.5, -y)
        assert p == pytest.approx(1.0 - q, abs=1e-9)


@pytest.mark.parametrize("potential, lam, g, a, b, x, y", [
    (COSINE, 0.5, 2.0, 1.0, 4.0, 3.0, 1),
    (COSINE, 0.5, -1.5, 1.0, 4.0, 2.0, -1),
    (SKEWED, 0.3, 1.0, 0.5, 3.5, 1.5, -1),
    (SKEWED, 0.3, -1.0, 0.5, 3.5, 2.5, 1),
    (SKEWED, 0.5, 2.0, -1.0, 2.0, 0.5, 1),
])
def test_simulated_exits_match(potential, lam, g, a, b, x, y):
    n = 2000
    until = [ArcSet.points([b]), ArcSet.points([a])]
    upper = 0
    for seed in range(n):
        log = simulate_pdmp_driven(potential, lam, g, x, y, 1e3, seed=seed,
                                   until=until)
        assert log.hit_time is not None
        upper += log.hit_target == 0
    p = exit_upper_probability(potential, lam, g, a, b, x, y)
    assert abs(upper / n - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_escape_trials_match_the_mean_over_start_configurations():
    geometry = compute_level_geometry(COSINE, eta=1.0 / 3.0)
    n = 1000
    for M in (4.0, 8.0):
        successes, censored = escape_hits(
            COSINE, geometry, M, "pdmp", seeds=derive_replica_seeds(11, n),
            first=0, lam=0.25, dt=5e-4, max_time=500.0)
        p = sum(escape_probabilities(COSINE, geometry, M, 0.25)) / 2.0
        assert censored == 0
        assert abs(successes / n - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


def _tenths(lo, hi):
    return st.integers(lo, hi).map(lambda i: i / 10.0)


# Coefficients of a k <= 3 potential; zero terms are drawn often, so the
# evaluators' skipped terms are covered.
_COEFFICIENT = st.one_of(st.just(0.0), _tenths(-10, 10))
_N_TRIALS = 2000
# 15 examples at |z| < 4.5: a correct sampler fails one with chance below
# 15 * 6.8e-6 (Bonferroni over the two-sided normal tail).
_Z = 4.5


@settings(max_examples=15, derandomize=True)
@given(a0=_tenths(-5, 5),
       harmonics=st.lists(st.tuples(_COEFFICIENT, _COEFFICIENT),
                          min_size=3, max_size=3).filter(
                              lambda h: any(c for row in h for c in row)),
       lam=_tenths(2, 10), depth=_tenths(-30, 30),
       a=st.floats(-math.pi, math.pi), length=st.floats(0.5, 4.0),
       frac=st.floats(0.1, 0.9), y=st.sampled_from([-1, 1]))
def test_simulated_exits_match_over_drawn_cases(a0, harmonics, lam, depth, a,
                                                length, frac, y):
    potential = PeriodicPotential(a0, tuple(
        (k, ck, sk) for k, (ck, sk) in enumerate(harmonics, 1)))
    b, x = a + length, a + frac * length
    # The drive g scales F's range on [a, b] to |depth|: wells the
    # process leaves in a few hundred time units, and a drive that moves
    # the exit law for every drawn potential.
    f = potential.value(np.linspace(a, b, 257))
    g = depth / max(float(f.max() - f.min()), 1e-3)
    p = exit_upper_probability(potential, lam, g, a, b, x, y)
    # The normal bound needs both exits to be common enough.
    assume(_N_TRIALS * p * (1.0 - p) >= 25.0)
    until = [ArcSet.points([b]), ArcSet.points([a])]
    upper = 0
    for seed in derive_replica_seeds(29, _N_TRIALS):
        log = simulate_pdmp_driven(potential, lam, g, x, y, 1e3, seed=seed,
                                   until=until)
        assert log.hit_time is not None
        upper += log.hit_target == 0
    assert abs(upper / _N_TRIALS - p) < \
        _Z * math.sqrt(p * (1.0 - p) / _N_TRIALS)
