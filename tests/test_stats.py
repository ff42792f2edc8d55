"""Tests for the estimators and property checks."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab.angles import TWO_PI, ArcSet, wrap
from circlelab.diffusion import (
    DiffusionState,
    Trajectory,
    simulate_diffusion,
    simulate_diffusion_ensemble,
)
from circlelab.errors import BinMismatchError
from circlelab.landscape import classify_landscape, compute_level_geometry
from circlelab.pdmp import (
    CAUSE_CONSTANT,
    CAUSE_END,
    CAUSE_INIT,
    EventLog,
    PdmpState,
    segment_u,
    simulate_pdmp,
    simulate_pdmp_driven,
)
from circlelab.potential import PeriodicPotential
from circlelab.seeding import derive_replica_seeds
from circlelab.stats import (
    EmpiricalHistogram,
    detect_convergence,
    doeblin_hits,
    drift_samples,
    escape_bound,
    escape_hits,
    hitting_times,
    occupation_histogram,
    occupation_histograms,
    tv_distance,
    wilson_interval,
)
from circlelab.stats import (
    _SLICE_BLOCK,
    _accumulate,
    _bin_u,
    _bin_x,
    _tail_heavy,
)

COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))
# Sine terms (b_k != 0) move G(0) off zero and the extrema off the bin grid.
SKEWED = PeriodicPotential(-0.2, ((1, 1.0, 0.4), (2, 0.7, -0.5)))


def _flat_trajectory(x, u, n=5):
    return Trajectory(np.arange(n, dtype=float), np.full(n, float(x)),
                      np.full(n, float(u)), dt=1.0, record_every=1, seed=0,
                      potential_id="test")


_X_EDGES = np.linspace(0.0, TWO_PI, 9)
_U_EDGES = np.linspace(-2.0, 2.0, 5)


def _random_histogram(rng, weight):
    m = rng.random((8, 6))
    return EmpiricalHistogram(_X_EDGES, _U_EDGES, m / m.sum(), weight)


def _histograms(n):
    """n normalized histograms on the bins of _random_histogram, with
    drawn masses (some cells empty) and weights."""
    masses = st.lists(st.floats(0.0, 1.0), min_size=48, max_size=48)
    one = st.builds(
        lambda m, w: EmpiricalHistogram(
            _X_EDGES, _U_EDGES, np.reshape(m, (8, 6)) / np.sum(m), w),
        masses.filter(lambda m: sum(m) > 0.0), st.floats(1e-3, 1e3))
    return st.lists(one, min_size=n, max_size=n)


class TestWilson:
    def test_trivial_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    @pytest.mark.parametrize("p", [0.5, 0.01])
    def test_coverage(self, p):
        # Wilson's interval should cover the true proportion in at least
        # ~95% of repetitions; 93% leaves room for binomial discreteness.
        rng = np.random.default_rng(42)
        n = 200
        hits = 0
        reps = 1000
        ks = rng.binomial(n, p, size=reps)
        for k in ks:
            lo, hi = wilson_interval(int(k), n)
            hits += lo <= p <= hi
        assert hits / reps >= 0.93


class TestHistogram:
    def test_masses_sum_to_one(self):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.0, 0.0, 1), 500.0, seed=3)
        h = occupation_histogram(log)
        assert abs(h.total_mass - 1.0) < 1e-12

    def test_merge_is_weighted_average(self):
        a = occupation_histogram(_flat_trajectory(1.0, 0.5))
        b = occupation_histogram(_flat_trajectory(4.0, -0.5))
        merged = a.merge(b)
        assert abs(merged.total_mass - 1.0) < 1e-12
        expected = 0.5 * (a.masses + b.masses)
        assert np.allclose(merged.masses, expected, atol=1e-15)

    @settings(max_examples=60)
    @given(hists=_histograms(3), order=st.permutations(range(3)))
    def test_merge_monoid(self, hists, order):
        # associative and order-independent up to rounding; a pairwise
        # swap is bitwise, as floating-point addition commutes
        a, b, c = hists
        left = a.merge(b).merge(c)
        for other in (a.merge(b.merge(c)),
                      functools.reduce(EmpiricalHistogram.merge,
                                       [hists[i] for i in order])):
            assert np.allclose(other.masses, left.masses, rtol=0.0, atol=1e-12)
            assert other.weight == pytest.approx(left.weight, rel=1e-12)
            assert abs(other.total_mass - 1.0) < 1e-12
        ab, ba = a.merge(b), b.merge(a)
        assert np.array_equal(ab.masses, ba.masses) and ab.weight == ba.weight

    def test_bin_mismatch(self):
        a = occupation_histogram(_flat_trajectory(1.0, 0.5), x_bins=8)
        b = occupation_histogram(_flat_trajectory(1.0, 0.5), x_bins=16)
        with pytest.raises(BinMismatchError):
            a.merge(b)
        with pytest.raises(BinMismatchError):
            tv_distance(a, b)

    def test_overflow_bins(self):
        h = occupation_histogram(_flat_trajectory(1.0, 99.0))
        assert h.u_marginal()[-1] == 1.0
        h2 = occupation_histogram(_flat_trajectory(1.0, -99.0))
        assert h2.u_marginal()[0] == 1.0


class TestOccupation:
    def test_stationary_path_single_bin(self):
        h = occupation_histogram(_flat_trajectory(1.0, 0.5))
        assert np.count_nonzero(h.masses) == 1
        assert h.masses.max() == 1.0

    def test_telegraph_x_marginal_uniform(self):
        log = simulate_pdmp_driven(COSINE, 0.25, 0.0, 0.3, 1, 10_000.0,
                                   seed=2)
        h = occupation_histogram(log)
        xm = h.x_marginal()
        tv = 0.5 * np.abs(xm - 1.0 / 64).sum()
        assert tv < 0.05
        # The drive is zero, so all u-mass sits in the bin containing 0.
        assert h.u_marginal().max() > 1.0 - 1e-12

    def test_event_log_weights_match_fine_sampling(self):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.5, 0.0, 1), 200.0,
                            seed=5)
        h = occupation_histogram(log)
        counts = np.zeros_like(h.masses)
        for t0, t1, x0, u0, y in log.segments():
            n = max(2, int((t1 - t0) / 2e-4))
            s = (np.arange(n) + 0.5) * (t1 - t0) / n
            xs = wrap(x0 + y * s)
            us = u0 + y * (COSINE.antiderivative(x0 + y * s)
                           - COSINE.antiderivative(x0))
            xi = np.clip((xs / TWO_PI * 64).astype(int), 0, 63)
            ui = np.clip(np.searchsorted(h.u_edges, us, side="right"), 0, 41)
            np.add.at(counts, (xi, ui), (t1 - t0) / n)
        brute = counts / counts.sum()
        # The x time-allocation is exact; u is attributed at the slice
        # midpoint, so joint masses can blur into adjacent u-bins.
        assert 0.5 * np.abs(h.x_marginal() - brute.sum(axis=1)).sum() < 2e-3
        assert 0.5 * np.abs(h.masses - brute).sum() < 0.05

    def test_burn_in_drops_early_mass(self):
        log = simulate_pdmp_driven(COSINE, 0.5, 0.0, 0.3, 1, 100.0, seed=1)
        h = occupation_histogram(log, burn_in=40.0)
        assert abs(h.weight - 60.0) < 1e-9
        assert abs(h.total_mass - 1.0) < 1e-12

    def test_rejects_unknown_path(self):
        with pytest.raises(TypeError):
            occupation_histogram([1.0, 2.0])


def _reference_event_log_counts(log, x_edges, u_edges, burn_in, t_max):
    """Unnormalized event-log occupation masses, one segment at a time.

    This is the per-segment loop that `occupation_histogram` ran before
    it binned all segments with array operations; the array version must
    reproduce its masses bit for bit.
    """
    counts = np.zeros((x_edges.size - 1, u_edges.size + 1))
    n_x = x_edges.size - 1
    bin_width = TWO_PI / n_x
    potential = log.potential
    driven = log.kind != "self"
    for t0, t1, x0, u0, y in log.segments():
        if t1 <= burn_in or t0 >= t_max:
            continue
        if t0 < burn_in:
            # Advance the segment start to the burn-in boundary.
            shift = burn_in - t0
            if not driven:
                u0 = segment_u(potential, x0, y, shift, u0)
            x0 = float(wrap(x0 + y * shift))
            t0 = burn_in
        length = min(t1, t_max) - t0
        if length <= 0.0:
            continue
        # Exact split of the swept arc at the x-bin boundaries it crosses
        # (unit speed, so arc length equals time).  Classifying each slice
        # by its midpoint keeps the allocation robust at the boundaries.
        lo = min(x0, x0 + y * length)
        hi = max(x0, x0 + y * length)
        k_lo = math.ceil(lo / bin_width)
        k_hi = math.floor(hi / bin_width)
        bounds = np.arange(k_lo, k_hi + 1) * bin_width
        s_cross = y * (bounds - x0)
        s_cross = np.sort(s_cross[(s_cross > 1e-14) & (s_cross < length - 1e-14)])
        cuts = np.concatenate(([0.0], s_cross, [length]))
        durations = np.diff(cuts)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        xi = _bin_x(x0 + y * mids, n_x)
        if driven:
            u_mid = np.full(mids.size, u0)
        else:
            u_mid = u0 + y * (potential.antiderivative(x0 + y * mids)
                              - potential.antiderivative(x0))
        ui = _bin_u(u_mid, u_edges)
        np.add.at(counts, (xi, ui), durations)
    return counts


def _assert_matches_reference(log, burn_in=0.0, t_max=math.inf):
    h = occupation_histogram(log, burn_in=burn_in, t_max=t_max)
    counts = _reference_event_log_counts(log, h.x_edges, h.u_edges,
                                         burn_in, t_max)
    total = counts.sum()
    assert h.weight == float(total)
    assert np.array_equal(h.masses, counts / total)
    return h


def _hand_log(times, x, u, y, kind="self", potential=COSINE):
    """An event log with the given rows; causes are filler."""
    n = len(times)
    causes = (CAUSE_INIT,) + (CAUSE_CONSTANT,) * (n - 2) + (CAUSE_END,)
    return EventLog(times=np.asarray(times, dtype=float),
                    x=np.asarray(x, dtype=float),
                    u=np.asarray(u, dtype=float),
                    y=np.asarray(y, dtype=np.int8), causes=causes, lam=1.0,
                    horizon=float(times[-1]), seed=0, potential=potential,
                    kind=kind)


class TestEventLogBinning:
    HORIZON = 30.0

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           lam=st.floats(0.1, 4.0),
           u0=st.floats(-6.0, 6.0),
           y0=st.sampled_from([-1, 1]),
           potential=st.sampled_from([COSINE, SKEWED]),
           driven=st.booleans(),
           a=st.floats(-2.0, 32.0),
           b=st.floats(-2.0, 32.0),
           open_ended=st.booleans())
    def test_matches_per_segment_reference(self, seed, lam, u0, y0, potential,
                                           driven, a, b, open_ended):
        if driven:
            log = simulate_pdmp_driven(potential, lam, u0, 1.0, y0,
                                       self.HORIZON, seed=seed)
        else:
            log = simulate_pdmp(potential, lam, PdmpState(1.0, u0, y0),
                                self.HORIZON, seed=seed)
        burn_in, t_max = min(a, b), max(a, b)
        if open_ended:
            t_max = math.inf
        overlap = min(t_max, self.HORIZON) - max(burn_in, 0.0)
        if overlap <= 0.0:
            with pytest.raises(ValueError):
                occupation_histogram(log, burn_in=burn_in, t_max=t_max)
            return
        h = _assert_matches_reference(log, burn_in, t_max)
        assert abs(h.weight - overlap) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, 4e-15])
    def test_segment_on_bin_edges(self, eps):
        # x runs from edge 2 to edge 5 and back to edge 1, exactly or eps
        # short of each: every slice is one whole bin, with no sliver at
        # either end.  Bin 1 is swept once, bins 2-4 twice.
        bw = TWO_PI / 64
        log = _hand_log([0.0, 3 * bw, 7 * bw],
                        [2 * bw - eps, 5 * bw - eps, 1 * bw - eps],
                        [0.0, 0.0, 0.0], [1, -1, -1], kind="driven")
        h = _assert_matches_reference(log)
        xm = h.x_marginal() * h.weight
        assert np.count_nonzero(xm) == 4
        np.testing.assert_allclose(xm[1:5], [bw, 2 * bw, 2 * bw, 2 * bw],
                                   rtol=1e-12)

    def test_coincident_event_times(self):
        log = _hand_log([0.0, 1.0, 1.0, 1.0, 2.5], [0.5, 1.5, 1.5, 1.5, 0.0],
                        [0.2, 0.3, 0.3, 0.3, 0.1], [1, -1, 1, -1, -1])
        h = _assert_matches_reference(log)
        assert abs(h.weight - 2.5) < 1e-12
        _assert_matches_reference(log, burn_in=1.0)

    def test_window_inside_one_segment(self):
        log = simulate_pdmp(SKEWED, 0.05, PdmpState(4.0, 1.0, -1), 10.0,
                            seed=3)
        t0, t1 = float(log.times[0]), float(log.times[1])
        lo, hi = t0 + 0.3 * (t1 - t0), t0 + 0.6 * (t1 - t0)
        h = _assert_matches_reference(log, lo, hi)
        assert abs(h.weight - (hi - lo)) < 1e-12

    def test_log_longer_than_one_slice_block(self):
        horizon = 2000.0
        assert horizon / (TWO_PI / 64) > 2 * _SLICE_BLOCK
        log = simulate_pdmp(SKEWED, 0.5, PdmpState(0.3, 0.0, 1), horizon,
                            seed=9)
        _assert_matches_reference(log)
        _assert_matches_reference(log, burn_in=417.3, t_max=1533.9)

    @pytest.mark.parametrize("bounds", [{"burn_in": math.nan},
                                        {"t_max": math.nan}])
    def test_nan_window_rejected(self, bounds):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.5, 0.0, 1), 5.0, seed=1)
        name = next(iter(bounds))
        with pytest.raises(ValueError, match=name):
            occupation_histogram(log, **bounds)

    def test_ensemble_matches_per_replica_loop(self):
        ens = simulate_diffusion_ensemble(MIXTURE, 1.0, 0.5, 2.0, dt=1e-2,
                                          seeds=range(6), record_every=1)
        h = occupation_histogram(ens, burn_in=0.5, t_max=1.5)
        keep = (ens.times >= 0.5) & (ens.times <= 1.5)
        counts = np.zeros_like(h.masses)
        for i in range(ens.n_replicas):
            _accumulate(counts, ens.x[i, keep], ens.u[i, keep],
                        h.x_edges, h.u_edges, 1.0)
        assert h.weight == counts.sum()
        assert np.array_equal(h.masses, counts / counts.sum())


@st.composite
def event_log_windows(draw, log):
    """(burn_in, t_max) windows on a log: bounds at 0, at event times,
    anywhere, past the horizon or at infinity, and windows inside one
    segment."""
    times = [float(t) for t in log.times]
    horizon = times[-1]
    bound = st.one_of(st.just(0.0), st.sampled_from(times),
                      st.floats(0.0, horizon), st.floats(-1.0, horizon + 2.0))
    lo, hi = sorted((draw(bound), draw(bound)))
    shape = draw(st.sampled_from(["any", "open", "past", "one-segment"]))
    if shape == "open":
        hi = math.inf
    elif shape == "past":
        hi = horizon + draw(st.floats(1e-9, 5.0))
    elif shape == "one-segment":
        i = draw(st.integers(0, len(times) - 2))
        a, b = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
        lo = times[i] + a * (times[i + 1] - times[i])
        hi = times[i] + b * (times[i + 1] - times[i])
    return lo, hi


class TestWindowedBinning:
    HORIZON = 30.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           lam=st.floats(0.1, 4.0),
           u0=st.floats(-6.0, 6.0),
           y0=st.sampled_from([-1, 1]),
           potential=st.sampled_from([COSINE, SKEWED]),
           driven=st.booleans(),
           data=st.data())
    def test_each_window_is_the_per_segment_reference(self, seed, lam, u0,
                                                      y0, potential, driven,
                                                      data):
        if driven:
            log = simulate_pdmp_driven(potential, lam, u0, 1.0, y0,
                                       self.HORIZON, seed=seed)
        else:
            log = simulate_pdmp(potential, lam, PdmpState(1.0, u0, y0),
                                self.HORIZON, seed=seed)
        windows = data.draw(st.lists(event_log_windows(log), min_size=1,
                                     max_size=9))
        full = []
        for lo, hi in windows:
            counts = _reference_event_log_counts(
                log, np.linspace(0.0, TWO_PI, 65),
                np.linspace(-12.0, 12.0, 41), lo, hi)
            if counts.sum() > 0.0:
                full.append(((lo, hi), counts))
                continue
            # An empty window fails alone and in company.
            for batch in ([(lo, hi)], [(0.0, math.inf), (lo, hi)]):
                with pytest.raises(ValueError, match="no occupation mass"):
                    occupation_histograms(log, batch)
        if not full:
            return
        hists = occupation_histograms(log, [w for w, _ in full])
        for h, (_, counts) in zip(hists, full):
            total = counts.sum()
            assert h.weight == float(total)
            assert np.array_equal(h.masses, counts / total)

    def test_ergodic_windows_of_a_long_log(self):
        horizon = 2000.0
        log = simulate_pdmp(SKEWED, 0.5, PdmpState(0.3, 0.0, 1), horizon,
                            seed=9)
        t = [float(v) for v in log.times]
        windows = [(0.0, 0.5 * horizon), (0.5 * horizon, horizon),
                   (200.0, horizon), (200.0, 425.0), (200.0, 650.0),
                   (t[40], t[900]), (t[3], math.inf)]
        for h, (lo, hi) in zip(occupation_histograms(log, windows), windows):
            want = _assert_matches_reference(log, lo, hi)
            assert h.weight == want.weight
            assert np.array_equal(h.masses, want.masses)

    def test_trajectory_windows_match_one_at_a_time(self):
        traj = simulate_diffusion(COSINE, DiffusionState(1.0, 0.5), 2.0,
                                  dt=1e-2, record_every=1, seed=4)
        windows = [(0.0, 1.0), (0.5, math.inf), (1.25, 1.5)]
        for h, (lo, hi) in zip(occupation_histograms(traj, windows),
                               windows):
            want = occupation_histogram(traj, burn_in=lo, t_max=hi)
            assert h.weight == want.weight
            assert np.array_equal(h.masses, want.masses)
        with pytest.raises(ValueError, match="no samples"):
            occupation_histograms(traj, [(0.0, 1.0), (2.5, 3.0)])

    def test_nan_bound_named(self):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.5, 0.0, 1), 5.0, seed=1)
        with pytest.raises(ValueError, match="t_max"):
            occupation_histograms(log, [(0.0, 1.0), (0.0, math.nan)])


class TestTvDistance:
    def test_identical_and_disjoint(self):
        a = occupation_histogram(_flat_trajectory(1.0, 0.5))
        b = occupation_histogram(_flat_trajectory(4.0, -0.5))
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, b) == 1.0

    def test_half_overlap(self):
        x_edges = np.linspace(0.0, TWO_PI, 3)
        u_edges = np.array([-1.0, 1.0])
        h1 = EmpiricalHistogram(x_edges, u_edges,
                                np.array([[0, 0.5, 0], [0, 0.5, 0]]), 1.0)
        h2 = EmpiricalHistogram(x_edges, u_edges,
                                np.array([[0, 1.0, 0], [0, 0.0, 0]]), 1.0)
        assert tv_distance(h1, h2) == pytest.approx(0.5, abs=1e-15)

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        a, b, c = (_random_histogram(rng, 1.0) for _ in range(3))
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15
        assert 0.0 <= tv_distance(a, b) <= 1.0


def _replica_paths(potential, process, x0, u0, horizon, seeds, *, y0=1,
                   record_every=10, until=None):
    """One path per seed, as the runner's chunks make them: a diffusion
    ensemble of step 1e-3, or velocity-jump paths at rate 1."""
    if process == "pdmp":
        return [simulate_pdmp(potential, 1.0, PdmpState(x0, u0, y0), horizon,
                              seed=s, until=until) for s in seeds]
    ens = simulate_diffusion_ensemble(potential, x0, u0, horizon, dt=1e-3,
                                      seeds=seeds, record_every=record_every)
    return [ens.replica(i) for i in range(len(seeds))]


class TestHittingTime:
    @staticmethod
    def _hitting(process, x_start, target, cap, seeds):
        paths = _replica_paths(COSINE, process, x_start, 0.0, cap, seeds,
                               until=[target])
        return hitting_times(paths, target, cap)

    def test_start_inside_is_zero(self):
        target = ArcSet.from_endpoints([(0.0, 1.0)])
        for process in ("diffusion", "pdmp"):
            got = self._hitting(process, 0.5, target, 10.0, [4])
            assert got == ([0.0], [False])

    def test_pdmp_exact_first_entry(self):
        # No flip happens before reaching the target edge for this seed, so
        # the unit-speed travel time to pi - 0.2 is exact.
        target = ArcSet.from_endpoints([(math.pi - 0.2, math.pi + 0.2)])
        (value,), (censored,) = self._hitting("pdmp", 0.0, target, 100.0, [9])
        assert not censored
        assert value == pytest.approx(math.pi - 0.2, abs=1e-12)

    def test_censored_at_cap(self):
        # Nearly half a turn away: unit speed or Brownian noise of scale
        # sqrt(0.05) cannot get there by the cap.
        target = ArcSet.from_endpoints([(0.0, 0.1)])
        for process in ("diffusion", "pdmp"):
            got = self._hitting(process, 3.0, target, 0.05, [1, 2, 3])
            assert got == ([0.05] * 3, [True] * 3)

    def test_wide_ensemble_matches_one_replica_runs(self):
        # 30 replicas run the vector EM loop; each one-replica run takes
        # the scalar loop.  Start 11 (x = 2.2) lies inside the target.
        potential = PeriodicPotential(0.0, ((1, 1.0, 0.5), (3, 0.3, -0.4)))
        target = ArcSet.from_endpoints([(2.05, 2.25)])
        starts = 0.2 * np.arange(30)
        seeds = derive_replica_seeds(6, 30)
        cap = 2.0
        ens = simulate_diffusion_ensemble(potential, starts, 0.0, cap,
                                          dt=1e-3, seeds=seeds,
                                          record_every=3)
        got = hitting_times([ens.replica(i) for i in range(30)], target, cap)
        want = ([], [])
        for x, seed in zip(starts, seeds):
            traj = simulate_diffusion(potential, DiffusionState(x, 0.0), cap,
                                      dt=1e-3, seed=seed, record_every=3)
            rows = np.flatnonzero(target.indicator(traj.x))
            want[0].append(float(traj.times[rows[0]]) if rows.size else cap)
            want[1].append(rows.size == 0)
        assert got == want
        assert got[0][11] == 0.0
        assert 0 < sum(got[1]) < 29


class TestEscape:
    GEO = compute_level_geometry(COSINE, eta=1.0 / 3.0)
    KW = dict(lam=0.25, dt=5e-4, max_time=500.0)

    def test_bound_formulas(self):
        b_diff = escape_bound("diffusion", COSINE, 16.0, 1.0 / 3.0)
        assert b_diff == pytest.approx(8 * math.pi * 16 * math.exp(-32 / 3),
                                       rel=1e-12)
        assert b_diff == pytest.approx(9.4e-3, rel=0.01)
        b_pdmp = escape_bound("pdmp", COSINE, 16.0, 1.0 / 3.0, lam=0.25)
        assert b_pdmp == pytest.approx(math.exp(math.pi / 2 - 16 / 3),
                                       rel=1e-12)

    def _below_bound(self, process):
        seeds = derive_replica_seeds(11, 400)
        successes, censored = escape_hits(COSINE, self.GEO, 16.0, process,
                                          seeds=seeds, first=0, **self.KW)
        assert 0 <= censored <= 400 - successes
        lo, hi = wilson_interval(successes, 400)
        bound = escape_bound(process, COSINE, 16.0, 1.0 / 3.0, lam=0.25)
        assert successes / 400 <= bound + 1.5 * (hi - lo)

    def test_diffusion_estimate_below_bound(self):
        self._below_bound("diffusion")

    def test_pdmp_estimate_below_bound(self):
        self._below_bound("pdmp")

    def test_monotone_in_drive(self):
        seeds = derive_replica_seeds(5, 600)
        hits = [escape_hits(COSINE, self.GEO, M, "diffusion", seeds=seeds,
                            first=0, **self.KW)[0]
                for M in (4.0, 8.0, 12.0, 16.0)]
        for lo_hits, hi_hits in zip(hits[1:], hits[:-1]):
            # Nonincreasing up to interval overlap.
            assert wilson_interval(lo_hits, 600)[0] <= \
                wilson_interval(hi_hits, 600)[1]
            assert lo_hits <= hi_hits

    @pytest.mark.parametrize("process", ["diffusion", "pdmp"])
    def test_outcomes_do_not_follow_the_chunking(self, process):
        # Replica first + j takes start configuration (first + j) mod 2,
        # so any cut of a seed range gives the same totals.
        seeds = derive_replica_seeds(3, 30)
        kw = dict(self.KW, max_time=20.0)
        whole = escape_hits(COSINE, self.GEO, 4.0, process, seeds=seeds,
                            first=0, **kw)
        parts = [escape_hits(COSINE, self.GEO, 4.0, process,
                             seeds=seeds[lo:hi], first=lo, **kw)
                 for lo, hi in ((0, 7), (7, 8), (8, 30))]
        assert whole == tuple(map(sum, zip(*parts)))
        assert whole[0] > 0

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="process"):
            escape_hits(COSINE, self.GEO, 8.0, "jump", seeds=[1], first=0,
                        **self.KW)


class TestTailFlag:
    def test_divergent_moment_flagged(self):
        # E[e^{Z}] diverges for Z ~ Exp(1): a few terms carry the mean.
        rng = np.random.default_rng(3)
        assert _tail_heavy(np.exp(rng.standard_exponential(100_000)))

    def test_light_tail_not_flagged(self):
        rng = np.random.default_rng(3)
        assert not _tail_heavy(np.exp(0.5 * rng.standard_exponential(100_000)))
        assert not _tail_heavy(np.full(50, math.e))


class TestDetectConvergence:
    LAN_MIX = classify_landscape(MIXTURE)
    LAN_COS = classify_landscape(COSINE)

    def test_pdmp_localization_found(self):
        log = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.0, 30.0, 1), 2000.0,
                            seed=2)
        x_star = detect_convergence(log, self.LAN_MIX, 200.0, 0.15)
        assert x_star == pytest.approx(math.pi, abs=1e-6)
        trap_xs = [p.x for p in self.LAN_MIX.traps]
        assert any(abs(x_star - t) < 1e-9 for t in trap_xs)

    def test_diffusion_localization_found(self):
        traj = simulate_diffusion(MIXTURE, DiffusionState(0.0, 30.0), 2000.0,
                                  dt=1e-3, seed=2, record_every=100)
        x_star = detect_convergence(traj, self.LAN_MIX, 200.0, 0.15)
        assert x_star == pytest.approx(math.pi, abs=1e-6)

    def test_empty_trap_set_gives_none(self):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.0, 0.0, 1), 300.0,
                            seed=2)
        assert detect_convergence(log, self.LAN_COS, 50.0, 0.15) is None

    def test_wandering_path_gives_none(self):
        log = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.0, 0.0, 1), 50.0,
                            seed=7)
        assert detect_convergence(log, self.LAN_MIX, 40.0, 0.15) is None

    def test_window_validation(self):
        log = simulate_pdmp(MIXTURE, 1.0, PdmpState(0.0, 0.0, 1), 10.0,
                            seed=7)
        with pytest.raises(ValueError):
            detect_convergence(log, self.LAN_MIX, 20.0, 0.15)


class TestDrift:
    def test_ratio_small_at_large_u0(self):
        seeds = derive_replica_seeds(3, 300)
        estimates = [float(drift_samples(COSINE, 0.05, 0.0, u0, [50.0],
                                         dt=2e-3, seeds=seeds).mean())
                     for u0 in (0.0, 20.0, 60.0)]
        ratios = [e / math.exp(0.05 * u0)
                  for e, u0 in zip(estimates, (0.0, 20.0, 60.0))]
        assert ratios[-1] <= 0.75
        # The deterministic bound |U_t| <= |u0| + t sup|F| caps the moment.
        assert estimates[0] <= math.exp(0.05 * 1.0 * 50.0)
        assert ratios[0] > ratios[-1]

    @settings(max_examples=40)
    @given(cells=st.lists(st.tuples(st.integers(2, 40), st.floats(-0.4, 0.4)),
                          min_size=1, max_size=4),
           width=st.sampled_from([1, 3, 4, 5, 7]),
           dt=st.sampled_from([1e-2, 2e-2, 3e-3]),
           u0=st.floats(-30.0, 30.0),
           x0=st.floats(0.0, 6.0),
           potential=st.sampled_from([COSINE, SKEWED]))
    @example(cells=[(7, 0.3), (3, -0.2), (7, 0.0)], width=3, dt=3e-3,
             u0=5.0, x0=1.0, potential=SKEWED)
    @example(cells=[(7, 0.3), (3, -0.2), (7, 0.0)], width=5, dt=3e-3,
             u0=5.0, x0=1.0, potential=SKEWED)
    def test_one_pass_matches_runs_from_zero(self, cells, width, dt, u0, x0,
                                             potential):
        # Each t is (steps + offset) * dt: off the dt grid, unsorted,
        # repeated, step counts with gcd 1.  Widths <= 4 take the scalar
        # loop and wider ones the vector loop.
        ts = [(n + f) * dt for n, f in cells]
        seeds = tuple(range(width))
        got = drift_samples(potential, 0.05, x0, u0, ts, dt=dt, seeds=seeds)
        assert got.shape == (len(ts), width)
        for row, (n, _), t in zip(got, cells, ts):
            ens = simulate_diffusion_ensemble(potential, x0, u0, t, dt=dt,
                                              seeds=seeds, record_every=n)
            assert ens.times.size == 2
            assert np.array_equal(row, np.exp(0.05 * np.abs(ens.u[:, -1])))

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            drift_samples(COSINE, 0.05, 0.0, 1.0, [1.0], dt=1e-2, seeds=())
        with pytest.raises(ValueError):
            drift_samples(COSINE, math.nan, 0.0, 1.0, [1.0], dt=1e-2,
                          seeds=(1,))
        with pytest.raises(ValueError):
            drift_samples(COSINE, 0.05, 0.0, 1.0, [1.0, math.nan], dt=1e-2,
                          seeds=(1,))

    def test_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            drift_samples(COSINE, -0.1, 0.0, 1.0, [1.0], dt=1e-2, seeds=(1,))


class TestDoeblin:
    BOX = (math.pi - 1.0, math.pi + 1.0, -2.0, 2.0)

    @staticmethod
    def _hits(process, x, u, box, t, seeds, y0=1):
        # One recording stride spanning t, as the doeblin kind runs.
        paths = _replica_paths(COSINE, process, x, u, t, seeds, y0=y0,
                               record_every=round(t / 1e-3))
        return doeblin_hits(paths, box)

    def test_full_box_and_unreachable_box(self):
        seeds = derive_replica_seeds(2, 50)
        for process in ("diffusion", "pdmp"):
            full = self._hits(process, 0.0, 0.0,
                              (0.0, TWO_PI - 1e-9, -50.0, 50.0), 5.0, seeds)
            assert full == 50
            none = self._hits(process, 0.0, 0.0, (1.0, 1.5, 40.0, 41.0), 5.0,
                              seeds)
            assert none == 0

    def test_min_probability_positive_on_grid(self):
        starts = [(x, u)
                  for x in np.linspace(0.0, TWO_PI, 4, endpoint=False)
                  for u in (-2.0, 2.0)]
        hits = [self._hits("diffusion", x, u, self.BOX, 20.0,
                           derive_replica_seeds(i + 1, 150))
                for i, (x, u) in enumerate(starts)]
        assert min(hits) > 0

    def test_pdmp_process(self):
        for i, (x, u, y) in enumerate([(0.0, -1.0, 1), (math.pi, 1.0, -1)]):
            hits = self._hits("pdmp", x, u, self.BOX, 20.0,
                              derive_replica_seeds(i + 1, 60), y0=y)
            assert hits > 0
