"""Estimators over trajectories and event logs.

The estimators here turn simulation output into the quantities the rest
of the package reasons about: occupation histograms and total-variation
distances between them, Wilson intervals and the explicit escape bounds,
convergence detection toward trap points, and the per-chunk cores of the
scenario estimators.  Doeblin box hits and hitting times are counted over
paths the caller simulated, one per replica.  Escape trials and
exponential drift moments run simulators of their own (frozen-drive
exits, and one recording per drift mark), so they take the seeds of
their replicas explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .angles import TWO_PI, ArcSet, circle_dist, wrap
from .diffusion import (
    EnsembleTrajectories,
    Trajectory,
    _seed_tuple,
    _simulate_recorded,
    _validate_grid,
    run_exit_trials,
)
from .errors import BinMismatchError
from .landscape import CriticalLandscape, LevelGeometry
from .pdmp import EventLog, segment_u, simulate_pdmp_driven
from .potential import PeriodicPotential

__all__ = [
    "DEFAULT_X_BINS",
    "DEFAULT_U_BINS",
    "DEFAULT_U_RANGE",
    "EmpiricalHistogram",
    "wilson_interval",
    "occupation_histogram",
    "occupation_histograms",
    "tv_distance",
    "escape_hits",
    "escape_bound",
    "detect_convergence",
    "drift_samples",
    "doeblin_hits",
    "hitting_times",
]

DEFAULT_X_BINS = 64
DEFAULT_U_BINS = 40
DEFAULT_U_RANGE = (-12.0, 12.0)

_Z95 = 1.959963984540054

# Event-log binning works on blocks of whole segments holding about this
# many slices, which bounds its temporary arrays.
_SLICE_BLOCK = 8192


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z = _Z95
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                   + z2 / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Normalized time-occupation histogram on (x, u) with u overflow bins.

    The u axis has n_u interior bins on [u_lo, u_hi] plus an underflow
    column (index 0) and an overflow column (index n_u + 1).  `weight` is
    the total time mass that was binned, so histograms merge by weighted
    average and the merge is associative and mass-preserving.
    """

    x_edges: np.ndarray
    u_edges: np.ndarray
    masses: np.ndarray
    weight: float

    def __post_init__(self):
        xe = np.asarray(self.x_edges, dtype=float)
        ue = np.asarray(self.u_edges, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if m.shape != (xe.size - 1, ue.size + 1):
            raise ValueError("masses must have shape (n_x, n_u + 2)")
        if np.any(m < -1e-15):
            raise ValueError("masses must be nonnegative")
        for arr in (xe, ue, m):
            arr.flags.writeable = False
        object.__setattr__(self, "x_edges", xe)
        object.__setattr__(self, "u_edges", ue)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def n_x(self) -> int:
        return int(self.x_edges.size - 1)

    @property
    def n_u(self) -> int:
        return int(self.u_edges.size - 1)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def x_marginal(self) -> np.ndarray:
        return self.masses.sum(axis=1)

    def u_marginal(self) -> np.ndarray:
        return self.masses.sum(axis=0)

    def merge(self, other: "EmpiricalHistogram") -> "EmpiricalHistogram":
        """Weighted average of two normalized histograms."""
        _check_same_bins(self, other)
        w = self.weight + other.weight
        if w <= 0.0:
            raise ValueError("cannot merge two zero-weight histograms")
        m = (self.weight * self.masses + other.weight * other.masses) / w
        return EmpiricalHistogram(self.x_edges, self.u_edges, m, w)


def _check_same_bins(h1: EmpiricalHistogram, h2: EmpiricalHistogram):
    if (h1.masses.shape != h2.masses.shape
            or not np.array_equal(h1.x_edges, h2.x_edges)
            or not np.array_equal(h1.u_edges, h2.u_edges)):
        raise BinMismatchError("histograms use different bin structures")


def _bin_u(u, u_edges):
    """u column index with under/overflow at 0 and n_u + 1."""
    n_u = u_edges.size - 1
    idx = np.searchsorted(u_edges, u, side="right")
    return np.clip(idx, 0, n_u + 1)


def _bin_x(x, n_x):
    idx = np.floor(wrap(np.asarray(x, dtype=float)) / TWO_PI * n_x).astype(int)
    return np.clip(idx, 0, n_x - 1)


def _accumulate(counts, x, u, x_edges, u_edges, weights):
    n_x = x_edges.size - 1
    xi = _bin_x(x, n_x)
    ui = _bin_u(u, u_edges)
    np.add.at(counts, (xi, ui), weights)


def occupation_histogram(path, *, x_bins: int = DEFAULT_X_BINS,
                         burn_in: float = 0.0,
                         t_max: float = math.inf) -> EmpiricalHistogram:
    """Time-weighted occupation histogram of a path on (x, u).

    The u axis has DEFAULT_U_BINS bins over DEFAULT_U_RANGE plus an
    underflow and an overflow column.
    Only the time window [burn_in, t_max] contributes; a NaN bound raises
    ValueError.  Diffusion trajectories contribute their recorded samples
    with equal weights (an ensemble's replicas in order).  Event logs are
    unit-speed between events, so the segments inside the window are
    split exactly at the x-bin boundaries they sweep, all at once with
    array operations: every slice carries its exact duration and is
    binned in u at its midpoint, by the closed-form segment integral of F
    (for driven logs, at the segment's recorded drive value).  A segment
    that straddles burn_in is cut at it.  The masses do not depend on how
    the segments are grouped for the array work: slices are added in
    segment-then-slice order.  This is the one-window case of
    `occupation_histograms`.
    """
    return occupation_histograms(path, [(burn_in, t_max)], x_bins=x_bins)[0]


def occupation_histograms(path, windows: Sequence[Tuple[float, float]], *,
                          x_bins: int = DEFAULT_X_BINS
                          ) -> List[EmpiricalHistogram]:
    """`occupation_histogram` of each (burn_in, t_max) window, in order,
    each bitwise equal to its one-window result.

    An event log is sliced once: each segment inside the windows' hull is
    split into (bin, duration) slices.  A window then adds the slices of
    the segments wholly inside it, in order, after a re-slice of the
    segment it cuts at burn_in and before one of the segment it cuts at
    t_max, so every bin sums the same slices in the same order.
    """
    windows = [(float(lo), float(hi)) for lo, hi in windows]
    for lo, hi in windows:
        if math.isnan(lo):
            raise ValueError("burn_in must not be NaN")
        if math.isnan(hi):
            raise ValueError("t_max must not be NaN")
    x_edges = np.linspace(0.0, TWO_PI, int(x_bins) + 1)
    u_edges = np.linspace(*DEFAULT_U_RANGE, DEFAULT_U_BINS + 1)
    shape = (x_edges.size - 1, u_edges.size + 1)

    if isinstance(path, (Trajectory, EnsembleTrajectories)):
        masses = []
        for lo, hi in windows:
            keep = (path.times >= lo) & (path.times <= hi)
            if not np.any(keep):
                raise ValueError("no samples in [burn_in, t_max]")
            counts = np.zeros(shape)
            _accumulate(counts, path.x[..., keep], path.u[..., keep],
                        x_edges, u_edges, 1.0)
            masses.append(counts)
    elif isinstance(path, EventLog):
        masses = _event_log_counts(path, shape, u_edges, windows)
    else:
        raise TypeError("path must be a Trajectory, EnsembleTrajectories, "
                        "or EventLog")
    out = []
    for counts in masses:
        total = counts.sum()
        if total <= 0.0:
            raise ValueError("path contributed no occupation mass")
        out.append(EmpiricalHistogram(x_edges, u_edges, counts / total,
                                      float(total)))
    return out


def _event_log_counts(log, shape, u_edges, windows):
    """Unnormalized masses of an event log in each window (see
    `occupation_histograms`)."""
    times = log.times
    # Window j holds the segments spans[j][0] .. spans[j][1] (none if the
    # first exceeds the last): those that end after lo and start before hi.
    spans = [(int(np.searchsorted(times[1:], lo, side="right")),
              int(np.searchsorted(times[:-1], hi, side="left")) - 1)
             for lo, hi in windows]
    used = [span for span in spans if span[0] <= span[1]]
    if used:
        first = min(a for a, _ in used)
        last = max(b for _, b in used)
        flat, durations, n = _slice_segments(
            log, shape, u_edges, first, last, -math.inf, math.inf)
        # Slices of segment first + i are offset[i] .. offset[i + 1].
        offset = np.concatenate(([0], np.cumsum(n)))
    out = []
    for (lo, hi), (a, b) in zip(windows, spans):
        counts = np.zeros(shape)
        out.append(counts)
        if a > b:
            continue
        bins = counts.reshape(-1)
        cut_lo = bool(times[a] < lo)
        cut_hi = bool(times[b + 1] > hi)
        if cut_lo or (cut_hi and a == b):
            # Segment a, cut at lo, and at hi too if it is the last.
            np.add.at(bins, *_slice_segments(log, shape, u_edges, a, a,
                                             lo, hi)[:2])
        i, j = offset[a + cut_lo - first], offset[b + 1 - cut_hi - first]
        np.add.at(bins, flat[i:j], durations[i:j])
        if cut_hi and b > a:
            np.add.at(bins, *_slice_segments(log, shape, u_edges, b, b,
                                             lo, hi)[:2])
    return out


def _slice_segments(log, shape, u_edges, first, last, burn_in, t_max):
    """(flat bin index, duration) of every slice of the log's segments
    first .. last inside [burn_in, t_max], in order, and the slice count
    of each segment.

    The first segment is cut at burn_in if it straddles it, and every
    segment at t_max.  Blocks of whole segments with about _SLICE_BLOCK
    slices bound the temporary arrays.
    """
    potential = log.potential
    driven = log.kind != "self"
    rows = slice(first, last + 1)
    t0 = log.times[rows].copy()
    x0 = log.x[rows].copy()
    u0 = log.u[rows].copy()
    y = log.y[rows].astype(float)
    if t0[0] < burn_in:
        # Only the first segment can straddle the burn-in boundary;
        # advance its start to the boundary.
        shift = burn_in - float(t0[0])
        if not driven:
            u0[0] = segment_u(potential, float(x0[0]), int(y[0]), shift,
                              float(u0[0]))
        x0[0] = wrap(float(x0[0]) + y[0] * shift)
        t0[0] = burn_in
    length = np.minimum(log.times[first + 1:last + 2], t_max) - t0
    live = length > 0.0
    n = np.zeros(length.size, dtype=np.int64)
    if not np.all(live):
        x0, u0, y, length = x0[live], u0[live], y[live], length[live]
    bin_width = TWO_PI / shape[0]
    # A segment of length L crosses at most L / bin_width + 1 bin edges.
    n_slices = length / bin_width + 2.0
    block = (np.cumsum(n_slices) - n_slices) // _SLICE_BLOCK
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(block)) + 1,
                           [block.size]))
    parts = [_bin_segments(shape, potential, u_edges, x0[a:b], u0[a:b],
                           y[a:b], length[a:b], driven)
             for a, b in zip(cuts[:-1], cuts[1:])]
    flat, durations, n[live] = (np.concatenate(p) for p in zip(*parts))
    return flat, durations, n


def _bin_segments(shape, potential, u_edges, x0, u0, y, length, driven):
    """Split segments at the x-bin edges they cross and bin the slices:
    (flat bin index, duration) of each slice, in order, and the slice
    count of each segment.

    Unit speed makes arc length equal time, so each slice carries its
    exact duration.  Classifying a slice by its midpoint keeps the
    allocation robust at the edges.  Slices of driven logs take the
    recorded drive value.
    """
    n_x = shape[0]
    bin_width = TWO_PI / n_x
    m = x0.size
    end = x0 + y * length
    k_lo = np.ceil(np.minimum(x0, end) / bin_width)
    k_hi = np.floor(np.maximum(x0, end) / bin_width)
    n_cand = np.maximum(k_hi - k_lo + 1.0, 0.0).astype(np.int64)
    seg = np.repeat(np.arange(m), n_cand)
    j = np.arange(seg.size) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
    # Edges in order of travel, so crossing times come out ascending
    # within each segment.
    k = np.where(y[seg] > 0.0, k_lo[seg] + j, k_hi[seg] - j)
    s = y[seg] * (k * bin_width - x0[seg])
    keep = (s > 1e-14) & (s < length[seg] - 1e-14)
    s, seg = s[keep], seg[keep]
    n_cross = np.bincount(seg, minlength=m)
    # Segment i owns slices i + C_i .. i + C_i + n_cross[i], where C_i
    # counts the crossings of earlier segments; crossing q ends slice
    # q + seg[q] and starts the next one.
    q = np.arange(s.size)
    lo = np.zeros(m + s.size)
    hi = np.empty(m + s.size)
    lo[q + seg + 1] = s
    hi[q + seg] = s
    hi[np.cumsum(n_cross) + np.arange(m)] = length
    sid = np.repeat(np.arange(m), n_cross + 1)
    durations = hi - lo
    mids = 0.5 * (lo + hi)
    x_mid = x0[sid] + y[sid] * mids
    xi = _bin_x(x_mid, n_x)
    if driven:
        u_mid = u0[sid]
    else:
        g0 = potential.antiderivative(x0)
        u_mid = u0[sid] + y[sid] * (potential.antiderivative(x_mid) - g0[sid])
    ui = _bin_u(u_mid, u_edges)
    return xi * shape[1] + ui, durations, n_cross + 1


def tv_distance(h1: EmpiricalHistogram, h2: EmpiricalHistogram) -> float:
    """Total-variation distance: half the L1 gap on the shared bins."""
    _check_same_bins(h1, h2)
    return 0.5 * float(np.abs(h1.masses - h2.masses).sum())


def escape_bound(process: str, potential: PeriodicPotential, M: float,
                 eta: float, lam: Optional[float] = None) -> float:
    """Explicit escape-probability bound K(M) e^{-c eta M} per process."""
    if process == "diffusion":
        return 8.0 * math.pi * M * potential.sup_abs_derivative() \
            * math.exp(-2.0 * M * eta)
    if process == "pdmp":
        if lam is None:
            raise ValueError("the pdmp bound needs lam")
        return math.exp(2.0 * lam * math.pi) * math.exp(-eta * M)
    raise ValueError("process must be 'diffusion' or 'pdmp'")


def escape_hits(potential: PeriodicPotential, geometry: LevelGeometry,
                M: float, process: str, *, seeds: Sequence[int], first: int,
                lam: float, dt: float, max_time: float) -> Tuple[int, int]:
    """(escapes, censored) of frozen-drive (g = M) replicas started from
    the mid-level points of `geometry`.

    The start configurations are the (well, side) pairs in order, left
    side first.  The replica with index first + j and seed seeds[j] takes
    configuration (first + j) mod their number, so a cell's replicas are
    stratified over them and each outcome depends only on the replica's
    index and seed.  A replica runs until it first hits the well minimum
    or the escape-region boundary on its side; the velocity-jump variant
    (rate lam) starts with the velocity pointing away from the minimum,
    the diffusion uses step dt and runs all the replicas as one batch of
    exit trials, each on its own arc.  Censored replicas count as
    non-escapes.
    """
    configs = [(side, well.minimum.x, mid, edge) for well in geometry.wells
               for side, mid, edge in zip((-1, 1), well.mid_points,
                                          well.inner_interval)]
    n = len(configs)
    seeds = _seed_tuple(seeds)
    successes = 0
    censored = 0
    if process == "diffusion":
        side, x_star, b, c = np.array(
            [configs[(first + j) % n] for j in range(len(seeds))]).T
        up = side == 1
        res = run_exit_trials(potential, M, np.where(up, x_star, c), b,
                              np.where(up, c, x_star), seeds=seeds, dt=dt,
                              max_time=max_time)
        successes = int(np.count_nonzero(res.exit_side == side))
        censored = res.n_censored
    elif process == "pdmp":
        until = [geometry.escape_region(), geometry.floor_set()]
        for j, seed in enumerate(seeds):
            side, _, b, _ = configs[(first + j) % n]
            log = simulate_pdmp_driven(potential, lam, float(M),
                                       float(wrap(b)), side, max_time,
                                       seed=seed, until=until)
            if log.hit_time is None:
                censored += 1
            elif log.hit_target == 0:
                successes += 1
    else:
        raise ValueError("process must be 'diffusion' or 'pdmp'")
    return successes, censored


def _tail_heavy(exp_values: np.ndarray) -> bool:
    """True when the top 1% of terms carries over half the estimate."""
    n = exp_values.size
    k = max(1, int(math.ceil(0.01 * n)))
    top = np.sort(exp_values)[-k:]
    total = exp_values.sum()
    return bool(total > 0.0 and top.sum() > 0.5 * total)


def detect_convergence(path, landscape: CriticalLandscape, window: float,
                       eps: float) -> Optional[float]:
    """Trap point the path is locked onto over its trailing window, if any.

    Returns x* from the trap set when every recorded state in the last
    `window` of time stays within eps of x* and |u| grows monotonically
    in the direction sign(F(x*)); returns None otherwise (always None
    when the trap set is empty).
    """
    traps = landscape.traps
    if not traps:
        return None
    times = path.times
    span = float(times[-1])
    if window <= 0.0 or window > span + 1e-12:
        raise ValueError("window must be positive and within the path span")
    i0 = int(np.searchsorted(times, span - window, side="left"))
    i0 = min(i0, times.size - 1)
    x_win = np.asarray(path.x[i0:], dtype=float)
    u_win = np.asarray(path.u[i0:], dtype=float)
    for trap in traps:
        x_star = trap.x
        if np.max(circle_dist(x_win, x_star)) >= eps:
            continue
        direction = 1.0 if trap.value > 0.0 else -1.0
        signed = direction * u_win
        if signed.size >= 2 and np.all(np.diff(signed) >= -1e-12) \
                and signed[-1] > signed[0]:
            return float(x_star)
    return None


def drift_samples(potential: PeriodicPotential, kappa: float, x0: float,
                  u0: float, ts: Sequence[float], *, dt: float,
                  seeds: Sequence[int]) -> np.ndarray:
    """e^{kappa |U_t|} for each t in ts (rows) and each seed (columns).

    Every replica runs once, to the largest t, and U is read on the way at
    step round(t / dt), so row i is bitwise equal to the terminal values of
    a `simulate_diffusion_ensemble` run to ts[i] with the same seeds.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    seeds = _seed_tuple(seeds)
    steps = [_validate_grid(float(t), dt, 1) for t in ts]
    marks = np.unique(np.array([0] + steps, dtype=np.int64))
    _, u = _simulate_recorded(potential, x0, u0, marks, dt, seeds)
    u_t = u[:, np.searchsorted(marks, steps)].T
    return np.exp(kappa * np.abs(u_t))


def doeblin_hits(paths, box) -> int:
    """How many of the paths end in the box.

    `box` is (x_lo, x_hi, u_lo, u_hi), the x part read as a circular
    arc.  A path is a diffusion trajectory or a velocity-jump event log;
    its last row is its state at the horizon.
    """
    x_lo, x_hi, u_lo, u_hi = box
    arc = ArcSet.from_endpoints([(x_lo, x_hi)])
    return sum(1 for path in paths
               if arc.contains(path.x[-1]) and u_lo <= path.u[-1] <= u_hi)


def hitting_times(paths, target: ArcSet, cap: float
                  ) -> Tuple[List[float], List[bool]]:
    """First entry time into target of each path.

    Returns (values, censored), one entry per path: a path that has not
    entered by cap gets the value cap and censored True.  A velocity-jump
    event log, run with until=[target], carries its exact entry time; a
    diffusion trajectory's is the time of its first recorded row inside
    the target.
    """
    values = []
    censored = []
    for path in paths:
        if isinstance(path, EventLog):
            hit = path.hit_time
        else:
            rows = np.flatnonzero(target.indicator(path.x))
            hit = path.times[rows[0]] if rows.size else None
        values.append(cap if hit is None else float(hit))
        censored.append(hit is None)
    return values, censored
