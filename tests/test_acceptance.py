"""End-to-end acceptance battery.

Ten numbered criteria cover the laboratory's headline claims: landscape
geometry closed forms, exactness of the event-clock sampler, the
deterministic hitting-time floor, escape-probability bounds, trap
localization, occupation-measure stability, the exponential drift
contraction, the steering planners, first-order discretization refinement,
and bit-exact reproducibility.  Each test asserts its criterion at the
stated tolerance and records one ``[PASS]/[FAIL]`` line (replayed in the
terminal summary by conftest.py).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from circlelab import (
    DiffusionState,
    PdmpState,
    PeriodicPotential,
    PlanningError,
    UnreachableTargetError,
    circle_dist,
    classify_landscape,
    compute_level_geometry,
    derive_replica_seed,
    find_critical_points,
    generator_from_seed,
    integrate_diffusion_control,
    integrate_velocity_schedule,
    jump_time_cdf_oracle,
    plan_diffusion_control,
    plan_pdmp_velocity_schedule,
    read_json,
    replay,
    run_scenario,
    sample_landscape_time,
    sample_next_event,
    scenario_from_dict,
    simulate_pdmp,
    simulate_pdmp_driven,
)

TWO_PI = 2.0 * math.pi
COSINE = PeriodicPotential(0.0, ((1, 1.0, 0.0),))
MIXTURE = PeriodicPotential(-0.2, ((1, 1.0, 0.0), (2, 1.0, 0.0)))
COSINE_RECORD = {"a0": 0.0, "harmonics": [[1, 1.0, 0.0]]}
MIXTURE_RECORD = {"a0": -0.2, "harmonics": [[1, 1.0, 0.0], [2, 1.0, 0.0]]}

pytestmark = pytest.mark.acceptance


def _cdf_from_grid(grid, values):
    def cdf(s):
        return np.interp(s, grid, values, left=0.0, right=1.0)

    return cdf


def test_criterion_01_landscape_closed_forms(acceptance):
    t0 = time.perf_counter()
    errors = []

    # Pure cosine: critical points, empty trap set, level geometry.
    by_kind = {p.kind: p for p in find_critical_points(COSINE)}
    errors += [abs(by_kind["max"].x), abs(by_kind["max"].value - 1.0),
               abs(by_kind["min"].x - math.pi),
               abs(by_kind["min"].value + 1.0)]
    errors.append(0.0 if classify_landscape(COSINE).traps == () else 1.0)
    geom = compute_level_geometry(COSINE)
    lo, hi = geom.wells[0].interval
    mids = sorted(geom.wells[0].mid_points)
    errors += [abs(geom.delta - 1.0 / 3.0),
               abs(lo - math.acos(-1.0 / 3.0)),
               abs(hi - (TWO_PI - math.acos(-1.0 / 3.0))),
               abs(mids[0] - math.acos(-2.0 / 3.0)),
               abs(mids[1] - (TWO_PI - math.acos(-2.0 / 3.0)))]

    # Two-harmonic mixture: four critical points, one trap, level margin.
    x_min = math.acos(-0.25)
    pts = sorted(find_critical_points(MIXTURE), key=lambda p: p.x)
    expected = [(0.0, 1.8, "max"), (x_min, -1.325, "min"),
                (math.pi, -0.2, "max"), (TWO_PI - x_min, -1.325, "min")]
    errors.append(0.0 if len(pts) == 4 else 1.0)
    for p, (x_ref, v_ref, kind) in zip(pts, expected):
        errors += [circle_dist(p.x, x_ref), abs(p.value - v_ref),
                   0.0 if p.kind == kind else 1.0]
    traps = classify_landscape(MIXTURE).trap_positions()
    errors += [0.0 if len(traps) == 1 else 1.0,
               abs(traps[0] - math.pi)]
    errors.append(abs(compute_level_geometry(MIXTURE).delta - 1.325 / 3.0))

    worst = max(errors)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    acceptance(1, ok,
               f"landscape closed forms: worst |error| {worst:.1e} "
               f"(tol 1e-8) over both reference potentials; "
               f"{elapsed:.2f}s (< 1s)")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_02_event_clock_matches_oracle(acceptance):
    t0 = time.perf_counter()
    n = 100_000

    # (a) Silent landscape clock: from (0, 0, +1) on the cosine potential
    # the interaction rate is (-sin^2)_+ = 0, so events are Exp(lam).
    gen = generator_from_seed(20260201)
    state = PdmpState(0.0, 0.0, 1)
    draws = np.array([sample_next_event(COSINE, 1.0, state, gen)[0]
                      for _ in range(n)])
    grid = np.linspace(1e-4, 16.0, 3200)
    oracle = jump_time_cdf_oracle(COSINE, 1.0, 0.0, 1, 0.0, grid)
    ks_const = sps.kstest(draws, _cdf_from_grid(grid, oracle)).statistic

    # (b) Pure landscape clock: drive 4 from the well bottom accumulates
    # hazard 4(1 - cos s) on each half turn.
    gen = generator_from_seed(20260202)
    raw = [sample_landscape_time(COSINE, math.pi, 1, gen, 4 * TWO_PI, g=4.0)
           for _ in range(n)]
    assert all(t is not None for t in raw)
    grid = np.linspace(1e-4, 4 * TWO_PI, 4000)
    oracle = jump_time_cdf_oracle(COSINE, 0.0, math.pi, 1, None, grid, g=4.0)
    ks_land = sps.kstest(np.array(raw, dtype=float),
                         _cdf_from_grid(grid, oracle)).statistic

    # (c) Piecewise mixed clock: drive 3 from pi/2 crosses the derivative
    # zero at pi, switching the rate from 0.25 to 0.25 + 3(-cos s)_+.
    # Survival beyond the horizon has mass exp(-7.5) ~ 5.5e-4; those few
    # first-jump draws are censored at 6.
    first = []
    for i in range(n):
        log = simulate_pdmp_driven(COSINE, 0.25, 3.0, math.pi / 2, 1, 6.0,
                                   seed=derive_replica_seed(20260203, i))
        first.append(float(log.times[1]) if log.n_jumps > 0 else 6.0)
    grid = np.linspace(1e-4, 6.0, 3000)
    oracle = jump_time_cdf_oracle(COSINE, 0.25, math.pi / 2, 1, None, grid,
                                  g=3.0)
    ks_piece = sps.kstest(first, _cdf_from_grid(grid, oracle)).statistic

    elapsed = time.perf_counter() - t0
    ok = max(ks_const, ks_land, ks_piece) < 0.02 and elapsed < 60.0
    acceptance(2, ok,
               f"event clock vs oracle at n=1e5: KS constant-rate "
               f"{ks_const:.4f}, landscape {ks_land:.4f}, piecewise "
               f"{ks_piece:.4f} (each < 0.02); {elapsed:.0f}s (< 60s)")
    assert ks_const < 0.02
    assert ks_land < 0.02
    assert ks_piece < 0.02
    assert elapsed < 60.0


def test_criterion_03_hitting_time_floor(acceptance):
    t0 = time.perf_counter()
    geom = compute_level_geometry(COSINE)
    floor_x = geom.wells[0].minimum.x
    n = 10_000
    violations = 0
    misses = 0
    ratios = []
    for j, frac in enumerate((0.25, 0.5, 1.0)):
        eta = frac * geom.delta
        sub = compute_level_geometry(COSINE, delta=geom.delta, eta=eta)
        target = sub.mid_level_set()
        bound = geom.kappa * math.sqrt(eta)
        t_min = math.inf
        for i in range(n):
            log = simulate_pdmp(COSINE, 1.0, PdmpState(floor_x, 0.0, 1),
                                200.0,
                                seed=derive_replica_seed(20260300 + j, i),
                                until=[target])
            if log.hit_time is None:
                misses += 1  # slower than the cap: floor holds trivially
                continue
            if log.hit_time < bound - 1e-12:
                violations += 1
            t_min = min(t_min, log.hit_time)
        ratios.append(t_min / bound)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and misses <= 0.01 * 3 * n and elapsed < 60.0
    acceptance(3, ok,
               f"hitting floor: 0 violations expected, got {violations} in "
               f"{3 * n} runs; min T over bound per level fraction "
               f"{[round(r, 3) for r in ratios]}; {misses} capped; "
               f"{elapsed:.0f}s (< 60s)")
    assert violations == 0
    assert misses <= 0.01 * 3 * n
    assert elapsed < 60.0


def test_criterion_04_escape_probability_bounds(acceptance, tmp_path):
    t0 = time.perf_counter()
    lam = 0.25
    eta = 1.0 / 3.0
    cfg = scenario_from_dict({
        "kind": "metastability", "process": "both", "lambda": lam,
        "potential": COSINE_RECORD, "dt": 5e-4, "horizon": 500.0,
        "replicas": 10_000, "x0": 0.0, "u0": 0.0, "y0": 1,
        "root_seed": 20260400,
        "options": {"eta": eta, "m_grid": [4.0, 8.0, 12.0, 16.0]},
    })
    run_scenario(cfg, out_dir=str(tmp_path / "metastability"))
    est = read_json(str(tmp_path / "metastability" / "estimates.json"))

    reference = {
        "diffusion": 8.0 * math.pi * 16.0 * 1.0 * math.exp(-2.0 * 16.0 * eta),
        "pdmp": math.exp(2.0 * lam * math.pi) * math.exp(-eta * 16.0),
    }
    ok = True
    details = []
    for process in ("diffusion", "pdmp"):
        block = est["per_process"][process]
        last = block["table"][-1]
        assert last["m"] == 16.0
        assert abs(last["bound"] - reference[process]) < 1e-9
        halfwidth = 0.5 * (last["wilson_high"] - last["wilson_low"])
        tail_ok = last["estimate"] <= last["bound"] + 3.0 * halfwidth
        ok = ok and tail_ok and block["nonincreasing_up_to_overlap"]
        details.append(
            f"{process}: qhat(16)={last['estimate']:.2e} <= "
            f"{last['bound']:.2e}+3x{halfwidth:.1e}, "
            f"monotone={block['nonincreasing_up_to_overlap']}")
    elapsed = time.perf_counter() - t0
    acceptance(4, ok,
               "escape bounds at 1e4 trials per level: "
               + "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok, est["per_process"]


def test_criterion_05_localization(acceptance, tmp_path):
    t0 = time.perf_counter()
    cfg = scenario_from_dict({
        "kind": "localization", "process": "both", "lambda": 1.0,
        "potential": MIXTURE_RECORD, "dt": 1e-3, "horizon": 2000.0,
        "replicas": 200, "x0": 1.0, "u0": 30.0, "y0": 1,
        "root_seed": 20260500,
        "options": {"save_paths": 0},
    })
    run_scenario(cfg, out_dir=str(tmp_path / "localization"))
    est = read_json(str(tmp_path / "localization" / "estimates.json"))
    # Locked means: terminal distance to the trap < 0.15, interaction
    # below -100, and the trailing-window monitor settles on the trap.
    fractions = {p: est["per_process"][p]["fraction_locked"]
                 for p in ("diffusion", "pdmp")}
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.9 for f in fractions.values())
    acceptance(5, ok,
               f"localization at the trap: locked fraction diffusion "
               f"{fractions['diffusion']:.3f}, velocity-jump "
               f"{fractions['pdmp']:.3f} (each >= 0.9, 200 replicas); "
               f"{elapsed:.0f}s")
    assert ok, est["per_process"]


def test_criterion_06_occupation_stability(acceptance, tmp_path):
    t0 = time.perf_counter()
    cfg = scenario_from_dict({
        "kind": "ergodic", "process": "both", "lambda": 0.25,
        "potential": COSINE_RECORD, "dt": 1e-3, "horizon": 5000.0,
        "replicas": 2, "x0": 1.0, "u0": 0.0, "y0": 1, "root_seed": 2026,
        "options": {"record_every": 10, "save_paths": 0, "burn_in": 500.0},
    })
    run_scenario(cfg, out_dir=str(tmp_path / "ergodic"))
    est = read_json(str(tmp_path / "ergodic" / "estimates.json"))
    ok = True
    details = []
    for process in ("diffusion", "pdmp"):
        block = est["per_process"][process]
        pair = block["tv_replica_pairs"][0]
        half = block["tv_halves"][0]
        ok = ok and pair < 0.1 and half < 0.1
        details.append(f"{process}: replica-pair TV {pair:.3f}, "
                       f"first/second-half TV {half:.3f}")
    elapsed = time.perf_counter() - t0
    acceptance(6, ok,
               "occupation stability (each TV < 0.1 on the 64x40 grid): "
               + "; ".join(details) + f"; {elapsed:.0f}s")
    # Known shortfall: the velocity-jump halves statistic sits at its
    # sampling noise floor.  Between flips the position sweeps whole laps
    # at unit speed, so a half-window's joint histogram is an average of
    # ~350 near-uniform position rows indexed by a slowly varying
    # interaction level; the effective sample size is the number of
    # independent arcs, and the resulting TV noise floor measures
    # 0.105-0.15 across switching rates in [0.05, 10] and seeds, above
    # the 0.1 target.  Both replica-pair comparisons and the diffusion
    # halves pass with margin.
    assert ok, est["per_process"]


def test_criterion_07_drift_contraction(acceptance, tmp_path):
    t0 = time.perf_counter()
    cfg = scenario_from_dict({
        "kind": "drift", "process": "diffusion", "dt": 2e-3,
        "potential": COSINE_RECORD, "horizon": 200.0, "replicas": 10_000,
        "x0": 1.0, "u0": 0.0, "root_seed": 20260700,
        "options": {"kappa": 0.05, "u0_grid": [20.0, 40.0, 60.0],
                    "t_grid": [50.0, 100.0, 200.0]},
    })
    run_scenario(cfg, out_dir=str(tmp_path / "drift"))
    est = read_json(str(tmp_path / "drift" / "estimates.json"))
    rows = est["per_t"]
    monotone = all(row["nonincreasing_to_2se"] for row in rows)
    ok = est["passes_some_t"] and monotone
    summary = "; ".join(
        f"t={row['t']:.0f}: ratios "
        f"{[round(c['ratio'], 3) for c in row['cells']]}" for row in rows)
    elapsed = time.perf_counter() - t0
    acceptance(7, ok,
               f"drift contraction (ratio <= 0.75 at u0=60 for some t, "
               f"nonincreasing in u0 to 2 SE): {summary}; {elapsed:.0f}s")
    assert est["passes_some_t"], rows
    assert monotone, rows


def test_criterion_08_steering_planners(acceptance):
    t0 = time.perf_counter()
    gen = generator_from_seed(20260800)
    worst_diffusion = 0.0
    worst_pdmp = 0.0

    def random_target(pot):
        x0 = float(gen.uniform(0.0, TWO_PI))
        u0 = float(gen.uniform(-2.0, 2.0))
        t = float(gen.uniform(10.0, 16.0))
        c = float(gen.uniform(-0.4, 0.4))
        slope = c * (pot.max_value if c >= 0.0 else -pot.min_value)
        x1 = float(gen.uniform(0.0, TWO_PI))
        return x0, u0, x1, u0 + t * slope, t

    # A target is reachable when the planner can realize it within the
    # drawn horizon; draws the planner proves too tight are redrawn (they
    # must stay rare, or the sampler would be degenerate).
    too_tight = 0
    landed = 0
    while landed < 20:
        pot = COSINE if landed % 2 == 0 else MIXTURE
        x0, u0, x1, u1, t = random_target(pot)
        try:
            sched = plan_diffusion_control(pot, DiffusionState(x0, u0),
                                           DiffusionState(x1, u1), t,
                                           epsilon=0.01)
        except PlanningError:
            too_tight += 1
            assert too_tight <= 5
            continue
        end = integrate_diffusion_control(pot, sched, DiffusionState(x0, u0))
        assert circle_dist(end.x, x1) < 1e-9
        worst_diffusion = max(worst_diffusion, abs(end.u - u1))
        landed += 1

    landed = 0
    while landed < 20:
        pot = COSINE if landed % 2 == 0 else MIXTURE
        x0, u0, x1, u1, t = random_target(pot)
        y0 = 1 if gen.uniform() < 0.5 else -1
        y1 = 1 if gen.uniform() < 0.5 else -1
        z0 = PdmpState(x0, u0, y0)
        try:
            sched = plan_pdmp_velocity_schedule(pot, z0,
                                                PdmpState(x1, u1, y1), t,
                                                switch_rate=1000.0)
        except PlanningError:
            too_tight += 1
            assert too_tight <= 5
            continue
        end = integrate_velocity_schedule(pot, sched, z0)
        assert circle_dist(end.x, x1) < 1e-9
        worst_pdmp = max(worst_pdmp, abs(end.u - u1))
        landed += 1

    # Rejection exactly on the open-interval support condition: the
    # endpoints u0 + t min F and u0 + t max F are excluded, anything
    # beyond is excluded, and interior targets never raise the
    # unreachable error (a tight horizon may still be unplannable).
    rejected = 0
    for pot in (COSINE, MIXTURE):
        t = 10.0
        for planner, z0 in (
                (lambda *a, **k: plan_diffusion_control(*a, **k),
                 DiffusionState(1.0, 0.0)),
                (lambda *a, **k: plan_pdmp_velocity_schedule(*a, **k),
                 PdmpState(1.0, 0.0, 1))):
            make = (DiffusionState if isinstance(z0, DiffusionState)
                    else lambda x, u: PdmpState(x, u, 1))
            for bad in (t * pot.max_value, t * pot.min_value,
                        t * pot.max_value + 0.5, t * pot.min_value - 0.5):
                with pytest.raises(UnreachableTargetError):
                    planner(pot, z0, make(2.0, bad), t)
                rejected += 1
            try:
                planner(pot, z0, make(2.0, 0.98 * t * pot.max_value), t)
            except UnreachableTargetError:
                pytest.fail("interior target misclassified as unreachable")
            except PlanningError:
                pass  # inside the support; horizon just too tight to plan

    elapsed = time.perf_counter() - t0
    ok = worst_diffusion <= 0.05 and worst_pdmp <= 0.02 and elapsed < 10.0
    acceptance(8, ok,
               f"planners on 20 random targets each: worst |u error| "
               f"diffusion {worst_diffusion:.4f} (<= 0.05), velocity-jump "
               f"{worst_pdmp:.4f} (<= 0.02), exact landing, {rejected} "
               f"boundary/exterior targets rejected; {elapsed:.1f}s (< 10s)")
    assert worst_diffusion <= 0.05
    assert worst_pdmp <= 0.02
    assert elapsed < 10.0


def test_criterion_09_discretization_refinement(acceptance, tmp_path):
    t0 = time.perf_counter()
    # Contractive picket: from (pi, 60) the interaction stays above ~10
    # for the whole run, pinning the position near the well bottom, so
    # trajectories at nested step sizes remain synchronized and the
    # first-order error in E[U_50] is measurable above the noise.  The
    # refinement kind gives replica i the seed splitmix64(20260900, i) and
    # runs the levels 4 dt, 2 dt and dt coupled on one Brownian path per
    # replica, one replica chunk per worker.
    cfg = scenario_from_dict({
        "kind": "refinement", "potential": COSINE_RECORD, "horizon": 50.0,
        "replicas": 10_000, "x0": math.pi, "u0": 60.0,
        "root_seed": 20260900, "dt": 1e-3,
    })
    run_scenario(cfg, out_dir=str(tmp_path / "refinement"))
    est = read_json(str(tmp_path / "refinement" / "estimates.json"))
    d1, d2 = est["differences"]
    ratio = est["ratios"][0]
    elapsed = time.perf_counter() - t0
    ok = 1.5 <= ratio <= 3.0
    acceptance(9, ok,
               f"step-halving refinement of E[U_50]: differences "
               f"{d1['mean']:.5f} (se {d1['std_error']:.1e}) and "
               f"{d2['mean']:.5f} (se {d2['std_error']:.1e}), ratio "
               f"{ratio:.2f} in [1.5, 3.0]; {elapsed:.0f}s")
    assert 1.5 <= ratio <= 3.0


def test_criterion_10_determinism_and_parallelism(acceptance, tmp_path,
                                                  monkeypatch):
    t0 = time.perf_counter()
    spec = {
        "kind": "doeblin", "process": "diffusion", "dt": 1e-3,
        "potential": COSINE_RECORD, "horizon": 2.0, "replicas": 128,
        "x0": 0.0, "u0": 0.0, "root_seed": 20261000,
        "options": {"grid_points": 16},
    }
    monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
    man1 = run_scenario(scenario_from_dict(spec), out_dir=str(tmp_path / "w1"))
    monkeypatch.setenv("CIRCLELAB_WORKERS", "8")
    man8 = run_scenario(scenario_from_dict(spec), out_dir=str(tmp_path / "w8"))
    same_files = man1.files == man8.files
    identical, report = replay(str(tmp_path / "w1" / "manifest.json"),
                               work_dir=str(tmp_path / "replayed"))
    elapsed = time.perf_counter() - t0
    ok = (same_files and identical and man1.workers_used == 1
          and man8.workers_used == 8 and elapsed < 60.0)
    acceptance(10, ok,
               f"determinism: 1-worker vs 8-worker runs hash-identical "
               f"({len(man1.files)} files over {man1.n_tasks} tasks) and "
               f"replay reproduces every hash; {elapsed:.0f}s (< 60s)")
    assert same_files
    assert identical, report
    assert man1.workers_used == 1 and man8.workers_used == 8
    assert elapsed < 60.0
