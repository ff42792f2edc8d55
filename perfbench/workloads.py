"""Workload definitions: inputs drawn from the seed, one unit of work each,
and the output check that decides whether a unit's timing counts.

Scenario workloads build a scenario record and run it through
``circlelab.runner.run_scenario``; ``steer`` issues planner calls back to
back from one caller.  Every call into the package goes through a module
attribute looked up at call time (``circlelab.runner.run_scenario``,
``circlelab.control.plan_diffusion_control``, ...), so the tracer's
wrappers see exactly the calls a user's program makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time

import circlelab
import circlelab.control
import circlelab.runner

COSINE = {"a0": 0.0, "harmonics": [[1, 1.0, 0.0]]}
MIXTURE = {"a0": -0.2, "harmonics": [[1, 1.0, 0.0], [2, 1.0, 0.0]]}


# Localization at a shortened horizon.  u falls from 30 to about -40 by
# t = 200 (the slowest velocity-jump replicas reach about -25), and the
# trailing 50-unit lock window starts near u = -30.  Excursions around the
# trap there are wider than the 0.15 default tolerance, which suits a
# 2000-unit run, so the lock radius is 0.5: still well inside the 1.32
# gap to the nearest other critical point of the mixture potential.
# At t = 150 about 10 % of velocity-jump replicas had not yet settled.
LOCALIZE_HORIZON = 200.0
LOCALIZE_U_THRESHOLD = -20.0
LOCALIZE_TOLERANCE = 0.5

DRIFT_T_GRID = (5.0, 10.0)
DRIFT_U0_GRID = (20.0, 40.0, 60.0)

STEER_PLANS = 20          # per process
STEER_MAX_TOO_TIGHT = 5   # redraws allowed, as in acceptance criterion 8
STEER_U_TOL = {"diffusion": 0.05, "pdmp": 0.02}
LANDING_TOL = 1e-9


def scenario_record(name: str, seed: int, tiny: bool = False) -> dict:
    """Scenario record for a scenario workload; `tiny` shrinks replica
    counts for the harness self-test."""
    if name == "localize":
        return {"kind": "localization", "process": "both", "lambda": 1.0,
                "potential": MIXTURE, "dt": 1e-3,
                "horizon": LOCALIZE_HORIZON,
                "replicas": 16 if tiny else 128,
                "x0": 1.0, "u0": 30.0, "y0": 1, "root_seed": seed,
                "options": {"u_threshold": LOCALIZE_U_THRESHOLD,
                            "tolerance": LOCALIZE_TOLERANCE}}
    if name == "drift-wide":
        # 4096 replicas make every chunk 256 wide (16 chunks per cell).
        return {"kind": "drift", "process": "diffusion", "dt": 2e-3,
                "potential": COSINE, "horizon": max(DRIFT_T_GRID),
                "replicas": 64 if tiny else 4096,
                "x0": 1.0, "u0": 0.0, "root_seed": seed,
                "options": {"kappa": 0.05, "u0_grid": list(DRIFT_U0_GRID),
                            "t_grid": list(DRIFT_T_GRID)}}
    if name == "ergodic-pdmp":
        return {"kind": "ergodic", "process": "pdmp", "lambda": 0.25,
                "potential": COSINE, "dt": 1e-3,
                "horizon": 5000.0 if tiny else 10000.0,
                "replicas": 2 if tiny else 4,
                "x0": 1.0, "u0": 0.0, "y0": 1, "root_seed": seed}
    raise KeyError(name)


def replica_time(name: str, record: dict) -> float:
    """Replica-time a scenario run delivers: replicas x horizon, or x t."""
    if name == "drift-wide":
        opts = record["options"]
        return record["replicas"] * len(opts["u0_grid"]) * sum(opts["t_grid"])
    n_proc = 2 if record["process"] == "both" else 1
    return n_proc * record["replicas"] * record["horizon"]


def needed_replica_time(name: str, record: dict) -> float:
    """Replica-time the estimates need: each drift replica once to max t."""
    if name == "drift-wide":
        opts = record["options"]
        return record["replicas"] * len(opts["u0_grid"]) * max(opts["t_grid"])
    return replica_time(name, record)


def check_estimates(name: str, est: dict) -> list:
    """Reasons the estimates are wrong; empty when the check passes."""
    bad = []
    if est.get("aborted"):
        return ["run aborted"]
    if name == "localize":
        for process in ("diffusion", "pdmp"):
            frac = est["per_process"][process]["fraction_locked"]
            if not frac >= 0.9:
                bad.append(f"{process} fraction_locked {frac} < 0.9")
    elif name == "drift-wide":
        if not est["passes_some_t"]:
            bad.append("passes_some_t is false")
        for row in est["per_t"]:
            if not row["nonincreasing_to_2se"]:
                bad.append(f"t={row['t']}: ratios not nonincreasing to 2 SE")
    elif name == "ergodic-pdmp":
        for process, block in est["per_process"].items():
            for i, tv in enumerate(block["tv_replica_pairs"]):
                if not tv < 0.1:
                    bad.append(f"{process} replica pair {i}: TV {tv} >= 0.1")
    else:
        raise KeyError(name)
    return bad


def setup(name: str, seed: int, tiny: bool = False):
    """What a user pays before the first result: load the scenario or the
    potentials and build their landscape and level geometry."""
    if name == "steer":
        pots = [circlelab.PeriodicPotential.from_record(r)
                for r in (COSINE, MIXTURE)]
        state = pots
    else:
        state = circlelab.scenario_from_dict(scenario_record(name, seed, tiny))
        pots = [state.potential]
    for pot in pots:
        circlelab.compute_level_geometry(pot, circlelab.classify_landscape(pot))
    return state


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_scenario_unit(name: str, config, work_dir: str) -> dict:
    """One scenario run, call to written manifest, plus its output check.

    A run that raises counts every task as failed; a wrong answer counts
    every task as failed too, so it never passes as a timing.
    """
    out = tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir)
    try:
        t0 = time.perf_counter()
        try:
            manifest = circlelab.runner.run_scenario(config, out_dir=out)
            error = None
        except Exception as exc:  # the run failed; report it as data
            manifest, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        est_path = os.path.join(out, "estimates.json")
        if manifest is None:
            n_tasks = _aborted_task_count(out)
            return {"wall_s": wall, "attempted": n_tasks, "failed": n_tasks,
                    "problems": [error.splitlines()[0]], "outputs_sha256": None,
                    "tasks": n_tasks}
        with open(est_path, "r", encoding="utf-8") as fh:
            est = json.load(fh)
        problems = check_estimates(name, est)
        failed = len(manifest.failures)
        if problems:
            failed = manifest.n_tasks
        if manifest.failures:
            problems.append(f"{len(manifest.failures)} task(s) failed")
        return {"wall_s": wall, "attempted": manifest.n_tasks,
                "failed": failed, "problems": problems,
                "outputs_sha256": _sha256(est_path),
                "tasks": manifest.n_tasks}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _aborted_task_count(out: str) -> int:
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            return max(1, int(json.load(fh)["n_tasks"]))
    except (OSError, ValueError, KeyError):
        return 1


# ---------------------------------------------------------------------------
# steer


_RANGES = ((0.0, 2.0 * math.pi),   # x0
           (-2.0, 2.0),            # u0
           (10.0, 16.0),           # t
           (-0.4, 0.4),            # c: slope as a fraction of max F or -min F
           (0.0, 2.0 * math.pi))   # x1


def _stratified(gen, n: int):
    """n draws of criterion 8's target coordinates, each coordinate
    stratified over n equal cells (Latin hypercube).  Every draw is still
    uniform on criterion 8's ranges; stratifying keeps the batch's mix of
    cheap and expensive plans from swinging with the seed."""
    cols = []
    for lo, hi in _RANGES:
        cells = gen.permutation(n)
        cols.append([lo + (hi - lo) * (float(c) + float(gen.uniform())) / n
                     for c in cells])
    return [tuple(col[i] for col in cols) for i in range(n)]


def _target(pot, draw):
    x0, u0, t, c, x1 = draw
    slope = c * (pot.max_value if c >= 0.0 else -pot.min_value)
    return x0, u0, x1, u0 + t * slope, t


def steer_plans(seed: int, tiny: bool = False):
    """The run's plans and the generator that redraws too-tight targets.

    Diffusion plans come first, then velocity-jump plans, alternating the
    cosine and mixture potentials as criterion 8 does.  Each plan is
    (process, potential index, draw, y0, y1)."""
    gen = circlelab.generator_from_seed(seed)
    n = 2 if tiny else STEER_PLANS
    plans = []
    for process in ("diffusion", "pdmp"):
        draws = {0: _stratified(gen, (n + 1) // 2),
                 1: _stratified(gen, n // 2)}
        for i in range(n):
            y0 = 1 if gen.uniform() < 0.5 else -1
            y1 = 1 if gen.uniform() < 0.5 else -1
            plans.append((process, i % 2, draws[i % 2][i // 2], y0, y1))
    return plans, gen


def _plan_once(process, pot, draw, y0, y1):
    ctl = circlelab.control
    x0, u0, x1, u1, t = _target(pot, draw)
    if process == "diffusion":
        z0 = circlelab.DiffusionState(x0, u0)
        sched = ctl.plan_diffusion_control(
            pot, z0, circlelab.DiffusionState(x1, u1), t, epsilon=0.01)
        end = ctl.integrate_diffusion_control(pot, sched, z0)
    else:
        z0 = circlelab.PdmpState(x0, u0, y0)
        sched = ctl.plan_pdmp_velocity_schedule(
            pot, z0, circlelab.PdmpState(x1, u1, y1), t, switch_rate=1000.0)
        end = ctl.integrate_velocity_schedule(pot, sched, z0)
    return end, x1, u1, t


def check_landing(process: str, end, x1: float, u1: float) -> list:
    bad = []
    dist = circlelab.circle_dist(end.x, x1)
    if not dist < LANDING_TOL:
        bad.append(f"{process} plan missed x1 by {dist}")
    if not abs(end.u - u1) <= STEER_U_TOL[process]:
        bad.append(f"{process} plan |u error| {abs(end.u - u1)} > "
                   f"{STEER_U_TOL[process]}")
    return bad


def run_steer_unit(pots, seed: int, tiny: bool = False) -> dict:
    """All plans of the run back to back, each integrated and checked."""
    plans, gen = steer_plans(seed, tiny)
    latencies, problems, landings = [], [], []
    attempted = failed = too_tight = 0
    sim_time = 0.0
    t_start = time.perf_counter()
    for process, pot_idx, draw, y0, y1 in plans:
        pot = pots[pot_idx]
        while True:
            attempted += 1
            t0 = time.perf_counter()
            try:
                end, x1, u1, t = _plan_once(process, pot, draw, y0, y1)
            except circlelab.PlanningError:
                too_tight += 1
                if too_tight > STEER_MAX_TOO_TIGHT:
                    break
                draw = _stratified(gen, 1)[0]
                continue
            except Exception as exc:  # a planner bug is a failed plan
                failed += 1
                problems.append(f"{process} plan raised {type(exc).__name__}: "
                                f"{exc}")
                break
            latencies.append(time.perf_counter() - t0)
            bad = check_landing(process, end, x1, u1)
            if bad:
                failed += 1
                problems.extend(bad)
            sim_time += t
            landings.append([repr(end.x), repr(end.u)])
            break
    wall = time.perf_counter() - t_start
    if too_tight > STEER_MAX_TOO_TIGHT:
        problems.append(f"{too_tight} targets too tight to plan "
                        f"(> {STEER_MAX_TOO_TIGHT})")
        failed = attempted
    digest = hashlib.sha256(json.dumps(landings).encode()).hexdigest()
    return {"wall_s": wall, "attempted": attempted, "failed": failed,
            "problems": problems, "outputs_sha256": digest,
            "plan_s": latencies, "landed": len(latencies),
            "replica_time": sim_time}
