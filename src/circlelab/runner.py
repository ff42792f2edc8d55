"""Scenario execution: seeded parallel ensembles with reproducible artifacts.

A scenario is decomposed into an ordered list of tasks (replica chunks or
parameter cells).  Tasks run either serially or on a process pool; results
are folded in task order, so the artifacts are a pure function of
(config, root seed) no matter how many workers ran or in what order tasks
finished.  The drift, localization, doeblin and hitting kinds cut each
cell into one chunk per worker, so that every worker runs one wide batch:
the task list follows the worker count, the outputs do not, because a
replica's seed comes from its global index and its path is bitwise the
same at every batch width.  Metastability derives seeds from the chunk
index, so it keeps a fixed layout of at most TASKS_TARGET chunks per
cell.  Every run directory gets ``manifest.json`` (config echo, seed
scheme, file hashes), ``estimates.json``, ``plotdata_<name>.csv``, and raw
path files for the first few replicas of path-producing scenarios.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .angles import TWO_PI, circle_dist
from .config import ScenarioConfig, scenario_from_dict
from .diffusion import (
    DiffusionState,
    simulate_diffusion,
    simulate_diffusion_ensemble,
)
from .errors import ConfigError
from .io import (
    hash_inventory,
    read_json,
    write_events_csv,
    write_json,
    write_trajectory_csv,
)
from .landscape import classify_landscape, compute_level_geometry
from .pdmp import PdmpState, simulate_pdmp
from .seeding import derive_replica_seed
from .stats import (
    EmpiricalHistogram,
    _tail_heavy,
    detect_convergence,
    doeblin_hits,
    drift_samples,
    escape_bound,
    estimate_escape,
    hitting_times,
    occupation_histogram,
    tv_distance,
    wilson_interval,
)

__all__ = [
    "TASKS_TARGET",
    "MIN_CHUNK",
    "RunManifest",
    "replica_chunks",
    "worker_count",
    "run_scenario",
    "replay",
]

TASKS_TARGET = 16
MIN_CHUNK = 64

_SEED_SCHEME = ("replica seeds are splitmix64(root_seed, index) with the "
                "index layout documented per scenario kind in this module")


def replica_chunks(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split replica indices [0, n) into at most `parts` contiguous chunks.

    Every chunk but the last holds at least MIN_CHUNK replicas.  The kinds
    whose seeds are per replica pass the worker count, so each worker runs
    one wide batch per cell; metastability passes TASKS_TARGET, since its
    seeds come from the chunk index.
    """
    if n <= 0:
        return []
    size = max(MIN_CHUNK, math.ceil(n / parts))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _worker_chunks(config: ScenarioConfig) -> List[Tuple[int, int]]:
    """One chunk of each cell per worker; the outputs do not depend on it,
    since every replica's seed comes from its global index."""
    return replica_chunks(config.replicas, worker_count(config.replicas))


def worker_count(n_tasks: int) -> int:
    """Workers to use: CIRCLELAB_WORKERS, else cpu count capped at 8."""
    env = os.environ.get("CIRCLELAB_WORKERS")
    if env is not None:
        try:
            w = int(env)
        except ValueError as exc:
            raise ConfigError(
                f"CIRCLELAB_WORKERS: expected an integer, got {env!r}"
            ) from exc
        if w < 1:
            raise ConfigError("CIRCLELAB_WORKERS: must be >= 1")
    else:
        w = min(os.cpu_count() or 1, 8)
    return max(1, min(w, max(1, n_tasks)))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and audit one scenario run."""

    config: Dict[str, Any]
    config_hash: str
    version: str
    seed_scheme: str
    n_tasks: int
    workers_used: int
    wall_clock_seconds: float
    files: Dict[str, str]
    failures: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "version": self.version,
            "seed_scheme": self.seed_scheme,
            "n_tasks": self.n_tasks,
            "workers_used": self.workers_used,
            "wall_clock_seconds": self.wall_clock_seconds,
            "files": self.files,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# shared helpers


def _simulate_path(config: ScenarioConfig, process: str, seed: int,
                   horizon: Optional[float] = None, lam: Optional[float] = None):
    span = config.horizon if horizon is None else horizon
    if process == "diffusion":
        return simulate_diffusion(
            config.potential, DiffusionState(config.x0, config.u0), span,
            dt=config.dt, seed=seed,
            record_every=config.option("record_every", 100))
    return simulate_pdmp(
        config.potential, config.lam if lam is None else lam,
        PdmpState(config.x0, config.u0, config.y0), span, seed=seed)


def _saved_path_count(config: ScenarioConfig) -> int:
    """How many replicas per process, the first ones, get raw path files."""
    return min(config.option("save_paths", 2), config.replicas)


def _path_time_grid(config: ScenarioConfig, n: int = 41) -> np.ndarray:
    return np.linspace(0.0, config.horizon, n)


def _state_on_grid(path, grid: np.ndarray) -> np.ndarray:
    """x positions of a path at the given times."""
    if hasattr(path, "x_at"):
        return np.array([path.x_at(min(t, float(path.times[-1])))
                         for t in grid])
    idx = np.clip(np.searchsorted(path.times, grid, side="right") - 1,
                  0, len(path.times) - 1)
    return np.asarray(path.x)[idx]


# ---------------------------------------------------------------------------
# scenario: ergodic


def _ergodic_windows(config: ScenarioConfig) -> List[Tuple[str, float, float]]:
    T = config.horizon
    burn = config.option("burn_in", min(500.0, 0.1 * T))
    windows = [("half1", 0.0, 0.5 * T), ("half2", 0.5 * T, T),
               ("full", burn, T)]
    for frac in (0.125, 0.25, 0.5):
        t = burn + (T - burn) * frac
        t2 = min(burn + 2.0 * (T - burn) * frac, T)
        windows.append((f"upto_{frac}", burn, t))
        windows.append((f"upto2_{frac}", burn, t2))
    return windows


def _ergodic_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    tasks = []
    idx = 0
    for process in config.processes():
        for rep in range(config.replicas):
            tasks.append({"op": "ergodic", "process": process,
                          "replica": rep,
                          "seed": derive_replica_seed(config.root_seed, idx)})
            idx += 1
    return tasks


def _ergodic_run(config: ScenarioConfig, task: Dict[str, Any]):
    path = _simulate_path(config, task["process"], task["seed"])
    rep = task["replica"]
    out = {"process": task["process"], "replica": rep, "windows": {},
           "paths": [(rep, path)] if rep < _saved_path_count(config) else []}
    for label, lo, hi in _ergodic_windows(config):
        out["windows"][label] = occupation_histogram(path, burn_in=lo,
                                                     t_max=hi)
    return out


def _ergodic_finalize(config: ScenarioConfig, results, out_dir):
    estimates: Dict[str, Any] = {"kind": "ergodic", "per_process": {}}
    plot_rows = []
    for process in config.processes():
        rows = [r for r in results if r["process"] == process]
        halves = [tv_distance(r["windows"]["half1"], r["windows"]["half2"])
                  for r in rows]
        fulls = [r["windows"]["full"] for r in rows]
        pair_tvs = [tv_distance(fulls[i], fulls[i + 1])
                    for i in range(len(fulls) - 1)]
        series = []
        for frac in (0.125, 0.25, 0.5):
            h1 = reduce(EmpiricalHistogram.merge,
                        [r["windows"][f"upto_{frac}"] for r in rows])
            h2 = reduce(EmpiricalHistogram.merge,
                        [r["windows"][f"upto2_{frac}"] for r in rows])
            series.append((frac, tv_distance(h1, h2)))
            plot_rows.append((process, frac, series[-1][1]))
        estimates["per_process"][process] = {
            "tv_halves": halves,
            "tv_replica_pairs": pair_tvs,
            "tv_window_series": [{"fraction": f, "tv": v} for f, v in series],
            "series_decreasing": all(series[i][1] >= series[i + 1][1]
                                     for i in range(len(series) - 1)),
        }
    _write_plotdata(out_dir, "tv_vs_window",
                    ["process", "window_fraction", "tv"], plot_rows)
    return estimates


# ---------------------------------------------------------------------------
# scenario: localization


def _localization_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    tasks = []
    for p_idx, process in enumerate(config.processes()):
        base = p_idx * config.replicas
        for lo, hi in _worker_chunks(config):
            tasks.append({"op": "localization", "process": process,
                          "lo": lo, "hi": hi, "base": base})
    return tasks


def _localization_run(config: ScenarioConfig, task: Dict[str, Any]):
    landscape = classify_landscape(config.potential)
    traps = [(p.x, p.value) for p in landscape.traps]
    tol = config.option("tolerance", 0.15)
    window = min(config.option("burn_in", 200.0), 0.25 * config.horizon)
    grid = _path_time_grid(config)
    n_saved = _saved_path_count(config)
    replica_range = range(task["lo"], task["hi"])
    seeds = tuple(derive_replica_seed(config.root_seed, task["base"] + rep)
                  for rep in replica_range)
    ensemble = None
    if task["process"] == "diffusion":
        # One vectorized sweep over the whole chunk beats per-path loops.
        ensemble = simulate_diffusion_ensemble(
            config.potential, config.x0, config.u0, config.horizon,
            dt=config.dt, seeds=seeds,
            record_every=config.option("record_every", 100))
    rows = []
    paths = []
    for offset, rep in enumerate(replica_range):
        if ensemble is not None:
            path = ensemble.replica(offset)
        else:
            path = _simulate_path(config, task["process"], seeds[offset])
        if rep < n_saved:
            if ensemble is not None:
                # Copy the row so it does not keep the whole chunk alive.
                path = replace(path, x=np.array(path.x), u=np.array(path.u))
            paths.append((rep, path))
        xs = _state_on_grid(path, grid)
        if traps:
            dmin = np.min([circle_dist(xs, tx) for tx, _ in traps], axis=0)
            curve = (dmin < tol).astype(int).tolist()
            d_final = float(min(circle_dist(float(path.x[-1]), tx)
                                for tx, _ in traps))
        else:
            curve = [0] * grid.size
            d_final = math.inf
        x_star = detect_convergence(path, landscape, window, tol)
        trap_value = None
        if x_star is not None:
            trap_value = float(config.potential.value(x_star))
        rows.append({"replica": rep, "process": task["process"],
                     "d_final": d_final, "u_final": float(path.u[-1]),
                     "converged_to": x_star, "trap_value": trap_value,
                     "curve": curve})
    return {"process": task["process"], "rows": rows, "paths": paths}


def _localization_finalize(config: ScenarioConfig, results, out_dir):
    grid = _path_time_grid(config)
    u_threshold = config.option("u_threshold", -100.0)
    tol = config.option("tolerance", 0.15)
    estimates: Dict[str, Any] = {"kind": "localization", "per_process": {}}
    plot_rows = []
    for process in config.processes():
        rows = [row for r in results for row in r["rows"]
                if row["process"] == process]
        curves = np.array([row["curve"] for row in rows], dtype=float)
        fraction_curve = curves.mean(axis=0)
        for t, f in zip(grid, fraction_curve):
            plot_rows.append((process, float(t), float(f)))
        n_ok = 0
        for row in rows:
            if row["converged_to"] is None or row["d_final"] >= tol:
                continue
            if row["trap_value"] < 0 and row["u_final"] < u_threshold:
                n_ok += 1
            elif row["trap_value"] > 0 and row["u_final"] > -u_threshold:
                n_ok += 1
        estimates["per_process"][process] = {
            "n_replicas": len(rows),
            "n_locked": n_ok,
            "fraction_locked": n_ok / max(1, len(rows)),
            "final_fraction_near_trap": float(fraction_curve[-1]),
        }
    _write_plotdata(out_dir, "localization_fraction",
                    ["process", "t", "fraction_near_trap"], plot_rows)
    return estimates


# ---------------------------------------------------------------------------
# scenario: metastability


def _metastability_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    m_grid = config.option("m_grid", (4.0, 8.0, 12.0, 16.0))
    tasks = []
    counter = 0
    for process in config.processes():
        for m_idx, m in enumerate(m_grid):
            for lo, hi in replica_chunks(config.replicas, TASKS_TARGET):
                tasks.append({
                    "op": "metastability", "process": process, "m": float(m),
                    "trials": hi - lo,
                    "chunk_root": derive_replica_seed(config.root_seed,
                                                      counter),
                })
                counter += 1
    return tasks


def _metastability_run(config: ScenarioConfig, task: Dict[str, Any]):
    eta = config.option("eta", 1.0 / 3.0)
    geometry = compute_level_geometry(config.potential, eta=eta)
    est = estimate_escape(
        config.potential, geometry, task["m"], eta, task["trials"],
        process=task["process"], lam=config.lam, dt=config.dt,
        max_time=config.option("max_time", 500.0),
        root_seed=task["chunk_root"])
    return {"process": task["process"], "m": task["m"],
            "successes": est.successes, "trials": est.trials,
            "censored": est.n_censored}


def _metastability_finalize(config: ScenarioConfig, results, out_dir):
    eta = config.option("eta", 1.0 / 3.0)
    m_grid = config.option("m_grid", (4.0, 8.0, 12.0, 16.0))
    estimates: Dict[str, Any] = {"kind": "metastability", "eta": eta,
                                 "per_process": {}}
    plot_rows = []
    for process in config.processes():
        table = []
        for m in m_grid:
            cells = [r for r in results
                     if r["process"] == process and r["m"] == float(m)]
            successes = sum(c["successes"] for c in cells)
            trials = sum(c["trials"] for c in cells)
            censored = sum(c["censored"] for c in cells)
            lo, hi = wilson_interval(successes, trials)
            bound = escape_bound(process, config.potential, float(m), eta,
                                 config.lam if process == "pdmp" else None)
            table.append({"m": float(m), "successes": successes,
                          "trials": trials, "censored": censored,
                          "estimate": successes / trials,
                          "wilson_low": lo, "wilson_high": hi,
                          "bound": bound})
            plot_rows.append((process, float(m), successes / trials,
                              lo, hi, bound))
        monotone = all(table[i + 1]["wilson_low"] <= table[i]["wilson_high"]
                       for i in range(len(table) - 1))
        estimates["per_process"][process] = {
            "table": table, "nonincreasing_up_to_overlap": monotone}
    _write_plotdata(out_dir, "escape_vs_M",
                    ["process", "M", "estimate", "wilson_low", "wilson_high",
                     "bound"], plot_rows)
    return estimates


# ---------------------------------------------------------------------------
# scenario: pdmp-vs-diffusion


def _limit_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    lam_grid = config.option("lambda_grid", (1.0, 10.0, 100.0))
    tasks = []
    idx = 0
    for rep in range(config.replicas):
        tasks.append({"op": "limit", "process": "diffusion", "lam": None,
                      "replica": rep,
                      "seed": derive_replica_seed(config.root_seed, idx)})
        idx += 1
    for lam in lam_grid:
        for rep in range(config.replicas):
            tasks.append({"op": "limit", "process": "pdmp",
                          "lam": float(lam), "replica": rep,
                          "seed": derive_replica_seed(config.root_seed, idx)})
            idx += 1
    return tasks


def _limit_run(config: ScenarioConfig, task: Dict[str, Any]):
    burn = config.option("burn_in", 0.1 * config.horizon)
    if task["process"] == "diffusion":
        path = _simulate_path(config, "diffusion", task["seed"])
        h = occupation_histogram(path, burn_in=burn)
    else:
        lam = task["lam"]
        # Accelerated time: the jump process runs for lam * horizon.
        path = _simulate_path(config, "pdmp", task["seed"],
                              horizon=lam * config.horizon, lam=lam)
        h = occupation_histogram(path, burn_in=lam * burn)
    return {"process": task["process"], "lam": task["lam"],
            "weight": h.weight, "x_marginal": h.x_marginal().tolist()}


def _limit_finalize(config: ScenarioConfig, results, out_dir):
    lam_grid = config.option("lambda_grid", (1.0, 10.0, 100.0))

    def _merged_marginal(rows):
        weights = np.array([r["weight"] for r in rows])
        marginals = np.array([r["x_marginal"] for r in rows])
        return (weights[:, None] * marginals).sum(axis=0) / weights.sum()

    diff_marginal = _merged_marginal(
        [r for r in results if r["process"] == "diffusion"])
    table = []
    plot_rows = []
    for lam in lam_grid:
        rows = [r for r in results
                if r["process"] == "pdmp" and r["lam"] == float(lam)]
        tv = 0.5 * float(np.abs(_merged_marginal(rows) - diff_marginal).sum())
        table.append({"lambda": float(lam), "tv_x_marginal": tv})
        plot_rows.append((float(lam), tv))
    decreasing = all(table[i]["tv_x_marginal"] >= table[i + 1]["tv_x_marginal"]
                     for i in range(len(table) - 1))
    _write_plotdata(out_dir, "pdmp_vs_diffusion",
                    ["lambda", "tv_x_marginal"], plot_rows)
    return {"kind": "pdmp-vs-diffusion", "table": table,
            "tv_decreasing_in_lambda": decreasing}


# ---------------------------------------------------------------------------
# scenario: drift


def _drift_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    """One task per (u0 index j, replica chunk), run once to max(t_grid).

    Replica i gets splitmix64(root_seed, (m * len(u0_grid) + j) * replicas
    + i), with m the index of the first largest t: the seeds a run of the
    (t_grid[m], u0) cell alone would use.  Shorter t read the same paths.
    """
    u0_grid = config.option("u0_grid", (20.0, 40.0, 60.0))
    return [{"op": "drift", "u0_index": j, "lo": lo, "hi": hi}
            for j in range(len(u0_grid))
            for lo, hi in _worker_chunks(config)]


def _drift_run(config: ScenarioConfig, task: Dict[str, Any]):
    kappa = config.option("kappa", 0.05)
    t_grid = config.option("t_grid", (50.0, 100.0, 200.0))
    u0_grid = config.option("u0_grid", (20.0, 40.0, 60.0))
    j = task["u0_index"]
    pair = t_grid.index(max(t_grid)) * len(u0_grid) + j
    base = pair * config.replicas
    seeds = tuple(derive_replica_seed(config.root_seed, base + i)
                  for i in range(task["lo"], task["hi"]))
    values = drift_samples(config.potential, kappa, config.x0,
                           float(u0_grid[j]), t_grid, dt=config.dt,
                           seeds=seeds)
    return {"u0_index": j, "values": values}


def _drift_finalize(config: ScenarioConfig, results, out_dir):
    kappa = config.option("kappa", 0.05)
    t_grid = config.option("t_grid", (50.0, 100.0, 200.0))
    u0_grid = config.option("u0_grid", (20.0, 40.0, 60.0))
    # values[j][k] holds every replica of u0_grid[j] at t_grid[k].
    values = [np.concatenate([r["values"] for r in results
                              if r["u0_index"] == j], axis=1)
              for j in range(len(u0_grid))]
    per_t = []
    plot_rows = []
    for k, t in enumerate(t_grid):
        cells = []
        for j, u0 in enumerate(u0_grid):
            vals = values[j][k]
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size))
            ratio = est / math.exp(kappa * abs(u0))
            cells.append({"u0": float(u0), "estimate": est, "std_error": se,
                          "ratio": ratio,
                          "tail_flag": bool(_tail_heavy(vals))})
            plot_rows.append((float(t), float(u0), est, se, ratio))
        ratios = [c["ratio"] for c in cells]
        ses = [c["std_error"] / math.exp(kappa * abs(c["u0"]))
               for c in cells]
        nonincreasing = all(
            ratios[i + 1] <= ratios[i] + 2.0 * (ses[i] + ses[i + 1])
            for i in range(len(ratios) - 1))
        per_t.append({"t": float(t), "cells": cells,
                      "passes": ratios[-1] <= 0.75,
                      "nonincreasing_to_2se": nonincreasing})
    _write_plotdata(out_dir, "drift_ratio",
                    ["t", "u0", "estimate", "std_error", "ratio"], plot_rows)
    return {"kind": "drift", "kappa": kappa, "per_t": per_t,
            "passes_some_t": any(row["passes"] for row in per_t)}


# ---------------------------------------------------------------------------
# scenario: doeblin


def _doeblin_starts(config: ScenarioConfig) -> List[Tuple[float, float]]:
    side = math.isqrt(config.option("grid_points", 16))
    xs = np.linspace(0.0, TWO_PI, side, endpoint=False)
    us = np.linspace(-2.0, 2.0, side)
    return [(float(x), float(u)) for x in xs for u in us]


def _doeblin_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    starts = _doeblin_starts(config)
    tasks = []
    for process in config.processes():
        for s_idx in range(len(starts)):
            for lo, hi in _worker_chunks(config):
                tasks.append({"op": "doeblin", "process": process,
                              "start": s_idx, "lo": lo, "hi": hi})
    return tasks


def _doeblin_run(config: ScenarioConfig, task: Dict[str, Any]):
    box = config.option("box", (math.pi - 1.0, math.pi + 1.0, -2.0, 2.0))
    x0, u0 = _doeblin_starts(config)[task["start"]]
    base = task["start"] * config.replicas
    seeds = tuple(derive_replica_seed(config.root_seed, base + i)
                  for i in range(task["lo"], task["hi"]))
    hits = doeblin_hits(config.potential, task["process"], x0, u0, box,
                        config.horizon, seeds=seeds, lam=config.lam,
                        y0=config.y0, dt=config.dt)
    return {"process": task["process"], "start": task["start"],
            "hits": hits, "trials": task["hi"] - task["lo"]}


def _doeblin_finalize(config: ScenarioConfig, results, out_dir):
    starts = _doeblin_starts(config)
    estimates: Dict[str, Any] = {"kind": "doeblin", "per_process": {}}
    plot_rows = []
    for process in config.processes():
        table = []
        for s_idx, (x0, u0) in enumerate(starts):
            cells = [r for r in results
                     if r["process"] == process and r["start"] == s_idx]
            hits = sum(c["hits"] for c in cells)
            trials = sum(c["trials"] for c in cells)
            lo, hi = wilson_interval(hits, trials)
            table.append({"x0": x0, "u0": u0, "hits": hits,
                          "trials": trials, "estimate": hits / trials,
                          "wilson_low": lo, "wilson_high": hi})
            plot_rows.append((process, x0, u0, hits / trials, lo, hi))
        min_row = min(table, key=lambda r: r["estimate"])
        estimates["per_process"][process] = {
            "table": table,
            "min_estimate": min_row["estimate"],
            "min_wilson_low": min_row["wilson_low"],
            "min_positive": min_row["estimate"] > 0.0,
        }
    _write_plotdata(out_dir, "doeblin",
                    ["process", "x0", "u0", "estimate", "wilson_low",
                     "wilson_high"], plot_rows)
    return estimates


# ---------------------------------------------------------------------------
# scenario: hitting


def _hitting_tasks(config: ScenarioConfig) -> List[Dict[str, Any]]:
    fractions = config.option("eta_fractions", (0.25, 0.5, 1.0))
    tasks = []
    cell = 0
    for process in config.processes():
        for frac in fractions:
            for lo, hi in _worker_chunks(config):
                tasks.append({"op": "hitting", "process": process,
                              "fraction": float(frac), "cell": cell,
                              "lo": lo, "hi": hi})
            cell += 1
    return tasks


def _hitting_run(config: ScenarioConfig, task: Dict[str, Any]):
    potential = config.potential
    base_geometry = compute_level_geometry(potential)
    delta = base_geometry.delta
    eta = task["fraction"] * delta
    geometry = compute_level_geometry(potential, eta=eta)
    target = geometry.mid_level_set()
    base = task["cell"] * config.replicas
    seeds = [derive_replica_seed(config.root_seed, base + rep)
             for rep in range(task["lo"], task["hi"])]
    values, censored = hitting_times(
        potential, task["process"], potential.argmin, target, config.horizon,
        seeds=seeds, lam=config.lam, y0=config.y0, dt=config.dt,
        record_every=config.option("record_every", 10))
    return {"process": task["process"], "fraction": task["fraction"],
            "eta": eta, "kappa": base_geometry.kappa,
            "values": values, "censored": censored}


def _hitting_finalize(config: ScenarioConfig, results, out_dir):
    fractions = config.option("eta_fractions", (0.25, 0.5, 1.0))
    estimates: Dict[str, Any] = {"kind": "hitting", "per_process": {}}
    plot_rows = []
    for process in config.processes():
        table = []
        for frac in fractions:
            cells = [r for r in results
                     if r["process"] == process
                     and r["fraction"] == float(frac)]
            values = np.concatenate([np.asarray(c["values"]) for c in cells])
            cens = np.concatenate([np.asarray(c["censored"], dtype=bool)
                                   for c in cells])
            eta = cells[0]["eta"]
            kappa = cells[0]["kappa"]
            floor = kappa * math.sqrt(eta)
            row = {
                "eta": eta, "kappa_sqrt_eta": floor,
                "min": float(values.min()),
                "median": float(np.median(values)),
                "n": int(values.size),
                "n_censored": int(cens.sum()),
            }
            if process == "pdmp":
                row["violations"] = int((values < floor - 1e-12).sum())
            table.append(row)
            plot_rows.append((process, eta, floor, row["min"],
                              row["median"]))
        estimates["per_process"][process] = {"table": table}
        if process == "pdmp":
            estimates["per_process"][process]["zero_violations"] = all(
                r["violations"] == 0 for r in table)
    _write_plotdata(out_dir, "hitting",
                    ["process", "eta", "kappa_sqrt_eta", "min_T", "median_T"],
                    plot_rows)
    return estimates


# ---------------------------------------------------------------------------
# task dispatch


_BUILDERS = {
    "ergodic": (_ergodic_tasks, _ergodic_run, _ergodic_finalize),
    "localization": (_localization_tasks, _localization_run,
                     _localization_finalize),
    "metastability": (_metastability_tasks, _metastability_run,
                      _metastability_finalize),
    "pdmp-vs-diffusion": (_limit_tasks, _limit_run, _limit_finalize),
    "drift": (_drift_tasks, _drift_run, _drift_finalize),
    "doeblin": (_doeblin_tasks, _doeblin_run, _doeblin_finalize),
    "hitting": (_hitting_tasks, _hitting_run, _hitting_finalize),
}


def _execute_task(payload: Tuple[Dict[str, Any], Dict[str, Any]]):
    """Worker entry point: rebuild the config and run one task."""
    config_dict, task = payload
    try:
        config = scenario_from_dict(config_dict)
        _, run, _ = _BUILDERS[config.kind]
        return {"ok": True, "result": run(config, task)}
    except Exception:
        return {"ok": False, "error": traceback.format_exc()}


def _task_replica_count(task: Dict[str, Any]) -> int:
    if "lo" in task and "hi" in task:
        return task["hi"] - task["lo"]
    if "trials" in task:
        return task["trials"]
    return 1


def _write_plotdata(out_dir, name: str, header: Sequence[str], rows):
    import csv

    path = os.path.join(out_dir, f"plotdata_{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _write_path_files(out_dir, results) -> None:
    """Write the raw paths that the tasks returned for their saved replicas.

    A path-producing task returns ``paths``, the (replica, path) pairs of
    its replicas below _saved_path_count(config); the diffusion gets
    ``trajectory_<replica>.csv`` and the velocity-jump process
    ``events_<replica>.csv``.  Nothing is simulated here, so a saved
    replica whose task failed gets no file.
    """
    for r in results:
        for rep, path in r.get("paths", ()):
            if r["process"] == "diffusion":
                write_trajectory_csv(
                    os.path.join(out_dir, f"trajectory_{rep}.csv"), path)
            else:
                write_events_csv(
                    os.path.join(out_dir, f"events_{rep}.csv"), path)


def _check_out_dir(config: ScenarioConfig, out_dir: str) -> None:
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        return
    entries = [e for e in os.listdir(out_dir) if not e.startswith(".")]
    if not entries:
        return
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise ConfigError(
            f"output directory {out_dir!r} is nonempty and has no manifest; "
            "refusing to mix artifacts")
    previous = read_json(manifest_path)
    if previous.get("config_hash") != config.config_hash():
        raise ConfigError(
            f"output directory {out_dir!r} holds a run of a different "
            "config (hash mismatch); use a fresh directory")


def run_scenario(config: ScenarioConfig,
                 out_dir: Optional[str] = None) -> RunManifest:
    """Execute a scenario and write its artifacts.

    Returns the manifest (also written to ``manifest.json``).  Raises
    ConfigError for invalid configs or a reused directory, and
    RuntimeError when more than 1% of replicas fail.
    """
    out_dir = config.out_dir if out_dir is None else out_dir
    _check_out_dir(config, out_dir)
    started = time.monotonic()

    build, _, finalize = _BUILDERS[config.kind]
    tasks = build(config)
    config_dict = config.to_dict()
    payloads = [(config_dict, task) for task in tasks]
    workers = worker_count(len(tasks))

    if workers == 1:
        outcomes = [_execute_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_task, payloads))

    failures = []
    results = []
    failed_replicas = 0
    total_replicas = 0
    for task, outcome in zip(tasks, outcomes):
        n_rep = _task_replica_count(task)
        total_replicas += n_rep
        if outcome["ok"]:
            results.append(outcome["result"])
        else:
            failed_replicas += n_rep
            failures.append(outcome["error"])

    if failed_replicas > 0.01 * total_replicas:
        manifest = _finish_manifest(config, out_dir, tasks, workers,
                                    started, failures, estimates={
                                        "kind": config.kind,
                                        "aborted": True,
                                    })
        raise RuntimeError(
            f"{failed_replicas}/{total_replicas} replicas failed; "
            f"see manifest in {out_dir}\n" + "\n".join(failures[:3]))

    estimates = finalize(config, results, out_dir)
    estimates["failures"] = len(failures)
    _write_path_files(out_dir, results)
    return _finish_manifest(config, out_dir, tasks, workers, started,
                            failures, estimates)


def _finish_manifest(config, out_dir, tasks, workers, started, failures,
                     estimates) -> RunManifest:
    write_json(os.path.join(out_dir, "estimates.json"), estimates)
    files = hash_inventory(out_dir)
    manifest = RunManifest(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        version=__version__,
        seed_scheme=_SEED_SCHEME,
        n_tasks=len(tasks),
        workers_used=workers,
        wall_clock_seconds=time.monotonic() - started,
        files=files,
        failures=tuple(failures),
    )
    write_json(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
    return manifest


def replay(manifest_path, work_dir) -> Tuple[bool, Dict[str, Any]]:
    """Re-run a finished scenario and compare artifact hashes.

    Returns (identical, report).  The report lists per-file hash matches;
    wall-clock and the manifest file itself are excluded from comparison.
    """
    recorded = read_json(manifest_path)
    config = scenario_from_dict(recorded["config"])
    run_scenario(config, out_dir=work_dir)
    new_files = hash_inventory(work_dir)
    old_files = recorded["files"]
    all_names = sorted(set(old_files) | set(new_files))
    report = {name: {"recorded": old_files.get(name),
                     "replayed": new_files.get(name),
                     "match": old_files.get(name) == new_files.get(name)}
              for name in all_names}
    return all(v["match"] for v in report.values()), report
