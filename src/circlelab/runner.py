"""Scenario execution: seeded parallel ensembles with reproducible artifacts.

A scenario kind is three functions.  ``cells(config)`` reads the kind's
options and builds what all of a cell's chunks share (landscape, level
geometry, start points, time windows), one dict per cell.
``run(config, cell, task)`` simulates one chunk of one cell, and
``finalize(config, cells, results, out_dir)`` receives the chunk results
of cells[i], in chunk order, as results[i].  One builder makes the tasks,
every (cell, chunk) pair in cell-major order, for every kind.

One seed rule serves every kind: replica i of a cell with seed block b
gets splitmix64(root_seed, b * replicas + i).  One chunk layout serves
every kind too: each cell is cut into one contiguous chunk per worker,
so that each worker runs one wide batch.  A replica's seed comes from
its index and its outcome is bitwise the same at every batch width, so
the outputs do not follow the task list.  Tasks run serially or on a
process pool, and results are folded in task order, so the artifacts
are a pure function of (config, root seed) whatever the worker count or
the order in which tasks finished.  A task is the unit of failure: a
replica that raises fails its whole chunk.  Every run directory gets
``manifest.json`` (config echo, seed scheme, file hashes),
``estimates.json``, ``plotdata_<name>.csv``, and raw path files for the
first few replicas of path-producing scenarios.
"""

from __future__ import annotations

import math
import os
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from . import __version__
from .angles import TWO_PI, circle_dist
from .config import ScenarioConfig, scenario_from_dict
from .diffusion import (
    Trajectory,
    _record_steps,
    simulate_diffusion,  # noqa: F401  (profilers wrap it by name here)
    simulate_diffusion_ensemble,
    simulate_terminal_u_coupled,
)
from .errors import ConfigError, HypothesisWarning
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
    escape_hits,
    hitting_times,
    occupation_histogram,
    occupation_histograms,
    tv_distance,
    wilson_interval,
)

__all__ = [
    "RunManifest",
    "replica_chunks",
    "worker_count",
    "run_scenario",
    "replay",
]

_SEED_SCHEME = ("replica i of a cell with seed block b gets "
                "splitmix64(root_seed, b * replicas + i)")

# The ergodic kind compares windows [burn, burn + f (T - burn)] with
# windows twice as long, for each of these fractions f.
_ERGODIC_FRACTIONS = (0.125, 0.25, 0.5)


def replica_chunks(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split replica indices [0, n) into min(n, parts) contiguous chunks
    whose sizes differ by at most one."""
    p = min(n, parts)
    return [(n * i // p, n * (i + 1) // p) for i in range(p)]


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


def _seeds(config: ScenarioConfig, cell, task) -> Tuple[int, ...]:
    """Seeds of a chunk's replicas: splitmix64(root_seed, b * replicas + i)."""
    base = cell["b"] * config.replicas
    return tuple(derive_replica_seed(config.root_seed, base + i)
                 for i in range(task["lo"], task["hi"]))


def _paths(config: ScenarioConfig, cell, task,
           horizon: Optional[float] = None, lam: Optional[float] = None,
           x0: Optional[float] = None, u0: Optional[float] = None,
           record_every: Optional[int] = None, until=None):
    """The path of each replica of a chunk, in replica order.

    Every argument left None takes the config's value: the horizon, the
    velocity-jump rate, the start (x0, u0) and the record_every option
    (default 100).  The diffusion runs one ensemble per chunk, recorded
    every record_every steps.  The velocity-jump process runs one path
    per seed from velocity y0, stopped at its first entry into a set of
    `until` when that is given.  This is a generator, so only the paths
    a caller keeps outlive their iteration.
    """
    span = config.horizon if horizon is None else horizon
    x0 = config.x0 if x0 is None else x0
    u0 = config.u0 if u0 is None else u0
    seeds = _seeds(config, cell, task)
    if cell["process"] == "diffusion":
        if record_every is None:
            record_every = config.option("record_every", 100)
        ensemble = simulate_diffusion_ensemble(
            config.potential, x0, u0, span, dt=config.dt, seeds=seeds,
            record_every=record_every)
        yield from map(ensemble.replica, range(len(seeds)))
        return
    for seed in seeds:
        yield simulate_pdmp(
            config.potential, config.lam if lam is None else lam,
            PdmpState(x0, u0, config.y0), span, seed=seed, until=until)


def _saved_path_count(config: ScenarioConfig) -> int:
    """How many replicas per process, the first ones, get raw path files."""
    return min(config.option("save_paths", 2), config.replicas)


def _own(path):
    """A path to keep: an ensemble row is copied so that it does not keep
    the whole chunk alive."""
    if isinstance(path, Trajectory):
        return replace(path, x=np.array(path.x), u=np.array(path.u))
    return path


def _state_on_grid(path, grid: np.ndarray) -> np.ndarray:
    """x positions of a path at the given times."""
    if hasattr(path, "x_at"):
        return np.array([path.x_at(min(t, float(path.times[-1])))
                         for t in grid])
    idx = np.clip(np.searchsorted(path.times, grid, side="right") - 1,
                  0, len(path.times) - 1)
    return np.asarray(path.x)[idx]


def _by_process(cells, rows) -> Dict[str, list]:
    """rows[i] belongs to cells[i]: the rows of each process, in order."""
    out: Dict[str, list] = {}
    for cell, row in zip(cells, rows):
        out.setdefault(cell["process"], []).append(row)
    return out


def _wilson_row(hits: int, trials: int) -> Dict[str, float]:
    lo, hi = wilson_interval(hits, trials)
    return {"estimate": hits / trials, "wilson_low": lo, "wilson_high": hi}


def _burn_in(config: ScenarioConfig, default: float, fraction: float,
             diffusion: bool) -> float:
    """The burn_in option, refused before any task runs when it leaves
    the occupation window [burn, burn + fraction (T - burn)] empty: when
    it reaches the horizon T, or, if `diffusion`, when the diffusion's
    ensembles (see `_paths`) record no sample in the window."""
    burn = config.option("burn_in", default)
    if burn >= config.horizon:
        raise ConfigError(f"field 'burn_in': must be < the horizon "
                          f"{config.horizon!r}, got {burn!r}")
    if diffusion:
        end = burn + (config.horizon - burn) * fraction
        _check_recorded(config, [("burn-in", burn, end)], "burn_in")
    return burn


def _check_recorded(config: ScenarioConfig, windows, field: str) -> None:
    """ConfigError naming `field` unless the diffusion's ensembles (see
    `_paths`) record a sample in each (label, lo, hi) window."""
    every = config.option("record_every", 100)
    times = config.dt * _record_steps(config.horizon, config.dt, every)
    for label, lo, hi in windows:
        if not np.any((times >= lo) & (times <= hi)):
            raise ConfigError(f"field {field!r}: the diffusion records no "
                              f"sample in [{lo!r}, {hi!r}] ({label} window)"
                              f"; it records every {every} steps of "
                              f"{config.dt!r}, the last at t = "
                              f"{float(times[-1])!r}")


# ---------------------------------------------------------------------------
# scenario: ergodic


def _ergodic_cells(config: ScenarioConfig):
    T = config.horizon
    burn = _burn_in(config, min(500.0, 0.1 * T), min(_ERGODIC_FRACTIONS),
                    "diffusion" in config.processes())
    windows = [("half1", 0.0, 0.5 * T), ("half2", 0.5 * T, T),
               ("full", burn, T)]
    for frac in _ERGODIC_FRACTIONS:
        t = burn + (T - burn) * frac
        t2 = min(burn + 2.0 * (T - burn) * frac, T)
        windows.append((f"upto_{frac}", burn, t))
        windows.append((f"upto2_{frac}", burn, t2))
    if "diffusion" in config.processes():
        _check_recorded(config, windows, "record_every")
    return [{"process": process, "b": b, "windows": windows}
            for b, process in enumerate(config.processes())]


def _ergodic_run(config: ScenarioConfig, cell, task):
    n_saved = _saved_path_count(config)
    histograms, paths = [], []
    labels = [label for label, _, _ in cell["windows"]]
    bounds = [(lo, hi) for _, lo, hi in cell["windows"]]
    for rep, path in enumerate(_paths(config, cell, task), task["lo"]):
        histograms.append(dict(zip(labels,
                                   occupation_histograms(path, bounds))))
        if rep < n_saved:
            paths.append((rep, _own(path)))
    return {"windows": histograms, "paths": paths}


def _ergodic_finalize(config: ScenarioConfig, cells, results, out_dir):
    estimates: Dict[str, Any] = {"kind": "ergodic", "per_process": {}}
    plot_rows = []
    for cell, chunks in zip(cells, results):
        process = cell["process"]
        rows = [w for r in chunks for w in r["windows"]]
        halves = [tv_distance(w["half1"], w["half2"]) for w in rows]
        fulls = [w["full"] for w in rows]
        pair_tvs = [tv_distance(fulls[i], fulls[i + 1])
                    for i in range(len(fulls) - 1)]
        series = []
        for frac in _ERGODIC_FRACTIONS:
            h1 = reduce(EmpiricalHistogram.merge,
                        [w[f"upto_{frac}"] for w in rows])
            h2 = reduce(EmpiricalHistogram.merge,
                        [w[f"upto2_{frac}"] for w in rows])
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
    _write_path_files(out_dir, results)
    return estimates


# ---------------------------------------------------------------------------
# scenario: localization


def _localization_cells(config: ScenarioConfig):
    burn = config.option("burn_in", 200.0)
    if burn <= 0.0:
        raise ConfigError("field 'burn_in': must be > 0, the convergence "
                          "window of the localization kind")
    landscape = classify_landscape(config.potential)
    shared = {
        "landscape": landscape,
        "traps": [(p.x, p.value) for p in landscape.traps],
        "tolerance": config.option("tolerance", 0.15),
        "window": min(burn, 0.25 * config.horizon),
        "grid": np.linspace(0.0, config.horizon, 41),
    }
    return [{"process": process, "b": b, **shared}
            for b, process in enumerate(config.processes())]


def _localization_run(config: ScenarioConfig, cell, task):
    traps, tol, grid = cell["traps"], cell["tolerance"], cell["grid"]
    n_saved = _saved_path_count(config)
    rows, paths = [], []
    for rep, path in enumerate(_paths(config, cell, task), task["lo"]):
        if rep < n_saved:
            paths.append((rep, _own(path)))
        xs = _state_on_grid(path, grid)
        if traps:
            dmin = np.min([circle_dist(xs, tx) for tx, _ in traps], axis=0)
            curve = (dmin < tol).astype(int).tolist()
            d_final = float(min(circle_dist(float(path.x[-1]), tx)
                                for tx, _ in traps))
        else:
            curve = [0] * grid.size
            d_final = math.inf
        x_star = detect_convergence(path, cell["landscape"], cell["window"],
                                    tol)
        trap_value = None
        if x_star is not None:
            trap_value = float(config.potential.value(x_star))
        rows.append({"d_final": d_final, "u_final": float(path.u[-1]),
                     "converged_to": x_star, "trap_value": trap_value,
                     "curve": curve})
    return {"rows": rows, "paths": paths}


def _localization_finalize(config: ScenarioConfig, cells, results, out_dir):
    u_threshold = config.option("u_threshold", -100.0)
    estimates: Dict[str, Any] = {"kind": "localization", "per_process": {}}
    plot_rows = []
    for cell, chunks in zip(cells, results):
        rows = [row for r in chunks for row in r["rows"]]
        curves = np.array([row["curve"] for row in rows], dtype=float)
        fraction_curve = curves.mean(axis=0)
        for t, f in zip(cell["grid"], fraction_curve):
            plot_rows.append((cell["process"], float(t), float(f)))
        n_ok = 0
        for row in rows:
            if row["converged_to"] is None or \
                    row["d_final"] >= cell["tolerance"]:
                continue
            if row["trap_value"] < 0 and row["u_final"] < u_threshold:
                n_ok += 1
            elif row["trap_value"] > 0 and row["u_final"] > -u_threshold:
                n_ok += 1
        estimates["per_process"][cell["process"]] = {
            "n_replicas": len(rows),
            "n_locked": n_ok,
            "fraction_locked": n_ok / max(1, len(rows)),
            "final_fraction_near_trap": float(fraction_curve[-1]),
        }
    _write_plotdata(out_dir, "localization_fraction",
                    ["process", "t", "fraction_near_trap"], plot_rows)
    _write_path_files(out_dir, results)
    return estimates


# ---------------------------------------------------------------------------
# scenario: metastability


def _metastability_cells(config: ScenarioConfig):
    """One cell per (process, M), in seed block = cell index.  Every cell
    carries the one level geometry, built here, so an eta above the
    potential's level margin fails before any task runs.  Each cell whose
    M * eta <= 1, where the escape bound's hypothesis fails, warns here,
    in the calling process."""
    eta = config.option("eta", 1.0 / 3.0)
    try:
        geometry = compute_level_geometry(config.potential, eta=eta)
    except ConfigError as exc:
        raise ConfigError(f"field 'eta': {exc}") from exc
    max_time = config.option("max_time", 500.0)
    m_grid = config.option("m_grid", (4.0, 8.0, 12.0, 16.0))
    cells = [{"process": process, "m": float(m), "geometry": geometry,
              "max_time": max_time}
             for process in config.processes() for m in m_grid]
    for b, cell in enumerate(cells):
        cell["b"] = b
        if cell["m"] * eta <= 1.0:
            warnings.warn(f"escape bound hypothesis M * eta > 1 fails for "
                          f"{cell['process']} at M = {cell['m']}",
                          HypothesisWarning)
    return cells


def _metastability_run(config: ScenarioConfig, cell, task):
    successes, censored = escape_hits(
        config.potential, cell["geometry"], cell["m"], cell["process"],
        seeds=_seeds(config, cell, task), first=task["lo"], lam=config.lam,
        dt=config.dt, max_time=cell["max_time"])
    return successes, task["hi"] - task["lo"], censored


def _metastability_finalize(config: ScenarioConfig, cells, results, out_dir):
    eta = cells[0]["geometry"].eta
    rows = []
    plot_rows = []
    for cell, chunks in zip(cells, results):
        successes, trials, censored = (sum(c) for c in zip(*chunks))
        process, m = cell["process"], cell["m"]
        bound = escape_bound(process, config.potential, m, eta,
                             config.lam if process == "pdmp" else None)
        rows.append({"m": m, "successes": successes, "trials": trials,
                     "censored": censored, **_wilson_row(successes, trials),
                     "bound": bound})
        plot_rows.append((process, m, rows[-1]["estimate"],
                          rows[-1]["wilson_low"], rows[-1]["wilson_high"],
                          bound))
    estimates: Dict[str, Any] = {"kind": "metastability", "eta": eta,
                                 "per_process": {}}
    for process, table in _by_process(cells, rows).items():
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


def _limit_cells(config: ScenarioConfig):
    """The diffusion in seed block 0, then the velocity-jump process at
    lambda_grid[j] in block 1 + j."""
    burn = _burn_in(config, 0.1 * config.horizon, math.inf, True)
    lam_grid = config.option("lambda_grid", (1.0, 10.0, 100.0))
    return [{"process": "diffusion", "b": 0, "lam": None, "burn_in": burn}] \
        + [{"process": "pdmp", "b": 1 + j, "lam": float(lam),
            "burn_in": burn} for j, lam in enumerate(lam_grid)]


def _limit_run(config: ScenarioConfig, cell, task):
    # Accelerated time: the jump process runs for lam * horizon.
    scale = 1.0 if cell["lam"] is None else cell["lam"]
    out = []
    for path in _paths(config, cell, task, horizon=scale * config.horizon,
                       lam=cell["lam"]):
        h = occupation_histogram(path, burn_in=scale * cell["burn_in"])
        out.append((h.weight, h.x_marginal()))
    return out


def _limit_finalize(config: ScenarioConfig, cells, results, out_dir):
    def _merged_marginal(chunks):
        rows = [row for r in chunks for row in r]
        weights = np.array([w for w, _ in rows])
        marginals = np.array([m for _, m in rows])
        return (weights[:, None] * marginals).sum(axis=0) / weights.sum()

    diff_marginal = _merged_marginal(results[0])
    table = []
    plot_rows = []
    for cell, chunks in zip(cells[1:], results[1:]):
        tv = 0.5 * float(np.abs(_merged_marginal(chunks)
                                - diff_marginal).sum())
        table.append({"lambda": cell["lam"], "tv_x_marginal": tv})
        plot_rows.append((cell["lam"], tv))
    decreasing = all(table[i]["tv_x_marginal"] >= table[i + 1]["tv_x_marginal"]
                     for i in range(len(table) - 1))
    _write_plotdata(out_dir, "pdmp_vs_diffusion",
                    ["lambda", "tv_x_marginal"], plot_rows)
    return {"kind": "pdmp-vs-diffusion", "table": table,
            "tv_decreasing_in_lambda": decreasing}


# ---------------------------------------------------------------------------
# scenario: drift


def _drift_cells(config: ScenarioConfig):
    """One cell per u0_grid[j], run once to max(t_grid) in seed block
    m * len(u0_grid) + j, with m the index of the first largest t: the
    seeds a run of the (t_grid[m], u0) cell alone would use.  Shorter t
    read the same paths."""
    kappa = config.option("kappa", 0.05)
    t_grid = config.option("t_grid", (50.0, 100.0, 200.0))
    u0_grid = config.option("u0_grid", (20.0, 40.0, 60.0))
    if min(t_grid) < config.dt:
        raise ConfigError(f"field 't_grid': every time must be >= dt "
                          f"{config.dt!r}, got {min(t_grid)!r}")
    first = t_grid.index(max(t_grid)) * len(u0_grid)
    return [{"u0": float(u0), "b": first + j, "kappa": kappa,
             "t_grid": t_grid} for j, u0 in enumerate(u0_grid)]


def _drift_run(config: ScenarioConfig, cell, task):
    return drift_samples(config.potential, cell["kappa"], config.x0,
                         cell["u0"], cell["t_grid"], dt=config.dt,
                         seeds=_seeds(config, cell, task))


def _drift_finalize(config: ScenarioConfig, cells, results, out_dir):
    kappa, t_grid = cells[0]["kappa"], cells[0]["t_grid"]
    # values[j][k] holds every replica of cells[j] at t_grid[k].
    values = [np.concatenate(chunks, axis=1) for chunks in results]
    per_t = []
    plot_rows = []
    for k, t in enumerate(t_grid):
        row = []
        for cell, cell_values in zip(cells, values):
            vals, u0 = cell_values[k], cell["u0"]
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size))
            ratio = est / math.exp(kappa * abs(u0))
            row.append({"u0": u0, "estimate": est, "std_error": se,
                        "ratio": ratio, "tail_flag": bool(_tail_heavy(vals))})
            plot_rows.append((float(t), u0, est, se, ratio))
        ratios = [c["ratio"] for c in row]
        ses = [c["std_error"] / math.exp(kappa * abs(c["u0"])) for c in row]
        nonincreasing = all(
            ratios[i + 1] <= ratios[i] + 2.0 * (ses[i] + ses[i + 1])
            for i in range(len(ratios) - 1))
        per_t.append({"t": float(t), "cells": row,
                      "passes": ratios[-1] <= 0.75,
                      "nonincreasing_to_2se": nonincreasing})
    _write_plotdata(out_dir, "drift_ratio",
                    ["t", "u0", "estimate", "std_error", "ratio"], plot_rows)
    return {"kind": "drift", "kappa": kappa, "per_t": per_t,
            "passes_some_t": any(row["passes"] for row in per_t)}


# ---------------------------------------------------------------------------
# scenario: doeblin


def _doeblin_cells(config: ScenarioConfig):
    """A side x side grid of starts over x and u; start s is seed block s
    for both processes."""
    side = math.isqrt(config.option("grid_points", 16))
    box = config.option("box", (math.pi - 1.0, math.pi + 1.0, -2.0, 2.0))
    starts = [(float(x), float(u))
              for x in np.linspace(0.0, TWO_PI, side, endpoint=False)
              for u in np.linspace(-2.0, 2.0, side)]
    return [{"process": process, "b": s, "x0": x0, "u0": u0, "box": box}
            for process in config.processes()
            for s, (x0, u0) in enumerate(starts)]


def _doeblin_run(config: ScenarioConfig, cell, task):
    # A diffusion replica records its start and its end only; dt is
    # unchecked, and may be <= 0, when only the velocity-jump process runs.
    every = round(config.horizon / config.dt) if config.dt > 0.0 else None
    paths = _paths(config, cell, task, x0=cell["x0"], u0=cell["u0"],
                   record_every=every)
    return doeblin_hits(paths, cell["box"]), task["hi"] - task["lo"]


def _doeblin_finalize(config: ScenarioConfig, cells, results, out_dir):
    rows = []
    plot_rows = []
    for cell, chunks in zip(cells, results):
        hits, trials = (sum(c) for c in zip(*chunks))
        rows.append({"x0": cell["x0"], "u0": cell["u0"], "hits": hits,
                     "trials": trials, **_wilson_row(hits, trials)})
        plot_rows.append((cell["process"], cell["x0"], cell["u0"],
                          rows[-1]["estimate"], rows[-1]["wilson_low"],
                          rows[-1]["wilson_high"]))
    estimates: Dict[str, Any] = {"kind": "doeblin", "per_process": {}}
    for process, table in _by_process(cells, rows).items():
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


def _hitting_cells(config: ScenarioConfig):
    """One cell per (process, eta fraction), in seed block = cell index.
    The target is the mid-level set at eta = fraction * delta."""
    base = compute_level_geometry(config.potential)
    record_every = config.option("record_every", 10)
    targets = []
    for frac in config.option("eta_fractions", (0.25, 0.5, 1.0)):
        eta = float(frac) * base.delta
        try:
            geometry = compute_level_geometry(config.potential, eta=eta)
        except ConfigError as exc:
            raise ConfigError(f"field 'eta_fractions': {exc}") from exc
        targets.append((eta, geometry.mid_level_set()))
    cells = [{"process": process, "eta": eta, "target": target,
              "kappa": base.kappa, "record_every": record_every}
             for process in config.processes() for eta, target in targets]
    return [dict(cell, b=b) for b, cell in enumerate(cells)]


def _hitting_run(config: ScenarioConfig, cell, task):
    paths = _paths(config, cell, task, x0=config.potential.argmin, u0=0.0,
                   record_every=cell["record_every"], until=[cell["target"]])
    return hitting_times(paths, cell["target"], config.horizon)


def _hitting_finalize(config: ScenarioConfig, cells, results, out_dir):
    rows = []
    plot_rows = []
    for cell, chunks in zip(cells, results):
        eta = cell["eta"]
        values = np.concatenate([np.asarray(v) for v, _ in chunks])
        cens = np.concatenate([np.asarray(c, dtype=bool) for _, c in chunks])
        floor = cell["kappa"] * math.sqrt(eta)
        row = {
            "eta": eta, "kappa_sqrt_eta": floor,
            "min": float(values.min()),
            "median": float(np.median(values)),
            "n": int(values.size),
            "n_censored": int(cens.sum()),
        }
        if cell["process"] == "pdmp":
            row["violations"] = int((values < floor - 1e-12).sum())
        rows.append(row)
        plot_rows.append((cell["process"], eta, floor, row["min"],
                          row["median"]))
    estimates: Dict[str, Any] = {"kind": "hitting", "per_process": {}}
    for process, table in _by_process(cells, rows).items():
        estimates["per_process"][process] = {"table": table}
        if process == "pdmp":
            estimates["per_process"][process]["zero_violations"] = all(
                r["violations"] == 0 for r in table)
    _write_plotdata(out_dir, "hitting",
                    ["process", "eta", "kappa_sqrt_eta", "min_T", "median_T"],
                    plot_rows)
    return estimates


# ---------------------------------------------------------------------------
# scenario: refinement


def _refinement_cells(config: ScenarioConfig):
    """One cell in seed block 0; every replica runs the step sizes 4 dt,
    2 dt and dt on one Brownian path."""
    return [{"b": 0, "levels": config.dt_levels()}]


def _refinement_run(config: ScenarioConfig, cell, task):
    levels = cell["levels"]
    by_dt = simulate_terminal_u_coupled(config.potential, config.x0,
                                        config.u0, config.horizon, levels,
                                        seeds=_seeds(config, cell, task))
    return [by_dt[d] for d in levels]


def _refinement_finalize(config: ScenarioConfig, cells, results, out_dir):
    levels = cells[0]["levels"]
    # terminal[k] holds every replica's U_horizon at levels[k].
    terminal = [np.concatenate(per_level) for per_level in zip(*results[0])]
    differences = []
    plot_rows = []
    for k in range(len(levels) - 1):
        d = terminal[k] - terminal[k + 1]
        mean = float(d.mean())
        se = float(d.std(ddof=1) / math.sqrt(d.size)) if d.size > 1 else None
        differences.append({"dt_coarse": levels[k], "dt_fine": levels[k + 1],
                            "mean": mean, "std_error": se})
        plot_rows.append((levels[k], levels[k + 1], mean,
                          "" if se is None else se))
    # Under first-order weak error E[U(dt)] = E[U] + C dt + o(dt), the
    # ratio of differences k and k + 1 tends to (dt_k - dt_k+1) /
    # (dt_k+1 - dt_k+2): 2 for step halving.
    ratios = [a["mean"] / b["mean"] if b["mean"] != 0.0 else None
              for a, b in zip(differences, differences[1:])]
    _write_plotdata(out_dir, "refinement",
                    ["dt_coarse", "dt_fine", "mean_difference", "std_error"],
                    plot_rows)
    return {"kind": "refinement", "differences": differences,
            "ratios": ratios}


# ---------------------------------------------------------------------------
# task dispatch


class _Kind(NamedTuple):
    cells: Callable[[ScenarioConfig], List[Dict[str, Any]]]
    run: Callable
    finalize: Callable


_KINDS = {
    "ergodic": _Kind(_ergodic_cells, _ergodic_run, _ergodic_finalize),
    "localization": _Kind(_localization_cells, _localization_run,
                          _localization_finalize),
    "metastability": _Kind(_metastability_cells, _metastability_run,
                           _metastability_finalize),
    "pdmp-vs-diffusion": _Kind(_limit_cells, _limit_run, _limit_finalize),
    "drift": _Kind(_drift_cells, _drift_run, _drift_finalize),
    "doeblin": _Kind(_doeblin_cells, _doeblin_run, _doeblin_finalize),
    "hitting": _Kind(_hitting_cells, _hitting_run, _hitting_finalize),
    "refinement": _Kind(_refinement_cells, _refinement_run,
                        _refinement_finalize),
}


def _execute_task(payload):
    """Worker entry point: rebuild the config and run one task."""
    config_dict, cell, task = payload
    try:
        config = scenario_from_dict(config_dict)
        return {"ok": True,
                "result": _KINDS[config.kind].run(config, cell, task)}
    except Exception:
        return {"ok": False, "error": traceback.format_exc()}


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
    """Write the raw paths that the chunks of a path-producing kind kept.

    Each chunk result holds ``paths``, the (replica, path) pairs of its
    replicas below _saved_path_count(config).  A diffusion trajectory
    goes to ``trajectory_<replica>.csv`` and a velocity-jump event log to
    ``events_<replica>.csv``.  Nothing is simulated here, so a saved
    replica whose task failed gets no file.
    """
    for chunks in results:
        for r in chunks:
            for rep, path in r["paths"]:
                if isinstance(path, Trajectory):
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

    kind = _KINDS[config.kind]
    cells = kind.cells(config)
    chunks = replica_chunks(config.replicas, worker_count(config.replicas))
    tasks = [(c, lo, hi) for c in range(len(cells)) for lo, hi in chunks]
    config_dict = config.to_dict()
    payloads = [(config_dict, cells[c], {"lo": lo, "hi": hi})
                for c, lo, hi in tasks]
    workers = worker_count(len(tasks))

    if workers == 1:
        outcomes = [_execute_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_task, payloads))

    failures = []
    results: List[list] = [[] for _ in cells]
    failed_replicas = 0
    total_replicas = 0
    for (c, lo, hi), outcome in zip(tasks, outcomes):
        total_replicas += hi - lo
        if outcome["ok"]:
            results[c].append(outcome["result"])
        else:
            failed_replicas += hi - lo
            failures.append(outcome["error"])

    if failed_replicas > 0.01 * total_replicas:
        _finish_manifest(config, out_dir, len(tasks), workers, started,
                         failures, estimates={"kind": config.kind,
                                              "aborted": True})
        raise RuntimeError(
            f"{failed_replicas}/{total_replicas} replicas failed; "
            f"see manifest in {out_dir}\n" + "\n".join(failures[:3]))

    estimates = kind.finalize(config, cells, results, out_dir)
    estimates["failures"] = len(failures)
    return _finish_manifest(config, out_dir, len(tasks), workers, started,
                            failures, estimates)


def _finish_manifest(config, out_dir, n_tasks, workers, started, failures,
                     estimates) -> RunManifest:
    write_json(os.path.join(out_dir, "estimates.json"), estimates)
    files = hash_inventory(out_dir)
    manifest = RunManifest(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        version=__version__,
        seed_scheme=_SEED_SCHEME,
        n_tasks=n_tasks,
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
