"""Command-line interface.

Subcommands:

* ``analyze <potential-file>``   -- landscape report as JSON on stdout
* ``simulate``                   -- one path, written as CSV
* ``run <scenario-file>``        -- full scenario with artifacts
* ``replay <manifest.json>``     -- re-run and compare artifact hashes

Exit codes: 0 on success, 2 for configuration/usage errors, 1 for
runtime failures (including a replay mismatch).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

from .config import load_scenario
from .diffusion import DiffusionState, simulate_diffusion
from .errors import CirclelabError, ConfigError
from .io import write_events_csv, write_trajectory_csv
from .landscape import (
    classify_landscape,
    compute_level_geometry,
    validate_assumptions,
)
from .pdmp import PdmpState, simulate_pdmp
from .potential import load_potential
from .runner import replay, run_scenario

__all__ = ["main"]


def _cmd_analyze(args) -> int:
    potential = load_potential(args.potential)
    landscape = classify_landscape(potential)
    report = {
        "potential": potential.to_record(),
        "critical_points": [
            {"x": p.x, "value": p.value, "kind": p.kind, "order": p.order}
            for p in landscape.points
        ],
        "floor": [{"x": p.x, "value": p.value} for p in landscape.floor],
        "traps": [{"x": p.x, "value": p.value} for p in landscape.traps],
    }
    try:
        geometry = compute_level_geometry(potential)
        report["delta"] = geometry.delta
        report["eta"] = geometry.eta
        report["kappa"] = geometry.kappa
        report["wells"] = len(geometry.wells)
    except CirclelabError as exc:
        report["geometry_error"] = str(exc)
    assumptions = validate_assumptions(potential)
    report["assumptions"] = {
        "ok": assumptions.ok,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in assumptions.checks],
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _check_simulate_flags(args) -> None:
    """ConfigError naming the first flag the simulators would refuse."""
    pdmp = args.process == "pdmp"
    for flag, ok, need in (
            ("--x0", math.isfinite(args.x0), "finite"),
            ("--u0", math.isfinite(args.u0), "finite"),
            ("--horizon", 0.0 < args.horizon < math.inf, "finite and > 0"),
            ("--lambda", not pdmp or 0.0 < getattr(args, "lambda") < math.inf,
             "finite and > 0"),
            ("--dt", pdmp or 0.0 < args.dt <= args.horizon,
             "> 0 and at most --horizon"),
            ("--record-every", pdmp or args.record_every >= 1, ">= 1")):
        if not ok:
            value = vars(args)[flag[2:].replace("-", "_")]
            raise ConfigError(f"{flag}: must be {need}, got {value!r}")


def _cmd_simulate(args) -> int:
    _check_simulate_flags(args)
    potential = load_potential(args.potential)
    os.makedirs(args.out, exist_ok=True)
    if args.process == "diffusion":
        path = simulate_diffusion(
            potential, DiffusionState(args.x0, args.u0), args.horizon,
            dt=args.dt, seed=args.seed, record_every=args.record_every)
        out_file = os.path.join(args.out, "trajectory_0.csv")
        write_trajectory_csv(out_file, path)
        n_rows = len(path.times)
    else:
        path = simulate_pdmp(
            potential, getattr(args, "lambda"),
            PdmpState(args.x0, args.u0, args.y0), args.horizon,
            seed=args.seed)
        out_file = os.path.join(args.out, "events_0.csv")
        write_events_csv(out_file, path)
        n_rows = len(path.times)
    terminal = path.terminal_state
    json.dump({"file": out_file, "rows": int(n_rows),
               "terminal": {"x": terminal.x, "u": terminal.u}},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    manifest = run_scenario(config, out_dir=args.out)
    json.dump({"out_dir": args.out or config.out_dir,
               "config_hash": manifest.config_hash,
               "n_tasks": manifest.n_tasks,
               "workers_used": manifest.workers_used,
               "wall_clock_seconds": manifest.wall_clock_seconds,
               "files": sorted(manifest.files)},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_replay(args) -> int:
    if args.work_dir is not None:
        identical, report = replay(args.manifest, args.work_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="circlelab-replay-") as tmp:
            identical, report = replay(args.manifest,
                                       os.path.join(tmp, "run"))
    json.dump({"identical": identical, "files": report},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if identical else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlelab",
        description="Simulation laboratory for self-interacting processes "
                    "on the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="classify the landscape of a potential file")
    p_analyze.add_argument("potential", help="potential file (flat or JSON)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="simulate a single path")
    p_sim.add_argument("--potential", required=True)
    p_sim.add_argument("--process", choices=("diffusion", "pdmp"),
                       default="diffusion")
    p_sim.add_argument("--lambda", type=float, default=1.0,
                       help="constant jump rate (pdmp only)")
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--horizon", type=float, default=100.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--x0", type=float, default=0.0)
    p_sim.add_argument("--u0", type=float, default=0.0)
    p_sim.add_argument("--y0", type=int, choices=(-1, 1), default=1)
    p_sim.add_argument("--record-every", type=int, default=100)
    p_sim.add_argument("--out", default="run")
    p_sim.set_defaults(func=_cmd_simulate)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="scenario file (key=value or JSON)")
    p_run.add_argument("--out", default=None,
                       help="override the scenario's output directory")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser(
        "replay", help="re-run a manifest and compare artifact hashes")
    p_replay.add_argument("manifest", help="path to manifest.json")
    p_replay.add_argument("--work-dir", default=None,
                          help="directory for the replayed run "
                               "(default: temporary)")
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CirclelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
