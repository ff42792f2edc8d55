"""circlelab benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload localize --seed 1 --seconds 20 --trace 0

Workloads: localize, drift-wide, ergodic-pdmp, steer (see README.md).
Each unit of work runs in a fresh interpreter (unit.py) that drives the
package the way a user does: ``run_scenario`` with CIRCLELAB_WORKERS set
to the number of usable CPUs, or the steering planners back to back.

--trace 0 repeats untraced units until --seconds have passed and reports
the end-to-end metrics, each the median over the run's units.
--trace 1 runs one untraced unit at all CPUs; then, at one worker, an
untraced and a traced unit side by side (so the tracing overhead is
measured on the same machine state) and a unit that counts scalar
evaluator calls; and reports the per-layer metrics.  The instrumented units' outputs must
hash-equal the untraced one-worker unit's.

Every unit's output is checked; a wrong answer counts as failed work.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Provenance and each unit's output hash go
to the lines above it and to perfbench/_work/result-*.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("localize", "drift-wide", "ergodic-pdmp", "steer")

# The run must end within 180 s; leave room for reporting.
RUN_DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "replica_time_per_s": "t/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "diffusion.self_s": "s",
    "diffusion.replica_steps": "count",
    "diffusion.ns_per_replica_step": "ns",
    "diffusion.batch_width_mean": "replicas",
    "diffusion.calls": "count",
    "pdmp.self_s": "s",
    "pdmp.calls": "count",
    "pdmp.jumps": "count",
    "pdmp.jumps_landscape": "count",
    "pdmp.jumps_constant": "count",
    "pdmp.us_per_jump": "us",
    "pdmp.proposals": "count",
    "pdmp.proposals_per_jump": "ratio",
    "pdmp.abs_u_final_p50": "u",
    "stats.hist_self_s": "s",
    "stats.hist_calls": "count",
    "stats.hist_segments": "count",
    "stats.us_per_segment": "us",
    "stats.detect_s": "s",
    "stats.tv_s": "s",
    "landscape.self_s": "s",
    "landscape.calls": "count",
    "potential.scalar_evals": "count",
    "potential.scalar_evals_per_plan": "count",
    "control.plan_diffusion_s": "s",
    "control.plan_pdmp_s": "s",
    "control.integrate_s": "s",
    "control.plans": "count",
    "control.useful_plan_frac": "ratio",
    "control.plans_per_s": "1/s",
    "control.plan_ms_p50": "ms",
    "control.plan_ms_p75": "ms",
    "runner.self_s": "s",
    "runner.tasks": "count",
    "runner.useful_sim_frac": "ratio",
    "runner.speedup_nproc": "ratio",
    "config.parse_calls": "count",
    "config.parse_s": "s",
    "io.write_s": "s",
    "io.hash_s": "s",
    "io.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _kill(proc) -> None:
    """Stop a unit and the workers it started, and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


class Bench:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.units = []

    def unit(self, mode: str, workers: int) -> dict:
        """Run one unit in a fresh interpreter and return its report."""
        return self._finish(self._start(mode, workers))

    def pair(self, first, second):
        """Run two one-worker units side by side, so both see the same
        machine; on one CPU they run one after the other."""
        if self.nproc < 2:
            return self.unit(*first), self.unit(*second)
        a = self._start(*first)
        try:
            b = self._start(*second)
        except BaseException:
            _kill(a[0])
            raise
        try:
            report = self._finish(a)
        except BaseException:
            _kill(b[0])
            raise
        return report, self._finish(b)

    def _start(self, mode: str, workers: int):
        a = self.args
        spans_path = os.path.join(
            WORK, f"spans-{a.workload}-seed{a.seed}.json")
        spec = {"workload": a.workload, "seed": a.seed, "tiny": a.tiny,
                "mode": mode, "work_dir": WORK, "spans_path": spans_path}
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, CIRCLELAB_WORKERS=str(workers),
                   PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        if self.elapsed() >= RUN_DEADLINE_S:
            raise HarnessError("out of time before a unit could start")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "unit.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        return proc, mode, workers

    def _finish(self, started) -> dict:
        proc, mode, workers = started
        try:
            stdout, stderr = proc.communicate(
                timeout=max(0.0, RUN_DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            _kill(proc)
            raise HarnessError(f"{mode} unit did not finish in time")
        if proc.returncode != 0:
            raise HarnessError(f"{mode} unit exited with {proc.returncode}:\n"
                               + stderr[-3000:])
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise HarnessError(f"{mode} unit printed no report:\n"
                               + stderr[-3000:]) from None
        report["mode"], report["workers"] = mode, workers
        if mode != "setup":
            self.units.append(report)
        return report

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def _median(values):
    return float(statistics.median(values))


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def end_to_end(bench: Bench) -> dict:
    """Untraced units at all CPUs until --seconds have passed."""
    units = []
    while not units or bench.elapsed() < bench.args.seconds:
        units.append(bench.unit("plain", bench.nproc))
    setups = [u["setup_s"] for u in units]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(bench.unit("setup", bench.nproc)["setup_s"])
    return {
        "wall_s": _median([u["wall_s"] for u in units]),
        "setup_s": _median(setups),
        "replica_time_per_s": _median(
            [u["replica_time"] / u["wall_s"] for u in units]),
        "peak_rss_mb": _median([u["peak_rss_mb"] for u in units]),
    }


def per_layer(bench: Bench) -> dict:
    """An untraced unit at all CPUs; then, at one worker, an untraced and
    a traced unit side by side, and a unit counting evaluator calls."""
    steer = bench.args.workload == "steer"
    wide = None if steer else bench.unit("plain", bench.nproc)
    plain, traced = bench.pair(("plain", 1), ("traced", 1))
    counted = bench.unit("counted", 1)
    for unit in (traced, counted):
        if unit["outputs_sha256"] != plain["outputs_sha256"]:
            unit["problems"].append(f"{unit['mode']} outputs differ from the "
                                    "untraced one-worker run")
    if wide is not None and wide["outputs_sha256"] != plain["outputs_sha256"]:
        wide["problems"].append("outputs depend on the worker count")

    layers = traced["layers"]
    counts = dict(traced["counts"], **counted["counts"])

    def self_s(layer):
        return layers.get(layer, (0.0, 0))[0]

    def calls(layer):
        return layers.get(layer, (0.0, 0))[1]

    def count(key):
        return counts.get(key, 0)

    steps = count("diffusion.replica_steps")
    jumps_l = count("pdmp.jumps_landscape")
    jumps_c = count("pdmp.jumps_constant")
    jumps = jumps_l + jumps_c
    proposals = count("pdmp.exp_draws") - count("pdmp.clock_draws")
    segments = count("stats.hist_segments")
    evals = count("potential.scalar_evals")
    m = {
        "diffusion.self_s": self_s("diffusion"),
        "diffusion.replica_steps": steps,
        "diffusion.ns_per_replica_step": _ratio(self_s("diffusion") * 1e9,
                                                steps),
        "diffusion.batch_width_mean": _ratio(count("diffusion.width_x_steps"),
                                             steps),
        "diffusion.calls": calls("diffusion"),
        "pdmp.self_s": self_s("pdmp"),
        "pdmp.calls": calls("pdmp"),
        "pdmp.jumps": jumps,
        "pdmp.jumps_landscape": jumps_l,
        "pdmp.jumps_constant": jumps_c,
        "pdmp.us_per_jump": _ratio(self_s("pdmp") * 1e6, jumps),
        "pdmp.proposals": proposals,
        "pdmp.proposals_per_jump": _ratio(proposals, jumps),
        "pdmp.abs_u_final_p50": traced["abs_u_final_p50"],
        "stats.hist_self_s": self_s("stats.hist"),
        "stats.hist_calls": calls("stats.hist"),
        "stats.hist_segments": segments,
        "stats.us_per_segment": _ratio(self_s("stats.hist") * 1e6, segments),
        "stats.detect_s": self_s("stats.detect"),
        "stats.tv_s": self_s("stats.tv"),
        "landscape.self_s": self_s("landscape"),
        "landscape.calls": calls("landscape"),
        "potential.scalar_evals": evals,
        "potential.scalar_evals_per_plan": 0.0,
        "control.plan_diffusion_s": self_s("control.plan_diffusion"),
        "control.plan_pdmp_s": self_s("control.plan_pdmp"),
        "control.integrate_s": self_s("control.integrate"),
        "control.plans": 0,
        "control.useful_plan_frac": 0.0,
        "control.plans_per_s": 0.0,
        "control.plan_ms_p50": 0.0,
        "control.plan_ms_p75": 0.0,
        "runner.self_s": self_s("runner"),
        "runner.tasks": traced.get("tasks", 0),
        "runner.useful_sim_frac": 0.0,
        "runner.speedup_nproc": 0.0,
        "config.parse_calls": calls("config.parse"),
        "config.parse_s": self_s("config.parse"),
        "io.write_s": self_s("io.write"),
        "io.hash_s": self_s("io.hash"),
        "io.bytes_written": count("io.bytes_written"),
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
    }
    if steer:
        # Plan latency and throughput come from the untraced unit.
        plan_s = plain["plan_s"]
        p50, p75 = 0.0, 0.0
        if len(plan_s) > 1:
            p50 = _median(plan_s)
            p75 = statistics.quantiles(plan_s, n=4)[2]
        m.update({
            "potential.scalar_evals_per_plan": _ratio(evals,
                                                      traced["attempted"]),
            "control.plans": traced["attempted"],
            "control.useful_plan_frac": _ratio(traced["landed"],
                                               traced["attempted"]),
            "control.plans_per_s": _ratio(plain["landed"], plain["wall_s"]),
            "control.plan_ms_p50": p50 * 1e3,
            "control.plan_ms_p75": p75 * 1e3,
        })
    else:
        m["runner.useful_sim_frac"] = _ratio(traced["needed_replica_time"],
                                             count("sim.replica_time"))
        m["runner.speedup_nproc"] = plain["wall_s"] / wide["wall_s"]
    return m


def provenance(bench: Bench) -> dict:
    versions = bench.units[0]["versions"] if bench.units else {}
    return {
        "workload": bench.args.workload, "seed": bench.args.seed,
        "trace": bench.args.trace, "seconds": bench.args.seconds,
        "nproc": bench.nproc, "cpu_model": _cpu_model(),
        "platform": platform.platform(), **versions,
        "workers": sorted({u["workers"] for u in bench.units}),
        "git_commit": _git_commit(), "src_sha256": _tree_sha256(SRC),
        "units": [{"mode": u["mode"], "workers": u["workers"],
                   "wall_s": u["wall_s"], "setup_s": u["setup_s"],
                   "outputs_sha256": u["outputs_sha256"],
                   "problems": u["problems"]} for u in bench.units],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _tree_sha256(top: str) -> str:
    """Content hash of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, top).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the harness self-test only")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "circlelab", "__init__.py")):
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    bench = Bench(args)
    try:
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(u["attempted"] for u in bench.units)
    failed = sum(u["failed"] for u in bench.units)
    problems = [p for u in bench.units for p in u["problems"]]
    hashes = {u["outputs_sha256"] for u in bench.units}
    if len(hashes) > 1:
        problems.append("units of one run wrote different outputs")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    prov = provenance(bench)
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "problems": problems, **result}, fh,
                  indent=2)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':34s} {_ratio(failed, attempted):>16.6g} ratio")
    for problem in problems:
        print(f"check failed: {problem}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
