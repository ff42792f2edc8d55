"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
- run.py emits exactly the end-to-end metrics (--trace 0) and the
  per-layer metrics (--trace 1) that BENCHMARK.json names, each with its
  unit, and the outputs pass their check;
- the work counts of two traced runs of one seed are identical;
- a deliberately corrupted output fails the workload's check and counts
  all of the unit's work as failed;
and that run.py exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = ("diffusion.replica_steps", "diffusion.calls", "pdmp.calls",
         "pdmp.jumps_landscape", "pdmp.jumps_constant", "pdmp.proposals",
         "stats.hist_calls", "stats.hist_segments", "landscape.calls",
         "potential.scalar_evals", "control.plans", "runner.tasks",
         "config.parse_calls")


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, spec: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(set(got) ^ set(want))}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), f"{label}: {name}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label


def corrupted_outputs_fail(workload: str) -> None:
    """Corrupt one workload's output in flight; the check must catch it."""
    import circlelab.control
    import circlelab.runner
    import workloads

    def corrupt(est):
        if workload == "localize":
            est["per_process"]["pdmp"]["fraction_locked"] = 0.5
        elif workload == "drift-wide":
            est["per_t"][-1]["nonincreasing_to_2se"] = False
        else:
            est["per_process"]["pdmp"]["tv_replica_pairs"][0] = 0.2
        return est

    if workload == "steer":
        real = circlelab.control.integrate_velocity_schedule

        def off_target(pot, sched, z0):
            end = real(pot, sched, z0)
            return circlelab.PdmpState(end.x, end.u + 0.1, end.y)

        circlelab.control.integrate_velocity_schedule = off_target
        try:
            pots = workloads.setup("steer", 7, tiny=True)
            res = workloads.run_steer_unit(pots, 7, tiny=True)
        finally:
            circlelab.control.integrate_velocity_schedule = real
    else:
        real = circlelab.runner.write_json

        def write(path, obj):
            if os.path.basename(path) == "estimates.json":
                obj = corrupt(obj)
            return real(path, obj)

        circlelab.runner.write_json = write
        try:
            config = workloads.setup(workload, 7, tiny=True)
            with tempfile.TemporaryDirectory(dir=HERE) as work:
                res = workloads.run_scenario_unit(workload, config, work)
        finally:
            circlelab.runner.write_json = real
    assert res["problems"] and res["failed"] >= 1, (workload, res)
    if workload != "steer":
        assert res["failed"] == res["attempted"], (workload, res)


def bare_directory_fails(spec_path: str) -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        shutil.copy(spec_path, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__",
                                                      "tmp*"))
        proc = run_bench("localize", 0, cwd=bare)
    assert proc.returncode != 0, "run.py succeeded without package sources"
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{"), proc.stdout


def main() -> int:
    sys.path[:0] = [HERE, SRC]
    os.environ["CIRCLELAB_WORKERS"] = "1"
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for entry in spec["workloads"]:
        name = entry["name"]
        check_result(last_json(run_bench(name, 0)), spec["end_to_end"],
                     f"{name} trace 0")
        first = last_json(run_bench(name, 1))
        second = last_json(run_bench(name, 1))
        check_result(first, spec["per_layer"], f"{name} trace 1")
        for key in EXACT:
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            assert a == b, f"{name}: {key} {a} != {b} across two runs"
        corrupted_outputs_fail(name)
        print(f"ok {name}")
    bare_directory_fails(spec_path)
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
