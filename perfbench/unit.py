"""One measured unit in a fresh interpreter: set-up, then one workload run.

run.py starts this script once per unit, with PYTHONPATH pointing at the
package sources and CIRCLELAB_WORKERS fixed, and reads the one JSON object
it prints.  Modes: ``setup`` (set-up only), ``plain`` (one untraced run),
``traced`` (one run with spans and boundary counters; spans are written
to ``spans_path`` when the run ends) and ``counted`` (one run counting
scalar evaluator calls).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    name, seed, tiny = spec["workload"], int(spec["seed"]), spec["tiny"]

    import workloads

    state = workloads.setup(name, seed, tiny)
    out = {"setup_s": time.perf_counter() - _T0}
    if spec["mode"] == "setup":
        print(json.dumps(out))
        return

    tracer = None
    if spec["mode"] in ("traced", "counted"):
        import tracing

        tracer = tracing.Tracer()
        if spec["mode"] == "traced":
            tracing.instrument_spans(tracer)
        else:
            tracing.instrument_scalar_counts(tracer)
    try:
        if name == "steer":
            out.update(workloads.run_steer_unit(state, seed, tiny))
        else:
            out.update(workloads.run_scenario_unit(name, state,
                                                   spec["work_dir"]))
            record = workloads.scenario_record(name, seed, tiny)
            out["replica_time"] = workloads.replica_time(name, record)
            out["needed_replica_time"] = workloads.needed_replica_time(
                name, record)
    finally:
        if tracer is not None:
            tracer.restore()

    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # single waited-for worker, not their sum.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + workers) / 1024.0

    import numpy
    import scipy

    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        out["layers"] = tracer.layer_times()
        out["counts"] = dict(tracer.counts)
        u_final = tracer.samples.get("pdmp.abs_u_final")
        out["abs_u_final_p50"] = statistics.median(u_final) if u_final else 0.0
        if spec["mode"] == "traced":
            tracer.dump(spec["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
