"""Small runs of every scenario kind and their recorded artifact digests.

``RUNS`` holds one scenario record per kind.  Together they cover a
drift batch 600 wide (the masked wrap of wide EM batches), a potential
with a k = 3 harmonic and sine terms (b_k != 0), the velocity-jump
process at |u| in the tens (localization from u0 = 30) and saved path
files of both processes (ergodic and localization).
``bit_identity.json`` holds the ``hash_inventory`` of each run, with
the numpy version and the platform it was recorded on: the digests
depend on numpy's PCG64 and ziggurat code and on the platform's libm.

``tests/test_bit_identity.py`` reruns the records and compares.  A change
that moves bits on purpose regenerates the file from the repository
root and lists the moved entries in its change notes::

    PYTHONPATH=src python tests/bit_identity.py --write

``--check`` compares without writing, and ``--workers N`` runs the
records on N workers (the digests do not depend on it).
"""

import argparse
import json
import os
import platform
import sys
import tempfile

import numpy as np

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bit_identity.json")

COSINE = {"a0": 0.0, "harmonics": [[1, 1.0, 0.0]]}
MIXTURE = {"a0": -0.2, "harmonics": [[1, 1.0, 0.0], [2, 1.0, 0.0]]}
SKEWED = {"a0": 0.0, "harmonics": [[1, 1.0, 0.5], [3, 0.3, -0.4]]}

RUNS = {
    "drift": {
        "kind": "drift", "potential": SKEWED, "dt": 2e-3, "replicas": 600,
        "x0": 0.5, "root_seed": 71,
        "options": {"t_grid": [0.4, 0.2], "u0_grid": [-3.0, 6.0]}},
    "localization": {
        "kind": "localization", "potential": SKEWED, "process": "both",
        "dt": 2e-3, "horizon": 2.0, "replicas": 4, "x0": 1.0, "u0": 30.0,
        "root_seed": 72,
        "options": {"burn_in": 0.5, "save_paths": 3, "record_every": 7}},
    "doeblin": {
        "kind": "doeblin", "potential": MIXTURE, "process": "both",
        "dt": 2e-3, "horizon": 0.5, "replicas": 20, "y0": -1,
        "root_seed": 73,
        "options": {"grid_points": 4, "box": [5.0, 1.0, -2.0, 2.0]}},
    "hitting": {
        "kind": "hitting", "potential": SKEWED, "process": "both",
        "lambda": 0.5, "dt": 2e-3, "horizon": 1.0, "replicas": 20,
        "root_seed": 74,
        "options": {"record_every": 3, "eta_fractions": [0.5, 1.0]}},
    "refinement": {
        "kind": "refinement", "potential": SKEWED, "dt": 2e-3,
        "horizon": 0.8, "replicas": 40, "x0": 0.3, "u0": 2.0,
        "root_seed": 75},
    "ergodic": {
        "kind": "ergodic", "potential": MIXTURE, "process": "both",
        "dt": 2e-3, "horizon": 3.0, "replicas": 6, "u0": 1.0,
        "root_seed": 76, "options": {"burn_in": 0.5, "save_paths": 2}},
    "pdmp-vs-diffusion": {
        "kind": "pdmp-vs-diffusion", "potential": COSINE, "dt": 2e-3,
        "horizon": 3.0, "replicas": 6, "root_seed": 77,
        "options": {"lambda_grid": [1.0, 4.0]}},
    "metastability": {
        "kind": "metastability", "potential": COSINE, "process": "both",
        "dt": 2e-3, "replicas": 70, "root_seed": 78,
        "options": {"m_grid": [8.0, 16.0], "max_time": 10.0}},
}


def environment():
    """What the digests depend on besides the code."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def run_digests(workers):
    """hash_inventory of every record in RUNS, by name, run on `workers`
    workers."""
    from circlelab import hash_inventory, run_scenario, scenario_from_dict

    saved = os.environ.get("CIRCLELAB_WORKERS")
    os.environ["CIRCLELAB_WORKERS"] = str(workers)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            digests = {}
            for name, record in RUNS.items():
                out = os.path.join(tmp, name)
                run_scenario(scenario_from_dict({**record, "out_dir": out}))
                digests[name] = hash_inventory(out)
            return digests
    finally:
        if saved is None:
            del os.environ["CIRCLELAB_WORKERS"]
        else:
            os.environ["CIRCLELAB_WORKERS"] = saved


def read_recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def differences(recorded, digests):
    """'kind/file' for every digest that differs, is missing or is new."""
    out = []
    for name in sorted(set(recorded) | set(digests)):
        old, new = recorded.get(name, {}), digests.get(name, {})
        out += [f"{name}/{f}" for f in sorted(set(old) | set(new))
                if old.get(f) != new.get(f)]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="record the digests in bit_identity.json")
    mode.add_argument("--check", action="store_true",
                      help="compare with bit_identity.json")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    digests = run_digests(args.workers)
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "digests": digests}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    moved = differences(read_recorded()["digests"], digests)
    for entry in moved:
        print("moved:", entry)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
