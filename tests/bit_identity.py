"""Small runs of every scenario kind and their recorded artifact digests.

``RUNS`` holds one scenario record per kind.  Together they cover a
drift batch 600 wide (the masked wrap of wide EM batches), a potential
with a k = 3 harmonic and sine terms (b_k != 0), the velocity-jump
process at |u| in the tens (localization from u0 = 30) and saved path
files of both processes (ergodic and localization).
``bit_identity.json`` holds the ``hash_inventory`` of each run, with
the numpy version and the platform it was recorded on: the digests
depend on numpy's PCG64 and ziggurat code and on the platform's libm.
Its ``control`` record holds one digest per fixed steering plan in
``PLANS``, for both processes: the bytes of the schedule's breakpoints
and values and the landing state of its integration.  Its ``pdmp``
record holds one digest per raw velocity-jump event log in
``pdmp_digests``: self-interacting logs of three potentials from three
starts at two rates, a frozen-drive log, a log stopped at targets, and
the masses of the nine ergodic windows of one long cosine log.  Its
``diffusion`` record holds one digest per raw Euler-Maruyama run in
``diffusion_digests``: ensembles of three potentials from two starts at
four widths, across both loops, the masked wrap and noise-block edges;
the coupled step-size levels of each potential, at two widths and with
a factor of 3; and batches of frozen-drive exit trials from 1 to 600
wide, with each trial's final arc coordinate (``exit_digests``).

``tests/test_bit_identity.py`` reruns the records and compares.  A change
that moves bits on purpose regenerates the file from the repository
root and lists the moved entries in its change notes::

    PYTHONPATH=src python tests/bit_identity.py --write

``--check`` compares without writing, lists each moved entry and prints
one summary line when none moved; ``--workers N`` runs the records on N
workers (the digests do not depend on it).

``--mutate`` checks that the record can see each engine: for each sum
(F, F' or G) of each generated engine in ``ENGINES`` it compiles that
engine with the sum scaled by 1 + 2**-52, checks whether the engine's
raw output on small fixed inputs moved, and lists the entries of the
record that moved.  It exits 1 when a mutation moved its engine's raw
output but no entry.  It takes about a minute on one worker.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import sys
import tempfile
from unittest import mock

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


# Steering targets at criterion 8's epsilon and switch rate, by potential:
# (x0, u0, x1, t, c), with u1 = u0 + t * c * (max F if c >= 0 else -min F).
PLANS = {
    "cosine": (COSINE, (1.0, 0.5, 4.0, 12.0, -0.3)),
    "mixture": (MIXTURE, (1.0, 0.5, 4.0, 12.0, 0.2)),
    "skewed": (SKEWED, (1.0, 0.5, 4.0, 12.0, 0.2)),
}


def control_digests():
    """sha256 of each plan in PLANS, by process and potential."""
    from circlelab import DiffusionState, PdmpState, PeriodicPotential
    from circlelab.control import (
        integrate_diffusion_control,
        integrate_velocity_schedule,
        plan_diffusion_control,
        plan_pdmp_velocity_schedule,
    )

    digests = {}
    for name, (record, (x0, u0, x1, t, c)) in PLANS.items():
        pot = PeriodicPotential.from_record(record)
        u1 = u0 + t * c * (pot.max_value if c >= 0.0 else -pot.min_value)
        z0 = DiffusionState(x0, u0)
        sched = plan_diffusion_control(pot, z0, DiffusionState(x1, u1), t,
                                       epsilon=0.01)
        end = integrate_diffusion_control(pot, sched, z0)
        plans = {"diffusion": (sched, (end.x, end.u))}
        z0 = PdmpState(x0, u0, 1)
        sched = plan_pdmp_velocity_schedule(pot, z0, PdmpState(x1, u1, -1), t,
                                            switch_rate=1000.0)
        end = integrate_velocity_schedule(pot, sched, z0)
        plans["pdmp"] = (sched, (end.x, end.u, end.y))
        for process, (sched, landing) in plans.items():
            blob = (sched.breakpoints.tobytes() + sched.values.tobytes()
                    + repr(landing).encode())
            digests[f"{process}-{name}"] = hashlib.sha256(blob).hexdigest()
    return digests


# Velocity-jump event logs: potentials, start levels u0 and rates lambda,
# all from x0 = 1 at velocity +1 over PDMP_HORIZON.
PDMP_POTENTIALS = {"cosine": COSINE, "mixture": MIXTURE, "skewed": SKEWED}
PDMP_U0 = (30.0, -5.0, 0.0)
PDMP_LAMBDAS = (0.25, 1.0)
PDMP_HORIZON = 200.0
# The ergodic-window log: the cosine at lambda = 0.25 from u0 = 0.
ERGODIC_HORIZON = 1e4


def _log_digest(log):
    """sha256 of an event log's rows, causes and hit."""
    blob = b"".join(a.tobytes() for a in (log.times, log.x, log.u, log.y))
    blob += repr((log.causes, log.hit_time, log.hit_target)).encode()
    return hashlib.sha256(blob).hexdigest()


def pdmp_digests():
    """sha256 of each raw event log and ergodic window mass, by name."""
    from circlelab import (
        ArcSet,
        PdmpState,
        PeriodicPotential,
        scenario_from_dict,
        simulate_pdmp,
        simulate_pdmp_driven,
    )
    from circlelab.runner import _ergodic_cells
    from circlelab.stats import occupation_histogram

    digests = {}
    pots = {name: PeriodicPotential.from_record(record)
            for name, record in PDMP_POTENTIALS.items()}
    for name, pot in pots.items():
        for u0 in PDMP_U0:
            for lam in PDMP_LAMBDAS:
                log = simulate_pdmp(pot, lam, PdmpState(1.0, u0, 1),
                                    PDMP_HORIZON, seed=81)
                digests[f"self-{name}-u{u0:g}-lam{lam:g}"] = _log_digest(log)
    log = simulate_pdmp_driven(pots["skewed"], 0.5, -4.0, 1.0, -1,
                               PDMP_HORIZON, seed=82)
    digests["driven-skewed"] = _log_digest(log)
    # Target 0 is entered at t ~ 56, after about 140 events.
    targets = [ArcSet.from_endpoints([(4.5, 4.6)]),
               ArcSet.from_endpoints([(0.0, 0.3)])]
    log = simulate_pdmp(pots["mixture"], 0.5, PdmpState(1.0, 30.0, 1),
                        PDMP_HORIZON, seed=83, until=targets)
    digests["until-mixture"] = _log_digest(log)
    record = {"kind": "ergodic", "process": "pdmp", "potential": COSINE,
              "horizon": ERGODIC_HORIZON}
    windows = _ergodic_cells(scenario_from_dict(record))[0]["windows"]
    log = simulate_pdmp(pots["cosine"], 0.25, PdmpState(1.0, 0.0, 1),
                        ERGODIC_HORIZON, seed=84)
    for label, lo, hi in windows:
        h = occupation_histogram(log, burn_in=lo, t_max=hi)
        blob = h.masses.tobytes() + repr(h.weight).encode()
        digests[f"ergodic-{label}"] = hashlib.sha256(blob).hexdigest()
    return digests


# Euler-Maruyama ensembles: potentials, start levels u0 and batch widths
# with their step counts, all from x0 = 1 at dt = 1e-3.  Widths 22 and 64
# run the vector loop with 2048-step noise blocks, 300 with 1747-step
# blocks and 600 the masked wrap with 873-step blocks, so every run
# crosses a block edge.
DIFFUSION_U0 = (30.0, -5.0)
DIFFUSION_STEPS = {22: 2100, 64: 2100, 300: 1800, 600: 1000}
COUPLED_LEVELS = (4e-3, 2e-3, 1e-3)
# Coarse steps three fine steps long: a factor that is not a power of two.
COUPLED_LEVELS_3 = (3e-3, 1e-3)
# Frozen-drive exit trials at dt = 1e-3 up to 1.5: (drive, low, x_start,
# high) per potential, with drives of both signs and a mixture arc that
# crosses 0.  At widths 1, 8 and 600 replicas leave the batch in more
# than one 256-step block, and some are censored.
EXIT_CASES = {"cosine": (-1.5, 0.5, 1.5, 2.8), "mixture": (1.0, 5.5, 0.2, 1.2)}
EXIT_WIDTHS = (1, 8, 600)


def diffusion_digests():
    """sha256 of each raw ensemble, coupled-level run and exit batch, by
    name."""
    from circlelab import PeriodicPotential
    from circlelab.diffusion import (
        simulate_diffusion_ensemble,
        simulate_terminal_u_coupled,
    )
    from circlelab.seeding import derive_replica_seeds

    digests = {}
    pots = {name: PeriodicPotential.from_record(record)
            for name, record in PDMP_POTENTIALS.items()}
    for name, pot in pots.items():
        for u0 in DIFFUSION_U0:
            for width, steps in DIFFUSION_STEPS.items():
                ens = simulate_diffusion_ensemble(
                    pot, 1.0, u0, steps * 1e-3, dt=1e-3,
                    seeds=derive_replica_seeds(91, width), record_every=7)
                blob = ens.x.tobytes() + ens.u.tobytes()
                digests[f"ensemble-{name}-u{u0:g}-w{width}"] = (
                    hashlib.sha256(blob).hexdigest())
        # 2.4 holds 600 or 800 coarse steps, and 2400 fine steps span two
        # blocks.
        for label, width, dts in (("", 64, COUPLED_LEVELS),
                                  ("-w1", 1, COUPLED_LEVELS),
                                  ("-f3", 64, COUPLED_LEVELS_3)):
            levels = simulate_terminal_u_coupled(
                pot, 1.0, 30.0, 2.4, dts,
                seeds=derive_replica_seeds(92, width))
            blob = b"".join(levels[d].tobytes() for d in dts)
            digests[f"coupled-{name}{label}"] = (
                hashlib.sha256(blob).hexdigest())
    digests.update(exit_digests())
    return digests


def exit_digests():
    """sha256 of each exit batch's exit times, sides and final arc
    coordinates, by name."""
    from circlelab import PeriodicPotential
    from circlelab.diffusion import run_exit_trials
    from circlelab.seeding import derive_replica_seeds

    digests = {}
    exits = [("exit-skewed", "skewed", (2.0, 0.3, 1.2, 2.6), 93, 64, 2e-3,
              2.0)]
    exits += [(f"exit-{name}-w{width}", name, case, 94, width, 1e-3, 1.5)
              for name, case in EXIT_CASES.items() for width in EXIT_WIDTHS]
    for key, name, (drive, low, x_start, high), root, width, dt, t in exits:
        pot = PeriodicPotential.from_record(PDMP_POTENTIALS[name])
        trials = run_exit_trials(pot, drive, low, x_start, high,
                                 seeds=derive_replica_seeds(root, width),
                                 dt=dt, max_time=t)
        blob = (trials.exit_time.tobytes() + trials.exit_side.tobytes()
                + trials.final_s.tobytes())
        digests[key] = hashlib.sha256(blob).hexdigest()
    return digests


# The generated engines and the orders of the sums that ``--mutate``
# scales in each: -1 is G, 0 is F and 1 is F'.
ENGINES = {
    "em_scalar": (0, 1),
    "em_block": (0, 1),
    "em_masked": (0, 1),
    "exit_block": (1,),
    "thin_self": (-1, 1),
    "thin_frozen": (1,),
    "rk4_loop": (0, 1),
}
SUM_NAMES = {-1: "G", 0: "F", 1: "F'"}
# One ulp up at 1.0: a sum times this moves by one or two ulps.
ULP_UP = 1.0 + 2.0 ** -52


@contextlib.contextmanager
def mutated(engine, order):
    """While open, the generated function `engine` is compiled with each
    of its sums of `order` multiplied by ULP_UP right after the statements
    that form it; every other generated function is as written.  Only
    potentials built inside compile the mutated text."""
    from circlelab import diffusion
    from circlelab.potential import PeriodicPotential

    real_generated = PeriodicPotential._generated
    real_block = PeriodicPotential._sums_block
    real_lines = diffusion._sums_lines

    def block(self, x, sums, indent):
        text = real_block(self, x, sums, indent)
        if order in sums:
            name = sums[order]
            text += f"\n{' ' * indent}{name} = {name} * {ULP_UP!r}"
        return text

    def lines(potential, outs):
        setup, step = real_lines(potential, outs)
        if order in outs:
            name = outs[order]
            step = step + [f"multiply({name}, {ULP_UP!r}, {name})"]
        return setup, step

    def generated(self, name, source, *args):
        if name != engine:
            return real_generated(self, name, source, *args)
        with mock.patch.object(PeriodicPotential, "_sums_block", block), \
                mock.patch.object(diffusion, "_sums_lines", lines):
            return real_generated(self, name, source, *args)

    with mock.patch.object(PeriodicPotential, "_generated", generated):
        yield


def engine_outputs():
    """The raw output bytes of each engine of ENGINES on small fixed
    inputs, by engine name, from potentials built here."""
    from circlelab import (
        PdmpState,
        PeriodicPotential,
        simulate_pdmp,
        simulate_pdmp_driven,
    )
    from circlelab.control import _rk4_span
    from circlelab.diffusion import (
        _MASKED_WRAP_MIN,
        _SCALAR_PATH_MAX,
        run_exit_trials,
        simulate_diffusion_ensemble,
    )
    from circlelab.seeding import derive_replica_seeds

    def skewed():
        return PeriodicPotential.from_record(SKEWED)

    out = {}
    # Near u = 0 an ulp of F dt is not lost in an ulp of u; at u = 30 one
    # of u F' dt is not lost in one of x.
    for engine, width in (("em_scalar", 1),
                          ("em_block", _SCALAR_PATH_MAX + 1),
                          ("em_masked", _MASKED_WRAP_MIN)):
        out[engine] = b""
        for u0 in (0.0, 30.0):
            ens = simulate_diffusion_ensemble(
                skewed(), 1.0, u0, 0.3, dt=1e-3,
                seeds=derive_replica_seeds(95, width), record_every=1)
            out[engine] += ens.x.tobytes() + ens.u.tobytes()
    trials = run_exit_trials(skewed(), 2.0, 0.3, 1.2, 2.6,
                             seeds=derive_replica_seeds(96, 8), dt=1e-3,
                             max_time=1.0)
    out["exit_block"] = (trials.exit_time.tobytes()
                         + trials.exit_side.tobytes()
                         + trials.final_s.tobytes())
    log = simulate_pdmp(skewed(), 0.25, PdmpState(1.0, 0.0, 1), 50.0,
                        seed=97)
    out["thin_self"] = b"".join(a.tobytes() for a in (log.times, log.x, log.u))
    log = simulate_pdmp_driven(skewed(), 0.25, -4.0, 1.0, -1, 50.0, seed=98)
    out["thin_frozen"] = b"".join(a.tobytes()
                                  for a in (log.times, log.x, log.u))
    out["rk4_loop"] = repr(_rk4_span(skewed(), 1.0, 0.5, 0.3, 2.0)).encode()
    return out


def mutation_report():
    """(lines, blind): one summary line per mutation of ENGINES, and the
    mutations that moved their engine's raw output but no entry of the
    record.  Runs on one worker."""
    base_out = engine_outputs()
    base = run_digests(1)
    lines, blind = [], []
    for engine, orders in ENGINES.items():
        for order in orders:
            label = f"{engine} {SUM_NAMES[order]}"
            with mutated(engine, order):
                raw = engine_outputs()[engine] != base_out[engine]
                moved = differences(base, run_digests(1))
            lines.append(f"{label}: raw output "
                         f"{'moved' if raw else 'unchanged'}, "
                         f"{len(moved)} entries moved"
                         + (f" ({', '.join(moved)})" if moved else ""))
            if raw and not moved:
                blind.append(label)
    return lines, blind


def environment():
    """What the digests depend on besides the code."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def run_digests(workers):
    """hash_inventory of every record in RUNS, by name, run on `workers`
    workers, and the control, pdmp and diffusion records."""
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
            digests["control"] = control_digests()
            digests["pdmp"] = pdmp_digests()
            digests["diffusion"] = diffusion_digests()
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
    mode.add_argument("--mutate", action="store_true",
                      help="scale each sum of each engine by 1 + 2**-52 "
                      "and report the entries that move")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    if args.mutate:
        lines, blind = mutation_report()
        print("\n".join(lines))
        for label in blind:
            print("blind:", label)
        return 1 if blind else 0
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
    if not moved:
        entries = sum(len(record) for record in digests.values())
        print(f"compared {len(digests)} records, {entries} entries, on "
              f"{args.workers} worker(s): 0 moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
