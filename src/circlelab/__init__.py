"""circlelab: simulation laboratory for self-interacting processes on the circle.

Two strongly self-interacting processes driven by a trigonometric potential
F: a degenerate diffusion (X, U) and a velocity-jump process (X, U, Y),
both Markov after adjoining the interaction integral U_t = int_0^t F(X_s) ds.
The package provides exact landscape geometry, exact and discretized
simulators, steering constructions, estimators for hitting/escape
statistics, and a reproducible scenario runner with a CLI.
"""

__version__ = "0.1.0"

from .angles import ArcSet, circle_dist, wrap
from .control import (
    ControlSchedule,
    integrate_diffusion_control,
    integrate_velocity_schedule,
    plan_diffusion_control,
    plan_pdmp_velocity_schedule,
    potential_zeros,
)
from .diffusion import (
    DiffusionState,
    EnsembleTrajectories,
    ExitEnsemble,
    Trajectory,
    run_exit_trials,
    simulate_diffusion,
    simulate_diffusion_ensemble,
    simulate_terminal_u_coupled,
)
from .errors import (
    BinMismatchError,
    CirclelabError,
    ConfigError,
    DegenerateCriticalPointError,
    DegeneratePotentialError,
    HypothesisWarning,
    MonotonicityError,
    NoValidMarginError,
    PlanningError,
    RunawayError,
    UnreachableTargetError,
    ZeroCriticalValueError,
)
from .landscape import (
    AssumptionReport,
    CriticalLandscape,
    CriticalPoint,
    LevelGeometry,
    WellGeometry,
    classify_landscape,
    compute_level_geometry,
    compute_level_margin,
    find_critical_points,
    validate_assumptions,
)
from .pdmp import (
    EventLog,
    PdmpState,
    sample_landscape_time,
    sample_next_event,
    segment_u,
    simulate_pdmp,
    simulate_pdmp_driven,
)
from .potential import PeriodicPotential, load_potential, parse_potential_text
from .stats import (
    EmpiricalHistogram,
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
from .seeding import (
    derive_replica_seed,
    derive_replica_seeds,
    generator_from_seed,
    generators_from_seeds,
)
from .config import (
    ScenarioConfig,
    load_scenario,
    parse_scenario_text,
    scenario_from_dict,
)
from .io import (
    hash_inventory,
    read_events_rows,
    read_json,
    read_trajectory_rows,
    sha256_file,
    write_events_csv,
    write_json,
    write_trajectory_csv,
)
from .runner import RunManifest, replay, replica_chunks, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
