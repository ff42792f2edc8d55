"""Scenario configuration: parsing, validation, and canonical hashing.

Scenario files come in two equivalent forms: a flat ``key = value`` text
format (hand-editable, one option per line, ``#`` comments) and a JSON
object with the same keys.  ``schemas/scenario.schema.json`` documents
the JSON form.  A scenario is identified by the SHA-256 hash of its
canonical JSON (everything except the output directory), which is what
the runner uses to refuse mixing different experiments in one directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .angles import ArcSet
from .diffusion import level_factors
from .errors import ConfigError
from .potential import PeriodicPotential, load_potential

__all__ = [
    "SCENARIO_KINDS",
    "PROCESS_KINDS",
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario_text",
    "scenario_from_dict",
]

SCENARIO_KINDS = ("ergodic", "localization", "metastability",
                  "pdmp-vs-diffusion", "drift", "doeblin", "hitting",
                  "refinement")
PROCESS_KINDS = ("diffusion", "pdmp", "both")

def _finite_float(value):
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {value!r}")
    return out


def _integer(value):
    """int(value), refusing a bool and a float that is fractional, NaN or
    infinite."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _is_perfect_square(n: int) -> bool:
    return n >= 1 and math.isqrt(n) ** 2 == n


def _float_list(value):
    if isinstance(value, (list, tuple)):
        return tuple(_finite_float(v) for v in value)
    return tuple(_finite_float(tok)
                 for tok in str(value).replace(",", " ").split())


def _checked(parser, ok, requirement: str):
    """parser, then a ValueError saying ``requirement`` unless ok(value)."""
    def parse(value):
        out = parser(value)
        if not ok(out):
            raise ValueError(f"{requirement}, got {value!r}")
        return out
    return parse


def _is_box(box) -> bool:
    """Four numbers, u_hi > u_lo, and an x arc of positive width."""
    if len(box) != 4 or not box[3] > box[2]:
        return False
    try:
        return ArcSet.from_endpoints([(box[0], box[1])]).total_length() > 0.0
    except ValueError:
        return False


_OPTION_SPECS: Dict[str, Any] = {
    "burn_in": _checked(_finite_float, lambda v: v >= 0.0, "must be >= 0"),
    "record_every": _checked(_integer, lambda v: v >= 1, "must be >= 1"),
    "save_paths": _checked(_integer, lambda v: v >= 0, "must be >= 0"),
    "eta": _finite_float,
    "m_grid": _checked(_float_list, len, "must be a nonempty list"),
    "max_time": _checked(_finite_float, lambda v: v > 0.0, "must be > 0"),
    "kappa": _checked(_finite_float, lambda v: v > 0.0, "must be > 0"),
    "u0_grid": _checked(_float_list, len, "must be a nonempty list"),
    "t_grid": _checked(_float_list, lambda ts: ts and min(ts) > 0.0,
                       "must be a nonempty list of times > 0"),
    "lambda_grid": _checked(_float_list, lambda v: v and min(v) > 0.0,
                            "must be a nonempty list of values > 0"),
    "eta_fractions": _checked(_float_list, len, "must be a nonempty list"),
    "box": _checked(_float_list, _is_box,
                    "must be x_lo, x_hi, u_lo, u_hi with u_hi > u_lo "
                    "and an arc of positive width"),
    "grid_points": _checked(_integer, _is_perfect_square,
                            "must be a perfect square >= 1"),
    "tolerance": _checked(_finite_float, lambda v: v > 0.0, "must be > 0"),
    "u_threshold": _finite_float,
}

# Top-level keys of the JSON form besides the options.
_CORE_KEYS = frozenset({"kind", "potential", "process", "lambda", "dt",
                        "horizon", "replicas", "x0", "u0", "y0", "root_seed",
                        "out_dir", "options"})


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated experiment description.

    Core fields cover every scenario kind; kind-specific knobs live in
    ``options`` (already parsed to their target types).
    """

    kind: str
    potential: PeriodicPotential
    process: str = "diffusion"
    lam: float = 1.0
    dt: float = 1e-3
    horizon: float = 100.0
    replicas: int = 1
    x0: float = 0.0
    u0: float = 0.0
    y0: int = 1
    root_seed: int = 0
    out_dir: str = "run"
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"field 'kind': {self.kind!r} is not one of {SCENARIO_KINDS}")
        if self.process not in PROCESS_KINDS:
            raise ConfigError(
                f"field 'process': {self.process!r} is not one of "
                f"{PROCESS_KINDS}")
        for name in ("replicas", "root_seed", "y0"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ConfigError(f"field {name!r}: must be an integer, "
                                  f"got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.replicas < 1:
            raise ConfigError("field 'replicas': must be >= 1")
        for name, value in (("lambda", self.lam), ("dt", self.dt),
                            ("horizon", self.horizon), ("x0", self.x0),
                            ("u0", self.u0)):
            if not math.isfinite(value):
                raise ConfigError(f"field {name!r}: must be finite, "
                                  f"got {value!r}")
        if self.horizon <= 0.0:
            raise ConfigError("field 'horizon': must be > 0")
        if self.process in ("diffusion", "both") \
                or self.kind == "pdmp-vs-diffusion":
            # The diffusion runs: it steps over the horizon in dt.
            if self.dt <= 0.0:
                raise ConfigError("field 'dt': must be > 0 for the diffusion")
            if self.dt > self.horizon:
                raise ConfigError(f"field 'dt': must not exceed the horizon "
                                  f"{self.horizon!r}, got {self.dt!r}")
        if self.process in ("pdmp", "both") and self.lam <= 0.0:
            raise ConfigError("field 'lambda': must be > 0 for the "
                              "velocity-jump process")
        if self.y0 not in (-1, 1):
            raise ConfigError("field 'y0': must be -1 or +1")
        for key in self.options:
            if key not in _OPTION_SPECS:
                raise ConfigError(f"field {key!r}: unknown option")
        object.__setattr__(self, "options", {
            key: _parse_option(key, value)
            for key, value in self.options.items()})
        if self.kind == "refinement":
            if self.process != "diffusion":
                raise ConfigError("field 'process': the refinement kind "
                                  "runs the diffusion only")
            try:
                level_factors(self.horizon, self.dt_levels())
            except ValueError as exc:
                raise ConfigError(f"field 'horizon': {exc} (the refinement "
                                  f"levels are 4 dt, 2 dt and dt)") from exc

    def processes(self) -> Tuple[str, ...]:
        return ("diffusion", "pdmp") if self.process == "both" \
            else (self.process,)

    def option(self, key: str, default):
        return self.options.get(key, default)

    def dt_levels(self) -> Tuple[float, float, float]:
        """The step sizes of the refinement kind, coarse to fine."""
        return (4.0 * self.dt, 2.0 * self.dt, self.dt)

    def to_dict(self, include_out_dir: bool = True) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "kind": self.kind,
            "potential": self.potential.to_record(),
            "process": self.process,
            "lambda": self.lam,
            "dt": self.dt,
            "horizon": self.horizon,
            "replicas": self.replicas,
            "x0": self.x0,
            "u0": self.u0,
            "y0": self.y0,
            "root_seed": self.root_seed,
            "options": {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in sorted(self.options.items())},
        }
        if include_out_dir:
            d["out_dir"] = self.out_dir
        return d

    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON form, excluding the output dir."""
        canonical = json.dumps(self.to_dict(include_out_dir=False),
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_option(key: str, raw) -> Any:
    parser = _OPTION_SPECS[key]
    try:
        return parser(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def scenario_from_dict(data: Dict[str, Any],
                       base_dir: str = ".") -> ScenarioConfig:
    """Build a config from the JSON object form.

    The potential may be an inline record (dict) or a path to a potential
    file, resolved relative to the scenario file.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    core: Dict[str, Any] = {}
    options: Dict[str, Any] = {}
    for key, value in data.items():
        if key in _CORE_KEYS:
            core[key] = value
        elif key in _OPTION_SPECS:
            options[key] = value
        else:
            raise ConfigError(f"field {key!r}: unknown key")
    if not isinstance(core.get("options", {}), dict):
        raise ConfigError(f"field 'options': must be a mapping of option "
                          f"names to values, got {core['options']!r}")
    options.update(core.get("options", {}))

    if "kind" not in core:
        raise ConfigError("field 'kind': missing")
    if "potential" not in core:
        raise ConfigError("field 'potential': missing")
    pot_spec = core["potential"]
    if isinstance(pot_spec, dict):
        potential = PeriodicPotential.from_record(pot_spec)
    elif isinstance(pot_spec, str):
        potential = load_potential(os.path.join(base_dir, pot_spec))
    else:
        raise ConfigError("field 'potential': must be a record or a path")

    def _num(key, conv, default):
        if key not in core:
            return default
        try:
            return conv(core[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {key!r}: {exc}") from exc

    return ScenarioConfig(
        kind=str(core["kind"]),
        potential=potential,
        process=str(core.get("process", "diffusion")),
        lam=_num("lambda", float, 1.0),
        dt=_num("dt", float, 1e-3),
        horizon=_num("horizon", float, 100.0),
        replicas=_num("replicas", _integer, 1),
        x0=_num("x0", float, 0.0),
        u0=_num("u0", float, 0.0),
        y0=_num("y0", _integer, 1),
        root_seed=_num("root_seed", _integer, 0),
        out_dir=str(core.get("out_dir", "run")),
        options=options,
    )


def parse_scenario_text(text: str, base_dir: str = ".") -> ScenarioConfig:
    """Parse the flat ``key = value`` scenario form."""
    data: Dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value
    return scenario_from_dict(data, base_dir=base_dir)


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario file in either the JSON or the flat text form."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    base_dir = os.path.dirname(os.path.abspath(path))
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return scenario_from_dict(data, base_dir=base_dir)
    return parse_scenario_text(text, base_dir=base_dir)
