"""Scenario configs, artifact IO, the runner, and the CLI."""

import csv
import functools
import importlib.util
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import circlelab
from circlelab import (
    ConfigError,
    DiffusionState,
    HypothesisWarning,
    PdmpState,
    PeriodicPotential,
    ScenarioConfig,
    load_scenario,
    parse_scenario_text,
    derive_replica_seed,
    scenario_from_dict,
    simulate_diffusion,
    simulate_diffusion_ensemble,
    simulate_pdmp,
    simulate_terminal_u_coupled,
)
import circlelab.config as config_module
import circlelab.runner as runner_module
from circlelab.cli import main as cli_main
from circlelab.diffusion import _SCALAR_PATH_MAX, Trajectory
from circlelab.io import (
    hash_inventory,
    read_events_rows,
    read_json,
    read_trajectory_rows,
    sha256_file,
    write_events_csv,
    write_json,
    write_trajectory_csv,
)
from circlelab.pdmp import EventLog
from circlelab.runner import (
    replay,
    replica_chunks,
    run_scenario,
    worker_count,
)

COSINE_RECORD = {"a0": 0.0, "harmonics": [[1, 1.0, 0.0]]}
MIXTURE_RECORD = {"a0": -0.2, "harmonics": [[1, 1.0, 0.0], [2, 1.0, 0.0]]}
SKEWED_RECORD = {"a0": 0.0, "harmonics": [[1, 1.0, 0.5], [3, 0.3, -0.4]]}

COSINE = PeriodicPotential.from_record(COSINE_RECORD)


def _tiny_scenario(tmp_path, **overrides):
    data = {
        "kind": "doeblin",
        "potential": COSINE_RECORD,
        "process": "diffusion",
        "dt": 5e-3,
        "horizon": 4.0,
        "replicas": 8,
        "out_dir": str(tmp_path / "out"),
        "options": {"grid_points": 4},
    }
    data.update(overrides)
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# configuration


class TestScenarioConfig:
    def test_flat_text_form(self, tmp_path):
        text = """
        # escape experiment
        kind = metastability
        potential = pot.txt
        process = both
        lambda = 0.25
        replicas = 12
        m_grid = 4, 8
        eta = 0.333333
        """
        (tmp_path / "pot.txt").write_text("harmonic = 1 1.0 0.0\n")
        config = parse_scenario_text(text, base_dir=str(tmp_path))
        assert config.kind == "metastability"
        assert config.processes() == ("diffusion", "pdmp")
        assert config.lam == 0.25
        assert config.option("m_grid", None) == (4.0, 8.0)
        assert config.option("eta", None) == pytest.approx(0.333333)

    def test_json_form_with_inline_record(self):
        config = scenario_from_dict({
            "kind": "ergodic",
            "potential": COSINE_RECORD,
            "horizon": 50.0,
            "replicas": 2,
            "burn_in": 5.0,
        })
        assert config.potential.to_record() == COSINE_RECORD
        assert config.option("burn_in", None) == 5.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_text("kind = drift\nkind = drift\n")

    def test_unknown_key_names_the_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            scenario_from_dict({"kind": "drift",
                                "potential": COSINE_RECORD,
                                "bogus": 3})

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            scenario_from_dict({"kind": "drift",
                                "potential": COSINE_RECORD,
                                "options": {"nope": 1}})
        with pytest.raises(ConfigError, match="epsilon"):
            scenario_from_dict({"kind": "drift",
                                "potential": COSINE_RECORD,
                                "options": {"epsilon": 0.01}})

    def test_schema_and_readme_list_the_parsed_keys(self):
        # The parser, the JSON schema and the README option list must name
        # the same keys.
        with open(os.path.join(os.path.dirname(config_module.__file__),
                               "schemas", "scenario.schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        props = schema["properties"]
        assert set(props) == config_module._CORE_KEYS
        assert set(props["options"]["properties"]) \
            == set(config_module._OPTION_SPECS)
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        start = readme.index("Scenario-specific knobs")
        listed = readme[start:readme.index("Out-of-range", start)]
        assert set(re.findall(r"`(\w+)`", listed)) - {"options"} \
            == set(config_module._OPTION_SPECS)

    def test_invalid_kind_and_process(self):
        with pytest.raises(ConfigError, match="kind"):
            scenario_from_dict({"kind": "wat", "potential": COSINE_RECORD})
        with pytest.raises(ConfigError, match="process"):
            scenario_from_dict({"kind": "drift",
                                "potential": COSINE_RECORD,
                                "process": "wat"})

    def test_field_validation(self):
        base = {"kind": "drift", "potential": COSINE_RECORD}
        with pytest.raises(ConfigError, match="replicas"):
            scenario_from_dict({**base, "replicas": 0})
        with pytest.raises(ConfigError, match="horizon"):
            scenario_from_dict({**base, "horizon": -1.0})
        with pytest.raises(ConfigError, match="dt"):
            scenario_from_dict({**base, "dt": 0.0})
        with pytest.raises(ConfigError, match="lambda"):
            scenario_from_dict({**base, "process": "pdmp", "lambda": 0.0})
        with pytest.raises(ConfigError, match="y0"):
            scenario_from_dict({**base, "y0": 2})
        with pytest.raises(ConfigError, match="missing"):
            scenario_from_dict({"kind": "drift"})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lambda", "dt", "horizon", "x0", "u0"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"field '{field}': must be finite"):
            scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "process": "both", field: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["burn_in", "eta", "max_time", "kappa",
                                       "tolerance", "u_threshold"])
    def test_non_finite_option_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"field '{field}': must be finite"):
            scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "options": {field: value}})

    def test_constructor_checks_option_values(self):
        with pytest.raises(ConfigError, match="field 'burn_in': must be finite"):
            ScenarioConfig(kind="ergodic", potential=COSINE,
                           options={"burn_in": math.nan})

    def test_constructor_stores_parsed_options(self):
        options = {"t_grid": "2 1", "u0_grid": "3", "save_paths": 1.0}
        direct = ScenarioConfig(kind="drift", potential=COSINE,
                                options=options)
        parsed = scenario_from_dict({"kind": "drift",
                                     "potential": COSINE_RECORD,
                                     "options": options})
        assert direct.options == {"t_grid": (2.0, 1.0), "u0_grid": (3.0,),
                                  "save_paths": 1}
        assert type(direct.options["save_paths"]) is int
        assert direct == parsed
        assert direct.config_hash() == parsed.config_hash()

    @pytest.mark.parametrize("field", ["m_grid", "u0_grid", "eta_fractions"])
    @pytest.mark.parametrize("value", [[], ""])
    def test_cell_grids_must_be_nonempty(self, field, value):
        with pytest.raises(ConfigError,
                           match=f"field '{field}': must be a nonempty list"):
            scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "options": {field: value}})

    @pytest.mark.parametrize("grid", ["1.0 nan", "2, -inf", [1.0, math.inf]])
    @pytest.mark.parametrize("field", ["m_grid", "u0_grid", "t_grid",
                                       "lambda_grid", "eta_fractions", "box"])
    def test_non_finite_grid_element_rejected(self, field, grid):
        with pytest.raises(ConfigError, match=f"field '{field}': must be finite"):
            scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                field: grid})

    @pytest.mark.parametrize("field, value", [
        ("kappa", -1.0), ("kappa", 0.0), ("kappa", "-0.5"),
        ("t_grid", []), ("t_grid", ""), ("t_grid", [0.0, 5.0]),
        ("t_grid", [10.0, -5.0]), ("t_grid", "5 0"),
        ("save_paths", -1), ("save_paths", "-2"),
        ("record_every", 0), ("record_every", -3), ("record_every", "0"),
        ("grid_points", 0), ("grid_points", -3),
        ("box", "1 2 3"), ("box", "1 2 3 4 5"), ("box", "0 1 2 2"),
        ("box", "1 2 3 1"), ("box", "1 1 -2 2"), ("box", "10 1 -2 2"),
        ("box", [1.0, 2.0, 3.0, 3.0]),
    ])
    def test_option_out_of_bounds_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"field '{field}': must be"):
            scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "options": {field: value}})

    def test_option_bounds_admit_their_edges(self):
        config = scenario_from_dict({
            "kind": "drift", "potential": COSINE_RECORD,
            "options": {"kappa": 1e-9, "t_grid": "0.5", "save_paths": 0,
                        "record_every": 1, "grid_points": 1,
                        "box": [5.0, 1.0, -1.0, -0.5]}})
        assert config.option("t_grid", None) == (0.5,)
        assert config.option("save_paths", None) == 0
        assert config.option("box", None) == (5.0, 1.0, -1.0, -0.5)

    @pytest.mark.parametrize("field", ["replicas", "y0", "root_seed",
                                       "record_every", "save_paths",
                                       "grid_points"])
    @pytest.mark.parametrize("value", [2.7, 1.9, -0.5, math.nan, math.inf,
                                       "2.5", True])
    def test_fractional_integer_rejected(self, field, value):
        data = {"kind": "doeblin", "potential": COSINE_RECORD}
        if field in ("replicas", "y0", "root_seed"):
            data[field] = value
        else:
            data["options"] = {field: value}
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("form", [int, str, float],
                             ids=["int", "str", "float"])
    def test_integral_values_parse_as_before(self, form):
        def build(conv):
            return scenario_from_dict({
                "kind": "doeblin", "potential": COSINE_RECORD,
                "replicas": conv(3), "y0": conv(-1), "root_seed": conv(7),
                "options": {"record_every": conv(2), "save_paths": conv(0),
                            "grid_points": conv(9)}})
        config = build(form)
        assert config.to_dict() == build(int).to_dict()
        assert config.config_hash() == build(int).config_hash()
        assert type(config.replicas) is int

    @pytest.mark.parametrize("field, value", [
        ("replicas", 2.5), ("replicas", True), ("replicas", 3.0),
        ("replicas", "3"), ("root_seed", 1.5), ("root_seed", False),
        ("y0", True), ("y0", 1.0)])
    def test_constructor_rejects_non_integer_count(self, field, value):
        with pytest.raises(ConfigError,
                           match=f"field '{field}': must be an integer"):
            ScenarioConfig(kind="doeblin", potential=COSINE, **{field: value})

    def test_numpy_integer_count_is_stored_as_int(self):
        config = ScenarioConfig(kind="doeblin", potential=COSINE,
                                replicas=np.int64(3), root_seed=np.uint32(7))
        assert type(config.replicas) is int and config.replicas == 3
        assert type(config.root_seed) is int and config.root_seed == 7

    @pytest.mark.parametrize("points", [2, 5, 7, "8"])
    def test_grid_points_must_be_a_perfect_square(self, points):
        with pytest.raises(ConfigError,
                           match="field 'grid_points': must be a perfect square"):
            scenario_from_dict({"kind": "doeblin", "potential": COSINE_RECORD,
                                "options": {"grid_points": points}})
        with pytest.raises(ConfigError,
                           match="field 'grid_points': must be a perfect square"):
            ScenarioConfig(kind="doeblin", potential=COSINE,
                           options={"grid_points": points})

    @pytest.mark.parametrize("points", [1, 4, 9, 16])
    def test_grid_points_is_the_number_of_starts(self, points):
        config = scenario_from_dict({"kind": "doeblin",
                                     "potential": COSINE_RECORD,
                                     "options": {"grid_points": points}})
        cells = runner_module._KINDS["doeblin"].cells(config)
        assert len({(c["x0"], c["u0"]) for c in cells}) == len(cells) == points

    @pytest.mark.parametrize("extra", [
        {"horizon": 1e-2},
        {"horizon": 6e-3},
        {"horizon": 0.5, "dt": 5e-2},
    ])
    def test_refinement_horizon_needs_whole_coarse_steps(self, extra):
        data = {"kind": "refinement", "potential": COSINE_RECORD, **extra}
        with pytest.raises(ConfigError, match="field 'horizon'") as err:
            scenario_from_dict(data)
        assert "whole number of steps" in str(err.value)

    def test_refinement_levels_are_4_2_1_times_dt(self):
        config = scenario_from_dict({"kind": "refinement",
                                     "potential": COSINE_RECORD,
                                     "horizon": 0.8})
        assert config.dt_levels() == (4e-3, 2e-3, 1e-3)

    def test_refinement_runs_the_diffusion_only(self):
        with pytest.raises(ConfigError, match="field 'process'"):
            scenario_from_dict({"kind": "refinement",
                                "potential": COSINE_RECORD,
                                "process": "pdmp"})

    def test_hash_ignores_out_dir_only(self):
        a = scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "out_dir": "x"})
        b = scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "out_dir": "y"})
        c = scenario_from_dict({"kind": "drift", "potential": COSINE_RECORD,
                                "dt": 2e-3})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_dict_roundtrip_preserves_hash(self):
        config = _tiny_scenario_dictless()
        again = scenario_from_dict(config.to_dict())
        assert again.config_hash() == config.config_hash()

    def test_load_scenario_json_and_text(self, tmp_path):
        json_path = tmp_path / "s.json"
        json_path.write_text(json.dumps({
            "kind": "drift", "potential": COSINE_RECORD, "replicas": 3}))
        text_path = tmp_path / "s.cfg"
        text_path.write_text("kind = drift\npotential = pot.json\n")
        (tmp_path / "pot.json").write_text(json.dumps(COSINE_RECORD))
        a = load_scenario(str(json_path))
        b = load_scenario(str(text_path))
        assert a.replicas == 3
        assert b.potential.to_record() == COSINE_RECORD


def _tiny_scenario_dictless():
    return scenario_from_dict({
        "kind": "ergodic", "potential": COSINE_RECORD, "replicas": 2,
        "options": {"burn_in": 1.0, "m_grid": [4, 8]},
    })


# ---------------------------------------------------------------------------
# artifact IO


class TestArtifactIO:
    def test_trajectory_roundtrip_is_exact(self, tmp_path):
        traj = simulate_diffusion(COSINE, DiffusionState(1.0, 0.0), 2.0,
                                  dt=1e-2, seed=3, record_every=10)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj)
        rows = read_trajectory_rows(str(path))
        assert rows.shape == (len(traj.times), 3)
        np.testing.assert_array_equal(rows[:, 0], traj.times)
        np.testing.assert_array_equal(rows[:, 1], traj.x)
        np.testing.assert_array_equal(rows[:, 2], traj.u)

    def test_events_roundtrip_is_exact(self, tmp_path):
        log = simulate_pdmp(COSINE, 1.0, PdmpState(0.5, 0.0, 1), 20.0, seed=4)
        path = tmp_path / "e.csv"
        write_events_csv(str(path), log)
        nums, ys, causes = read_events_rows(str(path))
        np.testing.assert_array_equal(nums[:, 0], log.times)
        np.testing.assert_array_equal(nums[:, 1], log.x)
        np.testing.assert_array_equal(nums[:, 2], log.u)
        np.testing.assert_array_equal(ys, log.y)
        assert causes == log.causes

    def test_path_writers_match_csv_writer_bytes(self, tmp_path):
        # The writers format rows themselves; the bytes must be those of
        # csv.writer with repr-formatted floats.
        vals = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300,
                         -1e300, 0.1, 1.0 / 3.0, 6.283185307179586])
        n = vals.size
        traj = Trajectory(times=vals, x=vals[::-1].copy(), u=-vals,
                          dt=1e-3, record_every=1, seed=0, potential_id="c")
        log = EventLog(times=vals, x=vals[::-1].copy(), u=-vals,
                       y=np.array([1, -1] * 4 + [1], dtype=np.int8),
                       causes=("init",) + ("landscape",) * (n - 2)
                       + ("horizon-end",),
                       lam=1.0, horizon=1.0, seed=0, potential=COSINE)

        def reference(header, rows):
            path = tmp_path / "ref.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            return path.read_bytes()

        write_trajectory_csv(str(tmp_path / "t.csv"), traj)
        assert (tmp_path / "t.csv").read_bytes() == reference(
            ["t", "x", "u"],
            [[repr(float(c)) for c in row]
             for row in zip(traj.times, traj.x, traj.u)])
        write_events_csv(str(tmp_path / "e.csv"), log)
        assert (tmp_path / "e.csv").read_bytes() == reference(
            ["t", "x", "u", "y", "cause"],
            [[repr(float(t)), repr(float(x)), repr(float(u)), int(y), c]
             for t, x, u, y, c in zip(log.times, log.x, log.u, log.y,
                                      log.causes)])

    def test_json_roundtrip_and_stable_bytes(self, tmp_path):
        payload = {"b": [1.5, 2.25], "a": {"x": 1e-9}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(str(p1), payload)
        write_json(str(p2), payload)
        assert read_json(str(p1)) == payload
        assert sha256_file(str(p1)) == sha256_file(str(p2))

    def test_inventory_skips_manifest(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "manifest.json").write_text("{}")
        inventory = hash_inventory(str(tmp_path))
        assert set(inventory) == {"a.txt"}


# ---------------------------------------------------------------------------
# runner mechanics


PARTS = (1, 2, 3, 8, 16)


class TestChunking:
    def test_zero_replicas(self):
        for parts in PARTS:
            assert replica_chunks(0, parts) == []

    @pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 200, 1000, 10000])
    def test_chunks_partition_range(self, n):
        # min(n, parts) contiguous chunks whose sizes differ by at most one.
        for parts in PARTS:
            chunks = replica_chunks(n, parts)
            covered = [i for lo, hi in chunks for i in range(lo, hi)]
            assert covered == list(range(n))
            assert len(chunks) == min(n, parts)
            sizes = [hi - lo for lo, hi in chunks]
            assert max(sizes) - min(sizes) <= 1

    def test_one_chunk_per_worker(self):
        assert replica_chunks(4096, 2) == [(0, 2048), (2048, 4096)]
        assert replica_chunks(130, 3) == [(0, 43), (43, 86), (86, 130)]
        assert replica_chunks(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "3")
        assert worker_count(100) == 3
        assert worker_count(2) == 2
        monkeypatch.setenv("CIRCLELAB_WORKERS", "junk")
        with pytest.raises(ConfigError, match="CIRCLELAB_WORKERS"):
            worker_count(4)
        monkeypatch.setenv("CIRCLELAB_WORKERS", "0")
        with pytest.raises(ConfigError, match="CIRCLELAB_WORKERS"):
            worker_count(4)


class TestRunScenario:
    def test_artifacts_and_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = _tiny_scenario(tmp_path)
        manifest = run_scenario(config)
        out = tmp_path / "out"
        assert (out / "manifest.json").is_file()
        assert (out / "estimates.json").is_file()
        assert (out / "plotdata_doeblin.csv").is_file()
        recorded = read_json(str(out / "manifest.json"))
        assert recorded["config_hash"] == config.config_hash()
        assert recorded["files"] == hash_inventory(str(out))
        assert recorded["failures"] == []
        assert manifest.n_tasks >= 1
        estimates = read_json(str(out / "estimates.json"))
        assert estimates["kind"] == "doeblin"
        per = estimates["per_process"]["diffusion"]
        assert 0.0 <= per["min_estimate"] <= 1.0

    def test_deterministic_across_runs_and_workers(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        run_scenario(_tiny_scenario(tmp_path, out_dir=str(tmp_path / "a")))
        monkeypatch.setenv("CIRCLELAB_WORKERS", "2")
        run_scenario(_tiny_scenario(tmp_path, out_dir=str(tmp_path / "b")))
        inv_a = hash_inventory(str(tmp_path / "a"))
        inv_b = hash_inventory(str(tmp_path / "b"))
        assert inv_a == inv_b

    def test_path_files_for_path_scenarios(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = scenario_from_dict({
            "kind": "ergodic", "potential": COSINE_RECORD,
            "process": "both", "horizon": 5.0, "dt": 5e-3, "replicas": 2,
            "out_dir": str(tmp_path / "erg"),
            "options": {"burn_in": 1.0, "save_paths": 1},
        })
        run_scenario(config)
        assert (tmp_path / "erg" / "trajectory_0.csv").is_file()
        assert (tmp_path / "erg" / "events_0.csv").is_file()
        rows = read_trajectory_rows(str(tmp_path / "erg" /
                                        "trajectory_0.csv"))
        assert rows[-1, 0] == pytest.approx(5.0)

    def test_refuses_directory_of_other_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        run_scenario(_tiny_scenario(tmp_path))
        other = _tiny_scenario(tmp_path, horizon=6.0)
        with pytest.raises(ConfigError, match="different"):
            run_scenario(other)

    def test_rerun_of_same_config_is_allowed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        first = run_scenario(_tiny_scenario(tmp_path))
        second = run_scenario(_tiny_scenario(tmp_path))
        assert first.files == second.files

    def test_refuses_foreign_nonempty_directory(self, tmp_path):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "data.txt").write_text("not ours")
        with pytest.raises(ConfigError, match="manifest"):
            run_scenario(_tiny_scenario(tmp_path, out_dir=str(out)))

    def test_failure_rate_above_one_percent_fails_run(self, tmp_path,
                                                      monkeypatch):
        def failing_run(config, cell, task):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(
            runner_module._KINDS, "doeblin",
            runner_module._KINDS["doeblin"]._replace(run=failing_run))
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = _tiny_scenario(tmp_path)
        with pytest.raises(RuntimeError, match="replicas failed"):
            run_scenario(config)
        recorded = read_json(str(tmp_path / "out" / "manifest.json"))
        assert len(recorded["failures"]) > 0
        assert "injected failure" in recorded["failures"][0]

    def test_refinement_replays_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "2")
        run_scenario(scenario_from_dict({
            "kind": "refinement", "potential": COSINE_RECORD,
            "horizon": 0.4, "replicas": 70, "u0": 1.0, "root_seed": 3,
            "out_dir": str(tmp_path / "out")}))
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        ok, report = replay(str(tmp_path / "out" / "manifest.json"),
                            str(tmp_path / "replayed"))
        assert ok, report
        assert set(report) == {"estimates.json",
                               "plotdata_refinement.csv"}

    def test_replay_matches_and_detects_tamper(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        run_scenario(_tiny_scenario(tmp_path))
        manifest_path = tmp_path / "out" / "manifest.json"
        ok, report = replay(str(manifest_path), str(tmp_path / "replayed"))
        assert ok
        assert all(entry["match"] for entry in report.values())

        recorded = read_json(str(manifest_path))
        recorded["files"]["estimates.json"] = "0" * 64
        write_json(str(manifest_path), recorded)
        ok2, report2 = replay(str(manifest_path), str(tmp_path / "replayed2"))
        assert not ok2
        assert not report2["estimates.json"]["match"]


def test_benchmark_tracer_wraps_runner_names(tmp_path, monkeypatch):
    """The benchmark's tracer wraps names on circlelab.runner by getattr,
    so a name the runner drops would break its traced runs.  The wrappers
    leave the outputs as they are."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
    record = {"kind": "localization", "potential": MIXTURE_RECORD,
              "process": "both", "horizon": 2.0, "replicas": 2, "u0": 5.0,
              "options": {"burn_in": 0.5, "record_every": 7}}
    run_scenario(scenario_from_dict({**record,
                                     "out_dir": str(tmp_path / "plain")}))
    before = dict(vars(runner_module))
    tracer = tracing.Tracer()
    tracing.instrument_spans(tracer)
    try:
        runner_module.run_scenario(scenario_from_dict(
            {**record, "out_dir": str(tmp_path / "traced")}))
    finally:
        tracer.restore()
    assert vars(runner_module) == before
    layers = {span[3] for span in tracer.spans}
    assert {"runner", "diffusion", "pdmp", "landscape", "stats.detect",
            "io.write", "io.hash"} <= layers
    assert hash_inventory(str(tmp_path / "traced")) == \
        hash_inventory(str(tmp_path / "plain"))


def _record_simulator_calls(monkeypatch, log_path):
    """Log one line "<simulator> <seed>..." per runner simulator call.

    The pool is forked so its workers inherit the wrappers; every process
    appends to the same file.
    """
    for name in ("simulate_pdmp", "simulate_diffusion",
                 "simulate_diffusion_ensemble"):
        def wrapped(*args, _real=getattr(runner_module, name), _name=name,
                    **kwargs):
            seeds = kwargs["seeds"] if "seeds" in kwargs else (kwargs["seed"],)
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(" ".join([_name, *map(str, seeds)]) + "\n")
            return _real(*args, **kwargs)

        monkeypatch.setattr(runner_module, name, wrapped)
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


class TestSavedPaths:
    """Path files come from the task that simulated the replica."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kind", ["ergodic", "localization"])
    @pytest.mark.parametrize("record, replicas", [
        (COSINE_RECORD, 3), (SKEWED_RECORD, 3), (SKEWED_RECORD, 6)])
    def test_each_replica_is_simulated_once(self, tmp_path, monkeypatch,
                                            kind, record, replicas, workers):
        monkeypatch.setenv("CIRCLELAB_WORKERS", workers)
        calls_path = tmp_path / "calls.txt"
        _record_simulator_calls(monkeypatch, calls_path)
        config = scenario_from_dict({
            "kind": kind, "potential": record, "process": "both",
            "horizon": 3.0, "replicas": replicas, "x0": 1.0, "u0": 0.5,
            "root_seed": 17, "out_dir": str(tmp_path / "run"),
            "options": {"burn_in": 0.5, "save_paths": 2, "record_every": 20},
        })
        run_scenario(config)

        calls = [line.split() for line in calls_path.read_text().splitlines()]
        seeds = {name: sorted(int(s) for c in calls if c[0] == name
                              for s in c[1:])
                 for name in ("simulate_diffusion", "simulate_pdmp",
                              "simulate_diffusion_ensemble")}
        diffusion_seeds = [derive_replica_seed(17, i) for i in range(replicas)]
        pdmp_seeds = [derive_replica_seed(17, replicas + i)
                      for i in range(replicas)]
        assert seeds["simulate_pdmp"] == sorted(pdmp_seeds)
        assert len([c for c in calls if c[0] == "simulate_pdmp"]) == replicas
        # one diffusion ensemble per chunk
        diffusion_call = "simulate_diffusion_ensemble"
        n_diffusion = len(replica_chunks(replicas, int(workers)))
        assert len([c for c in calls if c[0] == diffusion_call]) == n_diffusion
        assert seeds[diffusion_call] == sorted(diffusion_seeds)
        assert len(calls) == replicas + n_diffusion

        out = tmp_path / "run"
        names = {n for n in os.listdir(out)
                 if n.startswith(("trajectory_", "events_"))}
        assert names == {"trajectory_0.csv", "trajectory_1.csv",
                         "events_0.csv", "events_1.csv"}
        potential = config.potential
        for rep in range(2):
            fresh = tmp_path / "fresh.csv"
            write_trajectory_csv(str(fresh), simulate_diffusion(
                potential, DiffusionState(1.0, 0.5), 3.0, dt=config.dt,
                seed=diffusion_seeds[rep], record_every=20))
            assert (out / f"trajectory_{rep}.csv").read_bytes() == \
                fresh.read_bytes()
            write_events_csv(str(fresh), simulate_pdmp(
                potential, config.lam, PdmpState(1.0, 0.5, 1), 3.0,
                seed=pdmp_seeds[rep]))
            assert (out / f"events_{rep}.csv").read_bytes() == \
                fresh.read_bytes()

    def test_failed_task_leaves_no_path_file(self, tmp_path, monkeypatch):
        # A task fails as a whole, so one-replica tasks make one failed
        # replica in 101, within the 1 % the runner tolerates.
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        monkeypatch.setattr(runner_module, "replica_chunks",
                            lambda n, parts: [(i, i + 1) for i in range(n)])
        bad_seed = derive_replica_seed(5, 1)
        real = runner_module.simulate_pdmp

        def flaky(*args, **kwargs):
            if kwargs["seed"] == bad_seed:
                raise RuntimeError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate_pdmp", flaky)
        config = scenario_from_dict({
            "kind": "ergodic", "potential": COSINE_RECORD, "process": "pdmp",
            "horizon": 2.0, "replicas": 101, "root_seed": 5,
            "out_dir": str(tmp_path / "run"),
            "options": {"burn_in": 0.5, "save_paths": 3},
        })
        manifest = run_scenario(config)
        assert len(manifest.failures) == 1
        out = tmp_path / "run"
        assert sorted(n for n in os.listdir(out) if n.startswith("events_")) \
            == ["events_0.csv", "events_2.csv"]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind, options", [
    ("doeblin", {"grid_points": 4}),
    ("hitting", {"eta_fractions": [0.5, 1.0], "record_every": 3}),
])
def test_doeblin_and_hitting_chunks_run_one_simulator_call(
        tmp_path, monkeypatch, kind, options, workers):
    """One ensemble per diffusion chunk, one velocity-jump path per
    replica, and no one-replica diffusion runs."""
    monkeypatch.setenv("CIRCLELAB_WORKERS", workers)
    calls_path = tmp_path / "calls.txt"
    calls_path.write_text("")
    _record_simulator_calls(monkeypatch, calls_path)
    config = scenario_from_dict({
        "kind": kind, "potential": COSINE_RECORD, "process": "both",
        "horizon": 0.5, "dt": 5e-3, "replicas": 5, "root_seed": 23,
        "out_dir": str(tmp_path / "run"), "options": options})
    run_scenario(config)

    calls = [line.split() for line in calls_path.read_text().splitlines()]
    cells = runner_module._KINDS[kind].cells(config)
    n_chunks = len(replica_chunks(config.replicas, int(workers)))
    for name, process, per_cell in (
            ("simulate_diffusion_ensemble", "diffusion", n_chunks),
            ("simulate_pdmp", "pdmp", config.replicas)):
        blocks = [c["b"] for c in cells if c["process"] == process]
        assert len([c for c in calls if c[0] == name]) == \
            per_cell * len(blocks)
        assert sorted(int(s) for c in calls if c[0] == name
                      for s in c[1:]) == sorted(
            derive_replica_seed(23, b * config.replicas + i)
            for b in blocks for i in range(config.replicas))
    assert not [c for c in calls if c[0] == "simulate_diffusion"]


class TestWorkerCountInvariance:
    """Chunking follows the worker count; the artifacts do not."""

    @pytest.mark.parametrize("kind, record, extra", [
        ("drift", SKEWED_RECORD,
         {"options": {"t_grid": [0.4, 0.2], "u0_grid": [-3.0, 6.0]}}),
        ("localization", MIXTURE_RECORD,
         {"process": "both", "horizon": 2.0, "u0": 5.0,
          "options": {"burn_in": 0.5, "save_paths": 3, "record_every": 7}}),
        ("doeblin", MIXTURE_RECORD,
         {"process": "both", "horizon": 0.5, "y0": -1,
          "options": {"grid_points": 4, "box": [5.0, 1.0, -2.0, 2.0]}}),
        ("hitting", COSINE_RECORD,
         {"process": "both", "lambda": 0.5, "horizon": 1.0,
          "options": {"record_every": 3, "eta_fractions": [0.5, 1.0]}}),
        ("refinement", SKEWED_RECORD,
         {"horizon": 0.8, "u0": 2.0, "dt": 2e-3}),
        ("ergodic", MIXTURE_RECORD,
         {"process": "both", "horizon": 3.0, "u0": 1.0, "replicas": 3,
          "options": {"burn_in": 0.5, "save_paths": 2}}),
        ("pdmp-vs-diffusion", COSINE_RECORD,
         {"horizon": 3.0, "replicas": 2, "options": {"lambda_grid": [1.0, 4.0]}}),
        ("metastability", COSINE_RECORD,
         {"process": "both",
          "options": {"m_grid": [8.0, 16.0], "max_time": 10.0}}),
    ])
    def test_hash_inventory_same_at_1_2_3_workers(self, tmp_path,
                                                   monkeypatch, kind, record,
                                                   extra):
        # Every kind cuts each cell into min(workers, replicas) chunks:
        # 130 replicas give one chunk at 1 worker, 65 + 65 at 2 and
        # 43 + 43 + 44 at 3; 3 replicas give 1, 1 + 2 and 1 + 1 + 1.
        inventories = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("CIRCLELAB_WORKERS", workers)
            out = tmp_path / workers
            config = scenario_from_dict({
                "kind": kind, "potential": record, "dt": 2e-3,
                "replicas": 130, "x0": 0.0, "root_seed": 41,
                "out_dir": str(out), **extra})
            n_cells = len(runner_module._KINDS[kind].cells(config))
            assert run_scenario(config).n_tasks == \
                n_cells * min(int(workers), config.replicas)
            inventories.append(hash_inventory(str(out)))
        assert inventories[1] == inventories[0]
        assert inventories[2] == inventories[0]


class TestScenarioEstimates:
    """Each scenario kind produces the estimates its verdicts need."""

    def test_localization_estimates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = scenario_from_dict({
            "kind": "localization", "potential": MIXTURE_RECORD,
            "process": "pdmp", "lambda": 1.0, "horizon": 400.0,
            "replicas": 3, "u0": 30.0,
            "out_dir": str(tmp_path / "loc"),
            # At this short horizon |U| only reaches ~80, so the orbit
            # around the trap still swings ~0.2 wide; use a matching
            # tolerance (the verification horizon of 2000 tightens it).
            "options": {"u_threshold": -10.0, "burn_in": 50.0,
                        "tolerance": 0.3, "save_paths": 0},
        })
        run_scenario(config)
        estimates = read_json(str(tmp_path / "loc" / "estimates.json"))
        per = estimates["per_process"]["pdmp"]
        assert per["n_replicas"] == 3
        # u0=30 with trap value -0.2: U_t ~ 30 - 0.2 t < -10 by t = 200.
        assert per["n_locked"] == 3
        assert per["final_fraction_near_trap"] == 1.0

    def test_hitting_estimates_respect_floor(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = scenario_from_dict({
            "kind": "hitting", "potential": COSINE_RECORD,
            "process": "pdmp", "lambda": 0.25, "horizon": 50.0,
            "replicas": 40, "out_dir": str(tmp_path / "hit"),
        })
        run_scenario(config)
        estimates = read_json(str(tmp_path / "hit" / "estimates.json"))
        table = estimates["per_process"]["pdmp"]["table"]
        assert len(table) == 3
        for row in table:
            assert row["min"] >= row["kappa_sqrt_eta"]
            assert row["violations"] == 0
        assert estimates["per_process"]["pdmp"]["zero_violations"]

    def test_metastability_estimates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = scenario_from_dict({
            "kind": "metastability", "potential": COSINE_RECORD,
            "process": "diffusion", "dt": 2e-3, "replicas": 25,
            "out_dir": str(tmp_path / "meta"),
            "options": {"m_grid": [8.0, 16.0], "max_time": 60.0},
        })
        run_scenario(config)
        estimates = read_json(str(tmp_path / "meta" / "estimates.json"))
        table = estimates["per_process"]["diffusion"]["table"]
        assert [row["m"] for row in table] == [8.0, 16.0]
        for row in table:
            assert row["trials"] == 25
            assert 0.0 <= row["estimate"] <= 1.0
            assert row["bound"] > 0.0

    def test_metastability_eta_above_delta_fails_before_any_task(
            self, tmp_path, monkeypatch):
        # delta = 0.150 for this potential, below the default eta of 1/3.
        def fail(config, cell, task):
            raise AssertionError("a task ran")

        monkeypatch.setitem(
            runner_module._KINDS, "metastability",
            runner_module._KINDS["metastability"]._replace(run=fail))
        config = scenario_from_dict({
            "kind": "metastability", "potential": SKEWED_RECORD,
            "replicas": 10, "out_dir": str(tmp_path / "meta")})
        with pytest.raises(ConfigError,
                           match=r"field 'eta': .*eta=0\.333.*delta=0\.150"):
            run_scenario(config)

    @pytest.mark.parametrize("kind, field, extra", [
        ("ergodic", "burn_in", {"options": {"burn_in": 50.0}}),
        ("ergodic", "burn_in", {"options": {"burn_in": 20.0}}),
        ("ergodic", "burn_in", {"options": {"burn_in": -5.0}}),
        ("pdmp-vs-diffusion", "burn_in", {"options": {"burn_in": 20.0}}),
        ("pdmp-vs-diffusion", "burn_in", {"options": {"burn_in": 25.0}}),
        ("pdmp-vs-diffusion", "lambda_grid",
         {"options": {"lambda_grid": [1.0, 0.0]}}),
        ("pdmp-vs-diffusion", "lambda_grid",
         {"options": {"lambda_grid": [-1.0]}}),
        ("metastability", "max_time", {"options": {"max_time": 0.0}}),
        ("metastability", "max_time", {"options": {"max_time": -1.0}}),
        ("localization", "burn_in",
         {"potential": MIXTURE_RECORD, "options": {"burn_in": 0.0}}),
        ("localization", "burn_in",
         {"potential": MIXTURE_RECORD, "options": {"burn_in": -1.0}}),
        ("localization", "tolerance", {"options": {"tolerance": 0.0}}),
        ("localization", "tolerance", {"options": {"tolerance": -0.1}}),
        ("drift", "t_grid",
         {"dt": 1e-2, "options": {"t_grid": [1.0, 5e-3]}}),
        ("ergodic", "dt", {"dt": 30.0}),
        ("pdmp-vs-diffusion", "dt", {"dt": 30.0}),
    ])
    def test_bad_option_fails_before_any_task(self, tmp_path, monkeypatch,
                                              kind, field, extra):
        def fail(payload):
            raise AssertionError("a task ran")

        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        monkeypatch.setattr(runner_module, "_execute_task", fail)
        data = {"kind": kind, "potential": COSINE_RECORD, "horizon": 20.0,
                "replicas": 2, "out_dir": str(tmp_path / "run")}
        data.update(extra)
        with pytest.raises(ConfigError, match=f"field '{field}': "):
            run_scenario(scenario_from_dict(data))

    @pytest.mark.parametrize("kind, extra", [
        # The window [burn, burn + (T - burn) / 8] falls between the
        # samples at 19.9 and 20.0.
        ("ergodic", {"options": {"burn_in": 19.95}}),
        # round(1.0005 / 1e-3) = 1000 steps: the last sample is at 1.0.
        ("ergodic", {"horizon": 1.0005, "dt": 1e-3,
                     "options": {"burn_in": 1.0003}}),
        ("pdmp-vs-diffusion", {"horizon": 1.0005, "dt": 1e-3,
                               "options": {"burn_in": 1.0003}}),
    ])
    def test_burn_in_past_the_last_sample_fails_before_any_task(
            self, tmp_path, monkeypatch, kind, extra):
        def fail(payload):
            raise AssertionError("a task ran")

        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        monkeypatch.setattr(runner_module, "_execute_task", fail)
        data = {"kind": kind, "potential": COSINE_RECORD, "horizon": 20.0,
                "replicas": 2, "out_dir": str(tmp_path / "run")}
        data.update(extra)
        with pytest.raises(ConfigError,
                           match="field 'burn_in': the diffusion records "
                                 "no sample in"):
            run_scenario(scenario_from_dict(data))

    def test_burn_in_on_a_sample_runs(self, tmp_path, monkeypatch):
        # [19.9, 19.9125] holds the sample at 19.9 and nothing else.
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        manifest = run_scenario(scenario_from_dict({
            "kind": "ergodic", "potential": COSINE_RECORD, "horizon": 20.0,
            "replicas": 2, "out_dir": str(tmp_path / "run"),
            "options": {"burn_in": 19.9}}))
        assert manifest.failures == ()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_hypothesis_warning_reaches_the_caller(self, tmp_path,
                                                   monkeypatch, workers):
        # One warning per cell whose M * eta <= 1 (M = 2 for each
        # process), raised in the calling process at every worker count.
        # Each names its process, so the default filter, which shows a
        # repeated message from one line once, shows both.
        monkeypatch.setenv("CIRCLELAB_WORKERS", workers)
        config = scenario_from_dict({
            "kind": "metastability", "potential": COSINE_RECORD,
            "process": "both", "dt": 2e-3, "replicas": 200,
            "out_dir": str(tmp_path / "meta"),
            "options": {"m_grid": [2.0, 8.0], "max_time": 5.0}})
        with pytest.warns(HypothesisWarning) as caught:
            run_scenario(config)
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, HypothesisWarning)]
        assert len(set(messages)) == len(messages) == 2
        assert "diffusion" in messages[0] and "pdmp" in messages[1]

    def test_repeated_grid_values_get_rows_of_their_own(self, tmp_path,
                                                         monkeypatch):
        # Each grid value is a cell with its own replicas and seed block.
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        run_scenario(scenario_from_dict({
            "kind": "metastability", "potential": COSINE_RECORD,
            "dt": 2e-3, "replicas": 10, "out_dir": str(tmp_path / "meta"),
            "options": {"m_grid": [8.0, 8.0], "max_time": 30.0}}))
        table = read_json(str(tmp_path / "meta" / "estimates.json"))[
            "per_process"]["diffusion"]["table"]
        assert [(row["m"], row["trials"]) for row in table] == [(8.0, 10)] * 2

        tables = {}
        for name, grid in (("repeated", [1.0, 1.0, 4.0]),
                           ("single", [1.0, 4.0])):
            run_scenario(scenario_from_dict({
                "kind": "pdmp-vs-diffusion", "potential": COSINE_RECORD,
                "horizon": 10.0, "dt": 5e-3, "replicas": 2,
                "out_dir": str(tmp_path / name),
                "options": {"lambda_grid": grid}}))
            tables[name] = read_json(str(tmp_path / name /
                                         "estimates.json"))["table"]
        repeated, single = tables["repeated"], tables["single"]
        assert [row["lambda"] for row in repeated] == [1.0, 1.0, 4.0]
        # The first lambda = 1 cell has seed block 1 in both runs; the
        # second has block 2, which the single grid gives to lambda = 4.
        assert repeated[0] == single[0]
        assert repeated[1]["tv_x_marginal"] != repeated[0]["tv_x_marginal"]

    def test_refinement_estimates_match_the_coupled_simulator(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "2")
        config = scenario_from_dict({
            "kind": "refinement", "potential": MIXTURE_RECORD,
            "horizon": 2.0, "replicas": 150, "x0": 1.0, "u0": 3.0,
            "root_seed": 8, "out_dir": str(tmp_path / "ref")})
        run_scenario(config)
        estimates = read_json(str(tmp_path / "ref" / "estimates.json"))
        levels = (4e-3, 2e-3, 1e-3)
        by_dt = simulate_terminal_u_coupled(
            config.potential, 1.0, 3.0, 2.0, levels,
            seeds=[derive_replica_seed(8, i) for i in range(150)])
        diffs = [by_dt[a] - by_dt[b] for a, b in zip(levels, levels[1:])]
        assert [(d["dt_coarse"], d["dt_fine"])
                for d in estimates["differences"]] == [(4e-3, 2e-3),
                                                       (2e-3, 1e-3)]
        for row, d in zip(estimates["differences"], diffs):
            assert row["mean"] == float(d.mean())
            assert row["std_error"] == float(d.std(ddof=1) / math.sqrt(150))
        assert estimates["ratios"] == [float(diffs[0].mean()
                                             / diffs[1].mean())]

    def test_drift_estimates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = scenario_from_dict({
            "kind": "drift", "potential": COSINE_RECORD, "dt": 2e-3,
            "replicas": 50, "out_dir": str(tmp_path / "drift"),
            "options": {"kappa": 0.05, "t_grid": [5.0],
                        "u0_grid": [0.0, 8.0]},
        })
        run_scenario(config)
        estimates = read_json(str(tmp_path / "drift" / "estimates.json"))
        cells = estimates["per_t"][0]["cells"]
        assert [c["u0"] for c in cells] == [0.0, 8.0]
        for c in cells:
            assert c["estimate"] > 0.0
            assert c["std_error"] >= 0.0

    def test_drift_runs_each_u0_once_to_max_t(self, tmp_path, monkeypatch):
        # On 3 workers the chunks are _SCALAR_PATH_MAX, then twice one
        # wider, so both EM loops run.
        monkeypatch.setenv("CIRCLELAB_WORKERS", "3")
        t_grid, u0_grid = [0.6, 1.0, 0.3], [0.0, 8.0]
        n = 3 * _SCALAR_PATH_MAX + 2
        config = scenario_from_dict({
            "kind": "drift", "potential": COSINE_RECORD, "dt": 2e-2,
            "replicas": n, "root_seed": 11, "x0": 1.0,
            "out_dir": str(tmp_path / "drift"),
            "options": {"kappa": 0.05, "t_grid": t_grid,
                        "u0_grid": u0_grid},
        })
        manifest = run_scenario(config)
        assert manifest.n_tasks == len(u0_grid) * 3
        estimates = read_json(str(tmp_path / "drift" / "estimates.json"))
        row = estimates["per_t"][1]
        assert row["t"] == 1.0
        for j, (u0, cell) in enumerate(zip(u0_grid, row["cells"])):
            # The seeds a run of the (t = 1, u0) cell alone uses.
            base = (1 * len(u0_grid) + j) * n
            vals = np.concatenate([
                np.exp(0.05 * np.abs(simulate_diffusion_ensemble(
                    COSINE, 1.0, u0, 1.0, dt=2e-2, record_every=50,
                    seeds=[derive_replica_seed(11, base + i)
                           for i in range(lo, hi)]).u[:, -1]))
                for lo, hi in replica_chunks(n, 3)])
            assert cell["estimate"] == float(vals.mean())
            assert cell["std_error"] == float(vals.std(ddof=1)
                                              / math.sqrt(vals.size))

    def test_limit_comparison_estimates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        config = scenario_from_dict({
            "kind": "pdmp-vs-diffusion", "potential": COSINE_RECORD,
            "horizon": 20.0, "dt": 5e-3, "replicas": 2,
            "out_dir": str(tmp_path / "lim"),
            "options": {"lambda_grid": [1.0, 4.0]},
        })
        run_scenario(config)
        estimates = read_json(str(tmp_path / "lim" / "estimates.json"))
        assert [row["lambda"] for row in estimates["table"]] == [1.0, 4.0]
        for row in estimates["table"]:
            assert 0.0 <= row["tv_x_marginal"] <= 1.0


# ---------------------------------------------------------------------------
# command-line interface


class TestCli:
    def test_analyze_reports_empty_trap_set(self, tmp_path, capsys):
        pot = tmp_path / "cos.txt"
        pot.write_text("harmonic = 1 1.0 0.0\n")
        assert cli_main(["analyze", str(pot)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["traps"] == []
        assert report["assumptions"]["ok"]
        assert report["delta"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_analyze_reports_traps(self, tmp_path, capsys):
        pot = tmp_path / "mix.json"
        pot.write_text(json.dumps(MIXTURE_RECORD))
        assert cli_main(["analyze", str(pot)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["traps"]) == 1
        assert report["traps"][0]["x"] == pytest.approx(math.pi, abs=1e-9)
        assert report["traps"][0]["value"] == pytest.approx(-0.2, abs=1e-12)

    def test_analyze_missing_file_exits_2(self, tmp_path, capsys):
        assert cli_main(["analyze", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_and_replay_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CIRCLELAB_WORKERS", "1")
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "kind": "doeblin", "potential": COSINE_RECORD,
            "process": "diffusion", "dt": 5e-3, "horizon": 4.0,
            "replicas": 8, "out_dir": str(tmp_path / "out"),
            "options": {"grid_points": 4},
        }))
        assert cli_main(["run", str(scenario)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config_hash"]
        assert "estimates.json" in summary["files"]

        manifest = str(tmp_path / "out" / "manifest.json")
        code = cli_main(["replay", manifest,
                         "--work-dir", str(tmp_path / "again")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["identical"]

    def test_run_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "wat",
                                   "potential": COSINE_RECORD}))
        assert cli_main(["run", str(bad)]) == 2
        assert "kind" in capsys.readouterr().err

    def test_simulate_writes_paths(self, tmp_path, capsys):
        pot = tmp_path / "cos.txt"
        pot.write_text("harmonic = 1 1.0 0.0\n")
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--potential", str(pot),
                         "--horizon", "2.0", "--dt", "0.005",
                         "--out", str(out)]) == 0
        assert (out / "trajectory_0.csv").is_file()
        capsys.readouterr()
        assert cli_main(["simulate", "--potential", str(pot),
                         "--process", "pdmp", "--lambda", "1.0",
                         "--horizon", "2.0", "--out", str(out)]) == 0
        assert (out / "events_0.csv").is_file()

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency: no source file names it, and
        # importing the package loads none of it
        pkg = os.path.dirname(os.path.abspath(circlelab.__file__))
        for root, _, files in os.walk(pkg):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name), encoding="utf-8") as fh:
                        assert "scipy" not in fh.read(), name
        code = ("import sys, circlelab, circlelab.control, circlelab.landscape; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(circlelab.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_console_script_is_registered(self):
        import importlib.metadata as md

        entries = md.entry_points(group="console_scripts")
        names = {e.name for e in entries}
        assert "circlelab" in names
