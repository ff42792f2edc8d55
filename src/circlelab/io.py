"""Artifact persistence: CSV path files, sorted JSON, and content hashes.

All writers are deterministic: floats are rendered with ``repr`` (the
shortest round-trip form), JSON keys are sorted, and line endings are
fixed, so identical in-memory results always produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Dict

import numpy as np

from .diffusion import Trajectory
from .pdmp import EventLog

__all__ = [
    "write_trajectory_csv",
    "read_trajectory_rows",
    "write_events_csv",
    "read_events_rows",
    "write_json",
    "read_json",
    "sha256_file",
    "hash_inventory",
]


def _floats(column) -> list:
    return np.asarray(column, dtype=float).tolist()


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Write sampled rows as ``t,x,u`` with full-precision floats."""
    rows = zip(_floats(traj.times), _floats(traj.x), _floats(traj.u))
    _write_text(path, "t,x,u\n" + "".join(f"{t!r},{x!r},{u!r}\n"
                                           for t, x, u in rows))


def read_trajectory_rows(path) -> np.ndarray:
    """Read a trajectory CSV back as an (n, 3) float array."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "x", "u"]:
            raise ValueError(f"{path}: unexpected header {header}")
        return np.array([[float(v) for v in row] for row in reader])


def write_events_csv(path, log: EventLog) -> None:
    """Write event rows as ``t,x,u,y,cause`` with full-precision floats."""
    rows = zip(_floats(log.times), _floats(log.x), _floats(log.u),
               np.asarray(log.y).astype(int).tolist(), log.causes)
    _write_text(path, "t,x,u,y,cause\n" + "".join(
        f"{t!r},{x!r},{u!r},{y},{cause}\n" for t, x, u, y, cause in rows))


def read_events_rows(path):
    """Read an events CSV back as (float array (n, 3), y array, causes)."""
    nums, ys, causes = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "x", "u", "y", "cause"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            nums.append([float(row[0]), float(row[1]), float(row[2])])
            ys.append(int(row[3]))
            causes.append(row[4])
    return np.array(nums), np.array(ys, dtype=np.int8), tuple(causes)


def write_json(path, obj) -> None:
    """Write JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_inventory(directory) -> Dict[str, str]:
    """Content hashes of every artifact file in a run directory, the
    manifest excepted."""
    out: Dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if os.path.isfile(full) and name != "manifest.json":
            out[name] = sha256_file(full)
    return out
