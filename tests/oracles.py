"""Measures and readers that only the tests use.

``rotation_angle`` sizes a rotation error, ``signed_volume`` and
``check_watertight`` judge the meshes that shapes and marching cubes
build, ``read_obj`` reads back what ``pasdf.meshio.write_obj`` writes,
``serialize`` and ``save_config`` write the documents
``pasdf.config.deserialize`` and ``pasdf.config.load_config`` read, and
``stdout_per_blas_thread_count`` runs a script at one and two BLAS threads.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np

from pasdf.config import RunConfig
from pasdf.errors import InvalidInputError
from pasdf.mesh import TriMesh

REPO = Path(__file__).resolve().parents[1]


def rotation_angle(rotation: np.ndarray) -> float:
    """Rotation magnitude in radians, in [0, pi]."""
    trace = float(np.trace(rotation))
    return float(np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0)))


def signed_volume(mesh: TriMesh) -> float:
    """Divergence-theorem volume; positive when windings face outward."""
    if mesh.is_empty:
        return 0.0
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def check_watertight(mesh: TriMesh) -> tuple[bool, int]:
    """Whether every undirected edge is shared by exactly two faces.

    Returns the flag plus the number of edges violating it.  The empty mesh
    encloses nothing and reports not watertight with zero bad edges.
    """
    if mesh.is_empty:
        return False, 0
    faces = mesh.faces
    edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    bad = int(np.sum(counts != 2))
    return bad == 0, bad


def read_obj(path: str | Path) -> TriMesh:
    """Vertices and faces of an OBJ file; polygons are fanned into
    triangles and negative indices count back from the last vertex."""
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                vertices.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(tok.split("/")[0]) for tok in parts[1:]]
                idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
                if len(idx) < 3:
                    raise InvalidInputError("face with fewer than 3 vertices")
                faces.extend([idx[0], idx[i], idx[i + 1]] for i in range(1, len(idx) - 1))
    if not vertices:
        raise InvalidInputError(f"{path}: OBJ file has no vertices")
    return TriMesh(np.asarray(vertices, dtype=np.float64), np.asarray(faces, dtype=np.int64))


def to_document(config: RunConfig) -> dict[str, Any]:
    """Emit the complete JSON document for a config, defaults included."""
    document: dict[str, Any] = {"seed": config.seed}
    for section in (f for f in fields(config) if f.name != "seed"):
        values = getattr(config, section.name)
        # The training seed derives from the root seed and is left out.
        document[section.name] = {
            key.name: _json_value(getattr(values, key.name))
            for key in fields(values)
            if (section.name, key.name) != ("training", "seed")
        }
    return document


def _json_value(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


def serialize(config: RunConfig) -> str:
    return json.dumps(to_document(config), indent=2) + "\n"


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(serialize(config))


def stdout_per_blas_thread_count(script: str) -> list[str]:
    """What ``script`` prints, run on ``src`` in a fresh interpreter at
    ``OPENBLAS_NUM_THREADS`` 1 and then 2."""
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        outputs.append(run.stdout)
    return outputs


# PLY clouds that read but cannot be used: the vertex rows of each, and
# the complaint ``PointCloud`` makes about them.
UNUSABLE_CLOUDS = {
    "no-vertex": ([], "point cloud must contain at least one point"),
    "nan-vertex": (["0 0 0", "nan 0 0"], "points contains non-finite values"),
}


def write_ascii_ply(path: str | Path, rows: list[str]) -> None:
    """An ASCII PLY of x/y/z vertex rows."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}"]
    header += [f"property float {axis}" for axis in "xyz"] + ["end_header"]
    Path(path).write_text("\n".join(header + rows) + "\n")
