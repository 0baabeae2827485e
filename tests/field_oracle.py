"""References that ``pasdf.marching`` is checked against.

``dense_field`` encodes every lattice vertex from its position and runs
it through the model in chunks, so nothing here shares code with the
per-axis gather or the sign refinement of ``evaluate_field``.

``grouped_marching_cubes`` welds the mesh the plain way: cells grouped
by case in a loop, each triangle corner's grid edge decoded to a lattice
index and keyed from it, and vertices renumbered over the faces that use
them.  Zero-area faces are kept.  ``marching_cubes`` must number
vertices and order faces exactly as it does, since that order decides
the points ``sample_surface`` draws and the bytes of a repaired OBJ.
"""
from __future__ import annotations

import numpy as np

from pasdf.encoding import EncodingConfig, positional_encode
from pasdf.marching import (
    _CORNERS,
    _EDGE_CANONICAL,
    CASE_TRIANGLES,
    GridSpec,
    _pad_outside,
)
from pasdf.mesh import TriMesh
from pasdf.network import SdfModel


def vertex_positions(grid: GridSpec) -> np.ndarray:
    """All lattice vertices in (i, j, k) index order, k fastest."""
    ax, ay, az = grid.axes()
    gx, gy, gz = np.meshgrid(ax, ay, az, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def dense_field(model: SdfModel, encoding: EncodingConfig, grid: GridSpec) -> np.ndarray:
    """The model on every lattice vertex, shape (r, r, r), in 65,536-row chunks."""
    positions = vertex_positions(grid)
    chunk = 65536
    values = np.concatenate(
        [
            model.forward(positional_encode(positions[start : start + chunk], encoding))
            for start in range(0, len(positions), chunk)
        ]
    )
    r = grid.resolution
    return values.reshape(r, r, r)


def grouped_marching_cubes(
    field: np.ndarray, grid: GridSpec, close_boundary: bool = False
) -> TriMesh:
    """``marching_cubes`` with triangles gathered case by case."""
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    values = np.asarray(field, dtype=np.float64)
    r = grid.resolution
    padded = close_boundary and bool((values < 0.0).any() and (values >= 0.0).any())
    if padded:
        values = _pad_outside(values)
        r += 2
    inside = values < 0.0
    n = r - 1
    case_index = np.zeros((n, n, n), dtype=np.uint8)
    for corner, (dx, dy, dz) in enumerate(_CORNERS):
        case_index |= inside[dx : dx + n, dy : dy + n, dz : dz + n].astype(np.uint8) << corner
    active = np.argwhere((case_index != 0) & (case_index != 255))
    cases = case_index[active[:, 0], active[:, 1], active[:, 2]]
    tri_cells, tri_edges = [], []
    for case in np.unique(cases):
        triangles = np.asarray(CASE_TRIANGLES[case], dtype=np.int64)
        cells_here = active[cases == case]
        tri_cells.append(np.repeat(cells_here, len(triangles), axis=0))
        tri_edges.append(np.tile(triangles, (len(cells_here), 1)))
    if not tri_cells:
        return empty
    cells = np.concatenate(tri_cells)
    canon = _EDGE_CANONICAL[np.concatenate(tri_edges).ravel()]
    corner_index = cells.repeat(3, axis=0) + canon[:, :3]
    keys = (
        (corner_index[:, 0] * r + corner_index[:, 1]) * r + corner_index[:, 2]
    ) * 3 + canon[:, 3]
    unique_keys, face_indices = np.unique(keys, return_inverse=True)

    axis = unique_keys % 3
    flat = unique_keys // 3
    low = np.stack([flat // (r * r), flat // r % r, flat % r], axis=1)
    step = np.zeros_like(low)
    step[np.arange(len(low)), axis] = 1
    high = low + step
    f_low = values[low[:, 0], low[:, 1], low[:, 2]]
    f_high = values[high[:, 0], high[:, 1], high[:, 2]]
    t = -f_low / (f_high - f_low)
    shift = 1 if padded else 0
    positions = np.asarray(grid.lower) + ((low - shift) + t[:, None] * step) * grid.spacing()

    faces = face_indices.reshape(-1, 3)
    used, renumbered = np.unique(faces.ravel(), return_inverse=True)
    return TriMesh(positions[used], renumbered.reshape(-1, 3).astype(np.int64))
