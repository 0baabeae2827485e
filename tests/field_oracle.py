"""Dense field evaluation: the reference ``evaluate_field`` is checked against.

Every lattice vertex is encoded from its position and run through the
model in chunks, so nothing here shares code with the per-axis gather or
the sign refinement of ``pasdf.marching``.
"""
from __future__ import annotations

import numpy as np

from pasdf.encoding import EncodingConfig, positional_encode
from pasdf.marching import GridSpec
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
