"""Isosurface extraction by marching cubes.

The full 256-case triangle table is generated at import from first
principles: for each corner-sign configuration, isoline segments are
traced across every cube face (pairing each inside-to-outside boundary
crossing with the next outside-to-inside one along the face loop) and
chained into closed polygons, which are then fan-triangulated.  Because
the pairing rule depends only on a face's own four corner signs, two
cells sharing a face always agree on its isolines and the extracted
surface is crack-free.  Triangles wind so normals point toward
increasing field values.

Extraction itself is vectorized: active cells, stably sorted by case,
gather edge triples from one padded (256, 5, 3) table; each triangle
corner is keyed by its grid edge (cell key plus the cube edge's offset)
so shared edges weld in one ``np.unique``; and positions come from
linear interpolation along each crossed edge.

``evaluate_field`` samples a model only where its zero level set can
cross the lattice: block corners first, then every vertex of the blocks
whose corners or faces show a sign change.  Values are exact within one
refined block of any sign change and carry only the sign elsewhere,
which is all extraction reads, so the mesh equals the one from a dense
sweep unless a closed component fits inside blocks that never refine.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from .encoding import EncodingConfig, positional_encode
from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, Points
from .mesh import Faces, TriMesh
from .network import SdfModel
from .queries import QueryCounts

_CORNERS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ],
    dtype=np.int64,
)

_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)

# Corner loops wound counterclockwise as seen from outside the cube.
_FACE_LOOPS = (
    (0, 3, 2, 1),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)

_EDGE_OF_PAIR = {frozenset(pair): index for index, pair in enumerate(_EDGES)}


def _build_case_table() -> list[list[tuple[int, int, int]]]:
    """Triangles (as edge-index triples) for each of the 256 sign cases."""
    table: list[list[tuple[int, int, int]]] = []
    for case in range(256):
        inside = [(case >> corner) & 1 == 1 for corner in range(8)]
        # Directed isoline segments: from the edge where a face-loop walk
        # leaves the inside region to the edge where it re-enters.
        outgoing: dict[int, int] = {}
        for loop in _FACE_LOOPS:
            steps = []
            for position in range(4):
                a, b = loop[position], loop[(position + 1) % 4]
                if inside[a] != inside[b]:
                    steps.append((_EDGE_OF_PAIR[frozenset((a, b))], inside[a]))
            for index, (edge, leaving) in enumerate(steps):
                if not leaving:
                    continue
                for offset in range(1, len(steps)):
                    other_edge, other_leaving = steps[(index + offset) % len(steps)]
                    if not other_leaving:
                        outgoing[edge] = other_edge
                        break
        # Chain segments into closed polygons.
        triangles: list[tuple[int, int, int]] = []
        remaining = dict(outgoing)
        while remaining:
            start, nxt = remaining.popitem()
            polygon = [start]
            while nxt != start:
                polygon.append(nxt)
                nxt = remaining.pop(nxt)
            polygon.reverse()
            for k in range(1, len(polygon) - 1):
                triangles.append((polygon[0], polygon[k], polygon[k + 1]))
        table.append(triangles)
    return table


CASE_TRIANGLES = _build_case_table()

# Each cube edge as (cell offset of its low corner, axis it runs along).
_EDGE_CANONICAL = []
for _a, _b in _EDGES:
    _lo = np.minimum(_CORNERS[_a], _CORNERS[_b])
    _axis = int(np.flatnonzero(_CORNERS[_a] != _CORNERS[_b])[0])
    _EDGE_CANONICAL.append((_lo[0], _lo[1], _lo[2], _axis))
_EDGE_CANONICAL = np.array(_EDGE_CANONICAL, dtype=np.int64)

# CASE_TRIANGLES as one (256, most triangles of any case, 3) array of
# edge triples, padded with rows of -1.
_CASE_TABLE = np.full((256, max(map(len, CASE_TRIANGLES)), 3), -1, dtype=np.int64)
for _case, _triangles in enumerate(CASE_TRIANGLES):
    if _triangles:
        _CASE_TABLE[_case, : len(_triangles)] = _triangles


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation lattice over an axis-aligned box."""

    resolution: int = 128
    lower: tuple[float, float, float] = (0.0, 0.0, 0.0)
    upper: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.resolution < 8:
            raise InvalidParameterError("grid resolution must be >= 8")
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise InvalidParameterError("grid bounds must be 3-vectors")
        if not np.isfinite(lo).all() or not np.isfinite(hi).all():
            raise InvalidParameterError("grid bounds must be finite")
        if (hi - lo).min() <= 0.0:
            raise InvalidParameterError("grid bounds are degenerate")

    @classmethod
    def for_cloud(
        cls,
        points: Points,
        resolution: int = 128,
        expand: float = QueryCounts.bbox_expand,
    ) -> "GridSpec":
        """Unit cube clipped to the bounding box of a cloud, scaled by
        ``expand`` about its center.

        Points are expected in normalized coordinates.  With the
        ``bbox_expand`` the model's bbox-tier queries were drawn with, the
        grid covers the same shell the model was trained on.
        """
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise InvalidInputError("points must be a non-empty (n, 3) array")
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        center = (lo + hi) / 2.0
        half = np.maximum((hi - lo) / 2.0 * expand, 1e-3)
        lower = np.clip(center - half, 0.0, 1.0)
        upper = np.clip(center + half, 0.0, 1.0)
        return cls(resolution, tuple(lower), tuple(upper))

    def axes(self) -> tuple[NDArray[F64], NDArray[F64], NDArray[F64]]:
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return tuple(
            np.linspace(lo[axis], hi[axis], self.resolution) for axis in range(3)
        )

    def spacing(self) -> NDArray[F64]:
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return (hi - lo) / (self.resolution - 1)


# Edge length, in lattice cells, of the blocks that evaluate_field refines.
_BLOCK = 4


def evaluate_field(
    model: SdfModel,
    encoding: EncodingConfig,
    grid: GridSpec,
    chunk_size: int = 65536,
) -> NDArray[F64]:
    """The model on the grid's lattice, shape (r, r, r).

    Values are exact within one refined block of any sign change and
    carry only the sign elsewhere (see ``_refine_field``).  That is all
    ``marching_cubes`` reads: a crossed lattice edge always has both
    ends evaluated.  The known limit is a closed level-set component
    smaller than one block that touches no refined block: its vertices
    take their block's sign and it is not extracted.

    The encoding acts on each coordinate alone, so the three axes are
    encoded once and the rows of every forward chunk are gathered from
    them, already cast to the model's precision: column ``c::3`` of a
    row comes from axis ``c``.  This equals encoding the vertex
    positions bit for bit without building them.
    """
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be positive")
    encoded_axes = positional_encode(np.stack(grid.axes(), axis=1), encoding)
    per_axis = [encoded_axes[:, c::3].astype(model.dtype) for c in range(3)]

    def sample(
        i: NDArray[np.int_], j: NDArray[np.int_], k: NDArray[np.int_]
    ) -> NDArray[F64]:
        rows = np.empty((len(i), encoded_axes.shape[1]), dtype=model.dtype)
        for c, index in enumerate((i, j, k)):
            rows[:, c::3] = per_axis[c][index]
        return model.forward(rows)

    values, _ = _refine_field(sample, grid.resolution, chunk_size)
    return values


def _refine_field(
    sample: Callable[[NDArray[np.int_], NDArray[np.int_], NDArray[np.int_]], NDArray[F64]],
    resolution: int,
    chunk_size: int,
) -> tuple[NDArray[F64], NDArray[np.bool_]]:
    """Sign-refined field on an (r, r, r) lattice and the mask of sampled vertices.

    ``sample(i, j, k)`` returns the field at lattice index triples; it is
    called with at most ``chunk_size`` triples at a time.  The lattice is
    cut into blocks of ``_BLOCK`` cells a side (the last one per axis
    partial), and the block corners are sampled first.  Every vertex of
    a block is then sampled when its corners disagree in sign or one of
    its faces holds sampled vertices of both signs, repeated until no
    new block qualifies.  Lattice vertices beyond the box count as
    outside, so a block face on the box holding an inside vertex
    qualifies too.  A vertex never sampled takes the value of a corner of
    its block, all of which share one sign (multiresolution isosurface
    extraction, Mescheder et al., "Occupancy Networks", CVPR 2019).
    """
    r = resolution
    bounds = np.append(np.arange(0, r - 1, _BLOCK), r - 1)
    blocks = len(bounds) - 1
    index = np.arange(r)
    # The blocks whose closure holds each vertex index, and the corner
    # index a vertex copies while its block stays coarse.
    owner = np.minimum(index // _BLOCK, blocks - 1)
    below = np.minimum(np.maximum(index - 1, 0) // _BLOCK, blocks - 1)
    corner = index // _BLOCK
    corner[-1] = blocks

    ci, cj, ck = np.meshgrid(bounds, bounds, bounds, indexing="ij")
    corner_flat = ((ci * r + cj) * r + ck).ravel()
    corner_values = np.concatenate(
        [sample(*ijk) for _, ijk in _chunks(corner_flat, r, chunk_size)]
    ).reshape(blocks + 1, blocks + 1, blocks + 1)
    values = corner_values[np.ix_(corner, corner, corner)]
    sampled = np.zeros((r, r, r), dtype=bool)
    sampled.reshape(-1)[corner_flat] = True

    crossed = _blocks_at_sign_changes(corner_values < 0.0, np.arange(blocks + 1))
    while True:
        todo = crossed
        for axis in range(3):
            todo = np.take(todo, owner, axis=axis) | np.take(todo, below, axis=axis)
        todo[sampled] = False
        if not todo.any():
            return values, sampled
        for part, ijk in _chunks(np.flatnonzero(todo), r, chunk_size):
            values.reshape(-1)[part] = sample(*ijk)
        sampled |= todo
        crossed = _blocks_at_sign_changes(values < 0.0, bounds)


def _chunks(
    flat: NDArray[np.int_], r: int, chunk_size: int
) -> Iterator[tuple[NDArray[np.int_], tuple[NDArray[np.int_], ...]]]:
    """Consecutive runs of flat lattice indices with their (i, j, k) arrays."""
    for start in range(0, len(flat), chunk_size):
        part = flat[start : start + chunk_size]
        yield part, (part // (r * r), part // r % r, part % r)


def _blocks_at_sign_changes(
    inside: NDArray[np.bool_], bounds: NDArray[np.int_]
) -> NDArray[np.bool_]:
    """Blocks with a face that holds lattice vertices of both signs.

    ``bounds`` are the lattice indices of the block faces along every
    axis.  Beyond the lattice counts as outside, so a face on the box
    with an inside vertex changes sign too.
    """
    n = len(bounds) - 1
    found = np.zeros((n, n, n), dtype=bool)
    for axis in range(3):
        faces = np.moveaxis(inside, axis, 0)[bounds]
        any_inside = _reduce_face_windows(faces, bounds, np.logical_or)
        all_inside = _reduce_face_windows(faces, bounds, np.logical_and)
        changed = any_inside & ~all_inside
        changed[[0, -1]] = any_inside[[0, -1]]
        # Block b lies between faces b and b + 1.
        found |= np.moveaxis(changed[:-1] | changed[1:], 0, axis)
    return found


def _reduce_face_windows(
    faces: NDArray[np.bool_], bounds: NDArray[np.int_], op: np.ufunc
) -> NDArray[np.bool_]:
    """Reduce each face plane over the closed windows between ``bounds``."""
    for axis in (1, 2):
        faces = op(
            op.reduceat(faces, bounds[:-1], axis=axis),
            np.take(faces, bounds[1:], axis=axis),
        )
    return faces


def marching_cubes(
    field: NDArray[F64],
    grid: GridSpec,
    *,
    close_boundary: bool = False,
) -> TriMesh:
    """Extract the zero level set of a sampled scalar field.

    The field must be sampled on the grid's lattice, shape (r, r, r) in
    (i, j, k) index order.  A field of uniform sign yields an empty mesh.

    With ``close_boundary`` everything beyond the grid counts as far
    outside, so a sub-level region reaching the grid box gets capped on
    the boundary planes instead of left open there.  Surfaces interior
    to the grid are unaffected, as is the uniform-sign rule.
    """
    values = np.ascontiguousarray(field, dtype=np.float64)
    r = grid.resolution
    if values.shape != (r, r, r):
        raise InvalidInputError(
            f"field shape {values.shape} does not match grid resolution {r}"
        )
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j, k = bad[0]
        raise InvalidInputError(
            f"non-finite field value at grid vertex ({i}, {j}, {k})"
        )

    padded = close_boundary and bool((values < 0.0).any() and (values >= 0.0).any())
    if padded:
        values = _pad_outside(values)
        r += 2

    inside = values < 0.0
    n_cells = r - 1
    case_index = np.zeros((n_cells, n_cells, n_cells), dtype=np.uint8)
    for corner, (dx, dy, dz) in enumerate(_CORNERS):
        case_index |= (
            inside[dx : dx + n_cells, dy : dy + n_cells, dz : dz + n_cells]
            .astype(np.uint8)
            << corner
        )

    i, j, k = np.nonzero((case_index != 0) & (case_index != 255))
    cases = case_index[i, j, k]
    # Triangles in (case, cell, triangle) order: a stable sort by case
    # keeps cells in lattice order within each case.
    order = np.argsort(cases, kind="stable")
    triangles = _CASE_TABLE[cases[order]]
    cell, slot = np.nonzero(triangles[:, :, 0] >= 0)
    # Every triangle corner keyed by its grid edge, ((i*r + j)*r + k)*3 +
    # axis with (i, j, k) the edge's low lattice corner: the cell's key
    # plus the cube edge's offset, so shared edges weld to one vertex.
    cell_key = ((i * r + j) * r + k)[order] * 3
    edge_offset = (_EDGE_CANONICAL[:, :3] @ (r * r, r, 1)) * 3 + _EDGE_CANONICAL[:, 3]
    keys = cell_key[cell, None] + edge_offset[triangles[cell, slot]]
    unique_keys, face_indices = np.unique(keys, return_inverse=True)
    faces = face_indices.reshape(-1, 3)

    # Interpolate one vertex per unique crossed edge.
    *low, axis = np.unravel_index(unique_keys, (r, r, r, 3))
    low = np.stack(low, axis=1)
    step = np.eye(3, dtype=np.int64)[axis]
    high = low + step
    f_low = values[low[:, 0], low[:, 1], low[:, 2]]
    f_high = values[high[:, 0], high[:, 1], high[:, 2]]
    t = -f_low / (f_high - f_low)
    spacing = grid.spacing()
    origin = np.asarray(grid.lower)
    # Padded lattice indices are shifted by one against the caller's
    # grid; undoing the shift here keeps interior vertex arithmetic (and
    # so their positions) identical with and without boundary closure.
    shift = 1 if padded else 0
    positions = origin + ((low - shift) + t[:, None] * step) * spacing

    faces = _contract_slivers(positions, faces)
    if faces.size == 0:
        return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    used, renumbered = np.unique(faces.ravel(), return_inverse=True)
    return TriMesh(positions[used], renumbered.reshape(-1, 3).astype(np.int64))


# Virtual node value for the layer just beyond a closed boundary.  Large
# enough that interpolation against it rounds the crossing onto the
# boundary node itself, small enough to stay finite in the t arithmetic.
_FAR_OUTSIDE = 1e30


def _pad_outside(values: NDArray[F64]) -> NDArray[F64]:
    """Wrap the field in one lattice layer of far-outside values."""
    r = values.shape[0] + 2
    padded = np.full((r, r, r), _FAR_OUTSIDE, dtype=np.float64)
    padded[1:-1, 1:-1, 1:-1] = values
    return padded


# Contract faces below this area rather than emit them; one decade of
# margin over the mesh validator's degenerate-face floor.
_SLIVER_AREA = 1e-11


def _contract_slivers(positions: Points, faces: Faces) -> Faces:
    """Collapse near-zero-area faces onto their shortest edge.

    Crossings that land on (or within float noise of) a lattice point
    produce triangles too thin for mesh validation.  Deleting them would
    open holes, so instead each one's shortest edge is contracted, which
    also collapses the matching face on the far side of that edge and
    keeps the surface closed.  Contractions move vertices by at most the
    contracted edge length, which is bounded by the sliver size itself.
    """
    while True:
        tri = positions[faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        small = np.flatnonzero(0.5 * np.linalg.norm(cross, axis=1) < _SLIVER_AREA)
        if small.size == 0:
            return faces
        # One disjoint batch of contractions per pass; every pass retires
        # at least one vertex, so the loop terminates.
        merge_into = np.arange(len(positions))
        touched = np.zeros(len(positions), dtype=bool)
        for a, b, c in faces[small]:
            if touched[a] or touched[b] or touched[c]:
                continue
            pairs = ((a, b), (b, c), (c, a))
            lengths = [
                np.linalg.norm(positions[p] - positions[q]) for p, q in pairs
            ]
            keep_vertex, drop_vertex = pairs[int(np.argmin(lengths))]
            merge_into[drop_vertex] = keep_vertex
            touched[a] = touched[b] = touched[c] = True
        faces = merge_into[faces]
        faces = faces[
            (faces[:, 0] != faces[:, 1])
            & (faces[:, 1] != faces[:, 2])
            & (faces[:, 2] != faces[:, 0])
        ]
        if faces.size == 0:
            return faces
