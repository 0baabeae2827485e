"""Isosurface extraction by marching cubes.

The full 256-case triangle table is generated at import from first
principles: for each corner-sign configuration, isoline segments are
traced across every cube face (pairing each inside-to-outside boundary
crossing with the next outside-to-inside one along the face loop) and
chained into closed polygons, which are then fan-triangulated.  Because
the pairing rule depends only on a face's own four corner signs, two
cells sharing a face always agree on its isolines and the extracted
surface is crack-free.  Each fan starts at a vertex whose diagonals
avoid every cube face, so no triangle edge lies in a face unless it is
an isoline segment there; otherwise two neighbouring fans could both
run a diagonal across a face with four crossings and pinch the surface
into an edge of four faces.  Triangles wind so normals point toward
increasing field values.

Extraction itself is vectorized: active cells, stably sorted by case,
gather edge triples from one padded (256, 5, 3) int8 table; each
triangle corner is keyed by its grid edge (cell key plus the cube
edge's offset, in int32) so shared edges weld in one ``np.unique``; and
positions come from linear interpolation along each crossed edge.  To
close the boundary only the boolean inside mask is padded.  The two end
values of each crossed edge are read from the caller's field, float32
or float64, and upcast to float64, so a float32 field and its float64
upcast give the same bits.  The int32 keys bound the lattice at
``MAX_RESOLUTION`` (892) vertices a side.  The welded mesh is returned
as built: one vertex per crossed edge, each used by some face.
A crossing that lands on a lattice node puts the vertices of several
edges at one point, and triangles between them have zero area.  They
are emitted, as in classic marching cubes (Lorensen and Cline, SIGGRAPH
1987): they keep every edge on two faces, and sampling by area never
draws them.

``evaluate_field`` samples a model only where its zero level set can
cross the lattice, in two levels: the corners of 4-cell blocks first,
then the corners and centres of the 2-cell blocks inside every 4-cell
block whose sampled vertices show a sign change, and every vertex of
the 2-cell blocks whose sampled vertices show one, both levels repeated
to one fixed point.  Values are exact within one refined 2-cell block
of any sign change and carry only the sign elsewhere, which is all
extraction reads, so the mesh equals the one from a dense sweep except
for the small closed components ``_refine_field`` states it can lose.
The field is stored in the model's dtype, float32 for a trained or
loaded model, with int32 lattice indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from .encoding import EncodingConfig, positional_encode
from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, Points
from .mesh import TriMesh
from .network import SdfModel
from .queries import QueryCounts, bbox_shell

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


_FACE_EDGE_SETS = tuple(
    frozenset(_EDGE_OF_PAIR[frozenset((loop[p], loop[(p + 1) % 4]))] for p in range(4))
    for loop in _FACE_LOOPS
)


def _in_one_face(a: int, b: int) -> bool:
    return any(a in face and b in face for face in _FACE_EDGE_SETS)


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
            # Fan from the first vertex whose diagonals avoid every cube face.
            n = len(polygon)
            apex = next(
                a
                for a in range(n)
                if not any(_in_one_face(polygon[a], polygon[(a + k) % n]) for k in range(2, n - 1))
            )
            polygon = polygon[apex:] + polygon[:apex]
            for k in range(1, n - 1):
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
_CASE_TABLE = np.full((256, max(map(len, CASE_TRIANGLES)), 3), -1, dtype=np.int8)
for _case, _triangles in enumerate(CASE_TRIANGLES):
    if _triangles:
        _CASE_TABLE[_case, : len(_triangles)] = _triangles


# Lattice vertices a side.  Extraction keys grid edges in int32 on a
# lattice closed by one layer each side, so 3·(r + 2)³ stays within 2³¹.
MIN_RESOLUTION, MAX_RESOLUTION = 8, 892


def check_resolution(resolution: int) -> None:
    """Raise InvalidParameterError unless 8 <= resolution <= 892."""
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise InvalidParameterError(
            f"grid resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {resolution}"
        )


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation lattice over an axis-aligned box."""

    resolution: int = 128
    lower: tuple[float, float, float] = (0.0, 0.0, 0.0)
    upper: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        check_resolution(self.resolution)
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
        """The :func:`~pasdf.queries.bbox_shell` of a cloud's bounding box.

        Points are expected in normalized coordinates.  A cloud whose
        expanded box misses the unit cube is an input error.
        """
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise InvalidInputError("points must be a non-empty (n, 3) array")
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        lower, upper = bbox_shell(lo, hi, expand)
        if (upper - lower).min() <= 0.0:
            raise InvalidInputError(
                f"cloud spans {lo.tolist()} to {hi.tolist()} in normalized "
                "coordinates, outside the unit cube"
            )
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


# Edge length, in lattice cells, of the coarse blocks that evaluate_field
# refines; a refined coarse block is judged again in blocks half as wide.
_BLOCK = 4
# Bits that mark a sampled lattice vertex by its sign, and the mark of
# a vertex queued for sampling.
_INSIDE, _OUTSIDE, _QUEUED = 1, 2, 4
# Crossed blocks whose vertices are queued at once: each block adds at
# most 27 vertex indices of about 10 bytes of temporaries.
_QUEUE_BLOCKS = 1024
# Rows per forward chunk of ``evaluate_field``: one float32 layer of
# width 64 at 2 MiB, within a typical L2 cache.
_CHUNK_ROWS = 8192


def evaluate_field(
    model: SdfModel,
    encoding: EncodingConfig,
    grid: GridSpec,
) -> NDArray[np.floating]:
    """The model on the grid's lattice, shape (r, r, r), in the model's dtype.

    Values are exact within one refined 2-cell block of any sign change
    and carry only the sign elsewhere (see ``_refine_field``).  That is
    all ``marching_cubes`` reads: a crossed lattice edge always has both
    ends evaluated.  A small closed component that shows the refinement
    no sign change is lost; ``_refine_field`` states which.  Forward
    computes in the model's dtype, so storing the lattice in it loses
    nothing: a float32 model gives a float32 field, half the bytes of
    float64, and ``marching_cubes`` reads it as it is.

    The encoding acts on each coordinate alone, so the three axes are
    encoded once and the rows of every forward chunk are gathered from
    them, already cast to the model's precision: column ``c::3`` of a
    row comes from axis ``c``.  This equals encoding the vertex
    positions bit for bit without building them.  ``SdfModel.forward``
    pads every batch to 64 rows, so no value depends on the chunking
    into ``_CHUNK_ROWS``-row batches.
    """
    encoded_axes = positional_encode(np.stack(grid.axes(), axis=1), encoding)
    per_axis = [encoded_axes[:, c::3].astype(model.dtype) for c in range(3)]

    def sample(
        i: NDArray[np.int32], j: NDArray[np.int32], k: NDArray[np.int32]
    ) -> NDArray[F64]:
        rows = np.empty((len(i), encoded_axes.shape[1]), dtype=model.dtype)
        for c, index in enumerate((i, j, k)):
            rows[:, c::3] = per_axis[c][index]
        return model.forward(rows)

    values, _ = _refine_field(sample, grid.resolution, _CHUNK_ROWS, model.dtype)
    return values


def _refine_field(
    sample: Callable[[NDArray[np.int32], NDArray[np.int32], NDArray[np.int32]], NDArray[F64]],
    resolution: int,
    chunk_size: int,
    dtype: np.dtype | type = np.float64,
) -> tuple[NDArray[np.floating], NDArray[np.bool_]]:
    """Sign-refined field on an (r, r, r) lattice and the mask of sampled vertices.

    ``sample(i, j, k)`` returns the field at int32 lattice index triples;
    it is called with at most ``chunk_size`` triples at a time, and its
    values are stored as ``dtype``.  The lattice is
    cut into blocks at two sizes, ``_BLOCK`` cells a side and half that
    (the last block per axis partial), so every large block is a union
    of small ones.  The corners of the large blocks are sampled first.
    A block is crossed when its closed box holds sampled vertices of
    both signs; lattice vertices beyond the box count as outside, so a
    block on the box holding an inside vertex qualifies too.  A crossed
    large block gets the corners and centres of its small blocks
    sampled, and a crossed small block all of its vertices.  Both sizes
    are judged again after every round until no new block is crossed.

    A vertex never sampled copies the corner at or below it of its small
    block when that block's corners were sampled, and of its large block
    otherwise; all corners of an uncrossed block share one sign
    (multiresolution isosurface extraction, Mescheder et al., "Occupancy
    Networks", CVPR 2019).  A closed level-set component none of whose
    vertices is sampled is lost: one smaller than a large block that no
    crossed large block touches, or, inside a crossed large block, one
    whose vertices all lie on small-block faces, off their corners, and
    that no crossed small block touches.  A component with a vertex
    strictly inside a small block holds its centre, the only such vertex.
    """
    r = resolution
    values = np.empty(r**3, dtype=dtype)
    # The sign of every sampled vertex, and the mark that queues each
    # vertex of a newly crossed block once for the next round.
    signs = np.zeros(r**3, dtype=np.uint8)
    strides = (_BLOCK, _BLOCK // 2)
    # Lattice indices of the block faces along each axis, per size.
    bounds = [np.append(np.arange(0, r - 1, stride), r - 1).astype(np.int32) for stride in strides]
    coarse, fine = bounds
    refined = [np.zeros((len(b) - 1,) * 3, dtype=bool) for b in bounds]
    # Per size, the offsets of the vertices a crossed block gets sampled
    # at along each axis: the corners and centres of its small blocks,
    # or every vertex of a small block.
    offsets = [
        (np.arange(0, _BLOCK + 1, 2, dtype=np.int32), np.arange(1, _BLOCK, 2, dtype=np.int32)),
        (np.arange(3, dtype=np.int32),),
    ]
    cube = (r, r, r)
    signs[((coarse[:, None, None] * r + coarse[:, None]) * r + coarse).ravel()] = _QUEUED
    while (todo := np.flatnonzero(signs == _QUEUED).astype(np.int32)).size:
        for part, ijk in _chunks(todo, r, chunk_size):
            values[part] = sample(*ijk)
            signs[part] = np.where(values[part] < 0.0, _INSIDE, _OUTSIDE)
        del todo
        # Both sizes are judged before any vertex is queued: a queued
        # mark is not a sign.
        crossed = [_blocks_at_sign_changes(signs.reshape(cube), stride) for stride in strides]
        for now, edges, done, at in zip(crossed, bounds, refined, offsets):
            blocks = np.flatnonzero(now & ~done)
            done |= now
            for offset in at:
                _queue_block_vertices(signs, blocks, edges, offset, r)

    values = values.reshape(cube)
    sampled = signs.reshape(cube) != 0
    del signs
    # Fill the fine lattice from the coarse corners, then every vertex
    # from the fine lattice, one slab of planes over a fine plane at a
    # time so that no temporary spans the lattice; sampled vertices keep
    # their values.
    below = coarse[np.searchsorted(coarse, fine, side="right") - 1]
    fine3, below3 = np.ix_(fine, fine, fine), np.ix_(below, below, below)
    corners = values[fine3]
    np.copyto(corners, values[below3], where=~sampled[fine3])
    below = np.searchsorted(fine, np.arange(r), side="right") - 1
    for at, (lo, hi) in enumerate(zip(fine, np.append(fine[1:], r))):
        np.copyto(values[lo:hi], corners[at][below][:, below], where=~sampled[lo:hi])
    return values, sampled


def _queue_block_vertices(
    signs: NDArray[np.uint8],
    blocks: NDArray[np.int_],
    bounds: NDArray[np.int32],
    offsets: NDArray[np.int32],
    r: int,
) -> None:
    """Mark ``_QUEUED`` the unmarked vertices at ``offsets`` from each
    block's low corner along every axis, cut at its far faces, taking
    ``_QUEUE_BLOCKS`` blocks at a time."""
    n = len(bounds) - 1
    for start in range(0, len(blocks), _QUEUE_BLOCKS):
        i, j, k = (
            np.minimum(bounds[b, None] + offsets, bounds[b + 1, None])
            for b in np.unravel_index(blocks[start : start + _QUEUE_BLOCKS], (n, n, n))
        )
        flat = ((i[:, :, None, None] * r + j[:, None, :, None]) * r + k[:, None, None, :]).ravel()
        signs[flat[signs[flat] == 0]] = _QUEUED


def _chunks(
    flat: NDArray[np.int32], r: int, chunk_size: int
) -> Iterator[tuple[NDArray[np.int32], tuple[NDArray[np.int32], ...]]]:
    """Consecutive runs of flat lattice indices with their (i, j, k) arrays."""
    for start in range(0, len(flat), chunk_size):
        part = flat[start : start + chunk_size]
        yield part, (part // (r * r), part // r % r, part % r)


def _blocks_at_sign_changes(signs: NDArray[np.uint8], stride: int) -> NDArray[np.bool_]:
    """Blocks ``stride`` cells a side whose closed box holds sampled
    vertices of both signs.

    ``signs`` is ``_INSIDE`` or ``_OUTSIDE`` at sampled vertices and 0
    elsewhere.  Beyond the lattice counts as outside, so a block on the
    box holding an inside vertex changes sign too.
    """
    found = signs
    for axis in range(3):
        found = np.moveaxis(_or_over_windows(found, stride, axis), axis, 0)
        found[[0, -1]] |= _OUTSIDE
        found = np.moveaxis(found, 0, axis)
    return found == _INSIDE | _OUTSIDE


def _or_over_windows(a: NDArray[np.uint8], stride: int, axis: int) -> NDArray[np.uint8]:
    """Bitwise OR along ``axis`` over the closed windows [s·b, s·b + s],
    s = ``stride``, the last window cut at the end of the array."""
    a = np.moveaxis(a, axis, 0)
    n = -(-(len(a) - 1) // stride)
    out = a[: stride * n : stride].copy()
    for offset in range(1, stride + 1):
        part = a[offset::stride][:n]
        out[: len(part)] |= part
    return np.moveaxis(out, 0, axis)


def marching_cubes(
    field: NDArray[np.floating],
    grid: GridSpec,
) -> TriMesh:
    """Extract the zero level set of a sampled scalar field.

    The field must be sampled on the grid's lattice, shape (r, r, r) in
    (i, j, k) index order.  A field of uniform sign yields an empty mesh.
    Faces of zero area, where crossings land on lattice nodes, are kept.

    Everything beyond the grid counts as far outside, so a sub-level
    region reaching the grid box gets capped on the boundary planes
    instead of left open there.  Surfaces interior to the grid are
    unaffected, as is the uniform-sign rule.

    A float32 field is read as it is and any other as float64; only the
    boolean inside mask is padded for the closure.  Grid edges are keyed
    in int32, which ``MAX_RESOLUTION`` bounds.  The two end values of
    each crossed edge are gathered, ``_FAR_OUTSIDE`` beyond the grid,
    and upcast to float64 before interpolating, so a float32 field gives
    the mesh of its float64 upcast bit for bit.
    """
    field = np.asarray(field)
    values = np.ascontiguousarray(
        field, dtype=np.float32 if field.dtype == np.float32 else np.float64
    )
    r = grid.resolution
    if values.shape != (r, r, r):
        raise InvalidInputError(
            f"field shape {values.shape} does not match grid resolution {r}"
        )
    finite = np.isfinite(values)
    if not finite.all():
        i, j, k = np.argwhere(~finite)[0]
        raise InvalidInputError(
            f"non-finite field value at grid vertex ({i}, {j}, {k})"
        )
    del finite

    inside = values < 0.0
    # Padded lattice indices are shifted by one against the caller's grid.
    shift = int(inside.any() and not inside.all())
    if shift:
        inside = np.pad(inside, 1)
        r += 2

    n_cells = r - 1
    case_index = np.zeros((n_cells, n_cells, n_cells), dtype=np.uint8)
    for corner, (dx, dy, dz) in enumerate(_CORNERS):
        case_index |= (
            inside[dx : dx + n_cells, dy : dy + n_cells, dz : dz + n_cells]
            .astype(np.uint8)
            << corner
        )
    del inside

    i, j, k = np.nonzero((case_index != 0) & (case_index != 255))
    cases = case_index[i, j, k]
    del case_index
    # Triangles in (case, cell, triangle) order: a stable sort by case
    # keeps cells in lattice order within each case.
    order = np.argsort(cases, kind="stable")
    triangles = _CASE_TABLE[cases[order]]
    cell, slot = np.nonzero(triangles[:, :, 0] >= 0)
    # Every triangle corner keyed by its grid edge, ((i*r + j)*r + k)*3 +
    # axis with (i, j, k) the edge's low lattice corner: the cell's key
    # plus the cube edge's offset, so shared edges weld to one vertex.
    cell_key = ((i * r + j) * r + k).astype(np.int32)[order] * 3
    edge_offset = (_EDGE_CANONICAL[:, :3] @ (r * r, r, 1)) * 3 + _EDGE_CANONICAL[:, 3]
    keys = cell_key[cell, None] + edge_offset.astype(np.int32)[triangles[cell, slot]]
    del i, j, k, cases, order, triangles, cell, slot, cell_key
    unique_keys, face_indices = np.unique(keys, return_inverse=True)
    del keys
    faces = face_indices.reshape(-1, 3)

    # Interpolate one vertex per unique crossed edge, in the caller's
    # lattice indices; interior arithmetic is the same whether or not
    # the mask was padded, so those positions are too.
    *low, axis = np.unravel_index(unique_keys, (r, r, r, 3))
    low = np.stack(low, axis=1) - shift
    step = np.eye(3, dtype=np.int64)[axis]
    f_low = _edge_ends(values, low)
    f_high = _edge_ends(values, low + step)
    t = -f_low / (f_high - f_low)
    spacing = grid.spacing()
    origin = np.asarray(grid.lower)
    positions = origin + (low + t[:, None] * step) * spacing
    return TriMesh(positions, faces)


# Virtual node value for the layer just beyond a closed boundary.  Large
# enough that interpolation against it rounds the crossing onto the
# boundary node itself, small enough to stay finite in the t arithmetic.
_FAR_OUTSIDE = 1e30


def _edge_ends(values: NDArray[np.floating], index: NDArray[np.int64]) -> NDArray[F64]:
    """The field at (n, 3) lattice indices as float64, ``_FAR_OUTSIDE``
    at indices one step beyond the lattice."""
    last = len(values) - 1
    beyond = ((index < 0) | (index > last)).any(axis=1)
    ends = values[tuple(np.clip(index, 0, last).T)].astype(np.float64)
    ends[beyond] = _FAR_OUTSIDE
    return ends
