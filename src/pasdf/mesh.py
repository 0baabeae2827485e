"""Triangle meshes and the operations the sampling stage needs from them."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, PointCloud, Points, Vector

Faces: TypeAlias = NDArray[np.int64]

# A face is degenerate when its area is at most this share of the squared
# bounding-box diagonal, so the check judges a mesh the same at any scale.
_MIN_FACE_AREA = 1e-12


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangle mesh.

    Faces index into ``vertices``; windings are taken as given.  Degenerate
    faces, near zero area relative to the mesh's size, are rejected at
    construction.  The empty mesh (no vertices, no faces) is allowed so
    isosurface extraction can report "no surface" without a special case.
    """

    vertices: Points
    faces: Faces

    def __post_init__(self) -> None:
        verts = np.ascontiguousarray(self.vertices, dtype=np.float64)
        faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise InvalidInputError(f"vertices must have shape (n, 3), got {verts.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise InvalidInputError(f"faces must have shape (m, 3), got {faces.shape}")
        if not np.isfinite(verts).all():
            raise InvalidInputError("vertices contain non-finite values")
        if faces.size and (faces.min() < 0 or faces.max() >= verts.shape[0]):
            raise InvalidInputError("face indices out of range")
        crosses = self._face_crosses(verts, faces)
        areas = 0.5 * np.linalg.norm(crosses, axis=1)
        if faces.size:
            # Reducing the rows of a (3, n) copy is several times faster
            # than reducing the columns of the (n, 3) array.
            coords = np.ascontiguousarray(verts.T)
            extents = coords.max(axis=1) - coords.min(axis=1)
            if areas.min() <= _MIN_FACE_AREA * float(extents @ extents):
                raise InvalidInputError(
                    f"mesh has a degenerate face (area {areas.min():.3e})"
                )
        for name, value in (("vertices", verts), ("faces", faces)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_areas", areas)
        normals = np.zeros_like(crosses)
        if faces.size:
            normals = crosses / (2.0 * areas)[:, None]
        normals.flags.writeable = False
        object.__setattr__(self, "_normals", normals)

    @staticmethod
    def _face_crosses(verts: Points, faces: Faces) -> Points:
        if faces.size == 0:
            return np.zeros((0, 3))
        a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        return np.cross(b - a, c - a)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.n_faces == 0

    @property
    def face_areas(self) -> NDArray[F64]:
        return self._areas  # type: ignore[attr-defined]

    @property
    def face_normals(self) -> Points:
        return self._normals  # type: ignore[attr-defined]

    @property
    def area(self) -> float:
        return float(self.face_areas.sum())

    def bounds(self) -> tuple[Vector, Vector]:
        if self.n_vertices == 0:
            raise InvalidInputError("empty mesh has no bounds")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bounds()
        return float(np.linalg.norm(hi - lo))


@dataclass(frozen=True)
class NormalizationRecord:
    """Uniform scale-and-offset mapping original coordinates into [0, 1]^3."""

    scale: float
    offset: tuple[float, float, float]

    def normalize(self, points: Points) -> Points:
        return (points - np.asarray(self.offset)) / self.scale

    def denormalize(self, points: Points) -> Points:
        return points * self.scale + np.asarray(self.offset)

    def to_dict(self) -> dict:
        return {"scale": self.scale, "offset": list(self.offset)}

    @classmethod
    def from_dict(cls, data: dict) -> "NormalizationRecord":
        return cls(scale=float(data["scale"]), offset=tuple(float(v) for v in data["offset"]))


def normalization_from_bounds(lo: Vector, hi: Vector) -> NormalizationRecord:
    extents = np.asarray(hi, dtype=np.float64) - np.asarray(lo, dtype=np.float64)
    scale = float(extents.max())
    if scale <= 0.0:
        raise InvalidInputError("cannot normalise a degenerate bounding box")
    return NormalizationRecord(scale=scale, offset=tuple(float(v) for v in lo))


def normalize_unit_cube(mesh: TriMesh) -> tuple[TriMesh, NormalizationRecord]:
    """Aspect-preserving rescale into [0, 1]^3.

    One uniform scale for all axes, so the longest axis spans exactly [0, 1]
    and the others land inside it.  The returned record inverts the mapping.
    """
    if mesh.n_vertices < 4:
        raise InvalidInputError("normalisation needs a mesh with at least 4 vertices")
    record = normalization_from_bounds(*mesh.bounds())
    return TriMesh(record.normalize(mesh.vertices), mesh.faces), record


def sample_surface(mesh: TriMesh, n: int, seed: int) -> PointCloud:
    """Draw n points uniformly by area; each carries its face normal.

    Faces are chosen by inverse-CDF over face areas, positions by uniform
    barycentric coordinates (folded to stay inside the triangle).
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if mesh.is_empty:
        raise InvalidInputError("cannot sample an empty mesh")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(mesh.face_areas)
    cdf /= cdf[-1]
    face_idx = np.searchsorted(cdf, rng.random(n), side="right")
    face_idx = np.minimum(face_idx, mesh.n_faces - 1)

    u = rng.random(n)
    v = rng.random(n)
    fold = u + v > 1.0
    u[fold] = 1.0 - u[fold]
    v[fold] = 1.0 - v[fold]

    tri = mesh.vertices[mesh.faces[face_idx]]
    points = tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])
    return PointCloud(points, mesh.face_normals[face_idx])
