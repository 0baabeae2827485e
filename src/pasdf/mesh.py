"""Triangle meshes and the operations the sampling stage needs from them."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, PointCloud, Points, Vector

Faces: TypeAlias = NDArray[np.int64]


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangle mesh.

    Faces index into ``vertices``; windings are taken as given.  Shapes,
    finiteness and index range are checked at construction; face
    geometry is not, so a face of zero area is allowed and gets a zero
    normal.  Areas and normals are computed on first use.  The empty
    mesh (no vertices, no faces) is allowed so isosurface extraction can
    report "no surface" without a special case.
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
        for name, value in (("vertices", verts), ("faces", faces)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @cached_property
    def _face_geometry(self) -> tuple[NDArray[F64], Points]:
        """Read-only face areas and unit normals, one cross product per face."""
        a, b, c = (self.vertices[self.faces[:, corner]] for corner in range(3))
        crosses = np.cross(b - a, c - a)
        areas = 0.5 * np.linalg.norm(crosses, axis=1)
        twice = 2.0 * areas[:, None]
        normals = np.divide(crosses, twice, out=np.zeros_like(crosses), where=twice > 0.0)
        areas.flags.writeable = normals.flags.writeable = False
        return areas, normals

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
        return self._face_geometry[0]

    @property
    def face_normals(self) -> Points:
        """Unit normals by the right-hand rule; zero for a zero-area face."""
        return self._face_geometry[1]

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
    cdf = np.cumsum(mesh.face_areas)
    if cdf[-1] == 0.0:
        raise InvalidInputError("cannot sample a mesh of zero area")
    rng = np.random.default_rng(seed)
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
