"""Point-cloud and rigid-motion primitives.

Everything downstream (registration, sampling, scoring, repair) builds on the
types in this module.  Conventions, fixed once here:

- points are float64 arrays of shape (n, 3), row per point
- normals, when present, are unit length and paired 1:1 with points
- a rigid transform maps x to R @ x + t with det(R) = +1
- nearest-neighbour queries are exact
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import InvalidInputError, InvalidParameterError
from .runtime import worker_count

F64: TypeAlias = np.float64
Points: TypeAlias = NDArray[F64]
Vector: TypeAlias = NDArray[F64]
Matrix: TypeAlias = NDArray[F64]

# Rotations are re-orthonormalised once accumulated drift exceeds this.
_ROTATION_DRIFT_TOL = 1e-6
# A matrix drifting further than this from orthonormal is not a rotation
# carrying rounding error, and is refused rather than projected.
_ROTATION_DRIFT_LIMIT = 1e-3
_UNIT_NORMAL_TOL = 1e-6


def _as_points(array: object, name: str) -> Points:
    pts = np.ascontiguousarray(array, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"{name} must have shape (n, 3), got {np.shape(array)}")
    if not np.isfinite(pts).all():
        raise InvalidInputError(f"{name} contains non-finite values")
    return pts


def _frozen(array: NDArray) -> NDArray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PointCloud:
    """Immutable point set with optional per-point unit normals."""

    points: Points
    normals: Points | None = None

    def __post_init__(self) -> None:
        pts = _as_points(self.points, "points")
        if pts.shape[0] == 0:
            raise InvalidInputError("point cloud must contain at least one point")
        object.__setattr__(self, "points", _frozen(pts))
        if self.normals is not None:
            nrm = _as_points(self.normals, "normals")
            if nrm.shape[0] != pts.shape[0]:
                raise InvalidInputError(
                    f"normals count {nrm.shape[0]} does not match point count {pts.shape[0]}"
                )
            lengths = np.linalg.norm(nrm, axis=1)
            if np.abs(lengths - 1.0).max() > _UNIT_NORMAL_TOL:
                raise InvalidInputError("normals must be unit length")
            object.__setattr__(self, "normals", _frozen(nrm))

    def __len__(self) -> int:
        return self.points.shape[0]

    def bounds(self) -> tuple[Vector, Vector]:
        return self.points.min(axis=0), self.points.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bounds()
        return float(np.linalg.norm(hi - lo))

    def centroid(self) -> Vector:
        return self.points.mean(axis=0)


def _polar_rotation(matrix: Matrix) -> Matrix:
    u, _, vt = np.linalg.svd(matrix)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        raise InvalidInputError("matrix is closer to a reflection than a rotation")
    return rot


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) motion: x maps to rotation @ x + translation."""

    rotation: Matrix
    translation: Vector

    def __post_init__(self) -> None:
        rot = np.ascontiguousarray(self.rotation, dtype=np.float64)
        tr = np.ascontiguousarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise InvalidInputError(f"rotation must be 3x3, got {rot.shape}")
        if tr.shape != (3,):
            raise InvalidInputError(f"translation must have shape (3,), got {tr.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(tr).all()):
            raise InvalidInputError("transform contains non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            drift = np.abs(rot.T @ rot - np.eye(3)).max()
        if not drift <= _ROTATION_DRIFT_LIMIT:
            raise InvalidInputError(
                f"rotation is too far from orthonormal to be one (drift {drift:.3g})"
            )
        if drift > _ROTATION_DRIFT_TOL:
            rot = _polar_rotation(rot)
        elif np.linalg.det(rot) < 0.0:
            raise InvalidInputError("rotation has negative determinant")
        object.__setattr__(self, "rotation", _frozen(rot))
        object.__setattr__(self, "translation", _frozen(tr))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidTransform":
        rot_t = self.rotation.T.copy()
        return RigidTransform(rot_t, -(rot_t @ self.translation))


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Transform applying ``inner`` first, then ``outer``."""
    rotation = outer.rotation @ inner.rotation
    translation = outer.rotation @ inner.translation + outer.translation
    return RigidTransform(rotation, translation)


def apply_points(transform: RigidTransform, points: Points) -> Points:
    return points @ transform.rotation.T + transform.translation


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Rigidly move a cloud; normals rotate, order is preserved."""
    normals = None
    if cloud.normals is not None:
        normals = cloud.normals @ transform.rotation.T
    return PointCloud(apply_points(transform, cloud.points), normals)


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace each occupied voxel cell by the centroid of its points.

    Cell membership uses floor(p / voxel_size) per axis.  Output points are
    ordered by lexicographic cell key, so the result is deterministic; it
    carries no normals.
    """
    if voxel_size <= 0.0 or not np.isfinite(voxel_size):
        raise InvalidParameterError(f"voxel_size must be positive and finite, got {voxel_size}")
    cells = np.floor(cloud.points / voxel_size).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    ordered = cells[order]
    starts = np.ones(len(cloud), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(cloud), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    n_cells = int(starts.sum())
    counts = np.bincount(inverse, minlength=n_cells).astype(np.float64)
    sums = [np.bincount(inverse, weights=col, minlength=n_cells) for col in cloud.points.T]
    return PointCloud(np.column_stack(sums) / counts[:, None])


def estimate_normals(
    cloud: PointCloud, k: int, viewpoint: Vector
) -> tuple[PointCloud, int]:
    """Per-point normals from the smallest principal axis of each k-neighbourhood.

    Each normal is the eigenvector with smallest eigenvalue of the covariance
    of the point's k nearest neighbours (the point itself included), oriented
    toward the viewpoint: dot(normal, viewpoint - point) >= 0.  Neighbourhoods
    whose covariance carries no direction at all (all k points coincident)
    receive the +z placeholder and are tallied in the returned count.
    """
    n = len(cloud)
    if not 3 <= k <= n:
        raise InvalidParameterError(f"k must be in [3, {n}], got {k}")
    vp = np.asarray(viewpoint, dtype=np.float64)
    if vp.shape != (3,):
        raise InvalidParameterError(f"viewpoint must have shape (3,), got {vp.shape}")

    _, idx = cKDTree(cloud.points).query(cloud.points, k=k, workers=worker_count())
    neighbours = cloud.points[idx]
    centered = neighbours - neighbours.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / float(k)
    eigvals, eigvecs = np.linalg.eigh(cov)

    normals = eigvecs[:, :, 0].copy()
    degenerate = eigvals[:, 2] < 1e-18
    normals[degenerate] = (0.0, 0.0, 1.0)
    toward = np.einsum("ni,ni->n", normals, vp[None, :] - cloud.points)
    normals[toward < 0.0] *= -1.0
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(cloud.points, normals), int(degenerate.sum())


def _sided_square_sums(a: Points, b: Points) -> tuple[float, float]:
    workers = worker_count()
    d_ab, _ = cKDTree(b).query(a, k=1, workers=workers)
    d_ba, _ = cKDTree(a).query(b, k=1, workers=workers)
    return float(np.sum(d_ab**2)), float(np.sum(d_ba**2))


def chamfer_loss(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean-of-squares chamfer discrepancy.

    Average squared nearest-neighbour distance from a to b plus the same from
    b to a.  This is the convergence quantity used by the alignment loop.
    """
    sum_ab, sum_ba = _sided_square_sums(a.points, b.points)
    return sum_ab / len(a) + sum_ba / len(b)


def chamfer_metric(a: PointCloud, b: PointCloud) -> float:
    """Summed (unnormalised) squared chamfer distance, both directions.

    Reported by the repair-quality path; distinct from :func:`chamfer_loss`,
    which averages per side.
    """
    sum_ab, sum_ba = _sided_square_sums(a.points, b.points)
    return sum_ab + sum_ba


def rotation_about_axis(axis: Vector, angle: float) -> Matrix:
    """Rotation matrix for a right-handed turn of ``angle`` radians about ``axis``."""
    ax = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(ax)
    if norm < 1e-12:
        raise InvalidParameterError("rotation axis must be non-zero")
    x, y, z = ax / norm
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def random_rotation(rng: np.random.Generator) -> Matrix:
    """Uniformly distributed rotation via a normalised random quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rigid(rng: np.random.Generator, translation_scale: float = 1.0) -> RigidTransform:
    """Random pose: uniform rotation, uniform translation in a centered cube."""
    translation = rng.uniform(-translation_scale, translation_scale, size=3)
    return RigidTransform(random_rotation(rng), translation)
