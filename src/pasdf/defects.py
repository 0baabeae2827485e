"""Synthetic surface defects with ground-truth point labels.

Each injector perturbs the points inside a euclidean ball around a given
center and returns the modified cloud together with a boolean label per
output point.  A label is True exactly when the point moved, except for
crop, where the removed points are gone and the label goes to the hole
rim instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import InvalidInputError, InvalidParameterError
from .geometry import PointCloud
from .rng import derive_seed


@dataclass(frozen=True)
class DefectResult:
    """A perturbed cloud and its point labels."""

    cloud: PointCloud
    labels: NDArray[np.bool_]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.cloud.points):
            raise InvalidInputError("labels must pair 1:1 with points")


def _patch(
    cloud: PointCloud, center: np.ndarray, radius: float, kind: str
) -> tuple[NDArray[np.bool_], NDArray[np.float64]]:
    if radius <= 0.0:
        raise InvalidParameterError("patch radius must be positive")
    anchor = np.asarray(center, dtype=np.float64)
    if anchor.shape != (3,) or not np.isfinite(anchor).all():
        raise InvalidParameterError("patch center must be a finite 3-vector")
    distances = np.linalg.norm(cloud.points - anchor, axis=1)
    inside = distances < radius
    if not inside.any():
        raise InvalidParameterError(f"{kind} patch contains no points")
    # Smooth falloff: full strength at the center, zero at the rim.
    falloff = np.zeros(len(cloud.points))
    falloff[inside] = np.cos(np.pi * distances[inside] / (2.0 * radius))
    return inside, falloff


def _displace_along_normals(
    cloud: PointCloud,
    center: np.ndarray,
    radius: float,
    magnitude: float,
    sign: float,
    kind: str,
) -> DefectResult:
    if magnitude < 0.0:
        raise InvalidParameterError("magnitude must be non-negative")
    if cloud.normals is None:
        raise InvalidInputError(f"{kind} displaces along normals, cloud has none")
    inside, falloff = _patch(cloud, center, radius, kind)
    points = cloud.points + sign * magnitude * falloff[:, None] * cloud.normals
    return DefectResult(PointCloud(points, cloud.normals), inside & (magnitude > 0.0))


def dent(
    cloud: PointCloud, *, center: np.ndarray, radius: float, magnitude: float
) -> DefectResult:
    """Push the patch inward against its normals."""
    return _displace_along_normals(cloud, center, radius, magnitude, -1.0, "dent")


def bulge(
    cloud: PointCloud, *, center: np.ndarray, radius: float, magnitude: float
) -> DefectResult:
    """Push the patch outward along its normals."""
    return _displace_along_normals(cloud, center, radius, magnitude, 1.0, "bulge")


def noise_patch(
    cloud: PointCloud,
    *,
    center: np.ndarray,
    radius: float,
    magnitude: float,
    seed: int,
) -> DefectResult:
    """Scatter the patch with isotropic gaussian jitter of scale magnitude."""
    if magnitude < 0.0:
        raise InvalidParameterError("magnitude must be non-negative")
    inside, _ = _patch(cloud, center, radius, "noise_patch")
    rng = np.random.default_rng(derive_seed(seed, "defect-noise"))
    points = cloud.points.copy()
    points[inside] += magnitude * rng.normal(size=(int(inside.sum()), 3))
    return DefectResult(PointCloud(points, cloud.normals), inside & (magnitude > 0.0))


def crop(cloud: PointCloud, *, center: np.ndarray, radius: float) -> DefectResult:
    """Cut the patch out entirely; the hole rim is what gets labelled.

    Removal leaves no displaced points to mark, so the label goes to the
    surviving points bordering the hole: anything within one mean
    nearest-neighbour spacing of a removed point.
    """
    inside, _ = _patch(cloud, center, radius, "crop")
    kept = ~inside
    if not kept.any():
        raise InvalidParameterError("crop radius removes the whole cloud")
    spacing_distances, _ = cKDTree(cloud.points).query(cloud.points, k=2)
    mean_spacing = float(spacing_distances[:, 1].mean())
    survivors = cloud.points[kept]
    rim_distance, _ = cKDTree(cloud.points[inside]).query(survivors, k=1)
    labels = rim_distance < mean_spacing
    normals = cloud.normals[kept] if cloud.normals is not None else None
    return DefectResult(PointCloud(survivors, normals), labels)
