"""Shape repair: replace an anomalous surface with the learned normal one.

The anomalous cloud is pose-aligned into the canonical frame, the
model's zero level set is extracted over an evaluation grid covering the
aligned footprint, and the repaired cloud is an area-uniform sample of
the extracted mesh in original units.  Quality is reported against a
reference cloud with the summed chamfer distance and an exact earth
mover's distance on a matched subsample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_assignment
# perfbench/layers.py hooks pasdf.repair.positional_encode, so the name stays.
from .encoding import EncodingConfig, positional_encode  # noqa: F401
from .errors import InvalidInputError, InvalidParameterError, RepairFailedError
from .geometry import (
    PointCloud,
    RigidTransform,
    apply_transform,
    chamfer_metric,
)
from .marching import GridSpec, evaluate_field, marching_cubes
from .mesh import NormalizationRecord, TriMesh, sample_surface
from .network import SdfModel
from .queries import QueryCounts
from .registration import pose_align
from .rng import derive_seed

DEFAULT_REPAIR_POINTS = 20000
DEFAULT_EMD_SUBSAMPLE = 512

def emd(a: PointCloud, b: PointCloud) -> float:
    """Exact earth mover's distance between equal-size clouds.

    Minimum-cost perfect matching on euclidean point distances, averaged
    over points.  Exact assignment is cubic in cloud size, so callers
    subsample first; equal sizes keep the matching a plain permutation.
    """
    if len(a.points) != len(b.points):
        raise InvalidInputError(
            f"clouds must match in size, got {len(a.points)} and {len(b.points)}"
        )
    deltas = a.points[:, None, :] - b.points[None, :, :]
    costs = np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas))
    _, total = solve_assignment(costs)
    return total / len(a.points)


@dataclass(frozen=True)
class RepairResult:
    """Repaired stand-in for an anomalous object.

    The mesh and cloud live in the canonical world frame; ``transform``
    is the input-to-canonical motion found by alignment, so its inverse
    carries the repair back onto the original pose.
    """

    repaired: PointCloud
    mesh: TriMesh
    transform: RigidTransform
    converged: bool

    def in_input_frame(self) -> PointCloud:
        return apply_transform(self.transform.inverse(), self.repaired)


@dataclass(frozen=True)
class RepairQuality:
    """Distances between a repaired cloud and its reference."""

    chamfer: float
    chamfer_per_point: float
    emd: float
    emd_subsample: int
    seed: int


def repair(
    anomalous: PointCloud,
    model: SdfModel,
    encoding: EncodingConfig,
    canonical: PointCloud,
    record: NormalizationRecord,
    *,
    seed: int,
    expand: float = QueryCounts.bbox_expand,
    resolution: int = 128,
    n_points: int = DEFAULT_REPAIR_POINTS,
    align: bool = True,
) -> RepairResult:
    """Reconstruct the normal surface underneath an anomalous cloud.

    The grid covers the bounding box of the aligned cloud in normalized
    coordinates, expanded by ``expand``; pass the ``bbox_expand`` the
    model's queries were drawn with so the grid spans the shell it was
    trained on.  The field is evaluated exactly within one refined
    2-cell block of any sign change and only by sign elsewhere
    (``evaluate_field``), which yields the dense-sweep mesh except for
    closed components that hold no sampled vertex: smaller than a 4-cell
    block away from refined 4-cell blocks, or, inside a refined 4-cell
    block, lying on 2-cell block faces off their corners.  Extraction closes the
    level set at the grid boundary, so shapes whose normalized surface
    touches the unit cube keep those faces.  The mesh is returned in
    original units, and the repaired cloud is an area-uniform sample of
    it.  Extraction yielding no surface, or one of zero area, raises
    RepairFailedError rather than returning an empty cloud.
    """
    if n_points < 1:
        raise InvalidParameterError("n_points must be positive")
    if align:
        result = pose_align(anomalous, canonical, seed=seed)
        aligned = result.aligned
        transform = result.transform
        converged = result.converged
    else:
        aligned = anomalous
        transform = RigidTransform.identity()
        converged = True

    grid = GridSpec.for_cloud(
        record.normalize(aligned.points), resolution=resolution, expand=expand
    )
    field = evaluate_field(model, encoding, grid)
    surface = marching_cubes(field, grid, close_boundary=True)
    world_mesh = TriMesh(record.denormalize(surface.vertices), surface.faces)
    if world_mesh.area == 0.0:
        raise RepairFailedError(
            "model level set has no area on the evaluation grid"
        )
    repaired = sample_surface(world_mesh, n_points, derive_seed(seed, "repair-sample"))
    return RepairResult(
        repaired=repaired, mesh=world_mesh, transform=transform, converged=converged
    )


def repair_quality(
    repaired: PointCloud,
    reference: PointCloud,
    *,
    seed: int,
    emd_subsample: int = DEFAULT_EMD_SUBSAMPLE,
) -> RepairQuality:
    """Score a repair against a reference cloud of the normal object.

    Chamfer uses the full clouds; the earth mover's distance runs on an
    equal-size random subsample because the exact matching is cubic.
    """
    if emd_subsample < 1:
        raise InvalidParameterError("emd_subsample must be positive")
    size = min(emd_subsample, len(repaired.points), len(reference.points))
    rng = np.random.default_rng(derive_seed(seed, "emd-subsample"))
    sub_a = repaired.points[rng.choice(len(repaired.points), size, replace=False)]
    sub_b = reference.points[rng.choice(len(reference.points), size, replace=False)]
    total = chamfer_metric(repaired, reference)
    return RepairQuality(
        chamfer=total,
        chamfer_per_point=total / (len(repaired.points) + len(reference.points)),
        emd=emd(PointCloud(sub_a), PointCloud(sub_b)),
        emd_subsample=size,
        seed=seed,
    )
