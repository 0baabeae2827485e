"""Shape repair: replace an anomalous surface with the learned normal one.

The anomalous cloud is pose-aligned into the canonical frame, the
model's zero level set is extracted over an evaluation grid covering the
aligned footprint, and the extracted mesh is resampled into a repaired
cloud.  Quality is reported against a reference cloud with the summed
chamfer distance and an exact earth mover's distance on a matched
subsample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_assignment
from .encoding import EncodingConfig, positional_encode
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
from .registration import AlignConfig, pose_align
from .rng import derive_seed

DEFAULT_REPAIR_POINTS = 20000
DEFAULT_EMD_SUBSAMPLE = 512

# Newton refinement of sampled repair points onto the zero level set.
_PROJECTION_STEPS = 2
_PROJECTION_FD_STEP = 1e-4
_PROJECTION_GRAD_FLOOR = 1e-12


def _project_to_level_set(
    points: np.ndarray,
    model: SdfModel,
    encoding: EncodingConfig,
    step_cap: float,
) -> np.ndarray:
    """Pull points sampled off the extracted mesh onto the field's zero set.

    Linear interpolation and triangle flattening leave samples a small
    distance off the true level set; a couple of damped Newton steps
    along the finite-difference gradient removes that bias.  Steps are
    capped so a near-zero gradient cannot fling a point, points where
    the gradient vanishes are left in place, and a step only lands if
    it does not grow |f|, so a kink in the field cannot make a sample
    worse than where it started.
    """

    def evaluate(x: np.ndarray) -> np.ndarray:
        return model.forward(positional_encode(x, encoding))

    x = np.array(points, dtype=np.float64)
    f = evaluate(x)
    for _ in range(_PROJECTION_STEPS):
        grad = np.empty_like(x)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = _PROJECTION_FD_STEP
            grad[:, axis] = (evaluate(x + offset) - evaluate(x - offset)) / (
                2.0 * _PROJECTION_FD_STEP
            )
        norm_sq = np.einsum("ij,ij->i", grad, grad)
        safe = norm_sq > _PROJECTION_GRAD_FLOOR
        step = np.zeros_like(x)
        step[safe] = grad[safe] * (f[safe] / norm_sq[safe])[:, None]
        lengths = np.linalg.norm(step, axis=1)
        over = lengths > step_cap
        step[over] *= (step_cap / lengths[over])[:, None]
        candidate = x - step
        candidate_f = evaluate(candidate)
        better = np.abs(candidate_f) <= np.abs(f)
        x[better] = candidate[better]
        f[better] = candidate_f[better]
    return x


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
    alignment: AlignConfig = AlignConfig(),
) -> RepairResult:
    """Reconstruct the normal surface underneath an anomalous cloud.

    The grid covers the bounding box of the aligned cloud in normalized
    coordinates, expanded by ``expand``; pass the ``bbox_expand`` the
    model's queries were drawn with so the grid spans the shell it was
    trained on.  The field is evaluated exactly within one block of any
    sign change and only by sign elsewhere (``evaluate_field``), which
    yields the dense-sweep mesh except for closed components smaller
    than a block that no refined block touches.  Extraction closes the
    level set at the grid boundary, so shapes whose normalized surface
    touches the unit cube keep those faces, and the sampled points are
    Newton-projected onto the zero set before being returned in original
    units.  Extraction yielding no surface raises RepairFailedError
    rather than returning an empty cloud.
    """
    if n_points < 1:
        raise InvalidParameterError("n_points must be positive")
    if align:
        result = pose_align(anomalous, canonical, alignment, seed=seed)
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
    if len(surface.faces) == 0:
        raise RepairFailedError(
            "model level set does not cross the evaluation grid"
        )
    sampled = sample_surface(surface, n_points, derive_seed(seed, "repair-sample"))
    projected = _project_to_level_set(
        sampled.points, model, encoding, step_cap=2.0 * float(grid.spacing().max())
    )
    world_mesh = TriMesh(record.denormalize(surface.vertices), surface.faces)
    repaired = PointCloud(record.denormalize(projected), sampled.normals)
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
