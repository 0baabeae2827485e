"""Coarse-to-fine rigid registration.

A classic global-registration recipe (Fast Global Registration, Zhou,
Park and Koltun, ECCV 2016): voxel downsample, describe with FPFH,
hypothesise a coarse transform with RANSAC over descriptor
correspondences, polish with point-to-plane ICP, then judge the pose by
symmetric chamfer discrepancy.  One Procrustes solver, over stacks of
point sets, fits every RANSAC hypothesis and the inlier refit.  Both
clouds are described once; while the pose is not accepted, RANSAC is
rerun with a fresh seed, up to a fixed number of rounds.  The voxel is a
fixed fraction of the target's size and the acceptance threshold is
counted in squared voxels, so alignment behaves the same whatever unit
the clouds are measured in and takes no settings.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import CoarseAlignmentError, InvalidInputError, InvalidParameterError
from .fpfh import compute_fpfh
from .geometry import (
    F64,
    PointCloud,
    Points,
    RigidTransform,
    apply_points,
    apply_transform,
    chamfer_loss,
    compose,
    estimate_normals,
    rotation_about_axis,
    voxel_downsample,
)
from .rng import derive_seed
from .runtime import worker_count

log = logging.getLogger(__name__)

# Geometric factors of the alignment, relative to the voxel size:
# the voxel is the target's bounding-box diagonal over _VOXEL_DIVISOR,
# FPFH radius and RANSAC inlier distance scale the voxel, and normals fit
# over _NORMALS_K neighbours.
_VOXEL_DIVISOR = 20.0
_FPFH_RADIUS_FACTOR = 5.0
_NORMALS_K = 16
_RANSAC_DISTANCE_FACTOR = 1.5

# RANSAC: hypothesis budget, correspondences per hypothesis, the
# edge-length ratio two samples must keep to be compatible, and the
# confidence that ends the search early.  ICP: iteration budget and the
# least mean-squared improvement that keeps it going.
_RANSAC_MAX_ITERATIONS = 20_000
_RANSAC_SAMPLE_SIZE = 3
_RANSAC_EDGE_RATIO = 0.9
_RANSAC_CONFIDENCE = 0.999
_ICP_MAX_ITERATIONS = 50
_ICP_TOLERANCE = 1e-10
# Singular values of the point-to-plane normal equations below this share
# of the largest count as unconstrained directions.  Pairs whose distance
# to the target plane exceeds the median by more than the reject factor
# sit on a defect or a missing part and are left out of the step.
_ICP_RCOND = 1e-12
_ICP_REJECT_FACTOR = 3.0

# Rounds: the seed budget, and the chamfer loss in squared voxels below
# which a pose is accepted.  Aligned poses on the bench shapes measure
# under 2 voxel^2, and the wrong RANSAC poses seen on the perfbench torus
# clouds about 22.  Otherwise the loss of the downsampled pair ranks poses
# only coarsely (a blob turned half a turn measures under 3 voxel^2, and
# right half views 6-8), so an unaccepted round never replaces the first.
_MAX_ROUNDS = 10
_ACCEPT_LOSS_VOXELS = 4.0


def fit_rigid(src: NDArray[F64], tgt: NDArray[F64]) -> tuple[NDArray[F64], NDArray[F64]]:
    """Least-squares rigid motion per row of paired stacks shaped (h, s, 3).

    SVD solution of the orthogonal Procrustes problem (Arun, Huang and
    Blostein, TPAMI 1987), with the usual reflection guard: a row whose
    rotation comes out with a negative determinant has its smallest
    singular direction flipped.  Returns rotations (h, 3, 3) and
    translations (h, 3).
    """
    if src.shape[1] < 3:
        raise InvalidInputError("rigid fit needs at least 3 point pairs")
    src_mean = src.mean(axis=1, keepdims=True)
    tgt_mean = tgt.mean(axis=1, keepdims=True)
    cov = np.einsum("hsi,hsj->hij", src - src_mean, tgt - tgt_mean)
    u, _, vt = np.linalg.svd(cov)
    rot = np.einsum("hji,hkj->hik", vt, u)
    flip = np.linalg.det(rot) < 0.0
    if flip.any():
        vt[flip, 2, :] *= -1.0
        rot = np.einsum("hji,hkj->hik", vt, u)
    trans = tgt_mean[:, 0, :] - np.einsum("hij,hj->hi", rot, src_mean[:, 0, :])
    return rot, trans


@dataclass(frozen=True, slots=True)
class RansacResult:
    transform: RigidTransform
    inlier_count: int
    correspondence_count: int
    hypotheses_evaluated: int


def _mutual_correspondences(
    src_desc: NDArray[F64], tgt_desc: NDArray[F64]
) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    workers = worker_count()
    _, fwd = cKDTree(tgt_desc).query(src_desc, k=1, workers=workers)
    _, back = cKDTree(src_desc).query(tgt_desc, k=1, workers=workers)
    src_idx = np.arange(src_desc.shape[0])
    mutual = back[fwd] == src_idx
    return src_idx[mutual], fwd[mutual]


_HYPOTHESIS_BATCH = 256


def ransac_align(
    src: PointCloud,
    tgt: PointCloud,
    src_desc: NDArray[F64],
    tgt_desc: NDArray[F64],
    distance_threshold: float,
    seed: int,
) -> RansacResult:
    """Coarse transform from descriptor correspondences.

    Correspondences are mutual nearest neighbours in descriptor space.  Each
    hypothesis samples three of them, passes an edge-length-ratio
    compatibility gate, is fit by rigid Procrustes, and is scored by how many
    correspondences land within ``distance_threshold``.  The best hypothesis
    is refit on its inliers.  Fully deterministic for a given seed; raises
    CoarseAlignmentError when there are too few correspondences to sample.
    """
    if src_desc.shape[0] != len(src) or tgt_desc.shape[0] != len(tgt):
        raise InvalidInputError("descriptor rows must match their cloud sizes")
    src_corr_idx, tgt_corr_idx = _mutual_correspondences(src_desc, tgt_desc)
    n_corr = src_corr_idx.shape[0]
    if n_corr < _RANSAC_SAMPLE_SIZE:
        raise CoarseAlignmentError(
            f"only {n_corr} mutual correspondences, need {_RANSAC_SAMPLE_SIZE}"
        )
    p = src.points[src_corr_idx]
    q = tgt.points[tgt_corr_idx]

    rng = np.random.default_rng(seed)
    pair_a, pair_b = np.triu_indices(_RANSAC_SAMPLE_SIZE, k=1)

    best_count = -1
    best_rot = np.eye(3)
    best_trans = np.zeros(3)
    evaluated = 0
    needed = float(_RANSAC_MAX_ITERATIONS)

    while evaluated < min(_RANSAC_MAX_ITERATIONS, needed):
        batch = int(min(_HYPOTHESIS_BATCH, _RANSAC_MAX_ITERATIONS - evaluated))
        picks = rng.integers(0, n_corr, size=(batch, _RANSAC_SAMPLE_SIZE))
        evaluated += batch

        sample_src = p[picks]
        sample_tgt = q[picks]
        edge_src = np.linalg.norm(
            sample_src[:, pair_a] - sample_src[:, pair_b], axis=2
        )
        edge_tgt = np.linalg.norm(
            sample_tgt[:, pair_a] - sample_tgt[:, pair_b], axis=2
        )
        compatible = (
            (edge_src > _RANSAC_EDGE_RATIO * edge_tgt)
            & (edge_tgt > _RANSAC_EDGE_RATIO * edge_src)
            & (edge_src > 1e-12)
            & (edge_tgt > 1e-12)
        ).all(axis=1)
        if not compatible.any():
            continue

        rot, trans = fit_rigid(sample_src[compatible], sample_tgt[compatible])
        moved = np.einsum("hij,cj->hci", rot, p) + trans[:, None, :]
        dist_sq = np.sum((moved - q[None, :, :]) ** 2, axis=2)
        counts = np.sum(dist_sq < distance_threshold**2, axis=1)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_rot = rot[top]
            best_trans = trans[top]
            inlier_ratio = best_count / n_corr
            hit_prob = inlier_ratio**_RANSAC_SAMPLE_SIZE
            if hit_prob >= 1.0:
                needed = 0.0
            elif hit_prob > 0.0:
                needed = np.log1p(-_RANSAC_CONFIDENCE) / np.log1p(-hit_prob)

    if best_count < 0:
        raise CoarseAlignmentError("no hypothesis passed the edge-compatibility gate")

    transform = RigidTransform(best_rot, best_trans)
    inliers = np.sum((apply_points(transform, p) - q) ** 2, axis=1)
    inlier_mask = inliers < distance_threshold**2
    if int(inlier_mask.sum()) >= 3:
        rot, trans = fit_rigid(p[inlier_mask][None], q[inlier_mask][None])
        transform = RigidTransform(rot[0], trans[0])
        inliers = np.sum((apply_points(transform, p) - q) ** 2, axis=1)
        inlier_mask = inliers < distance_threshold**2
    return RansacResult(
        transform=transform,
        inlier_count=int(inlier_mask.sum()),
        correspondence_count=n_corr,
        hypotheses_evaluated=evaluated,
    )


@dataclass(frozen=True, slots=True)
class IcpResult:
    transform: RigidTransform
    mse: float
    iterations: int


def _plane_step(current: Points, matched: Points, normals: Points) -> RigidTransform:
    """Linearised point-to-plane step: the small motion (rotation vector w,
    translation t) minimising the sum of ((x + cross(w, x) + t - q) . n)^2
    over the pairs within the reject factor of the median plane distance.

    The 6x6 normal equations are identical under a sign flip of any
    normal, and least squares leaves directions the target does not
    constrain (sliding on a plane, turning on a sphere) at zero.
    """
    rows = np.hstack([np.cross(current, normals), normals])
    residual = np.einsum("ij,ij->i", matched - current, normals)
    offset = np.abs(residual)
    keep = offset <= _ICP_REJECT_FACTOR * np.median(offset)
    rows, residual = rows[keep], residual[keep]
    step = np.linalg.lstsq(rows.T @ rows, rows.T @ residual, rcond=_ICP_RCOND)[0]
    angle = float(np.linalg.norm(step[:3]))
    rotation = np.eye(3) if angle < 1e-12 else rotation_about_axis(step[:3], angle)
    return RigidTransform(rotation, step[3:])


def icp_refine(
    src: PointCloud,
    tgt: PointCloud,
    init: RigidTransform,
) -> IcpResult:
    """Point-to-plane ICP started from ``init``.

    Alternates exact nearest-neighbour correspondence with a linearised
    point-to-plane step against the target normals (estimated, unoriented,
    when the target carries none); the step's rotation vector becomes a
    rotation by Rodrigues' formula.  Pairs far off their target plane
    compared with the median pair are rejected from each step, so a local
    defect does not pull the whole cloud.  The point-to-point mean-squared
    residual judges each step: one that raises it is discarded and ends the
    loop, and the loop stops once it improves by less than the tolerance.
    ``iterations`` counts the steps kept.  The returned transform includes
    ``init``.
    """
    target_normals = tgt.normals
    if target_normals is None:
        k = min(_NORMALS_K, len(tgt))
        target_normals = estimate_normals(tgt, k=k, viewpoint=tgt.centroid())[0].normals
    tree = cKDTree(tgt.points)
    workers = worker_count()
    transform = init
    current = apply_points(transform, src.points)
    dists, idx = tree.query(current, k=1, workers=workers)
    mse = float(np.mean(dists**2))
    iterations = 0
    for _ in range(_ICP_MAX_ITERATIONS):
        delta = _plane_step(current, tgt.points[idx], target_normals[idx])
        moved = apply_points(delta, current)
        dists, new_idx = tree.query(moved, k=1, workers=workers)
        new_mse = float(np.mean(dists**2))
        if new_mse > mse:
            break
        iterations += 1
        transform = compose(delta, transform)
        current, idx = moved, new_idx
        improved = mse - new_mse
        mse = new_mse
        if improved < _ICP_TOLERANCE:
            break
    return IcpResult(transform=transform, mse=mse, iterations=iterations)


@dataclass(frozen=True, slots=True)
class AlignmentResult:
    aligned: PointCloud
    transform: RigidTransform
    chamfer: float
    rounds: int
    converged: bool
    ransac_failures: int


def _described_downsample(
    cloud: PointCloud, voxel: float
) -> tuple[PointCloud, NDArray[F64]] | None:
    sparse = voxel_downsample(cloud, voxel)
    if len(sparse) < _RANSAC_SAMPLE_SIZE:
        return None
    k = min(_NORMALS_K, len(sparse))
    with_normals, _ = estimate_normals(sparse, k=k, viewpoint=sparse.centroid())
    descriptors = compute_fpfh(with_normals, _FPFH_RADIUS_FACTOR * voxel)
    return with_normals, descriptors


def pose_align(src: PointCloud, tgt: PointCloud, *, seed: int = 0) -> AlignmentResult:
    """Align ``src`` onto ``tgt``, coarse to fine, in up to 10 rounds.

    The voxel is the target bounding-box diagonal divided by 20.  Both
    clouds are downsampled and described once.  Each round runs RANSAC
    with its own seed and refines that coarse transform with ICP on the
    full clouds, starting from ``src``.  The pose is judged by the
    symmetric chamfer discrepancy of the downsampled pair (the full clouds
    when the target is too sparse to describe) and is accepted below 4
    squared voxels.  The discrepancy is a mean of squared distances, so it
    scales with the square of the clouds' unit; counting it in squared
    voxels makes the same rule accept the same pose at every scale.

    The first accepted round ends the search and is returned as
    ``converged``.  When none is accepted, the first round's pose is
    returned, not converged: the discrepancy does not rank unaccepted
    poses reliably.  ``rounds`` counts the rounds run.  A round without a
    coarse hypothesis (too few points or correspondences) is logged and
    counted in ``ransac_failures``, not fatal: the first such round starts
    ICP from the identity and a later one refines nothing.  A cloud too
    small to describe gets one round.  A target whose points all coincide
    has no voxel and raises InvalidParameterError.
    """
    voxel = tgt.bbox_diagonal() / _VOXEL_DIVISOR
    if voxel <= 0.0:
        raise InvalidParameterError(f"voxel size must be positive, got {voxel}")
    threshold = _ACCEPT_LOSS_VOXELS * voxel**2

    distance_threshold = _RANSAC_DISTANCE_FACTOR * voxel
    tgt_described = _described_downsample(tgt, voxel)
    src_described = _described_downsample(src, voxel)
    described = src_described is not None and tgt_described is not None
    first: AlignmentResult | None = None
    failures = 0
    for rounds in range(1, _MAX_ROUNDS + 1):
        coarse = RigidTransform.identity()
        if not described:
            failures += 1
            log.warning("round %d skipped coarse alignment: downsampled cloud too small", rounds)
        else:
            try:
                coarse = ransac_align(
                    src_described[0],
                    tgt_described[0],
                    src_described[1],
                    tgt_described[1],
                    distance_threshold,
                    seed=derive_seed(seed, f"coarse-round-{rounds}"),
                ).transform
            except CoarseAlignmentError as exc:
                failures += 1
                log.warning("round %d coarse alignment failed: %s", rounds, exc)
                # Only the first round falls back to the identity; a later
                # round exists to refine a new hypothesis.
                if rounds > 1:
                    continue

        transform = icp_refine(src, tgt, init=coarse).transform
        aligned = apply_transform(transform, src)
        if tgt_described is None:
            loss = chamfer_loss(aligned, tgt)
        else:
            loss = chamfer_loss(voxel_downsample(aligned, voxel), tgt_described[0])
        if loss < threshold:
            return AlignmentResult(aligned, transform, loss, rounds, True, failures)
        if first is None:
            first = AlignmentResult(aligned, transform, loss, rounds, False, failures)
        if not described:
            break
    return replace(first, rounds=rounds, ransac_failures=failures)
