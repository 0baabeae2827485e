"""Fast point feature histograms for coarse correspondence search.

Two-pass construction: a simplified histogram per point over its radius
neighbourhood (three Darboux-frame angles, 11 bins each), then a
distance-weighted blend of each point's histogram with its neighbours'.
Descriptors are percentage-normalised per angle block, so they are invariant
to neighbourhood size and, because the angles only involve relative
directions, to rigid motion of the cloud.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, PointCloud

BINS_PER_FEATURE = 11
DESCRIPTOR_SIZE = 3 * BINS_PER_FEATURE

_MIN_PAIR_DISTANCE = 1e-12


def _bin_index(values: NDArray[F64], low: float, high: float) -> NDArray[np.int64]:
    scaled = (values - low) / (high - low) * BINS_PER_FEATURE
    return np.clip(np.floor(scaled).astype(np.int64), 0, BINS_PER_FEATURE - 1)


def _normalize_blocks(hist: NDArray[F64]) -> NDArray[F64]:
    # Each 11-bin block becomes percentages; all-zero blocks stay zero.
    for block in range(3):
        sl = hist[:, block * BINS_PER_FEATURE : (block + 1) * BINS_PER_FEATURE]
        totals = sl.sum(axis=1)
        nonzero = totals > 0.0
        sl[nonzero] *= 100.0 / totals[nonzero, None]
    return hist


def compute_fpfh(cloud: PointCloud, radius: float) -> NDArray[F64]:
    """Descriptor matrix of shape (n, 33), row i for point i.

    Points with no usable neighbour inside ``radius`` get an all-zero row.
    """
    if radius <= 0.0 or not np.isfinite(radius):
        raise InvalidParameterError(f"radius must be positive and finite, got {radius}")
    if cloud.normals is None:
        raise InvalidInputError("FPFH needs per-point normals")

    pts = cloud.points
    nrm = cloud.normals
    n = len(cloud)
    tree = cKDTree(pts)
    neighbour_lists = tree.query_ball_tree(tree, radius)

    counts = np.fromiter((len(row) for row in neighbour_lists), dtype=np.int64, count=n)
    if counts.sum() == 0:
        return np.zeros((n, DESCRIPTOR_SIZE))
    flat = np.concatenate([np.asarray(row, dtype=np.int64) for row in neighbour_lists])
    centers = np.repeat(np.arange(n, dtype=np.int64), counts)
    keep = flat != centers
    centers, others = centers[keep], flat[keep]

    d = pts[others] - pts[centers]
    dist = np.linalg.norm(d, axis=1)
    ok = dist >= _MIN_PAIR_DISTANCE
    centers, others, d, dist = centers[ok], others[ok], d[ok], dist[ok]
    d_hat = d / dist[:, None]

    # Anchor each pair's Darboux frame at the point whose normal makes the
    # smaller angle with the connecting line, so the angles are symmetric
    # in the pair.
    n_c, n_o = nrm[centers], nrm[others]
    dot_c = np.einsum("ij,ij->i", n_c, d_hat)
    dot_o = np.einsum("ij,ij->i", n_o, d_hat)
    swap = np.abs(dot_c) < np.abs(dot_o)
    u = np.where(swap[:, None], n_o, n_c)
    n_t = np.where(swap[:, None], n_c, n_o)
    d_st = np.where(swap[:, None], -d_hat, d_hat)

    phi = np.einsum("ij,ij->i", u, d_st)
    v = np.cross(d_st, u)
    v_norm = np.linalg.norm(v, axis=1)
    ok = v_norm >= _MIN_PAIR_DISTANCE
    centers, others, dist = centers[ok], others[ok], dist[ok]
    u, n_t, phi = u[ok], n_t[ok], phi[ok]
    v_hat = v[ok] / v_norm[ok, None]
    w = np.cross(u, v_hat)
    alpha = np.einsum("ij,ij->i", v_hat, n_t)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_t), np.einsum("ij,ij->i", u, n_t))

    bins = np.column_stack(
        [
            _bin_index(alpha, -1.0, 1.0),
            _bin_index(phi, -1.0, 1.0) + BINS_PER_FEATURE,
            _bin_index(theta, -np.pi, np.pi) + 2 * BINS_PER_FEATURE,
        ]
    )
    spfh = np.zeros((n, DESCRIPTOR_SIZE))
    for col in range(3):
        np.add.at(spfh, (centers, bins[:, col]), 1.0)
    spfh = _normalize_blocks(spfh)

    # Second pass: blend each point with its neighbours, nearer ones weighing
    # more, then renormalise.
    used = np.bincount(centers, minlength=n).astype(np.float64)
    blended = np.zeros_like(spfh)
    np.add.at(blended, centers, spfh[others] / dist[:, None])
    has_neighbours = used > 0
    blended[has_neighbours] /= used[has_neighbours, None]
    fpfh = np.where(has_neighbours[:, None], spfh + blended, 0.0)
    return _normalize_blocks(fpfh)
