"""The pair-major FPFH kernel, kept verbatim as the test oracle.

It describes each neighbour pair with ``(n_pairs, 3)`` rows through
``np.cross``, ``np.einsum`` and ``np.linalg.norm``, and builds the blend
matrix through ``csr_matrix``'s coordinate constructor, which sorts each
row's columns and sums duplicates.  ``pasdf.fpfh.compute_fpfh`` must
return the same bits on every cloud and radius.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.fpfh import BINS_PER_FEATURE, DESCRIPTOR_SIZE
from pasdf.geometry import F64, PointCloud

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

    Each unordered neighbour pair is described once and counted for both of
    its points: the Darboux frame sits at the point whose normal makes the
    smaller angle with the connecting line, whichever point is the centre.
    When both angles are exactly equal, each point anchors the frame at
    itself, so a tied pair is described once from each end and each
    description counts for its own centre only.  Points with no usable
    neighbour inside ``radius`` get an all-zero row.
    """
    if radius <= 0.0 or not np.isfinite(radius):
        raise InvalidParameterError(f"radius must be positive and finite, got {radius}")
    if cloud.normals is None:
        raise InvalidInputError("FPFH needs per-point normals")

    pts = cloud.points
    nrm = cloud.normals
    n = len(cloud)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    first, second = pairs.T

    d = pts[second] - pts[first]
    dist = np.linalg.norm(d, axis=1)
    ok = dist >= _MIN_PAIR_DISTANCE
    first, second, d, dist = first[ok], second[ok], d[ok], dist[ok]
    d_hat = d / dist[:, None]

    dot_first = np.abs(np.einsum("ij,ij->i", nrm[first], d_hat))
    dot_second = np.abs(np.einsum("ij,ij->i", nrm[second], d_hat))
    at_first = dot_first >= dot_second
    is_tied = dot_first == dot_second
    tied = np.flatnonzero(is_tied)
    # One directed pair (source -> target) per unordered pair, plus the
    # second-anchored direction of every tied pair.
    source = np.concatenate([np.where(at_first, first, second), second[tied]])
    target = np.concatenate([np.where(at_first, second, first), first[tied]])
    d_st = np.concatenate([np.where(at_first[:, None], d_hat, -d_hat), -d_hat[tied]])
    dist = np.concatenate([dist, dist[tied]])
    one_sided = np.concatenate([is_tied, np.ones(tied.size, dtype=bool)])

    u, n_t = nrm[source], nrm[target]
    phi = np.einsum("ij,ij->i", u, d_st)
    v = np.cross(d_st, u)
    v_norm = np.linalg.norm(v, axis=1)
    ok = v_norm >= _MIN_PAIR_DISTANCE
    source, target, dist, one_sided = source[ok], target[ok], dist[ok], one_sided[ok]
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

    # A shared description counts for both ends, a one-sided one for its
    # source only.
    both = ~one_sided
    centers = np.concatenate([source, target[both]])
    others = np.concatenate([target, source[both]])
    bins = np.concatenate([bins, bins[both]])
    dist = np.concatenate([dist, dist[both]])
    flat = (centers[:, None] * DESCRIPTOR_SIZE + bins).ravel()
    spfh = np.bincount(flat, minlength=n * DESCRIPTOR_SIZE).astype(np.float64)
    spfh = _normalize_blocks(spfh.reshape(n, DESCRIPTOR_SIZE))

    # Second pass: blend each point with its neighbours, nearer ones weighing
    # more, then renormalise.
    weights = csr_matrix((1.0 / dist, (centers, others)), shape=(n, n))
    used = np.bincount(centers, minlength=n).astype(np.float64)
    has_neighbours = used > 0
    blended = weights @ spfh
    blended[has_neighbours] /= used[has_neighbours, None]
    fpfh = np.where(has_neighbours[:, None], spfh + blended, 0.0)
    return _normalize_blocks(fpfh)
