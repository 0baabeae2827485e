"""Fast point feature histograms for coarse correspondence search.

Two-pass construction: a simplified histogram per point over its radius
neighbourhood (three Darboux-frame angles, 11 bins each), then a
distance-weighted blend of each point's histogram with its neighbours'.
Descriptors are percentage-normalised per angle block, so they are invariant
to neighbourhood size and, because the angles only involve relative
directions, to rigid motion of the cloud.

Pairs are described component-major: each per-pair vector is a
``(3, n_pairs)`` array whose rows hold its x, y and z components, so a dot
product, cross product or length is a few whole-row operations, in place
where possible.  The descriptors are bit-identical to a pair-major
description through ``np.einsum("ij,ij->i")``, ``np.cross`` and
``np.linalg.norm(axis=1)`` on ``(n_pairs, 3)`` rows, which the tests keep
as their oracle.  The bits depend on three summation orders:

- a dot product adds its products as (x + z) + y, the order numpy 2.4's
  ``einsum`` adds three products in; adding them x, y, z in order flips
  histogram bins on real clouds;
- a length adds its squares as (x + y) + z, as ``np.linalg.norm`` does;
- the blend adds each centre's weighted neighbour histograms one at a time
  in ascending neighbour index, as scipy's CSR product does over sorted
  column indices.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, PointCloud

BINS_PER_FEATURE = 11
DESCRIPTOR_SIZE = 3 * BINS_PER_FEATURE

_MIN_PAIR_DISTANCE = 1e-12
# Per angle block (alpha, phi, theta), as columns: the lower end and the
# width of the binned range, and the block's first bin in a descriptor.
_LOW = np.array([[-1.0], [-1.0], [-np.pi]])
_WIDTH = np.array([[2.0], [2.0], [2.0 * np.pi]])
_FIRST_BIN = np.array([[0], [BINS_PER_FEATURE], [2 * BINS_PER_FEATURE]])


def _dot(a: NDArray[F64], b: NDArray[F64]) -> NDArray[F64]:
    """Column dot products of two (3, k) arrays, added (x + z) + y."""
    products = a * b
    products[0] += products[2]
    products[0] += products[1]
    return products[0]


def _cross(a: NDArray[F64], b: NDArray[F64]) -> NDArray[F64]:
    """Column cross products of two (3, k) arrays."""
    out = np.empty_like(a)
    product = np.empty_like(a[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=product)
        out[i] -= product
    return out


def _length(a: NDArray[F64]) -> NDArray[F64]:
    """Column lengths of a (3, k) array, squares added (x + y) + z."""
    squares = a * a
    squares[0] += squares[1]
    squares[0] += squares[2]
    return np.sqrt(squares[0], out=squares[0])


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

    Pair vectors are ``(3, n_pairs)`` arrays.  Dot products add (x + z) + y
    and lengths (x + y) + z, and the blend adds each centre's neighbours
    in ascending index order; the module docstring says why the result
    depends on these orders.
    """
    if radius <= 0.0 or not np.isfinite(radius):
        raise InvalidParameterError(f"radius must be positive and finite, got {radius}")
    if cloud.normals is None:
        raise InvalidInputError("FPFH needs per-point normals")

    n = len(cloud)
    pts = np.ascontiguousarray(cloud.points.T)
    nrm = np.ascontiguousarray(cloud.normals.T)
    first, second = cKDTree(cloud.points).query_pairs(radius, output_type="ndarray").T

    # Coincident points and normals along the connecting line have no
    # frame.  Their descriptions run through the arithmetic, as NaN or
    # inf where they must, and ``keep`` drops them below.
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hat = pts.take(second, axis=1)
        d_hat -= pts.take(first, axis=1)
        dist = _length(d_hat)
        d_hat /= dist
        dot_first = np.abs(_dot(nrm.take(first, axis=1), d_hat))
        dot_second = np.abs(_dot(nrm.take(second, axis=1), d_hat))
        at_first = dot_first >= dot_second
        is_tied = dot_first == dot_second
        tied = np.flatnonzero(is_tied)
        # One description (source -> target) per unordered pair, plus the
        # second-anchored description of every tied pair.
        source = np.concatenate([np.where(at_first, first, second), second[tied]])
        target = np.concatenate([np.where(at_first, second, first), first[tied]])
        d_st = np.concatenate([d_hat, d_hat.take(tied, axis=1)], axis=1)
        d_st *= np.concatenate([np.where(at_first, 1.0, -1.0), np.full(tied.size, -1.0)])
        dist = np.concatenate([dist, dist[tied]])
        shared = np.concatenate([~is_tied, np.zeros(tied.size, dtype=bool)])

        u, n_t = nrm.take(source, axis=1), nrm.take(target, axis=1)
        v_hat = _cross(d_st, u)
        v_norm = _length(v_hat)
        v_hat /= v_norm
        angles = np.empty_like(v_hat)
        angles[0] = _dot(v_hat, n_t)
        angles[1] = _dot(u, d_st)
        np.arctan2(_dot(_cross(u, v_hat), n_t), _dot(u, n_t), out=angles[2])
        angles -= _LOW
        angles /= _WIDTH
        angles *= BINS_PER_FEATURE
        bins = np.floor(angles, out=angles).astype(np.int64)
    np.clip(bins, 0, BINS_PER_FEATURE - 1, out=bins)
    bins += _FIRST_BIN

    # A shared description counts for both ends, a one-sided one for its
    # source only.  Dropped descriptions count for a spare centre n.
    keep = (dist >= _MIN_PAIR_DISTANCE) & (v_norm >= _MIN_PAIR_DISTANCE)
    centers = np.concatenate([np.where(keep, source, n), np.where(keep & shared, target, n)])
    others = np.concatenate([target, source])
    codes = bins + DESCRIPTOR_SIZE * centers.reshape(2, 1, -1)
    counts = np.bincount(codes.ravel(), minlength=(n + 1) * DESCRIPTOR_SIZE)
    spfh = counts[: n * DESCRIPTOR_SIZE].reshape(n, DESCRIPTOR_SIZE).astype(np.float64)
    spfh = _normalize_blocks(spfh)

    # Second pass: blend each point with its neighbours, nearer ones weighing
    # more, then renormalise.  Sorted by (centre, other), the directed pairs
    # are the blend matrix's CSR rows with ascending columns, and the spare
    # centre's pairs sort past the last row.
    used = np.bincount(centers, minlength=n + 1)[:n]
    indptr = np.concatenate([[0], np.cumsum(used)])
    order = np.argsort(centers * n + others)[: indptr[-1]]
    weights = 1.0 / np.tile(dist, 2)[order]
    blend = csr_matrix((weights, others[order], indptr), shape=(n, n))
    blend.has_sorted_indices = True
    has_neighbours = used > 0
    blended = blend @ spfh
    blended[has_neighbours] /= used[has_neighbours, None]
    fpfh = np.where(has_neighbours[:, None], spfh + blended, 0.0)
    return _normalize_blocks(fpfh)
