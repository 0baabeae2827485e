"""Tests for the point feature histograms."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpfh_oracle
from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.fpfh import BINS_PER_FEATURE, DESCRIPTOR_SIZE, compute_fpfh
from pasdf.geometry import (
    PointCloud,
    apply_transform,
    estimate_normals,
    random_rigid,
    voxel_downsample,
)
from pasdf.mesh import sample_surface
from pasdf.shapes import blob

# Pairs closer than this, or with a normal this close to parallel to the
# connecting line, have no Darboux frame (the floor compute_fpfh uses).
MIN_PAIR_DISTANCE = 1e-12


def pair_features(
    p_i: np.ndarray, n_i: np.ndarray, p_j: np.ndarray, n_j: np.ndarray
) -> tuple[float, float, float] | None:
    """Darboux-frame angles (alpha, phi, theta) for one point pair.

    The frame is anchored at whichever point's normal makes the smaller angle
    with the connecting line, which makes the result symmetric in the pair.
    Returns None for coincident points or a normal parallel to the line.
    Scalar reference for the batch path in compute_fpfh.
    """
    d = p_j - p_i
    dist = float(np.linalg.norm(d))
    if dist < MIN_PAIR_DISTANCE:
        return None
    d_hat = d / dist
    if abs(float(np.dot(n_i, d_hat))) >= abs(float(np.dot(n_j, d_hat))):
        u, n_t = n_i, n_j
    else:
        u, n_t = n_j, n_i
        d_hat = -d_hat
    phi = float(np.dot(u, d_hat))
    v = np.cross(d_hat, u)
    v_norm = float(np.linalg.norm(v))
    if v_norm < MIN_PAIR_DISTANCE:
        return None
    v_hat = v / v_norm
    w = np.cross(u, v_hat)
    alpha = float(np.dot(v_hat, n_t))
    theta = float(np.arctan2(np.dot(w, n_t), np.dot(u, n_t)))
    return alpha, phi, theta


def oracle_bin(value: float, low: float, high: float) -> int:
    """Histogram bin for one angle value, written independently of the module."""
    idx = int(np.floor((value - low) / (high - low) * BINS_PER_FEATURE))
    return min(max(idx, 0), BINS_PER_FEATURE - 1)


def oracle_single_pair_histogram(alpha: float, phi: float, theta: float) -> np.ndarray:
    """Percent-normalised descriptor for a point with exactly one neighbour."""
    hist = np.zeros(DESCRIPTOR_SIZE)
    hist[oracle_bin(alpha, -1.0, 1.0)] = 100.0
    hist[BINS_PER_FEATURE + oracle_bin(phi, -1.0, 1.0)] = 100.0
    hist[2 * BINS_PER_FEATURE + oracle_bin(theta, -np.pi, np.pi)] = 100.0
    return hist


def oracle_fpfh(cloud: PointCloud, radius: float) -> np.ndarray:
    """Descriptors from ``pair_features`` over every ordered neighbour pair.

    ``pair_features`` keeps its first argument as the anchor when both
    normals make the same angle with the connecting line, so passing the
    centre first anchors exact ties at the centre.
    """
    pts, nrm = cloud.points, cloud.normals
    n = len(cloud)
    spfh = np.zeros((n, DESCRIPTOR_SIZE))
    neighbours: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for c in range(n):
        for o in range(n):
            dist = float(np.linalg.norm(pts[o] - pts[c]))
            if o == c or dist > radius:
                continue
            feats = pair_features(pts[c], nrm[c], pts[o], nrm[o])
            if feats is None:
                continue
            spfh[c] += oracle_single_pair_histogram(*feats) / 100.0
            neighbours[c].append((o, dist))

    def percentages(hist: np.ndarray) -> np.ndarray:
        out = hist.copy()
        for block in range(3):
            sl = slice(block * BINS_PER_FEATURE, (block + 1) * BINS_PER_FEATURE)
            total = out[sl].sum()
            if total > 0.0:
                out[sl] *= 100.0 / total
        return out

    spfh = np.array([percentages(row) for row in spfh])
    fpfh = np.zeros_like(spfh)
    for c in range(n):
        if neighbours[c]:
            blend = sum(spfh[o] / dist for o, dist in neighbours[c]) / len(neighbours[c])
            fpfh[c] = percentages(spfh[c] + blend)
    return fpfh


def random_cloud_with_normals(seed: int, n: int = 120) -> PointCloud:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(pts, normals)


@st.composite
def clouds_and_radii(draw) -> tuple[PointCloud, float]:
    """1-200 points in the unit cube with unit normals, and an FPFH radius.

    On top of uniform points and normals a draw can hold:
    - a point straight along point 0's normal (a frame whose v has zero
      length);
    - points sharing one normal (each pair among them is an exact tie);
    - four pairs whose normals mirror each other across the plane x = z
      that holds their connecting line, which tie exactly when a dot
      product adds its x and z terms first, as ``np.einsum`` does;
    - duplicated points, exact or 1e-13 apart (pairs too short to
      describe);
    - a point far from all others.
    The smallest radii give no pair at all.
    """
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    if n >= 2 and draw(st.booleans()):
        points[1] = points[0] + (0.0, 0.0, 0.05)
        normals[0] = (0.0, 0.0, 1.0)
    normals[: draw(st.integers(0, n))] = normals[0]
    if n >= 10 and draw(st.booleans()):
        points[2:10:2, 2] = points[2:10:2, 0]
        step = rng.uniform(-0.03, 0.03, size=(4, 2))
        points[3:10:2] = points[2:10:2] + step[:, [0, 1, 0]]
        normals[3:10:2] = normals[2:10:2, ::-1]
    duplicates = draw(st.integers(0, n // 2))
    points[n - duplicates :] = points[:duplicates] + draw(st.sampled_from([0.0, 1e-13]))
    if draw(st.booleans()):
        points[-1] += 10.0
    radius = draw(st.floats(1e-6, 0.6))
    return PointCloud(points, normals), radius


class TestPairFeatures:
    def test_collinear_points_with_parallel_normals(self):
        # Both normals +z, pair along x: every angle lands dead center.
        feats = pair_features(
            np.array([0.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.array([2.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
        )
        assert feats is not None
        alpha, phi, theta = feats
        assert alpha == pytest.approx(0.0, abs=1e-15)
        assert phi == pytest.approx(0.0, abs=1e-15)
        assert theta == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            p1, p2 = rng.normal(size=(2, 3))
            n1, n2 = rng.normal(size=(2, 3))
            n1 /= np.linalg.norm(n1)
            n2 /= np.linalg.norm(n2)
            a = pair_features(p1, n1, p2, n2)
            b = pair_features(p2, n2, p1, n1)
            assert a is not None and b is not None
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_degenerate_pairs_return_none(self):
        p = np.array([1.0, 2.0, 3.0])
        n = np.array([0.0, 0.0, 1.0])
        assert pair_features(p, n, p, n) is None
        # Normal parallel to the connecting line on both sides.
        assert (
            pair_features(p, np.array([1.0, 0.0, 0.0]), p + [1.0, 0.0, 0.0], np.array([1.0, 0.0, 0.0]))
            is None
        )


class TestComputeFpfh:
    def test_single_pair_matches_hand_computed_histogram(self):
        cloud = PointCloud(
            np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        )
        desc = compute_fpfh(cloud, radius=1.0)
        feats = pair_features(
            cloud.points[0], cloud.normals[0], cloud.points[1], cloud.normals[1]
        )
        expected = oracle_single_pair_histogram(*feats)
        # With one symmetric pair the weighted second pass leaves the
        # percentage histogram unchanged for both points.
        np.testing.assert_allclose(desc[0], expected, atol=1e-9)
        np.testing.assert_allclose(desc[1], expected, atol=1e-9)

    def test_isolated_points_get_zero_descriptor(self):
        cloud = random_cloud_with_normals(41, n=30)
        desc = compute_fpfh(cloud, radius=1e-6)
        np.testing.assert_array_equal(desc, np.zeros((30, DESCRIPTOR_SIZE)))

    def test_sub_histograms_sum_to_hundred(self):
        cloud = random_cloud_with_normals(42)
        desc = compute_fpfh(cloud, radius=0.4)
        for block in range(3):
            sums = desc[:, block * BINS_PER_FEATURE : (block + 1) * BINS_PER_FEATURE].sum(axis=1)
            has_neighbours = desc.sum(axis=1) > 0
            np.testing.assert_allclose(sums[has_neighbours], 100.0, atol=1e-6)

    def test_invariant_under_rigid_motion(self):
        cloud = random_cloud_with_normals(43)
        moved = apply_transform(random_rigid(np.random.default_rng(44)), cloud)
        original = compute_fpfh(cloud, radius=0.35)
        transformed = compute_fpfh(moved, radius=0.35)
        np.testing.assert_allclose(transformed, original, atol=1e-9)

    def test_antipodal_sphere_points_have_similar_descriptors(self):
        rng = np.random.default_rng(45)
        half = rng.normal(size=(1000, 3))
        half /= np.linalg.norm(half, axis=1)[:, None]
        dirs = np.vstack([half, -half])
        radius_sphere = 0.5
        cloud = PointCloud(dirs * radius_sphere, dirs)
        desc = compute_fpfh(cloud, radius=0.3 * (2 * radius_sphere))
        diffs = np.linalg.norm(desc[:1000] - desc[1000:], axis=1)
        mean_norm = np.linalg.norm(desc, axis=1).mean()
        assert diffs.max() < 0.10 * mean_norm

    def test_requires_normals(self):
        with pytest.raises(InvalidInputError):
            compute_fpfh(PointCloud(np.zeros((3, 3))), radius=1.0)

    def test_rejects_bad_radius(self):
        cloud = random_cloud_with_normals(46, n=5)
        with pytest.raises(InvalidParameterError):
            compute_fpfh(cloud, radius=0.0)

    @pytest.mark.parametrize("seed", [47, 48, 49])
    def test_matches_ordered_pair_oracle(self, seed):
        cloud = random_cloud_with_normals(seed, n=70)
        np.testing.assert_allclose(
            compute_fpfh(cloud, radius=0.35), oracle_fpfh(cloud, radius=0.35), rtol=0.0, atol=1e-9
        )

    def test_tied_pairs_match_ordered_pair_oracle(self):
        # Points sharing one normal make the same angle with every line
        # between them, so each such pair is an exact tie and is described
        # from each end; duplicated points add zero-length pairs.
        cloud = random_cloud_with_normals(50, n=70)
        normals = cloud.normals.copy()
        normals[::2] = normals[0]
        points = cloud.points.copy()
        points[-5:] = points[:5]
        tied = PointCloud(points, normals)
        np.testing.assert_allclose(
            compute_fpfh(tied, radius=0.35), oracle_fpfh(tied, radius=0.35), rtol=0.0, atol=1e-9
        )

    @given(st.integers(0, 10_000), st.floats(0.1, 0.8))
    def test_descriptor_shape_and_range(self, seed, radius):
        cloud = random_cloud_with_normals(seed, n=25)
        desc = compute_fpfh(cloud, radius=radius)
        assert desc.shape == (25, DESCRIPTOR_SIZE)
        assert (desc >= 0.0).all()
        assert (desc <= 100.0 + 1e-9).all()

    @given(clouds_and_radii())
    @settings(max_examples=100)
    def test_bit_identical_to_pair_major_oracle(self, case):
        cloud, radius = case
        assert np.array_equal(
            compute_fpfh(cloud, radius), fpfh_oracle.compute_fpfh(cloud, radius)
        )

    def test_bit_identical_to_pair_major_oracle_at_alignment_size(self):
        # A cloud as pose_align describes it: a 2048-point blob sampling,
        # voxel-downsampled at a twentieth of its diagonal, 16-neighbour
        # normals and a radius of 5 voxels.
        dense = sample_surface(blob(), 2048, seed=51)
        voxel = dense.bbox_diagonal() / 20.0
        sparse = voxel_downsample(dense, voxel)
        cloud, _ = estimate_normals(sparse, k=16, viewpoint=sparse.centroid())
        desc = compute_fpfh(cloud, 5.0 * voxel)
        assert len(cloud) > 300 and (desc.sum(axis=1) > 0).all()
        assert np.array_equal(desc, fpfh_oracle.compute_fpfh(cloud, 5.0 * voxel))

    @given(clouds_and_radii(), st.integers(0, 2**32 - 1))
    def test_permuting_points_permutes_descriptors(self, case, seed):
        # Each pair's description does not depend on which point comes
        # first, but the blend adds a row's neighbours in index order, so
        # a permutation may move the last bits.
        cloud, radius = case
        perm = np.random.default_rng(seed).permutation(len(cloud))
        permuted = PointCloud(cloud.points[perm], cloud.normals[perm])
        np.testing.assert_allclose(
            compute_fpfh(permuted, radius), compute_fpfh(cloud, radius)[perm], rtol=1e-12, atol=0.0
        )
