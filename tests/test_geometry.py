"""Tests for point-cloud and rigid-motion primitives.

Reference answers come from small brute-force oracles written against the
documented contracts, never from the implementation under test.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rotation_angle
from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.geometry import (
    PointCloud,
    RigidTransform,
    apply_points,
    apply_transform,
    chamfer_loss,
    chamfer_metric,
    compose,
    estimate_normals,
    random_rigid,
    random_rotation,
    rotation_about_axis,
    voxel_downsample,
)


def brute_force_chamfer_sums(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """O(n^2) nearest-neighbour squared-distance sums, both directions."""
    sum_ab = 0.0
    for p in a:
        sum_ab += min(float(np.sum((p - q) ** 2)) for q in b)
    sum_ba = 0.0
    for q in b:
        sum_ba += min(float(np.sum((q - p) ** 2)) for p in a)
    return sum_ab, sum_ba


def brute_force_voxel_centroids(points: np.ndarray, voxel: float) -> dict[tuple, np.ndarray]:
    cells: dict[tuple, list[np.ndarray]] = {}
    for p in points:
        key = tuple(int(np.floor(c / voxel)) for c in p)
        cells.setdefault(key, []).append(p)
    return {k: np.mean(v, axis=0) for k, v in cells.items()}


def unique_rows_voxel_centroids(cloud: PointCloud, voxel: float) -> np.ndarray:
    """Cell grouping by ``np.unique(axis=0)`` and sums by ``np.add.at``:
    the earlier implementation, kept as the oracle for the sort-based one."""
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_cells = int(inverse.max()) + 1
    counts = np.bincount(inverse, minlength=n_cells).astype(np.float64)
    centroids = np.zeros((n_cells, 3))
    np.add.at(centroids, inverse, cloud.points)
    return centroids / counts[:, None]


finite_coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# Coordinates drawn partly from a small pool, so points share cells and
# repeat exactly.
pooled_coords = st.one_of(
    st.sampled_from([-2.5, -1.0, -0.3, 0.0, 0.3, 1.0]), st.floats(-5.0, 5.0)
)


def cloud_strategy(min_points: int = 1, max_points: int = 24):
    return st.lists(
        st.tuples(finite_coords, finite_coords, finite_coords),
        min_size=min_points,
        max_size=max_points,
    ).map(lambda rows: PointCloud(np.asarray(rows, dtype=np.float64)))


class TestPointCloud:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((4, 2)))

    def test_rejects_non_finite(self):
        pts = np.zeros((2, 3))
        pts[1, 0] = np.nan
        with pytest.raises(InvalidInputError):
            PointCloud(pts)

    def test_rejects_non_unit_normals(self):
        pts = np.zeros((2, 3))
        normals = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            PointCloud(pts, normals)

    def test_rejects_mismatched_normals(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((3, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)))

    def test_points_are_immutable(self):
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_bbox_diagonal(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert cloud.bbox_diagonal() == pytest.approx(np.sqrt(3.0))


class TestRigidTransform:
    def test_identity_round_trip(self):
        t = RigidTransform.identity()
        pts = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_allclose(apply_points(t, pts), pts)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(1)
        t = random_rigid(rng)
        pts = rng.normal(size=(10, 3))
        back = apply_points(t.inverse(), apply_points(t, pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_compose_order(self):
        rng = np.random.default_rng(2)
        a, b = random_rigid(rng), random_rigid(rng)
        pts = rng.normal(size=(6, 3))
        via_compose = apply_points(compose(a, b), pts)
        sequential = apply_points(a, apply_points(b, pts))
        np.testing.assert_allclose(via_compose, sequential, atol=1e-12)

    def test_rejects_reflection(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            RigidTransform(flip, np.zeros(3))

    def test_determinant_stays_unit_over_long_chains(self):
        rng = np.random.default_rng(3)
        current = RigidTransform.identity()
        for _ in range(10_000):
            current = compose(current, random_rigid(rng, translation_scale=0.1))
        det = float(np.linalg.det(current.rotation))
        assert 1.0 - 1e-6 <= det <= 1.0 + 1e-6
        drift = np.abs(current.rotation.T @ current.rotation - np.eye(3)).max()
        assert drift <= 1e-6

    def test_apply_transform_rotates_normals_and_keeps_order(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 3))
        normals = rng.normal(size=(8, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        cloud = PointCloud(pts, normals)
        t = random_rigid(rng)
        moved = apply_transform(t, cloud)
        np.testing.assert_allclose(moved.points, apply_points(t, pts))
        np.testing.assert_allclose(moved.normals, normals @ t.rotation.T)

    def test_rotation_angle_matches_construction(self):
        rot = rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.7)
        assert rotation_angle(rot) == pytest.approx(0.7, abs=1e-12)


class TestVoxelDownsample:
    def test_cube_corners_collapse_to_centroid(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        out = voxel_downsample(PointCloud(corners), 10.0)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0.5, 0.5, 0.5])

    def test_two_separated_clusters_stay_separate(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.0, 0.4, size=(30, 3))
        b = rng.uniform(0.0, 0.4, size=(30, 3)) + 5.0
        out = voxel_downsample(PointCloud(np.vstack([a, b])), 0.5)
        assert len(out) == len(brute_force_voxel_centroids(np.vstack([a, b]), 0.5))

    def test_matches_hash_grid_oracle(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(scale=2.0, size=(200, 3))
        voxel = 0.75
        out = voxel_downsample(PointCloud(pts), voxel)
        expected = brute_force_voxel_centroids(pts, voxel)
        assert len(out) == len(expected)
        got = {
            tuple(int(np.floor(c / voxel)) for c in p): p for p in out.points
        }
        for key, centroid in expected.items():
            np.testing.assert_allclose(got[key], centroid, atol=1e-12)

    def test_rejects_non_positive_voxel(self):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(InvalidParameterError):
            voxel_downsample(cloud, 0.0)

    @given(
        st.lists(st.tuples(pooled_coords, pooled_coords, pooled_coords), min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.one_of(st.sampled_from([1e-9, 0.25, 1.0]), st.floats(1e-3, 8.0)),
    )
    def test_matches_unique_rows_implementation(self, rows, seed, with_normals, voxel):
        points = np.asarray(rows + rows[: len(rows) // 2], dtype=np.float64)
        normals = None
        if with_normals:
            normals = np.random.default_rng(seed).normal(size=points.shape)
            normals /= np.linalg.norm(normals, axis=1)[:, None]
        cloud = PointCloud(points, normals)
        got = voxel_downsample(cloud, voxel)
        np.testing.assert_array_equal(got.points, unique_rows_voxel_centroids(cloud, voxel))
        assert got.normals is None

    @given(cloud_strategy(min_points=1, max_points=20), st.floats(0.05, 3.0))
    def test_never_grows_and_stays_in_bounds(self, cloud, voxel):
        out = voxel_downsample(cloud, voxel)
        assert 1 <= len(out) <= len(cloud)
        lo, hi = cloud.bounds()
        assert (out.points >= lo - 1e-9).all() and (out.points <= hi + 1e-9).all()


class TestEstimateNormals:
    def test_plane_normals_point_toward_viewpoint(self):
        xs, ys = np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(36)])
        cloud, degenerate = estimate_normals(
            PointCloud(pts), k=8, viewpoint=np.array([0.0, 0.0, -10.0])
        )
        assert degenerate == 0
        np.testing.assert_allclose(cloud.normals, np.tile([0.0, 0.0, -1.0], (36, 1)), atol=1e-9)

    def test_sphere_normals_face_the_center_viewpoint(self):
        rng = np.random.default_rng(10)
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        cloud, _ = estimate_normals(PointCloud(dirs), k=12, viewpoint=np.zeros(3))
        cos_to_inward = np.einsum("ni,ni->n", cloud.normals, -dirs)
        angles = np.degrees(np.arccos(np.clip(cos_to_inward, -1.0, 1.0)))
        assert np.mean(angles < 10.0) >= 0.99

    def test_all_identical_points_count_as_degenerate(self):
        pts = np.tile([1.0, 2.0, 3.0], (5, 1))
        cloud, degenerate = estimate_normals(PointCloud(pts), k=5, viewpoint=np.zeros(3))
        assert degenerate == 5
        np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)

    def test_matches_per_point_eigen_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(60, 3))
        pts[:, 2] *= 0.05
        k = 10
        cloud, _ = estimate_normals(PointCloud(pts), k=k, viewpoint=np.array([0.0, 0.0, 5.0]))
        for i, p in enumerate(pts):
            order = np.argsort(np.sum((pts - p) ** 2, axis=1), kind="stable")[:k]
            nb = pts[order]
            centered = nb - nb.mean(axis=0)
            cov = centered.T @ centered / k
            w, v = np.linalg.eigh(cov)
            expected = v[:, 0]
            if np.dot(expected, np.array([0.0, 0.0, 5.0]) - p) < 0:
                expected = -expected
            agreement = abs(float(np.dot(expected, cloud.normals[i])))
            assert agreement == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_k(self):
        cloud = PointCloud(np.zeros((4, 3)))
        with pytest.raises(InvalidParameterError):
            estimate_normals(cloud, k=5, viewpoint=np.zeros(3))


class TestChamfer:
    def test_identical_clouds_are_zero(self):
        pts = np.random.default_rng(12).uniform(size=(50, 3))
        cloud = PointCloud(pts)
        assert chamfer_loss(cloud, cloud) == 0.0
        assert chamfer_metric(cloud, cloud) == 0.0

    def test_single_points_at_distance_five(self):
        a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        b = PointCloud(np.array([[3.0, 4.0, 0.0]]))
        assert chamfer_loss(a, b) == pytest.approx(50.0)
        assert chamfer_metric(a, b) == pytest.approx(50.0)

    def test_normalisation_differs_between_variants(self):
        rng = np.random.default_rng(13)
        a = PointCloud(rng.uniform(size=(20, 3)))
        b = PointCloud(rng.uniform(size=(35, 3)) + 0.1)
        sum_ab, sum_ba = brute_force_chamfer_sums(a.points, b.points)
        assert chamfer_loss(a, b) == pytest.approx(sum_ab / 20 + sum_ba / 35, rel=1e-12)
        assert chamfer_metric(a, b) == pytest.approx(sum_ab + sum_ba, rel=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = rng.normal(size=(rng.integers(1, 40), 3))
            b = rng.normal(size=(rng.integers(1, 40), 3))
            ca, cb = PointCloud(a), PointCloud(b)
            sum_ab, sum_ba = brute_force_chamfer_sums(a, b)
            expected_loss = sum_ab / len(a) + sum_ba / len(b)
            assert chamfer_loss(ca, cb) == pytest.approx(expected_loss, rel=1e-12)
            assert chamfer_metric(ca, cb) == pytest.approx(sum_ab + sum_ba, rel=1e-12)

    @given(cloud_strategy(1, 16), cloud_strategy(1, 16))
    def test_symmetry_and_nonnegativity(self, a, b):
        forward = chamfer_loss(a, b)
        assert forward >= 0.0
        assert forward == chamfer_loss(b, a)
        assert chamfer_metric(a, b) == chamfer_metric(b, a)

    @given(cloud_strategy(1, 16))
    def test_self_distance_is_zero(self, cloud):
        assert chamfer_loss(cloud, cloud) == 0.0


class TestRandomRotation:
    def test_outputs_are_rotations(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            rot = random_rotation(rng)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
