"""Tests for synthetic defect injection and its labels."""
from __future__ import annotations

import numpy as np
import pytest

from pasdf.defects import DefectResult, bulge, crop, dent, noise_patch
from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.geometry import PointCloud
from pasdf.mesh import sample_surface
from pasdf.shapes import sphere


@pytest.fixture(scope="module")
def sphere_cloud() -> PointCloud:
    return sample_surface(sphere(), 3000, seed=0)


def surface_center(cloud: PointCloud, index: int = 100) -> np.ndarray:
    return cloud.points[index]


class TestDentAndBulge:
    def test_dent_moves_points_inward(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud)
        result = dent(sphere_cloud, center=center, radius=0.2, magnitude=0.05)
        before = np.linalg.norm(sphere_cloud.points[result.labels], axis=1)
        after = np.linalg.norm(result.cloud.points[result.labels], axis=1)
        assert result.labels.any()
        assert (after < before).all()

    def test_bulge_moves_points_outward(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud)
        result = bulge(sphere_cloud, center=center, radius=0.2, magnitude=0.05)
        before = np.linalg.norm(sphere_cloud.points[result.labels], axis=1)
        after = np.linalg.norm(result.cloud.points[result.labels], axis=1)
        assert (after > before).all()

    def test_labels_are_exactly_the_displaced_points(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 7)
        result = dent(sphere_cloud, center=center, radius=0.15, magnitude=0.04)
        moved = ~np.isclose(result.cloud.points, sphere_cloud.points).all(axis=1)
        np.testing.assert_array_equal(result.labels, moved)

    def test_exactly_the_ball_is_displaced(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 42)
        result = dent(sphere_cloud, center=center, radius=0.1, magnitude=0.05)
        distance = np.linalg.norm(sphere_cloud.points - center, axis=1)
        np.testing.assert_array_equal(result.labels, distance < 0.1)

    def test_max_displacement_is_magnitude_at_center(self, sphere_cloud) -> None:
        # The center is itself a cloud point, so the falloff peak of one
        # is realised exactly.
        center = surface_center(sphere_cloud, 42)
        result = dent(sphere_cloud, center=center, radius=0.1, magnitude=0.05)
        shift = np.linalg.norm(result.cloud.points - sphere_cloud.points, axis=1)
        assert shift.max() == pytest.approx(0.05, abs=1e-9)
        assert shift[np.linalg.norm(sphere_cloud.points - center, axis=1).argmin()] == shift.max()

    def test_falloff_decreases_with_distance(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 42)
        result = dent(sphere_cloud, center=center, radius=0.2, magnitude=0.05)
        shift = np.linalg.norm(result.cloud.points - sphere_cloud.points, axis=1)
        distance = np.linalg.norm(sphere_cloud.points - center, axis=1)
        inside = distance < 0.2
        order = np.argsort(distance[inside])
        ordered_shift = shift[inside][order]
        assert (np.diff(ordered_shift) <= 1e-12).all()

    def test_zero_magnitude_is_noop(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud)
        result = dent(sphere_cloud, center=center, radius=0.2, magnitude=0.0)
        np.testing.assert_array_equal(result.cloud.points, sphere_cloud.points)
        assert not result.labels.any()

    def test_empty_patch_rejected(self, sphere_cloud) -> None:
        far = np.array([10.0, 10.0, 10.0])
        with pytest.raises(InvalidParameterError, match="no points"):
            dent(sphere_cloud, center=far, radius=0.1, magnitude=0.05)

    def test_requires_normals(self) -> None:
        bare = PointCloud(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        with pytest.raises(InvalidInputError, match="normals"):
            dent(bare, center=bare.points[0], radius=0.2, magnitude=0.05)

    def test_rejects_bad_params(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud)
        with pytest.raises(InvalidParameterError):
            dent(sphere_cloud, center=center, radius=0.0, magnitude=0.05)
        with pytest.raises(InvalidParameterError):
            dent(sphere_cloud, center=center, radius=0.2, magnitude=-0.01)
        with pytest.raises(InvalidParameterError):
            dent(sphere_cloud, center=np.zeros(2), radius=0.2, magnitude=0.05)


class TestNoisePatch:
    def test_perturbs_exactly_the_patch(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 11)
        result = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.02, seed=4
        )
        moved = ~np.isclose(result.cloud.points, sphere_cloud.points).all(axis=1)
        np.testing.assert_array_equal(result.labels, moved)
        distance = np.linalg.norm(sphere_cloud.points - center, axis=1)
        np.testing.assert_array_equal(result.labels, distance < 0.2)

    def test_jitter_scale_is_magnitude(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 11)
        small = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.01, seed=4
        )
        large = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.04, seed=4
        )
        shift_small = np.linalg.norm(
            small.cloud.points - sphere_cloud.points, axis=1
        )
        shift_large = np.linalg.norm(
            large.cloud.points - sphere_cloud.points, axis=1
        )
        # Same seed draws the same unit jitter, scaled linearly.
        np.testing.assert_allclose(shift_large, 4.0 * shift_small, atol=1e-12)

    def test_deterministic_per_seed(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 11)
        first = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.02, seed=5
        )
        second = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.02, seed=5
        )
        np.testing.assert_array_equal(first.cloud.points, second.cloud.points)
        third = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.02, seed=6
        )
        assert not np.array_equal(first.cloud.points, third.cloud.points)

    def test_zero_magnitude_is_noop(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 11)
        result = noise_patch(
            sphere_cloud, center=center, radius=0.2, magnitude=0.0, seed=4
        )
        np.testing.assert_array_equal(result.cloud.points, sphere_cloud.points)
        assert not result.labels.any()

    def test_works_without_normals(self) -> None:
        bare = PointCloud(np.random.default_rng(1).uniform(0, 1, (200, 3)))
        result = noise_patch(
            bare, center=bare.points[0], radius=0.3, magnitude=0.01, seed=0
        )
        assert result.cloud.normals is None


class TestCrop:
    def test_removes_exactly_the_ball(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 33)
        result = crop(sphere_cloud, center=center, radius=0.2)
        outside = np.linalg.norm(sphere_cloud.points - center, axis=1) >= 0.2
        np.testing.assert_array_equal(result.cloud.points, sphere_cloud.points[outside])

    def test_labels_form_a_rim(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 33)
        result = crop(sphere_cloud, center=center, radius=0.2)
        assert result.labels.any()
        distance = np.linalg.norm(result.cloud.points - center, axis=1)
        # Everything labelled hugs the cut; the far side of the sphere
        # is clean.
        assert distance[result.labels].max() < 0.3
        assert distance[~result.labels].max() > distance[result.labels].max()

    def test_keeps_normals(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 33)
        result = crop(sphere_cloud, center=center, radius=0.2)
        kept = np.linalg.norm(sphere_cloud.points - center, axis=1) >= 0.2
        np.testing.assert_array_equal(result.cloud.normals, sphere_cloud.normals[kept])

    def test_empty_ball_rejected(self, sphere_cloud) -> None:
        with pytest.raises(InvalidParameterError, match="no points"):
            crop(sphere_cloud, center=np.array([5.0, 5.0, 5.0]), radius=0.1)

    def test_rejects_total_removal(self, sphere_cloud) -> None:
        center = surface_center(sphere_cloud, 33)
        with pytest.raises(InvalidParameterError, match="whole cloud"):
            crop(sphere_cloud, center=center, radius=10.0)


class TestDefectResult:
    def test_rejects_mismatched_labels(self) -> None:
        cloud = PointCloud(np.random.default_rng(2).uniform(0, 1, (10, 3)))
        with pytest.raises(InvalidInputError):
            DefectResult(cloud=cloud, labels=np.zeros(5, dtype=bool))
