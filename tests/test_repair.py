"""Tests for shape repair and the matched-transport distance."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pasdf.errors import InvalidInputError, InvalidParameterError, RepairFailedError
from pasdf.geometry import (
    PointCloud,
    apply_transform,
    chamfer_metric,
    random_rigid,
)
from pasdf.marching import GridSpec
from pasdf.mesh import NormalizationRecord, sample_surface
from pasdf.repair import RepairResult, emd, repair, repair_quality
from pasdf.rng import derive_seed


def brute_force_emd(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(
            float(np.linalg.norm(a[i] - b[perm[i]])) for i in range(n)
        )
        best = min(best, cost)
    return best / n


def dent_cap(points: np.ndarray, center: np.ndarray, depth: float) -> np.ndarray:
    """Crush the cap around the +z pole inward with a cosine falloff."""
    out = points.copy()
    rel = out - center
    radii = np.linalg.norm(rel, axis=1)
    directions = rel / radii[:, None]
    angle = np.arccos(np.clip(directions[:, 2], -1.0, 1.0))
    cap = angle < 0.9
    falloff = np.cos(np.pi * angle[cap] / (2 * 0.9))
    out[cap] -= directions[cap] * (depth * falloff)[:, None]
    return out


class TestEmd:
    def test_identical_clouds_zero(self) -> None:
        points = np.random.default_rng(0).uniform(0, 1, (30, 3))
        assert emd(PointCloud(points), PointCloud(points)) == pytest.approx(0.0)

    def test_single_pair_is_distance(self) -> None:
        a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        b = PointCloud(np.array([[3.0, 4.0, 0.0]]))
        assert emd(a, b) == pytest.approx(5.0)

    def test_symmetric(self) -> None:
        rng = np.random.default_rng(1)
        a = PointCloud(rng.uniform(0, 1, (25, 3)))
        b = PointCloud(rng.uniform(0, 1, (25, 3)))
        assert emd(a, b) == pytest.approx(emd(b, a), abs=1e-12)

    def test_pure_translation_costs_its_norm(self) -> None:
        # Permuting cannot beat the identity matching for a translated
        # copy: the summed match vectors always add up to n times the
        # translation.
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 1, (40, 3))
        shift = np.array([0.3, -0.2, 0.5])
        value = emd(PointCloud(points), PointCloud(points + shift))
        assert value == pytest.approx(float(np.linalg.norm(shift)), abs=1e-9)

    def test_matches_brute_force(self) -> None:
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(0, 1, (6, 3))
            b = rng.uniform(0, 1, (6, 3))
            got = emd(PointCloud(a), PointCloud(b))
            assert got == pytest.approx(brute_force_emd(a, b), abs=1e-9)

    def test_matches_independent_solver(self) -> None:
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (32, 3))
        b = rng.uniform(0, 1, (32, 3))
        costs = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(costs)
        expected = float(costs[rows, cols].sum()) / 32
        assert emd(PointCloud(a), PointCloud(b)) == pytest.approx(expected, abs=1e-9)

    def test_lower_bounded_by_nearest_neighbour_mean(self) -> None:
        # Each matched pair is at least as far apart as the nearest
        # neighbour, so the transport cost dominates the one-sided mean.
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (40, 3))
        b = rng.uniform(0, 1, (40, 3))
        nn = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min(axis=1)
        assert emd(PointCloud(a), PointCloud(b)) >= nn.mean() - 1e-12

    def test_rejects_size_mismatch(self) -> None:
        a = PointCloud(np.zeros((3, 3)) + 0.1)
        b = PointCloud(np.zeros((4, 3)) + 0.1)
        with pytest.raises(InvalidInputError, match="size"):
            emd(a, b)


class TestRepairQuality:
    def test_chamfer_matches_metric(self) -> None:
        rng = np.random.default_rng(6)
        a = PointCloud(rng.uniform(0, 1, (100, 3)))
        b = PointCloud(rng.uniform(0, 1, (80, 3)))
        quality = repair_quality(a, b, seed=0)
        expected = chamfer_metric(a, b)
        assert quality.chamfer == pytest.approx(expected)
        assert quality.chamfer_per_point == pytest.approx(expected / 180)

    def test_subsample_clamps_to_cloud_size(self) -> None:
        rng = np.random.default_rng(7)
        a = PointCloud(rng.uniform(0, 1, (50, 3)))
        b = PointCloud(rng.uniform(0, 1, (60, 3)))
        quality = repair_quality(a, b, seed=0, emd_subsample=512)
        assert quality.emd_subsample == 50

    def test_deterministic_for_seed(self) -> None:
        rng = np.random.default_rng(8)
        a = PointCloud(rng.uniform(0, 1, (200, 3)))
        b = PointCloud(rng.uniform(0, 1, (200, 3)))
        first = repair_quality(a, b, seed=3, emd_subsample=64)
        second = repair_quality(a, b, seed=3, emd_subsample=64)
        assert first == second

    def test_identical_clouds_score_zero(self) -> None:
        points = np.random.default_rng(9).uniform(0, 1, (64, 3))
        quality = repair_quality(PointCloud(points), PointCloud(points), seed=0)
        assert quality.chamfer == pytest.approx(0.0)
        assert quality.emd == pytest.approx(0.0)

    def test_rejects_bad_subsample(self) -> None:
        a = PointCloud(np.full((3, 3), 0.5))
        with pytest.raises(InvalidParameterError):
            repair_quality(a, a, seed=0, emd_subsample=0)


class TestRepair:
    def test_self_repair_recovers_sphere(self, sphere_world) -> None:
        result = repair(
            sphere_world.canonical,
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.record,
            seed=7,
            resolution=48,
            n_points=4000,
            align=False,
        )
        assert result.converged
        assert len(result.repaired.points) == 4000
        assert result.repaired.normals is not None
        radii = np.linalg.norm(
            result.repaired.points - sphere_world.center, axis=1
        )
        # The quick fixture wobbles around the true surface; the repair
        # must still hug it at the fixture's own error scale.
        assert np.abs(radii - sphere_world.radius).mean() < 0.1

    def test_repair_from_random_pose(self, sphere_world) -> None:
        transform = random_rigid(np.random.default_rng(11), 1.5)
        posed = apply_transform(transform, sphere_world.canonical)
        result = repair(
            posed,
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.record,
            seed=7,
            resolution=48,
            n_points=2000,
        )
        assert result.converged
        radii = np.linalg.norm(
            result.repaired.points - sphere_world.center, axis=1
        )
        assert np.abs(radii - sphere_world.radius).mean() < 0.12
        # Mapping back lands the repair on the posed object.
        back = apply_transform(result.transform.inverse(), result.repaired)
        posed_center = (
            transform.rotation @ sphere_world.center + transform.translation
        )
        back_radii = np.linalg.norm(back.points - posed_center, axis=1)
        assert np.abs(back_radii - sphere_world.radius).mean() < 0.12

    def test_repair_improves_dented_sphere(self, sphere_world) -> None:
        dented = PointCloud(
            dent_cap(sphere_world.canonical.points, sphere_world.center, 1.0)
        )
        before = repair_quality(dented, sphere_world.canonical, seed=5)
        result = repair(
            dented,
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.record,
            seed=5,
            resolution=48,
            n_points=4000,
            align=False,
        )
        after = repair_quality(result.repaired, sphere_world.canonical, seed=5)
        # Squared distances punish the dent hard; the subsampled
        # transport distance carries a sampling floor either way, so it
        # only has to not regress.
        assert after.chamfer_per_point < 0.5 * before.chamfer_per_point
        assert after.emd < 1.5 * before.emd

    def test_repaired_cloud_is_a_sample_of_its_mesh(self, sphere_world) -> None:
        transform = random_rigid(np.random.default_rng(12), 1.5)
        posed = apply_transform(transform, sphere_world.canonical)
        result = repair(
            posed,
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.record,
            seed=7,
            resolution=32,
            n_points=1500,
        )
        sample = sample_surface(result.mesh, 1500, derive_seed(7, "repair-sample"))
        np.testing.assert_array_equal(result.repaired.points, sample.points)
        np.testing.assert_array_equal(result.repaired.normals, sample.normals)

    @pytest.mark.parametrize("expand", (1.0, 1.6))
    def test_grid_spans_the_expanded_shell(self, sphere_world, expand) -> None:
        # Half the sphere: the grid cuts the field at its lower x face,
        # where the closed boundary caps the extracted surface.
        half = sphere_world.canonical.points[:, 0] > sphere_world.center[0]
        cap = PointCloud(sphere_world.canonical.points[half])
        result = repair(
            cap,
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.record,
            seed=7,
            expand=expand,
            resolution=32,
            n_points=1000,
            align=False,
        )
        grid = GridSpec.for_cloud(
            sphere_world.record.normalize(cap.points), resolution=32, expand=expand
        )
        normalized = sphere_world.record.normalize(result.mesh.vertices)
        assert (normalized >= np.asarray(grid.lower) - 1e-9).all()
        assert (normalized <= np.asarray(grid.upper) + 1e-9).all()
        assert normalized[:, 0].min() == pytest.approx(grid.lower[0], abs=1e-9)

    def test_empty_level_set_raises(self, sphere_world) -> None:
        model = sphere_world.model
        saved_gains = [g.copy() for g in model.params.gains]
        saved_bias = model.params.biases[-1].copy()
        try:
            for gain in model.params.gains:
                gain[...] = 0.0
            model.params.biases[-1][...] = 1.0
            with pytest.raises(RepairFailedError):
                repair(
                    sphere_world.canonical,
                    model,
                    sphere_world.encoding,
                    sphere_world.canonical,
                    sphere_world.record,
                    seed=7,
                    resolution=16,
                    align=False,
                )
        finally:
            for gain, saved in zip(model.params.gains, saved_gains):
                gain[...] = saved
            model.params.biases[-1][...] = saved_bias

    @pytest.mark.filterwarnings("error")
    def test_zero_area_level_set_raises(self, sphere_world, monkeypatch) -> None:
        # One barely-inside node: every crossing rounds onto it, so every
        # extracted face has zero area.
        def one_node_field(model, encoding, grid):
            field = np.ones((grid.resolution,) * 3)
            field[5, 6, 7] = -1e-300
            return field

        monkeypatch.setattr("pasdf.repair.evaluate_field", one_node_field)
        with pytest.raises(RepairFailedError, match="no area"):
            repair(
                sphere_world.canonical,
                sphere_world.model,
                sphere_world.encoding,
                sphere_world.canonical,
                sphere_world.record,
                seed=7,
                resolution=16,
                align=False,
            )

    def test_cloud_beyond_the_unit_cube_is_an_input_error(self, sphere_world) -> None:
        record = sphere_world.record
        shifted = PointCloud(sphere_world.canonical.points + [10.0 * record.scale, 0.0, 0.0])
        with pytest.raises(InvalidInputError, match="outside the unit cube"):
            repair(
                shifted,
                sphere_world.model,
                sphere_world.encoding,
                sphere_world.canonical,
                record,
                seed=7,
                resolution=16,
                align=False,
            )

    def test_rejects_bad_point_count(self, sphere_world) -> None:
        with pytest.raises(InvalidParameterError):
            repair(
                sphere_world.canonical,
                sphere_world.model,
                sphere_world.encoding,
                sphere_world.canonical,
                sphere_world.record,
                seed=7,
                n_points=0,
                align=False,
            )

    def test_small_record_scale_keeps_the_mesh(self, sphere_world) -> None:
        # Meshes judge no face by its size, so a record that shrinks the
        # world tenfold keeps every extracted face.
        normalized = sphere_world.record.normalize(sphere_world.canonical.points)
        faces = []
        for scale in (1.0, 0.1):
            record = NormalizationRecord(scale=scale, offset=(0.0, 0.0, 0.0))
            result = repair(
                PointCloud(record.denormalize(normalized)),
                sphere_world.model,
                sphere_world.encoding,
                sphere_world.canonical,
                record,
                seed=7,
                resolution=48,
                n_points=500,
                align=False,
            )
            faces.append(result.mesh.faces)
        np.testing.assert_array_equal(faces[0], faces[1])

    def test_result_deterministic_for_seed(self, sphere_world) -> None:
        def run() -> RepairResult:
            return repair(
                sphere_world.canonical,
                sphere_world.model,
                sphere_world.encoding,
                sphere_world.canonical,
                sphere_world.record,
                seed=13,
                resolution=24,
                n_points=500,
                align=False,
            )

        first, second = run(), run()
        np.testing.assert_array_equal(
            first.repaired.points, second.repaired.points
        )
        np.testing.assert_array_equal(first.mesh.vertices, second.mesh.vertices)
