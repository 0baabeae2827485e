"""Query sampling and signed-distance labelling."""
from __future__ import annotations

import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import pasdf.bench as bench_module
from pasdf.config import load_config
from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.geometry import PointCloud
from pasdf.marching import GridSpec
from pasdf.mesh import TriMesh, normalize_unit_cube, sample_surface
from pasdf.queries import (
    QueryCounts,
    QuerySet,
    Tier,
    label_queries,
    label_sdf,
    read_samples,
    sample_queries,
    sample_queries_from_cloud,
    write_samples,
)
from pasdf.shapes import blob

from test_mesh import unit_cube


def oracle_label(positions: np.ndarray, cloud: PointCloud) -> np.ndarray:
    """Brute-force nearest-sample signed distance."""
    out = np.empty(len(positions))
    for row, x in enumerate(positions):
        dists = np.linalg.norm(cloud.points - x, axis=1)
        j = int(np.argmin(dists))
        offset = x - cloud.points[j]
        sign = -1.0 if float(offset @ cloud.normals[j]) < 0.0 else 1.0
        out[row] = dists[j] * sign
    return out


def sphere_cloud(n: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> PointCloud:
    """Fibonacci-spiral samples of a sphere with outward normals."""
    i = np.arange(n)
    golden = (1.0 + 5.0**0.5) / 2.0
    z = 1.0 - 2.0 * (i + 0.5) / n
    ring = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = 2.0 * np.pi * i / golden
    dirs = np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    return PointCloud(np.asarray(center) + radius * dirs, dirs)


def plane_cloud() -> PointCloud:
    """Grid on z = 0 with +z normals."""
    axis = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    return PointCloud(points, normals)


class TestLabelSdf:
    def test_plane_signs_and_magnitudes(self) -> None:
        cloud = plane_cloud()
        queries = np.array(
            [[0.3, 0.3, 0.5], [0.3, 0.3, -0.5], [-0.7, 0.1, 0.02], [-0.7, 0.1, -0.02]]
        )
        sdf = label_sdf(queries, cloud)
        assert sdf == pytest.approx([0.5, -0.5, 0.02, -0.02], abs=1e-12)

    def test_on_sample_is_exactly_positive_zero(self) -> None:
        cloud = plane_cloud()
        sdf = label_sdf(cloud.points[:5], cloud)
        assert np.all(sdf == 0.0)
        assert np.all(np.signbit(sdf) == False)  # noqa: E712

    def test_zero_dot_counts_as_outside(self) -> None:
        # Offset purely tangential to the nearest sample's normal.
        cloud = plane_cloud()
        sdf = label_sdf(np.array([[0.12, 0.0, 0.0]]), cloud)
        assert sdf[0] > 0.0

    def test_sphere_matches_analytic_distance(self) -> None:
        cloud = sphere_cloud(4000)
        rng = np.random.default_rng(7)
        queries = rng.uniform(-1.6, 1.6, size=(300, 3))
        radii = np.linalg.norm(queries, axis=1)
        keep = np.abs(radii - 1.0) > 0.08
        queries, radii = queries[keep], radii[keep]
        sdf = label_sdf(queries, cloud)
        assert np.allclose(sdf, radii - 1.0, atol=0.01)
        assert np.array_equal(np.sign(sdf), np.sign(radii - 1.0))

    def test_center_of_sphere_is_deep_inside(self) -> None:
        cloud = sphere_cloud(2000, radius=0.4, center=(0.5, 0.5, 0.5))
        sdf = label_sdf(np.array([[0.5, 0.5, 0.5]]), cloud)
        assert sdf[0] == pytest.approx(-0.4, abs=1e-6)

    def test_matches_brute_force_oracle(self) -> None:
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 3))
        normals = rng.normal(size=(60, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(points, normals)
        queries = rng.normal(size=(40, 3))
        assert np.allclose(label_sdf(queries, cloud), oracle_label(queries, cloud), atol=1e-12)

    def test_equals_brute_force_argmin(self) -> None:
        # Enough samples for many leaves; queries on, just off and far
        # from the surface.
        cloud = sample_surface(blob(), 3000, seed=1)
        rng = np.random.default_rng(2)
        queries = np.vstack(
            [
                cloud.points[:100],
                cloud.points[100:400] + rng.normal(scale=1e-3, size=(300, 3)),
                rng.uniform(-3.0, 3.0, size=(700, 3)),
            ]
        )
        dists = cdist(queries, cloud.points)
        nearest = dists.argmin(axis=1)
        offsets = queries - cloud.points[nearest]
        dots = np.einsum("ij,ij->i", offsets, cloud.normals[nearest])
        expected = dists[np.arange(len(queries)), nearest] * np.where(dots < 0.0, -1.0, 1.0)
        assert label_sdf(queries, cloud).tobytes() == expected.tobytes()

    def test_requires_normals(self) -> None:
        bare = PointCloud(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(InvalidInputError, match="normals"):
            label_sdf(np.zeros((1, 3)), bare)

    def test_rejects_non_finite_positions(self) -> None:
        with pytest.raises(InvalidInputError, match="positions contains non-finite values"):
            label_sdf(np.array([[0.5, np.nan, 0.5]]), plane_cloud())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15)
    def test_magnitude_is_nearest_distance(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        points = rng.random((25, 3))
        normals = rng.normal(size=(25, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(points, normals)
        queries = rng.random((10, 3))
        sdf = label_sdf(queries, cloud)
        nearest = np.min(
            np.linalg.norm(queries[:, None, :] - points[None, :, :], axis=2), axis=1
        )
        assert np.allclose(np.abs(sdf), nearest, atol=1e-12)


class TestQueryCounts:
    def test_defaults(self) -> None:
        counts = QueryCounts()
        assert (counts.volume, counts.bbox, counts.surface) == (10_000, 10_000, 3_000)
        assert counts.bbox_expand == pytest.approx(1.3)
        assert counts.total == 23_000

    def test_rejects_negative_and_empty(self) -> None:
        with pytest.raises(InvalidParameterError):
            QueryCounts(volume=-1)
        with pytest.raises(InvalidParameterError):
            QueryCounts(volume=0, bbox=0, surface=0)
        with pytest.raises(InvalidParameterError):
            QueryCounts(bbox_expand=0.9)


def small_normalized_cube() -> TriMesh:
    """Cube occupying [0.35, 0.65]^3, inside the unit cube."""
    mesh = unit_cube()
    return TriMesh(mesh.vertices * 0.3 + 0.35, mesh.faces)


class TestSampleQueries:
    def test_tier_counts_and_layout(self) -> None:
        counts = QueryCounts(volume=500, bbox=400, surface=300)
        queries, surface = sample_queries(small_normalized_cube(), counts, seed=11)
        assert len(queries) == 1200
        assert np.sum(queries.tiers == int(Tier.VOLUME)) == 500
        assert np.sum(queries.tiers == int(Tier.BBOX)) == 400
        assert np.sum(queries.tiers == int(Tier.SURFACE)) == 300
        assert not queries.is_labelled
        assert len(surface) == 300
        assert surface.normals is not None

    def test_volume_points_fill_unit_cube(self) -> None:
        counts = QueryCounts(volume=2000, bbox=0, surface=1)
        queries, _ = sample_queries(small_normalized_cube(), counts, seed=1)
        vol = queries.positions[queries.tiers == int(Tier.VOLUME)]
        assert vol.min() >= 0.0 and vol.max() <= 1.0
        # Uniform draws should reach well outside the object's [0.35, 0.65] box.
        assert vol.min() < 0.1 and vol.max() > 0.9

    def test_bbox_points_respect_expanded_bounds(self) -> None:
        counts = QueryCounts(volume=0, bbox=3000, surface=1, bbox_expand=1.3)
        queries, _ = sample_queries(small_normalized_cube(), counts, seed=2)
        box = queries.positions[queries.tiers == int(Tier.BBOX)]
        # Expanded box: center 0.5, half-width 0.15 * 1.3 = 0.195.
        assert box.min() >= 0.305 - 1e-12 and box.max() <= 0.695 + 1e-12
        # Expansion must actually widen the box beyond the tight bounds.
        assert box.min() < 0.35 and box.max() > 0.65

    def test_bbox_clamped_to_unit_cube(self) -> None:
        mesh, _ = normalize_unit_cube(unit_cube())
        counts = QueryCounts(volume=0, bbox=2000, surface=1, bbox_expand=1.5)
        queries, _ = sample_queries(mesh, counts, seed=3)
        box = queries.positions[queries.tiers == int(Tier.BBOX)]
        assert box.min() >= 0.0 and box.max() <= 1.0

    def test_surface_tier_equals_returned_cloud(self) -> None:
        counts = QueryCounts(volume=10, bbox=10, surface=50)
        queries, surface = sample_queries(small_normalized_cube(), counts, seed=4)
        np.testing.assert_array_equal(
            queries.positions[queries.tiers == int(Tier.SURFACE)], surface.points
        )

    def test_deterministic_per_seed(self) -> None:
        counts = QueryCounts(volume=100, bbox=100, surface=100)
        a, _ = sample_queries(small_normalized_cube(), counts, seed=9)
        b, _ = sample_queries(small_normalized_cube(), counts, seed=9)
        c, _ = sample_queries(small_normalized_cube(), counts, seed=10)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_rejects_unnormalized_mesh(self) -> None:
        mesh = unit_cube()
        shifted = TriMesh(mesh.vertices + 0.5, mesh.faces)
        with pytest.raises(InvalidInputError, match="normalis"):
            sample_queries(shifted, QueryCounts(), seed=0)

    def test_cloud_variant_draws_surface_from_cloud(self) -> None:
        rng = np.random.default_rng(5)
        points = 0.3 + 0.4 * rng.random((500, 3))
        normals = rng.normal(size=(500, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(points, normals)
        counts = QueryCounts(volume=50, bbox=50, surface=200)
        queries, surface = sample_queries_from_cloud(cloud, counts, seed=6)
        surf = queries.positions[queries.tiers == int(Tier.SURFACE)]
        np.testing.assert_array_equal(surf, surface.points)
        # Every surface draw is one of the input points.
        dists = np.min(
            np.linalg.norm(surf[:, None, :] - points[None, :, :], axis=2), axis=1
        )
        assert dists.max() == 0.0

    @pytest.mark.parametrize("expand", [1.0, 1.3, 2.5])
    def test_bbox_tier_lies_inside_the_repair_grid(self, expand: float) -> None:
        # Repair's grid spans the shell the bbox tier was drawn from; at
        # 2.5 the shell is clipped to the unit cube on x.
        base = sphere_cloud(500)
        cloud = PointCloud(base.points * [0.2, 0.35, 0.1] + [0.3, 0.5, 0.6], base.normals)
        counts = QueryCounts(volume=0, bbox=4000, surface=10, bbox_expand=expand)
        queries, _ = sample_queries_from_cloud(cloud, counts, seed=3)
        bbox = queries.positions[queries.tiers == int(Tier.BBOX)]
        grid = GridSpec.for_cloud(cloud.points, expand=expand)
        assert (bbox >= grid.lower).all() and (bbox <= grid.upper).all()
        np.testing.assert_allclose(bbox.min(axis=0), grid.lower, atol=0.01)
        np.testing.assert_allclose(bbox.max(axis=0), grid.upper, atol=0.01)

    def test_cloud_variant_requires_normals(self) -> None:
        cloud = PointCloud(np.random.default_rng(0).random((50, 3)))
        with pytest.raises(InvalidInputError, match="normals"):
            sample_queries_from_cloud(cloud, QueryCounts(), seed=0)


class TestLabelQueries:
    def test_surface_tier_labels_to_exact_zero(self) -> None:
        counts = QueryCounts(volume=200, bbox=200, surface=150)
        queries, surface = sample_queries(small_normalized_cube(), counts, seed=21)
        labelled = label_queries(queries, surface)
        assert labelled.is_labelled
        surf_sdf = labelled.sdf[labelled.tiers == int(Tier.SURFACE)]
        assert np.all(surf_sdf == 0.0)

    def test_construction_rejects_offset_surface_labels(self) -> None:
        counts = QueryCounts(volume=10, bbox=10, surface=50)
        queries, _ = sample_queries(small_normalized_cube(), counts, seed=22)
        # Labelling against a cloud that misses the surface samples breaks
        # the surface-tier zero-distance invariant.
        stranger = sphere_cloud(500, radius=0.2, center=(0.5, 0.5, 0.5))
        with pytest.raises(InvalidInputError, match="surface-tier"):
            label_queries(queries, stranger)

    def test_off_surface_tiers_get_signed_values(self) -> None:
        counts = QueryCounts(volume=300, bbox=300, surface=100)
        queries, surface = sample_queries(small_normalized_cube(), counts, seed=23)
        labelled = label_queries(queries, surface)
        outer = labelled.sdf[labelled.tiers == int(Tier.VOLUME)]
        # The cube occupies ~2.7% of the unit volume, so most volume-tier
        # queries sit outside it with positive distance.
        assert np.mean(outer > 0.0) > 0.8


class TestQuerySetValidation:
    def test_rejects_mismatched_lengths(self) -> None:
        with pytest.raises(InvalidInputError):
            QuerySet(np.zeros((3, 3)), np.zeros(2, dtype=np.uint8))
        with pytest.raises(InvalidInputError):
            QuerySet(np.zeros((3, 3)), np.zeros(3, dtype=np.uint8), np.zeros(2))

    def test_rejects_unknown_tier(self) -> None:
        with pytest.raises(InvalidInputError, match="tier"):
            QuerySet(np.zeros((1, 3)), np.array([7], dtype=np.uint8))

    def test_rejects_non_finite_sdf(self) -> None:
        with pytest.raises(InvalidInputError):
            QuerySet(np.zeros((1, 3)), np.zeros(1, dtype=np.uint8), np.array([np.nan]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_positions(self, value: float) -> None:
        with pytest.raises(InvalidInputError, match="positions contains non-finite values"):
            QuerySet(np.array([[0.5, value, 0.5]]), np.zeros(1, dtype=np.uint8))


class TestSampleStream:
    def make_labelled(self, n: int = 64) -> QuerySet:
        rng = np.random.default_rng(31)
        positions = rng.random((n, 3))
        sdf = rng.normal(size=n)
        tiers = rng.integers(0, 2, size=n, endpoint=False).astype(np.uint8)
        return QuerySet(positions, tiers, sdf)

    def test_round_trip_is_exact(self, tmp_path) -> None:
        queries = self.make_labelled()
        meta = {"seed": 123, "normalization": {"scale": 2.0, "offset": [0.0, 0.1, 0.2]}}
        path = tmp_path / "samples.bin"
        write_samples(path, queries, meta)
        loaded, loaded_meta = read_samples(path)
        np.testing.assert_array_equal(loaded.positions, queries.positions)
        np.testing.assert_array_equal(loaded.sdf, queries.sdf)
        np.testing.assert_array_equal(loaded.tiers, queries.tiers)
        assert loaded_meta["seed"] == 123
        assert loaded_meta["normalization"]["scale"] == 2.0
        assert loaded_meta["counts"]["volume"] + loaded_meta["counts"]["bbox"] == 64

    def test_record_layout_is_packed_little_endian(self, tmp_path) -> None:
        queries = self.make_labelled(n=3)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {})
        raw = path.read_bytes()
        assert len(raw) == 3 * 33
        x, y, z, sdf, tier = struct.unpack_from("<ddddB", raw, offset=33)
        assert (x, y, z) == tuple(queries.positions[1])
        assert sdf == queries.sdf[1]
        assert tier == queries.tiers[1]

    def test_sidecar_is_stable_json(self, tmp_path) -> None:
        queries = self.make_labelled(n=5)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {"seed": 1})
        text = (tmp_path / "samples.json").read_text()
        parsed = json.loads(text)
        assert parsed["total"] == 5
        write_samples(path, queries, {"seed": 1})
        assert (tmp_path / "samples.json").read_text() == text

    def test_rejects_unlabelled_write(self, tmp_path) -> None:
        queries = QuerySet(np.zeros((2, 3)), np.zeros(2, dtype=np.uint8))
        with pytest.raises(InvalidInputError, match="unlabelled"):
            write_samples(tmp_path / "samples.bin", queries, {})

    def test_rejects_truncated_stream(self, tmp_path) -> None:
        queries = self.make_labelled(n=4)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {})
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(InvalidInputError, match="record"):
            read_samples(path)

    def test_rejects_non_finite_position_naming_the_file(self, tmp_path) -> None:
        queries = self.make_labelled(n=4)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {})
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 33 + 16, float("nan"))  # second record's z
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInputError) as raised:
            read_samples(path)
        assert str(raised.value) == f"{path}: positions contains non-finite values"

    def test_rejects_missing_sidecar(self, tmp_path) -> None:
        queries = self.make_labelled(n=4)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {})
        (tmp_path / "samples.json").unlink()
        with pytest.raises(InvalidInputError, match="sidecar"):
            read_samples(path)

    def test_rejects_total_mismatch(self, tmp_path) -> None:
        queries = self.make_labelled(n=4)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {})
        sidecar = json.loads((tmp_path / "samples.json").read_text())
        sidecar["total"] = 99
        (tmp_path / "samples.json").write_text(json.dumps(sidecar))
        with pytest.raises(InvalidInputError, match="total") as raised:
            read_samples(path)
        assert str(raised.value) == (
            f"{tmp_path / 'samples.json'}: total: 99 does not match the 4 records of {path}"
        )

    @pytest.mark.parametrize("total", [4.0, "4", True, None], ids=["float", "string", "bool", "null"])
    def test_total_must_be_an_integer(self, tmp_path, total) -> None:
        # Only a JSON integer counts records: 4.0 and "4" name the right
        # count in the wrong type, and true would pass an int comparison.
        queries = self.make_labelled(n=4)
        path = tmp_path / "samples.bin"
        write_samples(path, queries, {})
        sidecar = json.loads((tmp_path / "samples.json").read_text())
        sidecar["total"] = total
        (tmp_path / "samples.json").write_text(json.dumps(sidecar))
        with pytest.raises(InvalidInputError) as raised:
            read_samples(path)
        assert str(raised.value) == (
            f"{tmp_path / 'samples.json'}: total: expected an integer, got {total!r}"
        )


def balanced_tree_label(positions: np.ndarray, cloud: PointCloud) -> np.ndarray:
    """``label_sdf`` on scipy's default tree: balanced, compacted, 16-point
    leaves."""
    dists, nearest = cKDTree(cloud.points).query(positions, k=1)
    dots = np.einsum("ij,ij->i", positions - cloud.points[nearest], cloud.normals[nearest])
    return dists * np.where(dots < 0.0, -1.0, 1.0)


class _Labelled(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 2705])
def test_bench_shape_labels_match_the_balanced_tree(monkeypatch, seed: int) -> None:
    """The labels ``run_shape`` trains on, for every bench shape, are the
    ones the default balanced tree gives, bit for bit."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "bench.json")
    config = replace(config, seed=seed)
    captured = []

    def label_then_stop(queries, cloud):
        captured.append((queries, cloud, label_queries(queries, cloud)))
        raise _Labelled

    monkeypatch.setattr(bench_module, "label_queries", label_then_stop)
    for kind in config.bench.shapes:
        with pytest.raises(_Labelled):
            bench_module.run_shape(kind, config)
    assert len(captured) == 4
    for queries, cloud, labelled in captured:
        expected = balanced_tree_label(queries.positions, cloud)
        assert labelled.sdf.tobytes() == expected.tobytes()
