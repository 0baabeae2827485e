"""Tests for the generator meshes."""
from __future__ import annotations

import numpy as np
import pytest

from oracles import check_watertight, signed_volume
from pasdf.mesh import sample_surface
from pasdf.shapes import blob, box, capsule, sphere, torus

# The lambdas keep the parametrized test ids stable.
ALL_SHAPES = [
    ("sphere", lambda: sphere()),
    ("blob", lambda: blob()),
    ("box", lambda: box()),
    ("torus", lambda: torus()),
    ("capsule", lambda: capsule()),
]


class TestAllShapes:
    @pytest.mark.parametrize("name,factory", ALL_SHAPES)
    def test_watertight(self, name: str, factory) -> None:
        mesh = factory()
        watertight, open_edges = check_watertight(mesh)
        assert watertight, f"{name}: {open_edges} open edges"

    @pytest.mark.parametrize("name,factory", ALL_SHAPES)
    def test_outward_winding(self, name: str, factory) -> None:
        assert signed_volume(factory()) > 0.0, name

    @pytest.mark.parametrize(
        "name,factory", [(n, f) for n, f in ALL_SHAPES if n != "torus"]
    )
    def test_sampled_normals_point_outward(self, name: str, factory) -> None:
        # Every non-torus generator is star-shaped about its centroid,
        # so outward means positive dot with the radial direction.
        mesh = factory()
        cloud = sample_surface(mesh, 500, seed=1)
        centroid = mesh.vertices.mean(axis=0)
        outward = np.einsum("ij,ij->i", cloud.normals, cloud.points - centroid)
        assert (outward > 0).all(), name

    def test_torus_normals_point_away_from_spine(self) -> None:
        cloud = sample_surface(torus(), 500, seed=1)
        xy = cloud.points[:, :2]
        spine = np.zeros_like(cloud.points)
        spine[:, :2] = 0.35 * xy / np.linalg.norm(xy, axis=1)[:, None]
        outward = np.einsum("ij,ij->i", cloud.normals, cloud.points - spine)
        assert (outward > 0).all()


class TestSphere:
    def test_volume_approaches_analytic(self) -> None:
        # An inscribed polyhedron: a little under the ball's volume.
        exact = 4.0 / 3.0 * np.pi * 0.5**3
        assert 0.99 * exact < signed_volume(sphere()) < exact

    def test_vertices_on_sphere(self) -> None:
        radii = np.linalg.norm(sphere().vertices, axis=1)
        np.testing.assert_allclose(radii, 0.5, atol=1e-12)


class TestBlob:
    def test_no_rotational_symmetry(self) -> None:
        # A quarter turn about z maps the surface nowhere near itself,
        # unlike every other generator here.
        mesh = blob()
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        turned = mesh.vertices @ rot.T
        from pasdf.geometry import PointCloud, chamfer_loss

        residual = chamfer_loss(PointCloud(turned), PointCloud(mesh.vertices))
        assert residual > 1e-3

    def test_deterministic(self) -> None:
        first, second = blob(), blob()
        np.testing.assert_array_equal(first.vertices, second.vertices)


class TestBox:
    def test_exact_volume(self) -> None:
        assert signed_volume(box()) == pytest.approx(0.24)

    def test_extents(self) -> None:
        mesh = box()
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        np.testing.assert_allclose(hi - lo, [1.0, 0.6, 0.4])
        np.testing.assert_allclose((hi + lo) / 2, [0.0, 0.0, 0.0])


class TestTorus:
    def test_volume_near_analytic(self) -> None:
        # The inscribed 48 x 24 tessellation loses about 1.4%.
        exact = 2.0 * np.pi**2 * 0.35 * 0.12**2
        assert 0.98 * exact < signed_volume(torus()) < exact

    def test_tube_radius(self) -> None:
        mesh = torus()
        # Distance from each vertex to the spine circle equals the
        # minor radius.
        xy = np.linalg.norm(mesh.vertices[:, :2], axis=1)
        tube = np.sqrt((xy - 0.35) ** 2 + mesh.vertices[:, 2] ** 2)
        np.testing.assert_allclose(tube, 0.12, atol=1e-12)


class TestCapsule:
    def test_volume_near_analytic(self) -> None:
        # The inscribed 24-segment, 6-ring tessellation loses about 1.7%.
        exact = np.pi * 0.2**2 * 0.5 + 4.0 / 3.0 * np.pi * 0.2**3
        assert 0.98 * exact < signed_volume(capsule()) < exact

    def test_extent_along_axis(self) -> None:
        mesh = capsule()
        assert mesh.vertices[:, 2].max() == pytest.approx(0.45)
        assert mesh.vertices[:, 2].min() == pytest.approx(-0.45)
        xy = np.linalg.norm(mesh.vertices[:, :2], axis=1)
        assert xy.max() == pytest.approx(0.2)
