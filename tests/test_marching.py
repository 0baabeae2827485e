"""Tests for isosurface extraction and the evaluation grid."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from field_oracle import dense_field, grouped_marching_cubes, vertex_positions
from oracles import check_watertight, signed_volume
from pasdf import marching
from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.marching import (
    CASE_TRIANGLES,
    GridSpec,
    evaluate_field,
    marching_cubes,
)


def sample_grid(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ax, ay, az = grid.axes()
    return np.meshgrid(ax, ay, az, indexing="ij")


def sphere_field(grid: GridSpec, center: np.ndarray, radius: float) -> np.ndarray:
    gx, gy, gz = sample_grid(grid)
    return (
        np.sqrt((gx - center[0]) ** 2 + (gy - center[1]) ** 2 + (gz - center[2]) ** 2)
        - radius
    )


class TestGridSpec:
    def test_axes_span_bounds(self) -> None:
        grid = GridSpec(16, (0.1, 0.2, 0.3), (0.9, 0.8, 0.7))
        ax, ay, az = grid.axes()
        assert len(ax) == 16
        assert ax[0] == pytest.approx(0.1) and ax[-1] == pytest.approx(0.9)
        assert ay[0] == pytest.approx(0.2) and ay[-1] == pytest.approx(0.8)
        assert az[0] == pytest.approx(0.3) and az[-1] == pytest.approx(0.7)

    def test_spacing(self) -> None:
        grid = GridSpec(11, (0.0, 0.0, 0.0), (1.0, 0.5, 2.0))
        np.testing.assert_allclose(grid.spacing(), [0.1, 0.05, 0.2])

    def test_vertex_positions_index_order(self) -> None:
        grid = GridSpec(8)
        positions = vertex_positions(grid)
        assert positions.shape == (512, 3)
        ax = grid.axes()[0]
        # Row-major (i, j, k): the k axis varies fastest.
        np.testing.assert_allclose(positions[1], [ax[0], ax[0], ax[1]])
        np.testing.assert_allclose(positions[8], [ax[0], ax[1], ax[0]])
        np.testing.assert_allclose(positions[64], [ax[1], ax[0], ax[0]])

    def test_rejects_small_resolution(self) -> None:
        with pytest.raises(InvalidParameterError):
            GridSpec(7)

    def test_rejects_degenerate_bounds(self) -> None:
        with pytest.raises(InvalidParameterError):
            GridSpec(16, (0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            GridSpec(16, (0.2, 0.0, 0.0), (0.1, 1.0, 1.0))

    def test_rejects_non_finite_bounds(self) -> None:
        with pytest.raises(InvalidParameterError):
            GridSpec(16, (0.0, 0.0, np.nan), (1.0, 1.0, 1.0))

    def test_for_cloud_expands_and_clips(self) -> None:
        points = np.array([[0.4, 0.4, 0.4], [0.6, 0.6, 0.9]])
        grid = GridSpec.for_cloud(points, resolution=16, expand=1.3)
        lower = np.asarray(grid.lower)
        upper = np.asarray(grid.upper)
        # Expanded about the bbox center by 1.3.
        np.testing.assert_allclose(lower[:2], 0.5 - 0.1 * 1.3)
        np.testing.assert_allclose(upper[:2], 0.5 + 0.1 * 1.3)
        np.testing.assert_allclose(lower[2], 0.65 - 0.25 * 1.3)
        np.testing.assert_allclose(upper[2], 0.65 + 0.25 * 1.3)
        # A cloud reaching the cube edge clips to the unit cube.
        clipped = GridSpec.for_cloud(
            np.array([[0.05, 0.5, 0.5], [0.99, 0.5, 0.5]]), resolution=16
        )
        assert clipped.lower[0] == 0.0
        assert clipped.upper[0] == 1.0

    def test_for_cloud_rejects_a_cloud_beyond_the_unit_cube(self) -> None:
        points = np.array([[10.25, 0.4, 0.4], [10.75, 0.6, 0.6]])
        with pytest.raises(InvalidInputError, match=r"\[10\.25, 0\.4, 0\.4\] to \[10\.75"):
            GridSpec.for_cloud(points, resolution=16)

    def test_for_cloud_covers_cloud(self) -> None:
        rng = np.random.default_rng(3)
        points = rng.uniform(0.2, 0.8, (50, 3))
        grid = GridSpec.for_cloud(points, resolution=16)
        assert (points >= np.asarray(grid.lower)).all()
        assert (points <= np.asarray(grid.upper)).all()


class TestCaseTable:
    def test_trivial_cases_empty(self) -> None:
        assert CASE_TRIANGLES[0] == []
        assert CASE_TRIANGLES[255] == []
        assert all(CASE_TRIANGLES[case] for case in range(1, 255))

    def test_single_corner_is_one_triangle(self) -> None:
        # One inside corner clips one cube corner: a single triangle on
        # the three edges meeting there.
        for corner in range(8):
            triangles = CASE_TRIANGLES[1 << corner]
            assert len(triangles) == 1

    def test_triangle_count_bounded(self) -> None:
        assert max(len(t) for t in CASE_TRIANGLES) == 5

    def test_referenced_edges_are_crossed(self) -> None:
        # Every edge a case references must separate an inside corner
        # from an outside one, or interpolation would divide by zero.
        from pasdf.marching import _EDGES

        for case in range(256):
            inside = [(case >> c) & 1 == 1 for c in range(8)]
            for triangle in CASE_TRIANGLES[case]:
                for edge in triangle:
                    a, b = _EDGES[edge]
                    assert inside[a] != inside[b]


class TestMarchingCubes:
    def test_axis_plane_is_exact(self) -> None:
        grid = GridSpec(32)
        gx = sample_grid(grid)[0]
        mesh = marching_cubes(gx - 0.437, grid)
        assert len(mesh.faces) > 0
        np.testing.assert_allclose(mesh.vertices[:, 0], 0.437, atol=1e-9)
        # Normals follow increasing field values.
        np.testing.assert_allclose(mesh.face_normals[:, 0], 1.0, atol=1e-9)

    def test_tilted_plane_is_exact(self) -> None:
        grid = GridSpec(24)
        normal = np.array([1.0, 2.0, -0.5])
        normal /= np.linalg.norm(normal)
        gx, gy, gz = sample_grid(grid)
        field = (gx - 0.5) * normal[0] + (gy - 0.5) * normal[1] + (gz - 0.5) * normal[2]
        mesh = marching_cubes(field - 0.07, grid)
        residual = (mesh.vertices - 0.5) @ normal - 0.07
        # Linear fields are reproduced exactly by linear interpolation.
        assert np.abs(residual).max() < 1e-9
        assert (mesh.face_normals @ normal).min() > 1.0 - 1e-9

    def test_sphere_watertight_and_oriented(self) -> None:
        grid = GridSpec(64)
        center = np.array([0.5, 0.5, 0.5])
        mesh = marching_cubes(sphere_field(grid, center, 0.3), grid)
        watertight, open_edges = check_watertight(mesh)
        assert watertight, f"{open_edges} open edges"
        face_centers = mesh.vertices[mesh.faces].mean(axis=1)
        outward = np.einsum(
            "ij,ij->i", mesh.face_normals, face_centers - center
        )
        assert (outward > 0).all()

    def test_sphere_volume(self) -> None:
        grid = GridSpec(64)
        mesh = marching_cubes(sphere_field(grid, np.full(3, 0.5), 0.3), grid)
        exact = 4.0 / 3.0 * np.pi * 0.3**3
        assert signed_volume(mesh) == pytest.approx(exact, rel=5e-3)

    def test_sphere_radial_error_small(self) -> None:
        grid = GridSpec(64)
        center = np.full(3, 0.5)
        mesh = marching_cubes(sphere_field(grid, center, 0.3), grid)
        radial = np.linalg.norm(mesh.vertices - center, axis=1) - 0.3
        spacing = grid.spacing().max()
        # Linear interpolation of a smooth field: error well under a cell.
        assert np.abs(radial).max() < 0.25 * spacing

    def test_convergence_with_resolution(self) -> None:
        center = np.full(3, 0.5)
        errors = []
        for resolution in (16, 32, 64):
            grid = GridSpec(resolution)
            mesh = marching_cubes(sphere_field(grid, center, 0.3), grid)
            radial = np.linalg.norm(mesh.vertices - center, axis=1) - 0.3
            errors.append(np.sqrt((radial**2).mean()))
        assert errors[0] > errors[1] > errors[2]
        # Roughly second order: each doubling should cut the error by
        # closer to 4x than 2x.
        assert errors[0] / errors[2] > 8.0

    def test_nonzero_iso_level(self) -> None:
        grid = GridSpec(48)
        center = np.full(3, 0.5)
        mesh = marching_cubes(sphere_field(grid, center, 0.2) - 0.1, grid)
        radial = np.linalg.norm(mesh.vertices - center, axis=1)
        np.testing.assert_allclose(radial, 0.3, atol=2e-3)

    def test_uniform_field_gives_empty_mesh(self) -> None:
        grid = GridSpec(8)
        for value in (-1.0, 1.0):
            mesh = marching_cubes(np.full((8, 8, 8), value), grid)
            assert len(mesh.vertices) == 0
            assert len(mesh.faces) == 0

    def test_crossing_exactly_on_node(self) -> None:
        # A plane sitting exactly on a lattice layer: vertices land on
        # the nodes, and triangles between them may have zero area.
        grid = GridSpec(17)
        gx = sample_grid(grid)[0]
        x0 = grid.axes()[0][8]
        mesh = marching_cubes(gx - x0, grid)
        assert len(mesh.faces) > 0
        np.testing.assert_allclose(mesh.vertices[:, 0], x0, atol=0.0)

    def test_vertices_inside_bounds(self) -> None:
        grid = GridSpec(16, (0.2, 0.1, 0.0), (0.8, 0.9, 1.0))
        gx, gy, gz = sample_grid(grid)
        field = (gx - 0.5) ** 2 + (gy - 0.5) ** 2 + (gz - 0.5) ** 2 - 0.04
        mesh = marching_cubes(field, grid)
        assert (mesh.vertices >= np.asarray(grid.lower) - 1e-12).all()
        assert (mesh.vertices <= np.asarray(grid.upper) + 1e-12).all()

    def test_vertex_field_values_near_iso(self) -> None:
        # Extracted vertices should sit where the trilinear field is
        # near the level: |f| at a vertex is bounded by the local field
        # variation across one cell.
        grid = GridSpec(32)
        center = np.full(3, 0.5)
        mesh = marching_cubes(sphere_field(grid, center, 0.3), grid)
        f = np.linalg.norm(mesh.vertices - center, axis=1) - 0.3
        assert np.abs(f).max() < 2.0 * grid.spacing().max()

    def test_deterministic(self) -> None:
        grid = GridSpec(32)
        rng = np.random.default_rng(11)
        field = sphere_field(grid, np.full(3, 0.5), 0.3)
        field += 0.01 * rng.standard_normal(field.shape)
        first = marching_cubes(field, grid)
        second = marching_cubes(field, grid)
        assert np.array_equal(first.vertices, second.vertices)
        assert np.array_equal(first.faces, second.faces)

    def test_blob_field_watertight(self) -> None:
        # Overlapping gaussian blobs exercise many case pairs, including
        # the ambiguous-face ones; watertightness of the closed surface
        # proves neighbouring cells agree on every shared face.
        rng = np.random.default_rng(5)
        grid = GridSpec(12)
        gx, gy, gz = sample_grid(grid)
        bumps = np.zeros((12, 12, 12))
        for _ in range(4):
            center = rng.uniform(0.25, 0.75, 3)
            bumps += np.exp(
                -(
                    (gx - center[0]) ** 2
                    + (gy - center[1]) ** 2
                    + (gz - center[2]) ** 2
                )
                / 0.02
            )
        # Negated so the blobs are the inside; the level is never
        # reached on the grid boundary, so the surface is closed.
        assert bumps[0].max() < 0.5 and bumps[-1].max() < 0.5
        mesh = marching_cubes(0.5 - bumps, grid)
        watertight, open_edges = check_watertight(mesh)
        assert len(mesh.faces) > 0
        assert watertight, f"{open_edges} open edges"

    @pytest.mark.parametrize("seed", range(3))
    def test_noise_field_watertight(self, seed: int) -> None:
        # White noise makes many faces with four crossings.  Fans that
        # ran a diagonal across such a face's inside band from both
        # neighbouring cells would meet in an edge of four faces.
        field = np.random.default_rng(100 + seed).standard_normal((12, 12, 12))
        mesh = marching_cubes(field, GridSpec(12), close_boundary=True)
        watertight, bad_edges = check_watertight(mesh)
        assert watertight, f"{bad_edges} edges not on exactly two faces"

    def test_fan_diagonals_stay_off_cube_faces(self) -> None:
        # A triangle edge in a cube face is an isoline segment there, so
        # two neighbouring cells never share one that they both fan over.
        faces = [
            {marching._EDGE_OF_PAIR[frozenset((loop[p], loop[(p + 1) % 4]))] for p in range(4)}
            for loop in marching._FACE_LOOPS
        ]
        for case, triangles in enumerate(CASE_TRIANGLES):
            used: dict[frozenset, int] = {}
            for triangle in triangles:
                for a, b in zip(triangle, triangle[1:] + triangle[:1]):
                    used[frozenset((a, b))] = used.get(frozenset((a, b)), 0) + 1
            diagonals = [pair for pair, count in used.items() if count == 2]
            assert not any(pair <= face for pair in diagonals for face in faces), case

    def test_rejects_wrong_shape(self) -> None:
        grid = GridSpec(16)
        with pytest.raises(InvalidInputError, match="shape"):
            marching_cubes(np.zeros((8, 8, 8)), grid)

    def test_rejects_non_finite_field_naming_vertex(self) -> None:
        grid = GridSpec(8)
        field = np.ones((8, 8, 8))
        field[2, 5, 7] = np.nan
        with pytest.raises(InvalidInputError, match=r"\(2, 5, 7\)"):
            marching_cubes(field, grid)

    @given(
        st.floats(0.12, 0.35),
        st.tuples(
            st.floats(0.4, 0.6), st.floats(0.4, 0.6), st.floats(0.4, 0.6)
        ),
    )
    def test_random_spheres_watertight(
        self, radius: float, center: tuple[float, float, float]
    ) -> None:
        grid = GridSpec(24)
        mesh = marching_cubes(sphere_field(grid, np.asarray(center), radius), grid)
        watertight, open_edges = check_watertight(mesh)
        assert len(mesh.faces) > 0
        assert watertight, f"{open_edges} open edges"


class TestCloseBoundary:
    def test_halfspace_gets_capped(self) -> None:
        grid = GridSpec(16)
        gx, _, _ = sample_grid(grid)
        field = gx - 0.35

        open_mesh = marching_cubes(field, grid)
        assert not check_watertight(open_mesh)[0]

        closed = marching_cubes(field, grid, close_boundary=True)
        watertight, open_edges = check_watertight(closed)
        assert watertight, f"{open_edges} open edges"
        # The enclosed region is the slab x < 0.35 of the unit cube.
        assert signed_volume(closed) == pytest.approx(0.35, abs=1e-9)

    def test_cap_vertices_sit_on_grid_bounds(self) -> None:
        grid = GridSpec(16)
        gx, _, _ = sample_grid(grid)
        closed = marching_cubes(gx - 0.35, grid, close_boundary=True)
        lo, hi = closed.bounds()
        np.testing.assert_allclose(lo, [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(hi, [0.35, 1.0, 1.0], atol=1e-9)

    def test_interior_surface_unchanged(self) -> None:
        grid = GridSpec(24)
        field = sphere_field(grid, np.array([0.5, 0.5, 0.5]), 0.3)
        plain = marching_cubes(field, grid)
        closed = marching_cubes(field, grid, close_boundary=True)
        np.testing.assert_array_equal(plain.vertices, closed.vertices)
        np.testing.assert_array_equal(plain.faces, closed.faces)

    def test_half_ball_capped_volume(self) -> None:
        grid = GridSpec(48)
        field = sphere_field(grid, np.array([0.5, 0.5, 0.0]), 0.3)
        closed = marching_cubes(field, grid, close_boundary=True)
        assert check_watertight(closed)[0]
        half_ball = 0.5 * (4.0 / 3.0) * np.pi * 0.3**3
        assert signed_volume(closed) == pytest.approx(half_ball, rel=5e-3)

    def test_uniform_sign_still_empty(self) -> None:
        grid = GridSpec(8)
        for value in (1.0, -1.0):
            mesh = marching_cubes(
                np.full((8, 8, 8), value), grid, close_boundary=True
            )
            assert mesh.is_empty


class TestWeldOrder:
    """Vertex numbering and face order equal the case-by-case weld's.

    Faces come in (case, cell, triangle) order and vertices in grid-edge
    key order; both decide which points ``sample_surface`` draws.
    """

    @pytest.mark.parametrize("close_boundary", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_signs_with_exact_zeros(self, seed: int, close_boundary: bool) -> None:
        rng = np.random.default_rng(seed)
        r = int(rng.integers(8, 20))
        # Whole-number levels put exact zeros on many nodes, so many
        # faces have zero area; they stay, and a closed mesh stays closed.
        field = rng.integers(-2, 3, size=(r, r, r)) * rng.random((r, r, r))
        grid = GridSpec(r, (0.1, 0.2, 0.0), (0.9, 0.7, 1.0))
        mesh = marching_cubes(field, grid, close_boundary=close_boundary)
        assert len(mesh.faces) > 0
        assert_same_mesh(mesh, grouped_marching_cubes(field, grid, close_boundary))
        if close_boundary:
            assert check_watertight(mesh) == (True, 0)

    @pytest.mark.parametrize("close_boundary", [False, True])
    def test_noisy_sphere(self, close_boundary: bool) -> None:
        grid = GridSpec(24)
        field = sphere_field(grid, np.array([0.5, 0.4, 0.6]), 0.45)
        field += 0.02 * np.random.default_rng(7).standard_normal(field.shape)
        assert_same_mesh(
            marching_cubes(field, grid, close_boundary=close_boundary),
            grouped_marching_cubes(field, grid, close_boundary),
        )

    @pytest.mark.parametrize("close_boundary", [False, True])
    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
    def test_uniform_field(self, value: float, close_boundary: bool) -> None:
        grid = GridSpec(9)
        field = np.full((9, 9, 9), value)
        mesh = marching_cubes(field, grid, close_boundary=close_boundary)
        assert mesh.is_empty
        assert_same_mesh(mesh, grouped_marching_cubes(field, grid, close_boundary))


def evaluate_recording_samples(monkeypatch, model, encoding, grid, **kwargs):
    """``evaluate_field`` plus the mask of vertices it ran the model on."""
    masks = []
    refine = marching._refine_field

    def spy(*args, **kw):
        values, sampled = refine(*args, **kw)
        masks.append(sampled)
        return values, sampled

    monkeypatch.setattr(marching, "_refine_field", spy)
    field = evaluate_field(model, encoding, grid, **kwargs)
    (sampled,) = masks
    return field, sampled


def assert_same_mesh(a, b) -> None:
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.faces, b.faces)


class TestEvaluateField:
    def test_matches_direct_forward(self, sphere_world, monkeypatch) -> None:
        grid = GridSpec(32, (0.1, 0.1, 0.1), (0.9, 0.9, 0.9))
        field, sampled = evaluate_recording_samples(
            monkeypatch, sphere_world.model, sphere_world.encoding, grid, chunk_size=100
        )
        dense = dense_field(sphere_world.model, sphere_world.encoding, grid)
        # Only the band around the sphere is evaluated, and exactly.
        assert 0 < sampled.sum() < 0.6 * grid.resolution**3
        np.testing.assert_array_equal(field[sampled], dense[sampled])
        np.testing.assert_array_equal(field < 0.0, dense < 0.0)
        for close in (False, True):
            assert_same_mesh(
                marching_cubes(field, grid, close_boundary=close),
                marching_cubes(dense, grid, close_boundary=close),
            )

    @pytest.mark.parametrize("chunk_size", [100, 77, 4096])
    def test_non_cubic_grid_equals_encoded_vertices(
        self, sphere_world, monkeypatch, chunk_size
    ) -> None:
        # Every axis spans a different interval, so gathering an encoded
        # column from the wrong axis changes the field.
        grid = GridSpec(17, (0.1, 0.3, 0.2), (0.9, 0.6, 0.8))
        model = sphere_world.model
        field, sampled = evaluate_recording_samples(
            monkeypatch, model, sphere_world.encoding, grid, chunk_size=chunk_size
        )
        dense = dense_field(model, sphere_world.encoding, grid)
        assert sampled.any()
        np.testing.assert_array_equal(field[sampled], dense[sampled])
        np.testing.assert_array_equal(field < 0.0, dense < 0.0)
        assert_same_mesh(
            marching_cubes(field, grid, close_boundary=True),
            marching_cubes(dense, grid, close_boundary=True),
        )

    def test_extracts_learned_sphere(self, sphere_world) -> None:
        grid = GridSpec(32, (0.1, 0.1, 0.1), (0.9, 0.9, 0.9))
        field = evaluate_field(sphere_world.model, sphere_world.encoding, grid)
        mesh = marching_cubes(field, grid)
        assert len(mesh.faces) > 0
        watertight, open_edges = check_watertight(mesh)
        assert watertight, f"{open_edges} open edges"
        center = sphere_world.record.normalize(sphere_world.center[None])[0]
        radial = np.linalg.norm(mesh.vertices - center, axis=1)
        # The quickly fit fixture wobbles; the level set still has to be
        # a closed surface hugging the training sphere.
        assert np.abs(radial - 0.3).mean() < 0.03
        assert np.abs(radial - 0.3).max() < 0.08
        exact = 4.0 / 3.0 * np.pi * 0.3**3
        assert signed_volume(mesh) == pytest.approx(exact, rel=0.2)

    def test_rejects_bad_chunk_size(self, sphere_world) -> None:
        grid = GridSpec(8)
        with pytest.raises(InvalidParameterError):
            evaluate_field(sphere_world.model, sphere_world.encoding, grid, chunk_size=0)


def refine_analytic(field, grid: GridSpec, chunk_size: int = 65536):
    """Sign-refined and dense samples of ``field(x, y, z)`` on the grid,
    plus the mask of vertices the refinement sampled."""
    ax, ay, az = grid.axes()
    values, sampled = marching._refine_field(
        lambda i, j, k: field(ax[i], ay[j], az[k]), grid.resolution, chunk_size
    )
    return values, sampled, field(*sample_grid(grid))


def assert_refined_like_dense(field, grid: GridSpec, close_boundary: bool) -> None:
    values, sampled, dense = refine_analytic(field, grid)
    np.testing.assert_array_equal(values[sampled], dense[sampled])
    np.testing.assert_array_equal(values < 0.0, dense < 0.0)
    assert_same_mesh(
        marching_cubes(values, grid, close_boundary=close_boundary),
        marching_cubes(dense, grid, close_boundary=close_boundary),
    )


def ball(center, radius: float):
    cx, cy, cz = center
    return lambda x, y, z: np.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) - radius


def block_edge(grid: GridSpec) -> float:
    """Longest edge of a refinement block."""
    return float(4 * grid.spacing().max())


unit = st.floats(0.0, 1.0)
boxes = st.builds(
    lambda r, lo, ext: GridSpec(r, lo, tuple(a + b for a, b in zip(lo, ext))),
    st.integers(12, 40),
    st.tuples(*[st.floats(0.0, 0.3)] * 3),
    st.tuples(*[st.floats(0.3, 0.9)] * 3),
)


def point_in(grid: GridSpec, fractions) -> tuple[float, float, float]:
    lo, hi = np.asarray(grid.lower), np.asarray(grid.upper)
    return tuple(lo + np.asarray(fractions) * (hi - lo))


class TestRefineField:
    """The sign-refined field against the dense one on analytic fields.

    Every surface component here crosses at least one block's corners,
    so refinement must reproduce the dense mesh bit for bit.
    """

    @given(boxes, st.tuples(unit, unit, unit), unit, st.booleans())
    def test_sphere(self, grid, where, grow, close) -> None:
        radius = block_edge(grid) * (2.0 + 2.0 * grow)
        assert_refined_like_dense(ball(point_in(grid, where), radius), grid, close)

    @given(
        boxes,
        st.tuples(unit, unit, unit),
        st.tuples(unit, unit, unit),
        unit,
        unit,
        st.booleans(),
    )
    def test_two_sphere_union(self, grid, where_a, where_b, grow_a, grow_b, close) -> None:
        edge = block_edge(grid)
        a = ball(point_in(grid, where_a), edge * (2.0 + grow_a))
        b = ball(point_in(grid, where_b), edge * (2.0 + grow_b))
        assert_refined_like_dense(
            lambda x, y, z: np.minimum(a(x, y, z), b(x, y, z)), grid, close
        )

    @given(
        boxes,
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda n: np.linalg.norm(n) > 0.1
        ),
        st.tuples(*[st.floats(1 / 3, 2 / 3)] * 3),
        st.booleans(),
    )
    def test_tilted_plane(self, grid, normal, through, close) -> None:
        nx, ny, nz = np.asarray(normal) / np.linalg.norm(normal)
        px, py, pz = point_in(grid, through)
        assert_refined_like_dense(
            lambda x, y, z: (x - px) * nx + (y - py) * ny + (z - pz) * nz, grid, close
        )

    @given(
        st.integers(32, 48),
        st.floats(0.2, 0.3),
        st.floats(0.08, 0.1),
        st.floats(0.7, 1.3),
    )
    def test_torus_in_thin_slab(self, r, major, minor, slab) -> None:
        # Like the grid repair spans for a flat torus: wide in x and y,
        # thin in z.  A slab thinner than the tube cuts it, and the cut
        # faces only close when the caps are exact.
        half = 1.3 * (major + minor)
        grid = GridSpec(
            r, (0.5 - half, 0.5 - half, 0.5 - slab * minor), (0.5 + half, 0.5 + half, 0.5 + slab * minor)
        )

        def torus(x, y, z):
            ring = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2) - major
            return np.sqrt(ring**2 + (z - 0.5) ** 2) - minor

        assert_refined_like_dense(torus, grid, close_boundary=slab < 1.0)

    def test_level_set_touching_the_box_is_capped_exactly(self) -> None:
        grid = GridSpec(33, (0.0, 0.0, 0.0), (1.0, 1.0, 0.5))
        field = ball((0.5, 0.5, 0.45), 0.3)
        values, sampled, dense = refine_analytic(field, grid)
        closed = marching_cubes(values, grid, close_boundary=True)
        assert_same_mesh(closed, marching_cubes(dense, grid, close_boundary=True))
        assert check_watertight(closed)[0]
        # The cap on the top face came from sampled values, not a sign.
        assert sampled[:, :, -1][dense[:, :, -1] < 0.0].all()

    def test_samples_only_near_the_surface(self) -> None:
        grid = GridSpec(65)
        values, sampled, dense = refine_analytic(ball((0.5, 0.5, 0.5), 0.3), grid)
        assert sampled.sum() < 0.11 * 65**3
        assert sampled[::4, ::4, ::4].all()
        # Far from the surface only the block corners are sampled: at the
        # center and at the box corner.
        assert not sampled[33, 33, 33] and not sampled[1, 1, 1]

    def test_chunk_size_does_not_change_the_field(self) -> None:
        grid = GridSpec(24, (0.1, 0.2, 0.0), (0.9, 0.7, 1.0))
        field = ball((0.5, 0.45, 0.5), 0.2)
        reference, reference_sampled, _ = refine_analytic(field, grid)
        for chunk_size in (1, 77, 4096):
            values, sampled, _ = refine_analytic(field, grid, chunk_size)
            np.testing.assert_array_equal(values, reference)
            np.testing.assert_array_equal(sampled, reference_sampled)

    def test_bubble_inside_one_block_is_missed(self) -> None:
        """The known limit: a closed component smaller than one 4-cell
        block, touching no refined block, keeps its block's sign and is
        not extracted, though the dense field has it."""
        grid = GridSpec(33)  # blocks of 4 cells, 0.125 a side
        field = ball((0.5625, 0.5625, 0.5625), 0.05)
        values, sampled, dense = refine_analytic(field, grid)
        assert len(marching_cubes(dense, grid).faces) > 0
        assert (values > 0.0).all()
        assert marching_cubes(values, grid).is_empty
        assert sampled.sum() == 9**3

    def test_bubble_inside_a_refined_block_is_missed_below_half_a_block(self) -> None:
        """The limit inside refined blocks: a closed component smaller than
        one 2-cell block, lying on a 2-cell block face off its corners and
        touching no refined 2-cell block, keeps its block's sign too,
        though its 4-cell block is refined."""
        grid = GridSpec(33)  # 4-cell blocks 0.125 a side, 2-cell blocks 0.0625

        # The main surface cuts off only vertex (20, 20, 20), the far
        # corner of the 4-cell block [16, 20]^3, so that block refines.
        def main(x, y, z):
            return 1.865 - (x + y + z)

        # The bubble holds only vertex (17, 17, 16), the centre of the
        # face k = 16 of the 2-cell block [16, 18]^3, whose corners and
        # centre are all outside.
        bubble = ball((17 / 32, 17 / 32, 16 / 32), 0.02)
        values, sampled, dense = refine_analytic(
            lambda x, y, z: np.minimum(main(x, y, z), bubble(x, y, z)), grid
        )
        assert dense[17, 17, 16] < 0.0
        assert sampled[16:21:2, 16:21:2, 16:21:2].all() and sampled[17, 17, 17]
        assert not sampled[17, 17, 16] and values[17, 17, 16] > 0.0
        # The main surface is still extracted bit for bit.
        assert_same_mesh(
            marching_cubes(values, grid), marching_cubes(main(*sample_grid(grid)), grid)
        )
        assert len(marching_cubes(dense, grid).faces) > len(marching_cubes(values, grid).faces)

    def test_bubble_at_the_centre_of_a_small_block_is_found(self) -> None:
        """A closed component holding a vertex strictly inside a 2-cell
        block holds its centre, which a refined 4-cell block samples."""
        grid = GridSpec(33)

        def main(x, y, z):
            return 1.865 - (x + y + z)

        # The bubble holds only vertex (17, 17, 17), the centre of the
        # 2-cell block [16, 18]^3, whose corners are all outside.
        bubble = ball((17 / 32, 17 / 32, 17 / 32), 0.02)
        values, sampled, dense = refine_analytic(
            lambda x, y, z: np.minimum(main(x, y, z), bubble(x, y, z)), grid
        )
        assert dense[17, 17, 17] < 0.0
        np.testing.assert_array_equal(values < 0.0, dense < 0.0)
        assert sampled[16:19, 16:19, 16:19].all()
        assert_same_mesh(marching_cubes(values, grid), marching_cubes(dense, grid))
