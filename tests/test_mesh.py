"""Tests for triangle-mesh primitives and the PLY/OBJ round trips."""
from __future__ import annotations

import numpy as np
import pytest

from oracles import check_watertight, read_obj, signed_volume
from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.geometry import PointCloud
from pasdf.mesh import (
    TriMesh,
    normalize_unit_cube,
    sample_surface,
)
from pasdf.meshio import read_ply, write_cloud_ply, write_obj


def unit_cube() -> TriMesh:
    """Axis-aligned unit cube, outward windings, built by hand."""
    vertices = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],
            [4, 5, 6], [4, 6, 7],
            [0, 1, 5], [0, 5, 4],
            [2, 3, 7], [2, 7, 6],
            [0, 4, 7], [0, 7, 3],
            [1, 2, 6], [1, 6, 5],
        ],
        dtype=np.int64,
    )
    return TriMesh(vertices, faces)


def edge_incidence(faces: np.ndarray) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in faces:
        for edge in ((a, b), (b, c), (c, a)):
            key = (min(edge), max(edge))
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestTriMesh:
    def test_rejects_out_of_range_faces(self):
        with pytest.raises(InvalidInputError):
            TriMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    @pytest.mark.filterwarnings("error")
    def test_zero_area_faces_are_kept_and_never_sampled(self):
        # Collinear faces first and last around one right triangle in z=0.
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [2.0, 0, 0]])
        mesh = TriMesh(verts, np.array([[0, 1, 3], [0, 1, 2], [1, 3, 0]]))
        np.testing.assert_array_equal(mesh.face_areas, [0.0, 0.5, 0.0])
        np.testing.assert_array_equal(mesh.face_normals, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        cloud = sample_surface(mesh, 5000, seed=5)
        np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)
        x, y = cloud.points[:, 0], cloud.points[:, 1]
        assert (x >= 0).all() and (y >= 0).all() and (x + y <= 1.0 + 1e-12).all()

    def test_face_geometry_keeps_the_bits_of_np_cross(self):
        rng = np.random.default_rng(3)
        verts = rng.standard_normal((600, 3)) * 10.0 ** rng.integers(-6, 7, (600, 1))
        faces = rng.integers(0, 600, (3000, 3))
        # Zero-area faces: a repeated corner, and three identical corners.
        faces[:300, 2] = faces[:300, 1]
        faces[300:400, 1:] = faces[300:400, :1]
        mesh = TriMesh(verts, faces)
        a, b, c = (verts[faces[:, corner]] for corner in range(3))
        crosses = np.cross(b - a, c - a)
        areas = 0.5 * np.linalg.norm(crosses, axis=1)
        twice = 2.0 * areas[:, None]
        normals = np.divide(crosses, twice, out=np.zeros_like(crosses), where=twice > 0.0)
        assert (areas[:400] == 0.0).all()
        assert mesh.face_areas.tobytes() == areas.tobytes()
        assert mesh.face_normals.tobytes() == normals.tobytes()

    def test_empty_mesh_is_allowed(self):
        mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert mesh.is_empty

    def test_face_normals_are_unit(self):
        cube = unit_cube()
        np.testing.assert_allclose(np.linalg.norm(cube.face_normals, axis=1), 1.0)

    def test_cube_area_and_volume(self):
        cube = unit_cube()
        assert cube.area == pytest.approx(6.0)
        assert signed_volume(cube) == pytest.approx(1.0)


class TestNormalizeUnitCube:
    def test_symmetric_cube_scale_and_offset(self):
        mesh = unit_cube()
        shifted = TriMesh(mesh.vertices * 2.0 - 1.0, mesh.faces)
        normalized, record = normalize_unit_cube(shifted)
        assert record.scale == pytest.approx(2.0)
        assert record.offset == pytest.approx((-1.0, -1.0, -1.0))
        assert normalized.vertices.min() == 0.0
        assert normalized.vertices.max() == 1.0

    def test_longest_axis_spans_exactly_unit(self):
        rng = np.random.default_rng(21)
        verts = rng.uniform(-3.0, 5.0, size=(30, 3))
        verts[:, 1] *= 0.25
        faces = np.array([[i, i + 1, i + 2] for i in range(0, 27, 3)])
        normalized, _ = normalize_unit_cube(TriMesh(verts, faces))
        lo, hi = normalized.bounds()
        extents = hi - lo
        axis = int(np.argmax(extents))
        assert lo[axis] == 0.0
        assert hi[axis] == 1.0
        assert (lo >= 0.0).all() and (hi <= 1.0).all()

    def test_round_trip_within_tolerance(self):
        rng = np.random.default_rng(22)
        verts = rng.normal(scale=4.0, size=(12, 3))
        faces = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
        mesh = TriMesh(verts, faces)
        normalized, record = normalize_unit_cube(mesh)
        np.testing.assert_allclose(record.denormalize(normalized.vertices), verts, atol=1e-12)

    def test_rejects_flat_bbox(self):
        # Four coincident vertices form a zero-extent box.
        mesh = TriMesh(np.zeros((4, 3)), np.array([[0, 1, 2], [0, 2, 3]]))
        with pytest.raises(InvalidInputError, match="degenerate bounding box"):
            normalize_unit_cube(mesh)


class TestCheckWatertight:
    def test_closed_cube(self):
        assert check_watertight(unit_cube()) == (True, 0)

    def test_single_triangle(self):
        tri = TriMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]]))
        assert check_watertight(tri) == (False, 3)

    def test_cube_with_missing_face_matches_incidence_oracle(self):
        cube = unit_cube()
        open_mesh = TriMesh(cube.vertices, cube.faces[:-1])
        flag, bad = check_watertight(open_mesh)
        counts = edge_incidence(open_mesh.faces)
        expected_bad = sum(1 for c in counts.values() if c != 2)
        assert flag is False
        assert bad == expected_bad == 3

    def test_empty_mesh_is_not_watertight(self):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert check_watertight(empty) == (False, 0)


class TestSampleSurface:
    def two_triangle_mesh(self) -> TriMesh:
        # Areas 1 and 3 in the z=0 plane.
        verts = np.array(
            [
                [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                [10.0, 0.0, 0.0], [12.0, 0.0, 0.0], [10.0, 3.0, 0.0],
            ]
        )
        return TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))

    def test_area_weighted_face_choice(self):
        mesh = self.two_triangle_mesh()
        cloud = sample_surface(mesh, 40_000, seed=123)
        on_big = np.sum(cloud.points[:, 0] >= 9.0)
        # Binomial(40000, 0.75): 3 sigma is about 260; use the wider gate.
        assert abs(on_big - 30_000) <= 600

    def test_samples_lie_on_faces_with_face_normals(self):
        mesh = self.two_triangle_mesh()
        cloud = sample_surface(mesh, 500, seed=7)
        np.testing.assert_allclose(cloud.points[:, 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(cloud.normals[:, 2]), 1.0)

    def test_barycentric_points_stay_inside_triangle(self):
        tri = TriMesh(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]])
        )
        cloud = sample_surface(tri, 2000, seed=11)
        x, y = cloud.points[:, 0], cloud.points[:, 1]
        assert (x >= 0).all() and (y >= 0).all() and (x + y <= 1.0 + 1e-12).all()

    def test_deterministic_per_seed(self):
        mesh = self.two_triangle_mesh()
        a = sample_surface(mesh, 100, seed=3)
        b = sample_surface(mesh, 100, seed=3)
        c = sample_surface(mesh, 100, seed=4)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidParameterError):
            sample_surface(unit_cube(), 0, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_zero_area_mesh(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(InvalidInputError, match="zero area"):
            sample_surface(TriMesh(verts, np.array([[0, 1, 2]])), 10, seed=0)


class TestPlyRoundTrip:
    def make_cloud(self) -> PointCloud:
        rng = np.random.default_rng(30)
        pts = rng.normal(size=(40, 3))
        normals = rng.normal(size=(40, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        return PointCloud(pts, normals)

    def test_binary_round_trip_with_scores(self, tmp_path):
        cloud = self.make_cloud()
        scores = np.linspace(0.0, 1.0, len(cloud)).astype(np.float32)
        path = tmp_path / "scored.ply"
        write_cloud_ply(path, cloud, scores=scores)
        content = read_ply(path)
        np.testing.assert_array_equal(content.points, cloud.points)
        assert content.normals.tobytes() == cloud.normals.tobytes()
        np.testing.assert_array_equal(content.scores, scores)

    def test_only_normals_off_unit_length_are_rescaled(self, tmp_path):
        # Within PointCloud's tolerance a normal is kept bit for bit; a
        # longer one is rescaled, and a zero or NaN one replaced by +z.
        normals = [
            [1.0 + 1e-7, 0.0, 0.0],
            [0.0, 0.0, 2.0],
            [0.0, 0.0, 0.0],
            [0.6, 0.8, 0.0],
            [float("nan"), 0.0, 0.0],
        ]
        path = tmp_path / "normals.ply"
        header = "ply\nformat ascii 1.0\nelement vertex 5\n"
        header += "".join(f"property double {name}\n" for name in ("x", "y", "z", "nx", "ny", "nz"))
        rows = "".join(f"{i} 0 0 " + " ".join(repr(v) for v in n) + "\n" for i, n in enumerate(normals))
        path.write_text(header + "end_header\n" + rows)
        content = read_ply(path)
        expected = np.array(
            [[1.0 + 1e-7, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]
        )
        assert content.normals.tobytes() == expected.tobytes()

    def test_ascii_round_trip(self, tmp_path):
        cloud = self.make_cloud()
        path = tmp_path / "plain.ply"
        header = "ply\nformat ascii 1.0\nelement vertex 40\n"
        header += "".join(f"property double {name}\n" for name in ("x", "y", "z"))
        rows = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in cloud.points)
        path.write_text(header + "end_header\n" + rows)
        content = read_ply(path)
        np.testing.assert_allclose(content.points, cloud.points, rtol=0, atol=0)
        assert content.scores is None

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "junk.ply"
        path.write_text("hello world\n")
        with pytest.raises(InvalidInputError):
            read_ply(path)


# A quad, a triangle and an extra element around four vertices; the
# vertex values are exact in float32.
_PLY_VERTICES = np.array(
    [[0.0, 0.5, 1.0], [1.25, -2.0, 0.75], [3.5, 0.125, -1.5], [-0.25, 4.0, 2.0]]
)
_PLY_FACES = ([0, 1, 2, 3], [0, 2, 3])
_PLY_EXTRA = ((7, 0.5), (9, 1.5))
_PLY_HEADERS = {
    "vertex": "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n",
    "face": "element face 2\nproperty list uchar int vertex_indices\n",
    "material": "element material 2\nproperty uchar red\nproperty float shininess\n",
}


def _ply_bytes(fmt: str, order: tuple[str, ...], headers: dict = _PLY_HEADERS) -> bytes:
    """A PLY file with its elements in the given order."""
    binary = fmt == "binary_little_endian"
    bodies = {
        "vertex": (
            _PLY_VERTICES.astype("<f4").tobytes()
            if binary
            else "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in _PLY_VERTICES).encode()
        ),
        "face": b"".join(
            np.uint8(len(face)).tobytes() + np.asarray(face, dtype="<i4").tobytes()
            if binary
            else (" ".join(map(str, [len(face), *face])) + "\n").encode()
            for face in _PLY_FACES
        ),
        "material": b"".join(
            np.uint8(red).tobytes() + np.float32(shine).tobytes()
            if binary
            else f"{red} {shine}\n".encode()
            for red, shine in _PLY_EXTRA
        ),
    }
    header = f"ply\nformat {fmt} 1.0\ncomment made by hand\n"
    header += "".join(headers[name] for name in order) + "end_header\n"
    return header.encode() + b"".join(bodies[name] for name in order)


def _recount(name: str, count: int) -> dict[str, str]:
    """The usual headers, with element ``name`` claiming ``count`` rows."""
    _, properties = _PLY_HEADERS[name].split("\n", 1)
    return {**_PLY_HEADERS, name: f"element {name} {count}\n{properties}"}


class TestPlyReader:
    @pytest.mark.parametrize("fmt", ["binary_little_endian", "ascii"])
    @pytest.mark.parametrize(
        "order", [("vertex", "face", "material"), ("face", "material", "vertex")]
    )
    def test_mesh_file_loads_exactly_its_vertices(self, tmp_path, fmt, order):
        # Elements before the vertex block must be skipped byte-exactly.
        path = tmp_path / "mesh.ply"
        path.write_bytes(_ply_bytes(fmt, order))
        content = read_ply(path)
        np.testing.assert_array_equal(content.points, _PLY_VERTICES)
        assert content.normals is None and content.scores is None

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda: _ply_bytes("binary_little_endian", ("vertex",))[:-5],
                id="truncated-binary-vertices",
            ),
            pytest.param(
                lambda: _ply_bytes(
                    "binary_little_endian",
                    ("vertex",),
                    {"vertex": _PLY_HEADERS["vertex"].replace("4", "ten")},
                ),
                id="non-integer-count",
            ),
            pytest.param(
                lambda: _ply_bytes("ascii", ("vertex",)).replace(b"0.0 0.5 1.0\n", b"0.0 0.5\n"),
                id="short-ascii-row",
            ),
            pytest.param(
                lambda: _ply_bytes(
                    "binary_little_endian",
                    ("material", "vertex"),
                    {**_PLY_HEADERS, "material": "element material 2\nproperty quad red\n"},
                ),
                id="unknown-type-in-skipped-element",
            ),
        ],
    )
    def test_malformed_file_is_invalid_input_naming_it(self, tmp_path, make):
        path = tmp_path / "broken.ply"
        path.write_bytes(make())
        with pytest.raises(InvalidInputError, match="broken.ply"):
            read_ply(path)


    @pytest.mark.parametrize(
        "data, element",
        [
            pytest.param(
                _ply_bytes("binary_little_endian", ("vertex",), _recount("vertex", 10**12)),
                "vertex",
                id="binary-vertices-beyond-the-file",
            ),
            # A face element of fixed-size rows; the material rows stand in
            # for its body.
            pytest.param(
                _ply_bytes(
                    "binary_little_endian",
                    ("vertex", "material"),
                    {**_PLY_HEADERS, "material": f"element face {10**12}\nproperty int a\n"},
                ),
                "face",
                id="binary-faces-beyond-the-file",
            ),
            pytest.param(
                _ply_bytes("ascii", ("vertex",), _recount("vertex", 100_000)),
                "vertex",
                id="ascii-vertices-beyond-the-rows",
            ),
            pytest.param(
                _ply_bytes("ascii", ("vertex", "face"), _recount("face", 100_000)),
                "face",
                id="ascii-faces-truncated",
            ),
            pytest.param(
                _ply_bytes("binary_little_endian", ("vertex",), _recount("vertex", -1)),
                "vertex",
                id="negative-count",
            ),
        ],
    )
    def test_count_the_file_cannot_hold_is_refused_naming_the_element(
        self, tmp_path, data, element
    ):
        # Refused from the file's size or end, before an array of the
        # claimed size is made or a missing row is asked for.
        path = tmp_path / "broken.ply"
        path.write_bytes(data)
        with pytest.raises(InvalidInputError, match=f"broken.ply: .*element {element} "):
            read_ply(path)

    def test_path_that_cannot_be_opened_is_invalid_input_naming_it(self, tmp_path):
        path = tmp_path / "folder.ply"
        path.mkdir()
        with pytest.raises(InvalidInputError, match="folder.ply: PLY file is not readable"):
            read_ply(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_ply(tmp_path / "absent.ply")


class TestObjRoundTrip:
    def test_mesh_round_trip(self, tmp_path):
        cube = unit_cube()
        path = tmp_path / "cube.obj"
        write_obj(path, cube)
        again = read_obj(path)
        np.testing.assert_array_equal(again.vertices, cube.vertices)
        np.testing.assert_array_equal(again.faces, cube.faces)

    def test_quad_faces_are_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = read_obj(path)
        assert mesh.n_faces == 2

    def test_rejects_empty_obj(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
        with pytest.raises(InvalidInputError):
            read_obj(path)
