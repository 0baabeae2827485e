"""Watertight generator meshes used by benchmarks and experiments.

Each generator builds one fixed shape, centred at the origin, as a closed
triangle mesh with outward windings (positive signed volume), so surface
sampling yields outward normals and inside/outside labelling is
consistent without per-shape cases.
"""
from __future__ import annotations

import numpy as np

from .geometry import Points
from .mesh import Faces, TriMesh

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

_ICOSA_VERTICES = np.array(
    [
        (-1, _GOLDEN, 0), (1, _GOLDEN, 0), (-1, -_GOLDEN, 0), (1, -_GOLDEN, 0),
        (0, -1, _GOLDEN), (0, 1, _GOLDEN), (0, -1, -_GOLDEN), (0, 1, -_GOLDEN),
        (_GOLDEN, 0, -1), (_GOLDEN, 0, 1), (-_GOLDEN, 0, -1), (-_GOLDEN, 0, 1),
    ],
    dtype=np.float64,
)

_ICOSA_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def _subdivided_unit_sphere() -> tuple[Points, Faces]:
    """Icosahedron refined three times by edge midpoints, vertices on the
    unit sphere: 642 vertices and 1,280 faces."""
    vertices = [v / np.linalg.norm(v) for v in _ICOSA_VERTICES]
    faces = [tuple(f) for f in _ICOSA_FACES]
    for _ in range(3):
        midpoint_of: dict[frozenset[int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = frozenset((a, b))
            if key not in midpoint_of:
                mid = vertices[a] + vertices[b]
                vertices.append(mid / np.linalg.norm(mid))
                midpoint_of[key] = len(vertices) - 1
            return midpoint_of[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            refined += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = refined
    return np.asarray(vertices), np.asarray(faces, dtype=np.int64)


def sphere() -> TriMesh:
    """Sphere of radius 0.5."""
    vertices, faces = _subdivided_unit_sphere()
    return TriMesh(vertices * 0.5, faces)


def blob() -> TriMesh:
    """Star-shaped bumpy solid with no rotational symmetry.

    Mixed odd and even radial terms with generic coefficients, so pose
    recovery against it is well posed.  Radial scaling of a star-shaped
    surface preserves closedness and winding.
    """
    directions, faces = _subdivided_unit_sphere()
    x, y, z = directions.T
    polar = np.arccos(np.clip(z, -1.0, 1.0))
    radial = (
        1.0
        + 0.38 * x
        + 0.30 * y
        - 0.25 * z * x
        + 0.22 * y * z
        + 0.175 * np.cos(3.0 * polar)
        + 0.18 * x * y * z
    )
    return TriMesh(directions * radial[:, None] * 0.5, faces)


def box() -> TriMesh:
    """Axis-aligned 1.0 x 0.6 x 0.4 box; twelve triangles describe it
    exactly."""
    half = np.array([1.0, 0.6, 0.4]) / 2.0
    corners = np.array(
        [
            (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
            (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
        ],
        dtype=np.float64,
    )
    quads = (
        (0, 3, 2, 1),  # z = -1
        (4, 5, 6, 7),  # z = +1
        (0, 1, 5, 4),  # y = -1
        (1, 2, 6, 5),  # x = +1
        (2, 3, 7, 6),  # y = +1
        (3, 0, 4, 7),  # x = -1
    )
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return TriMesh(corners * half, np.asarray(faces, dtype=np.int64))


def torus() -> TriMesh:
    """Torus about the z axis: spine radius 0.35, tube radius 0.12, 48
    segments around the spine and 24 around the tube."""
    major, minor = 0.35, 0.12
    segments_major, segments_minor = 48, 24
    u = np.linspace(0.0, 2.0 * np.pi, segments_major, endpoint=False)
    v = np.linspace(0.0, 2.0 * np.pi, segments_minor, endpoint=False)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = major + minor * np.cos(vv)
    vertices = np.stack(
        [ring * np.cos(uu), ring * np.sin(uu), minor * np.sin(vv)], axis=-1
    ).reshape(-1, 3)

    def at(i: int, j: int) -> int:
        return (i % segments_major) * segments_minor + (j % segments_minor)

    faces = []
    for i in range(segments_major):
        for j in range(segments_minor):
            a, b = at(i, j), at(i + 1, j)
            c, d = at(i + 1, j + 1), at(i, j + 1)
            faces += [(a, b, c), (a, c, d)]
    return TriMesh(vertices, np.asarray(faces, dtype=np.int64))


def capsule() -> TriMesh:
    """Cylinder with hemispherical caps, axis along z.

    Radius 0.2 and a straight section 0.5 long, so the total extent
    along z is 0.9; 24 segments around the axis and 6 rings per cap.
    Built as a surface of revolution of a pole-to-pole profile, so the
    seams between caps and side are welded by construction.
    """
    radius, half = 0.2, 0.25
    segments, cap_rings = 24, 6
    lower = np.linspace(-np.pi / 2.0, 0.0, cap_rings + 1)
    upper = np.linspace(0.0, np.pi / 2.0, cap_rings + 1)
    # Ends of the profile are the poles (radius zero by construction).
    profile = [(radius * np.cos(a), -half + radius * np.sin(a)) for a in lower]
    profile += [(radius * np.cos(a), half + radius * np.sin(a)) for a in upper]
    theta = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    vertices = [np.array([0.0, 0.0, profile[0][1]])]
    for r, z in profile[1:-1]:
        ring = np.stack([r * cos_t, r * sin_t, np.full(segments, z)], axis=1)
        vertices.append(ring)
    vertices.append(np.array([0.0, 0.0, profile[-1][1]]))
    points = np.concatenate(
        [vertices[0][None]] + vertices[1:-1] + [vertices[-1][None]]
    )
    n_rings = len(profile) - 2
    top_pole = 1 + n_rings * segments

    def at(ring: int, j: int) -> int:
        return 1 + ring * segments + (j % segments)

    faces = []
    for j in range(segments):
        faces.append((0, at(0, j + 1), at(0, j)))
    for ring in range(n_rings - 1):
        for j in range(segments):
            a, b = at(ring, j), at(ring, j + 1)
            c, d = at(ring + 1, j + 1), at(ring + 1, j)
            faces += [(a, b, c), (a, c, d)]
    for j in range(segments):
        faces.append((top_pole, at(n_rings - 1, j), at(n_rings - 1, j + 1)))
    return TriMesh(points, np.asarray(faces, dtype=np.int64))
