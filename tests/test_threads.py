"""Results do not depend on ``PASDF_THREADS``.

The variable only caps the workers of exact nearest-neighbour queries, so
every result must be bit-identical with it unset and set.
"""
from __future__ import annotations

import numpy as np
import pytest

from pasdf.defects import crop
from pasdf.geometry import apply_transform, estimate_normals, random_rigid
from pasdf.mesh import sample_surface
from pasdf.queries import label_sdf
from pasdf.registration import pose_align
from pasdf.shapes import blob


@pytest.fixture(scope="module")
def surface():
    return sample_surface(blob(), 1500, seed=3)


def _label(surface):
    rng = np.random.default_rng(4)
    positions = np.vstack(
        [
            rng.uniform(-1.0, 1.0, size=(500, 3)),
            surface.points[:300] + rng.normal(scale=1e-3, size=(300, 3)),
        ]
    )
    return [label_sdf(positions, surface)]


def _normals(surface):
    cloud, degenerate = estimate_normals(surface, k=16, viewpoint=np.zeros(3))
    return [cloud.normals, np.array(degenerate)]


def _crop(surface):
    result = crop(surface, center=surface.points[0], radius=0.3)
    return [result.cloud.points, result.labels]


def _align(surface):
    posed = apply_transform(random_rigid(np.random.default_rng(5), 0.2), surface)
    result = pose_align(posed, surface, seed=6)
    return [
        result.aligned.points,
        result.transform.rotation,
        result.transform.translation,
        np.array([result.chamfer, result.rounds, result.ransac_failures]),
    ]


@pytest.mark.parametrize("compute", [_label, _normals, _crop, _align])
def test_results_do_not_depend_on_thread_count(monkeypatch, surface, compute) -> None:
    monkeypatch.delenv("PASDF_THREADS", raising=False)
    single = compute(surface)
    monkeypatch.setenv("PASDF_THREADS", "2")
    threaded = compute(surface)
    for a, b in zip(single, threaded, strict=True):
        np.testing.assert_array_equal(a, b)
