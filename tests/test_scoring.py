"""Anomaly scoring, top-k aggregation, and AUROC."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rotation_angle, stdout_per_blas_thread_count
from pasdf.errors import (
    InvalidInputError,
    InvalidParameterError,
    UndefinedMetricError,
)
from pasdf import registration
from pasdf.encoding import positional_encode
from pasdf.geometry import (
    RigidTransform,
    apply_points,
    apply_transform,
    compose,
    random_rigid,
)
from pasdf.mesh import TriMesh, sample_surface
from pasdf.scoring import (
    AnomalyReport,
    auroc,
    object_score,
    pooled_auroc,
    score_points,
)
from pasdf.shapes import blob

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def oracle_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) pairwise comparison: wins plus half-ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _steepest_slope(world, points: np.ndarray, step: float) -> float:
    """Largest central-difference gradient norm of the field over the
    points, with differences taken ``step`` either side along each axis."""

    def field(at: np.ndarray) -> np.ndarray:
        return world.model.forward(positional_encode(at, world.encoding))

    partials = [
        (field(points + step * axis) - field(points - step * axis)) / (2.0 * step)
        for axis in np.eye(3)
    ]
    return float(np.linalg.norm(partials, axis=0).max())


class TestObjectScore:
    def test_top_two_of_three(self) -> None:
        assert object_score(np.array([3.0, 1.0, 2.0]), k=2) == pytest.approx(2.5)

    def test_k_one_is_max(self) -> None:
        assert object_score(np.array([0.4, 0.9, 0.1]), k=1) == pytest.approx(0.9)

    def test_k_beyond_size_is_plain_mean(self) -> None:
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        assert object_score(scores, k=100) == pytest.approx(2.5)

    def test_rejects_empty_and_bad_k(self) -> None:
        with pytest.raises(InvalidInputError):
            object_score(np.array([]), k=1)
        with pytest.raises(InvalidParameterError):
            object_score(np.array([1.0]), k=0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_monotone_in_single_scores(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        k = int(rng.integers(1, 40))
        base = object_score(scores, k)
        bumped = scores.copy()
        idx = int(rng.integers(0, 30))
        bumped[idx] += rng.random()
        assert object_score(bumped, k) >= base - 1e-15


class TestAuroc:
    def test_perfect_separation(self) -> None:
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert auroc(scores, labels) == pytest.approx(1.0)

    def test_all_ties_is_half(self) -> None:
        scores = np.ones(10)
        labels = np.array([1] * 4 + [0] * 6)
        assert auroc(scores, labels) == pytest.approx(0.5)

    def test_label_flip_complements(self) -> None:
        rng = np.random.default_rng(1)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        value = auroc(scores, labels)
        assert auroc(scores, 1 - labels) == pytest.approx(1.0 - value, abs=1e-12)

    def test_matches_pairwise_oracle_with_ties(self) -> None:
        rng = np.random.default_rng(2)
        for trial in range(10):
            # Integer-valued scores force plenty of exact ties.
            scores = rng.integers(0, 12, size=200).astype(float)
            labels = rng.integers(0, 2, size=200)
            labels[:2] = (0, 1)
            assert auroc(scores, labels) == pytest.approx(
                oracle_auroc(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self) -> None:
        rng = np.random.default_rng(3)
        scores = rng.random(80)
        labels = rng.integers(0, 2, size=80)
        labels[:2] = (0, 1)
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_single_class_is_undefined(self) -> None:
        with pytest.raises(UndefinedMetricError):
            auroc(np.array([0.1, 0.2]), np.array([1, 1]))
        with pytest.raises(UndefinedMetricError):
            auroc(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_rejects_bad_labels(self) -> None:
        with pytest.raises(InvalidInputError):
            auroc(np.array([0.1, 0.2]), np.array([0, 2]))


class TestAnomalyReport:
    def test_rejects_negative_scores(self) -> None:
        with pytest.raises(InvalidInputError):
            AnomalyReport(np.array([-0.1]), RigidTransform.identity(), True)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_scores(self, value) -> None:
        # NaN passes a ``min() < 0`` check and makes the object score NaN.
        with pytest.raises(InvalidInputError, match="finite"):
            AnomalyReport(np.array([0.1, value]), RigidTransform.identity(), True)

    def test_with_object_score_fills_top_k_mean(self) -> None:
        report = AnomalyReport(
            np.array([0.5, 0.1, 0.4, 0.2]), RigidTransform.identity(), True
        )
        filled = report.with_object_score(k=2)
        assert filled.object_score == pytest.approx(0.45)
        clamped = report.with_object_score(k=50)
        assert clamped.object_score == pytest.approx(0.3)


class TestScorePoints:
    def test_zero_network_scores_zero(self, sphere_world) -> None:
        model = sphere_world.model
        saved = [g.copy() for g in model.params.gains]
        saved_bias = model.params.biases[-1].copy()
        try:
            for g in model.params.gains:
                g[...] = 0.0
            model.params.biases[-1][...] = 0.0
            report = score_points(
                model,
                sphere_world.encoding,
                sphere_world.canonical,
                sphere_world.canonical,
                sphere_world.record,
                seed=0,
                align=False,
            )
            assert np.all(report.per_point_scores == 0.0)
        finally:
            for g, val in zip(model.params.gains, saved):
                g[...] = val
            model.params.biases[-1][...] = saved_bias

    def test_train_surface_scores_track_training_loss(self, sphere_world) -> None:
        report = score_points(
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.canonical,
            sphere_world.record,
            seed=1,
            align=False,
        )
        assert report.per_point_scores.mean() < 2.0 * sphere_world.final_loss

    def test_scores_are_pose_invariant_after_alignment(self, sphere_world) -> None:
        # A blob pins all three rotation axes, which a sphere cannot.  At
        # this size it straddles the fitted sphere, so its points score
        # across the clamped band instead of on the flat surface plateau.
        unit = blob()
        mesh = TriMesh(unit.vertices * 2.0 + sphere_world.center, unit.faces)
        canonical = sample_surface(mesh, 2000, seed=11)
        test = apply_transform(
            random_rigid(np.random.default_rng(12), 0.5), sample_surface(mesh, 2000, seed=13)
        )
        motion = random_rigid(np.random.default_rng(7), 1.5)
        moved = apply_transform(motion, test)
        first, second = (
            score_points(
                sphere_world.model,
                sphere_world.encoding,
                cloud,
                canonical,
                sphere_world.record,
                seed=2,
            )
            for cloud in (test, moved)
        )
        assert first.converged and second.converged

        # The recovered transforms compose to the known motion: the error
        # moves no test point by more than half an alignment voxel.
        voxel = canonical.bbox_diagonal() / registration._VOXEL_DIVISOR
        error = compose(first.transform.inverse(), compose(second.transform, motion))
        centroid = test.centroid()
        radius = np.linalg.norm(test.points - centroid, axis=1).max()
        assert rotation_angle(error.rotation) * radius < 0.5 * voxel
        assert np.linalg.norm(apply_points(error, centroid) - centroid) < 0.5 * voxel

        # A point's two scores differ only as far as the field can change
        # across that point's alignment residual: the distance between its
        # two aligned positions, bounded by twice the steepest slope of the
        # field measured at the residual's scale around the points.
        first_at = sphere_world.record.normalize(apply_points(first.transform, test.points))
        second_at = sphere_world.record.normalize(apply_points(second.transform, moved.points))
        residual = np.linalg.norm(first_at - second_at, axis=1)
        slope = _steepest_slope(sphere_world, first_at, residual.max())
        excess = np.abs(first.per_point_scores - second.per_point_scores) - 2.0 * slope * residual
        assert excess.max() <= 0.0, f"a score moved {excess.max():.3g} past its bound"

    def test_misaligned_without_pam_scores_high(self, sphere_world) -> None:
        moved = apply_transform(
            random_rigid(np.random.default_rng(8), 1.5), sphere_world.canonical
        )
        aligned = score_points(
            sphere_world.model,
            sphere_world.encoding,
            moved,
            sphere_world.canonical,
            sphere_world.record,
            seed=3,
        ).with_object_score()
        raw = score_points(
            sphere_world.model,
            sphere_world.encoding,
            moved,
            sphere_world.canonical,
            sphere_world.record,
            seed=3,
            align=False,
        ).with_object_score()
        assert raw.object_score > 5.0 * aligned.object_score

    def test_non_convergence_still_scores(self, sphere_world, monkeypatch) -> None:
        monkeypatch.setattr(registration, "_ACCEPT_LOSS_VOXELS", 0.0)
        monkeypatch.setattr(registration, "_MAX_ROUNDS", 2)
        report = score_points(
            sphere_world.model,
            sphere_world.encoding,
            sphere_world.canonical,
            sphere_world.canonical,
            sphere_world.record,
            seed=4,
        )
        assert not report.converged
        assert report.per_point_scores.size == len(sphere_world.canonical)
        assert np.isfinite(report.per_point_scores).all()


    def test_align_and_score_bitwise_identical_across_blas_thread_counts(self) -> None:
        # A posed blob and torus cloud against the perfbench fixture models,
        # trained in these meshes' frame on the bench network.
        script = f"""
import hashlib, json
import numpy as np
from pasdf import shapes
from pasdf.checkpoint import load_checkpoint
from pasdf.geometry import apply_transform, random_rigid
from pasdf.mesh import NormalizationRecord, sample_surface
from pasdf.meshio import read_record
from pasdf.registration import pose_align
from pasdf.scoring import score_points

for kind in ("blob", "torus"):
    fixture = {str(FIXTURES)!r} + "/" + kind
    model, encoding, _ = load_checkpoint(fixture + ".f32")
    with open(fixture + ".json") as handle:
        record = read_record(NormalizationRecord, json.load(handle)["record"], kind)
    mesh = getattr(shapes, kind)()
    canonical = sample_surface(mesh, 2048, seed=1)
    pose = random_rigid(np.random.default_rng(2), mesh.bbox_diagonal() / 2.0)
    cloud = apply_transform(pose, sample_surface(mesh, 2048, seed=3))
    aligned = pose_align(cloud, canonical, seed=4)
    report = score_points(model, encoding, aligned.aligned, canonical, record, seed=0, align=False)
    digest = hashlib.sha256()
    for array in (aligned.transform.rotation, aligned.transform.translation, report.per_point_scores):
        digest.update(array.tobytes())
    print(kind, aligned.converged, digest.hexdigest())
"""
        outputs = [out.split() for out in stdout_per_blas_thread_count(script)]
        assert outputs[0][:2] == ["blob", "True"] and outputs[0][3:5] == ["torus", "True"]
        assert outputs[0] == outputs[1]


class TestEvaluate:
    """Dataset metrics as bench, detect and eval compute them: ``auroc``
    over object scores and ``pooled_auroc`` over every object's points."""

    def test_object_and_point_aurocs(self) -> None:
        normal = np.array([0.1, 0.1, 0.2])
        anomalous = np.array([0.1, 0.9, 0.8])
        o_auroc = auroc(np.array([normal.max(), anomalous.max()]), np.array([0, 1]))
        p_auroc = pooled_auroc([normal, anomalous], [np.zeros(3, int), np.array([0, 1, 1])])
        assert o_auroc == pytest.approx(1.0)
        expect = oracle_auroc(
            np.array([0.1, 0.1, 0.2, 0.1, 0.9, 0.8]),
            np.array([0, 0, 0, 0, 1, 1]),
        )
        assert p_auroc == pytest.approx(expect, abs=1e-12)

    def test_pooling_is_global_not_per_object(self) -> None:
        # Point scores overlap across objects; pooled ranking sees all six
        # points together, which a per-object average would hide.
        scores = [np.array([0.3, 0.35, 0.4]), np.array([0.5, 0.55, 0.6])]
        labels = [np.array([0, 0, 1]), np.array([0, 1, 1])]
        p_auroc = pooled_auroc(scores, labels)
        pooled = oracle_auroc(np.concatenate(scores), np.concatenate(labels))
        assert p_auroc == pytest.approx(pooled, abs=1e-12)
        # Each object alone ranks perfectly; pooled, 0.4 falls below 0.5.
        assert [oracle_auroc(*pair) for pair in zip(scores, labels)] == [1.0, 1.0]
        assert p_auroc == pytest.approx(8 / 9, abs=1e-12)

    def test_rejects_misaligned_labels(self) -> None:
        scores = np.array([0.1, 0.2])
        with pytest.raises(InvalidInputError):
            pooled_auroc([scores], [np.array([0, 1]), np.array([1, 0])])
        with pytest.raises(InvalidInputError):
            pooled_auroc([scores], [np.array([0, 1, 0])])
