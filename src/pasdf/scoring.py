"""Anomaly scoring and ranking metrics.

A test cloud is rigidly aligned to the canonical target, normalized into
the model's unit-cube frame, and scored pointwise by |f(x)|: distance from
the learned surface is the anomaly evidence.  Object-level verdicts
average the top-k point scores; detection quality is summarized by the
area under the ROC curve, computed by midranks so ties are handled
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .encoding import EncodingConfig, positional_encode
from .errors import InvalidInputError, InvalidParameterError, UndefinedMetricError
from .geometry import F64, PointCloud, RigidTransform
from .mesh import NormalizationRecord
from .network import SdfModel
from .registration import pose_align

DEFAULT_TOP_K = 1000


@dataclass(frozen=True)
class AnomalyReport:
    """Per-point scores in the test cloud's original index order."""

    per_point_scores: NDArray[F64]
    transform: RigidTransform
    converged: bool
    object_score: float | None = None

    def __post_init__(self) -> None:
        scores = np.ascontiguousarray(self.per_point_scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise InvalidInputError("per-point scores must be a non-empty vector")
        if not np.isfinite(scores).all():
            raise InvalidInputError("anomaly scores must be finite")
        if scores.min() < 0.0:
            raise InvalidInputError("anomaly scores are absolute values, >= 0")
        object.__setattr__(self, "per_point_scores", scores)

    def with_object_score(self, k: int = DEFAULT_TOP_K) -> "AnomalyReport":
        return replace(self, object_score=object_score(self.per_point_scores, k))


def object_score(scores: NDArray[F64], k: int = DEFAULT_TOP_K) -> float:
    """Mean of the k largest scores; k is clamped to the score count."""
    values = np.ascontiguousarray(scores, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise InvalidInputError("scores must be a non-empty vector")
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    k = min(k, values.size)
    top = np.partition(values, values.size - k)[values.size - k :]
    return float(np.mean(top))


def score_points(
    model: SdfModel,
    encoding: EncodingConfig,
    test: PointCloud,
    canonical: PointCloud,
    record: NormalizationRecord,
    *,
    seed: int,
    align: bool = True,
) -> AnomalyReport:
    """Pose-align a test cloud and score each point by |f(x)|.

    Scores land at the original point indices (rigid alignment never
    reorders).  A non-convergent alignment still produces scores; the
    report's converged flag lets the caller decide what to trust.  With
    align=False the cloud is assumed to already sit in the canonical world
    frame, which is the ablation path.
    """
    if align:
        result = pose_align(test, canonical, seed=seed)
        aligned, transform, converged = result.aligned, result.transform, result.converged
    else:
        aligned, transform, converged = test, RigidTransform.identity(), True
    normalized = record.normalize(aligned.points)
    predictions = model.forward(positional_encode(normalized, encoding))
    return AnomalyReport(np.abs(predictions), transform, converged)


def _midranks(values: NDArray[F64]) -> NDArray[F64]:
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    n = values.size
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    group_start = np.flatnonzero(starts)
    group_end = np.append(group_start[1:], n)
    midrank = (group_start + group_end - 1) / 2.0 + 1.0
    group_of = np.cumsum(starts) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = midrank[group_of]
    return ranks


def auroc(scores: NDArray[F64], labels: NDArray[np.int_]) -> float:
    """P(anomalous outranks normal), counting exact ties as half.

    Rank-based formulation, identical to trapezoidal integration of the
    ROC curve.
    """
    values = np.ascontiguousarray(scores, dtype=np.float64)
    marks = np.ascontiguousarray(labels)
    if values.shape != marks.shape or values.ndim != 1:
        raise InvalidInputError("scores and labels must be equal-length vectors")
    if not np.isin(marks, (0, 1)).all():
        raise InvalidInputError("labels must be 0 (normal) or 1 (anomalous)")
    n_pos = int(marks.sum())
    n_neg = marks.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    ranks = _midranks(values)
    rank_sum = float(ranks[marks == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pooled_auroc(scores: list[NDArray[F64]], labels: list[NDArray[np.int_]]) -> float:
    """Point AUROC over the points of every object: ``scores[i]`` and
    ``labels[i]`` belong to object i.

    All points are pooled into one global ranking rather than ranked per
    object and averaged.
    """
    if len(scores) != len(labels) or any(
        len(values) != len(marks) for values, marks in zip(scores, labels)
    ):
        raise InvalidInputError("point labels must align with per-point scores")
    return auroc(np.concatenate(scores), np.concatenate(labels))
