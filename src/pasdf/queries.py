"""Query-point generation and signed-distance labelling.

Training data for the implicit surface model: query positions drawn at three
scales (whole unit volume, expanded object bounding box, on the surface),
each labelled with a signed distance to an oriented surface cloud.  Sign
comes from the nearest surface sample's normal: negative behind it (inside),
positive in front, and exactly on a sample counts as positive.

:func:`prepare_samples` is the one path from oriented training clouds to
labelled samples; ``pasdf prepare`` and the benchmark both train through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, PointCloud, Points, _as_points
from .mesh import NormalizationRecord, TriMesh, normalization_from_bounds, sample_surface
from .meshio import read_json, read_value, write_json
from .registration import AlignmentResult, pose_align
from .rng import derive_seed, stream

_SURFACE_SDF_TOL = 1e-9


class Tier(IntEnum):
    VOLUME = 0
    BBOX = 1
    SURFACE = 2


@dataclass(frozen=True)
class QueryCounts:
    """How many query points to draw per tier."""

    volume: int = 10_000
    bbox: int = 10_000
    surface: int = 3_000
    bbox_expand: float = 1.3

    def __post_init__(self) -> None:
        for name in ("volume", "bbox", "surface"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} count must be >= 0")
        if self.volume + self.bbox + self.surface < 1:
            raise InvalidParameterError("at least one query point is required")
        if self.bbox_expand < 1.0:
            raise InvalidParameterError("bbox_expand must be >= 1")

    @property
    def total(self) -> int:
        return self.volume + self.bbox + self.surface


@dataclass(frozen=True)
class QuerySet:
    """Query positions with tiers; sdf is None until labelled."""

    positions: Points
    tiers: NDArray[np.uint8]
    sdf: NDArray[F64] | None = None

    def __post_init__(self) -> None:
        pos = _as_points(self.positions, "positions")
        tiers = np.ascontiguousarray(self.tiers, dtype=np.uint8)
        if tiers.shape != (pos.shape[0],):
            raise InvalidInputError("tiers must pair 1:1 with positions")
        if tiers.size and tiers.max() > int(Tier.SURFACE):
            raise InvalidInputError("unknown tier value")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "tiers", tiers)
        if self.sdf is not None:
            sdf = np.ascontiguousarray(self.sdf, dtype=np.float64)
            if sdf.shape != (pos.shape[0],):
                raise InvalidInputError("sdf must pair 1:1 with positions")
            if not np.isfinite(sdf).all():
                raise InvalidInputError("sdf contains non-finite values")
            on_surface = tiers == int(Tier.SURFACE)
            if on_surface.any() and np.abs(sdf[on_surface]).max() >= _SURFACE_SDF_TOL:
                raise InvalidInputError(
                    "surface-tier query has non-zero signed distance; "
                    "the labelling cloud must contain the surface samples"
                )
            object.__setattr__(self, "sdf", sdf)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def is_labelled(self) -> bool:
        return self.sdf is not None


def bbox_shell(lo: Points, hi: Points, expand: float) -> tuple[Points, Points]:
    """The box ``lo``..``hi`` scaled by ``expand`` about its centre and
    clipped to the unit cube, each half-extent at least 1e-3.

    Bbox-tier queries are drawn from this shell and the repair grid spans
    it, so the grid covers what the model was trained on.
    """
    center = (lo + hi) / 2.0
    half = np.maximum((hi - lo) / 2.0 * expand, 1e-3)
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def _sample_tiers(
    lo: Points,
    hi: Points,
    surface: PointCloud,
    counts: QueryCounts,
    seed: int,
) -> QuerySet:
    """Volume tier over the unit cube, bbox tier over the expanded bounds
    ``lo``..``hi``, then ``surface`` as the surface tier unless its count
    is 0.  Each tier draws from its own named random stream of ``seed``.
    """
    blocks: list[Points] = []
    tiers: list[NDArray[np.uint8]] = []
    if counts.volume:
        rng = stream(seed, "queries-volume")
        blocks.append(rng.random((counts.volume, 3)))
        tiers.append(np.full(counts.volume, int(Tier.VOLUME), dtype=np.uint8))
    if counts.bbox:
        rng = stream(seed, "queries-bbox")
        lo_exp, hi_exp = bbox_shell(lo, hi, counts.bbox_expand)
        blocks.append(lo_exp + rng.random((counts.bbox, 3)) * (hi_exp - lo_exp))
        tiers.append(np.full(counts.bbox, int(Tier.BBOX), dtype=np.uint8))
    if counts.surface:
        blocks.append(surface.points)
        tiers.append(np.full(counts.surface, int(Tier.SURFACE), dtype=np.uint8))
    return QuerySet(np.vstack(blocks), np.concatenate(tiers))


def _require_unit_cube(lo: Points, hi: Points, what: str) -> None:
    if lo.min() < -1e-9 or hi.max() > 1.0 + 1e-9:
        raise InvalidInputError(f"{what} must be normalised into the unit cube first")


def sample_queries(
    mesh: TriMesh, counts: QueryCounts, seed: int
) -> tuple[QuerySet, PointCloud]:
    """Draw query positions at three scales from a normalised mesh.

    Returns the unlabelled query set and the surface cloud backing its
    surface tier (same points, with face normals), which belongs in any
    labelling cloud so surface queries label to exactly zero.  Each tier
    draws from its own named random stream of ``seed``.
    """
    lo, hi = mesh.bounds()
    _require_unit_cube(lo, hi, "mesh")
    surface = sample_surface(mesh, max(counts.surface, 1), seed=derive_seed(seed, "queries-surface"))
    return _sample_tiers(lo, hi, surface, counts, seed), surface


def sample_queries_from_cloud(
    cloud: PointCloud, counts: QueryCounts, seed: int
) -> tuple[QuerySet, PointCloud]:
    """Query positions when only a normalised point cloud is available.

    Surface-tier positions are drawn from the cloud itself (with replacement
    when oversampled); volume and bbox tiers work as in :func:`sample_queries`.
    """
    lo, hi = cloud.bounds()
    _require_unit_cube(lo, hi, "cloud")
    if cloud.normals is None:
        raise InvalidInputError("cloud inputs need normals to support labelling")
    rng = stream(seed, "queries-surface")
    n_surface = max(counts.surface, 1)
    replace = n_surface > len(cloud)
    chosen = rng.choice(len(cloud), size=n_surface, replace=replace)
    surface = PointCloud(cloud.points[chosen], cloud.normals[chosen])
    return _sample_tiers(lo, hi, surface, counts, seed), surface


def label_sdf(positions: Points, surface: PointCloud) -> NDArray[F64]:
    """Signed distance of each position to an oriented surface cloud.

    Distance to the nearest surface sample; sign from that sample's normal,
    with the boundary case (zero dot product, including coincident points)
    counted as positive.

    The tree is a sliding-midpoint one with 64-point leaves
    (Maneewongvatana & Mount 1999): volume- and bbox-tier queries lie far
    from the surface, and this tree answers them much sooner than the
    default balanced one.  Exact nearest-neighbour distances do not depend
    on the tree, so neither do the distances here.  Only where two surface
    samples are exactly equally near a position (coincident samples, say)
    and their normals disagree can another tree pick the other sample, and
    so the other sign.
    """
    if surface.normals is None:
        raise InvalidInputError("labelling surface cloud must carry normals")
    pos = _as_points(positions, "positions")
    tree = cKDTree(surface.points, leafsize=64, balanced_tree=False, compact_nodes=False)
    dists, idx = tree.query(pos, k=1)
    offsets = pos - surface.points[idx]
    dots = np.einsum("ij,ij->i", offsets, surface.normals[idx])
    signs = np.where(dots < 0.0, -1.0, 1.0)
    return dists * signs


def label_queries(queries: QuerySet, labelling_cloud: PointCloud) -> QuerySet:
    sdf = label_sdf(queries.positions, labelling_cloud)
    return QuerySet(queries.positions, queries.tiers, sdf)


def prepare_samples(
    clouds: dict[str, PointCloud], canonical_id: str, counts: QueryCounts, seed: int
) -> tuple[QuerySet, NormalizationRecord, dict[str, AlignmentResult]]:
    """Labelled training queries pooled from oriented clouds of one shape.

    The canonical cloud keeps its pose and every other cloud is aligned
    onto it.  One record over the union of the aligned clouds normalizes
    them all, each cloud draws its own tiers, and the pooled queries are
    labelled against the union.  Returns the queries, the record and the
    alignment of each cloud but the canonical one, by id.
    """
    target = clouds[canonical_id]
    alignments = {
        case_id: pose_align(cloud, target, seed=derive_seed(seed, f"align-{case_id}"))
        for case_id, cloud in clouds.items()
        if case_id != canonical_id
    }
    aligned = [
        alignments[case_id].aligned if case_id in alignments else cloud
        for case_id, cloud in clouds.items()
    ]
    points = np.vstack([cloud.points for cloud in aligned])
    # One record over the union keeps every aligned cloud inside the
    # unit cube; for a single training cloud this is its own bbox.
    record = normalization_from_bounds(points.min(axis=0), points.max(axis=0))
    normalized = [PointCloud(record.normalize(cloud.points), cloud.normals) for cloud in aligned]
    tiered = [
        sample_queries_from_cloud(cloud, counts, derive_seed(seed, f"queries-{case_id}"))[0]
        for case_id, cloud in zip(clouds, normalized)
    ]
    pooled = QuerySet(
        np.vstack([q.positions for q in tiered]), np.concatenate([q.tiers for q in tiered])
    )
    union = PointCloud(record.normalize(points), np.vstack([cloud.normals for cloud in aligned]))
    return label_queries(pooled, union), record, alignments


_RECORD_DTYPE = np.dtype(
    [("position", "<f8", (3,)), ("sdf", "<f8"), ("tier", "u1")]
)


def write_samples(path: str | Path, queries: QuerySet, meta: dict) -> None:
    """Write labelled queries as packed little-endian records plus a JSON sidecar."""
    if not queries.is_labelled:
        raise InvalidInputError("refusing to write unlabelled query samples")
    path = Path(path)
    records = np.zeros(len(queries), dtype=_RECORD_DTYPE)
    records["position"] = queries.positions
    records["sdf"] = queries.sdf
    records["tier"] = queries.tiers
    with open(path, "wb") as fh:
        fh.write(records.tobytes())
    sidecar = dict(meta)
    tier_counts = {
        tier.name.lower(): int(np.sum(queries.tiers == int(tier))) for tier in Tier
    }
    sidecar["counts"] = tier_counts
    sidecar["total"] = len(queries)
    write_json(path.with_suffix(".json"), sidecar)


def read_samples(path: str | Path) -> tuple[QuerySet, dict]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) % _RECORD_DTYPE.itemsize != 0:
        raise InvalidInputError(
            f"{path}: size {len(raw)} is not a whole number of sample records"
        )
    records = np.frombuffer(raw, dtype=_RECORD_DTYPE)
    meta = read_json(path.with_suffix(".json"), "sample sidecar")
    try:
        queries = QuerySet(
            np.ascontiguousarray(records["position"], dtype=np.float64),
            np.ascontiguousarray(records["tier"]),
            np.ascontiguousarray(records["sdf"], dtype=np.float64),
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    total = read_value(int, meta.get("total"), str(path.with_suffix(".json")), "total")
    if total != len(queries):
        raise InvalidInputError(
            f"{path.with_suffix('.json')}: total: {total} does not match the "
            f"{len(queries)} records of {path}"
        )
    return queries, meta
