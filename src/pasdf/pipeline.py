"""End-to-end commands behind the command line.

Each command reads what the previous one wrote under the configured
output directory, so prepare -> train -> detect/repair chains through
files rather than shared state, and eval recomputes metrics from
detect's artifacts without touching the model again.  Every artifact is
deterministic for a fixed config and seed: sorted case order, sorted
JSON keys, no timestamps.

Prepare writes ``samples.bin`` with its ``samples.json`` sidecar,
``canonical.ply`` and ``prepare.json``; train writes ``model.ckpt`` with
its ``model.json`` sidecar and ``loss_history.csv``; detect writes
``detect/<id>_scores.ply`` per case and ``detect/results.json``; repair
writes ``repair/<id>_repaired.ply`` and ``.obj`` per repaired case and
``repair/results.json``; eval writes ``eval.json``.  A ``results.json``
row is exactly the fields of ``DetectCase`` or ``RepairCase``.

The optional labels manifest is a JSON document
``{"cases": {"<id>": {"object": 0 or 1, "anomalous_points": [...],
"reference": "clean.ply"}}}`` keyed by input file stem; each entry is
read as a ``LabelEntry``.  ``anomalous_points`` lists anomalous point
indices for point-level metrics, each of which must lie in the case's
cloud, and ``reference`` names a clean cloud (relative paths resolve
against the manifest's directory, and the cloud lives in the canonical
frame) for repair quality.  Every key of an entry is optional, a null
value counts as absent, and an unknown key is rejected.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bench import BenchResult, run_bench
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .encoding import EncodingConfig
from .errors import (
    CheckpointMismatchError,
    InvalidInputError,
    PasdfError,
    UndefinedMetricError,
)
from .geometry import PointCloud, apply_points, estimate_normals
from .mesh import NormalizationRecord, TriMesh, normalization_from_bounds
from .meshio import (
    PlyContent,
    read_json,
    read_ply,
    read_record,
    write_cloud_ply,
    write_json,
    write_obj,
)
from .network import SdfModel
from .queries import QuerySet, label_queries, read_samples, sample_queries_from_cloud, write_samples
from .registration import pose_align
from .repair import repair, repair_quality
from .rng import derive_seed
from .scoring import auroc, pooled_auroc, score_points
from .training import train_model

log = logging.getLogger(__name__)

SAMPLES_FILE = "samples.bin"
CANONICAL_FILE = "canonical.ply"
PREPARE_FILE = "prepare.json"
CHECKPOINT_FILE = "model.ckpt"
LOSS_HISTORY_FILE = "loss_history.csv"
DETECT_DIR = "detect"
REPAIR_DIR = "repair"
RESULTS_FILE = "results.json"
EVAL_FILE = "eval.json"

_NORMALS_K = 16


@dataclass(frozen=True)
class PrepareSummary:
    samples_path: Path
    canonical_path: Path
    metadata_path: Path
    canonical_id: str
    train_ids: tuple[str, ...]
    n_records: int


@dataclass(frozen=True)
class TrainSummary:
    checkpoint_path: Path
    history_path: Path
    epochs_run: int
    final_loss: float


@dataclass(frozen=True)
class DetectCase:
    id: str
    object_score: float
    converged: bool
    n_points: int
    score_map: str


@dataclass(frozen=True)
class LabelEntry:
    """One case of the labels manifest, as the module docstring lays out."""

    object: int | None = None
    anomalous_points: tuple[int, ...] | None = None
    reference: str | None = None

    def __post_init__(self) -> None:
        if self.object not in (None, 0, 1):
            raise InvalidInputError(f"object must be 0 or 1, got {self.object!r}")


@dataclass(frozen=True)
class DetectSummary:
    results_path: Path
    cases: tuple[DetectCase, ...]
    o_auroc: float | None
    p_auroc: float | None


@dataclass(frozen=True)
class RepairCase:
    id: str
    failed: bool = False
    error: str | None = None
    converged: bool | None = None
    cloud: str | None = None
    mesh: str | None = None
    chamfer: float | None = None
    emd: float | None = None


@dataclass(frozen=True)
class RepairSummary:
    results_path: Path
    cases: tuple[RepairCase, ...]


@dataclass(frozen=True)
class EvalSummary:
    results_path: Path
    o_auroc: float
    p_auroc: float | None
    n_cases: int


def cmd_prepare(config: RunConfig, canonical_id: str | None = None) -> PrepareSummary:
    """Turn raw training clouds into one pooled, labelled sample file.

    The canonical cloud (first sorted id unless named explicitly) keeps
    its pose; every other training cloud is aligned onto it, and all of
    them are normalized with a single shared record so the pooled
    queries live in one frame.
    """
    files = _scan_clouds(config.io.train_dir)
    if not files:
        raise InvalidInputError(
            f"no training clouds (*.ply) in {config.io.train_dir}"
        )
    ids = [path.stem for path in files]
    if canonical_id is None:
        canonical_id = ids[0]
    elif canonical_id not in ids:
        raise InvalidInputError(
            f"canonical id {canonical_id!r} is not a training cloud; have {ids}"
        )

    clouds: dict[str, PointCloud] = {}
    for case_id, path in zip(ids, files):
        cloud = _cloud_from_ply(read_ply(path))
        if cloud.normals is None:
            cloud = _outward_normals(cloud)
        clouds[case_id] = cloud

    prepare_seed = derive_seed(config.seed, "prepare")
    target = clouds[canonical_id]
    aligned: dict[str, PointCloud] = {canonical_id: target}
    alignment_meta: dict[str, dict] = {}
    for case_id in ids:
        if case_id == canonical_id:
            continue
        result = pose_align(
            clouds[case_id],
            target,
            seed=derive_seed(prepare_seed, f"align-{case_id}"),
        )
        if not result.converged:
            log.warning(
                "training cloud %s did not meet the alignment threshold "
                "(chamfer %.6f); keeping its first round's pose",
                case_id,
                result.chamfer,
            )
        aligned[case_id] = result.aligned
        alignment_meta[case_id] = {
            "converged": result.converged,
            "chamfer": result.chamfer,
            "rounds": result.rounds,
        }

    # One record over the union keeps every aligned cloud inside the
    # unit cube; for a single training cloud this is its own bbox.
    lower = np.min([aligned[i].points.min(axis=0) for i in ids], axis=0)
    upper = np.max([aligned[i].points.max(axis=0) for i in ids], axis=0)
    record = normalization_from_bounds(lower, upper)

    normalized = [
        PointCloud(record.normalize(aligned[i].points), aligned[i].normals) for i in ids
    ]
    tiered = [
        sample_queries_from_cloud(
            cloud, config.counts, derive_seed(prepare_seed, f"queries-{case_id}")
        )[0]
        for case_id, cloud in zip(ids, normalized)
    ]
    pooled = QuerySet(
        np.vstack([q.positions for q in tiered]), np.concatenate([q.tiers for q in tiered])
    )
    union = PointCloud(
        np.vstack([cloud.points for cloud in normalized]),
        np.vstack([cloud.normals for cloud in normalized]),
    )
    labelled = label_queries(pooled, union)

    out_dir = Path(config.io.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metadata = {
        "canonical_id": canonical_id,
        "canonical_file": CANONICAL_FILE,
        "samples_file": SAMPLES_FILE,
        "record": record.to_dict(),
        "train_ids": ids,
        "alignment": alignment_meta,
        "total_records": len(labelled),
        "seed": config.seed,
    }
    samples_path = out_dir / SAMPLES_FILE
    write_samples(samples_path, labelled, metadata)
    canonical_path = out_dir / CANONICAL_FILE
    write_cloud_ply(canonical_path, target)
    metadata_path = out_dir / PREPARE_FILE
    write_json(metadata_path, metadata)
    return PrepareSummary(
        samples_path=samples_path,
        canonical_path=canonical_path,
        metadata_path=metadata_path,
        canonical_id=canonical_id,
        train_ids=tuple(ids),
        n_records=len(labelled),
    )


def cmd_train(config: RunConfig) -> TrainSummary:
    """Fit the field to the prepared samples and write the checkpoint."""
    out_dir = Path(config.io.out_dir)
    queries, _meta = read_samples(out_dir / SAMPLES_FILE)
    train_config = replace(config.training, seed=derive_seed(config.seed, "train"))
    trained = train_model(queries, train_config, config.encoding, config.network)

    checkpoint_path = out_dir / CHECKPOINT_FILE
    save_checkpoint(
        checkpoint_path,
        trained.model,
        encoding=config.encoding,
        metadata={
            "epochs_run": len(trained.loss_history),
            "final_loss": trained.loss_history[-1] if trained.loss_history else None,
            "n_records": len(queries),
        },
    )
    history_path = out_dir / LOSS_HISTORY_FILE
    with open(history_path, "w", encoding="ascii") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(trained.loss_history):
            fh.write(f"{epoch},{loss!r}\n")
    return TrainSummary(
        checkpoint_path=checkpoint_path,
        history_path=history_path,
        epochs_run=len(trained.loss_history),
        final_loss=trained.final_loss,
    )


def cmd_detect(config: RunConfig) -> DetectSummary:
    """Score test clouds against the trained field.

    Each input gets a score-map PLY (the cloud in its original pose
    with per-point scores) and a row in the results JSON; when a labels
    manifest covers the inputs, dataset AUROCs are attached.
    """
    model, encoding, canonical, record = _load_model_artifacts(config)
    paths = _scan_clouds(config.io.test_dir)
    labels = _read_labels(config.io.labels) if config.io.labels else None

    detect_dir = Path(config.io.out_dir) / DETECT_DIR
    detect_dir.mkdir(parents=True, exist_ok=True)
    cases: list[DetectCase] = []
    score_vectors: dict[str, np.ndarray] = {}
    if not paths:
        log.warning("no test clouds to detect in %s", config.io.test_dir)
    for path in paths:
        case_id = path.stem
        cloud = _cloud_from_ply(read_ply(path))
        report = score_points(
            model,
            encoding,
            cloud,
            canonical,
            record,
            seed=derive_seed(config.seed, f"detect-{case_id}"),
            align=True,
        ).with_object_score(config.scoring.top_k)
        score_map = f"{case_id}_scores.ply"
        write_cloud_ply(detect_dir / score_map, cloud, scores=report.per_point_scores)
        # Pool the float32 values the score map stores, so eval, which
        # reads them back, reproduces these metrics exactly.
        score_vectors[case_id] = report.per_point_scores.astype(np.float32)
        cases.append(
            DetectCase(
                id=case_id,
                object_score=float(report.object_score),
                converged=report.converged,
                n_points=len(cloud),
                score_map=score_map,
            )
        )

    o_auroc = p_auroc = None
    if labels is not None and cases:
        o_auroc, p_auroc = _dataset_metrics(
            cases, lambda case: score_vectors[case.id], labels, strict=False
        )
    results_path = detect_dir / RESULTS_FILE
    write_json(
        results_path,
        {"cases": [asdict(case) for case in cases], "o_auroc": o_auroc, "p_auroc": p_auroc},
    )
    return DetectSummary(
        results_path=results_path,
        cases=tuple(cases),
        o_auroc=o_auroc,
        p_auroc=p_auroc,
    )


def cmd_repair(config: RunConfig) -> RepairSummary:
    """Reconstruct a clean stand-in for each test cloud.

    A failed repair marks its row and the batch continues.  Repaired
    clouds are written in the input's own pose; quality against a
    reference from the labels manifest is measured in the canonical
    frame, where the reference lives.
    """
    model, encoding, canonical, record = _load_model_artifacts(config)
    paths = _scan_clouds(config.io.test_dir)
    labels = _read_labels(config.io.labels) if config.io.labels else None
    labels_root = Path(config.io.labels).parent if config.io.labels else None

    repair_dir = Path(config.io.out_dir) / REPAIR_DIR
    repair_dir.mkdir(parents=True, exist_ok=True)
    cases: list[RepairCase] = []
    if not paths:
        log.warning("no test clouds to repair in %s", config.io.test_dir)
    for path in paths:
        case_id = path.stem
        cloud = _cloud_from_ply(read_ply(path))
        try:
            result = repair(
                cloud,
                model,
                encoding,
                canonical,
                record,
                seed=derive_seed(config.seed, f"repair-{case_id}"),
                expand=config.counts.bbox_expand,
                resolution=config.grid.resolution,
                n_points=config.repair.n_points,
                align=True,
            )
        except PasdfError as error:
            log.warning("repair of %s failed: %s", case_id, error)
            cases.append(RepairCase(id=case_id, failed=True, error=str(error)))
            continue

        cloud_file = f"{case_id}_repaired.ply"
        mesh_file = f"{case_id}_repaired.obj"
        write_cloud_ply(repair_dir / cloud_file, result.in_input_frame())
        back = result.transform.inverse()
        write_obj(
            repair_dir / mesh_file,
            TriMesh(apply_points(back, result.mesh.vertices), result.mesh.faces),
        )
        chamfer = emd = None
        entry = labels.get(case_id) if labels else None
        if entry and entry.reference:
            reference_path = Path(entry.reference)
            if not reference_path.is_absolute():
                reference_path = labels_root / reference_path
            reference = _cloud_from_ply(read_ply(reference_path))
            quality = repair_quality(
                result.repaired,
                reference,
                seed=derive_seed(config.seed, f"quality-{case_id}"),
                emd_subsample=config.repair.emd_subsample,
            )
            chamfer, emd = quality.chamfer, quality.emd
        cases.append(
            RepairCase(
                id=case_id,
                converged=result.converged,
                cloud=cloud_file,
                mesh=mesh_file,
                chamfer=chamfer,
                emd=emd,
            )
        )

    results_path = repair_dir / RESULTS_FILE
    write_json(results_path, {"cases": [asdict(case) for case in cases]})
    return RepairSummary(results_path=results_path, cases=tuple(cases))


def cmd_eval(config: RunConfig) -> EvalSummary:
    """Recompute dataset metrics from detect's artifacts.

    Object scores come from the results JSON and per-point scores from
    the score-map PLYs, so this never loads the model; a labels
    manifest is required and must cover both classes.
    """
    if config.io.labels is None:
        raise InvalidInputError("evaluation requires a labels manifest (io.labels)")
    labels = _read_labels(config.io.labels)
    detect_dir = Path(config.io.out_dir) / DETECT_DIR
    source = detect_dir / RESULTS_FILE
    rows = read_json(source, "detect results").get("cases")
    if not isinstance(rows, list):
        raise InvalidInputError(f"{source}: detect results need a 'cases' list")
    cases = [read_record(DetectCase, row, f"{source}: cases[{i}]") for i, row in enumerate(rows)]
    n_cases = len(_labelled_cases(cases, labels))
    if not n_cases:
        raise InvalidInputError("labels manifest covers none of the detected cases")

    def stored_scores(case: DetectCase) -> np.ndarray:
        content = read_ply(detect_dir / case.score_map)
        if content.scores is None:
            raise InvalidInputError(
                f"{case.score_map}: score map carries no anomaly scores"
            )
        return content.scores

    o_auroc, p_auroc = _dataset_metrics(cases, stored_scores, labels, strict=True)
    results_path = Path(config.io.out_dir) / EVAL_FILE
    write_json(results_path, {"o_auroc": o_auroc, "p_auroc": p_auroc, "n_cases": n_cases})
    return EvalSummary(
        results_path=results_path, o_auroc=o_auroc, p_auroc=p_auroc, n_cases=n_cases
    )


def cmd_bench(config: RunConfig) -> BenchResult:
    """Run the synthetic benchmark, writing its artifacts to out_dir."""
    out_dir = Path(config.io.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_bench(config, out_dir=out_dir)


def _labelled_cases(
    cases: Sequence[DetectCase], labels: dict[str, LabelEntry]
) -> list[tuple[DetectCase, LabelEntry]]:
    """Cases whose manifest entry carries an object label, with the entry."""
    entries = [(case, labels.get(case.id)) for case in cases]
    return [
        (case, entry)
        for case, entry in entries
        if entry is not None and entry.object is not None
    ]


def _dataset_metrics(
    cases: Sequence[DetectCase],
    scores_of: Callable[[DetectCase], np.ndarray],
    labels: dict[str, LabelEntry],
    strict: bool,
) -> tuple[float | None, float | None]:
    """Object AUROC over labelled cases and point AUROC pooled over the
    cases that list anomalous points.

    With ``strict`` an AUROC missing a class raises; otherwise it is
    logged and left out as None.
    """
    object_scores: list[float] = []
    object_labels: list[int] = []
    pooled_scores: list[np.ndarray] = []
    pooled_labels: list[np.ndarray] = []
    for case, entry in _labelled_cases(cases, labels):
        object_scores.append(case.object_score)
        object_labels.append(entry.object)
        points = entry.anomalous_points
        if points is None:
            continue
        scores = scores_of(case)
        # Checked as Python ints, before numpy narrows them to int64.
        outside = [i for i in points if not 0 <= i < len(scores)]
        if outside:
            raise InvalidInputError(
                f"{case.id}: anomalous point index {outside[0]} is outside the "
                f"cloud's {len(scores)} points"
            )
        marks = np.zeros(len(scores), dtype=np.int64)
        marks[np.asarray(points, dtype=np.int64)] = 1
        pooled_scores.append(np.asarray(scores, dtype=np.float64))
        pooled_labels.append(marks)

    o_auroc = p_auroc = None
    if object_labels:
        try:
            o_auroc = auroc(np.asarray(object_scores), np.asarray(object_labels))
        except UndefinedMetricError as error:
            if strict:
                raise
            log.warning("object AUROC left out: %s", error)
    if pooled_labels:
        try:
            p_auroc = pooled_auroc(pooled_scores, pooled_labels)
        except UndefinedMetricError as error:
            if strict:
                raise
            log.warning("point AUROC left out: %s", error)
    return o_auroc, p_auroc


def _load_model_artifacts(
    config: RunConfig,
) -> tuple[SdfModel, EncodingConfig, PointCloud, NormalizationRecord]:
    out_dir = Path(config.io.out_dir)
    checkpoint_path = out_dir / CHECKPOINT_FILE
    if not checkpoint_path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {checkpoint_path}")
    model, encoding, _meta = load_checkpoint(checkpoint_path)
    if encoding != config.encoding:
        raise CheckpointMismatchError(
            f"checkpoint encoding {encoding} does not match configured {config.encoding}"
        )
    if model.config != config.network:
        raise CheckpointMismatchError(
            f"checkpoint network {model.config} does not match configured {config.network}"
        )
    prepare_path = out_dir / PREPARE_FILE
    record = read_record(
        NormalizationRecord,
        read_json(prepare_path, "prepare metadata").get("record"),
        f"{prepare_path}: normalisation record",
    )
    canonical = _cloud_from_ply(read_ply(out_dir / CANONICAL_FILE))
    return model, encoding, canonical, record


def _scan_clouds(directory: str | Path) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"cloud directory not found: {root}")
    return sorted(root.glob("*.ply"))


def _cloud_from_ply(content: PlyContent) -> PointCloud:
    return PointCloud(content.points, content.normals)


def _outward_normals(cloud: PointCloud) -> PointCloud:
    """Estimated normals oriented away from the centroid."""
    centroid = cloud.points.mean(axis=0)
    oriented, degenerate = estimate_normals(cloud, _NORMALS_K, centroid)
    if degenerate:
        log.warning("%d points had degenerate normal neighbourhoods", degenerate)
    return PointCloud(cloud.points, -oriented.normals)


def _read_labels(path: str | Path) -> dict[str, LabelEntry]:
    """The manifest's entries by case id."""
    cases = read_json(path, "labels manifest").get("cases")
    if not isinstance(cases, dict):
        raise InvalidInputError(f"{path}: labels manifest needs a 'cases' object")
    return {
        case_id: read_record(LabelEntry, entry, f"{path}: labels manifest case {case_id!r}")
        for case_id, entry in cases.items()
    }
