"""End-to-end commands behind the command line.

Each command reads what the previous one wrote under the configured
output directory, so prepare -> train -> detect -> repair/eval chains
through files rather than shared state: detect aligns each test cloud
once, and repair and eval start from its artifacts, eval without the
model.  Every artifact is deterministic for a fixed config and seed:
sorted case order, sorted JSON keys, no timestamps.

Prepare writes ``samples.bin`` with its ``samples.json`` sidecar,
``canonical.ply`` and ``prepare.json``; train writes ``model.ckpt`` with
its ``model.json`` sidecar and ``loss_history.csv``; detect writes
``detect/<id>_scores.ply`` per case and ``detect/results.json``; repair
writes ``repair/<id>_repaired.ply`` and ``.obj`` per repaired case and
``repair/results.json``; eval writes ``eval.json``.  A ``results.json``
holds case rows only, under ``cases``, each exactly the fields of
``DetectCase`` or ``RepairCase``; a detect row's ``rotation`` and
``translation`` move its score map's float64 points into the canonical
frame, exactly as detect scored them.

A config section left out runs the gated defaults (``configs/bench.json``).
Detect's object score is the mean of the ``DEFAULT_TOP_K`` largest point
scores.  Repair samples as many points as the detected cloud holds, so its
chamfer compares input and repair at equal counts; its EMD matches
``DEFAULT_EMD_SUBSAMPLE`` points of each cloud.

Only repair (for references) and eval read the labels manifest, and
eval is the one command that pools dataset metrics.  The manifest is a
JSON document
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

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .encoding import EncodingConfig
from .errors import CheckpointMismatchError, InvalidInputError, PasdfError
from .geometry import (
    NORMALS_K,
    PointCloud,
    RigidTransform,
    apply_points,
    apply_transform,
    estimate_normals,
)
from .mesh import NormalizationRecord, TriMesh
from .meshio import (
    make_dir, read_json, read_ply, read_record, write_cloud_ply, write_json, write_obj
)
from .network import SdfModel
from .queries import prepare_samples, read_samples, write_samples
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

_Row = tuple[float, float, float]


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
    rotation: tuple[_Row, _Row, _Row]
    translation: _Row

    def __post_init__(self) -> None:
        self.pose()  # RigidTransform refuses a reflection.

    def pose(self) -> RigidTransform:
        """The input-to-canonical motion detect's alignment found."""
        return RigidTransform(np.array(self.rotation), np.array(self.translation))


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


@dataclass(frozen=True)
class RepairCase:
    id: str
    failed: bool = False
    error: str | None = None
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
    its pose; ``queries.prepare_samples`` aligns every other training
    cloud onto it and normalizes all of them with a single shared record,
    so the pooled queries live in one frame.
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

    out_dir = make_dir(config.io.out_dir)
    clouds: dict[str, PointCloud] = {}
    for case_id, path in zip(ids, files):
        cloud = _read_cloud(path)
        if cloud.normals is None:
            if len(cloud) < NORMALS_K:
                raise InvalidInputError(
                    f"{path}: {len(cloud)} points without normals; "
                    f"estimating normals needs at least {NORMALS_K}"
                )
            cloud = _outward_normals(cloud)
        clouds[case_id] = cloud

    target = clouds[canonical_id]
    if target.bbox_diagonal() == 0.0:
        raise InvalidInputError(
            f"{files[ids.index(canonical_id)]}: canonical cloud's points all coincide"
        )
    labelled, record, alignments = prepare_samples(
        clouds, canonical_id, config.counts, derive_seed(config.seed, "prepare")
    )
    for case_id, result in alignments.items():
        if not result.converged:
            log.warning(
                "training cloud %s did not meet the alignment threshold "
                "(chamfer %.6f); keeping its first round's pose",
                case_id,
                result.chamfer,
            )
    alignment_meta = {
        case_id: {"converged": result.converged, "chamfer": result.chamfer, "rounds": result.rounds}
        for case_id, result in alignments.items()
    }

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
    """Align each test cloud once and score it against the trained field.

    Each input gets a score-map PLY (the cloud in its original pose with
    per-point scores) and a results row with its score and pose.  The
    labels manifest is not read here; eval pools the dataset metrics.
    """
    model, encoding, canonical, record = _load_model_artifacts(config)
    paths = _scan_clouds(config.io.test_dir)

    detect_dir = make_dir(Path(config.io.out_dir) / DETECT_DIR)
    cases: list[DetectCase] = []
    if not paths:
        log.warning("no test clouds to detect in %s", config.io.test_dir)
    for path in paths:
        case_id = path.stem
        cloud = _read_cloud(path)
        report = score_points(
            model,
            encoding,
            cloud,
            canonical,
            record,
            seed=derive_seed(config.seed, f"detect-{case_id}"),
            align=True,
        ).with_object_score()
        score_map = f"{case_id}_scores.ply"
        write_cloud_ply(detect_dir / score_map, cloud, scores=report.per_point_scores)
        cases.append(
            DetectCase(
                id=case_id,
                object_score=float(report.object_score),
                converged=report.converged,
                n_points=len(cloud),
                score_map=score_map,
                rotation=tuple(map(tuple, report.transform.rotation.tolist())),
                translation=tuple(report.transform.translation.tolist()),
            )
        )

    results_path = detect_dir / RESULTS_FILE
    write_json(results_path, {"cases": [asdict(case) for case in cases]})
    return DetectSummary(results_path=results_path, cases=tuple(cases))


def cmd_repair(config: RunConfig) -> RepairSummary:
    """Reconstruct a clean stand-in for each case detect scored.

    The cloud is read from the case's score map and moved by detect's
    pose, not aligned again.  A failed repair marks its row and the
    batch continues.  Outputs are written in the input's own pose;
    quality against a reference from the labels manifest is measured
    in the canonical frame, where the reference lives.
    """
    model, encoding, canonical, record = _load_model_artifacts(config)
    detect_dir = Path(config.io.out_dir) / DETECT_DIR
    detected = _read_detect_results(detect_dir)
    labels = _read_labels(config.io.labels) if config.io.labels else {}

    repair_dir = make_dir(Path(config.io.out_dir) / REPAIR_DIR)
    cases: list[RepairCase] = []
    for case in detected:
        pose = case.pose()
        cloud = _read_cloud(detect_dir / case.score_map)
        try:
            result = repair(
                apply_transform(pose, cloud),
                model,
                encoding,
                canonical,
                record,
                seed=derive_seed(config.seed, f"repair-{case.id}"),
                expand=config.counts.bbox_expand,
                resolution=config.grid.resolution,
                n_points=len(cloud),
                align=False,
            )
        except PasdfError as error:
            log.warning("repair of %s failed: %s", case.id, error)
            cases.append(RepairCase(id=case.id, failed=True, error=str(error)))
            continue

        cloud_file = f"{case.id}_repaired.ply"
        mesh_file = f"{case.id}_repaired.obj"
        back = pose.inverse()
        write_cloud_ply(repair_dir / cloud_file, apply_transform(back, result.repaired))
        write_obj(
            repair_dir / mesh_file,
            TriMesh(apply_points(back, result.mesh.vertices), result.mesh.faces),
        )
        chamfer = emd = None
        entry = labels.get(case.id)
        if entry and entry.reference:
            # An absolute reference replaces the manifest's directory.
            reference = _read_cloud(Path(config.io.labels).parent / entry.reference)
            quality = repair_quality(
                result.repaired,
                reference,
                seed=derive_seed(config.seed, f"quality-{case.id}"),
            )
            chamfer, emd = quality.chamfer, quality.emd
        cases.append(
            RepairCase(id=case.id, cloud=cloud_file, mesh=mesh_file, chamfer=chamfer, emd=emd)
        )

    results_path = repair_dir / RESULTS_FILE
    write_json(results_path, {"cases": [asdict(case) for case in cases]})
    return RepairSummary(results_path=results_path, cases=tuple(cases))


def cmd_eval(config: RunConfig) -> EvalSummary:
    """Pool the dataset metrics from detect's artifacts and the labels.

    Object AUROC covers the detected cases whose manifest entry carries
    an object label; point AUROC pools those that also list anomalous
    points.  Object scores come from the results rows and per-point
    scores from the float32 values the score maps store, so this never
    loads the model.  A labels manifest is required, must label a
    detected case, and each AUROC must see both classes.
    """
    if config.io.labels is None:
        raise InvalidInputError("evaluation requires a labels manifest (io.labels)")
    labels = _read_labels(config.io.labels)
    detect_dir = Path(config.io.out_dir) / DETECT_DIR
    object_scores: list[float] = []
    object_labels: list[int] = []
    pooled_scores: list[np.ndarray] = []
    pooled_labels: list[np.ndarray] = []
    for case in _read_detect_results(detect_dir):
        entry = labels.get(case.id)
        if entry is None or entry.object is None:
            continue
        object_scores.append(case.object_score)
        object_labels.append(entry.object)
        points = entry.anomalous_points
        if points is None:
            continue
        scores = read_ply(detect_dir / case.score_map).scores
        if scores is None:
            raise InvalidInputError(f"{case.score_map}: score map carries no anomaly scores")
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
    if not object_labels:
        raise InvalidInputError("labels manifest covers none of the detected cases")

    o_auroc = auroc(np.asarray(object_scores), np.asarray(object_labels))
    p_auroc = pooled_auroc(pooled_scores, pooled_labels) if pooled_labels else None
    n_cases = len(object_labels)
    results_path = Path(config.io.out_dir) / EVAL_FILE
    write_json(results_path, {"o_auroc": o_auroc, "p_auroc": p_auroc, "n_cases": n_cases})
    return EvalSummary(
        results_path=results_path, o_auroc=o_auroc, p_auroc=p_auroc, n_cases=n_cases
    )


def _read_detect_results(detect_dir: Path) -> list[DetectCase]:
    """The rows of detect's results file, which names its score maps."""
    source = detect_dir / RESULTS_FILE
    rows = read_json(source, "detect results").get("cases")
    if not isinstance(rows, list):
        raise InvalidInputError(f"{source}: detect results need a 'cases' list")
    return [read_record(DetectCase, row, f"{source}: cases[{i}]") for i, row in enumerate(rows)]


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
    canonical = _read_cloud(out_dir / CANONICAL_FILE)
    return model, encoding, canonical, record


def _scan_clouds(directory: str | Path) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"cloud directory not found: {root}")
    return sorted(root.glob("*.ply"))


def _read_cloud(path: Path) -> PointCloud:
    """The cloud a PLY file holds; an unusable one is refused naming the file."""
    content = read_ply(path)
    try:
        return PointCloud(content.points, content.normals)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _outward_normals(cloud: PointCloud) -> PointCloud:
    """Estimated normals oriented away from the centroid."""
    centroid = cloud.points.mean(axis=0)
    oriented, degenerate = estimate_normals(cloud, NORMALS_K, centroid)
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
