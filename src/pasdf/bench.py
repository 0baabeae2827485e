"""Synthetic end-to-end benchmark.

Each shape gets its own model, trained the way ``pasdf prepare`` trains
(``queries.prepare_samples``) on one dense scan of its clean mesh; then a
set of normal and anomalous test clouds in random poses is detected,
scored, and repaired.  Every random draw derives from the run's root seed
through named streams, so two runs with the same configuration produce
byte-identical metrics tables regardless of worker count.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import BENCH_ANOMALY_KINDS, BENCH_SHAPE_KINDS, BenchConfig, RunConfig
from .defects import bulge, crop, dent, noise_patch
from .errors import InvalidParameterError, PasdfError
from .geometry import PointCloud, apply_transform, random_rigid
from .mesh import TriMesh, sample_surface
from .meshio import make_dir, write_cloud_ply, write_json
from .queries import prepare_samples
from .repair import repair, repair_quality
from .rng import derive_seed, stream
from .scoring import auroc, pooled_auroc, score_points
from .shapes import box, capsule, sphere, torus
from .training import train_model

# Points in the one training scan of each shape.  Detection aligns onto a
# separate cloud_points sampling: onto the scan itself, a normal box cloud
# came out 4.8 degrees off yet converged (ROADMAP M8).
_SCAN_POINTS = 66_000
_REPAIRED_KINDS = ("dent", "crop")


@dataclass(frozen=True)
class ShapeSpec:
    """Which bench surface to build; each kind has one fixed size and
    tessellation."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in BENCH_SHAPE_KINDS:
            raise InvalidParameterError(f"unknown shape kind '{self.kind}'")


def generate_shape(spec: ShapeSpec, seed: int) -> TriMesh:
    """Build the watertight mesh a spec describes.

    ``seed`` is unread: each kind is one fixed mesh.  The argument stays
    only because the benchmark in ``perfbench/inputs.py`` passes it.
    """
    del seed
    if spec.kind == "sphere":
        return sphere()
    if spec.kind == "box":
        return box()
    if spec.kind == "torus":
        return torus()
    return capsule()


@dataclass(frozen=True)
class AnomalySpec:
    """One localized defect: what kind, where, how wide, how strong.

    Magnitude is the peak surface displacement for dents and bulges and
    the jitter scale for noise patches; crops ignore it.  Zero magnitude
    is allowed and leaves the cloud untouched, which gives parameter
    sweeps a clean baseline.
    """

    kind: str
    center: tuple[float, float, float]
    radius: float
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BENCH_ANOMALY_KINDS:
            raise InvalidParameterError(f"unknown anomaly kind '{self.kind}'")
        center = np.asarray(self.center, dtype=np.float64)
        if center.shape != (3,) or not np.isfinite(center).all():
            raise InvalidParameterError("center must be a finite 3-vector")
        if self.radius <= 0.0:
            raise InvalidParameterError("radius must be positive")
        if self.magnitude < 0.0:
            raise InvalidParameterError("magnitude must be >= 0")


def inject_anomaly(
    cloud: PointCloud, spec: AnomalySpec, seed: int
) -> tuple[PointCloud, np.ndarray]:
    """Apply a defect spec to a cloud; returns the cloud and point labels."""
    center = np.asarray(spec.center, dtype=np.float64)
    if spec.kind == "dent":
        result = dent(cloud, center=center, radius=spec.radius, magnitude=spec.magnitude)
    elif spec.kind == "bulge":
        result = bulge(cloud, center=center, radius=spec.radius, magnitude=spec.magnitude)
    elif spec.kind == "noise_patch":
        result = noise_patch(
            cloud, center=center, radius=spec.radius, magnitude=spec.magnitude, seed=seed
        )
    else:
        result = crop(cloud, center=center, radius=spec.radius)
    return result.cloud, result.labels


@dataclass(frozen=True)
class CaseResult:
    """Detection outcome for one test cloud."""

    name: str
    kind: str
    object_score: float
    object_score_no_pam: float
    converged: bool
    n_labelled: int
    in_pool: bool


@dataclass(frozen=True)
class RepairCaseResult:
    """Repair outcome for one dented or cropped test cloud."""

    name: str
    kind: str
    chamfer_before: float
    chamfer_after: float
    emd_before: float
    emd_after: float


@dataclass(frozen=True)
class ShapeResult:
    """All metrics for one benchmark shape; error marks a failed row.

    ``scored_cases`` holds the test clouds the metrics were computed on,
    so the artifacts written for the row are exactly what was scored.
    """

    shape: str
    o_auroc: float = float("nan")
    p_auroc: float = float("nan")
    o_auroc_no_pam: float = float("nan")
    final_loss: float = float("nan")
    cases: tuple[CaseResult, ...] = ()
    repairs: tuple[RepairCaseResult, ...] = ()
    error: str | None = None
    scored_cases: tuple[_Case, ...] = field(default=(), repr=False, compare=False)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class BenchResult:
    shapes: tuple[ShapeResult, ...]

    def row(self, shape: str) -> ShapeResult:
        for result in self.shapes:
            if result.shape == shape:
                return result
        raise KeyError(shape)


@dataclass(frozen=True)
class _Case:
    name: str
    kind: str
    seed: int
    posed: PointCloud
    labels: np.ndarray
    # Ground-truth stand-in: a sampling of the clean shape independent
    # of the one the anomaly was injected into, so repair quality is a
    # fair cloud-to-cloud comparison for input and repair alike.
    reference: PointCloud
    anomaly: AnomalySpec | None
    # Crop-track cases are detected and repaired but stay out of the
    # AUROC pools; removal leaves no displaced surface to rank on.
    in_pool: bool


def _build_cases(kind: str, mesh: TriMesh, config: RunConfig) -> list[_Case]:
    """Every test cloud of one shape: normal, anomalous, then crop-track."""
    bench = config.bench
    plan = [
        (f"normal-{i:02d}", "normal", f"normal-{i}", True) for i in range(bench.normal_cases)
    ]
    plan += [
        (f"{k}-{i:02d}", k, f"anomalous-{i}", True) for i, k in enumerate(bench.anomaly_kinds)
    ]
    plan += [
        (f"crop-track-{i:02d}", "crop", f"crop-{i}", False) for i in range(bench.crop_cases)
    ]
    cases = []
    for name, case_kind, tag, in_pool in plan:
        case_seed = derive_seed(config.seed, f"bench-{kind}-{tag}")
        cases.append(_make_case(name, case_kind, case_seed, mesh, bench, in_pool))
    return cases


def _make_case(
    name: str, kind: str, case_seed: int, mesh: TriMesh, bench: BenchConfig, in_pool: bool
) -> _Case:
    """One posed test cloud; a kind other than "normal" names the defect
    injected into it, and a normal cloud gets all-zero labels."""
    diagonal = mesh.bbox_diagonal()
    cloud = sample_surface(mesh, bench.cloud_points, seed=derive_seed(case_seed, "cloud"))
    labels = np.zeros(len(cloud), dtype=np.int64)
    spec = None
    if kind != "normal":
        rng = stream(case_seed, "anomaly")
        center = cloud.points[int(rng.integers(len(cloud)))]
        radius_frac = bench.crop_radius_frac if kind == "crop" else bench.radius_frac
        spec = AnomalySpec(
            kind=kind,
            center=tuple(float(v) for v in center),
            radius=radius_frac * diagonal,
            magnitude=bench.magnitude_frac * diagonal,
        )
        cloud, mask = inject_anomaly(cloud, spec, derive_seed(case_seed, "inject"))
        labels = mask.astype(np.int64)
    pose = random_rigid(stream(case_seed, "pose"), translation_scale=diagonal / 2.0)
    return _Case(
        name=name,
        kind=kind,
        seed=case_seed,
        posed=apply_transform(pose, cloud),
        labels=labels,
        reference=sample_surface(
            mesh, bench.cloud_points, seed=derive_seed(case_seed, "reference")
        ),
        anomaly=spec,
        in_pool=in_pool,
    )


def run_shape(kind: str, config: RunConfig) -> ShapeResult:
    """Train on a scan of one clean shape with its mesh normals, as
    ``prepare`` trains on one cloud, then detect and repair its test cases."""
    root = config.seed
    mesh = generate_shape(
        ShapeSpec(kind=kind), derive_seed(root, f"bench-shape-{kind}")
    )
    scan = sample_surface(mesh, _SCAN_POINTS, seed=derive_seed(root, f"bench-scan-{kind}"))
    labelled, record, _ = prepare_samples(
        {kind: scan}, kind, config.counts, derive_seed(root, f"bench-prepare-{kind}")
    )

    train_cfg = replace(config.training, seed=derive_seed(root, f"bench-train-{kind}"))
    trained = train_model(labelled, train_cfg, config.encoding, config.network)
    model = trained.model

    canonical = sample_surface(
        mesh, config.bench.cloud_points, seed=derive_seed(root, f"bench-canonical-{kind}")
    )
    cases = _build_cases(kind, mesh, config)

    reports = []
    identity_reports = []
    case_results: list[CaseResult] = []
    for case in cases:
        report = score_points(
            model,
            config.encoding,
            case.posed,
            canonical,
            record,
            seed=derive_seed(case.seed, "detect"),
        ).with_object_score()
        identity = score_points(
            model,
            config.encoding,
            case.posed,
            canonical,
            record,
            seed=derive_seed(case.seed, "detect-no-pam"),
            align=False,
        ).with_object_score()
        reports.append(report)
        identity_reports.append(identity)
        case_results.append(
            CaseResult(
                name=case.name,
                kind=case.kind,
                object_score=float(report.object_score),
                object_score_no_pam=float(identity.object_score),
                converged=report.converged,
                n_labelled=int(case.labels.sum()),
                in_pool=case.in_pool,
            )
        )

    pool = [index for index, case in enumerate(cases) if case.in_pool]
    object_labels = np.array(
        [0 if cases[index].kind == "normal" else 1 for index in pool], dtype=np.int64
    )
    o_auroc = auroc(np.array([reports[index].object_score for index in pool]), object_labels)
    p_auroc = pooled_auroc(
        [reports[index].per_point_scores for index in pool],
        [cases[index].labels for index in pool],
    )
    o_auroc_no_pam = auroc(
        np.array([identity_reports[index].object_score for index in pool]),
        object_labels,
    )

    repair_results: list[RepairCaseResult] = []
    for case, report in zip(cases, reports):
        if case.kind not in _REPAIRED_KINDS or not report.converged:
            continue
        aligned_input = apply_transform(report.transform, case.posed)
        repaired = repair(
            aligned_input,
            model,
            config.encoding,
            canonical,
            record,
            seed=derive_seed(case.seed, "repair"),
            expand=config.counts.bbox_expand,
            resolution=config.grid.resolution,
            n_points=config.bench.cloud_points,
            align=False,
        )
        before = repair_quality(
            aligned_input,
            case.reference,
            seed=derive_seed(case.seed, "quality-before"),
        )
        after = repair_quality(
            repaired.repaired,
            case.reference,
            seed=derive_seed(case.seed, "quality-after"),
        )
        repair_results.append(
            RepairCaseResult(
                name=case.name,
                kind=case.kind,
                chamfer_before=before.chamfer,
                chamfer_after=after.chamfer,
                emd_before=before.emd,
                emd_after=after.emd,
            )
        )

    return ShapeResult(
        shape=kind,
        o_auroc=float(o_auroc),
        p_auroc=float(p_auroc),
        o_auroc_no_pam=float(o_auroc_no_pam),
        final_loss=trained.final_loss,
        cases=tuple(case_results),
        repairs=tuple(repair_results),
        scored_cases=tuple(cases),
    )


def run_bench(config: RunConfig, out_dir: str | Path | None = None) -> BenchResult:
    """Run every configured shape; failures mark their row and move on.

    With ``out_dir`` the directory is made first, so an unusable one
    fails before any shape trains, and the artifacts are written there.
    """
    if out_dir is not None:
        out_dir = make_dir(out_dir)
    rows: list[ShapeResult] = []
    timings: list[tuple[str, float]] = []
    for kind in config.bench.shapes:
        started = time.monotonic()
        try:
            rows.append(run_shape(kind, config))
        except PasdfError as error:
            rows.append(ShapeResult(kind, error=f"{type(error).__name__}: {error}"))
        timings.append((kind, time.monotonic() - started))
    result = BenchResult(tuple(rows))
    if out_dir is not None:
        write_bench_artifacts(result, config, out_dir, timings)
    return result


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")


def _metric_row(row: ShapeResult) -> dict:
    improved = [r.chamfer_after < r.chamfer_before for r in row.repairs]
    return {
        "shape": row.shape,
        "o_auroc": row.o_auroc,
        "p_auroc": row.p_auroc,
        "o_auroc_no_pam": row.o_auroc_no_pam,
        "n_repairs": len(row.repairs),
        "chamfer_before_mean": _mean([r.chamfer_before for r in row.repairs]),
        "chamfer_after_mean": _mean([r.chamfer_after for r in row.repairs]),
        "emd_before_mean": _mean([r.emd_before for r in row.repairs]),
        "emd_after_mean": _mean([r.emd_after for r in row.repairs]),
        "all_repairs_improved": bool(improved) and all(improved),
        "failed": row.failed,
    }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metrics_table(result: BenchResult) -> str:
    """The per-shape metrics as deterministic CSV text."""
    rows = [_metric_row(row) for row in result.shapes]
    header = list(rows[0].keys()) if rows else []
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[key]) for key in header))
    return "\n".join(lines) + "\n"


def write_bench_artifacts(
    result: BenchResult,
    config: RunConfig,
    out_dir: Path,
    timings: list[tuple[str, float]] | None = None,
) -> None:
    """Write metrics.csv, metrics.json, and the case manifest.

    Timings go to a separate log so the metrics files stay byte-stable
    across runs of the same configuration.
    """
    (out_dir / "metrics.csv").write_text(metrics_table(result))

    document = {"shapes": []}
    for row in result.shapes:
        entry = _metric_row(row)
        entry["error"] = row.error
        entry["final_loss"] = row.final_loss
        entry["cases"] = [asdict(case) for case in row.cases]
        entry["repairs"] = [asdict(rep) for rep in row.repairs]
        document["shapes"].append(entry)
    write_json(out_dir / "metrics.json", document)

    manifest = {"seed": config.seed, "shapes": []}
    for row in result.shapes:
        case_dir = out_dir / "cases" / row.shape
        if row.scored_cases:
            make_dir(case_dir)
        entries = []
        for case in row.scored_cases:
            path = case_dir / f"{case.name}.ply"
            write_cloud_ply(path, case.posed, scores=case.labels.astype(np.float32))
            entries.append(
                {
                    "name": case.name,
                    "kind": case.kind,
                    "seed": case.seed,
                    "file": str(path.relative_to(out_dir)),
                    "n_points": len(case.posed),
                    "anomaly": None if case.anomaly is None else asdict(case.anomaly),
                }
            )
        manifest["shapes"].append(
            {
                "shape": row.shape,
                "seed": derive_seed(config.seed, f"bench-shape-{row.shape}"),
                "cases": entries,
            }
        )
    write_json(out_dir / "manifest.json", manifest)

    if timings is not None:
        lines = [
            f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {kind} {seconds:.1f}s"
            for kind, seconds in timings
        ]
        (out_dir / "bench.log").write_text("\n".join(lines) + "\n")
