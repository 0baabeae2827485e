"""Seeded inputs and fixture models for the benchmark.

Every setting below is pinned here, copied from ``configs/bench.json``,
so the benchmark does not move when that file changes.  Every random draw
derives from the run's ``--seed`` through ``pasdf.rng.derive_seed``; the
program only ever sees the generated clouds, queries and checkpoints.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pasdf.bench import AnomalySpec, ShapeSpec, generate_shape, inject_anomaly
from pasdf.checkpoint import load_checkpoint, save_checkpoint
from pasdf.encoding import EncodingConfig, positional_encode
from pasdf.geometry import PointCloud, apply_transform, random_rigid
from pasdf.mesh import NormalizationRecord, TriMesh, normalize_unit_cube, sample_surface
from pasdf.network import NetworkConfig, SdfModel
from pasdf.queries import QueryCounts, QuerySet, label_queries, sample_queries
from pasdf.rng import derive_seed, stream
from pasdf.shapes import blob
from pasdf.training import TrainConfig, train_model

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_SEED = 0
FIXTURE_EPOCHS = 300
SHAPES = ("torus", "blob")

NETWORK = NetworkConfig(input_dim=39, hidden_width=64, num_layers=8, skip_layer=4, dropout=0.2)
ENCODING = EncodingConfig(num_frequencies=6, include_input=True)
COUNTS = QueryCounts(volume=8000, bbox=8000, surface=6000, bbox_expand=1.3)
TRAINING = TrainConfig(
    learning_rate=3e-4,
    epochs=FIXTURE_EPOCHS,
    batch_size=4096,
    d_max=0.1,
    beta1=0.9,
    beta2=0.999,
    epsilon=1e-8,
    clamp_targets=True,
)
CLOUD_POINTS = 2048
RADIUS_FRAC = 0.15
CROP_RADIUS_FRAC = 0.22
MAGNITUDE_FRAC = 0.05
TOP_K = 1000
RESOLUTION = 128
EMD_SUBSAMPLE = 512
# Dense labelling cloud, as pasdf.bench.run_shape builds it.
LABEL_CLOUD_POINTS = 60_000
# Held-out surface samples for the trained model's surface error.
HELD_OUT_SURFACE = 4096

# Probe positions in the normalized unit cube, checked on every fixture load.
PROBES = ((0.5, 0.5, 0.5), (0.2, 0.7, 0.4), (0.85, 0.3, 0.6))
# How far the program's forward pass may stray from the exact probe
# values; float32 inference stays within about 1e-6 at these magnitudes.
FORWARD_TOLERANCE = 1e-5


def shape_mesh(kind: str) -> TriMesh:
    """World-frame mesh of a benchmark shape; generators are deterministic."""
    if kind == "blob":
        return blob()
    return generate_shape(ShapeSpec(kind=kind), seed=0)


@dataclass(frozen=True)
class ShapeWorld:
    """A fixture model with the frame it was trained in."""

    kind: str
    model: SdfModel
    record: NormalizationRecord
    canonical: PointCloud
    mesh: TriMesh


def training_queries(kind: str, seed: int) -> tuple[QuerySet, TriMesh]:
    """Labelled three-tier queries on a normalized shape, as the bench draws them."""
    normalized, _ = normalize_unit_cube(shape_mesh(kind))
    queries, surface = sample_queries(normalized, COUNTS, derive_seed(seed, f"queries-{kind}"))
    dense = sample_surface(normalized, LABEL_CLOUD_POINTS, seed=derive_seed(seed, f"label-{kind}"))
    labelling = PointCloud(
        np.vstack([surface.points, dense.points]),
        np.vstack([surface.normals, dense.normals]),
    )
    return label_queries(queries, labelling), normalized


def held_out_surface(normalized: TriMesh, seed: int) -> np.ndarray:
    return sample_surface(normalized, HELD_OUT_SURFACE, seed=derive_seed(seed, "held-out")).points


# ---------------------------------------------------------------------------
# Fixture models


def _reference_sdf(model: SdfModel, point: tuple[float, float, float]) -> float:
    """The model's value at one point, in plain Python arithmetic.

    Independent of the program's forward pass and of BLAS, so probes stay
    exact across faster forward implementations and machines.
    """
    cfg = model.config
    x = list(point)
    encoded = list(x) if ENCODING.include_input else []
    for level in range(ENCODING.num_frequencies):
        scaled = [(2.0**level * math.pi) * v for v in x]
        encoded += [math.sin(v) for v in scaled] + [math.cos(v) for v in scaled]
    h = encoded
    params = model.params
    for layer in range(cfg.num_layers):
        if layer == cfg.skip_layer:
            h = h + encoded
        v = params.directions[layer].tolist()
        g = params.gains[layer].tolist()
        b = params.biases[layer].tolist()
        z = []
        for row, gain, bias in zip(v, g, b):
            scale = gain / math.sqrt(math.fsum(w * w for w in row))
            z.append(math.fsum([scale * w * a for w, a in zip(row, h)] + [bias]))
        h = z if layer == cfg.num_layers - 1 else [max(value, 0.0) for value in z]
    return h[0]


def _checkpoint_path(kind: str) -> Path:
    return FIXTURE_DIR / f"{kind}.f32"


def make_fixtures() -> None:
    """Train and store every fixture model with its probe values (one-off)."""
    FIXTURE_DIR.mkdir(exist_ok=True)
    probes: dict[str, list[float]] = {}
    for kind in SHAPES:
        queries, _ = training_queries(kind, FIXTURE_SEED)
        cfg = TrainConfig(**{**TRAINING.to_dict(), "seed": derive_seed(FIXTURE_SEED, f"fixture-train-{kind}")})
        trained = train_model(queries, cfg, ENCODING, NETWORK)
        _, record = normalize_unit_cube(shape_mesh(kind))
        save_checkpoint(
            _checkpoint_path(kind),
            trained.model,
            encoding=ENCODING,
            metadata={
                "epochs_run": len(trained.loss_history),
                "final_loss": trained.final_loss,
                "record": record.to_dict(),
                "seed": FIXTURE_SEED,
            },
        )
        model, _, _ = load_checkpoint(_checkpoint_path(kind))
        probes[kind] = [_reference_sdf(model, p) for p in PROBES]
        print(f"{kind}: final loss {trained.final_loss:.6g}, probes {probes[kind]}")
    document = {"points": [list(p) for p in PROBES], "values": probes}
    (FIXTURE_DIR / "probes.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


class FixtureError(RuntimeError):
    """A stored fixture model is missing or does not reproduce its probes."""


def load_world(kind: str, seed: int) -> ShapeWorld:
    """Load a fixture model and draw the canonical cloud for a run seed."""
    path = _checkpoint_path(kind)
    if not path.is_file():
        raise FixtureError(f"fixture {path.name} missing; run `python3 perfbench/run.py make-fixtures`")
    model, encoding, meta = load_checkpoint(path)
    if encoding != ENCODING or model.config != NETWORK:
        raise FixtureError(f"fixture {path.name} was trained with other settings")
    mesh = shape_mesh(kind)
    canonical = sample_surface(mesh, CLOUD_POINTS, seed=derive_seed(seed, f"canonical-{kind}"))
    return ShapeWorld(kind, model, NormalizationRecord.from_dict(meta["record"]), canonical, mesh)


def check_probes(world: ShapeWorld) -> None:
    """Fail unless the loaded model reproduces its stored probe values
    exactly and the program's forward pass agrees with them."""
    expected = json.loads((FIXTURE_DIR / "probes.json").read_text())["values"][world.kind]
    got = [_reference_sdf(world.model, p) for p in PROBES]
    if got != expected:
        raise FixtureError(f"fixture {world.kind} probes {got} != stored {expected}")
    forward = world.model.forward(positional_encode(np.array(PROBES), ENCODING))
    if np.max(np.abs(forward - np.array(expected))) > FORWARD_TOLERANCE:
        raise FixtureError(f"fixture {world.kind}: forward gives {forward.tolist()}, exact {expected}")


# ---------------------------------------------------------------------------
# Test clouds


@dataclass(frozen=True)
class Cloud:
    """One generated test cloud with its ground truth."""

    name: str
    shape: str
    kind: str
    seed: int
    cloud: PointCloud
    labels: np.ndarray
    reference: PointCloud


def make_cloud(world: ShapeWorld, kind: str, seed: int, *, posed: bool) -> Cloud:
    """A normal or defective sampling of a shape, optionally in a random pose.

    Defects follow the bench recipe: centre on a sampled point, radius and
    magnitude as fractions of the bounding-box diagonal.
    """
    mesh = world.mesh
    diagonal = mesh.bbox_diagonal()
    base = sample_surface(mesh, CLOUD_POINTS, seed=derive_seed(seed, "cloud"))
    labels = np.zeros(len(base), dtype=np.int64)
    if kind != "normal":
        rng = stream(seed, "anomaly")
        center = base.points[int(rng.integers(len(base)))]
        spec = AnomalySpec(
            kind=kind,
            center=tuple(float(v) for v in center),
            radius=(CROP_RADIUS_FRAC if kind == "crop" else RADIUS_FRAC) * diagonal,
            magnitude=MAGNITUDE_FRAC * diagonal,
        )
        base, mask = inject_anomaly(base, spec, derive_seed(seed, "inject"))
        labels = mask.astype(np.int64)
    if posed:
        pose = random_rigid(stream(seed, "pose"), translation_scale=diagonal / 2.0)
        base = apply_transform(pose, base)
    reference = sample_surface(mesh, CLOUD_POINTS, seed=derive_seed(seed, "reference"))
    return Cloud(f"{world.kind}-{kind}", world.kind, kind, seed, base, labels, reference)
