"""Run configuration: one JSON document driving every pipeline stage.

The schema is the dataclass fields: each section of the document is one
field of RunConfig, and each key of a section is one field of that
section's dataclass, read by ``meshio.read_record`` with the cast its
type annotation names.  Deserialization is strict.  Unknown keys, wrong
types, and out-of-range values all raise ConfigValidationError before
any work starts, so a failed run never leaves partial artifacts behind.
Missing sections and keys fall back to the dataclass defaults.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .encoding import EncodingConfig
from .errors import ConfigValidationError, InvalidInputError, InvalidParameterError
from .marching import check_resolution
from .meshio import read_record
from .network import NetworkConfig
from .queries import QueryCounts
from .repair import DEFAULT_EMD_SUBSAMPLE, DEFAULT_REPAIR_POINTS
from .scoring import DEFAULT_TOP_K
from .training import TrainConfig

BENCH_SHAPE_KINDS = ("sphere", "box", "torus", "capsule")
BENCH_ANOMALY_KINDS = ("dent", "bulge", "crop", "noise_patch")


@dataclass(frozen=True)
class IoConfig:
    """Where a run reads its clouds and writes its artifacts."""

    train_dir: str = "data/train"
    test_dir: str = "data/test"
    out_dir: str = "out"
    labels: str | None = None

    def __post_init__(self) -> None:
        for name in ("train_dir", "test_dir", "out_dir"):
            if not getattr(self, name):
                raise InvalidParameterError(f"{name} must be a non-empty path")


@dataclass(frozen=True)
class GridConfig:
    """Isosurface evaluation lattice.  Repair spans it over the aligned
    cloud's bounding box expanded by counts.bbox_expand, the shell the
    bbox-tier queries were drawn from."""

    resolution: int = 128

    def __post_init__(self) -> None:
        check_resolution(self.resolution)


@dataclass(frozen=True)
class ScoreConfig:
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise InvalidParameterError("top_k must be >= 1")


@dataclass(frozen=True)
class RepairConfig:
    n_points: int = DEFAULT_REPAIR_POINTS
    emd_subsample: int = DEFAULT_EMD_SUBSAMPLE

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise InvalidParameterError("n_points must be >= 1")
        if self.emd_subsample < 1:
            raise InvalidParameterError("emd_subsample must be >= 1")


@dataclass(frozen=True)
class BenchConfig:
    """Synthetic benchmark layout: which shapes, how many cases, and how
    anomalies are sized relative to each shape's bounding-box diagonal.

    The ranking pool holds displacement anomalies by default.  Cropped
    clouds leave every surviving point on the normal surface, so a
    surface-distance score cannot rank them above normal clouds; they
    run on a separate repair track (crop_cases) where removal is exactly
    what reconstruction must undo.
    """

    shapes: tuple[str, ...] = BENCH_SHAPE_KINDS
    normal_cases: int = 10
    cloud_points: int = 2048
    anomaly_kinds: tuple[str, ...] = (
        "dent", "dent", "dent", "dent",
        "bulge", "bulge", "bulge",
        "noise_patch", "noise_patch", "noise_patch",
    )
    crop_cases: int = 2
    magnitude_frac: float = 0.05
    radius_frac: float = 0.15
    crop_radius_frac: float = 0.22

    def __post_init__(self) -> None:
        if not self.shapes:
            raise InvalidParameterError("bench needs at least one shape")
        for kind in self.shapes:
            if kind not in BENCH_SHAPE_KINDS:
                raise InvalidParameterError(f"unknown bench shape '{kind}'")
        if self.normal_cases < 1:
            raise InvalidParameterError("normal_cases must be >= 1")
        if not self.anomaly_kinds:
            raise InvalidParameterError("anomaly_kinds must list at least one kind")
        if self.cloud_points < 16:
            raise InvalidParameterError("cloud_points must be >= 16")
        for kind in self.anomaly_kinds:
            if kind not in BENCH_ANOMALY_KINDS:
                raise InvalidParameterError(f"unknown anomaly kind '{kind}'")
        if self.crop_cases < 0:
            raise InvalidParameterError("crop_cases must be >= 0")
        for name in ("magnitude_frac", "radius_frac", "crop_radius_frac"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; a single root seed feeds every stage
    through named sub-streams."""

    seed: int = 0
    io: IoConfig = field(default_factory=IoConfig)
    counts: QueryCounts = field(default_factory=QueryCounts)
    encoding: EncodingConfig = field(default_factory=EncodingConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    scoring: ScoreConfig = field(default_factory=ScoreConfig)
    repair: RepairConfig = field(default_factory=RepairConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if self.network.input_dim != self.encoding.dim:
            raise ConfigValidationError(
                f"network.input_dim ({self.network.input_dim}) must equal the "
                f"encoding dimension ({self.encoding.dim})"
            )


def from_document(document: Any) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    # Every stage derives its randomness from the root seed, so the training
    # seed is left out of the document, which then carries exactly one seed.
    training = document.get("training") if isinstance(document, dict) else None
    if isinstance(training, dict) and "seed" in training:
        raise ConfigValidationError("unknown key 'training.seed'")
    try:
        return read_record(RunConfig, document, "")
    except InvalidInputError as error:
        raise ConfigValidationError(str(error)) from error


def deserialize(text: str) -> RunConfig:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigValidationError(f"configuration is not valid JSON: {error}")
    return from_document(document)


def load_config(path: str | Path) -> RunConfig:
    source = Path(path)
    if not source.is_file():
        raise FileNotFoundError(f"configuration file not found: {source}")
    return deserialize(source.read_text())
