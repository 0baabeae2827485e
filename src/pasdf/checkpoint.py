"""Versioned model checkpoints.

Binary container: 8 magic bytes, a fixed little-endian architecture
descriptor, then the parameter vector ``ParameterSet.flat`` as
little-endian f32, laid out as that class describes.  A JSON sidecar
carries the caller's metadata (``pasdf train`` passes epochs run, final
loss and record count) plus the network and encoding configs; the
normalization record is in ``prepare.json``.  Training happens in f32,
so a trained model is stored exactly; a float64 model is narrowed to
f32.  Loading keeps the stored values as f32, so a loaded model infers
in f32.
"""
from __future__ import annotations

import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .encoding import EncodingConfig
from .errors import CheckpointMismatchError, InvalidInputError
from .meshio import read_json, read_record, write_json
from .network import NetworkConfig, ParameterSet, SdfModel

MAGIC = b"PASDF001"
_HEADER = struct.Struct("<8sIIIid")
_SKIP_NONE = -1


def save_checkpoint(
    path: str | Path,
    model: SdfModel,
    *,
    encoding: EncodingConfig,
    metadata: dict | None = None,
) -> None:
    path = Path(path)
    cfg = model.config
    skip = _SKIP_NONE if cfg.skip_layer is None else cfg.skip_layer
    blob = bytearray(
        _HEADER.pack(
            MAGIC, cfg.num_layers, cfg.input_dim, cfg.hidden_width, skip, cfg.dropout
        )
    )
    blob += model.params.flat.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)

    sidecar = dict(metadata or {})
    sidecar["network"] = asdict(cfg)
    sidecar["encoding"] = asdict(encoding)
    write_json(path.with_suffix(".json"), sidecar)


def load_checkpoint(path: str | Path) -> tuple[SdfModel, EncodingConfig, dict]:
    """Model, encoding config and sidecar metadata stored at ``path``.

    The parameters come back as float32 arrays, exactly the stored
    values, so the model's inference runs in float32.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise CheckpointMismatchError(f"{path}: too short for a checkpoint header")
    magic, num_layers, input_dim, hidden_width, skip, dropout = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointMismatchError(f"{path}: bad magic {magic!r}")
    try:
        config = NetworkConfig(
            input_dim=input_dim,
            hidden_width=hidden_width,
            num_layers=num_layers,
            skip_layer=None if skip == _SKIP_NONE else skip,
            dropout=dropout,
        )
    except Exception as exc:
        raise CheckpointMismatchError(f"{path}: invalid architecture descriptor") from exc

    # The count is closed-form in the header's fields, so a header that
    # claims billions of layers is refused by size before any is listed.
    count = config.parameter_count()
    end = _HEADER.size + 4 * count
    if end > len(raw):
        raise CheckpointMismatchError(f"{path}: truncated parameter block")
    if end < len(raw):
        raise CheckpointMismatchError(
            f"{path}: {len(raw) - end} trailing bytes after parameters"
        )
    flat = np.frombuffer(raw, dtype="<f4", count=count, offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise CheckpointMismatchError(f"{path}: non-finite parameter value")
    params = ParameterSet(config, flat.astype(np.float32))

    sidecar = path.with_suffix(".json")
    try:
        meta = read_json(sidecar, "checkpoint sidecar")
        encoding = read_record(EncodingConfig, meta.get("encoding"), f"{sidecar}: encoding")
    except InvalidInputError as exc:
        raise CheckpointMismatchError(str(exc)) from exc
    if encoding.dim != config.input_dim:
        raise CheckpointMismatchError(
            f"{path}: encoding dimension {encoding.dim} does not match "
            f"network input {config.input_dim}"
        )
    return SdfModel(config, params), encoding, meta
