"""PLY and JSON readers and writers, and an OBJ writer.

PLY covers clouds and score maps (written binary little-endian, ASCII
accepted on read); OBJ covers triangle meshes, which the pipeline writes
and never reads.  Only the properties this pipeline produces are
written; readers tolerate and ignore extras.

JSON covers the sample and checkpoint sidecars, ``prepare.json``,
``results.json``, ``eval.json``, the bench's ``metrics.json`` and
``manifest.json``, and the labels manifest.  All are written with sorted
keys, two-space indent and a trailing newline.  ``read_json`` parses a
file into a dict, and ``read_record`` turns a parsed object into a
dataclass by the field annotations, with ``read_value`` casting each
field.  They hold every typed read (the run config, the checkpoint's
encoding, detect rows, labels entries, the normalisation record and the
sample sidecar's total) to one set of rules: a bool is not a number, an
integer also counts as a float, floats are finite, and unknown keys are
rejected.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, TypeVar, get_args, get_origin, get_type_hints

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, PasdfError
from .geometry import _UNIT_NORMAL_TOL, PointCloud, Points
from .mesh import TriMesh

SCORE_PROPERTY = "anomaly_score"

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


@dataclass(frozen=True)
class PlyContent:
    points: Points
    normals: Points | None
    scores: NDArray[np.float32] | None


def write_cloud_ply(
    path: str | Path,
    cloud: PointCloud,
    scores: NDArray | None = None,
) -> None:
    """Write a cloud, optionally with normals and a per-point anomaly score."""
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float32)
        if scores.shape != (len(cloud),):
            raise InvalidInputError(
                f"scores shape {scores.shape} does not match cloud size {len(cloud)}"
            )
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    fields: list[tuple[str, str]] = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
    for axis in "xyz":
        header.append(f"property double {axis}")
    if cloud.normals is not None:
        for axis in "xyz":
            header.append(f"property double n{axis}")
        fields += [("nx", "<f8"), ("ny", "<f8"), ("nz", "<f8")]
    if scores is not None:
        header.append(f"property float {SCORE_PROPERTY}")
        fields.append((SCORE_PROPERTY, "<f4"))
    header.append("end_header")

    record = np.zeros(len(cloud), dtype=np.dtype(fields))
    record["x"], record["y"], record["z"] = cloud.points.T
    if cloud.normals is not None:
        record["nx"], record["ny"], record["nz"] = cloud.normals.T
    if scores is not None:
        record[SCORE_PROPERTY] = scores

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(record.tobytes())


def _parse_header(fh: io.BufferedReader) -> tuple[str, list[tuple[str, int, list]]]:
    line = fh.readline().strip()
    if line != b"ply":
        raise InvalidInputError("not a PLY file (missing magic)")
    fmt = ""
    elements: list[tuple[str, int, list]] = []
    while True:
        raw = fh.readline()
        if not raw:
            raise InvalidInputError("truncated PLY header")
        line = raw.decode("ascii").strip()
        if not line or line.startswith("comment"):
            continue
        if line == "end_header":
            break
        parts = line.split()
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise InvalidInputError("PLY property before any element")
            if parts[1] == "list":
                elements[-1][2].append(("list", parts[2], parts[3], parts[4]))
            else:
                elements[-1][2].append(("scalar", parts[1], parts[2]))
    if fmt not in ("ascii", "binary_little_endian"):
        raise InvalidInputError(f"unsupported PLY format {fmt!r}")
    return fmt, elements


def _read_vertex_block(fh, fmt: str, count: int, props: list) -> dict[str, NDArray]:
    names = []
    dtype_fields = []
    for prop in props:
        if prop[0] != "scalar":
            raise InvalidInputError("list property on vertex element is not supported")
        _, type_name, name = prop
        if type_name not in _PLY_TYPES:
            raise InvalidInputError(f"unsupported PLY type {type_name!r}")
        names.append(name)
        dtype_fields.append((name, "<" + _PLY_TYPES[type_name]))
    dtype = np.dtype(dtype_fields)
    if fmt == "binary_little_endian":
        data = np.frombuffer(fh.read(dtype.itemsize * count), dtype=dtype, count=count)
    else:
        rows = [fh.readline().decode("ascii").split() for _ in range(count)]
        data = np.zeros(count, dtype=dtype)
        for col, name in enumerate(names):
            data[name] = np.asarray([row[col] for row in rows], dtype=np.float64)
    return {name: np.ascontiguousarray(data[name]) for name in names}


def read_ply(path: str | Path) -> PlyContent:
    """Vertex positions, and normals and scores when present; every other
    element is skipped.  A missing file raises FileNotFoundError; one
    that cannot be read, or malformed content, raises InvalidInputError."""
    vertex_data: dict[str, NDArray] | None = None
    try:
        with open(path, "rb") as fh:
            fmt, elements = _parse_header(fh)
            for name, count, props in elements:
                if name == "vertex":
                    vertex_data = _read_vertex_block(fh, fmt, count, props)
                else:
                    _skip_element(fh, fmt, count, props)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InvalidInputError(f"{path}: PLY file is not readable: {exc}") from exc
    except (ValueError, IndexError, KeyError) as exc:
        # Bad counts, short rows, truncated binary data and unknown types
        # surface from int(), indexing, numpy and the type table.
        raise InvalidInputError(f"{path}: malformed PLY file: {exc}") from exc
    if vertex_data is None or any(axis not in vertex_data for axis in "xyz"):
        raise InvalidInputError(f"{path}: PLY file has no x/y/z vertex data")
    points = np.column_stack(
        [vertex_data["x"], vertex_data["y"], vertex_data["z"]]
    ).astype(np.float64)
    normals = None
    if all(f"n{axis}" in vertex_data for axis in "xyz"):
        normals = np.column_stack(
            [vertex_data["nx"], vertex_data["ny"], vertex_data["nz"]]
        ).astype(np.float64)
        # Unit normals are kept bit for bit; only those off unit length by
        # more than PointCloud's tolerance (or NaN) are rescaled or replaced.
        lengths = np.linalg.norm(normals, axis=1)
        off = ~(np.abs(lengths - 1.0) <= _UNIT_NORMAL_TOL)
        safe = off & (lengths > 1e-12)
        normals[safe] /= lengths[safe, None]
        normals[off & ~safe] = (0.0, 0.0, 1.0)
    scores = None
    if SCORE_PROPERTY in vertex_data:
        scores = vertex_data[SCORE_PROPERTY].astype(np.float32)
    return PlyContent(points=points, normals=normals, scores=scores)


def _skip_element(fh, fmt: str, count: int, props: list) -> None:
    if fmt == "ascii":
        for _ in range(count):
            fh.readline()
        return
    if any(p[0] == "list" for p in props):
        for _ in range(count):
            for prop in props:
                if prop[0] == "list":
                    count_dt = np.dtype("<" + _PLY_TYPES[prop[1]])
                    n = int(np.frombuffer(fh.read(count_dt.itemsize), dtype=count_dt)[0])
                    fh.read(np.dtype("<" + _PLY_TYPES[prop[2]]).itemsize * n)
                else:
                    fh.read(np.dtype("<" + _PLY_TYPES[prop[1]]).itemsize)
    else:
        row_size = sum(np.dtype("<" + _PLY_TYPES[p[1]]).itemsize for p in props)
        fh.read(row_size * count)


def write_obj(path: str | Path, mesh: TriMesh) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def write_json(path: str | Path, document: dict) -> None:
    """Write a JSON document with sorted keys, two-space indent and a
    trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object stored at ``path``.

    A missing, unreadable, unparsable or non-object file raises
    InvalidInputError naming ``what`` and the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"{path}: {what} is missing") from None
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        raise InvalidInputError(f"{path}: {what} is not readable JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InvalidInputError(f"{path}: {what} is not a JSON object")
    return document


_Record = TypeVar("_Record")

# The JSON values each scalar annotation takes, matched by exact type so
# that true and false are not numbers; an integer also counts as a float.
_SCALARS: dict[type, tuple[str, tuple[type, ...]]] = {
    int: ("an integer", (int,)),
    float: ("a finite number", (int, float)),
    bool: ("a boolean", (bool,)),
    str: ("a string", (str,)),
}


def read_record(kind: type[_Record], data: Any, where: str) -> _Record:
    """Dataclass ``kind`` built from ``data``, a parsed JSON object.

    Each key is read with the cast its field's annotation names: int,
    finite float, bool, str, ``X | None``, ``tuple[X, ...]`` or a
    fixed-length tuple from a list, and a nested dataclass from an
    object.  A missing key takes the field's default.  Unknown keys,
    missing required keys, wrong types and values the dataclass rejects
    raise InvalidInputError naming the dotted key after ``where``; an
    empty ``where`` leaves that prefix out.
    """
    return _read(kind, data, where, "")


def _read(kind: type[_Record], data: Any, where: str, key: str) -> _Record:
    if not isinstance(data, dict):
        raise _invalid(where, key, f"expected a JSON object, got {data!r}")
    members = fields(kind)
    unknown = sorted(set(data) - {member.name for member in members})
    if unknown:
        raise _invalid(where, "", f"unknown key '{_join(key, unknown[0])}'")
    hints = get_type_hints(kind)
    values: dict[str, Any] = {}
    for member in members:
        path = _join(key, member.name)
        if member.name in data:
            values[member.name] = read_value(
                hints[member.name], data[member.name], where, path
            )
        elif member.default is MISSING and member.default_factory is MISSING:
            raise _invalid(where, "", f"missing key '{path}'")
    try:
        return kind(**values)
    except PasdfError as error:
        raise _invalid(where, key, str(error)) from error


def read_value(annotation: Any, value: Any, where: str, key: str) -> Any:
    """``value`` read with the cast ``annotation`` names, as ``read_record``
    reads the field ``key``; a wrong type raises InvalidInputError naming
    ``key`` after ``where``."""
    if is_dataclass(annotation):
        return _read(annotation, value, where, key)
    args = get_args(annotation)
    if type(None) in args:
        if value is None:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return read_value(inner, value, where, key)
    if get_origin(annotation) is tuple:
        if not isinstance(value, list):
            raise _invalid(where, key, f"expected a list, got {value!r}")
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) != len(value):
            raise _invalid(where, key, f"expected {len(kinds)} items, got {value!r}")
        return tuple(
            read_value(inner, item, where, f"{key}[{index}]")
            for index, (inner, item) in enumerate(zip(kinds, value))
        )
    name, kinds = _SCALARS[annotation]
    if type(value) in kinds and (annotation is not float or _finite(value)):
        return float(value) if annotation is float else value
    raise _invalid(where, key, f"expected {name}, got {value!r}")


def _finite(number: int | float) -> bool:
    # json.loads reads NaN and Infinity as floats, and an integer of any
    # length as an int, which a float can overflow on.
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _invalid(where: str, key: str, problem: str) -> InvalidInputError:
    text = f"{key}: {problem}" if key else problem
    return InvalidInputError(f"{where}: {text}" if where else text)
