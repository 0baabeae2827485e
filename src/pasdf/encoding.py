"""Sinusoidal positional encoding of query coordinates.

Lifts a 3-vector x into [x; sin(2^0 pi x); cos(2^0 pi x); ...;
sin(2^{L-1} pi x); cos(2^{L-1} pi x)], componentwise, so a small MLP can
resolve fine surface detail inside the unit cube.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike, NDArray

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64, Points


@dataclass(frozen=True)
class EncodingConfig:
    num_frequencies: int = 6
    include_input: bool = True

    def __post_init__(self) -> None:
        if self.num_frequencies < 0:
            raise InvalidParameterError("num_frequencies must be >= 0")
        if self.num_frequencies == 0 and not self.include_input:
            raise InvalidParameterError("encoding would be empty")

    @property
    def dim(self) -> int:
        return 3 * int(self.include_input) + 6 * self.num_frequencies


def positional_encode(
    points: Points, config: EncodingConfig, dtype: DTypeLike = np.float64
) -> NDArray:
    """Encode (n, 3) coordinates into (n, config.dim) features.

    Layout per row: the raw coordinates (when included), then for each
    frequency a sine triple followed by a cosine triple.  Features are
    computed in float64 and written straight into a ``dtype`` array.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"points must have shape (n, 3), got {pts.shape}")
    parts: list[NDArray[F64]] = []
    if config.include_input:
        parts.append(pts)
    for level in range(config.num_frequencies):
        scaled = (2.0**level * np.pi) * pts
        parts.append(np.sin(scaled))
        parts.append(np.cos(scaled))
    return np.concatenate(parts, axis=1, dtype=dtype)
