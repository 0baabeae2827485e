"""Positional encoding layout and dimensions."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasdf.encoding import EncodingConfig, positional_encode
from pasdf.errors import InvalidInputError, InvalidParameterError


def oracle_encode_row(x: np.ndarray, num_frequencies: int, include_input: bool) -> np.ndarray:
    """Componentwise reference: [x, sin/cos triples per frequency]."""
    parts = list(x) if include_input else []
    for level in range(num_frequencies):
        freq = 2.0**level * np.pi
        parts.extend(np.sin(freq * x))
        parts.extend(np.cos(freq * x))
    return np.array(parts)


class TestEncodingConfig:
    def test_default_dimension_is_39(self) -> None:
        assert EncodingConfig().dim == 39

    def test_dimension_formula(self) -> None:
        assert EncodingConfig(num_frequencies=1, include_input=True).dim == 9
        assert EncodingConfig(num_frequencies=4, include_input=False).dim == 24
        assert EncodingConfig(num_frequencies=0, include_input=True).dim == 3

    def test_rejects_empty_encoding(self) -> None:
        with pytest.raises(InvalidParameterError):
            EncodingConfig(num_frequencies=0, include_input=False)
        with pytest.raises(InvalidParameterError):
            EncodingConfig(num_frequencies=-1)


class TestPositionalEncode:
    def test_origin_single_frequency(self) -> None:
        out = positional_encode(np.zeros((1, 3)), EncodingConfig(num_frequencies=1))
        np.testing.assert_allclose(out[0], [0, 0, 0, 0, 0, 0, 1, 1, 1], atol=1e-15)

    def test_half_coordinate_hits_sin_peak(self) -> None:
        out = positional_encode(np.array([[0.5, 0.0, 0.0]]), EncodingConfig(num_frequencies=1))
        assert out[0, 3] == pytest.approx(1.0, abs=1e-15)
        assert out[0, 6] == pytest.approx(0.0, abs=1e-15)

    def test_output_width_matches_config(self) -> None:
        for cfg in (EncodingConfig(), EncodingConfig(num_frequencies=2, include_input=False)):
            out = positional_encode(np.random.default_rng(0).random((7, 3)), cfg)
            assert out.shape == (7, cfg.dim)

    def test_matches_rowwise_oracle(self) -> None:
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(20, 3))
        for cfg in (
            EncodingConfig(num_frequencies=6, include_input=True),
            EncodingConfig(num_frequencies=3, include_input=False),
        ):
            out = positional_encode(pts, cfg)
            for row in range(len(pts)):
                expect = oracle_encode_row(pts[row], cfg.num_frequencies, cfg.include_input)
                np.testing.assert_allclose(out[row], expect, atol=1e-15)

    def test_rejects_bad_shape(self) -> None:
        with pytest.raises(InvalidInputError):
            positional_encode(np.zeros((4, 2)), EncodingConfig())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_values_bounded_when_input_bounded(self, seed: int) -> None:
        pts = np.random.default_rng(seed).random((5, 3))
        out = positional_encode(pts, EncodingConfig())
        assert np.abs(out).max() <= 1.0 + 1e-12
