"""Checkpoint container round trips and corruption handling."""
from __future__ import annotations

import dataclasses
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from network_oracle import architectures
from pasdf.checkpoint import _HEADER, MAGIC, load_checkpoint, save_checkpoint
from pasdf.encoding import EncodingConfig, positional_encode
from pasdf.errors import CheckpointMismatchError
from pasdf.marching import GridSpec, evaluate_field
from pasdf.network import NetworkConfig, SdfModel

ENC = EncodingConfig(num_frequencies=2)
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def small_model(seed: int = 0) -> SdfModel:
    cfg = NetworkConfig(
        input_dim=ENC.dim, hidden_width=8, num_layers=3, skip_layer=1, dropout=0.1
    )
    return SdfModel.init(cfg, seed)


class TestRoundTrip:
    def test_parameters_survive_at_storage_precision(self, tmp_path) -> None:
        model = small_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoding=ENC, metadata={"final_loss": 0.012})
        loaded, encoding, meta = load_checkpoint(path)
        assert encoding == ENC
        assert meta["final_loss"] == 0.012
        assert loaded.config == model.config
        for got, want in zip(loaded.params.arrays(), model.params.arrays()):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_forward_agreement_after_round_trip(self, tmp_path) -> None:
        model = small_model(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoding=ENC)
        loaded, encoding, _ = load_checkpoint(path)
        pts = np.random.default_rng(4).random((32, 3))
        a = model.forward(positional_encode(pts, ENC))
        b = loaded.forward(positional_encode(pts, encoding))
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_trained_model_round_trips_bit_for_bit(self, sphere_world, tmp_path) -> None:
        model = sphere_world.model
        path = tmp_path / "sphere.ckpt"
        save_checkpoint(path, model, encoding=sphere_world.encoding)
        loaded, encoding, _ = load_checkpoint(path)
        for got, want in zip(loaded.params.arrays(), model.params.arrays(), strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        rows = positional_encode(np.random.default_rng(6).random((1000, 3)), encoding)
        np.testing.assert_array_equal(loaded.forward(rows), model.forward(rows))

    def test_no_skip_architecture_round_trips(self, tmp_path) -> None:
        cfg = NetworkConfig(
            input_dim=ENC.dim, hidden_width=8, num_layers=2, skip_layer=None, dropout=0.0
        )
        model = SdfModel.init(cfg, 1)
        path = tmp_path / "probe.ckpt"
        save_checkpoint(path, model, encoding=ENC)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.config.skip_layer is None
        assert loaded.config == cfg

    def test_encoding_without_input_round_trips(self, tmp_path) -> None:
        encoding = EncodingConfig(num_frequencies=3, include_input=False)
        cfg = NetworkConfig(
            input_dim=encoding.dim, hidden_width=8, num_layers=3, skip_layer=1
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SdfModel.init(cfg, 2), encoding=encoding)
        loaded, loaded_encoding, meta = load_checkpoint(path)
        assert loaded_encoding == encoding
        assert loaded.config == cfg
        assert meta["encoding"] == {"num_frequencies": 3, "include_input": False}

    @given(architectures())
    def test_random_architectures_round_trip_bit_for_bit(
        self, tmp_path_factory, config
    ) -> None:
        # Hypothesis reruns the body, so each example gets its own directory.
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        encoding = EncodingConfig(num_frequencies=1, include_input=False)
        config = dataclasses.replace(config, input_dim=encoding.dim)
        model = SdfModel.init(config, seed=5).astype(np.float32)
        save_checkpoint(path, model, encoding=encoding)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.params.flat.dtype == np.float32
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    @pytest.mark.parametrize("kind", ["torus", "blob"])
    def test_perfbench_fixtures_load_the_stored_bytes(self, kind) -> None:
        path = FIXTURES / f"{kind}.f32"
        loaded, _, _ = load_checkpoint(path)
        stored = path.read_bytes()[_HEADER.size :]
        assert loaded.params.flat.astype("<f4").tobytes() == stored

    def test_metadata_extra_fields_preserved(self, tmp_path) -> None:
        path = tmp_path / "model.ckpt"
        extra = {"normalization": {"scale": 2.0, "offset": [0, 0, 0]}, "note": "x"}
        save_checkpoint(path, small_model(), encoding=ENC, metadata=extra)
        _, _, meta = load_checkpoint(path)
        assert meta["normalization"]["scale"] == 2.0
        assert meta["note"] == "x"
        assert meta["network"]["hidden_width"] == 8


class TestInferencePrecision:
    def test_loaded_model_infers_in_float32(self, sphere_world, tmp_path) -> None:
        doubled = sphere_world.model.astype(np.float64)
        path = tmp_path / "sphere.ckpt"
        save_checkpoint(path, doubled, encoding=sphere_world.encoding)
        loaded, encoding, _ = load_checkpoint(path)
        assert all(a.dtype == np.float32 for a in loaded.params.arrays())
        assert all(a.dtype == np.float64 for a in doubled.params.arrays())
        pts = np.random.default_rng(5).random((64, 3))
        assert loaded.forward(positional_encode(pts, encoding)).dtype == np.float64
        grid = GridSpec(32)
        single = evaluate_field(loaded, encoding, grid)
        double = evaluate_field(doubled, sphere_world.encoding, grid)
        assert np.abs(single - double).max() <= 1e-5


class TestBatchIndependence:
    @pytest.mark.parametrize("stored", [False, True], ids=["float64", "float32"])
    def test_row_values_do_not_depend_on_the_batch(
        self, sphere_world, tmp_path, stored
    ) -> None:
        # Sign-refined field evaluation runs each lattice vertex in a
        # different batch than a dense sweep would; the two only agree
        # bit for bit if a row's value ignores its batch.
        model, encoding = sphere_world.model.astype(np.float64), sphere_world.encoding
        if stored:
            path = tmp_path / "sphere.ckpt"
            save_checkpoint(path, model, encoding=encoding)
            model, encoding, _ = load_checkpoint(path)
        rows = positional_encode(np.random.default_rng(11).random((70_000, 3)), encoding)
        full = model.forward(rows)
        subset = np.random.default_rng(12).permutation(len(rows))[:7_777]
        np.testing.assert_array_equal(model.forward(rows[subset]), full[subset])
        for chunk in (77, 4096, 65536):
            chunked = np.concatenate(
                [model.forward(rows[start : start + chunk]) for start in range(0, len(rows), chunk)]
            )
            np.testing.assert_array_equal(chunked, full)


class TestBinaryLayout:
    def test_header_and_first_block_layout(self, tmp_path) -> None:
        model = small_model(seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoding=ENC)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        num_layers, input_dim, width, skip = struct.unpack_from("<IIIi", raw, 8)
        dropout = struct.unpack_from("<d", raw, 24)[0]
        assert (num_layers, input_dim, width, skip) == (3, ENC.dim, 8, 1)
        assert dropout == pytest.approx(0.1)
        # First parameter block: layer-0 directions, row-major f32.
        first = np.frombuffer(raw, dtype="<f4", count=8 * ENC.dim, offset=32)
        np.testing.assert_array_equal(
            first.reshape(8, ENC.dim), model.params.directions[0].astype("<f4")
        )

    def test_total_size_matches_parameter_count(self, tmp_path) -> None:
        model = small_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoding=ENC)
        n_params = sum(a.size for a in model.params.arrays())
        assert path.stat().st_size == 32 + 4 * n_params


class TestCorruption:
    def write_good(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_model(), encoding=ENC)
        return path

    def test_bad_magic(self, tmp_path) -> None:
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointMismatchError, match="magic"):
            load_checkpoint(path)

    def test_truncated_parameters(self, tmp_path) -> None:
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointMismatchError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path) -> None:
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointMismatchError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "encoding",
        (
            {"num_frequencies": 2, "include_input": "false"},
            {"num_frequencies": 2.9, "include_input": True},
            {"num_frequencies": 2, "include_input": True, "scale": 1.0},
            [2, True],
        ),
    )
    def test_sidecar_encoding_read_strictly(self, tmp_path, encoding) -> None:
        path = self.write_good(tmp_path)
        sidecar = tmp_path / "model.json"
        meta = json.loads(sidecar.read_text())
        meta["encoding"] = encoding
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(CheckpointMismatchError, match="encoding"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ("{not json", "[]", "{}"))
    def test_sidecar_must_be_an_object_with_encoding(self, tmp_path, text) -> None:
        path = self.write_good(tmp_path)
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(CheckpointMismatchError, match="JSON|encoding"):
            load_checkpoint(path)

    def test_missing_sidecar(self, tmp_path) -> None:
        path = self.write_good(tmp_path)
        (tmp_path / "model.json").unlink()
        with pytest.raises(CheckpointMismatchError, match="sidecar"):
            load_checkpoint(path)

    def test_encoding_dimension_mismatch(self, tmp_path) -> None:
        path = self.write_good(tmp_path)
        sidecar = tmp_path / "model.json"
        meta = json.loads(sidecar.read_text())
        meta["encoding"]["num_frequencies"] = 6
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(CheckpointMismatchError, match="dimension"):
            load_checkpoint(path)

    def test_header_claiming_every_layer_is_refused_by_size(self, tmp_path) -> None:
        # The parameter count comes from the header in closed form, so a
        # claim of 2**32 - 1 layers is checked against the file size
        # without listing a single layer.
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, 2**32 - 1)
        path.write_bytes(bytes(raw))
        start = time.perf_counter()
        with pytest.raises(CheckpointMismatchError, match="truncated"):
            load_checkpoint(path)
        assert time.perf_counter() - start < 1.0

    def test_header_too_short(self, tmp_path) -> None:
        path = tmp_path / "stub.ckpt"
        path.write_bytes(b"PASDF0")
        with pytest.raises(CheckpointMismatchError, match="short"):
            load_checkpoint(path)
