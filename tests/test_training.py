"""Training loop behaviour: descent, determinism, divergence handling."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from oracles import stdout_per_blas_thread_count
from pasdf.encoding import EncodingConfig, positional_encode
from pasdf.errors import (
    InvalidInputError,
    InvalidParameterError,
    TrainingDivergedError,
)
from pasdf.network import NetworkConfig, SdfModel, loss_and_gradients, pad_rows
from pasdf.queries import QuerySet
from pasdf.training import TrainConfig, TrainResult, _Adam, train_model, predict_sdf

REPO = Path(__file__).resolve().parents[1]
ENC = EncodingConfig(num_frequencies=2)
TINY_NET = NetworkConfig(
    input_dim=ENC.dim, hidden_width=16, num_layers=2, skip_layer=None, dropout=0.0
)


def volume_queries(n: int, seed: int, target_fn) -> QuerySet:
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 3))
    return QuerySet(positions, np.zeros(n, dtype=np.uint8), target_fn(positions))


def radial_targets(positions: np.ndarray) -> np.ndarray:
    return np.linalg.norm(positions - 0.5, axis=1) - 0.3


class TestTrainConfig:
    def test_defaults(self) -> None:
        cfg = TrainConfig()
        assert cfg.learning_rate == pytest.approx(1e-5)
        assert cfg.epochs == 2000
        assert cfg.batch_size == 4096
        assert cfg.d_max == pytest.approx(0.1)
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert not cfg.clamp_targets

    def test_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidParameterError):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidParameterError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidParameterError):
            TrainConfig(d_max=0.0)
        with pytest.raises(InvalidParameterError):
            TrainConfig(beta1=1.0)

    @pytest.mark.parametrize("name", ["learning_rate", "d_max", "epsilon", "beta1", "beta2"])
    def test_nan_rejected(self, name: str) -> None:
        with pytest.raises(InvalidParameterError):
            TrainConfig(**{name: float("nan")})


class TestTrainModel:
    def test_overfits_single_sample(self) -> None:
        queries = QuerySet(
            np.array([[0.3, 0.4, 0.5]]), np.zeros(1, dtype=np.uint8), np.array([0.05])
        )
        cfg = TrainConfig(learning_rate=1e-3, epochs=1500, batch_size=4, d_max=1.0, seed=0)
        result = train_model(queries, cfg, ENC, TINY_NET)
        assert result.final_loss < 1e-3
        assert min(result.loss_history) < 1e-4

    def test_loss_descends_and_stays_finite(self) -> None:
        queries = volume_queries(512, seed=3, target_fn=radial_targets)
        cfg = TrainConfig(learning_rate=1e-3, epochs=40, batch_size=128, d_max=1.0, seed=1)
        result = train_model(queries, cfg, ENC, TINY_NET)
        assert len(result.loss_history) == 40
        assert np.isfinite(result.loss_history).all()
        assert result.loss_history[-1] < result.loss_history[0]

    def test_bitwise_deterministic_per_seed(self) -> None:
        net = NetworkConfig(
            input_dim=ENC.dim, hidden_width=8, num_layers=3, skip_layer=1, dropout=0.2
        )
        queries = volume_queries(256, seed=4, target_fn=radial_targets)
        cfg = TrainConfig(learning_rate=1e-3, epochs=8, batch_size=64, d_max=0.1, seed=9)
        a = train_model(queries, cfg, ENC, net)
        b = train_model(queries, cfg, ENC, net)
        np.testing.assert_array_equal(a.model.params.flat, b.model.params.flat)
        assert a.loss_history == b.loss_history
        c = train_model(queries, TrainConfig(**{**cfg.to_dict(), "seed": 10}), ENC, net)
        assert not np.array_equal(a.model.params.flat, c.model.params.flat)

    def test_bitwise_identical_across_blas_thread_counts(self) -> None:
        # The bench network on 5,000 queries: one 4,096-row batch and one
        # 904-row batch per epoch, which training pads to 960 rows.
        script = f"""
import hashlib
import numpy as np
from pasdf.config import load_config
from pasdf.queries import QuerySet
from pasdf.training import TrainConfig, train_model

config = load_config({str(REPO / "configs" / "bench.json")!r})
positions = np.random.default_rng(0).random((5000, 3))
sdf = np.linalg.norm(positions - 0.5, axis=1) - 0.3
queries = QuerySet(positions, np.zeros(5000, dtype=np.uint8), sdf)
cfg = TrainConfig(learning_rate=3e-4, epochs=2, batch_size=4096, seed=5, clamp_targets=True)
trained = train_model(queries, cfg, config.encoding, config.network)
print(hashlib.sha256(trained.model.params.flat.tobytes()).hexdigest())
"""
        digests = [out.strip() for out in stdout_per_blas_thread_count(script)]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_zero_epochs_returns_untrained_init(self) -> None:
        queries = volume_queries(32, seed=5, target_fn=radial_targets)
        cfg = TrainConfig(epochs=0, seed=2)
        result = train_model(queries, cfg, ENC, TINY_NET)
        assert result.loss_history == []
        assert np.isnan(result.final_loss)
        again = train_model(queries, cfg, ENC, TINY_NET)
        np.testing.assert_array_equal(
            result.model.params.flat, again.model.params.flat
        )

    def test_diverged_training_aborts_with_diagnostics(self) -> None:
        queries = volume_queries(32, seed=6, target_fn=radial_targets)
        net = NetworkConfig(
            input_dim=ENC.dim, hidden_width=8, num_layers=4, skip_layer=2, dropout=0.0
        )
        cfg = TrainConfig(
            learning_rate=1e150, epochs=5, batch_size=16, d_max=1e300, seed=0
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDivergedError
        ) as info:
            train_model(queries, cfg, ENC, net)
        assert info.value.epoch >= 0
        assert info.value.batch >= 0

    def test_clamp_targets_flag_equals_manual_preclamp(self) -> None:
        rng = np.random.default_rng(7)
        positions = rng.random((128, 3))
        wide = rng.normal(0.0, 0.5, size=128)
        cfg = TrainConfig(
            learning_rate=1e-3, epochs=5, batch_size=64, d_max=0.1, seed=3, clamp_targets=True
        )
        flagged = train_model(
            QuerySet(positions, np.zeros(128, dtype=np.uint8), wide), cfg, ENC, TINY_NET
        )
        manual_cfg = TrainConfig(**{**cfg.to_dict(), "clamp_targets": False})
        manual = train_model(
            QuerySet(positions, np.zeros(128, dtype=np.uint8), np.clip(wide, -0.1, 0.1)),
            manual_cfg,
            ENC,
            TINY_NET,
        )
        np.testing.assert_array_equal(
            flagged.model.params.flat, manual.model.params.flat
        )

    def test_rejects_unlabelled_queries(self) -> None:
        queries = QuerySet(np.zeros((4, 3)), np.zeros(4, dtype=np.uint8))
        with pytest.raises(InvalidInputError, match="labelled"):
            train_model(queries, TrainConfig(), ENC, TINY_NET)

    def test_rejects_encoding_dimension_mismatch(self) -> None:
        queries = volume_queries(8, seed=8, target_fn=radial_targets)
        with pytest.raises(InvalidParameterError, match="input_dim"):
            train_model(queries, TrainConfig(), EncodingConfig(num_frequencies=6), TINY_NET)


def per_array_adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    first: list[np.ndarray],
    second: list[np.ndarray],
    cfg: TrainConfig,
    step: int,
) -> None:
    """Reference Adam step: one update per parameter array, in place."""
    bias1 = 1.0 - cfg.beta1**step
    bias2 = 1.0 - cfg.beta2**step
    for param, grad, m, v in zip(params, grads, first, second, strict=True):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grad * grad
        param -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.epsilon)


class TestAdam:
    def test_flat_step_equals_per_array_reference(self) -> None:
        # The float32 bench setting on a small skip network, fed the
        # training pass's own gradients for six steps.
        net = NetworkConfig(
            input_dim=ENC.dim, hidden_width=8, num_layers=4, skip_layer=2, dropout=0.2
        )
        cfg = TrainConfig(learning_rate=3e-3)
        model = SdfModel.init(net, seed=11).astype(np.float32)
        queries = volume_queries(100, seed=12, target_fn=radial_targets)
        encoded = pad_rows(positional_encode(queries.positions, ENC, dtype=np.float32), np.float32)
        rng = np.random.default_rng(13)
        optimizer = _Adam(model.params, cfg)
        initial = model.params.flat.copy()
        params = [a.copy() for a in model.params.arrays()]
        first = [np.zeros_like(a) for a in params]
        second = [np.zeros_like(a) for a in params]
        for step in range(1, 7):
            _, grads = loss_and_gradients(model, encoded, queries.sdf, 0.1, rng=rng)
            optimizer.update(model.params, grads)
            per_array_adam_step(params, grads.arrays(), first, second, cfg, step)
            for got, want in zip(model.params.arrays(), params, strict=True):
                np.testing.assert_array_equal(got, want)
            for flat, arrays in ((optimizer.first, first), (optimizer.second, second)):
                np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert not np.array_equal(model.params.flat, initial)


class TestPredictSdf:
    def test_matches_forward_on_encoded_points(self) -> None:
        queries = volume_queries(16, seed=10, target_fn=radial_targets)
        result = train_model(
            queries,
            TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=1),
            ENC,
            TINY_NET,
        )
        pts = np.random.default_rng(11).random((9, 3))
        direct = result.model.forward(positional_encode(pts, ENC))
        np.testing.assert_array_equal(predict_sdf(result.model, pts, ENC), direct)

    def test_final_loss_of_empty_history_is_nan(self) -> None:
        result = TrainResult(model=None, loss_history=[])
        assert np.isnan(result.final_loss)
