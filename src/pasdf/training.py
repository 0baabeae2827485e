"""First-order training of the implicit surface network.

Adam over shuffled mini-batches of labelled query samples, in float32:
parameters, encoded queries and optimizer moments; the targets and the
loss stay float64.  The model's parameters and each gradient are views
into one flat vector (``ParameterSet`` gives its layout), so an Adam
step is one elementwise update of it against one vector per moment.
Everything is driven by named sub-streams of one seed (initialization,
epoch shuffles, dropout masks), so a run is bitwise-reproducible for a
seed.  The masks are raw 16-bit words of their stream's bit generator,
one per hidden unit of every padded row.  Every batch is zero-padded to
a multiple of 64 rows, and with that a run gives the same bits at one
and at two BLAS threads; unpadded float32 batches and padded float64
ones both round differently when BLAS splits a batch's sums over
another number of threads.  A non-finite loss aborts immediately with
the epoch, batch, and parameter norm at the point of failure.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.typing import NDArray

from .encoding import EncodingConfig, positional_encode
from .errors import InvalidInputError, InvalidParameterError, TrainingDivergedError
from .geometry import F64, Points
from .network import NetworkConfig, ParameterSet, SdfModel, loss_and_gradients, pad_rows
from .queries import QuerySet
from .rng import derive_seed, stream


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    epochs: int = 2000
    batch_size: int = 4096
    d_max: float = 0.1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clamp_targets: bool = False

    def __post_init__(self) -> None:
        if not self.learning_rate > 0.0:
            raise InvalidParameterError("learning_rate must be > 0")
        if self.epochs < 0:
            raise InvalidParameterError("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        if not self.d_max > 0.0:
            raise InvalidParameterError("d_max must be > 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise InvalidParameterError("moment decays must be in [0, 1)")
        if not self.epsilon > 0.0:
            raise InvalidParameterError("epsilon must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    model: SdfModel
    loss_history: list[float]

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class _Adam:
    def __init__(self, params: ParameterSet, cfg: TrainConfig) -> None:
        self.cfg = cfg
        self.first = np.zeros_like(params.flat)
        self.second = np.zeros_like(params.flat)
        self.step = 0

    def update(self, params: ParameterSet, grads: ParameterSet) -> None:
        cfg = self.cfg
        self.step += 1
        bias1 = 1.0 - cfg.beta1**self.step
        bias2 = 1.0 - cfg.beta2**self.step
        grad, m, v = grads.flat, self.first, self.second
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grad * grad
        params.flat -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.epsilon)


def _param_norm(params: ParameterSet) -> float:
    return float(np.linalg.norm(params.flat))


def train_model(
    queries: QuerySet,
    train_cfg: TrainConfig,
    encoding: EncodingConfig,
    network: NetworkConfig,
) -> TrainResult:
    """Fit the network to labelled query samples.

    Returns the trained model and the per-epoch mean loss.  With zero
    epochs the freshly initialized model comes back untouched, which gives
    experiments an honest untrained baseline.
    """
    if not queries.is_labelled:
        raise InvalidInputError("training requires labelled query samples")
    if len(queries) < 1:
        raise InvalidInputError("training requires at least one sample")
    if network.input_dim != encoding.dim:
        raise InvalidParameterError(
            f"network input_dim {network.input_dim} does not match "
            f"encoding dimension {encoding.dim}"
        )

    encoded = positional_encode(queries.positions, encoding, dtype=np.float32)
    targets = np.ascontiguousarray(queries.sdf, dtype=np.float64)
    if train_cfg.clamp_targets:
        targets = np.clip(targets, -train_cfg.d_max, train_cfg.d_max)

    model = SdfModel.init(network, derive_seed(train_cfg.seed, "train-init")).astype(np.float32)
    shuffle_rng = stream(train_cfg.seed, "train-shuffle")
    dropout_rng = stream(train_cfg.seed, "train-dropout")
    optimizer = _Adam(model.params, train_cfg)

    n = len(queries)
    history: list[float] = []
    for epoch in range(train_cfg.epochs):
        order = shuffle_rng.permutation(n)
        weighted_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            loss, grads = loss_and_gradients(
                model,
                pad_rows(encoded[batch], np.float32),
                targets[batch],
                train_cfg.d_max,
                rng=dropout_rng,
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    "training loss became non-finite",
                    epoch=epoch,
                    batch=start // train_cfg.batch_size,
                    param_norm=_param_norm(model.params),
                )
            optimizer.update(model.params, grads)
            weighted_loss += loss * len(batch)
        history.append(weighted_loss / n)
    return TrainResult(model, history)


def predict_sdf(
    model: SdfModel, positions: Points, encoding: EncodingConfig
) -> NDArray[F64]:
    """Eval-mode signed distance at raw (unencoded) positions."""
    return model.forward(positional_encode(positions, encoding))
