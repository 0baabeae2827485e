"""The implicit surface network and its hand-rolled differentiation.

An MLP maps encoded coordinates to a scalar signed distance.  Layers are
reparameterized with weight normalization (weight = gain * direction /
row-norm) so magnitude and direction train separately; hidden activations
are ReLU, and the encoded input is concatenated back in at a
configurable skip layer.  Gradients are exact reverse-mode derivatives
computed by hand; no autograd framework is involved anywhere.

There is one inference pass and one training pass, and both compute
at the precision of the model's parameters: float32 for a trained
model, whether fresh or loaded from a checkpoint, which stores exactly
that precision; float64 for a freshly initialized one.
``SdfModel.forward`` is inference only: no dropout, no kept
activations.  ``loss_and_gradients`` is the training pass, with
inverted dropout.  Dropout masks come from raw 16-bit words of the bit
generator, four to each 64-bit output, so a rate acts at 2**-16
resolution.  The pass keeps each hidden layer's output and one boolean
mask, ReLU active and unit kept, which gates the output on the way
forward and the gradient on the way back.  One over the kept share is
folded into the hidden-input weight columns of the layer after, so no
activation or gradient row is scaled by it, and the skip layer runs as
two products instead of reading a concatenated input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, InvalidParameterError
from .geometry import F64

_MIN_ROW_NORM = 1e-12

# Dropout masks are cut from the bit generator's raw 64-bit outputs,
# four 16-bit words each, so a word takes one of this many values.
_WORD_VALUES = 2**16

# Batches are padded with zero rows to a multiple of this, so every row
# runs through the BLAS main kernel (never a short-batch or remainder-row
# path) and gets the same bits whatever batch it sits in.
_ROW_MULTIPLE = 64


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of the MLP and its training dropout rate.

    The dropout rate acts at 2**-16 resolution: training keeps a unit
    with probability ``round((1 - dropout) * 2**16) / 2**16``.  A rate
    of 1 - 2**-17 or more would keep no unit and is rejected.
    """

    input_dim: int = 39
    hidden_width: int = 64
    num_layers: int = 8
    skip_layer: int | None = 4
    dropout: float = 0.2

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise InvalidParameterError("input_dim must be >= 1")
        if self.hidden_width < 1:
            raise InvalidParameterError("hidden_width must be >= 1")
        if self.num_layers < 2:
            raise InvalidParameterError("num_layers must be >= 2")
        if self.skip_layer is not None and not 1 <= self.skip_layer <= self.num_layers - 1:
            raise InvalidParameterError(
                "skip_layer must be None or in [1, num_layers - 1]"
            )
        if not 0.0 <= self.dropout < 1.0 or _keep_threshold(self.dropout) == 0:
            raise InvalidParameterError("dropout must be in [0, 1 - 2**-17)")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(out, in) per affine layer; the skip layer's input is widened."""
        shapes: list[tuple[int, int]] = []
        for layer in range(self.num_layers):
            fan_in = self.input_dim if layer == 0 else self.hidden_width
            if layer == self.skip_layer:
                fan_in += self.input_dim
            fan_out = 1 if layer == self.num_layers - 1 else self.hidden_width
            shapes.append((fan_out, fan_in))
        return shapes

    def parameter_count(self) -> int:
        """Values in ``ParameterSet.flat``: out * (in + 2) summed over
        ``layer_shapes()``, in closed form, so it costs the same for any
        number of layers."""
        width, dim, layers = self.hidden_width, self.input_dim, self.num_layers
        count = width * (dim + 2) + (layers - 2) * width * (width + 2) + width + 2
        if self.skip_layer is not None:
            count += dim * (1 if self.skip_layer == layers - 1 else width)
        return count


class ParameterSet:
    """The network's parameters, or gradients of the same shapes, as
    views of one flat vector.

    ``flat`` holds every array, layer by layer in the order of
    ``NetworkConfig.layer_shapes()``: each layer's direction, (out, in)
    row-major, then its gain and its bias, (out,) each.  ``directions``,
    ``gains`` and ``biases`` are views into it, so an optimizer updates
    every array in one elementwise pass on ``flat``, and a checkpoint
    stores ``flat`` as it is.
    """

    def __init__(self, config: NetworkConfig, flat: NDArray[F64]) -> None:
        """Views of ``flat``, which the set takes over without a copy."""
        count = config.parameter_count()
        if flat.shape != (count,):
            raise InvalidInputError(
                f"flat parameter vector has shape {flat.shape}, the network needs ({count},)"
            )
        self.flat = flat
        self._arrays: list[NDArray[F64]] = []
        cursor = 0
        for fan_out, fan_in in config.layer_shapes():
            for shape in ((fan_out, fan_in), (fan_out,), (fan_out,)):
                size = math.prod(shape)
                self._arrays.append(flat[cursor : cursor + size].reshape(shape))
                cursor += size
        self.directions = self._arrays[0::3]
        self.gains = self._arrays[1::3]
        self.biases = self._arrays[2::3]

    def arrays(self) -> list[NDArray[F64]]:
        """Every array, in the order they lie in ``flat``."""
        return list(self._arrays)


@dataclass
class SdfModel:
    config: NetworkConfig
    params: ParameterSet

    @classmethod
    def init(cls, config: NetworkConfig, seed: int) -> "SdfModel":
        """Gaussian directions scaled by 1/sqrt(fan_in); gains set to the row
        norms so the effective weights equal the raw draw; zero biases."""
        rng = np.random.default_rng(seed)
        parts: list[NDArray[F64]] = []
        for fan_out, fan_in in config.layer_shapes():
            weight = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
            parts += [weight.ravel(), np.linalg.norm(weight, axis=1), np.zeros(fan_out)]
        return cls(config, ParameterSet(config, np.concatenate(parts)))

    def astype(self, dtype: np.dtype | type) -> "SdfModel":
        """A copy of the model with its parameters cast to ``dtype``."""
        return SdfModel(self.config, ParameterSet(self.config, self.params.flat.astype(dtype)))

    @property
    def dtype(self) -> np.dtype:
        """Precision of the parameters, which inference computes in."""
        return self.params.flat.dtype

    def effective_weights(self) -> list[NDArray[F64]]:
        weights: list[NDArray[F64]] = []
        for v, g in zip(self.params.directions, self.params.gains):
            norms = np.linalg.norm(v, axis=1)
            if norms.min() <= _MIN_ROW_NORM:
                raise InvalidInputError("weight direction row norm collapsed")
            weights.append((g / norms)[:, None] * v)
        return weights

    def forward(self, encoded: NDArray[F64]) -> NDArray[F64]:
        """Predicted signed distance per encoded row, as float64.

        Inference only: folds the weight normalization once, keeps no
        activations, applies no dropout, and computes in the dtype of the
        parameters.  A row's value does not depend on the other rows of
        the batch or on its size.
        """
        cfg = self.config
        x = np.asarray(encoded)
        _check_encoded(x, cfg)
        rows = len(x)
        x = pad_rows(x, self.dtype)
        h = x
        for layer, (weight, bias) in enumerate(
            zip(self.effective_weights(), self.params.biases)
        ):
            if layer == cfg.skip_layer:
                h = np.concatenate([h, x], axis=1)
            h = h @ weight.T
            h += bias
            if layer < cfg.num_layers - 1:
                np.maximum(h, 0.0, out=h)
        return h[:rows, 0].astype(np.float64)


def _keep_threshold(dropout: float) -> int:
    """The 16-bit words below this keep their unit."""
    return round((1.0 - dropout) * _WORD_VALUES)


def pad_rows(x: np.ndarray, dtype: np.dtype | type) -> np.ndarray:
    """``x`` as a contiguous ``dtype`` array, with zero rows appended up
    to a multiple of ``_ROW_MULTIPLE`` rows."""
    rows = len(x)
    pad = -rows % _ROW_MULTIPLE
    if not pad:
        return np.ascontiguousarray(x, dtype=dtype)
    padded = np.zeros((rows + pad, x.shape[1]), dtype=dtype)
    padded[:rows] = x
    return padded


def _check_encoded(x: np.ndarray, config: NetworkConfig) -> None:
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise InvalidInputError(
            f"encoded input must have shape (n, {config.input_dim}), got {x.shape}"
        )


def loss_and_gradients(
    model: SdfModel,
    encoded: NDArray[F64],
    targets: NDArray[F64],
    d_max: float,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[float, ParameterSet]:
    """Mean clamped L1 loss and its exact gradients for every parameter.

    The training pass.  Like ``SdfModel.forward`` it folds the weight
    normalization once and computes in the dtype of the parameters; the
    loss itself is taken in float64.  ``targets`` pair with the leading
    rows of ``encoded``; any rows past the last target are padding (see
    ``pad_rows``): they run through the pass, stay out of the loss mean
    and add exact zeros to every gradient.

    It applies inverted dropout whenever the config sets a rate, from
    ``rng``, which is then required.  Each hidden layer's mask takes
    ``ceil(rows * width / 4)`` raw 64-bit outputs of
    ``rng.bit_generator``, splits each into four 16-bit words, low bits
    first, and keeps unit ``(i, j)`` where word ``i * width + j`` is
    below ``t = _keep_threshold(dropout)``.  A hidden layer keeps one
    boolean mask, ReLU active and unit kept, ``(z > 0) & (word < t)``;
    it zeroes the layer's output on the way forward and gates the
    layer's gradient on the way back.  The factor ``2**16 / t``, one
    over the kept share, which makes the dropout exactly unbiased, is
    applied once per layer and never to an activation or a gradient
    row: the layer that reads a hidden output carries it in its
    hidden-input weight columns, and that layer's weight gradient is
    scaled by it once.  The skip layer runs as two products, hidden
    output and encoded input against their own weight columns, so
    nothing is concatenated, and its backward product takes the hidden
    columns only.

    Subgradient conventions: sign(0) = 0 for the absolute value, zero
    gradient where the clamp saturates (strictly outside [-d_max, d_max]),
    ReLU'(0) = 0, and the dropout mask drawn in the forward pass is reused
    unchanged on the way back.
    """
    if not d_max > 0.0:
        raise InvalidParameterError("d_max must be > 0")
    cfg = model.config
    x = np.asarray(encoded)
    _check_encoded(x, cfg)
    rows = len(x)
    y = np.asarray(targets, dtype=np.float64)
    if rows == 0:
        raise InvalidInputError("gradient batch must be non-empty")
    if y.ndim != 1 or not 1 <= y.size <= rows:
        raise InvalidInputError("targets must pair 1:1 with the leading inputs")
    samples = y.size
    use_dropout = cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise InvalidParameterError("training with dropout needs an rng")

    threshold = _keep_threshold(cfg.dropout)
    inverse_share = _WORD_VALUES / threshold
    width = cfg.hidden_width
    units = rows * width
    skip = cfg.skip_layer
    weights = model.effective_weights()
    # Layers past the first read the previous hidden output through their
    # first ``width`` columns, which carry 1 / kept share folded in; the
    # skip layer reads the input through the rest.
    hidden_weights = [w[:, :width] * inverse_share for w in weights[1:]]
    skip_weight = None if skip is None else np.ascontiguousarray(weights[skip][:, width:])
    x = np.ascontiguousarray(x, dtype=model.dtype)
    outputs: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for layer, bias in enumerate(model.params.biases):
        if layer == 0:
            z = x @ weights[0].T
        else:
            z = outputs[-1] @ hidden_weights[layer - 1].T
        if layer == skip:
            z += x @ skip_weight.T
        z += bias
        if layer == cfg.num_layers - 1:
            break
        mask = z > 0.0
        if use_dropout:
            raw = rng.bit_generator.random_raw(-(-units // 4))
            # Little-endian, so each output's words come low bits first.
            words = raw.astype("<u8", copy=False).view("<u2")[:units]
            mask &= words.reshape(z.shape) < threshold
        z *= mask
        outputs.append(z)
        masks.append(mask)

    out = z[:samples, 0].astype(np.float64)
    clamped = np.clip(out, -d_max, d_max)
    loss = float(np.mean(np.abs(clamped - y)))
    d_out = np.zeros(rows)
    d_out[:samples] = np.sign(clamped - y) / samples
    d_out[:samples] *= np.abs(out) <= d_max

    grads = ParameterSet(cfg, np.zeros_like(model.params.flat))
    dz = d_out.astype(z.dtype, copy=False)[:, None]
    for layer in reversed(range(cfg.num_layers)):
        if layer == 0:
            d_weight = dz.T @ x
        else:
            d_weight = dz.T @ outputs[layer - 1]
            d_weight *= inverse_share
            if layer == skip:
                d_weight = np.concatenate([d_weight, dz.T @ x], axis=1)
        grads.biases[layer][...] = dz.sum(axis=0)
        v = model.params.directions[layer]
        norms = np.linalg.norm(v, axis=1)
        unit = v / norms[:, None]
        d_gain = np.einsum("ij,ij->i", d_weight, unit)
        grads.gains[layer][...] = d_gain
        scale = (model.params.gains[layer] / norms)[:, None]
        grads.directions[layer][...] = scale * (d_weight - d_gain[:, None] * unit)
        if layer == 0:
            break
        dz = dz @ hidden_weights[layer - 1]
        dz *= masks[layer - 1]
    return loss, grads
