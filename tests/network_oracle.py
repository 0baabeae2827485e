"""The straightforward float64 training pass, kept as the test oracle.

It stores every layer's input, pre-activation and dropout mask, and
back-propagates through them one factor at a time: the dropout mask and
its 1/kept-share scale, then the ReLU derivative from the stored
pre-activation.  It cuts the dropout words from the bit generator's raw
outputs by shift and mask, not through a dtype view as the pass does.
``pasdf.network.loss_and_gradients`` must agree with it, and its loss
is ``clamped_l1_loss``, which finite-difference checks take through
``SdfModel.forward`` by bumping entries of ``ParameterSet.flat``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from pasdf.errors import InvalidInputError, InvalidParameterError
from pasdf.network import NetworkConfig, ParameterSet, SdfModel


@st.composite
def architectures(draw) -> NetworkConfig:
    """Small legal networks: no skip layer, or a skip at any legal layer."""
    layers = draw(st.integers(2, 6))
    return NetworkConfig(
        input_dim=draw(st.integers(1, 12)),
        hidden_width=draw(st.integers(1, 12)),
        num_layers=layers,
        skip_layer=draw(st.sampled_from([None, *range(1, layers)])),
        dropout=draw(st.sampled_from([0.0, 0.2])),
    )


def clamped_l1_loss(pred: np.ndarray, target: np.ndarray, d_max: float) -> float:
    """Mean |clamp(pred, -d_max, d_max) - target|.

    The clamp applies to the prediction only; far-field predictions saturate
    instead of dominating the loss.
    """
    if d_max <= 0.0:
        raise InvalidParameterError("d_max must be > 0")
    clamped = np.clip(pred, -d_max, d_max)
    return float(np.mean(np.abs(clamped - target)))


def kept_share(dropout: float) -> float:
    """Probability that a 16-bit word keeps its unit."""
    return round((1.0 - dropout) * 2**16) / 2**16


def dropout_mask(
    rng: np.random.Generator, shape: tuple[int, int], dropout: float
) -> np.ndarray:
    """A 0/1 float64 mask: unit ``i * width + j`` is kept where that
    16-bit word of ``rng.bit_generator.random_raw`` is below the keep
    threshold, taking words low bits first from each 64-bit output."""
    units = shape[0] * shape[1]
    raw = rng.bit_generator.random_raw(-(-units // 4))
    words = np.stack([(raw >> (16 * k)) & 0xFFFF for k in range(4)], axis=1).ravel()
    return (words[:units] < kept_share(dropout) * 2**16).reshape(shape).astype(np.float64)


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]
    pre_acts: list[np.ndarray]
    masks: list[np.ndarray | None]
    weights: list[np.ndarray]


def forward_cached(
    model: SdfModel, encoded: np.ndarray, rng: np.random.Generator | None
) -> tuple[np.ndarray, ForwardCache]:
    """Training-mode forward pass: output per row and everything kept."""
    cfg = model.config
    x = np.ascontiguousarray(encoded, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise InvalidInputError(f"encoded input has shape {x.shape}")
    use_dropout = cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise InvalidParameterError("forward with dropout needs an rng")

    weights = model.effective_weights()
    keep = kept_share(cfg.dropout)
    inputs: list[np.ndarray] = []
    pre_acts: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    h = x
    for layer in range(cfg.num_layers):
        if layer == cfg.skip_layer:
            h = np.concatenate([h, x], axis=1)
        inputs.append(h)
        z = h @ weights[layer].T + model.params.biases[layer]
        pre_acts.append(z)
        if layer == cfg.num_layers - 1:
            h = z
            masks.append(None)
        else:
            a = np.maximum(z, 0.0)
            if use_dropout:
                mask = dropout_mask(rng, a.shape, cfg.dropout)
                a = a * mask / keep
                masks.append(mask)
            else:
                masks.append(None)
            h = a
    return h[:, 0], ForwardCache(inputs, pre_acts, masks, weights)


def loss_and_gradients(
    model: SdfModel,
    encoded: np.ndarray,
    targets: np.ndarray,
    d_max: float,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[float, ParameterSet]:
    """Mean clamped L1 loss and its gradients, with the subgradient
    conventions of ``pasdf.network.loss_and_gradients``."""
    y = np.ascontiguousarray(targets, dtype=np.float64)
    out, cache = forward_cached(model, encoded, rng)
    if y.shape != out.shape:
        raise InvalidInputError("targets must pair 1:1 with inputs")

    n = out.shape[0]
    loss = clamped_l1_loss(out, y, d_max)
    clamped = np.clip(out, -d_max, d_max)
    d_out = np.sign(clamped - y) / n
    d_out *= np.abs(out) <= d_max

    cfg = model.config
    keep = kept_share(cfg.dropout)
    grads = ParameterSet(cfg, np.zeros_like(model.params.flat))
    dz = d_out[:, None]
    for layer in reversed(range(cfg.num_layers)):
        h = cache.inputs[layer]
        d_weight = dz.T @ h
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
        dh = dz @ cache.weights[layer]
        if layer == cfg.skip_layer:
            dh = dh[:, : dh.shape[1] - cfg.input_dim]
        mask = cache.masks[layer - 1]
        if mask is not None:
            dh = dh * mask / keep
        dz = dh * (cache.pre_acts[layer - 1] > 0.0)
    return loss, grads
