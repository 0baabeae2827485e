"""Network forward pass and hand-rolled gradients."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import network_oracle as oracle
from pasdf.errors import InvalidInputError, InvalidParameterError
from network_oracle import architectures, clamped_l1_loss
from pasdf.network import NetworkConfig, ParameterSet, SdfModel, loss_and_gradients


def finite_difference_gradients(
    model: SdfModel,
    encoded: np.ndarray,
    targets: np.ndarray,
    d_max: float,
    h: float = 1e-5,
) -> np.ndarray:
    """Central differences of the loss through the full forward pass."""
    flat = model.params.flat
    saved = flat.copy()
    grads = np.empty_like(flat)
    for i in range(flat.size):
        flat[i] += h
        loss_up = clamped_l1_loss(model.forward(encoded), targets, d_max)
        flat[i] -= 2 * h
        loss_down = clamped_l1_loss(model.forward(encoded), targets, d_max)
        grads[i] = (loss_up - loss_down) / (2 * h)
        flat[i] = saved[i]
    return grads


def gradient_check_draw(
    config: NetworkConfig, seed: int, batch: int
) -> tuple[SdfModel, np.ndarray, np.ndarray]:
    """The model, encoded inputs and targets a gradient check uses."""
    model = SdfModel.init(config, seed)
    rng = np.random.default_rng(seed + 1)
    encoded = rng.normal(0.0, 0.7, size=(batch, config.input_dim))
    targets = rng.normal(0.0, 0.5, size=batch)
    return model, encoded, targets


def kink_distance(
    config: NetworkConfig,
    seed: int,
    batch: int,
    d_max: float = 5.0,
    rng: np.random.Generator | None = None,
) -> float:
    """How close the draw sits to a kink of the loss: the smallest
    |hidden pre-activation| (ReLU), |prediction - target| (L1) and
    ||prediction| - d_max| (clamp), with dropout masks from ``rng``."""
    model, encoded, targets = gradient_check_draw(config, seed, batch)
    out, cache = oracle.forward_cached(model, encoded, rng)
    hidden = np.concatenate([z.ravel() for z in cache.pre_acts[:-1]])
    return float(
        min(
            np.abs(hidden).min(),
            np.abs(out - targets).min(),
            np.abs(np.abs(out) - d_max).min(),
        )
    )


def assert_matches_finite_differences(
    config: NetworkConfig, seed: int, d_max: float = 5.0, batch: int = 16
) -> None:
    model, encoded, targets = gradient_check_draw(config, seed, batch)
    _, grads = loss_and_gradients(model, encoded, targets, d_max)
    fd = finite_difference_gradients(model, encoded, targets, d_max)
    analytic = grads.flat
    err = np.abs(analytic - fd)
    tol = np.maximum(1e-7, 1e-4 * np.abs(fd))
    assert (err <= tol).all(), f"gradient mismatch: worst abs err {err.max():.3e}"


class TestNetworkConfig:
    def test_default_layer_shapes(self) -> None:
        shapes = NetworkConfig().layer_shapes()
        assert len(shapes) == 8
        assert shapes[0] == (512, 39)
        assert shapes[4] == (512, 512 + 39)
        assert shapes[-1] == (1, 512)
        assert all(s == (512, 512) for s in shapes[1:4] + shapes[5:7])

    def test_no_skip_shapes(self) -> None:
        shapes = NetworkConfig(
            input_dim=9, hidden_width=8, num_layers=2, skip_layer=None
        ).layer_shapes()
        assert shapes == [(8, 9), (1, 8)]

    def test_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            NetworkConfig(num_layers=1)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(skip_layer=0)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(num_layers=4, skip_layer=4)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(dropout=1.0)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(hidden_width=0)

    def test_rejects_a_rate_that_keeps_nothing(self) -> None:
        # Masks compare 16-bit words against round((1 - dropout) * 2**16);
        # from 1 - 2**-17 on that threshold rounds to 0 and keeps no unit.
        for dropout in (1.0 - 2.0**-17, 1.0 - 2.0**-20):
            with pytest.raises(InvalidParameterError, match="dropout"):
                NetworkConfig(dropout=dropout)
        assert NetworkConfig(dropout=1.0 - 2.0**-16).dropout == 1.0 - 2.0**-16


def tiny_config(**overrides) -> NetworkConfig:
    base = dict(input_dim=9, hidden_width=8, num_layers=2, skip_layer=None, dropout=0.0)
    base.update(overrides)
    return NetworkConfig(**base)


class TestForward:
    def test_zero_gains_collapse_to_final_bias(self) -> None:
        model = SdfModel.init(tiny_config(num_layers=3, skip_layer=1), seed=0)
        for g in model.params.gains:
            g[...] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 9))
        assert np.all(model.forward(x) == 0.0)
        model.params.biases[-1][...] = 0.25
        assert np.all(model.forward(x) == 0.25)

    def test_eval_forward_is_pure_and_deterministic(self) -> None:
        model = SdfModel.init(tiny_config(dropout=0.2), seed=3)
        before = model.params.flat.copy()
        x = np.random.default_rng(2).normal(size=(11, 9))
        first = model.forward(x)
        second = model.forward(x)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(model.params.flat, before)

    def test_eval_forward_equals_cached_forward_bitwise(self) -> None:
        model = SdfModel.init(tiny_config(num_layers=4, skip_layer=2), seed=5)
        x = np.random.default_rng(6).normal(size=(300, 9))
        cached, _ = oracle.forward_cached(model, x, None)
        np.testing.assert_array_equal(model.forward(x), cached)

    def test_direction_row_scaling_leaves_output_unchanged(self) -> None:
        model = SdfModel.init(tiny_config(num_layers=4, skip_layer=2), seed=4)
        x = np.random.default_rng(3).normal(size=(6, 9))
        base = model.forward(x)
        model.params.directions[1][2] *= 37.5
        model.params.directions[0][0] *= 1e-3
        np.testing.assert_allclose(model.forward(x), base, atol=1e-9)

    def test_training_mode_requires_rng_with_dropout(self) -> None:
        model = SdfModel.init(tiny_config(dropout=0.5), seed=0)
        x, y = np.zeros((2, 9)), np.zeros(2)
        with pytest.raises(InvalidParameterError, match="rng"):
            loss_and_gradients(model, x, y, 0.1)
        # Without dropout the rng is not needed.
        no_drop = SdfModel.init(tiny_config(), seed=0)
        loss_and_gradients(no_drop, x, y, 0.1)

    def test_dropout_expectation_matches_eval_forward(self) -> None:
        # With one hidden layer the output is linear in the masked
        # activations, so inverted dropout is unbiased exactly.
        model = SdfModel.init(tiny_config(hidden_width=16, dropout=0.3), seed=5)
        x = np.random.default_rng(4).normal(size=(4, 9))
        rng = np.random.default_rng(99)
        draws = np.stack([oracle.forward_cached(model, x, rng)[0] for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), model.forward(x), atol=0.05)

    def test_rejects_wrong_input_width(self) -> None:
        model = SdfModel.init(tiny_config(), seed=0)
        with pytest.raises(InvalidInputError, match="shape"):
            model.forward(np.zeros((3, 7)))

    def test_collapsed_direction_row_is_an_error(self) -> None:
        model = SdfModel.init(tiny_config(), seed=0)
        model.params.directions[0][1] = 0.0
        with pytest.raises(InvalidInputError, match="norm"):
            model.forward(np.zeros((1, 9)))

    def test_init_effective_weights_equal_raw_draw(self) -> None:
        # Gains are set to row norms, so weight-norm reproduces the
        # Gaussian draw bit-for-bit at init.
        model = SdfModel.init(tiny_config(num_layers=3, skip_layer=1), seed=8)
        for weight, direction in zip(model.effective_weights(), model.params.directions):
            np.testing.assert_allclose(weight, direction, rtol=1e-14)


class TestClampedL1:
    def test_zero_residual(self) -> None:
        assert clamped_l1_loss(np.array([0.03]), np.array([0.03]), 0.1) == 0.0

    def test_clamp_hits_prediction_only(self) -> None:
        assert clamped_l1_loss(np.array([0.5]), np.array([0.05]), 0.1) == pytest.approx(0.05)
        assert clamped_l1_loss(np.array([-0.2]), np.array([-0.15]), 0.1) == pytest.approx(0.05)
        # A target beyond the clamp is not touched.
        assert clamped_l1_loss(np.array([0.5]), np.array([0.4]), 0.1) == pytest.approx(0.3)

    def test_batch_mean(self) -> None:
        pred = np.array([0.0, 0.2])
        target = np.array([0.05, 0.05])
        assert clamped_l1_loss(pred, target, 0.1) == pytest.approx((0.05 + 0.05) / 2)

    def test_rejects_bad_d_max(self) -> None:
        with pytest.raises(InvalidParameterError):
            clamped_l1_loss(np.zeros(1), np.zeros(1), 0.0)


# Closest a gradient-check draw may sit to a kink of the loss.
_KINK_MARGIN = 1e-3


class TestGradients:
    def test_matches_finite_differences_tiny_probe(self) -> None:
        assert_matches_finite_differences(tiny_config(), seed=11)

    def test_matches_finite_differences_with_skip(self) -> None:
        assert_matches_finite_differences(
            tiny_config(num_layers=5, skip_layer=2, hidden_width=8), seed=12
        )

    def test_matches_finite_differences_skip_at_last_layer(self) -> None:
        assert_matches_finite_differences(
            tiny_config(num_layers=3, skip_layer=2, hidden_width=8), seed=13
        )

    def test_matches_finite_differences_wide_input_probe(self) -> None:
        assert_matches_finite_differences(
            NetworkConfig(input_dim=39, hidden_width=16, num_layers=4, skip_layer=2, dropout=0.0),
            seed=14,
        )

    def test_saturated_clamp_zeroes_every_gradient(self) -> None:
        model = SdfModel.init(tiny_config(), seed=15)
        x = np.random.default_rng(6).normal(size=(8, 9))
        out = model.forward(x)
        # d_max far below every |prediction| saturates the whole batch.
        d_max = np.abs(out).min() / 2.0
        targets = np.zeros(8)
        _, grads = loss_and_gradients(model, x, targets, float(d_max))
        assert np.all(grads.flat == 0.0)

    def test_duplicated_batch_leaves_gradients_unchanged(self) -> None:
        model = SdfModel.init(tiny_config(num_layers=4, skip_layer=2), seed=16)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 9))
        y = rng.normal(size=10)
        _, once = loss_and_gradients(model, x, y, 5.0)
        _, twice = loss_and_gradients(model, np.vstack([x, x]), np.concatenate([y, y]), 5.0)
        np.testing.assert_allclose(once.flat, twice.flat, atol=1e-15)

    def test_dropout_gradients_deterministic_per_stream(self) -> None:
        model = SdfModel.init(tiny_config(dropout=0.4), seed=17)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 9))
        y = rng.normal(size=12)
        loss_a, grads_a = loss_and_gradients(model, x, y, 5.0, rng=np.random.default_rng(55))
        loss_b, grads_b = loss_and_gradients(model, x, y, 5.0, rng=np.random.default_rng(55))
        assert loss_a == loss_b
        np.testing.assert_array_equal(grads_a.flat, grads_b.flat)

    def test_rejects_empty_batch(self) -> None:
        model = SdfModel.init(tiny_config(), seed=0)
        with pytest.raises(InvalidInputError):
            loss_and_gradients(model, np.zeros((0, 9)), np.zeros(0), 0.1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_gradient_check_random_parameter_points(self, seed: int) -> None:
        # The loss is piecewise linear in each pre-activation and residual;
        # a central difference of step h straddling a kink averages two
        # slopes, so the oracle itself is wrong there.  Draws within
        # _KINK_MARGIN (100 h) of a kink are skipped.
        config = tiny_config(num_layers=3, skip_layer=1, hidden_width=6)
        assume(kink_distance(config, seed, batch=6) >= _KINK_MARGIN)
        assert_matches_finite_differences(config, seed=seed, batch=6)

    def test_seed_4676_straddles_a_relu_kink(self) -> None:
        # This draw once failed the check above with a worst error of
        # 4.3e-2: one pre-activation lies within h = 1e-5 of zero.
        config = tiny_config(num_layers=3, skip_layer=1, hidden_width=6)
        assert kink_distance(config, 4676, batch=6) < 1e-5
        with pytest.raises(AssertionError, match="gradient mismatch"):
            assert_matches_finite_differences(config, seed=4676, batch=6)


def assert_gradients_close(
    got: ParameterSet, want: ParameterSet, tolerance: float
) -> None:
    """Each gradient array within ``tolerance`` of its largest entry."""
    for index, (a, b) in enumerate(zip(got.arrays(), want.arrays(), strict=True)):
        error = np.abs(a.astype(np.float64) - b).max()
        assert error <= tolerance * np.abs(b).max(), f"array {index}: error {error:.3e}"


batch_sizes = st.integers(1, 3).map(lambda k: 64 * k) | st.integers(1, 200)


class TestTrainingPass:
    """The lean training pass against the stored-activation oracle, and
    float32 against float64."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        skip=st.sampled_from([None, 1, 2, 3]),
        dropout=st.sampled_from([0.0, 0.3]),
        batch=batch_sizes,
        width=st.sampled_from([7, 16]),
    )
    def test_matches_oracle(
        self, seed: int, skip: int | None, dropout: float, batch: int, width: int
    ) -> None:
        # At width 7 a batch that is not a multiple of 4 leaves part of
        # each layer's last raw output unused.  The skip layer runs as two
        # products, so it is drawn at the first hidden-input layer, in the
        # middle and at the output layer.
        config = tiny_config(
            num_layers=4, hidden_width=width, skip_layer=skip, dropout=dropout
        )
        model, encoded, targets = gradient_check_draw(config, seed, batch)
        # d_max inside the spread of predictions saturates some rows.
        loss, grads = loss_and_gradients(
            model, encoded, targets, 0.5, rng=np.random.default_rng(seed)
        )
        want_loss, want = oracle.loss_and_gradients(
            model, encoded, targets, 0.5, rng=np.random.default_rng(seed)
        )
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert_gradients_close(grads, want, 1e-12)

    @given(
        seed=st.integers(0, 2**31 - 1),
        skip=st.booleans(),
        dropout=st.sampled_from([0.0, 0.3]),
    )
    def test_float32_matches_float64(self, seed: int, skip: bool, dropout: float) -> None:
        # A float32 rounding can only flip a ReLU, sign or clamp branch
        # that sits within its error of the kink; such draws are skipped.
        config = tiny_config(
            num_layers=4, hidden_width=16, skip_layer=2 if skip else None, dropout=dropout
        )
        batch, d_max = 16, 0.5
        assume(
            kink_distance(config, seed, batch, d_max, rng=np.random.default_rng(seed)) >= 1e-4
        )
        model, encoded, targets = gradient_check_draw(config, seed, batch)
        single = model.astype(np.float32)
        loss, grads = loss_and_gradients(
            single, encoded, targets, d_max, rng=np.random.default_rng(seed)
        )
        want_loss, want = loss_and_gradients(
            model, encoded, targets, d_max, rng=np.random.default_rng(seed)
        )
        assert all(a.dtype == np.float32 for a in grads.arrays())
        assert loss == pytest.approx(want_loss, rel=1e-6)
        assert_gradients_close(grads, want, 1e-3)

    @pytest.mark.parametrize("d_max", [0.0, -1.0, float("nan")])
    def test_rejects_d_max_that_is_not_positive(self, d_max: float) -> None:
        model, encoded, targets = gradient_check_draw(tiny_config(), 3, 4)
        with pytest.raises(InvalidParameterError, match="d_max"):
            loss_and_gradients(model, encoded, targets, d_max)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_draws_a_quarter_raw_output_per_unit(self, dropout: float) -> None:
        # Three hidden layers of 5 x 7 units take ceil(35 / 4) = 9 raw
        # outputs each, and no draw at all without dropout.
        config = tiny_config(num_layers=4, hidden_width=7, skip_layer=2, dropout=dropout)
        model, encoded, targets = gradient_check_draw(config, 29, 5)
        rng = np.random.default_rng(31)
        loss_and_gradients(model, encoded, targets, 0.5, rng=rng)
        fresh = np.random.default_rng(31)
        if dropout:
            fresh.bit_generator.random_raw(3 * 9)
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_kept_share_of_a_bench_sized_draw(self) -> None:
        # One hidden layer of constant activation 1 and an output layer of
        # unit weights: each row's output counts its kept units over the
        # kept share, so the loss against zero targets gives the share.
        rows, width = 4096, 64
        config = NetworkConfig(
            input_dim=9, hidden_width=width, num_layers=2, skip_layer=None, dropout=0.2
        )
        model = SdfModel.init(config, seed=0)
        model.params.gains[0][...] = 0.0
        model.params.biases[0][...] = 1.0
        model.params.directions[1][...] = 1.0
        model.params.gains[1][...] = np.sqrt(width)
        share = 52429 / 2**16
        loss, _ = loss_and_gradients(
            model, np.zeros((rows, 9)), np.zeros(rows), 1e3, rng=np.random.default_rng(37)
        )
        kept = loss * share / width
        sigma = np.sqrt(share * (1.0 - share) / (rows * width))
        assert abs(kept - share) <= 4.0 * sigma


class TestParameterSet:
    @given(architectures())
    def test_arrays_are_views_of_flat_in_layer_shapes_order(self, config) -> None:
        model = SdfModel.init(config, seed=20)
        flat = model.params.flat
        arrays = model.params.arrays()
        shapes = [
            shape
            for fan_out, fan_in in config.layer_shapes()
            for shape in ((fan_out, fan_in), (fan_out,), (fan_out,))
        ]
        assert [a.shape for a in arrays] == shapes
        assert all(np.shares_memory(a, flat) for a in arrays)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), flat)
        assert flat.size == config.parameter_count()

    def test_takes_flat_without_a_copy(self) -> None:
        config = tiny_config(num_layers=3, skip_layer=2)
        flat = np.arange(config.parameter_count(), dtype=np.float64)
        params = ParameterSet(config, flat)
        assert params.flat is flat
        flat[-1] = -1.0
        assert params.biases[-1][0] == -1.0

    def test_rejects_wrong_length(self) -> None:
        config = tiny_config()
        count = config.parameter_count()
        for flat in (np.zeros(count - 1), np.zeros(count + 1), np.zeros((1, count))):
            with pytest.raises(InvalidInputError, match="flat parameter vector"):
                ParameterSet(config, flat)

    def test_gradients_share_the_model_layout(self) -> None:
        model = SdfModel.init(tiny_config(num_layers=4, skip_layer=3), seed=1)
        model = model.astype(np.float32)
        rng = np.random.default_rng(2)
        _, grads = loss_and_gradients(model, rng.normal(size=(5, 9)), rng.normal(size=5), 1.0)
        assert grads.flat.dtype == np.float32
        for a, b in zip(grads.arrays(), model.params.arrays(), strict=True):
            assert a.shape == b.shape
