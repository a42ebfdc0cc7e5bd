import math

import numpy as np
import pytest

from asms import nn
from asms.core import RngStream


def tiny_net(seed=0, hidden=8, out=3, activation="tanh"):
    return nn.init_mlp(6, hidden, out, activation, RngStream(seed, "net"))


class TestInit:
    def test_flat_length_from_shape_formula(self):
        params = nn.init_mlp(6, 128, 5, "tanh", RngStream(0, "i"))
        want = 6 * 128 + 128 + 128 * 128 + 128 + 128 * 5 + 5
        assert params.theta.size == want == 18053

    def test_biases_zero_after_init(self):
        params = tiny_net()
        for _, b in params.layers():
            assert np.all(b == 0.0)

    def test_weights_within_glorot_bound(self):
        params = tiny_net(hidden=16)
        for w, _ in params.layers():
            bound = math.sqrt(6.0 / sum(w.shape))
            assert np.all(np.abs(w) <= bound)

    def test_same_seed_identical(self):
        a = nn.init_mlp(6, 16, 4, "relu", RngStream(3, "x"))
        b = nn.init_mlp(6, 16, 4, "relu", RngStream(3, "x"))
        assert np.array_equal(a.theta, b.theta)

    def test_head_defaults(self):
        assert tiny_net(out=5).head == "categorical"
        assert tiny_net(out=1).head == "scalar"

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            nn.init_mlp(0, 8, 2, "tanh", RngStream(0, "x"))


class TestForward:
    def test_zero_network_outputs_zero(self):
        params = tiny_net().with_theta(np.zeros_like(tiny_net().theta))
        out, _ = nn.forward(params, np.ones(6))
        assert np.all(out == 0.0)

    def test_relu_gates_negative_path(self):
        shapes = ((1, 1), (1, 1), (1, 1))
        params = nn.ModelParams(shapes=shapes, theta=np.array([1.0, 0.0] * 3),
                                activation="relu", head="scalar")
        out, _ = nn.forward(params, np.array([-3.0]))
        assert out[0] == 0.0
        out_pos, _ = nn.forward(params, np.array([3.0]))
        assert out_pos[0] == 3.0

    def test_matches_matmul_oracle(self):
        rng = RngStream(5, "fwd")
        params = tiny_net(seed=5, hidden=12, out=4)
        x = rng.uniform(-2, 2, size=6)
        got, _ = nn.forward(params, x)
        (w1, b1), (w2, b2), (w3, b3) = params.layers()
        want = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2) @ w3 + b3
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_batch_matches_single(self):
        params = tiny_net(seed=7)
        xs = RngStream(8, "b").uniform(-1, 1, size=18).reshape(3, 6)
        batch_out, _ = nn.forward(params, xs)
        for i in range(3):
            single, _ = nn.forward(params, xs[i])
            np.testing.assert_allclose(batch_out[i], single, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nn.forward(tiny_net(), np.ones(5))


class TestBackward:
    def test_zero_upstream_gradient(self):
        params = tiny_net(seed=2)
        x = np.ones(6)
        _, cache = nn.forward(params, x)
        grad = nn.backward(params, cache, np.zeros(3))
        assert np.all(grad == 0.0)

    def test_linear_path_closed_form(self):
        # relu net with unit weights on positive input behaves linearly:
        # d(out)/d(w1) = x
        shapes = ((1, 1), (1, 1), (1, 1))
        params = nn.ModelParams(shapes=shapes, theta=np.array([1.0, 0.0] * 3),
                                activation="relu", head="scalar")
        x = np.array([2.5])
        out, cache = nn.forward(params, x)
        grad = nn.backward(params, cache, np.array([1.0]))
        assert grad[0] == pytest.approx(2.5)   # dW1 = x * downstream (=1*1)
        assert grad[2] == pytest.approx(2.5)   # dW2 = a1 = 2.5
        assert grad[4] == pytest.approx(2.5)   # dW3 = a2 = 2.5

    def test_matches_finite_differences(self):
        rng = RngStream(11, "fd")
        for activation in ("tanh", "relu"):
            params = tiny_net(seed=13, hidden=10, out=2, activation=activation)
            x = rng.uniform(0.1, 1.5, size=12).reshape(2, 6)
            target = rng.uniform(-1, 1, size=2)

            def loss(p):
                out, cache = nn.forward(p, x)
                err = out[:, 0] - target
                grad = nn.backward(p, cache, np.column_stack(
                    [2 * err / err.size, np.zeros(2)]))
                return float((err ** 2).mean()), grad

            err = nn.grad_check(params, loss, rng.spawn(activation), n_coords=200)
            assert err < 1e-5

    def test_stale_cache_rejected(self):
        params = tiny_net()
        _, cache = nn.forward(params, np.ones(6))
        with pytest.raises(ValueError):
            nn.backward(params, cache, np.zeros((4, 3)))


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = tiny_net(seed=4)
        state = nn.AdamState.zeros(params.theta.size)
        after, state2 = nn.adam_step(params, state, np.zeros_like(params.theta), 0.01)
        assert np.array_equal(after.theta, params.theta)
        assert state2.step == 1

    def test_first_step_is_signed_lr(self):
        theta = np.array([0.5, -0.5, 0.1, 0.0, 0.0, 0.0])
        params = nn.ModelParams(shapes=((2, 2),), theta=theta,
                                activation="tanh", head="scalar")
        grad = np.array([1e-4, -2e-4, 5e-5, 0.0, 0.0, 0.0])
        after, _ = nn.adam_step(params, nn.AdamState.zeros(6), grad, lr=0.01)
        step = after.theta - theta
        # bias-corrected first step is ~ -lr * sign(g) wherever g != 0
        np.testing.assert_allclose(step[:3], [-0.01, 0.01, -0.01], rtol=1e-3)
        assert np.all(step[3:] == 0.0)

    def test_scalar_quadratic_convergence(self):
        params = nn.ModelParams(shapes=((1, 1),), theta=np.array([1.0, 0.0]),
                                activation="relu", head="scalar")
        state = nn.AdamState.zeros(2)
        for _ in range(200):
            grad = np.array([2.0 * params.theta[0], 0.0])
            params, state = nn.adam_step(params, state, grad, lr=0.1)
        assert abs(params.theta[0]) < 1e-2

    def test_non_finite_gradient_skips_step(self, caplog):
        params = tiny_net(seed=6)
        state = nn.AdamState.zeros(params.theta.size)
        bad = np.zeros_like(params.theta)
        bad[0] = np.nan
        with caplog.at_level("WARNING"):
            after, state2 = nn.adam_step(params, state, bad, 0.01)
        assert np.array_equal(after.theta, params.theta)
        assert state2.step == 0
        assert "non-finite" in caplog.text


class TestCategoricalHead:
    def test_uniform_logits(self):
        p, lp, ent = nn.categorical_head(np.zeros(5))
        np.testing.assert_allclose(p, 0.2, atol=1e-15)
        assert ent == pytest.approx(math.log(5))

    def test_extreme_logits_stable(self):
        p, lp, ent = nn.categorical_head(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(lp))
        assert p[0] == pytest.approx(1.0)

    def test_exp_logp_consistency(self):
        logits = RngStream(1, "c").uniform(-20, 20, size=9)
        p, lp, _ = nn.categorical_head(logits)
        np.testing.assert_allclose(np.exp(lp), p, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        logits = RngStream(2, "c").uniform(-5, 5, size=7)
        p1, _, _ = nn.categorical_head(logits)
        p2, _, _ = nn.categorical_head(logits + 42.0)
        np.testing.assert_allclose(p1, p2, atol=1e-12)


class TestGradCheck:
    def test_exact_gradient_passes(self):
        rng = RngStream(3, "gc")
        params = tiny_net(seed=9, hidden=6, out=1)
        x = rng.uniform(0, 1, size=12).reshape(2, 6)
        t = rng.uniform(-1, 1, size=2)

        def loss(p):
            out, cache = nn.forward(p, x)
            err = out[:, 0] - t
            return float((err ** 2).mean()), nn.backward(
                p, cache, (2 * err / 2)[:, None])

        assert nn.grad_check(params, loss, rng.spawn("a")) < 1e-6

    def test_scaled_gradient_fails(self):
        rng = RngStream(3, "gc2")
        params = tiny_net(seed=9, hidden=6, out=1)
        x = rng.uniform(0, 1, size=12).reshape(2, 6)
        t = rng.uniform(-1, 1, size=2)

        def bad_loss(p):
            out, cache = nn.forward(p, x)
            err = out[:, 0] - t
            grad = nn.backward(p, cache, (2 * err / 2)[:, None])
            return float((err ** 2).mean()), grad * 1.01

        assert nn.grad_check(params, bad_loss, rng.spawn("b")) > 1e-4


class TestSerialization:
    def test_round_trip_bit_identical(self):
        params = nn.init_mlp(6, 32, 5, "tanh", RngStream(10, "s"))
        back = nn.params_from_bytes(nn.params_to_bytes(params))
        assert np.array_equal(back.theta, params.theta)
        assert back.shapes == params.shapes
        assert (back.activation, back.head) == (params.activation, params.head)

    def test_crc_detects_flip(self):
        blob = bytearray(nn.params_to_bytes(tiny_net()))
        blob[30] ^= 0x01
        with pytest.raises(nn.CheckpointError, match="CRC"):
            nn.params_from_bytes(bytes(blob))

    def test_truncation_detected(self):
        blob = nn.params_to_bytes(tiny_net())
        with pytest.raises(nn.CheckpointError):
            nn.params_from_bytes(blob[:10])

    def test_bad_magic(self):
        blob = bytearray(nn.params_to_bytes(tiny_net()))
        blob[0] = ord("X")
        with pytest.raises(nn.CheckpointError):
            nn.params_from_bytes(bytes(blob))

    def test_file_round_trip(self, tmp_path):
        params = tiny_net(seed=12)
        path = tmp_path / "model.fmap"
        size = nn.save_params(str(path), params)
        assert path.stat().st_size == size
        back = nn.load_params(str(path))
        assert np.array_equal(back.theta, params.theta)

    def test_size_arithmetic(self):
        # header 10 + shapes 24 + length 8 + payload 8n + crc 4
        params = nn.init_mlp(6, 128, 5, "tanh", RngStream(0, "z"))
        assert len(nn.params_to_bytes(params)) == 10 + 24 + 8 + 8 * 18053 + 4
        for net in (params, tiny_net()):
            assert nn.serialized_size(net) == len(nn.params_to_bytes(net))
