import copy
import math
import pickle
import re
import struct
import zlib

import numpy as np
import pytest

from asms import nn
from asms.core import HyperParams, RngStream

GRAD_CLIP = HyperParams().grad_clip


def tiny_net(seed=0, hidden=8, out=3, activation="tanh"):
    return nn.init_mlp(6, hidden, out, activation, RngStream(seed, "net"))


def crafted_checkpoint(shapes):
    """A checkpoint with the given layer shapes, zero parameters, the head
    tag of its output size and a valid CRC."""
    out = shapes[-1][1] if shapes else 0
    size = nn.flat_size(tuple(shapes))
    body = (nn.CHECKPOINT_MAGIC
            + struct.pack("<HBBH", nn.CHECKPOINT_VERSION, 0, 0 if out > 1 else 1, len(shapes))
            + b"".join(struct.pack("<II", i, o) for i, o in shapes)
            + struct.pack("<Q", size) + bytes(8 * size))
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


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
        # the serialized head tag follows the output size: 0 categorical, 1 scalar
        assert nn.params_to_bytes(tiny_net(out=5))[7] == 0
        assert nn.params_to_bytes(tiny_net(out=1))[7] == 1

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            nn.init_mlp(0, 8, 2, "tanh", RngStream(0, "x"))

    def test_with_theta_checks_the_vector(self):
        params = tiny_net()
        with pytest.raises(ValueError, match="length"):
            params.with_theta(params.theta[:-1])
        bad = params.theta.copy()
        bad[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            params.with_theta(bad)


def forwards_like_a_fresh_copy(params):
    """Whether ``params`` forwards as a model built from a copy of its
    current vector does."""
    x = np.linspace(0.1, 0.9, 6)
    fresh = nn.ModelParams(params.shapes, params.theta.copy(), params.activation)
    return np.array_equal(nn.forward(params, x)[0], nn.forward(fresh, x)[0])


class TestLayerViews:
    def test_views_see_in_place_writes(self):
        # grad_check's pattern: wrap a vector, then write into it
        bumped = tiny_net().theta.copy()
        params = tiny_net().with_theta(bumped)
        before = nn.forward(params, np.ones(6))[0]
        bumped[:] += 0.25
        (w1, _), _, (_, b3) = params.layers()
        assert w1[0, 0] == bumped[0] and b3[-1] == bumped[-1]
        assert forwards_like_a_fresh_copy(params)
        assert not np.array_equal(nn.forward(params, np.ones(6))[0], before)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_view_their_own_vector(self, clone):
        original = tiny_net()
        params = clone(original)
        params.theta[:] += 0.5
        assert forwards_like_a_fresh_copy(params)
        assert not np.shares_memory(params.theta, original.theta)
        assert not np.array_equal(params.theta, original.theta)


class TestForward:
    def test_zero_network_outputs_zero(self):
        params = tiny_net().with_theta(np.zeros_like(tiny_net().theta))
        out, _ = nn.forward(params, np.ones(6))
        assert np.all(out == 0.0)

    def test_relu_gates_negative_path(self):
        shapes = ((1, 1), (1, 1), (1, 1))
        params = nn.ModelParams(shapes=shapes, theta=np.array([1.0, 0.0] * 3),
                                activation="relu")
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
        # a vector runs the batch arithmetic: output and cache equal row 0
        # of the forward of x[None] byte for byte, and keep the vector's rank
        xs = RngStream(8, "b").uniform(-1, 1, size=18).reshape(3, 6)
        for activation in nn.ACTIVATIONS:
            for hidden in (8, 128):
                params = tiny_net(seed=7, hidden=hidden, activation=activation)
                batch_out, _ = nn.forward(params, xs)
                for x, batch_row in zip(xs, batch_out):
                    single, cache = nn.forward(params, x)
                    row_out, row_cache = nn.forward(params, x[None])
                    assert single.shape == (3,)
                    assert single.tobytes() == row_out[0].tobytes()
                    np.testing.assert_allclose(batch_row, single, atol=1e-15)
                    assert len(cache) == len(row_cache) == 5
                    for entry, row_entry in zip(cache, row_cache):
                        assert entry.ndim == 1
                        assert entry.tobytes() == row_entry[0].tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nn.forward(tiny_net(), np.ones(5))
        for bad in (np.ones((2, 5)), np.ones((1, 1, 6)), np.float64(1.0)):
            with pytest.raises(ValueError, match="incompatible with in_dim"):
                nn.forward(tiny_net(), bad)


class TestBackward:
    def test_zero_upstream_gradient(self):
        params = tiny_net(seed=2)
        x = np.ones((1, 6))
        _, cache = nn.forward(params, x)
        grad = nn.backward(params, cache, np.zeros((1, 3)))
        assert np.all(grad == 0.0)

    def test_linear_path_closed_form(self):
        # relu net with unit weights on positive input behaves linearly:
        # d(out)/d(w1) = x
        shapes = ((1, 1), (1, 1), (1, 1))
        params = nn.ModelParams(shapes=shapes, theta=np.array([1.0, 0.0] * 3),
                                activation="relu")
        x = np.array([[2.5]])
        out, cache = nn.forward(params, x)
        grad = nn.backward(params, cache, np.array([[1.0]]))
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
        _, cache = nn.forward(params, np.ones((1, 6)))
        with pytest.raises(ValueError):
            nn.backward(params, cache, np.zeros((4, 3)))


def backward_concatenated(params, cache, grad_out):
    """The gradient arithmetic of backward() as it was before it wrote into
    per-layer views: fresh layer products, joined by one concatenate."""
    batch, z1, a1, z2, a2 = cache
    g = np.asarray(grad_out, dtype=np.float64)
    (w1, b1), (w2, b2), (w3, b3) = params.layers()
    act_grad = ((lambda z, a: 1.0 - a * a) if params.activation == "tanh"
                else (lambda z, a: (z > 0).astype(np.float64)))
    dw3 = a2.T @ g
    db3 = g.sum(axis=0)
    dz2 = (g @ w3.T) * act_grad(z2, a2)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ w2.T) * act_grad(z1, a1)
    dw1 = batch.T @ dz1
    db1 = dz1.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2, dw3.ravel(), db3])


def nan_buffer(params):
    """A gradient buffer of the network's shapes, NaN until written."""
    buf = params.with_theta(np.zeros(params.theta.size))
    buf.theta.fill(np.nan)
    return buf


class TestBackwardInto:
    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    @pytest.mark.parametrize("hidden", [8, 128])
    @pytest.mark.parametrize("rows", [1, 40])
    def test_written_gradient_is_bit_equal_to_the_fresh_one(self, activation, hidden, rows):
        rng = RngStream(rows * 1000 + hidden, activation)
        params = nn.init_mlp(6, hidden, 5, activation, rng.spawn("net"))
        params = params.with_theta(params.theta + rng.uniform(-0.1, 0.1, size=params.theta.size))
        x = rng.uniform(-1.5, 1.5, size=rows * 6).reshape(rows, 6)
        _, cache = nn.forward(params, x)
        grad_out = rng.uniform(-1, 1, size=rows * 5).reshape(rows, 5)
        buf = nan_buffer(params)
        written = nn.backward(params, cache, grad_out, buf)
        fresh = nn.backward(params, cache, grad_out)
        assert written is buf.theta and fresh is not buf.theta
        assert written.tobytes() == fresh.tobytes()
        assert written.tobytes() == backward_concatenated(params, cache, grad_out).tobytes()

    def test_single_input_gradient_is_bit_equal_to_the_fresh_one(self):
        # one input goes through backward as a batch of one, with a (1, K)
        # upstream gradient; the cache of a vector forward is not a batch's
        params = tiny_net(seed=3, hidden=16, out=5)
        x = np.linspace(-1, 1, 6)
        _, cache = nn.forward(params, x[None])
        grad_out = np.linspace(-0.5, 0.5, 5)[None, :]
        written = nn.backward(params, cache, grad_out, nan_buffer(params))
        assert written.tobytes() == backward_concatenated(params, cache, grad_out).tobytes()
        assert written.tobytes() == nn.backward(params, cache, grad_out).tobytes()
        with pytest.raises(ValueError, match="does not match cached batch"):
            nn.backward(params, cache, grad_out[0])
        _, vector_cache = nn.forward(params, x)
        with pytest.raises(ValueError, match="does not match cached batch"):
            nn.backward(params, vector_cache, grad_out)

    def test_calls_without_out_return_distinct_arrays(self):
        params = tiny_net(seed=5)
        _, cache = nn.forward(params, np.ones((3, 6)))
        first = nn.backward(params, cache, np.ones((3, 3)))
        second = nn.backward(params, cache, np.ones((3, 3)))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, params.theta)

    def test_one_buffer_serves_every_call(self):
        # the buffer's layer views are built once, when it is made
        params = tiny_net(seed=6)
        buf = nan_buffer(params)
        views = buf.layers()
        for rows in (1, 4, 2):
            x = np.linspace(-1, 1, rows * 6).reshape(rows, 6)
            _, cache = nn.forward(params, x)
            grad_out = np.linspace(-1, 1, rows * 3).reshape(rows, 3)
            written = nn.backward(params, cache, grad_out, buf)
            assert written is buf.theta and buf.layers() is views
            assert written.tobytes() == nn.backward(params, cache, grad_out).tobytes()

    def test_wrong_length_out_rejected(self):
        # a buffer of another network's shapes, and so of another length
        params = tiny_net()
        _, cache = nn.forward(params, np.ones((1, 6)))
        other = nan_buffer(tiny_net(hidden=5))
        assert other.theta.size != params.theta.size
        with pytest.raises(ValueError, match="out has shapes"):
            nn.backward(params, cache, np.zeros((1, 3)), other)


def functional_adam(theta, m, v, step, grad, lr, grad_clip):
    """The arithmetic of adam_step as it was when it returned new arrays
    instead of writing in place: (theta, m, v, step) after one step."""
    norm = float(np.linalg.norm(grad))
    scale = grad_clip / norm if (grad_clip > 0 and norm > grad_clip) else 1.0
    t = step + 1
    m = np.multiply(m, nn.ADAM_BETA1)
    scratch = np.multiply(grad, (1.0 - nn.ADAM_BETA1) * scale)
    m += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= (1.0 - nn.ADAM_BETA2) * scale * scale
    v = np.multiply(v, nn.ADAM_BETA2)
    v += scratch
    np.divide(v, 1.0 - nn.ADAM_BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += nn.ADAM_EPS
    np.divide(m, scratch, out=scratch)
    scratch *= -lr / (1.0 - nn.ADAM_BETA1 ** t)
    scratch += theta
    return scratch, m, v, t


def snapshot(params, state):
    return params.theta.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = tiny_net(seed=4)
        before = params.theta.copy()
        state = nn.AdamState.zeros(params.theta.size)
        report = nn.adam_step(params, state, np.zeros_like(params.theta), 0.01, GRAD_CLIP)
        assert np.array_equal(params.theta, before)
        assert state.step == 1
        assert report == (0.0, False, False)

    def test_first_step_is_signed_lr(self):
        theta = np.array([0.5, -0.5, 0.1, 0.0, 0.0, 0.0])
        params = nn.ModelParams(shapes=((2, 2),), theta=theta.copy(),
                                activation="tanh")
        grad = np.array([1e-4, -2e-4, 5e-5, 0.0, 0.0, 0.0])
        nn.adam_step(params, nn.AdamState.zeros(6), grad, lr=0.01, grad_clip=GRAD_CLIP)
        step = params.theta - theta
        # bias-corrected first step is ~ -lr * sign(g) wherever g != 0
        np.testing.assert_allclose(step[:3], [-0.01, 0.01, -0.01], rtol=1e-3)
        assert np.all(step[3:] == 0.0)

    def test_scalar_quadratic_convergence(self):
        params = nn.ModelParams(shapes=((1, 1),), theta=np.array([1.0, 0.0]),
                                activation="relu")
        state = nn.AdamState.zeros(2)
        for _ in range(200):
            grad = np.array([2.0 * params.theta[0], 0.0])
            nn.adam_step(params, state, grad, lr=0.1, grad_clip=GRAD_CLIP)
        assert abs(params.theta[0]) < 1e-2

    def test_in_place_steps_are_bit_equal_to_the_functional_arithmetic(self):
        rng = RngStream(21, "adam")
        params = nn.init_mlp(6, 32, 5, "tanh", rng.spawn("net"))
        state = nn.AdamState.zeros(params.theta.size)
        theta, m, v, step = params.theta.copy(), state.m.copy(), state.v.copy(), 0
        for k in range(50):
            # norms from about 0.03 to 30, so clipping at 0.5 fires on some steps only
            grad = rng.uniform(-1, 1, size=theta.size) * 10.0 ** (k % 4 - 2.5)
            report = nn.adam_step(params, state, grad, 3e-3, 0.5)
            theta, m, v, step = functional_adam(theta, m, v, step, grad, 3e-3, 0.5)
            assert snapshot(params, state) == (theta.tobytes(), m.tobytes(), v.tobytes(), step)
            assert report.clipped == (report.grad_norm > 0.5) and not report.skipped
        assert all(np.shares_memory(w, params.theta) for w, _ in params.layers())

    def test_gradient_is_only_read(self):
        params = tiny_net(seed=8)
        grad = RngStream(8, "g").uniform(-5, 5, size=params.theta.size)
        kept = grad.copy()
        nn.adam_step(params, nn.AdamState.zeros(params.theta.size), grad, 0.01, GRAD_CLIP)
        assert np.array_equal(grad, kept)

    @staticmethod
    def assert_skipped(caplog, bad_entry, index):
        params = tiny_net(seed=6)
        state = nn.AdamState.zeros(params.theta.size)
        rng = RngStream(6, "warm")
        for _ in range(3):   # non-zero moments, so a partial write would show
            nn.adam_step(params, state, rng.uniform(-1, 1, size=params.theta.size), 0.01,
                         GRAD_CLIP)
        before = snapshot(params, state)
        bad = np.zeros_like(params.theta)
        bad[index] = bad_entry
        with caplog.at_level("WARNING"):
            report = nn.adam_step(params, state, bad, 0.01, GRAD_CLIP)
        assert snapshot(params, state) == before
        assert report.skipped and not report.clipped
        assert "non-finite" in caplog.text

    def test_non_finite_gradient_skips_step(self, caplog):
        self.assert_skipped(caplog, np.nan, 0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_gradient_skips_step(self, caplog, value):
        self.assert_skipped(caplog, value, -1)

    def test_finite_gradient_overflowing_the_norm_takes_a_clipped_step(self, caplog):
        # each square of 1e154 is finite and their sum is not; the square of
        # 1e200 overflows on its own. Either way the step is that of the same
        # direction at length grad_clip.
        for entries, value, clipped_entry in ((4, 1e154, 0.25), (1, -1e200, -0.5)):
            params, reference = tiny_net(seed=6), tiny_net(seed=6)
            state = nn.AdamState.zeros(params.theta.size)
            ref_state = nn.AdamState.zeros(params.theta.size)
            grad = np.zeros_like(params.theta)
            grad[:entries] = value
            kept = grad.copy()
            with caplog.at_level("WARNING"), np.errstate(over="ignore"):
                report = nn.adam_step(params, state, grad, 0.01, 0.5)
            rescaled = np.zeros_like(grad)
            rescaled[:entries] = clipped_entry
            nn.adam_step(reference, ref_state, rescaled, 0.01, 0.5)
            assert report.clipped and not report.skipped
            assert report.grad_norm == pytest.approx(abs(value) * entries ** 0.5)
            assert np.all(np.isfinite(params.theta)) and state.step == 1
            assert not np.array_equal(params.theta, tiny_net(seed=6).theta)
            assert snapshot(params, state) == snapshot(reference, ref_state)
            assert np.array_equal(grad, kept)
        assert "non-finite" not in caplog.text

    def test_norm_is_the_linalg_norm(self):
        rng = RngStream(9, "norm")
        for k in range(40):
            params = tiny_net(seed=k % 3)
            grad = rng.uniform(-1, 1, size=params.theta.size) * 10.0 ** (k % 8 - 4)
            grad[: k % 5] = 1e154   # up to 2 such entries keep the norm finite
            with np.errstate(over="ignore"):
                report = nn.adam_step(params, nn.AdamState.zeros(grad.size), grad, 0.01, 0.5)
                norm = float(np.linalg.norm(grad))
            if not math.isfinite(norm):   # clipped from the norm of grad / peak
                peak = float(np.abs(grad).max())
                norm = peak * float(np.linalg.norm(grad / peak))
            assert report.grad_norm.hex() == norm.hex()

    def test_overflowing_norm_without_a_clip_bound_skips_step(self, caplog):
        params = tiny_net(seed=6)
        state = nn.AdamState.zeros(params.theta.size)
        before = snapshot(params, state)
        grad = np.zeros_like(params.theta)
        grad[0] = 1e200
        with caplog.at_level("WARNING"), np.errstate(over="ignore"):
            report = nn.adam_step(params, state, grad, 0.01, 0.0)
        assert report.skipped and snapshot(params, state) == before
        assert "non-finite" in caplog.text


def categorical_head_reference(logits):
    """categorical_head's arithmetic through ndarray.max and ndarray.sum,
    as it ran before it called the ufunc reductions directly."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return exp / total, shifted - np.log(total)


class TestCategoricalHead:
    def test_equals_the_method_reductions_bit_for_bit(self):
        rng = RngStream(4, "head")
        blocks = [rng.uniform(-30, 30, size=k * 5).reshape(k, 5) for k in (1, 2, 24, 40)]
        blocks += [rng.uniform(-3, 3, size=5)[None, :], np.array([[1000.0, 0.0, -1000.0]]),
                   np.array([[np.inf, 0.0], [np.nan, 1.0]])]
        with np.errstate(invalid="ignore"):
            for logits in blocks:
                got, want = nn.categorical_head(logits), categorical_head_reference(logits)
                assert len(got) == 2
                for a, b in zip(got, want):
                    assert a.shape == logits.shape and a.tobytes() == b.tobytes()

    def test_takes_only_batches(self):
        with pytest.raises(ValueError):
            nn.categorical_head(np.zeros(5))

    def test_uniform_logits(self):
        p, lp = nn.categorical_head(np.zeros((1, 5)))
        np.testing.assert_allclose(p, 0.2, atol=1e-15)
        assert -float((p * lp).sum()) == pytest.approx(math.log(5))

    def test_extreme_logits_stable(self):
        p, lp = nn.categorical_head(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(lp))
        assert p[0, 0] == pytest.approx(1.0)

    def test_exp_logp_consistency(self):
        logits = RngStream(1, "c").uniform(-20, 20, size=9)[None, :]
        p, lp = nn.categorical_head(logits)
        np.testing.assert_allclose(np.exp(lp), p, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        logits = RngStream(2, "c").uniform(-5, 5, size=7)[None, :]
        p1, _ = nn.categorical_head(logits)
        p2, _ = nn.categorical_head(logits + 42.0)
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
        assert back.activation == params.activation

    def test_crc_detects_flip(self):
        blob = bytearray(nn.params_to_bytes(tiny_net()))
        blob[30] ^= 0x01
        with pytest.raises(nn.CheckpointError, match="CRC"):
            nn.params_from_bytes(bytes(blob))

    def test_truncation_detected(self):
        blob = nn.params_to_bytes(tiny_net())
        with pytest.raises(nn.CheckpointError):
            nn.params_from_bytes(blob[:10])

    @pytest.mark.parametrize("out", [1, 5])
    def test_head_tag_must_match_the_output_size(self, out):
        blob = bytearray(nn.params_to_bytes(tiny_net(out=out)))
        blob[7] ^= 1   # categorical <-> scalar
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(nn.CheckpointError, match=f"head tag .* output size {out}"):
            nn.params_from_bytes(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(nn.params_to_bytes(tiny_net()))
        blob[0] = ord("X")
        with pytest.raises(nn.CheckpointError):
            nn.params_from_bytes(bytes(blob))

    def test_crafted_three_layer_file_loads(self):
        params = nn.params_from_bytes(crafted_checkpoint([(6, 4), (4, 4), (4, 5)]))
        assert nn.forward(params, np.ones(6))[0].tolist() == [0.0] * 5

    @pytest.mark.parametrize("shapes", [
        [],                                          # no layers
        [(6, 8), (8, 3)],                            # two layers
        [(6, 8), (8, 8), (8, 8), (8, 3)],            # four layers
        [(6, 8), (4, 8), (8, 3)],                    # sizes that do not chain
        [(6, 0), (0, 8), (8, 3)],                    # an empty layer
    ])
    def test_layers_forward_cannot_run_are_rejected(self, shapes):
        with pytest.raises(nn.CheckpointError,
                           match=re.escape(f"checkpoint layers {shapes} cannot run")):
            nn.params_from_bytes(crafted_checkpoint(shapes))

    def test_layer_table_past_the_end_is_truncation(self):
        blob = bytearray(crafted_checkpoint([]))
        blob[8:10] = struct.pack("<H", 500)   # 500 layers, none present
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        with pytest.raises(nn.CheckpointError, match="truncated"):
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
