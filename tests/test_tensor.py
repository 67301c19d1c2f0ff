"""Tests for the autodiff engine: frozen values, properties, gradients."""

import numpy as np
import pytest

from modfuse import tensor as T


class TestFrozenValues:
    """Hand-computed expected values for the core ops."""

    def test_sigmoid_at_two(self):
        out = T.sigmoid(T.Tensor([2.0], dtype=np.float64))
        assert abs(out.data[0] - 0.880797) < 1e-6

    def test_silu_at_two(self):
        out = T.silu(T.Tensor([2.0], dtype=np.float64))
        assert abs(out.data[0] - 1.761594) < 1e-5

    def test_softmax_123(self):
        out = T.softmax(T.Tensor([[1.0, 2.0, 3.0]], dtype=np.float64))
        np.testing.assert_allclose(
            out.data[0], [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_layer_norm_1234(self):
        x = T.Tensor([[1.0, 2.0, 3.0, 4.0]], dtype=np.float64)
        gain = T.Tensor(np.ones(4), dtype=np.float64)
        bias = T.Tensor(np.zeros(4), dtype=np.float64)
        out = T.layer_norm(x, gain, bias)
        np.testing.assert_allclose(
            out.data[0], [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-3)

    def test_cross_entropy_123_target2(self):
        logits = T.Tensor([[1.0, 2.0, 3.0]], dtype=np.float64)
        loss = T.cross_entropy(logits, np.array([2]))
        assert abs(loss.item() - 0.40761) < 1e-4

    def test_cross_entropy_uniform_logits(self):
        logits = T.Tensor(np.zeros((8, 4)), dtype=np.float64)
        loss = T.cross_entropy(logits, np.arange(8) % 4)
        assert abs(loss.item() - np.log(4.0)) < 1e-6

    def test_matmul_2x2(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19, 22], [43, 50]])

    def test_adam_first_step_moves_by_lr(self):
        p = np.array([0.5], dtype=np.float64)
        m = np.zeros(1)
        v = np.zeros(1)
        T.adam_step(p, np.array([1.0]), m, v, t=1, lr=0.01)
        assert abs(p[0] - (0.5 - 0.01)) < 1e-6


class TestOpProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(6, 4, 9)) * 5.0, dtype=np.float64)
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 5))
        a = T.softmax(T.Tensor(x, dtype=np.float64))
        b = T.softmax(T.Tensor(x + 100.0, dtype=np.float64))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_layer_norm_output_stats(self):
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.normal(size=(4, 7, 16)) * 3.0 + 2.0, dtype=np.float64)
        gain = T.Tensor(np.ones(16), dtype=np.float64)
        bias = T.Tensor(np.zeros(16), dtype=np.float64)
        out = T.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-4)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = T.sigmoid(T.Tensor([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == 0.0 and out.data[-1] == 1.0

    def test_cross_entropy_extreme_logits_stay_finite(self):
        logits = T.Tensor([[500.0, -500.0, 0.0]], dtype=np.float64)
        loss = T.cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item())

    def test_non_finite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            T.Tensor([np.nan, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce")
    def test_finite_values_whose_sum_overflows_accepted(self):
        big = T.Tensor(np.array([3e38, 3e38], np.float32))
        part = T.Tensor(np.array([2e38], np.float32))
        joined = T.concat([part, part], axis=0)
        assert np.array_equal(big.data, np.array([3e38, 3e38], np.float32))
        assert np.array_equal(joined.data, np.array([2e38, 2e38], np.float32))

    def test_non_finite_values_name_the_op(self):
        with pytest.raises(FloatingPointError, match="op 'leaf'"):
            T.Tensor(np.array([3e38, np.inf], np.float32))
        big = T.Tensor(np.array([3e38, 1.0], np.float32))
        with pytest.raises(FloatingPointError, match="op 'scale'"):
            T.mul(big, 10.0)
        with pytest.raises(FloatingPointError, match="op 'add'"):
            T.add(big, big)

    def test_cross_entropy_rejects_bad_target(self):
        logits = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            T.cross_entropy(logits, np.array([0, 3]))

    def test_dtype_mismatch_rejected(self):
        a = T.Tensor([1.0], dtype=np.float32)
        b = T.Tensor([1.0], dtype=np.float64)
        with pytest.raises(TypeError):
            T.add(a, b)

    def test_float32_ops_stay_float32(self):
        a = T.Tensor(np.ones((2, 2)), dtype=np.float32)
        out = T.silu(T.matmul(a, a) * 0.5)
        assert out.dtype == np.float32


class TestBackward:
    def test_add_mul_chain(self):
        a = T.Tensor([2.0], requires_grad=True, dtype=np.float64)
        b = T.Tensor([3.0], requires_grad=True, dtype=np.float64)
        loss = T.tsum(a * b + a)
        T.backward(loss)
        assert a.grad[0] == 4.0  # b + 1
        assert b.grad[0] == 2.0  # a

    def test_matmul_grads(self):
        rng = np.random.default_rng(3)
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True, dtype=np.float64)
        loss = T.tsum(a @ b)
        T.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_batched_matmul_broadcast_grads(self):
        rng = np.random.default_rng(4)
        a = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True,
                     dtype=np.float64)
        b = T.Tensor(rng.normal(size=(5, 6)), requires_grad=True, dtype=np.float64)
        loss = T.tsum(a @ b)
        T.backward(loss)
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape

    def test_bias_broadcast_grad_sums(self):
        x = T.Tensor(np.ones((4, 3, 2)), requires_grad=True, dtype=np.float64)
        bias = T.Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        T.backward(T.tsum(x + bias))
        np.testing.assert_allclose(bias.grad, [12.0, 12.0])

    def test_concat_routes_grads(self):
        a = T.Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(np.ones((2, 5)), requires_grad=True, dtype=np.float64)
        out = T.concat([a, b], axis=1)
        T.backward(T.tsum(out * T.Tensor(np.arange(16, dtype=np.float64).reshape(2, 8))))
        np.testing.assert_allclose(a.grad, [[0, 1, 2], [8, 9, 10]])
        np.testing.assert_allclose(b.grad, [[3, 4, 5, 6, 7], [11, 12, 13, 14, 15]])

    def test_unreached_leaf_gets_zero_grad(self):
        a = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
        unused = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
        T.backward(T.tsum(a * 2.0), leaves=[a, unused])
        assert unused.grad is not None
        np.testing.assert_allclose(unused.grad, [0.0])

    def test_grad_accumulates_when_reused(self):
        a = T.Tensor([3.0], requires_grad=True, dtype=np.float64)
        T.backward(T.tsum(a * a))
        np.testing.assert_allclose(a.grad, [6.0])

    def test_backward_rejects_non_scalar(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(a * 2.0)

    def test_embedding_lookup_and_grad(self):
        table = T.Tensor(np.eye(4), requires_grad=True, dtype=np.float64)
        ids = np.array([[0, 2], [2, 2]])
        out = T.embedding(table, ids)
        assert out.shape == (2, 2, 4)
        T.backward(T.tsum(out))
        # row 0 looked up once, row 2 three times, each lookup spans 4 columns
        np.testing.assert_allclose(table.grad.sum(axis=1), [4.0, 0.0, 12.0, 0.0])


class TestGradCheck:
    def _mlp(self, rng, dtype=np.float64):
        w1 = T.Tensor(rng.normal(size=(6, 8)) * 0.5, requires_grad=True, dtype=dtype)
        b1 = T.Tensor(np.zeros(8), requires_grad=True, dtype=dtype)
        w2 = T.Tensor(rng.normal(size=(8, 8)) * 0.5, requires_grad=True, dtype=dtype)
        b2 = T.Tensor(np.zeros(8), requires_grad=True, dtype=dtype)
        w3 = T.Tensor(rng.normal(size=(8, 3)) * 0.5, requires_grad=True, dtype=dtype)
        x = np.asarray(rng.normal(size=(4, 6)), dtype=dtype)
        targets = np.array([0, 2, 1, 2])

        def f():
            h1 = T.silu(T.Tensor(x, dtype=dtype) @ w1 + b1)
            h2 = T.silu(h1 @ w2 + b2)
            return T.cross_entropy(h2 @ w3, targets)

        params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "w3": w3}
        return f, params

    def test_three_layer_mlp_passes(self):
        f, params = self._mlp(np.random.default_rng(11))
        report = T.grad_check(f, params)
        assert report.passed, report.summary()
        assert report.max_rel_err < 1e-4

    def test_composite_ops_pass(self):
        rng = np.random.default_rng(12)
        w = T.Tensor(rng.normal(size=(5, 5)), requires_grad=True, dtype=np.float64)
        gain = T.Tensor(np.ones(5), requires_grad=True, dtype=np.float64)
        bias = T.Tensor(np.zeros(5), requires_grad=True, dtype=np.float64)
        x = rng.normal(size=(3, 5))

        def f():
            h = T.layer_norm(T.Tensor(x, dtype=np.float64) @ w, gain, bias)
            att = T.softmax(h, axis=-1)
            return T.tmean(T.sigmoid(att @ w) * h)

        report = T.grad_check(f, {"w": w, "gain": gain, "bias": bias})
        assert report.passed, report.summary()

    def test_detects_wrong_gradient(self):
        w = T.Tensor(np.full((2, 2), 1.5), requires_grad=True, dtype=np.float64)

        def buggy_square():
            # correct forward, deliberately corrupted backward
            out = w * w
            correct = out._backward_fn

            def wrong():
                correct()
                w.grad *= 1.5

            out._backward_fn = wrong
            return T.tsum(out)

        report = T.grad_check(buggy_square, {"w": w})
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_rejects_nondeterministic_function(self):
        rng = np.random.default_rng(13)
        w = T.Tensor([1.0], requires_grad=True, dtype=np.float64)

        def f():
            return T.tsum(w * float(rng.normal()))

        with pytest.raises(RuntimeError, match="deterministic"):
            T.grad_check(f, {"w": w})

    def test_sampled_subset(self):
        f, params = self._mlp(np.random.default_rng(14))
        report = T.grad_check(f, params, sample=5)
        assert report.passed
        assert report.n_checked == 5 * len(params)


class TestAdamMasking:
    def test_skipped_param_state_untouched(self):
        opt = T.Adam(lr=0.1)
        a = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
        b = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
        for _ in range(3):
            T.backward(T.tsum(a * a + b), leaves=[a, b])
            opt.step([("a", a)])
        assert "b" not in opt.state
        assert opt.state["a"]["t"] == 3

    def test_step_requires_gradient(self):
        opt = T.Adam()
        p = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="no gradient"):
            opt.step([("p", p)])

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(21)
            w = T.Tensor(rng.normal(size=(4, 4)).astype(np.float32),
                         requires_grad=True)
            opt = T.Adam(lr=0.01)
            x = rng.normal(size=(8, 4)).astype(np.float32)
            for _ in range(5):
                loss = T.cross_entropy(T.Tensor(x) @ w, np.arange(8) % 4)
                T.backward(loss, leaves=[w])
                opt.step([("w", w)])
            return w.data.tobytes()

        assert run() == run()
