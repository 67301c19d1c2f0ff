"""Tests for the autodiff engine: frozen values, properties, gradients."""

import contextlib
import inspect
import math
import warnings

import numpy as np
import pytest

from modfuse import tensor as T
from modfuse.backbone import FF_EXPANSION
from modfuse.bench import BenchModality, BenchSpec, gen_dataset
from modfuse.model import FusionModel, ModelDims
from modfuse.reasoner import head_width
from modfuse.training import train_step


class TestFrozenValues:
    """Hand-computed expected values for the core ops."""

    def test_sigmoid_at_two(self):
        # the gate inside silu
        out = T._sigmoid_data(np.array([2.0]))
        assert abs(out[0] - 0.880797) < 1e-6

    def test_silu_at_two(self):
        out = T.silu(T.Tensor([2.0], dtype=np.float64))
        assert abs(out.data[0] - 1.761594) < 1e-5

    def test_softmax_123(self):
        out = T.softmax(T.Tensor([[1.0, 2.0, 3.0]], dtype=np.float64))
        np.testing.assert_allclose(
            out.data[0], [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_layer_norm_1234(self):
        x = T.Tensor([[1.0, 2.0, 3.0, 4.0]], dtype=np.float64)
        out = T.layer_norm(x)
        np.testing.assert_allclose(
            out.data[0], [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-3)

    def test_cross_entropy_123_target2(self):
        logits = T.Tensor([[1.0, 2.0, 3.0]], dtype=np.float64)
        loss = T.cross_entropy(logits, np.array([2]))
        assert abs(float(loss.data) - 0.40761) < 1e-4

    def test_cross_entropy_uniform_logits(self):
        logits = T.Tensor(np.zeros((8, 4)), dtype=np.float64)
        loss = T.cross_entropy(logits, np.arange(8) % 4)
        assert abs(float(loss.data) - np.log(4.0)) < 1e-6

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

    def test_adam_steps_match_textbook_update(self):
        # betas 0.9 and 0.999, eps 1e-8: the paper's fixed optimizer
        grads = [np.array([1.0, -2.0]), np.array([0.5, 3.0]),
                 np.array([-4.0, 0.25])]
        p = np.array([0.5, -1.0])
        m = np.zeros(2)
        v = np.zeros(2)
        want = p.copy()
        m_ref = np.zeros(2)
        v_ref = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            T.adam_step(p, g, m, v, t=t, lr=0.01)
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g * g
            mhat = m_ref / (1 - 0.9 ** t)
            vhat = v_ref / (1 - 0.999 ** t)
            want -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(p, want, rtol=1e-12, atol=0)


class TestOpProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(6, 4, 9)) * 5.0, dtype=np.float64)
        out = T.softmax(x)
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
        out = T.layer_norm(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-4)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = T._sigmoid_data(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[2] == 0.5 and out[-1] == 1.0

    def test_silu_extreme_inputs_stay_finite(self):
        # silu's gate is _sigmoid_data, which must not overflow either way
        out = T.silu(T.Tensor([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == 0.0 and out.data[-1] == 1000.0
        assert -1e-20 < out.data[1] < 0.0 and out.data[3] == 50.0

    def test_cross_entropy_extreme_logits_stay_finite(self):
        logits = T.Tensor([[500.0, -500.0, 0.0]], dtype=np.float64)
        loss = T.cross_entropy(logits, np.array([0]))
        assert np.isfinite(float(loss.data))

    def test_non_finite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            T.Tensor([np.nan, 1.0])

    def test_finite_values_whose_sum_overflows_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = T.Tensor(np.array([3e38, 3e38], np.float32))
            part = T.Tensor(np.array([2e38], np.float32))
            joined = T.concat([part, part], axis=0)
        assert np.array_equal(big.data, np.array([3e38, 3e38], np.float32))
        assert np.array_equal(joined.data, np.array([2e38, 2e38], np.float32))

    def test_non_finite_values_name_the_op(self):
        with pytest.raises(FloatingPointError, match="op 'leaf'"):
            T.Tensor(np.array([3e38, np.inf], np.float32))
        big = T.Tensor(np.array([3e38, 1.0], np.float32))
        with pytest.raises(FloatingPointError, match="op 'mul'"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            T.mul(big, 10.0)
        with pytest.raises(FloatingPointError, match="op 'add'"), \
                pytest.warns(RuntimeWarning, match="overflow"):
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


class TestSigmoidData:
    @staticmethod
    def two_branch(x):
        # the usual stable pair of forms, the reference for the branch-free
        # version
        t = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_two_branch_form(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        edges = [0.0, tiny, 88.0, 104.0, 3e38, 746.0, 1e308]
        with np.errstate(over="ignore"):
            # 1e308 is inf in float32, which both forms map to 0 and 1
            values = np.array(edges + [-e for e in edges], dtype=dtype)
        rng = np.random.default_rng(5)
        for x in [values, rng.normal(size=(32, 13, 256)).astype(dtype),
                  (rng.normal(size=(7, 9)) * 60).astype(dtype)]:
            got = T._sigmoid_data(x)
            want = self.two_branch(x)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_untouched(self, dtype):
        # it writes in place, but only into the arrays it allocates
        x = (np.random.default_rng(6).normal(size=(4, 9)) * 8).astype(dtype)
        before = x.copy()
        T._sigmoid_data(x)
        assert x.tobytes() == before.tobytes()


# The kernels as they were before they were made lean, kept as references:
# the lean kernels must reproduce them bit for bit.

def ref_softmax_data(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def ref_softmax_grad(g, y, axis):
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


def ref_softmax(a, axis=-1):
    """T.softmax on the reference kernels, independent of _softmax_data."""
    y = ref_softmax_data(a.data, axis)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(ref_softmax_grad(g, y, axis))

    return T._make(y, (a,), "softmax", backward_fn)


def ref_layer_norm(x, g, eps=1e-5):
    """Output and input gradient for upstream gradient g."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    term1 = g.mean(axis=-1, keepdims=True)
    term2 = (g * xhat).mean(axis=-1, keepdims=True)
    return xhat, inv_std * (g - term1 - xhat * term2)


def ref_silu(x, g):
    """Output and input gradient for upstream gradient g."""
    s = TestSigmoidData.two_branch(x)
    return x * s, g * (s + x * s * (1.0 - s))


def composed_attention(q, k, v, heads):
    """The op-by-op composition the fused attention op replaces."""
    b, sq, d = q.shape
    dh = d // heads

    def split(x):
        x = T.reshape(x, (x.shape[0], x.shape[1], heads, dh))
        return T.transpose(x, (0, 2, 1, 3))

    scores = T.matmul(split(q), T.transpose(split(k), (0, 1, 3, 2)))
    probs = ref_softmax(scores * (1.0 / math.sqrt(dh)), axis=-1)
    out = T.transpose(T.matmul(probs, split(v)), (0, 2, 1, 3))
    return T.reshape(out, (b, sq, d)), probs.data


class TestAttention:
    def _inputs(self, dtype, sq, sk, d=12, b=3, seed=0):
        rng = np.random.default_rng(seed)

        def leaf(shape):
            return T.Tensor(rng.normal(size=shape), requires_grad=True,
                            dtype=dtype)

        return leaf((b, sq, d)), leaf((b, sk, d)), leaf((b, sk, d)), rng

    def _run(self, attend, q_in, kv_in, weights, upstream):
        # q, k and v are projections of taped inputs, as in backbone.attention
        wq, wk, wv = weights
        q, k, v = T.matmul(q_in, wq), T.matmul(kv_in, wk), T.matmul(kv_in, wv)
        out, probs = attend(q, k, v)
        T.backward(T.tsum(out * upstream))
        return out, probs, [t.grad for t in (q, k, v, q_in, kv_in)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["self", "cross"])
    def test_bit_equal_to_composition(self, dtype, case):
        heads, sq, sk = 3, 4, (4 if case == "self" else 7)
        x, y, _, rng = self._inputs(dtype, sq, sk)
        weights = [T.Tensor(rng.normal(size=(12, 12)), dtype=dtype)
                   for _ in range(3)]
        upstream = T.Tensor(rng.normal(size=(3, sq, 12)), dtype=dtype)
        kv = x if case == "self" else y

        def fused(q, k, v):
            probes = []
            out = T.attention(q, k, v, heads, probes=probes)
            assert len(probes) == 1
            return out, probes[0]

        got = self._run(fused, x, kv, weights, upstream)
        for t in (x, y):
            t.grad = None
        want = self._run(lambda q, k, v: composed_attention(q, k, v, heads),
                         x, kv, weights, upstream)
        assert got[0].dtype == dtype and got[0].shape == (3, sq, 12)
        assert got[1].shape == (3, heads, sq, sk)
        assert np.array_equal(got[0].data, want[0].data)
        assert np.array_equal(got[1], want[1])
        for g, w in zip(got[2], want[2]):
            assert g is not None and np.array_equal(g, w)

    @pytest.mark.parametrize("sk", [4, 6])
    def test_grad_check(self, sk):
        q, k, v, rng = self._inputs(np.float64, 4, sk, d=8, b=2, seed=3)
        upstream = T.Tensor(rng.normal(size=(2, 4, 8)), dtype=np.float64)

        def f():
            return T.tsum(T.attention(q, k, v, 2) * upstream)

        report = T.grad_check(f, {"q": q, "k": k, "v": v})
        assert report.max_rel_err < 1e-4, report.summary()

    def test_untaped_inputs_get_no_gradient(self):
        q, k, v, _ = self._inputs(np.float64, 2, 3)
        k.requires_grad = False
        T.backward(T.tsum(T.attention(q, k, v, 2)))
        assert q.grad is not None and v.grad is not None and k.grad is None

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_scores_name_the_op(self, sign):
        # one key's score overflows to +inf or -inf in float32; the softmax
        # would turn a -inf score into a finite zero, so the raw scores
        # must be checked
        q = T.Tensor(np.full((1, 2, 4), 1e20), dtype=np.float32)
        keys = np.ones((1, 3, 4))
        keys[0, 1] = sign * 1e20
        k = T.Tensor(keys, dtype=np.float32)
        v = T.Tensor(np.ones((1, 3, 4)), dtype=np.float32)
        with pytest.raises(FloatingPointError, match="op 'attention'"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            T.attention(q, k, v, 2)
        with T.no_grad(), pytest.raises(FloatingPointError,
                                        match="op 'attention'"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            T.attention(q, k, v, 2)


def ffn_weights(dtype, d, hidden, seed=0):
    """A frozen [d, hidden] and [hidden, d] pair for silu_ffn."""
    rng = np.random.default_rng(seed)
    return (T.Tensor(rng.normal(size=(d, hidden)), dtype=dtype),
            T.Tensor(rng.normal(size=(hidden, d)), dtype=dtype))


class TestSiluFfn:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(6,), (3, 5)])
    def test_bit_equal_to_composition(self, lead, dtype):
        rng = np.random.default_rng(len(lead))
        w1, w2 = ffn_weights(dtype, 12, 48, seed=1)
        x_data = rng.normal(size=(*lead, 12)) * 2.0
        upstream = T.Tensor(rng.normal(size=(*lead, 12)), dtype=dtype)

        def run(ffn):
            x = T.Tensor(x_data, requires_grad=True, dtype=dtype)
            out = ffn(x)
            T.backward(T.tsum(out * upstream))
            return out.data, x.grad

        got = run(lambda x: T.silu_ffn(x, w1, w2))
        want = run(lambda x: T.matmul(T.silu(T.matmul(x, w1)), w2))
        for g, w in zip(got, want):
            assert g.dtype == dtype and g.shape == (*lead, 12)
            assert g.tobytes() == w.tobytes()

    def test_grad_check(self):
        rng = np.random.default_rng(5)
        w1, w2 = ffn_weights(np.float64, 6, 24, seed=2)
        x = T.Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True,
                     dtype=np.float64)
        upstream = T.Tensor(rng.normal(size=(2, 3, 6)), dtype=np.float64)

        def f():
            return T.tsum(T.silu_ffn(x, w1, w2) * upstream)

        report = T.grad_check(f, {"x": x})
        assert report.max_rel_err < 1e-4, report.summary()

    @pytest.mark.parametrize("trainable", ["w1", "w2"])
    def test_trainable_weight_rejected(self, trainable):
        weights = dict(zip(("w1", "w2"), ffn_weights(np.float64, 4, 16)))
        weights[trainable].requires_grad = True
        x = T.Tensor(np.ones((2, 4)), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="frozen weights only"):
            T.silu_ffn(x, weights["w1"], weights["w2"])

    @pytest.mark.parametrize("taped", [True, False])
    def test_overflowing_hidden_layer_names_the_op(self, taped):
        # x @ w1 is 4e40, beyond float32
        x = T.Tensor(np.full((2, 3, 4), 1e20), requires_grad=taped,
                     dtype=np.float32)
        w1 = T.Tensor(np.full((4, 16), 1e20), dtype=np.float32)
        w2 = T.Tensor(np.ones((16, 4)), dtype=np.float32)
        with pytest.raises(FloatingPointError, match="op 'silu_ffn'"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            T.silu_ffn(x, w1, w2)


def softmax_rows(dtype, keys, seed=0):
    """Scores with tied maxima, signed zeros and large magnitudes."""
    rng = np.random.default_rng(seed)
    big = np.finfo(dtype).max / 2
    x = rng.normal(size=(32, 4, 13, keys)) * 4.0
    x[0] = np.round(x[0])                 # ties, the maxima among them
    x[1] = -np.abs(x[1])
    x[1, :, :, ::2] = -0.0                # maxima of -0.0,
    x[1, :2, :, -1] = 0.0                 # tied with 0.0 in some rows
    x[2] *= 1e30
    x[3, :, :, 0] = big
    x[3, :, :, -1] = -big
    return x.astype(dtype)


class TestLeanKernels:
    """The in-place kernels against the reference formulas, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keys", [1, 4, 8, 13])
    def test_softmax_data(self, keys, dtype):
        x = softmax_rows(dtype, keys)
        before = x.copy()
        got = T._softmax_data(x)
        want = ref_softmax_data(x, -1)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["dense", "transposed"])
    def test_softmax_op(self, layout, dtype):
        rng = np.random.default_rng(1)
        upstream = T.Tensor(rng.normal(size=(6, 5, 7)), dtype=dtype)
        x = softmax_rows(dtype, 7, seed=2)[:6, 0, :5, :]

        def run(softmax):
            if layout == "dense":
                a = x_in = T.Tensor(x, requires_grad=True)
            else:
                a = T.Tensor(np.swapaxes(x, 1, 2).copy(), requires_grad=True)
                x_in = T.transpose(a, (0, 2, 1))
            out = softmax(x_in)
            T.backward(T.tsum(out * upstream))
            return out.data, a.grad

        got, want = run(T.softmax), run(ref_softmax)
        for g, w in zip(got, want):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [12, 32, 48])
    def test_layer_norm(self, d, dtype):
        rng = np.random.default_rng(d)
        x = (rng.normal(size=(5, 7, d)) * 3.0 + 100.0).astype(dtype)
        g = rng.normal(size=(5, 7, d)).astype(dtype)
        a = T.Tensor(x, requires_grad=True)
        out = T.layer_norm(a)
        out._backward_fn(g)
        for gv, wv in zip((out.data, a.grad), ref_layer_norm(x, g)):
            assert gv.dtype == dtype and gv.tobytes() == wv.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu(self, dtype):
        rng = np.random.default_rng(4)
        edges = np.array([0.0, -0.0, 30.0, -30.0, 1e30, -1e30], dtype)
        x = np.concatenate([edges, (rng.normal(size=600) * 6).astype(dtype)])
        g = rng.normal(size=x.shape).astype(dtype)
        a = T.Tensor(x, requires_grad=True)
        out = T.silu(a)
        out._backward_fn(g)
        want = ref_silu(x, g)
        assert out.data.tobytes() == want[0].tobytes()
        assert a.grad.dtype == dtype and a.grad.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["dense", "transposed"])
    @pytest.mark.parametrize("lead", [(6, 13), (2, 3, 5)])
    def test_matmul_input_grad_through_2d_weight(self, lead, layout, dtype):
        # one GEMM over the flattened rows, not one BLAS call per batch row
        rng = np.random.default_rng(len(lead))
        k, n = 24, 16
        x = rng.normal(size=(*lead, k)).astype(dtype)
        w = rng.normal(size=(k, n)).astype(dtype)
        if layout == "dense":
            g = rng.normal(size=(*lead, n)).astype(dtype)
        else:
            g = np.moveaxis(rng.normal(size=(n, *lead)).astype(dtype), 0, -1)
        a, b = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
        out = T.matmul(a, b)
        out._backward_fn(g)
        want_a = (g.reshape(-1, n) @ w.T).reshape(x.shape)
        want_b = x.reshape(-1, k).T @ g.reshape(-1, n)
        assert a.grad.dtype == dtype and a.grad.tobytes() == want_a.tobytes()
        assert b.grad.dtype == dtype and b.grad.tobytes() == want_b.tobytes()


def _op_cases():
    """name -> (input shapes, call); the name is the op's function."""
    return {
        "add": ([(3, 4, 8), (8,)], lambda a, b, p: T.add(a, b)),
        "mul": ([(3, 4, 8), (4, 8)], lambda a, b, p: T.mul(a, b)),
        "mul-scalar": ([(3, 4, 8)], lambda a, p: T.mul(a, 0.5)),
        "matmul": ([(3, 4, 8), (8, 5)], lambda a, b, p: T.matmul(a, b)),
        "reshape": ([(3, 4, 8)], lambda a, p: T.reshape(a, (12, 8))),
        "transpose": ([(3, 4, 8)], lambda a, p: T.transpose(a, (0, 2, 1))),
        "concat": ([(3, 4, 8), (3, 2, 8)],
                   lambda a, b, p: T.concat([a, b], axis=1)),
        "broadcast_to": ([(4, 1)], lambda a, p: T.broadcast_to(a, (3, 4, 8))),
        "tsum": ([(3, 4, 8)], lambda a, p: T.tsum(a, axis=1)),
        "tmean": ([(3, 4, 8)], lambda a, p: T.tmean(a, axis=-1)),
        "silu": ([(3, 4, 8)], lambda a, p: T.silu(a)),
        "silu_ffn": ([(3, 4, 8)], lambda a, p: T.silu_ffn(
            a, *ffn_weights(a.dtype, 8, 32))),
        "softmax": ([(3, 4, 8)], lambda a, p: T.softmax(a)),
        "attention": ([(3, 4, 8), (3, 5, 8), (3, 5, 8)],
                      lambda q, k, v, p: T.attention(q, k, v, 2, probes=p)),
        "layer_norm": ([(3, 4, 8)], lambda a, p: T.layer_norm(a)),
        "cross_entropy": ([(6, 4)],
                          lambda a, p: T.cross_entropy(a, np.arange(6) % 4)),
        "embedding": ([(5, 8)],
                      lambda t, p: T.embedding(t, np.array([[0, 2], [2, 4]]))),
    }


def _tape(root):
    """Every tensor on the tape under ``root``, frozen ones included, and
    every array the tape holds: tensor data and the arrays each backward
    closure saved."""
    nodes, arrays, stack = {}, [], [root]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        arrays.append(node.data)
        cells = getattr(node._backward_fn, "__closure__", None) or ()
        arrays += [c.cell_contents for c in cells
                   if isinstance(c.cell_contents, np.ndarray)]
        stack.extend(node._parents)
    return list(nodes.values()), arrays


def _step_tape(model, batch, tags, monkeypatch):
    """The tape of one train_step of ``model`` on ``batch``, as
    :func:`_tape` lists it after backward."""
    taped = []
    backward = T.backward

    def recording(loss, leaves=None):
        backward(loss, leaves)
        taped.append(_tape(loss))

    monkeypatch.setattr(T, "backward", recording)
    train_step(model, T.Adam(), batch, tags)
    (tape,) = taped
    return tape


class TestNoAliasing:
    """An op writes in place only into arrays it allocated in that call:
    never into its inputs, the upstream gradient, its saved output or the
    arrays it handed to probes."""

    def test_every_public_op_is_covered(self):
        ops = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and not name.startswith("_")
               and "_make(" in inspect.getsource(fn)}
        assert ops == {name.split("-")[0] for name in _op_cases()}

    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(_op_cases()))
    def test_inputs_gradient_output_and_probes_untouched(self, op, dtype,
                                                         taped):
        shapes, call = _op_cases()[op]
        rng = np.random.default_rng(0)
        inputs = [T.Tensor(rng.normal(size=s), requires_grad=True,
                           dtype=dtype) for s in shapes]
        before = [t.data.tobytes() for t in inputs]
        probes = []
        with contextlib.nullcontext() if taped else T.no_grad():
            out = call(*inputs, probes)
        assert out.requires_grad == taped
        assert [t.data.tobytes() for t in inputs] == before
        arrays = [t.data for t in inputs] + [out.data] + probes
        snapshot = [a.tobytes() for a in arrays]
        if not taped:
            return
        g = np.asarray(rng.normal(size=out.shape), dtype=dtype)
        g_bytes = g.tobytes()
        out._backward_fn(g)
        assert g.tobytes() == g_bytes
        assert [a.tobytes() for a in arrays] == snapshot
        for t in inputs:
            assert t.grad is not None and t.grad.shape == t.shape
            assert not any(np.shares_memory(t.grad, a) for a in arrays + [g])

    @pytest.mark.parametrize("mode", ["sequential", "joint"])
    def test_model_step_grads_own_their_memory(self, mode, monkeypatch):
        spec = BenchSpec(modalities=(BenchModality("video", 16, 5),
                                     BenchModality("audio", 24, 5),
                                     BenchModality("depth", 48, 5)),
                         train_size=16, test_size=8, seed=3)
        model = FusionModel(ModelDims(), spec.modalities, "video",
                            "SelfGated", spec.vocab, spec.classes, 11,
                            train_classifier=True)
        tags = ({"video", "fusion"} if mode == "sequential"
                else set(model.order) | {"fusion"})
        train, _ = gen_dataset(spec)
        nodes, arrays = _step_tape(model, train.slice(np.arange(8)), tags,
                                    monkeypatch)

        def root(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return id(arr)

        graded = [t for t in nodes if t.grad is not None]
        assert len(graded) > 100
        by_root = {}                  # only arrays of one buffer can overlap
        for key, arr in [*enumerate(t.grad for t in graded),
                         *((None, a) for a in arrays)]:
            by_root.setdefault(root(arr), []).append((key, arr))
        for i, t in enumerate(graded):
            near = [a for key, a in by_root[root(t.grad)] if key != i]
            assert not any(np.shares_memory(t.grad, a) for a in near), t
        for name, t in model.registry.named(tags={"frozen"}):
            assert t.grad is None, name


class TestTapeMemory:
    @pytest.mark.parametrize("mode", ["sequential", "joint"])
    def test_step_tape_holds_no_feed_forward_hidden_width(self, mode,
                                                           monkeypatch):
        # the perfbench model: silu_ffn keeps its hidden activation in its
        # closure, so no node on the tape, frozen weights aside, has the
        # hidden width in its data or its gradient
        spec = BenchSpec(modalities=(BenchModality("video", 16, 8),
                                     BenchModality("audio", 24, 6),
                                     BenchModality("depth", 48, 4)),
                         train_size=32, test_size=8, seed=0)
        dims = ModelDims(rank=8)
        model = FusionModel(dims, spec.modalities, "video", "SelfGated",
                            spec.vocab, spec.classes, 0,
                            train_classifier=True)
        tags = ({"video", "fusion"} if mode == "sequential"
                else set(model.order) | {"fusion"})
        train, _ = gen_dataset(spec)
        nodes, _ = _step_tape(model, train, tags, monkeypatch)
        hidden = {FF_EXPANSION * dims.d, FF_EXPANSION * head_width(dims.d)}
        taped = [t for t in nodes if t.requires_grad]
        assert any(t._op == "silu_ffn" for t in taped)
        for t in taped:
            assert not hidden & set(t.shape[-1:]), t
            assert t.grad is not None and t.grad.shape == t.shape, t


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

    def test_zero_d_parameter_gets_an_array_gradient(self):
        w = T.Tensor(2.0, requires_grad=True, dtype=np.float64)
        x = T.Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
        T.backward(T.tsum(w * x))
        assert type(w.grad) is np.ndarray and w.grad.shape == ()
        assert w.grad == 3.0

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
        x = rng.normal(size=(3, 5))

        def f():
            h = T.layer_norm(T.Tensor(x, dtype=np.float64) @ w)
            att = T.softmax(h)
            return T.tmean(T.silu(att @ w) * h)

        report = T.grad_check(f, {"w": w})
        assert report.passed, report.summary()

    def test_detects_wrong_gradient(self):
        w = T.Tensor(np.full((2, 2), 1.5), requires_grad=True, dtype=np.float64)

        def buggy_square():
            # correct forward, deliberately corrupted backward
            out = w * w
            correct = out._backward_fn

            def wrong(g):
                correct(g)
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

    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_below_one_rejected(self, sample):
        f, params = self._mlp(np.random.default_rng(14))
        with pytest.raises(ValueError, match="sample must be at least 1"):
            T.grad_check(f, params, sample=sample)


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
