"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a numpy array together with an optional gradient and a
backward closure. Operations build a tape (a DAG of parent links); calling
:func:`backward` on a scalar loss walks the tape in reverse topological
order and accumulates gradients into every reachable leaf that has
``requires_grad`` set. Each op hands :func:`_make` a closure that receives
the output's gradient as its argument (``node._backward_fn(node.grad)``)
and refers only to the op's inputs, never to its output, so a tape holds
no reference cycles and is freed by reference counting once the last
reference to its output goes.

Training runs in float32; :func:`grad_check` verifies analytic gradients
against central finite differences and is meant to be run on float64
parameters, where the documented tolerance of 1e-4 is attainable.
Every operation validates that its output is finite, so a NaN or Inf
surfaces at the op that produced it rather than three modules later.

Kernels work in place where that saves a memory pass, under one rule: an
op writes in place only into arrays it allocated in that same call, never
into its inputs, the upstream gradient, its saved output or the arrays it
hands to ``probes``. They keep numpy's own reductions and the association
of every product and sum (the last-axis softmax sweeps its columns for the
row maximum, which is exact; layer norm makes the calls ``np.mean``
makes), so their bytes equal those of the plain formulas.

Three rules keep backward lean. A weight shared across the batch (a 2-D
``b`` in :func:`matmul`) gets both gradients from one GEMM over the
flattened leading rows, never from one small BLAS call per batch row. An
op passes ``owned`` to :meth:`Tensor.accumulate` only for an array it
allocated in that call for that parent alone, which the parent then keeps
as its first gradient without a copy; an op that hands on the upstream
gradient, a view of it or an array that two parents receive (``add``,
``reshape``, ``transpose``, ``concat``, ``broadcast_to``, ``tsum``) lets
accumulate copy it. And a composite op (:func:`attention`,
:func:`silu_ffn`) keeps only the arrays its backward reads: the
intermediates of the composition it stands for get no tape node, so no
data or gradient of theirs lives until the tape is freed.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data, dtype) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        arr = arr.astype(np.float32)
    return arr


def _check_finite(arr: np.ndarray, op: str) -> None:
    # element-wise, so it is exact: a sum could overflow on finite values
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A numpy array with gradient tracking.

    Attributes:
        data: the underlying numpy array (float32 or float64).
        grad: accumulated gradient of the same shape, or None before any
            backward pass has touched this tensor.
        requires_grad: whether backward should accumulate into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        _check_finite(self.data, "leaf")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``grad``. A first gradient is copied, unless the
        op passes ``owned``: ``g`` is then an array of this tensor's dtype
        that the op allocated in that call for this tensor alone, and
        ``grad`` keeps it as it is."""
        if self.grad is not None:
            self.grad += g
        elif owned:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.data.dtype)

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, "
                f"requires_grad={self.requires_grad}, op={self._op})")

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _make(data: np.ndarray, parents: Sequence[Tensor], op: str,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward_fn = backward_fn if out.requires_grad else None
    out._op = op
    return out


def _coerce(other, like: Tensor) -> Tensor:
    if isinstance(other, Tensor):
        if other.dtype != like.dtype:
            raise TypeError(
                f"dtype mismatch: {like.dtype.name} vs {other.dtype.name}")
        return other
    return Tensor(np.asarray(other, dtype=like.dtype))


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        # an array even when the sum is 0-d, where numpy returns a scalar
        grad = np.asarray(grad.sum(axis=tuple(range(extra))))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# elementwise and shape ops

def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), "add", backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b.accumulate(unbroadcast(g * a.data, b.shape), owned=True)

    return _make(a.data * b.data, (a, b), "mul", backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with leading batch dimensions broadcast numpy-style."""
    b = _coerce(b, a)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands of rank >= 2")

    def backward_fn(g):
        # a weight shared across the batch (b 2-D): flatten the leading
        # dims, so each gradient is one GEMM rather than one small BLAS
        # call per batch row or a per-batch gradient stack
        shared = b.data.ndim == 2
        if a.requires_grad:
            if shared:
                ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.shape)
            else:
                ga = unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            a.accumulate(ga, owned=True)
        if b.requires_grad:
            if shared:
                cols = a.data.shape[-1]
                gb = a.data.reshape(-1, cols).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            b.accumulate(gb, owned=True)

    return _make(a.data @ b.data, (a, b), "matmul", backward_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), "reshape", backward_fn)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(np.transpose(g, inverse))

    return _make(np.transpose(a.data, axes), (a,), "transpose", backward_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty sequence")
    for t in tensors[1:]:
        if t.dtype != tensors[0].dtype:
            raise TypeError("concat requires matching dtypes")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate(g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, "concat", backward_fn)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(unbroadcast(g, a.shape))

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), "broadcast",
                 backward_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum",
                 backward_fn)


def tmean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        count = a.size
    else:
        count = a.shape[axis] if isinstance(axis, int) else int(
            np.prod([a.shape[i] for i in axis]))

    def backward_fn(g):
        if a.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape) / count, owned=True)

    return _make(a.data.mean(axis=axis), (a,), "mean", backward_fn)


# nonlinearities

def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # t = exp(-|x|) never overflows. The numerator is 1 where x >= 0 (there
    # t <= 1) and t elsewhere, so one division gives the two usual stable
    # forms, 1 / (1 + t) and t / (1 + t), bit for bit and without a branch.
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    n = np.greater_equal(x, 0, out=np.empty_like(x))
    np.maximum(n, t, out=n)
    t += 1
    n /= t
    return n


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), the smooth self-gating nonlinearity."""
    s = _sigmoid_data(a.data)
    xs = a.data * s

    def backward_fn(g):
        if a.requires_grad:
            # ((x * s) * (1 - s) + s) * g, reusing the forward's x * s (the
            # array, not the output Tensor, so the tape stays acyclic);
            # reassociating changes the bytes
            gx = 1.0 - s
            gx *= xs
            gx += s
            gx *= g
            a.accumulate(gx, owned=True)

    return _make(xs, (a,), "silu", backward_fn)


def silu_ffn(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """silu(x @ w1) @ w2 for frozen 2-D weights: the feed-forward sublayer.

    One op stands for the two products and the silu between them; it runs
    their kernels on arrays of the same layout, so its bytes equal the
    composition. Its tape keeps the gate and the activation, not the
    pre-activation (the activation overwrites it) and no hidden-width
    gradient of an intermediate node. A trainable weight raises
    ``ValueError``: the op has no gradient for it.
    """
    w1 = _coerce(w1, x)
    w2 = _coerce(w2, x)
    if w1.requires_grad or w2.requires_grad:
        raise ValueError("silu_ffn takes frozen weights only")
    if w1.ndim != 2 or w2.ndim != 2:
        raise ValueError("silu_ffn takes 2-D weights")
    xs = x.data @ w1.data         # the pre-activation, until xs *= s
    _check_finite(xs, "silu_ffn")
    s = _sigmoid_data(xs)
    xs *= s
    _check_finite(xs, "silu_ffn")

    def backward_fn(g):
        if x.requires_grad:
            # matmul's input gradient through w2, silu's ((x * s) * (1 - s)
            # + s) * g, then matmul's through w1, each product one GEMM over
            # the flattened rows
            g_xs = g.reshape(-1, g.shape[-1]) @ w2.data.T
            gh = 1.0 - s
            gh *= xs
            gh += s
            gh *= g_xs.reshape(gh.shape)
            gx = gh.reshape(-1, gh.shape[-1]) @ w1.data.T
            x.accumulate(gx.reshape(x.shape), owned=True)

    return _make(xs @ w2.data, (x,), "silu_ffn", backward_fn)


def _softmax_data(x: np.ndarray) -> np.ndarray:
    # x.max runs its inner loop once per row, which costs far more than
    # the few keys in a row; a sweep over the columns runs it once per key
    # and gives the same maxima (the maximum is exact)
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    e = x - m[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (g - sum(g * y)) * y over the last axis, in the buffer of g * y
    gy = g * y
    np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
    gy *= y
    return gy


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = _softmax_data(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate(_softmax_grad(g, y), owned=True)

    return _make(y, (a,), "softmax", backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              probes: list | None = None) -> Tensor:
    """Multi-head scaled dot-product attention of ``q`` onto ``k``/``v``.

    q: [B, Sq, d]; k, v: [B, Sk, d]; output [B, Sq, d] with the heads
    merged back. One op stands for the head split, the scaled scores, the
    softmax, the weighted sum and the head merge; it runs the arithmetic
    of that composition on arrays of the same layout, so its bytes equal
    it.
    The raw scores are checked as well as the output, since the softmax
    would turn a -inf score into a finite zero. ``probes``, if given,
    receives the [B, heads, Sq, Sk] attention probabilities.
    """
    k = _coerce(k, q)
    v = _coerce(v, q)
    b, sq, d = q.shape
    sk = k.shape[1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    qh = np.transpose(q.data.reshape(b, sq, heads, dh), (0, 2, 1, 3))
    kh = np.transpose(k.data.reshape(b, sk, heads, dh), (0, 2, 1, 3))
    vh = np.transpose(v.data.reshape(b, sk, heads, dh), (0, 2, 1, 3))
    kt = np.transpose(kh, (0, 1, 3, 2))
    scores = qh @ kt
    _check_finite(scores, "attention")
    scores *= np.asarray(scale, dtype=q.dtype)
    probs = _softmax_data(scores)
    if probes is not None:
        probes.append(probs)
    heads_out = np.transpose(probs @ vh, (0, 2, 1, 3))

    def backward_fn(g):
        # g is copied once into a dense array, as Tensor.accumulate copied
        # it in the composition, so the matmuls see the same layout; the
        # transposed views keep it (a copy of a dense array keeps its
        # strides); each input's gradient is a fresh product, or a view of
        # one, that only that input holds, so accumulate keeps it
        g_pv = np.transpose(np.array(g.reshape(b, sq, heads, dh)),
                            (0, 2, 1, 3))
        if q.requires_grad or k.requires_grad:
            g_scores = _softmax_grad(g_pv @ np.swapaxes(vh, -1, -2), probs)
            g_scores *= scale
            if q.requires_grad:
                g_qh = g_scores @ np.swapaxes(kt, -1, -2)
                q.accumulate(np.transpose(g_qh, (0, 2, 1, 3))
                             .reshape(q.shape), owned=True)
            if k.requires_grad:
                g_kt = np.swapaxes(qh, -1, -2) @ g_scores
                k.accumulate(np.transpose(g_kt, (0, 3, 1, 2))
                             .reshape(k.shape), owned=True)
        if v.requires_grad:
            g_vh = np.swapaxes(probs, -1, -2) @ g_pv
            v.accumulate(np.transpose(g_vh, (0, 2, 1, 3)).reshape(v.shape),
                         owned=True)

    return _make(heads_out.reshape(b, sq, d), (q, k, v), "attention",
                 backward_fn)


def _mean_last(x: np.ndarray) -> np.ndarray:
    # the calls np.mean makes: a sum, then an unsafe-cast division by the
    # count as np.intp
    r = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(r, np.intp(x.shape[-1]), out=r, casting="unsafe")
    return r


LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance. No affine
    follows: a frozen gain of ones and bias of zeros would move no byte."""
    xhat = a.data - _mean_last(a.data)
    inv_std = _mean_last(xhat * xhat)
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std

    def backward_fn(g):
        if a.requires_grad:
            gxh = g * xhat
            term2 = _mean_last(gxh)
            # inv_std * ((g - mean(g)) - xhat * term2)
            gx = g - _mean_last(g)
            np.multiply(xhat, term2, out=gxh)
            gx -= gxh
            gx *= inv_std
            a.accumulate(gx, owned=True)

    return _make(xhat, (a,), "layer_norm", backward_fn)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    logits: [batch, classes]; targets: int array [batch].
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects logits of shape [batch, classes]")
    if targets.shape != (logits.shape[0],):
        raise ValueError("targets must be a 1-D int array matching the batch")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError("target index out of range")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    n = z.shape[0]
    nll = lse[:, 0] - z[np.arange(n), targets]

    def backward_fn(g):
        if logits.requires_grad:
            probs = np.exp(z - lse)
            probs[np.arange(n), targets] -= 1.0
            logits.accumulate(g * probs / n, owned=True)

    return _make(np.asarray(nll.mean(), dtype=logits.dtype), (logits,),
                 "cross_entropy", backward_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any integer shape index the first axis of ``table``."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding ids must be integers")

    def backward_fn(g):
        if table.requires_grad:
            grad = np.zeros_like(table.data)
            np.add.at(grad, ids, g)
            table.accumulate(grad, owned=True)

    return _make(table.data[ids], (table,), "embedding", backward_fn)


# tape traversal

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # a frozen parent has nothing to visit: no gradient, no parents
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor, leaves: Iterable[Tensor] | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every reachable leaf.

    ``loss`` must be a scalar. If ``leaves`` is given, their gradients are
    zero-initialized first, so leaves the loss does not depend on end up
    with explicit zero gradients rather than None.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tensor with requires_grad")
    if leaves is not None:
        for t in leaves:
            t.zero_grad()
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
    for node in order:
        # every node in order requires grad: _topo_order skips frozen ones
        if not node._parents and node.grad is not None:
            _check_finite(node.grad, "backward")


# optimization

# Adam's moment decay rates and denominator floor, at their published
# defaults; only the learning rate is set per run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float) -> None:
    """One Adam update, in place, with bias correction at step ``t`` (1-based)."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    param -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


class Adam:
    """Adam with state kept per parameter name.

    A parameter's moments and step count advance only when that parameter
    is passed to :meth:`step`, so parameters excluded from an update (for
    example, adapters of an inactive modality) keep their state untouched.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.state: dict[str, dict] = {}

    def step(self, named_params: Iterable[tuple[str, Tensor]]) -> int:
        """Update the given parameters from their gradients; returns count."""
        n = 0
        for name, p in named_params:
            if not p.requires_grad:
                raise ValueError(f"parameter '{name}' is not trainable")
            if p.grad is None:
                raise ValueError(f"parameter '{name}' has no gradient")
            slot = self.state.get(name)
            if slot is None:
                slot = {"t": 0, "m": np.zeros_like(p.data),
                        "v": np.zeros_like(p.data)}
                self.state[name] = slot
            slot["t"] += 1
            adam_step(p.data, p.grad, slot["m"], slot["v"], slot["t"],
                      self.lr)
            _check_finite(p.data, "adam_step")
            n += 1
        return n


# gradient verification

GRAD_CHECK_TOL = 1e-4


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRAD_CHECK_TOL

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {status}: max rel err {self.max_rel_err:.3e} "
                f"(tol {GRAD_CHECK_TOL:.1e}, {self.n_checked} scalars, "
                f"worst '{self.worst_param}')")


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, floor: float = 1e-6,
               sample: int | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` is a zero-argument callable returning a scalar Tensor; it must be
    a pure function of ``params`` (same bytes out for same bytes in). A
    non-deterministic ``f`` is reported as an error rather than a gradient
    mismatch. Run with float64 params for the ``GRAD_CHECK_TOL`` of 1e-4.

    ``sample``, if given, checks a seeded random subset of that many
    elements per parameter instead of every element; it must be at least 1.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    y1 = f()
    y2 = f()
    if y1.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    if not np.array_equal(y1.data, y2.data):
        raise RuntimeError("function is not deterministic: two forward passes "
                           "returned different values")
    backward(y1, leaves=params.values())

    analytic = {name: p.grad.copy() for name, p in params.items()}
    rng = np.random.default_rng(0)
    max_err = 0.0
    worst = ""
    n_checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idx = np.arange(flat.size)
        if sample is not None and flat.size > sample:
            idx = rng.choice(flat.size, size=sample, replace=False)
        ana_flat = analytic[name].reshape(-1)
        p_err = 0.0
        for i in idx:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                y_plus = float(f().data)
                flat[i] = orig - h
                y_minus = float(f().data)
            flat[i] = orig
            numeric = (y_plus - y_minus) / (2.0 * h)
            a = float(ana_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if err > p_err:
                p_err = err
            n_checked += 1
        if p_err > max_err:
            max_err = p_err
            worst = name
    return GradCheckReport(max_rel_err=max_err, worst_param=worst,
                           n_checked=n_checked)
