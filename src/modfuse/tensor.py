"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a numpy array together with an optional gradient and a
backward closure. Operations build a tape (a DAG of parent links); calling
:func:`backward` on a scalar loss walks the tape in reverse topological
order and accumulates gradients into every reachable leaf that has
``requires_grad`` set.

Training runs in float32; :func:`grad_check` verifies analytic gradients
against central finite differences and is meant to be run on float64
parameters, where the documented tolerance of 1e-4 is attainable.
Every operation validates that its output is finite, so a NaN or Inf
surfaces at the op that produced it rather than three modules later.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

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
    # a single reduction: any NaN or Inf in arr propagates into the sum.
    # A sum of finite values can itself overflow, so a non-finite sum is
    # confirmed element by element before it is reported.
    if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
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
        self._backward_fn: Callable[[], None] | None = None
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

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, "
                f"requires_grad={self.requires_grad}, op={self._op})")

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __neg__(self):
        return mul(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("division by a Tensor is not supported; use mul")
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)


def _make(data: np.ndarray, parents: Sequence[Tensor], op: str,
          backward_fn: Callable[[], None] | None) -> Tensor:
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
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# elementwise and shape ops

def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data + b.data
    out = _make(out_data, (a, b), "add", None)

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            a.accumulate(unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g, b.shape))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        scalar = float(b)
        out = _make(a.data * np.asarray(scalar, dtype=a.dtype), (a,), "scale", None)

        def backward_scalar():
            if a.requires_grad:
                a.accumulate(out.grad * scalar)

        out._backward_fn = backward_scalar if out.requires_grad else None
        return out

    b = _coerce(b, a)
    out = _make(a.data * b.data, (a, b), "mul", None)

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            a.accumulate(unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(unbroadcast(g * a.data, b.shape))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with leading batch dimensions broadcast numpy-style."""
    b = _coerce(b, a)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands of rank >= 2")
    out = _make(a.data @ b.data, (a, b), "matmul", None)

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate(unbroadcast(ga, a.shape))
        if b.requires_grad:
            if b.data.ndim == 2 and g.ndim > 2:
                # weight shared across batch: flatten instead of
                # materializing a per-batch gradient stack
                cols = a.data.shape[-1]
                gb = a.data.reshape(-1, cols).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            b.accumulate(gb)

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = _make(a.data.reshape(shape), (a,), "reshape", None)

    def backward_fn():
        if a.requires_grad:
            a.accumulate(out.grad.reshape(a.shape))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = _make(np.transpose(a.data, axes), (a,), "transpose", None)
    inverse = tuple(np.argsort(axes))

    def backward_fn():
        if a.requires_grad:
            a.accumulate(np.transpose(out.grad, inverse))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty sequence")
    for t in tensors[1:]:
        if t.dtype != tensors[0].dtype:
            raise TypeError("concat requires matching dtypes")
    out = _make(np.concatenate([t.data for t in tensors], axis=axis),
                tensors, "concat", None)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn():
        g = out.grad
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate(g[tuple(idx)])

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = _make(np.broadcast_to(a.data, shape).copy(), (a,), "broadcast", None)

    def backward_fn():
        if a.requires_grad:
            a.accumulate(unbroadcast(out.grad, a.shape))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum", None)

    def backward_fn():
        if a.requires_grad:
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        count = a.shape[axis] if isinstance(axis, int) else int(
            np.prod([a.shape[i] for i in axis]))
    out = _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), "mean", None)

    def backward_fn():
        if a.requires_grad:
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape) / count)

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


# nonlinearities

def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; the two where-branches are the usual
    # stable forms for positive and negative inputs
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid_data(a.data)
    out = _make(y, (a,), "sigmoid", None)

    def backward_fn():
        if a.requires_grad:
            a.accumulate(out.grad * y * (1.0 - y))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), the smooth self-gating nonlinearity."""
    s = _sigmoid_data(a.data)
    out = _make(a.data * s, (a,), "silu", None)

    def backward_fn():
        if a.requires_grad:
            a.accumulate(out.grad * (s + a.data * s * (1.0 - s)))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _make(y, (a,), "softmax", None)

    def backward_fn():
        if a.requires_grad:
            g = out.grad
            a.accumulate((g - (g * y).sum(axis=axis, keepdims=True)) * y)

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = _make(xhat * gain.data + bias.data, (a, gain, bias), "layer_norm", None)

    def backward_fn():
        g = out.grad
        if bias.requires_grad:
            bias.accumulate(unbroadcast(g, bias.shape))
        if gain.requires_grad:
            gain.accumulate(unbroadcast(g * xhat, gain.shape))
        if a.requires_grad:
            gx = g * gain.data
            term1 = gx.mean(axis=-1, keepdims=True)
            term2 = (gx * xhat).mean(axis=-1, keepdims=True)
            a.accumulate(inv_std * (gx - term1 - xhat * term2))

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


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
    out = _make(np.asarray(nll.mean(), dtype=logits.dtype), (logits,),
                "cross_entropy", None)

    def backward_fn():
        if logits.requires_grad:
            probs = np.exp(z - lse)
            probs[np.arange(n), targets] -= 1.0
            logits.accumulate(out.grad * probs / n)

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any integer shape index the first axis of ``table``."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding ids must be integers")
    out = _make(table.data[ids], (table,), "embedding", None)

    def backward_fn():
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, ids, out.grad)
            table.accumulate(g)

    out._backward_fn = backward_fn if out.requires_grad else None
    return out


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
            if id(p) not in visited:
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
            node._backward_fn()
    for node in order:
        if node.requires_grad and not node._parents and node.grad is not None:
            _check_finite(node.grad, "backward")


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# optimization

def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update, in place, with bias correction at step ``t`` (1-based)."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


class Adam:
    """Adam with state kept per parameter name.

    A parameter's moments and step count advance only when that parameter
    is passed to :meth:`step`, so parameters excluded from an update (for
    example, adapters of an inactive modality) keep their state untouched.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
                      self.lr, self.beta1, self.beta2, self.eps)
            _check_finite(p.data, "adam_step")
            n += 1
        return n


# gradient verification

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {status}: max rel err {self.max_rel_err:.3e} "
                f"(tol {self.tol:.1e}, {self.n_checked} scalars, "
                f"worst '{self.worst_param}')")


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, tol: float = 1e-4, floor: float = 1e-6,
               sample: int | None = None, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` is a zero-argument callable returning a scalar Tensor; it must be
    a pure function of ``params`` (same bytes out for same bytes in). A
    non-deterministic ``f`` is reported as an error rather than a gradient
    mismatch. Run with float64 params for the documented 1e-4 tolerance.

    ``sample``, if given, checks a seeded random subset of that many
    elements per parameter instead of every element.
    """
    y1 = f()
    y2 = f()
    if y1.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    if not np.array_equal(y1.data, y2.data):
        raise RuntimeError("function is not deterministic: two forward passes "
                           "returned different values")
    backward(y1, leaves=params.values())

    analytic = {name: p.grad.copy() for name, p in params.items()}
    rng = np.random.default_rng(seed)
    max_err = 0.0
    worst = ""
    n_checked = 0
    per_param: dict[str, float] = {}
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
        per_param[name] = p_err
        if p_err > max_err:
            max_err = p_err
            worst = name
    return GradCheckReport(max_rel_err=max_err, worst_param=worst,
                           n_checked=n_checked, tol=tol, per_param=per_param)
