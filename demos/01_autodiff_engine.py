"""The tape-based autodiff engine underneath everything else.

Every model in this package is built from one Tensor type that records
the operations applied to it and replays them in reverse to produce
gradients. This script walks through the moving parts: building a
graph, calling backward, checking gradients against finite differences,
and fitting a tiny least-squares problem with the bundled Adam loop.
"""

import numpy as np

from modfuse import tensor as T

print("=== a tiny graph, differentiated by hand vs by tape ===")
# y = sum(silu(x @ w)) -- one matmul, one gated nonlinearity, one sum.
rng = np.random.default_rng(0)
x = T.Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
y = T.tsum(T.silu(T.matmul(x, w)))
T.backward(y)

# silu(z) = z * sigmoid(z), so dy/dz = sigmoid(z) * (1 + z * (1 - sigmoid(z)))
z = x.data @ w.data
sig = 1.0 / (1.0 + np.exp(-z))
manual = x.data.T @ (sig * (1.0 + z * (1.0 - sig)))
print("max |tape - manual| =", np.max(np.abs(w.grad - manual)))

print()
print("=== the same comparison, automated over every parameter ===")
# grad_check evaluates the function twice (catching nondeterminism),
# backpropagates, then nudges every scalar up and down by h and compares
# the analytic gradient against the centered difference quotient.
params = {"w": w}


def f():
    return T.tsum(T.silu(T.matmul(x, w)))


report = T.grad_check(f, params)
print(report.summary())

print()
print("=== gradients drive a fit: least squares with Adam ===")
true_w = np.array([[2.0], [-3.0], [0.5], [1.0]])
inputs = rng.normal(size=(256, 4))
targets = inputs @ true_w + 0.01 * rng.normal(size=(256, 1))

weight = T.Tensor(np.zeros((4, 1)), requires_grad=True, dtype=np.float64)
opt = T.Adam(lr=0.05)
for step in range(400):
    pred = T.matmul(T.Tensor(inputs, dtype=np.float64), weight)
    err = pred + T.Tensor(-targets, dtype=np.float64)
    loss = T.tmean(err * err)
    T.backward(loss, leaves=[weight])
    opt.step([("weight", weight)])
    if step % 100 == 0:
        print(f"step {step:>3}  mse {float(loss.data):.5f}")
print("recovered weights:", np.round(weight.data.ravel(), 3))
print("true weights:     ", true_w.ravel())

print()
print("=== no_grad turns the tape off for pure inference ===")
with T.no_grad():
    silent = T.tsum(T.silu(T.matmul(x, w)))
print("w is trainable, yet the no_grad result requires_grad =",
      silent.requires_grad)
print("so backward has nothing to traverse and inference stays cheap.")
