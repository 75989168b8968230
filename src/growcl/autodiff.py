"""Minimal array-valued reverse-mode autodiff on top of numpy.

Just enough machinery for a small prompt-conditioned attention encoder:
broadcasted arithmetic, (batched) matmul, reshapes/slices/concat, fused
layer-norm / softmax / GELU / masked cross-entropy. The plain-array kernels
behind the layer-norm, softmax and GELU ops are module functions, shared
with the encoder's one-node attention block. Gradients accumulate in
float64; graphs are built per forward call and discarded after backward().
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # The first gradient is copied, never aliased: backward closures hand
        # the same array to several parents, and later ones add in place.
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._result(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._result(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return Tensor._result(data, (self,), backward)

    def sqrt(self):
        return self.pow(0.5)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor._result(data, (self, other), backward)

    __matmul__ = matmul

    def reshape(self, *shape) -> "Tensor":
        old = self.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._result(self.data.reshape(*shape), (self,), backward)

    def transpose(self, axes) -> "Tensor":
        inverse = np.argsort(axes)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._result(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        basic = all(isinstance(i, (int, slice)) or i is Ellipsis
                    for i in (idx if isinstance(idx, tuple) else (idx,)))

        def backward(g):
            if not self.requires_grad:
                return
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if basic:  # a basic index selects each element at most once
                self.grad[idx] += g
            else:
                np.add.at(self.grad, idx, g)

        return Tensor._result(self.data[idx], (self,), backward)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if self.requires_grad:
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._result(data, (self,), backward)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- backward driver -----------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order, seen = [], set()

        def visit(node):
            stack = [(node, False)]
            while stack:
                n, done = stack.pop()
                if done:
                    order.append(n)
                    continue
                if id(n) in seen:
                    continue
                seen.add(id(n))
                stack.append((n, True))
                for p in n._parents:
                    stack.append((p, False))

        visit(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concat(tensors, axis=0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._result(data, tensors, backward)


# -- shared kernels ------------------------------------------------------------
# Forward/backward math of the fused ops on plain arrays, plus the LN
# parameter accumulation. The tape ops below and the encoder's one-node
# attention block both call these, so each derivative is written once.


def softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(g: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    """Input gradient, given the output gradient ``g`` and the output ``p``."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """Normalize over the last axis; returns (output, xhat, inv) where
    ``xhat`` is the normalized input and ``inv`` the inverse std."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, xhat, inv


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Input gradient of ``layer_norm_forward``."""
    gh = g * gamma
    term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
    return inv * term


def accumulate_layer_norm_params(gamma: Tensor, beta: Tensor, g: np.ndarray, xhat: np.ndarray):
    """Add the row-summed gradients of ``layer_norm_forward`` to ``gamma`` and
    ``beta``, each only if it requires one."""
    d = xhat.shape[-1]
    if gamma.requires_grad:
        gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
    if beta.requires_grad:
        beta._accumulate(g.reshape(-1, d).sum(axis=0))


def gelu_forward(x: np.ndarray):
    """tanh-approximated GELU; returns (output, x*x, tanh) for the backward.

    The cube is x2 * x: numpy's generic ``x**3`` is an order of magnitude
    slower.
    """
    x2 = x * x
    t = np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * (x2 * x)))
    return 0.5 * x * (1.0 + t), x2, t


def gelu_backward(g: np.ndarray, x: np.ndarray, x2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Input gradient of ``gelu_forward``; exact for the tanh form."""
    du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x2)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


# -- fused tape ops -------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    p = softmax_forward(x.data, axis)

    def backward(g):
        if x.requires_grad:
            x._accumulate(softmax_backward(g, p, axis))

    return Tensor._result(p, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    data, xhat, inv = layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def backward(g):
        accumulate_layer_norm_params(gamma, beta, g, xhat)
        if x.requires_grad:
            x._accumulate(layer_norm_backward(g, xhat, inv, gamma.data))

    return Tensor._result(data, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    data, x2, t = gelu_forward(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(gelu_backward(g, x.data, x2, t))

    return Tensor._result(data, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``.

    Class masking is expected to be applied to the logits beforehand (large
    negative additive bias), which this loss handles stably.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    data = -logp[np.arange(n), labels].mean()

    def backward(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            logits._accumulate(g * p / n)

    return Tensor._result(data, (logits,), backward)
