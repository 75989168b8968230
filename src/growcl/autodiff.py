"""Minimal array-valued reverse-mode autodiff on top of numpy.

Just enough machinery for a small prompt-conditioned attention encoder:
broadcasted arithmetic, (batched) matmul, reshapes/slices/concat, fused
layer-norm / softmax / GELU / masked cross-entropy. Gradients accumulate in
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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * p).sum(axis=axis, keepdims=True)
            x._accumulate(p * (g - inner))

    return Tensor._result(p, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = gamma.data * xhat + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, x.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gh = g * gamma.data
            term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * term)

    return Tensor._result(data, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    # tanh approximation; the derivative below matches it exactly. The cube
    # is x2 * x: numpy's generic ``x**3`` is an order of magnitude slower.
    x2 = x.data * x.data
    u = _SQRT_2_OVER_PI * (x.data + 0.044715 * (x2 * x.data))
    t = np.tanh(u)
    data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        if x.requires_grad:
            du = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x2)
            local = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
            x._accumulate(g * local)

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
