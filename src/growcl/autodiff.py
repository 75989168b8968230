"""Plain-array kernels for the encoder, and a minimal reverse-mode tape.

The kernels (layer norm, softmax, tanh GELU and masked cross-entropy, each a
forward and a backward on plain arrays) are what the encoder's explicit
forward/backward calls. The ``Tensor`` tape (broadcasted arithmetic, (batched)
matmul, reshapes/slices/concat and fused ops over the same kernels) is no
longer on any engine path: the tests build the encoder from it as an
independent reference for the explicit gradients. Gradients accumulate in
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
# Forward/backward math of the fused ops on plain arrays. The encoder's
# explicit pass and the tape ops below both call these, so each derivative is
# written once. Temporaries are updated in place, in the operation order of
# the plain expressions in the comments, so results do not change bitwise.


def softmax_forward(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over ``axis``, into ``out`` when given (``x`` itself may be)."""
    # e = exp(x - max(x)); e / sum(e)
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(g: np.ndarray, p: np.ndarray, axis: int = -1,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Input gradient, given the output gradient ``g`` and the output ``p``;
    into ``out`` when given (``g`` itself may be)."""
    # p * (g - sum(g * p))
    s = (g * p).sum(axis=axis, keepdims=True)
    gp = np.subtract(g, s, out=out)
    gp *= p
    return gp


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """Normalize over the last axis; returns (output, xhat, inv) where
    ``xhat`` is the normalized input and ``inv`` the inverse std.

    The mean and variance are the ones ``x.mean`` and ``x.var`` give, with
    the centred input computed once.
    """
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Input gradient of ``layer_norm_forward``."""
    # gh = g * gamma; inv * (gh - mean(gh) - xhat * mean(gh * xhat))
    d = xhat.shape[-1]
    gh = g * gamma
    t = gh * xhat
    m = np.add.reduce(t, axis=-1, keepdims=True) / d
    np.multiply(xhat, m, out=t)
    gh -= np.add.reduce(gh, axis=-1, keepdims=True) / d
    gh -= t
    gh *= inv
    return gh


def layer_norm_param_grads(g: np.ndarray, xhat: np.ndarray):
    """Row-summed (gamma, beta) gradients of ``layer_norm_forward``."""
    d = xhat.shape[-1]
    return (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def gelu_forward(x: np.ndarray):
    """tanh-approximated GELU; returns (output, x*x, tanh) for the backward.

    The cube is x2 * x: numpy's generic ``x**3`` is an order of magnitude
    slower.
    """
    # t = tanh(c * (x + 0.044715 * x^3)); 0.5 * x * (1 + t)
    x2 = x * x
    t = x2 * x
    t *= 0.044715
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, x2, t


def gelu_derivative(x: np.ndarray, x2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of ``gelu_forward`` at ``x``, from the ``x2`` and ``t`` it
    returned, which this overwrites (the result is ``t``); exact for the
    tanh form. An input gradient is the output gradient times this."""
    # 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2)
    du = x2
    du *= 3 * 0.044715
    du += 1.0
    du *= _SQRT_2_OVER_PI
    s = t * t
    np.subtract(1.0, s, out=s)
    r = 0.5 * x
    r *= s
    r *= du
    t += 1.0
    t *= 0.5
    t += r
    return t


def cross_entropy_forward(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood of integer ``labels``; returns (loss,
    log-probabilities).

    Class masking is expected to be applied to the logits beforehand (large
    negative additive bias), which this loss handles stably.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    return -logp[np.arange(len(logp)), labels].mean(), logp


def cross_entropy_backward(logp: np.ndarray, labels: np.ndarray,
                           denom: np.ndarray | None = None) -> np.ndarray:
    """Logit gradient of ``cross_entropy_forward``; with ``denom`` [n], of
    the sum of each row's negative log-likelihood divided by its own
    ``denom`` entry instead of by n."""
    n = len(logp)
    p = np.exp(logp)
    p[np.arange(n), labels] -= 1.0
    p /= n if denom is None else denom[:, None]
    return p


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
        g_gamma, g_beta = layer_norm_param_grads(g, xhat)
        if gamma.requires_grad:
            gamma._accumulate(g_gamma)
        if beta.requires_grad:
            beta._accumulate(g_beta)
        if x.requires_grad:
            x._accumulate(layer_norm_backward(g, xhat, inv, gamma.data))

    return Tensor._result(data, (x, gamma, beta), backward)


def gelu(x: Tensor) -> Tensor:
    data, x2, t = gelu_forward(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * gelu_derivative(x.data, x2, t))

    return Tensor._result(data, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``."""
    labels = np.asarray(labels)
    data, logp = cross_entropy_forward(logits.data, labels)

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(g * cross_entropy_backward(logp, labels))

    return Tensor._result(data, (logits,), backward)
