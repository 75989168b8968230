import numpy as np
import pytest

from growcl.autodiff import Tensor, concat, cross_entropy, gelu, layer_norm, softmax


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function over array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        up = f()
        x[i] = orig - h
        down = f()
        x[i] = orig
        g[i] = (up - down) / (2 * h)
        it.iternext()
    return g


def check_grad(build, param_data, rtol=1e-5, atol=1e-8):
    """build(param_tensor) -> scalar Tensor; compares autodiff vs numeric."""
    p = Tensor(param_data.copy(), requires_grad=True)
    loss = build(p)
    loss.backward()
    numeric = numeric_grad(lambda: build(Tensor(p.data)).data.item(), p.data)
    np.testing.assert_allclose(p.grad, numeric, rtol=rtol, atol=atol)


rng = np.random.default_rng(0)


def test_add_mul_broadcast():
    a = rng.standard_normal((3, 4))
    check_grad(lambda p: ((p + Tensor(a)) * Tensor(2.0)).sum(), rng.standard_normal((3, 4)))
    # Row-vector broadcast against a matrix.
    check_grad(lambda p: (Tensor(a) * p).sum(), rng.standard_normal(4))


def test_matmul_grad():
    w = rng.standard_normal((4, 5))
    check_grad(lambda p: (p @ Tensor(w)).sum(), rng.standard_normal((3, 4)))
    x = rng.standard_normal((3, 4))
    check_grad(lambda p: (Tensor(x) @ p).sum(), rng.standard_normal((4, 5)))


def test_batched_matmul_shared_weight():
    # [B, T, d] @ [d, d]: weight grad must sum over batch dims.
    x = rng.standard_normal((2, 3, 4))
    check_grad(lambda p: (Tensor(x) @ p).sum(), rng.standard_normal((4, 4)))
    # full batched product
    b = rng.standard_normal((2, 4, 3))
    check_grad(lambda p: (p @ Tensor(b)).sum(), rng.standard_normal((2, 3, 4)))


def test_reshape_transpose_slice():
    def build(p):
        y = p.reshape(2, 6).transpose((1, 0))
        return y[2:5].sum()

    check_grad(build, rng.standard_normal((3, 4)))


def test_concat_grad():
    a = rng.standard_normal((2, 3))

    def build(p):
        return (concat([p, Tensor(a)], axis=1) * Tensor(rng2)).sum()

    rng2 = np.random.default_rng(1).standard_normal((2, 6))
    check_grad(build, rng.standard_normal((2, 3)))


def test_softmax_grad():
    w = rng.standard_normal((3, 5))
    check_grad(lambda p: (softmax(p) * Tensor(w)).sum(), rng.standard_normal((3, 5)))


def test_layer_norm_grads():
    x0 = rng.standard_normal((2, 3, 6))
    g0 = rng.standard_normal(6)
    b0 = rng.standard_normal(6)
    w = rng.standard_normal((2, 3, 6))

    def wrt_x(p):
        return (layer_norm(p, Tensor(g0), Tensor(b0)) * Tensor(w)).sum()

    def wrt_gamma(p):
        return (layer_norm(Tensor(x0), p, Tensor(b0)) * Tensor(w)).sum()

    def wrt_beta(p):
        return (layer_norm(Tensor(x0), Tensor(g0), p) * Tensor(w)).sum()

    check_grad(wrt_x, x0.copy(), rtol=1e-4)
    check_grad(wrt_gamma, g0.copy())
    check_grad(wrt_beta, b0.copy())


def test_gelu_grad():
    check_grad(lambda p: gelu(p).sum(), rng.standard_normal((4, 4)), rtol=1e-4)


def test_cross_entropy_matches_manual():
    logits = rng.standard_normal((5, 4))
    labels = np.array([0, 1, 2, 3, 1])
    t = Tensor(logits, requires_grad=True)
    loss = cross_entropy(t, labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    manual = -np.log(p[np.arange(5), labels]).mean()
    assert loss.data == pytest.approx(manual)
    check_grad(lambda q: cross_entropy(q, labels), logits.copy(), rtol=1e-4)


def test_cross_entropy_with_mask_bias():
    logits = rng.standard_normal((3, 6))
    bias = np.zeros(6)
    bias[3:] = -1e30  # classes 3.. are masked out
    labels = np.array([0, 2, 1])

    def build(p):
        return cross_entropy(p + Tensor(bias), labels)

    check_grad(build, logits.copy(), rtol=1e-4)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_grad_accumulates_over_reuse():
    p = Tensor(np.array([2.0]), requires_grad=True)
    loss = (p * p).sum()  # d/dp p^2 = 2p
    loss.backward()
    assert p.grad[0] == pytest.approx(4.0)


def test_first_gradient_is_copied_not_aliased():
    t = Tensor(np.zeros(3), requires_grad=True)
    first = np.ones(3)
    t._accumulate(first)
    t._accumulate(np.full(3, 2.0))
    np.testing.assert_array_equal(first, np.ones(3))
    np.testing.assert_array_equal(t.grad, np.full(3, 3.0))


def test_shared_upstream_gradient_not_corrupted():
    # ``s + p`` hands one array to both s and p; p later accumulates s's
    # gradient on top, which must not leak into s (and from there into q).
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    s = p + q
    (s + p).sum().backward()
    np.testing.assert_array_equal(p.grad, np.full(3, 2.0))
    np.testing.assert_array_equal(q.grad, np.ones(3))


def test_slice_and_fancy_index_grads():
    def build(p):
        return p[1:, ::2].sum() + p[..., 1].sum() + p[[0, 0, 2]].sum()

    check_grad(build, rng.standard_normal((3, 4)))


def test_detached_constant_gets_no_grad():
    p = Tensor(np.ones(3), requires_grad=True)
    c = p.detach()
    loss = (p * c).sum()
    loss.backward()
    assert c.grad is None
    np.testing.assert_allclose(p.grad, np.ones(3))
