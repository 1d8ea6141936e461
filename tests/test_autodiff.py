"""Finite-difference checks for every autodiff operation."""

import numpy as np
import pytest

from boxkg import autodiff as ad


def numeric_grad(fn, arrays, h=1e-6):
    """Central differences of a scalar-valued fn w.r.t. each input array."""
    grads = [np.zeros_like(a) for a in arrays]
    for arr, grad in zip(arrays, grads):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = fn(arrays)
            flat[j] = orig - h
            down = fn(arrays)
            flat[j] = orig
            gflat[j] = (up - down) / (2 * h)
    return grads


def check(fn_t, arrays, h=1e-6, atol=1e-7):
    """Compare analytic gradients of fn_t (tensor fn) against differences."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = fn_t(tensors)
    out.backward()

    def fn_np(arrs):
        return float(fn_t([ad.Tensor(a) for a in arrs]).data)

    numeric = numeric_grad(fn_np, [a.copy() for a in arrays], h=h)
    for tensor, want in zip(tensors, numeric):
        got = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=atol)


RNG = np.random.default_rng(0)


def test_add_sub_mul():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((3, 4)) + 3.0
    check(lambda t: ad.tsum(ad.mul(t[0] + t[1], t[0] - t[1]) * (2.0 - t[1])), [a, b])


def test_broadcasting_grads():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((1, 4))
    c = RNG.standard_normal(())
    check(lambda t: ad.tsum(t[0] * t[1] + t[2]), [a, b, c])


def test_matmul():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4, 2))
    check(lambda t: ad.tsum(ad.mul(ad.matmul(t[0], t[1]), 0.3)), [a, b])


def test_relu():
    a = RNG.standard_normal((4, 4)) + 0.3
    check(lambda t: ad.tsum(ad.mul(ad.relu(t[0]), t[0])), [a])


def test_exp():
    a = RNG.uniform(0.5, 3.0, (3, 3))
    check(lambda t: ad.tsum(ad.exp(ad.mul(t[0], 0.1))), [a])


def test_softplus():
    a = RNG.standard_normal((3, 5)) * 3
    check(lambda t: ad.tsum(ad.softplus(t[0])), [a])


def test_softplus_is_stable_for_large_inputs():
    big = ad.softplus(ad.Tensor([800.0]))
    assert np.isfinite(big.data[0]) and big.data[0] == pytest.approx(800.0)
    small = ad.softplus(ad.Tensor([-800.0]))
    assert small.data[0] == 0.0


def test_sum_axes():
    a = RNG.standard_normal((3, 4))
    check(lambda t: ad.tsum(ad.mul(ad.tsum(t[0], axis=1), 2.0)), [a])
    check(lambda t: ad.tsum(ad.mul(ad.tsum(t[0], axis=0, keepdims=True), t[0])), [a])


def test_take_rows_scatter_adds():
    a = RNG.standard_normal((5, 3))
    idx = np.array([0, 2, 2, 4, 0, 0])
    check(lambda t: ad.tsum(ad.mul(ad.take_rows(t[0], idx), idx[:, None] + 1.0)), [a])


def test_take_rows_matches_both_scatter_paths():
    # the matmul fast path and np.add.at must produce identical gradients
    a = np.arange(15, dtype=float).reshape(5, 3)
    idx = np.array([1, 1, 3])
    t1 = ad.Tensor(a, requires_grad=True)
    ad.tsum(ad.take_rows(t1, idx)).backward()
    old = ad._SCATTER_MATMUL_BUDGET
    try:
        ad._SCATTER_MATMUL_BUDGET = 0  # force np.add.at
        t2 = ad.Tensor(a, requires_grad=True)
        ad.tsum(ad.take_rows(t2, idx)).backward()
    finally:
        ad._SCATTER_MATMUL_BUDGET = old
    np.testing.assert_array_equal(t1.grad, t2.grad)


def test_reshape_and_concat():
    a = RNG.standard_normal((2, 6))
    b = RNG.standard_normal((2, 3))
    check(
        lambda t: ad.tsum(
            ad.mul(ad.concat([ad.reshape(t[0], (2, 6)), t[1]], axis=1), 0.7)
        ),
        [a, b],
    )


def test_logsumexp():
    a = RNG.standard_normal((4, 6)) * 2
    check(lambda t: ad.tsum(ad.logsumexp(t[0], axis=1)), [a])
    check(lambda t: ad.tsum(t[0] - ad.logsumexp(t[0], axis=1, keepdims=True)), [a])


def test_logsumexp_stable():
    out = ad.logsumexp(ad.Tensor([[1000.0, 1000.0]]), axis=1)
    assert out.data[0] == pytest.approx(1000.0 + np.log(2.0))


def test_gradient_accumulates_over_reuse():
    a = ad.Tensor(np.array([2.0]), requires_grad=True)
    out = ad.tsum(a * a + a)
    out.backward()
    assert a.grad[0] == pytest.approx(2 * 2.0 + 1.0)


def test_no_grad_for_constants():
    a = ad.Tensor(np.ones(3))
    out = ad.tsum(a * 2.0)
    out.backward()
    assert a.grad is None
