"""Finite-difference checks for every autodiff operation."""

import numpy as np
import pytest

import reference as ref
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


def same_bits(got, want):
    """Equal values with equal signs of zero, NaN where the other has NaN."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("with_bias", [False, True])
def test_dense_layer_matches_chained_ops(relu, with_bias):
    # a zero row and -0.0 inputs and biases give exact-zero pre-activations
    # (the rectifier's kink); an infinite input times a zero weight gives NaN
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 4))
    a[0], a[1] = 0.0, -0.0
    a[2, 0] = np.inf
    b = rng.standard_normal((4, 5))
    b[0, 4] = 0.0
    bias = rng.standard_normal(5)
    bias[[0, 1]] = 0.0, -0.0
    upstream = rng.standard_normal((6, 5))

    def run(fused):
        leaves = [ad.Tensor(x, requires_grad=True) for x in (a, b, bias)]
        x, w, c = leaves
        c = c if with_bias else None
        with np.errstate(invalid="ignore"):
            if fused:
                out = ad.matmul(x, w, c, relu=relu)
            else:
                out = ad.matmul(x, w) if c is None else ad.matmul(x, w) + c
                out = ad.relu(out) if relu else out
            value = out.data.copy()  # a rectifying layer's backward spends it
            loss = ad.tsum(ad.mul(out, upstream))
            loss.backward()
        if fused and relu:
            with pytest.raises(RuntimeError, match="already backpropagated"):
                loss.backward()
        return [value] + list(ad.gradients(dict(enumerate(leaves))).values())

    fused, chained = run(True), run(False)
    if relu:
        assert not np.any(np.signbit(fused[0])) and not np.any(np.isnan(fused[0]))
    for got, want in zip(fused, chained):
        same_bits(got, want)


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


@pytest.mark.parametrize("n_rows", [4, 200])
def test_scatter_rows_matches_scalar_loop(n_rows):
    # 4 rows scatter by one-hot matmul and 200 by bincount
    assert (n_rows <= ad.SCATTER_MATMUL_ROWS) == (n_rows == 4)
    rng = np.random.default_rng(n_rows)
    # targets only the first half of the table, with many repeats; integer
    # values sum exactly in any order, so both methods must match bit for bit
    index = rng.integers(0, n_rows // 2, size=300)
    g = rng.integers(-50, 50, size=(300, 5)).astype(float)
    got = ad.scatter_rows(index, g, n_rows)
    np.testing.assert_array_equal(got, ref.ref_scatter_rows(index, g, n_rows))
    assert not got[n_rows // 2 :].any()
    empty = ad.scatter_rows(np.empty(0, dtype=np.intp), np.empty((0, 5)), n_rows)
    np.testing.assert_array_equal(empty, np.zeros((n_rows, 5)))


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


def test_only_leaves_keep_gradients():
    a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = a * a
    out = ad.tsum(hidden)
    out.backward()
    assert hidden.grad is None and out.grad is None
    np.testing.assert_array_equal(a.grad, [2.0, 4.0])


def test_no_grad_for_constants():
    a = ad.Tensor(np.ones(3))
    out = ad.tsum(a * 2.0)
    out.backward()
    assert a.grad is None
