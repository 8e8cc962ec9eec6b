"""Unit tests for nn layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Sequential


def numerical_grad(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def test_dense_forward_shape_and_value():
    layer = Dense(3, 2, rng=np.random.default_rng(0))
    layer.W[...] = np.arange(6).reshape(3, 2)
    layer.b[...] = [1.0, -1.0]
    out = layer.forward(np.array([[1.0, 0.0, 0.0]]))
    assert out.shape == (1, 2)
    assert out[0, 0] == pytest.approx(1.0)  # 0*1 + 1 bias
    assert out[0, 1] == pytest.approx(0.0)  # 1*1 - 1 bias


def test_dense_validation():
    with pytest.raises(ValueError):
        Dense(0, 2)


def test_dense_backward_matches_numerical_gradient():
    rng = np.random.default_rng(1)
    layer = Dense(4, 3, rng=rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss():
        out = layer.forward(x)
        return 0.5 * ((out - target) ** 2).sum()

    out = layer.forward(x, training=True)
    layer.backward(out - target)
    num_dW = numerical_grad(loss, layer.W)
    num_db = numerical_grad(loss, layer.b)
    assert np.allclose(layer.dW, num_dW, atol=1e-5)
    assert np.allclose(layer.db, num_db, atol=1e-5)


def test_dense_backward_requires_training_forward():
    layer = Dense(2, 2)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 2)))


def test_relu_forward_and_backward():
    layer = ReLU()
    x = np.array([[-1.0, 2.0, 0.0]])
    out = layer.forward(x, training=True)
    assert np.array_equal(out, [[0.0, 2.0, 0.0]])
    grad = layer.backward(np.ones_like(x))
    assert np.array_equal(grad, [[0.0, 1.0, 0.0]])


def test_dropout_identity_at_inference():
    layer = Dropout(0.9)
    x = np.ones((4, 4))
    assert np.array_equal(layer.forward(x, training=False), x)


def test_dropout_preserves_expectation_roughly():
    layer = Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((200, 200))
    out = layer.forward(x, training=True)
    assert out.mean() == pytest.approx(1.0, abs=0.05)


def test_dropout_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_conv_forward_known_value():
    layer = Conv2D(1, 1, kernel=2, rng=np.random.default_rng(0))
    layer.W[...] = np.ones((1, 1, 2, 2))
    layer.b[...] = 0.0
    x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
    out = layer.forward(x)
    # Each output = sum of 2x2 window.
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0, 0, 0] == pytest.approx(0 + 1 + 3 + 4)
    assert out[0, 0, 1, 1] == pytest.approx(4 + 5 + 7 + 8)


def test_conv_padding_preserves_size():
    layer = Conv2D(2, 4, kernel=3, pad=1)
    out = layer.forward(np.zeros((1, 2, 8, 8)))
    assert out.shape == (1, 4, 8, 8)
    assert layer.output_shape((2, 8, 8)) == (4, 8, 8)


def test_conv_stride():
    layer = Conv2D(1, 1, kernel=2, stride=2)
    out = layer.forward(np.zeros((1, 1, 8, 8)))
    assert out.shape == (1, 1, 4, 4)


def test_conv_backward_matches_numerical_gradient():
    rng = np.random.default_rng(2)
    layer = Conv2D(2, 3, kernel=3, pad=1, rng=rng)
    x = rng.normal(size=(2, 2, 5, 5))
    target = rng.normal(size=(2, 3, 5, 5))

    def loss():
        out = layer.forward(x)
        return 0.5 * ((out - target) ** 2).sum()

    out = layer.forward(x, training=True)
    dx = layer.backward(out - target)
    num_dW = numerical_grad(loss, layer.W)
    num_dx = numerical_grad(loss, x)
    assert np.allclose(layer.dW, num_dW, atol=1e-4)
    assert np.allclose(dx, num_dx, atol=1e-4)


def test_conv_flops_formula():
    layer = Conv2D(3, 8, kernel=3)
    # Output 8 x 6 x 6 on an 8x8 input; 2*8*36*27 FLOPs.
    assert layer.flops((3, 8, 8)) == 2 * 8 * 6 * 6 * 3 * 3 * 3


def test_conv_validation():
    with pytest.raises(ValueError):
        Conv2D(1, 1, kernel=0)


def test_maxpool_forward_backward():
    layer = MaxPool2D(2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = layer.forward(x, training=True)
    assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4.0
    dx = layer.backward(np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 1, 1] == 1.0 and dx.sum() == 1.0


def test_maxpool_output_shape():
    assert MaxPool2D(2).output_shape((4, 10, 10)) == (4, 5, 5)


def test_flatten_roundtrip():
    layer = Flatten()
    x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
    out = layer.forward(x, training=True)
    assert out.shape == (2, 12)
    back = layer.backward(out)
    assert back.shape == x.shape


# -- vectorized kernels pinned to the loop kernels they replaced ---------------


def _oracle_im2col(x, kh, kw, stride):
    """Row-major (N * out_h * out_w, C * kh * kw) patch matrix."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    shape = (n, c, out_h, out_w, kh, kw)
    s = x.strides
    strides = (s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3])
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return cols, out_h, out_w


def _oracle_conv(layer, x, grad_fn):
    """Conv2D forward and backward as a GEMM over rows plus a scatter per output position."""
    p, stride = layer.pad, layer.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oc, ic, kh, kw = layer.W.shape
    cols, out_h, out_w = _oracle_im2col(xp, kh, kw, stride)
    n = x.shape[0]
    out = (cols @ layer.W.reshape(oc, -1).T + layer.b).reshape(n, out_h, out_w, oc)
    out = out.transpose(0, 3, 1, 2)
    grad = grad_fn(out)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, oc)
    dW = (grad_mat.T @ cols).reshape(layer.W.shape)
    db = grad_mat.sum(axis=0)
    dpatches = (grad_mat @ layer.W.reshape(oc, -1)).reshape(n, out_h, out_w, ic, kh, kw)
    dxp = np.zeros(xp.shape)
    for i in range(out_h):
        for j in range(out_w):
            hs, ws = i * stride, j * stride
            dxp[:, :, hs : hs + kh, ws : ws + kw] += dpatches[:, i, j]
    if p:
        dxp = dxp[:, :, p:-p, p:-p]
    return out, dxp, dW, db


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("channels", [1, 3])
def test_conv_kernels_match_loop_oracle(stride, pad, channels):
    rng = np.random.default_rng(stride * 10 + pad * 3 + channels)
    layer = Conv2D(channels, 4, kernel=3, stride=stride, pad=pad, rng=rng)
    layer.b[...] = rng.normal(size=4)
    x = rng.normal(size=(3, channels, 9, 10))
    target = rng.normal(size=(3, 4) + layer.output_shape((channels, 9, 10))[1:])
    expected, dx_ref, dW_ref, db_ref = _oracle_conv(layer, x, lambda out: out - target)

    out = layer.forward(x, training=True)
    assert out.shape == expected.shape
    assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
    dx = layer.backward(expected - target)
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(layer.dW, dW_ref)
    assert np.array_equal(layer.db, db_ref)


def _oracle_pool(x, s, grad):
    n, c, h, w = x.shape
    out_h, out_w = h // s, w // s
    view = x[:, :, : out_h * s, : out_w * s].reshape(n, c, out_h, s, out_w, s)
    out = view.max(axis=(3, 5))
    mask = view == out[:, :, :, None, :, None]
    dx = np.zeros(x.shape)
    dview = mask * grad[:, :, :, None, :, None]
    dx[:, :, : out_h * s, : out_w * s] = dview.reshape(n, c, out_h * s, out_w * s)
    return out, dx


@pytest.mark.parametrize(
    "size, hw, ties",
    [(2, (6, 8), False), (2, (5, 5), False), (3, (7, 9), False), (2, (4, 4), True), (3, (6, 6), True)],
)
def test_maxpool_strided_slices_match_reshape_oracle(size, hw, ties):
    rng = np.random.default_rng(size + hw[0])
    x = rng.normal(size=(2, 3) + hw)
    if ties:
        x = np.round(x)  # many equal maxima inside a window
    grad = rng.normal(size=(2, 3, hw[0] // size, hw[1] // size))
    expected, dx_ref = _oracle_pool(x, size, grad)
    layer = MaxPool2D(size)
    out = layer.forward(x, training=True)
    assert np.array_equal(out, expected)
    dx = layer.backward(grad)
    assert np.array_equal(dx, dx_ref)
    if ties:
        assert (dx != 0).sum() > grad.size  # every tied maximum got the gradient


def test_predict_proba_blocks_match_one_shot():
    from repro.nn.network import PREDICT_BLOCK, softmax
    from repro.nn.zoo import make_tiny_cnn

    net = make_tiny_cnn(input_shape=(1, 16, 16), channels=4, seed=3)
    rng = np.random.default_rng(5)
    sizes = {0, 1, 63, 64, 65, 200, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1}
    for n in sorted(sizes):
        x = rng.normal(size=(n, 1, 16, 16))
        one_shot = softmax(net.forward(x))
        blocked = net.predict_proba(x)  # n = 0 must not reach np.concatenate([])
        assert blocked.shape == (n, 2)
        assert np.allclose(blocked, one_shot, rtol=0.0, atol=1e-12)
        assert np.array_equal(blocked.argmax(axis=1), one_shot.argmax(axis=1))
