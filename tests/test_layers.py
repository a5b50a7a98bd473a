"""Layers against nested-loop oracles, adjoint identities, hand-computed
recurrences, and finite differences."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import bits, rng_for
from conv_oracle import im2col_conv1d, scatter_conv_transpose1d
from engine_ops import mul, reduce_sum
from gru_oracle import composed_gru
from hypothesis import given, settings
from hypothesis import strategies as st

from stemsep import tensor as T
from stemsep.errors import ShapeError
from stemsep.layers import GRU, BatchNorm1d, Conv1d, conv1d, conv_transpose1d, weight_normalized
from stemsep.optim import Adam, build_optimizer


@pytest.fixture(autouse=True)
def _float64_default():
    with T.using_dtype(np.float64):
        yield


def param(data):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# Oracles


def conv1d_oracle(x, w, b, stride):
    """Direct nested-loop cross-correlation, (C_in, T) x (C_out, C_in, K)."""
    c_out, c_in, k = w.shape
    t = x.shape[1]
    t_out = (t - k) // stride + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for j in range(t_out):
            acc = 0.0
            for i in range(c_in):
                for kk in range(k):
                    acc += x[i, j * stride + kk] * w[o, i, kk]
            out[o, j] = acc + b[o]
    return out


def tconv1d_oracle(x, w, b, stride):
    c_out, c_in, k = w.shape
    t = x.shape[1]
    t_out = (t - 1) * stride + k
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for j in range(t):
            for i in range(c_in):
                for kk in range(k):
                    out[o, j * stride + kk] += x[i, j] * w[o, i, kk]
    return out + b[:, None]


def gru_step_oracle(x, h, p):
    """Scalar GRU update following the gate equations verbatim."""
    z = 1.0 / (1.0 + math.exp(-(p["wz"] * x + p["uz"] * h + p["bz"])))
    r = 1.0 / (1.0 + math.exp(-(p["wr"] * x + p["ur"] * h + p["br"])))
    hc = math.tanh(p["wh"] * x + p["uh"] * (r * h) + p["bh"])
    return (1.0 - z) * h + z * hc


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_window_sums():
    x = T.Tensor(np.ones((1, 1, 5)))
    w = param(np.ones((1, 1, 3)))
    b = param(np.zeros(1))
    out = conv1d(x, w, b, stride=1)
    assert np.array_equal(out.data, np.full((1, 1, 3), 3.0))


def test_conv1d_identity_tap():
    x = rng_for("tap").normal(size=(1, 1, 7))
    out = conv1d(T.Tensor(x), param([[[0.0, 1.0, 0.0]]]), param(np.zeros(1)), stride=1)
    assert np.allclose(out.data, x[..., 1:-1], atol=1e-15)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv1d_matches_nested_loop(stride):
    rng = rng_for(f"conv-{stride}")
    x = rng.normal(size=(3, 17))
    w = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=4)
    out = conv1d(T.Tensor(x[None]), param(w), param(b), stride=stride)
    assert np.allclose(out.data[0], conv1d_oracle(x, w, b, stride), atol=1e-12)


def test_conv1d_padding_matches_padded_oracle():
    rng = rng_for("conv-pad")
    x = rng.normal(size=(2, 9))
    w = rng.normal(size=(2, 2, 3))
    b = rng.normal(size=2)
    out = conv1d(T.Tensor(x[None]), param(w), param(b), stride=1, padding=(1, 1))
    assert out.data.shape == (1, 2, 9)
    oracle = conv1d_oracle(np.pad(x, ((0, 0), (1, 1))), w, b, 1)
    assert np.allclose(out.data[0], oracle, atol=1e-12)


def test_conv1d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv1d(T.Tensor(np.ones((1, 2, 8))), param(np.ones((1, 3, 3))), param(np.zeros(1)))


def test_conv1d_input_shorter_than_kernel():
    with pytest.raises(ShapeError):
        conv1d(T.Tensor(np.ones((1, 1, 2))), param(np.ones((1, 1, 3))), param(np.zeros(1)))


def test_conv1d_batched_matches_per_sample():
    rng = rng_for("conv-batch")
    x = rng.normal(size=(4, 3, 12))
    w = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=2)
    batched = conv1d(T.Tensor(x), param(w), param(b), stride=2).data
    for i in range(4):
        assert np.allclose(batched[i], conv1d_oracle(x[i], w, b, 2), atol=1e-12)


# ---------------------------------------------------------------------------
# transposed conv


def test_tconv1d_single_tap_spread():
    out = conv_transpose1d(T.Tensor([[[1.0]]]), param([[[1.0, 2.0, 3.0]]]), param(np.zeros(1)))
    assert np.array_equal(out.data, np.array([[[1.0, 2.0, 3.0]]]))


def test_tconv1d_non_overlapping_stride():
    out = conv_transpose1d(T.Tensor([[[1.0, 1.0]]]), param(np.ones((1, 1, 2))),
                           param(np.zeros(1)), stride=2)
    assert np.array_equal(out.data, np.ones((1, 1, 4)))


@pytest.mark.parametrize("stride", [1, 2])
def test_tconv1d_matches_nested_loop(stride):
    rng = rng_for(f"tconv-{stride}")
    x = rng.normal(size=(2, 6))
    w = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=3)
    out = conv_transpose1d(T.Tensor(x[None]), param(w), param(b), stride=stride)
    assert np.allclose(out.data[0], tconv1d_oracle(x, w, b, stride), atol=1e-12)


@pytest.mark.parametrize("c_in,c_out,t,k,stride", [
    (1, 1, 8, 3, 1), (2, 3, 10, 4, 2), (4, 2, 32, 5, 3), (3, 4, 9, 2, 2),
])
def test_conv_tconv_adjoint_identity(c_in, c_out, t, k, stride):
    # <conv(x, w), y> == <x, tconv(y, w)> for any shapes where both exist.
    rng = rng_for(f"adjoint-{c_in}-{c_out}-{t}-{k}-{stride}")
    x = rng.normal(size=(c_in, t))
    w = rng.normal(size=(c_out, c_in, k))
    zero_out = np.zeros(c_out)
    zero_in = np.zeros(c_in)
    conv_xy = conv1d(T.Tensor(x[None]), param(w), param(zero_out), stride=stride).data[0]
    y = rng.normal(size=conv_xy.shape)
    # tconv consumes (C_out, T') and produces (C_in, T): swap weight axes.
    w_swapped = w.transpose(1, 0, 2)
    back = conv_transpose1d(T.Tensor(y[None]), param(w_swapped), param(zero_in),
                            stride=stride).data[0]
    # The adjoint only reaches samples the conv windows touched; zero-extend.
    padded_back = np.zeros_like(x)
    padded_back[:, :back.shape[1]] = back
    lhs = float((conv_xy * y).sum())
    rhs = float((x * padded_back).sum())
    assert abs(lhs - rhs) < 1e-10


def test_conv_gradients_finite_difference():
    rng = rng_for("conv-grad")
    x = T.Tensor(rng.normal(size=(2, 3, 11)), requires_grad=True)
    w = param(rng.normal(size=(2, 3, 3)))
    b = param(rng.normal(size=2))

    def loss_padded(t):
        out = conv1d(t, w, b, stride=2, padding=(1, 0))
        return T.reduce_mean(mul(out, out))

    def loss_plain(wt, bt):
        out = conv1d(x, wt, bt, stride=2)
        return T.reduce_mean(mul(out, out))

    assert T.gradient_check(loss_padded, x, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda t: loss_plain(t, b), w, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda t: loss_plain(w, t), b, eps=1e-5) < 1e-4


def test_tconv_gradients_finite_difference():
    rng = rng_for("tconv-grad")
    x = T.Tensor(rng.normal(size=(2, 2, 6)), requires_grad=True)
    w = param(rng.normal(size=(3, 2, 4)))
    b = param(rng.normal(size=3))

    def make_loss(xt, wt, bt):
        out = conv_transpose1d(xt, wt, bt, stride=2)
        return T.reduce_mean(mul(out, out))

    assert T.gradient_check(lambda t: make_loss(t, w, b), x, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda t: make_loss(x, t, b), w, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda t: make_loss(x, w, t), b, eps=1e-5) < 1e-4


def _time_major(x):
    """Same values, time axis outermost in memory, as the STFT features are."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)


def _conv_outputs_and_grads(op, x, w, b, probe, **kwargs):
    """Forward ``op`` and backpropagate sum(probe * out); returns the output
    and the gradients of the input, weight and bias."""
    xt, wt, bt = T.Tensor(x, requires_grad=True), param(w), param(b)
    out = op(xt, wt, bt, **kwargs)
    T.backward(reduce_sum(mul(out, T.Tensor(probe))))
    return out.data, [xt.grad, wt.grad, bt.grad]


def _per_item(oracle, x, *args):
    return np.stack([oracle(xi, *args) for xi in x])


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 3), c_in=st.integers(1, 5), c_out=st.integers(1, 5),
       k=st.integers(1, 5), stride=st.integers(1, 3), pl=st.integers(0, 2), pr=st.integers(0, 2),
       extra=st.integers(0, 6), time_major=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv1d_gather_matches_oracles(b, c_in, c_out, k, stride, pl, pr, extra, time_major,
                                       seed):
    rng = np.random.default_rng(seed)
    t = max(k - pl - pr, 1) + extra
    x = rng.normal(size=(b, c_in, t))
    if time_major:
        x = _time_major(x)
    w = rng.normal(size=(c_out, c_in, k))
    bias = rng.normal(size=c_out)
    t_out = (t + pl + pr - k) // stride + 1
    probe = rng.normal(size=(b, c_out, t_out))

    out, grads = _conv_outputs_and_grads(conv1d, x, w, bias, probe, stride=stride,
                                         padding=(pl, pr))
    ref_out, ref_grads = _conv_outputs_and_grads(im2col_conv1d, x, w, bias, probe,
                                                 stride=stride, padding=(pl, pr))
    loops = _per_item(lambda xi: conv1d_oracle(np.pad(xi, ((0, 0), (pl, pr))), w, bias, stride),
                      x)
    assert out.shape == ref_out.shape == loops.shape
    assert np.max(np.abs(out - loops)) <= 1e-12
    for got, want in zip(grads, ref_grads, strict=True):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 3), c_in=st.integers(1, 5), c_out=st.integers(1, 5),
       k=st.integers(1, 5), stride=st.integers(1, 3), t=st.integers(1, 7),
       time_major=st.booleans(), cut=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_conv_transpose1d_scatter_matches_oracles(b, c_in, c_out, k, stride, t, time_major,
                                                  cut, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, c_in, t))
    if time_major:
        x = _time_major(x)
    w = rng.normal(size=(c_out, c_in, k))
    bias = rng.normal(size=c_out)
    natural = (t - 1) * stride + k
    length = max(natural - cut, 1)
    probe = rng.normal(size=(b, c_out, natural))
    probe[:, :, length:] = 0.0

    out, grads = _conv_outputs_and_grads(conv_transpose1d, x, w, bias, probe, stride=stride)
    ref_out, ref_grads = _conv_outputs_and_grads(scatter_conv_transpose1d, x, w, bias, probe,
                                                 stride=stride)
    loops = _per_item(lambda xi: tconv1d_oracle(xi, w, bias, stride), x)
    assert out.shape == ref_out.shape == loops.shape
    assert np.max(np.abs(out - loops)) <= 1e-12
    for got, want in zip(grads, ref_grads, strict=True):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10

    # The first ``length`` frames are the full op's, bit for bit, and with
    # no upstream gradient past them, so are the input and weight gradients.
    # The bias gradient sums fewer zeros, which numpy's pairwise sum may
    # group differently.
    cut_out, cut_grads = _conv_outputs_and_grads(conv_transpose1d, x, w, bias,
                                                 probe[:, :, :length], stride=stride,
                                                 length=length)
    assert np.array_equal(bits(cut_out), bits(out[:, :, :length]))
    for got, want in zip(cut_grads[:2], grads[:2], strict=True):
        assert np.array_equal(bits(got), bits(want))
    assert np.max(np.abs(cut_grads[2] - grads[2])) <= 1e-12


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_transpose1d_length_must_be_a_prefix(stride):
    x, w, bias = T.Tensor(np.ones((1, 2, 4))), param(np.ones((3, 2, 5))), param(np.zeros(3))
    natural = 3 * stride + 5
    assert conv_transpose1d(x, w, bias, stride=stride, length=natural).data.shape[-1] == natural
    for length in (0, natural + 1):
        with pytest.raises(ShapeError):
            conv_transpose1d(x, w, bias, stride=stride, length=length)


@pytest.mark.parametrize("t", [3, 5, 8])
@pytest.mark.parametrize("stride,padding", [(2, (0, 0)), (3, (1, 1))])
def test_conv_layer_walk_covers_the_last_frame(t, stride, padding):
    # T < K, T = K and a T that is not a whole stride: the layer right-pads
    # to 1 + ceil(max(T + pl + pr - K, 0) / stride) frames, each the
    # functional conv of the zero-extended input.
    kernel = 5
    layer = Conv1d(2, 3, kernel, stride=stride, padding=padding, rng=rng_for(f"walk-{t}"))
    x = rng_for(f"walk-x-{t}").normal(size=(2, 2, t))
    out = layer(T.Tensor(x)).data
    frames = 1 + math.ceil(max(t + sum(padding) - kernel, 0) / stride)
    assert out.shape == (2, 3, frames)
    pl, pr = padding
    extended = np.pad(x, ((0, 0), (0, 0), (pl, (frames - 1) * stride + kernel - t - pl)))
    want = conv1d(T.Tensor(extended), layer.effective_weight(), layer.bias, stride=stride).data
    assert np.array_equal(out, want)


def test_transposed_batch_norm_normalizes_the_returned_frames():
    # Batch statistics cover exactly the frames the layer returns.
    layer = Conv1d(2, 3, 5, stride=2, transposed=True, norm="batch_norm", rng=rng_for("tbn"))
    out = layer(T.Tensor(rng_for("tbn-x").normal(size=(2, 2, 6))), training=True, length=14)
    assert out.data.shape == (2, 3, 14)
    assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-12)
    assert np.allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-3)


def _max_relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("op,oracle,batch,c_in,c_out,frames,time_major", [
    # First encoder conv on time-major STFT features, as separation feeds it.
    (conv1d, im2col_conv1d, 1, 1025, 512, 1201, True),
    (conv_transpose1d, scatter_conv_transpose1d, 1, 512, 4100, 600, False),
    # Last decoder tconv of the reduced model on a training batch of 5 s clips.
    (conv_transpose1d, scatter_conv_transpose1d, 10, 64, 2050, 109, False),
], ids=["first-conv", "last-tconv", "train-last-tconv"])
def test_conv_kernels_float32_at_model_shapes(op, oracle, batch, c_in, c_out, frames,
                                              time_major):
    rng = rng_for(f"conv-f32-{c_in}-{c_out}")
    with T.using_dtype(np.float32):
        x = rng.normal(size=(batch, c_in, frames)).astype(np.float32)
        if time_major:
            x = _time_major(x)
        w = (rng.normal(size=(c_out, c_in, 5)) / np.sqrt(5 * c_in)).astype(np.float32)
        bias = rng.normal(size=c_out).astype(np.float32)
        t_out = op(T.Tensor(x), param(w), param(bias), stride=2).data.shape[-1]
        probe = rng.normal(size=(batch, c_out, t_out)).astype(np.float32)
        out, grads = _conv_outputs_and_grads(op, x, w, bias, probe, stride=2)
        ref_out, ref_grads = _conv_outputs_and_grads(oracle, x, w, bias, probe, stride=2)
    assert out.dtype == np.float32
    assert _max_relative_error(out, ref_out) <= 1e-5
    for got, want in zip(grads, ref_grads, strict=True):
        assert got.dtype == np.float32
        assert _max_relative_error(got, want) <= 1e-5


def test_conv_transpose1d_working_memory_at_separation_shape():
    """The default model's last tconv over a 120 s song, no grad: what the
    forward allocates besides its output stays below the (K*C_out, T)
    product that a tap-scatter formulation materializes."""
    c_in, c_out, kernel, frames = 512, 4100, 5, 2584
    rng = rng_for("tconv-memory")
    with T.using_dtype(np.float32), T.no_grad():
        x = T.Tensor(rng.standard_normal((1, c_in, frames), dtype=np.float32))
        w = T.Tensor(rng.standard_normal((c_out, c_in, kernel), dtype=np.float32))
        bias = T.Tensor(np.zeros(c_out))
        tracemalloc.start()
        try:
            out = conv_transpose1d(x, w, bias, stride=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.data.shape == (1, c_out, (frames - 1) * 2 + kernel)
    working, product = peak - out.data.nbytes, kernel * c_out * frames * out.data.itemsize
    assert working < product


def test_conv_transpose1d_call_is_one_tape_op():
    rng = rng_for("tconv-tape")
    w, bias = param(rng.normal(size=(3, 2, 5))), param(rng.normal(size=3))
    tape = T.current_tape()
    tape.clear()
    for stride in (1, 2, 7):
        before = len(tape)
        conv_transpose1d(T.Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True), w, bias,
                         stride=stride)
        assert len(tape) - before == 1
    tape.clear()


# ---------------------------------------------------------------------------
# weight normalization


def test_weight_norm_row_norms_equal_g():
    rng = rng_for("wn-norms")
    v = param(rng.normal(size=(4, 3, 5)))
    g = param(np.abs(rng.normal(size=4)) + 0.5)
    w = weight_normalized(v, g).data
    rows = np.sqrt((w.reshape(4, -1) ** 2).sum(axis=1))
    assert np.allclose(rows, g.data, atol=1e-6)


def test_weight_norm_scale_invariance():
    rng = rng_for("wn-scale")
    v_data = rng.normal(size=(3, 2, 3))
    g = param(np.abs(rng.normal(size=3)) + 0.5)
    w1 = weight_normalized(param(v_data), g).data
    w2 = weight_normalized(param(17.3 * v_data), g).data
    assert np.allclose(w1, w2, atol=1e-12)


def test_weight_norm_gradients():
    rng = rng_for("wn-grad")
    v = param(rng.normal(size=(3, 2, 2)))
    g = param(np.abs(rng.normal(size=3)) + 0.5)
    # Project against a fixed array: sum(w^2) alone is invariant to v
    # (it collapses to sum(g^2)), which would make the check degenerate.
    probe = rng.normal(size=(3, 2, 2))

    def make_loss(vt, gt):
        w = weight_normalized(vt, gt)
        return T.reduce_mean(mul(w, T.Tensor(probe)))

    assert T.gradient_check(lambda t: make_loss(t, g), v, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda t: make_loss(v, t), g, eps=1e-5) < 1e-4


def test_conv_layer_weight_norm_forward_invariant_to_direction_scale():
    rng = rng_for("wn-layer")
    layer = Conv1d(2, 3, 3, stride=1, norm="weight_norm", rng=rng)
    x = rng.normal(size=(1, 2, 9))
    out1 = layer(T.Tensor(x)).data
    layer.weight.data *= 3.7
    out2 = layer(T.Tensor(x)).data
    assert np.allclose(out1, out2, atol=1e-12)


# ---------------------------------------------------------------------------
# GRU


def test_gru_zero_fixed_point():
    gru = GRU(3, 4, rng=rng_for("gru-zero"))
    out = gru(T.Tensor(np.zeros((1, 3, 6))))
    assert out.data.shape == (1, 4, 6)
    assert np.array_equal(out.data, np.zeros((1, 4, 6)))


def test_gru_single_step_matches_hand_computation():
    p = {"wz": 0.5, "uz": -0.3, "bz": 0.1,
         "wr": 0.7, "ur": 0.2, "br": -0.2,
         "wh": -0.4, "uh": 0.6, "bh": 0.05}
    gru = GRU(1, 1, rng=rng_for("gru-hand"))
    for gate in ("z", "r", "h"):
        gru.w[gate].data[:] = p[f"w{gate}"]
        gru.u[gate].data[:] = p[f"u{gate}"]
        gru.b[gate].data[:] = p[f"b{gate}"]
    # The state starts at zero, so frame 2 is the first step from a non-zero state.
    x = (1.7, -0.9)
    out = gru(T.Tensor([[x]])).data[0, 0]
    assert out[0] == pytest.approx(gru_step_oracle(x[0], 0.0, p), rel=1e-15)
    assert out[1] == pytest.approx(gru_step_oracle(x[1], out[0], p), rel=1e-15)


def test_gru_length_one_equals_single_step():
    rng = rng_for("gru-base")
    gru = GRU(2, 3, rng=rng)
    x = rng.normal(size=(1, 2, 5))
    full = gru(T.Tensor(x)).data
    for i in range(5):
        prefix = gru(T.Tensor(x[..., :i + 1])).data
        assert np.allclose(prefix, full[..., :i + 1], atol=1e-12)


def test_gru_input_size_mismatch():
    gru = GRU(3, 2, rng=rng_for("gru-mismatch"))
    with pytest.raises(ShapeError):
        gru(T.Tensor(np.zeros((1, 4, 5))))


def test_gru_parameter_gradients_finite_difference():
    rng = rng_for("gru-grad")
    gru = GRU(3, 4, rng=rng)
    x = rng.normal(size=(1, 3, 6))

    def loss(_):
        out = gru(T.Tensor(x))
        return T.reduce_mean(mul(out, out))

    for name, p in gru.named_parameters(""):
        err = T.gradient_check(loss, p, eps=1e-5)
        assert err < 1e-4, f"{name}: {err}"


def test_gru_input_gradient_finite_difference():
    rng = rng_for("gru-xgrad")
    gru = GRU(2, 3, rng=rng)
    x = T.Tensor(rng.normal(size=(1, 2, 5)), requires_grad=True)

    def loss(t):
        out = gru(t)
        return T.reduce_mean(mul(out, out))

    assert T.gradient_check(loss, x, eps=1e-5) < 1e-4


def _gru_outputs_and_grads(run, gru, x, weight):
    """Forward through ``run`` and backpropagate sum(weight * out); returns
    the output and the gradients of the input and all nine parameters."""
    params = [p for _, p in gru.named_parameters("")]
    for p in params:
        p.zero_grad()
    xt = T.Tensor(x, requires_grad=True)
    out = run(gru, xt)
    T.backward(reduce_sum(mul(out, T.Tensor(weight))))
    return out.data, [xt.grad] + [p.grad for p in params]


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), t=st.integers(1, 7), c=st.integers(1, 4), hsize=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_gru_fused_matches_composed_oracle(b, t, c, hsize, seed):
    rng = np.random.default_rng(seed)
    gru = GRU(c, hsize, rng=rng)
    for _, p in gru.named_parameters(""):
        p.data[...] = rng.normal(scale=0.8, size=p.data.shape)
    x = rng.normal(size=(b, c, t))
    weight = rng.normal(size=(b, hsize, t))

    fused_out, fused_grads = _gru_outputs_and_grads(GRU.__call__, gru, x, weight)
    ref_out, ref_grads = _gru_outputs_and_grads(composed_gru, gru, x, weight)
    assert fused_out.shape == ref_out.shape
    assert np.max(np.abs(fused_out - ref_out)) <= 1e-12
    for got, want in zip(fused_grads, ref_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10


def test_gru_call_is_one_tape_op():
    rng = rng_for("gru-tape")
    gru = GRU(3, 4, rng=rng)
    tape = T.current_tape()
    tape.clear()
    for shape in ((1, 3, 9), (2, 3, 9)):
        before = len(tape)
        gru(T.Tensor(rng.normal(size=shape), requires_grad=True))
        assert len(tape) - before == 1
    with T.no_grad():
        gru(T.Tensor(rng.normal(size=(2, 3, 9)), requires_grad=True))
    assert len(tape) == 2
    tape.clear()


def test_gru_saturated_gates_stay_finite():
    rng = rng_for("gru-tails")
    gru = GRU(2, 3, rng=rng)
    x = 1e4 * rng.normal(size=(2, 2, 6))
    with np.errstate(all="raise"):
        out = gru(T.Tensor(x)).data
    assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0)
    assert np.allclose(out, composed_gru(gru, T.Tensor(x)).data, rtol=0, atol=1e-12)


def test_gru_rejects_bad_rank():
    gru = GRU(3, 2, rng=rng_for("gru-shapes"))
    with pytest.raises(ShapeError):
        gru(T.Tensor(np.zeros((1, 1, 3, 5))))


@pytest.mark.parametrize("layer", [
    lambda x: conv1d(x, param(np.ones((2, 3, 2))), param(np.zeros(2))),
    lambda x: conv_transpose1d(x, param(np.ones((2, 3, 2))), param(np.zeros(2))),
    lambda x: Conv1d(3, 2, 2, norm="weight_norm", rng=rng_for("rank-wn"))(x),
    lambda x: Conv1d(3, 2, 2, norm="batch_norm", rng=rng_for("rank-bn"))(x, training=True),
    lambda x: GRU(3, 2, rng=rng_for("rank-gru"))(x),
    lambda x: BatchNorm1d(3)(x, training=True),
], ids=["conv1d", "conv_transpose1d", "Conv1d-weight_norm", "Conv1d-batch_norm", "GRU",
        "BatchNorm1d"])
def test_layers_reject_unbatched_input(layer):
    # The model lifts a single (C, T) input to (1, C, T); no layer does.
    with pytest.raises(ShapeError):
        layer(T.Tensor(np.ones((3, 8))))


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_identity_on_standardized_input():
    rng = rng_for("bn-id")
    x = rng.normal(size=(8, 3, 50))
    x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
    bn = BatchNorm1d(3)
    out = bn(T.Tensor(x), training=True)
    assert np.allclose(out.data, x, atol=1e-4)


def test_batch_norm_constant_input_collapses_to_beta():
    bn = BatchNorm1d(2)
    bn.beta.data[:] = [1.5, -0.5]
    out = bn(T.Tensor(np.full((4, 2, 10), 3.0)), training=True)
    assert np.allclose(out.data[:, 0], 1.5, atol=1e-3)
    assert np.allclose(out.data[:, 1], -0.5, atol=1e-3)


def test_batch_norm_train_moments():
    rng = rng_for("bn-moments")
    x = 3.0 + 2.0 * rng.normal(size=(6, 4, 64))
    out = bn_out = BatchNorm1d(4)(T.Tensor(x), training=True).data
    means = bn_out.mean(axis=(0, 2))
    variances = out.var(axis=(0, 2))
    assert np.all(np.abs(means) < 1e-6)
    assert np.allclose(variances, 1.0, atol=1e-4)


def test_batch_norm_eval_before_stats_errors():
    bn = BatchNorm1d(2)
    with pytest.raises(RuntimeError):
        bn(T.Tensor(np.ones((1, 2, 4))), training=False)


def test_batch_norm_eval_uses_running_stats():
    rng = rng_for("bn-eval")
    bn = BatchNorm1d(2)
    for _ in range(200):
        bn(T.Tensor(5.0 + rng.normal(size=(4, 2, 32))), training=True)
    out = bn(T.Tensor(np.full((1, 2, 8), 5.0)), training=False)
    assert np.allclose(out.data, 0.0, atol=0.2)


def test_batch_norm_gradients_finite_difference():
    rng = rng_for("bn-grad")
    bn = BatchNorm1d(3)
    bn.gamma.data[:] = rng.normal(size=3)
    bn.beta.data[:] = rng.normal(size=3)
    x = T.Tensor(rng.normal(size=(4, 3, 7)), requires_grad=True)
    # Project against a fixed array: mean(out^2) of a standardized output
    # is invariant to x, which would make the check degenerate.
    probe = rng.normal(size=(4, 3, 7))

    def loss(t):
        out = bn(t, training=True)
        return T.reduce_mean(mul(out, T.Tensor(probe)))

    assert T.gradient_check(loss, x, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda _: loss(x), bn.gamma, eps=1e-5) < 1e-4
    assert T.gradient_check(lambda _: loss(x), bn.beta, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_computed():
    # m_hat = g, v_hat = g^2 on step one, so the update is lr * g / (|g| + eps).
    p = param(np.array([1.0, -2.0]))
    opt = Adam([{"name": "w", "params": [("p", p)], "lr": 0.001}])
    p.grad = np.array([2.0, 2.0])
    before = p.data.copy()
    opt.step()
    delta = p.data - before
    expected = -0.001 * 2.0 / (math.sqrt(4.0) + 1e-8)
    assert np.allclose(delta, expected, atol=1e-12)
    assert np.allclose(delta, -0.001, atol=1e-6)


def test_adam_zero_gradient_is_noop_for_any_state():
    p = param(np.array([1.0, 2.0, 3.0]))
    opt = Adam([{"name": "w", "params": [("p", p)], "lr": 0.01}])
    p.grad = np.array([0.5, -0.5, 1.0])
    opt.step()  # build up nonzero moments
    after_real_step = p.data.copy()
    p.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(p.data, after_real_step)


def test_adam_group_learning_rates_scale_updates():
    pa = param(np.zeros(4))
    pb = param(np.zeros(4))
    opt = Adam([
        {"name": "conv", "params": [("a", pa)], "lr": 0.001},
        {"name": "gru", "params": [("b", pb)], "lr": 0.0001},
    ])
    g = np.array([1.0, -2.0, 0.5, 3.0])
    pa.grad = g.copy()
    pb.grad = g.copy()
    opt.step()
    assert np.allclose(pa.data, 10.0 * pb.data, rtol=1e-9)


def test_adam_missing_grad_errors():
    p = param(np.zeros(2))
    opt = Adam([{"name": "w", "params": [("p", p)], "lr": 0.001}])
    with pytest.raises(RuntimeError):
        opt.step()


def test_gru_group_clipping_bounds_norm():
    p = param(np.zeros(3))
    opt = build_optimizer([], [("g", p)], lr_conv=1e-3, lr_gru=1.0, gru_clip_norm=5.0)
    p.grad = np.array([30.0, 40.0, 0.0])  # norm 50 -> scaled to 5
    opt.step()
    # First-step update with clipped gradient: direction / (|direction| + eps).
    clipped = np.array([3.0, 4.0, 0.0])
    expected = -clipped / (np.abs(clipped) + 1e-8)
    expected[2] = 0.0
    assert np.allclose(p.data, expected, atol=1e-7)
