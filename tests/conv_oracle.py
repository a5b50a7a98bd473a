"""Reference convolution kernels: im2col windows for ``conv1d`` and K
strided scatter-adds of a (K*C_out, T) tap product for
``conv_transpose1d``, each GEMM written time-major and transposed back.
They are the oracle for the channel-major tap gather of ``conv1d`` and the
polyphase kernel of ``conv_transpose1d`` in ``stemsep.layers``, and take
the same arguments, so both run the same weights."""

import numpy as np

from stemsep.tensor import Tensor, accumulate_grad, astensor, record_op


def _windows(arr: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # (B, C, T) -> contiguous (B, T_out, C, K) view copy.
    b, c, t = arr.shape
    t_out = (t - kernel) // stride + 1
    s0, s1, s2 = arr.strides
    view = np.lib.stride_tricks.as_strided(
        arr, shape=(b, t_out, c, kernel), strides=(s0, s2 * stride, s1, s2))
    return np.ascontiguousarray(view)


def im2col_conv1d(x, weight: Tensor, bias: Tensor, stride: int = 1,
                  padding: tuple[int, int] = (0, 0)) -> Tensor:
    x = astensor(x)
    xb = x.data
    c_out, c_in, kernel = weight.data.shape
    pl, pr = padding
    padded = np.pad(xb, ((0, 0), (0, 0), (pl, pr))) if (pl or pr) else xb
    b, _, t_pad = padded.shape
    t_out = (t_pad - kernel) // stride + 1
    cols = _windows(padded, kernel, stride).reshape(b * t_out, c_in * kernel)
    w2 = weight.data.reshape(c_out, c_in * kernel)
    out2 = cols @ w2.T + bias.data
    out_data = out2.reshape(b, t_out, c_out).transpose(0, 2, 1)
    out = Tensor._wrap(np.ascontiguousarray(out_data))

    def backward_rule(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(b * t_out, c_out)
        accumulate_grad(weight, (g2.T @ cols).reshape(c_out, c_in, kernel))
        accumulate_grad(bias, g2.sum(axis=0))
        if x.requires_grad:
            dcols = (g2 @ w2).reshape(b, t_out, c_in, kernel)
            dpad = np.zeros_like(padded)
            for k in range(kernel):
                dpad[:, :, k:k + t_out * stride:stride] += dcols[:, :, :, k].transpose(0, 2, 1)
            accumulate_grad(x, dpad[:, :, pl:t_pad - pr] if (pl or pr) else dpad)

    return record_op(out, (x, weight, bias), backward_rule)


def scatter_conv_transpose1d(x, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    x = astensor(x)
    xb = x.data
    c_out, c_in, kernel = weight.data.shape
    b, _, t = xb.shape
    t_out = (t - 1) * stride + kernel

    x2 = np.ascontiguousarray(xb.transpose(0, 2, 1)).reshape(b * t, c_in)
    w2 = np.ascontiguousarray(weight.data.transpose(1, 0, 2)).reshape(c_in, c_out * kernel)
    prod = (x2 @ w2).reshape(b, t, c_out, kernel)
    out_data = np.zeros((b, c_out, t_out), dtype=xb.dtype)
    for k in range(kernel):
        out_data[:, :, k:k + t * stride:stride] += prod[:, :, :, k].transpose(0, 2, 1)
    out_data += bias.data[:, None]
    out = Tensor._wrap(out_data)

    def backward_rule(g):
        gw = _windows(g, kernel, stride)  # (B, T, C_out, K); window t covers t*stride + k
        gw2 = gw.reshape(b * t, c_out * kernel)
        wt = np.ascontiguousarray(weight.data.transpose(0, 2, 1)).reshape(c_out * kernel, c_in)
        if x.requires_grad:
            dx = (gw2 @ wt).reshape(b, t, c_in).transpose(0, 2, 1)
            accumulate_grad(x, np.ascontiguousarray(dx))
        dw = (gw2.T @ x2).reshape(c_out, kernel, c_in).transpose(0, 2, 1)
        accumulate_grad(weight, np.ascontiguousarray(dw))
        accumulate_grad(bias, g.sum(axis=(0, 2)))

    return record_op(out, (x, weight, bias), backward_rule)
