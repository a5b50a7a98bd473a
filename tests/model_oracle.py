"""``Separator.forward`` as it ran before the convolution layers took over
the time-length policy and the activation: the model right-pads each
encoder input with a zero ``concat`` until the strided walk covers the
last frame, crops each full-length decoder output back to its encoder's
input length with ``slice_axis``, and activates every convolution layer's
output with a separate ``leaky_relu`` op, each layer being called without
its own activation. It runs the layers of a ``Separator``, so both
forwards share every weight."""

import numpy as np
from engine_ops import slice_axis

from stemsep.layers import Conv1d
from stemsep.tensor import Tensor, add, astensor, concat, leaky_relu, reshape


def fit_time(x: Tensor, length: int) -> Tensor:
    """Crop or zero-pad the tail of the time axis to an exact length."""
    t = x.data.shape[-1]
    if t == length:
        return x
    if t > length:
        return slice_axis(x, x.data.ndim - 1, 0, length)
    pad_shape = x.data.shape[:-1] + (length - t,)
    return concat([x, astensor(np.zeros(pad_shape, dtype=x.data.dtype))], axis=x.data.ndim - 1)


def merge_skip(model, decoded: Tensor, tap: Tensor, transform, training: bool) -> Tensor:
    if transform is None:
        return decoded
    if transform == "identity":
        branch = tap
    elif isinstance(transform, Conv1d):
        branch = leaky_relu(transform(tap, training), model.cfg.leaky_slope)
    else:
        branch = transform(tap)
    return add(decoded, branch)


def pad_and_crop_forward(model, x, training: bool = False) -> Tensor:
    if not isinstance(x, Tensor):
        x = Tensor._wrap(np.asarray(x, dtype=model.dtype))
    squeeze = x.data.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.data.shape)
    slope = model.cfg.leaky_slope

    lengths = []
    taps = []
    h = x
    for layer in model.encoder:
        t = h.data.shape[-1]
        lengths.append(t)
        k_eff = layer.kernel_size - sum(layer.padding)
        if t <= k_eff:
            t_pad = k_eff
        else:
            t_pad = k_eff + -(-(t - k_eff) // layer.stride) * layer.stride
        if t_pad != t:
            h = fit_time(h, t_pad)
        h = leaky_relu(layer(h, training), slope)
        taps.append(h)

    h = leaky_relu(fit_time(model.decoder[0](h, training), lengths[2]), slope)
    if model.post_gru is not None:
        h = model.post_gru(h)
    h = merge_skip(model, h, taps[1], model.skips[1], training)
    h = leaky_relu(fit_time(model.decoder[1](h, training), lengths[1]), slope)
    h = merge_skip(model, h, taps[0], model.skips[0], training)
    h = leaky_relu(fit_time(model.decoder[2](h, training), lengths[0]), slope)

    return reshape(h, h.data.shape[1:]) if squeeze else h
