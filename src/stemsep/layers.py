"""Layer vocabulary: 1-D (transposed) convolution along time, GRU,
weight/batch normalization, and parameter initialization.

Convolutions and the GRU are fused tape operations: each call records
one op whose hand-written backward rule does the work in BLAS matmuls.
Both convolutions share ``_gather_taps``, which stacks the K time-shifted
copies of a ``(B, C, T)`` input as ``(B, K*C, T_out)`` rows, and
``_scatter_taps``, its adjoint, which adds such rows back at their
shifts. A convolution is one GEMM over the gathered input taps per
batch item, landing directly in ``(C, T)`` layout. A transposed
convolution with stride s is s interleaved stride-1 convolutions of its
input, one per output phase (Dumoulin & Visin 2016), so it too gathers
only input taps and runs one GEMM per phase and block of output frames;
no output-sized tap buffer or phase product is ever built. The GRU's
backward is backpropagation through time. Every layer takes ``(B, C, T)``
only; the model lifts a single ``(C, T)`` input.

The model's leaky ReLU is the epilogue of each convolution: bias, then
``max(a, slope * a)`` in place on the product the GEMM has just written,
and in the backward the upstream gradient is scaled by the slope where
the activated output is negative, before the GEMMs. Weight norm is part
of both ops in every mode: given ``weight_g``, they scale each output
channel's taps by g / ||v|| as they build their GEMM weights, so no
effective weight is built, and their backward turns its gradient into
the direction's and the scale's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, accumulate_grad, astensor, leaky_relu, record_op

NORM_KINDS = ("weight_norm", "batch_norm")


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) float64 draws; ``Tensor``
    casts them to the thread's precision."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ZeroInit:
    """Stands in for the ``rng`` of layers whose parameters are about to be
    overwritten, as in a checkpoint restore: each draw is zeros in
    ``dtype``, so building costs no random numbers and no cast."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)

    def uniform(self, low, high, size) -> np.ndarray:
        return np.zeros(size, dtype=self.dtype)


# ---------------------------------------------------------------------------
# Functional convolution ops


def _batched(x) -> Tensor:
    x = astensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"expected (B, C, T) input, got shape {x.data.shape}")
    return x


def _gather_taps(x: np.ndarray, kernel: int, stride: int, t_out: int) -> np.ndarray:
    """(B, C, T) -> (B, K*C, t_out); row k*C + c holds x[:, c, k + j*stride].

    The result keeps the memory order of ``x``: a time-major input (the
    transposed STFT features) gathers into a time-major buffer, which the
    GEMMs read as a transposed operand, so no copy ever walks across rows.
    """
    b, c, _ = x.shape
    if x.strides[2] > x.strides[1]:
        taps = np.empty((b, t_out, kernel * c), dtype=x.dtype).transpose(0, 2, 1)
    else:
        taps = np.empty((b, kernel * c, t_out), dtype=x.dtype)
    span = (t_out - 1) * stride + 1
    for k in range(kernel):
        taps[:, k * c:(k + 1) * c] = x[:, :, k:k + span:stride]
    return taps


def _scatter_taps(taps: np.ndarray, kernel: int, stride: int, t: int) -> np.ndarray:
    """Adjoint of ``_gather_taps``: (B, K*C, n) -> (B, C, t), adding the
    rows of tap k into every stride-th frame from frame k on."""
    b, kc, n = taps.shape
    c = kc // kernel
    out = np.zeros((b, c, t), dtype=taps.dtype)
    span = (n - 1) * stride + 1
    for k in range(kernel):
        out[:, :, k:k + span:stride] += taps[:, k * c:(k + 1) * c]
    return out


def _summed_gemm(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """sum_i lhs[i] (M, N) @ rhs[i].T (N, P), the weight-gradient product."""
    total = lhs[0] @ rhs[0].T
    for i in range(1, lhs.shape[0]):
        total += lhs[i] @ rhs[i].T
    return total


# Elements per pass of the activation epilogue, its gradient mask and the
# weight-norm row norms: their scratch stays a few hundred kB whatever the
# layer's size.
SCRATCH_ELEMENTS = 1 << 16
# Output frames per GEMM in the forward of ``conv_transpose1d``: its
# working set besides the output is one (C_out, frames) block. The default
# model's last tconv (512 -> 4100, k5, s2, activated) over a 120 s channel,
# float32, 2-vCPU box, medians of 7 alternating calls: blocks of 256, 512,
# 768, 1024 and 2048 frames take 0.57, 0.51, 0.50, 0.48 and 0.47 s, and one
# GEMM per phase 0.45 s; 512 frames is an 8.4 MB block there.
TCONV_BLOCK_FRAMES = 512


def _row_step(a: np.ndarray) -> int:
    """Rows of a 2-D array per pass of about ``SCRATCH_ELEMENTS`` elements."""
    return max(1, SCRATCH_ELEMENTS // max(a.shape[1], 1))


def _leaky_rows(a: np.ndarray, slope: float, out: np.ndarray) -> None:
    """``out = max(a, slope * a)`` for a 2-D ``a``, a few rows at a time
    through a small scratch; ``out`` may be ``a``. For 0 <= slope <= 1 this
    is the leaky ReLU, bit for bit ``tensor.leaky_relu``'s forward, signed
    zeros and NaN included."""
    step = _row_step(a)
    scratch = np.empty((min(step, len(a)), a.shape[1]), dtype=a.dtype)
    for r in range(0, len(a), step):
        rows = a[r:r + step]
        scaled = np.multiply(rows, slope, out=scratch[:len(rows)])
        np.maximum(rows, scaled, out=out[r:r + step])


def _mask_rows(g: np.ndarray, y: np.ndarray, slope: float) -> None:
    """The leaky ReLU's backward read off its output ``y``: scale the 2-D
    gradient ``g`` in place by ``slope`` where ``y`` is negative. The factor
    ``max(y >= 0, slope)`` is exactly 1 or ``slope``, with no branch per
    element. A negative subnormal input whose scaled value underflowed to
    -0.0 reads as non-negative here, so its factor is 1 where the input's
    sign would give ``slope``."""
    step = _row_step(g)
    keep = np.empty((min(step, len(g)), g.shape[1]), dtype=bool)
    factor = np.empty(keep.shape, dtype=g.dtype)
    for r in range(0, len(g), step):
        n = len(g[r:r + step])
        np.greater_equal(y[r:r + step], 0, out=keep[:n])
        np.maximum(keep[:n], slope, out=factor[:n], dtype=g.dtype)
        g[r:r + step] *= factor[:n]


def _channel_norms(v: np.ndarray) -> np.ndarray:
    """The L2 norm of each output channel's weights, computed a few channels
    at a time; a zero norm raises ShapeError."""
    flat = v.reshape(v.shape[0], -1)
    step = _row_step(flat)
    norms = np.concatenate([np.sqrt((rows * rows).sum(axis=1))
                            for rows in (flat[r:r + step] for r in range(0, len(flat), step))])
    if np.any(norms == 0.0):
        raise ShapeError("weight norm: zero-norm direction tensor")
    return norms


def _gemm_weight(taps: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """(C_out, C_in, Q) taps as the C-contiguous (C_out, Q*C_in) GEMM weight,
    each output channel times ``scale`` when one is given: the products of
    scaling the whole weight first, without the scaled copy. Contiguous
    either way, so that numpy runs the same product with and without
    ``scale``."""
    c_out, c_in, q = taps.shape
    rows = taps.transpose(0, 2, 1)
    if scale is None:
        return np.ascontiguousarray(rows).reshape(c_out, q * c_in)
    w = np.empty(rows.shape, dtype=np.result_type(taps, scale))
    np.multiply(rows, scale[:, None, None], out=w)
    return w.reshape(c_out, q * c_in)


def _check_slope(slope) -> None:
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ConfigError(f"leaky ReLU slope must lie in [0, 1], got {slope}")


def _weight_scale(v: Tensor, g: Tensor | None):
    """Weight norm's per-channel factor g / ||v|| and the norms of ``v``;
    (None, None) for a plain weight."""
    if g is None:
        return None, None
    norms = _channel_norms(v.data)
    return g.data / norms, norms


def _weight_grad(v: Tensor, g: Tensor | None, scale, norms, dw: np.ndarray) -> None:
    """Hand ``dw``, the gradient of the weight an op multiplied by, to ``v``;
    with weight norm (``g`` given) that weight was scale * v, so per output
    channel dg = <dw, v> / ||v|| and dv = scale * dw - g <dw, v> / ||v||^3 * v."""
    if g is None:
        accumulate_grad(v, dw)
        return
    per_channel = (-1,) + (1,) * (dw.ndim - 1)
    dots = (dw.reshape(len(dw), -1) * v.data.reshape(len(dw), -1)).sum(axis=1)
    accumulate_grad(g, dots / norms)
    if v.requires_grad:
        coef = (g.data * dots / norms**3).reshape(per_channel)
        accumulate_grad(v, scale.reshape(per_channel) * dw - coef * v.data)


def conv1d(x, weight: Tensor, bias: Tensor, stride: int = 1, padding: tuple[int, int] = (0, 0),
           slope: float | None = None, weight_g: Tensor | None = None) -> Tensor:
    """Valid cross-correlation along time with optional zero padding.

    ``weight`` has shape (out_channels, in_channels, kernel); output time
    extent is floor((T + pad - K) / stride) + 1. ``slope`` applies a leaky
    ReLU (0 <= slope <= 1) in place after the bias, and the backward
    masks the upstream gradient by the output's sign before the GEMMs.
    With ``weight_g``, ``weight`` is weight norm's direction v: the GEMM
    weight is g * v / ||v||, each output channel scaled as it is built.
    """
    x = _batched(x)
    _check_slope(slope)
    xb = x.data
    c_out, c_in, kernel = weight.data.shape
    if xb.shape[1] != c_in:
        raise ShapeError(f"conv1d: input has {xb.shape[1]} channels, weight expects {c_in}")
    pl, pr = padding
    padded = np.pad(xb, ((0, 0), (0, 0), (pl, pr))) if (pl or pr) else xb
    if padded.shape[2] < kernel:
        raise ShapeError(f"conv1d: time extent {padded.shape[2]} shorter than kernel {kernel}")

    t_pad = padded.shape[2]
    t_out = (t_pad - kernel) // stride + 1
    cols = _gather_taps(padded, kernel, stride, t_out)                    # (B, K*C_in, T_out)
    del padded
    scale, norms = _weight_scale(weight, weight_g)
    w2 = _gemm_weight(weight.data, scale)                                 # (C_out, K*C_in)
    out_data = w2 @ cols
    out_data += bias.data[:, None]
    if slope is not None:
        for item in out_data:
            _leaky_rows(item, slope, item)
    out = Tensor._wrap(out_data)

    def backward_rule(g):
        if slope is not None:
            for g_item, y_item in zip(g, out_data):
                _mask_rows(g_item, y_item, slope)
        dw = _summed_gemm(g, cols).reshape(c_out, kernel, c_in).transpose(0, 2, 1)
        _weight_grad(weight, weight_g, scale, norms, np.ascontiguousarray(dw))
        accumulate_grad(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            dpad = _scatter_taps(w2.T @ g, kernel, stride, t_pad)
            accumulate_grad(x, dpad[:, :, pl:t_pad - pr] if (pl or pr) else dpad)

    inputs = (x, weight, bias) if weight_g is None else (x, weight, bias, weight_g)
    return record_op(out, inputs, backward_rule)


def _frame_spans(kept: int, frames: int) -> list:
    """(lo, hi, end) for each GEMM of one tconv phase and batch item: output
    frames lo .. hi - 1 come from the GEMM over tap columns lo .. end - 1.
    Spans start every ``TCONV_BLOCK_FRAMES`` frames, a tail narrower than
    half a block joins the span before it, and the last GEMM runs to the
    phase's last column, as one whole-phase GEMM does. So no GEMM is narrow
    unless the whole-phase one is: numpy computes one column as a
    matrix-vector product, and OpenBLAS's sgemm rounds a two-column call
    unlike a wide one."""
    step = TCONV_BLOCK_FRAMES
    starts = list(range(0, kept, step))
    if len(starts) > 1 and kept - starts[-1] < step // 2:
        starts.pop()
    stops = starts[1:] + [kept]
    return [(lo, hi, hi if hi < kept else frames) for lo, hi in zip(starts, stops)]


def conv_transpose1d(x, weight: Tensor, bias: Tensor, stride: int = 1,
                     length: int | None = None, slope: float | None = None,
                     weight_g: Tensor | None = None) -> Tensor:
    """Gradient-of-convolution semantics: output time = (T - 1) * stride + K,
    with overlapping contributions summed; ``length`` keeps the first frames.

    Output phase p (frames p, p + stride, ...) sees only taps p, p + stride,
    ..., so it is a stride-1 convolution of the input with those Q_p taps
    reversed: a GEMM of W_p over the last Q_p blocks of the input's
    Q = ceil(K / stride) stride-1 taps (padded by Q - 1 frames), run per
    batch item and per span of ``TCONV_BLOCK_FRAMES`` output frames below
    ``length`` into one reused block buffer, whose bias and activation
    epilogue writes ``out[:, :, p::stride]``. W_p exists only while its
    phase runs. Phases p >= K hold only the bias. The backward splits the
    same way, with a zero gradient past ``length``, and sums the phases'
    input-side products into one tap buffer for ``_scatter_taps``; its
    GEMMs keep their full width, so dx and dW equal the full op's bit for
    bit, as do the kept frames wherever both split into the same spans.
    Each output frame is one GEMM column; whether BLAS rounds a column alike
    in a block and in a whole-phase GEMM depends on its kernels (OpenBLAS's
    sgemm does at the default model's widths, its dgemm not always).
    ``slope`` and ``weight_g`` act as in ``conv1d``.
    """
    x = _batched(x)
    _check_slope(slope)
    xb = x.data
    c_out, c_in, kernel = weight.data.shape
    if xb.shape[1] != c_in:
        raise ShapeError(f"conv_transpose1d: input has {xb.shape[1]} channels, weight expects {c_in}")
    b, _, t = xb.shape
    t_out = (t - 1) * stride + kernel
    if length is not None and not 1 <= length <= t_out:
        raise ShapeError(f"conv_transpose1d: length {length} outside 1..{t_out}")
    t_out = t_out if length is None else length
    q = -(-kernel // stride)
    pad = q - 1
    padded = np.pad(xb, ((0, 0), (0, 0), (pad, pad))) if pad else xb
    cols = _gather_taps(padded, q, 1, t + pad)                          # (B, Q*C_in, T+Q-1)
    del padded
    scale, norms = _weight_scale(weight, weight_g)

    def phase_weight(p):
        """W_p (C_out, Q_p*C_in): taps p, p + stride, ... reversed."""
        return _gemm_weight(weight.data[:, :, p::stride][:, :, ::-1], scale)

    # phases[p] = (first tap row of cols, frame count, frames kept, GEMM spans)
    dt = np.result_type(xb, weight.data)
    phases = []
    for p in range(min(stride, kernel)):
        q_p = len(range(p, kernel, stride))
        frames, kept = t + q_p - 1, len(range(p, t_out, stride))
        phases.append(((q - q_p) * c_in, frames, kept, _frame_spans(kept, frames)))

    out_data = np.empty((b, c_out, t_out), dtype=dt)
    bias_col = bias.data[:, None]
    widest = max(end - lo for *_, spans in phases for lo, _, end in spans)
    buffer = np.empty(c_out * widest, dtype=dt)
    for p, (row, _, _, spans) in enumerate(phases):
        w_p = phase_weight(p)
        for i in range(b):
            dst = out_data[i, :, p::stride]
            for lo, hi, end in spans:
                prod = np.matmul(w_p, cols[i, row:, lo:end],
                                 out=buffer[:c_out * (end - lo)].reshape(c_out, end - lo))
                prod += bias_col
                if slope is None:
                    dst[:, lo:hi] = prod[:, :hi - lo]
                else:
                    _leaky_rows(prod[:, :hi - lo], slope, dst[:, lo:hi])
        del w_p
    del buffer
    if kernel < stride:
        fill = bias_col.astype(dt)
        if slope is not None:
            _leaky_rows(fill, slope, fill)
        for p in range(kernel, stride):
            out_data[:, :, p::stride] = fill
    out = Tensor._wrap(out_data)

    def backward_rule(g):
        if slope is not None:
            for g_item, y_item in zip(g, out_data):
                _mask_rows(g_item, y_item, slope)
        dw = np.empty_like(weight.data)
        dcols = np.zeros_like(cols) if x.requires_grad else None
        for p, (row, frames, kept, _) in enumerate(phases):
            w_p = phase_weight(p)
            dw_p = np.zeros_like(w_p)
            g_p = np.zeros((c_out, frames), dtype=g.dtype)              # zero past ``kept``
            # Per batch item, so each de-interleaved gradient copy stays cache-sized.
            for i in range(b):
                g_p[:, :kept] = g[i, :, p::stride]
                dw_p += g_p @ cols[i, row:, :frames].T
                if dcols is not None:
                    dcols[i, row:, :frames] += w_p.T @ g_p
            dw[:, :, p::stride] = dw_p.reshape(c_out, -1, c_in)[:, ::-1].transpose(0, 2, 1)
        _weight_grad(weight, weight_g, scale, norms, dw)
        accumulate_grad(bias, g.sum(axis=(0, 2)))
        if dcols is not None:
            dpad = _scatter_taps(dcols, q, 1, t + 2 * pad)
            accumulate_grad(x, dpad[:, :, pad:pad + t])

    inputs = (x, weight, bias) if weight_g is None else (x, weight, bias, weight_g)
    return record_op(out, inputs, backward_rule)


def weight_normalized(v: Tensor, g: Tensor) -> Tensor:
    """Effective weight g * v / ||v||, norm taken per output channel: what
    the convolution ops multiply by when given ``weight_g``."""
    scale, norms = _weight_scale(v, g)
    out = Tensor._wrap(v.data * scale.reshape((-1,) + (1,) * (v.data.ndim - 1)))
    return record_op(out, (v, g), lambda grad: _weight_grad(v, g, scale, norms, grad))


# ---------------------------------------------------------------------------
# Batch normalization


class BatchNorm1d:
    """Per-channel normalization over (batch, time) with running statistics.

    Train mode normalizes with batch moments and updates the running
    estimates; eval mode normalizes with the running estimates and fails
    if none were ever recorded. Population (biased) variance throughout.
    """

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=self.gamma.dtype)
        self.running_var = np.ones(channels, dtype=self.gamma.dtype)
        self.batches_tracked = 0

    def __call__(self, x, training: bool) -> Tensor:
        x = astensor(x)
        if x.data.ndim != 3 or x.data.shape[1] != self.channels:
            raise ShapeError(f"batch norm expects (B, {self.channels}, T), got {x.data.shape}")
        if training:
            mean = x.data.mean(axis=(0, 2))
            var = x.data.var(axis=(0, 2))
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            self.batches_tracked += 1
        else:
            if self.batches_tracked == 0:
                raise RuntimeError("batch norm eval mode before any running statistics were recorded")
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x.data - mean[:, None]) * inv_std[:, None]
        out = Tensor._wrap(self.gamma.data[:, None] * xhat + self.beta.data[:, None])
        gamma, beta = self.gamma, self.beta
        n = x.data.shape[0] * x.data.shape[2]

        def backward_rule(g):
            accumulate_grad(beta, g.sum(axis=(0, 2)))
            accumulate_grad(gamma, (g * xhat).sum(axis=(0, 2)))
            if x.requires_grad:
                coef = (gamma.data * inv_std)[:, None]
                if training:
                    g_mean = g.mean(axis=(0, 2))[:, None]
                    gx_mean = (g * xhat).mean(axis=(0, 2))[:, None]
                    accumulate_grad(x, coef * (g - g_mean - xhat * gx_mean))
                else:
                    accumulate_grad(x, coef * g)

        return record_op(out, (x, gamma, beta), backward_rule)

    def named_parameters(self, prefix: str):
        yield prefix + "gamma", self.gamma
        yield prefix + "beta", self.beta

    def named_buffers(self, prefix: str):
        yield prefix + "running_mean", self.running_mean
        yield prefix + "running_var", self.running_var

    def load_buffer(self, name: str, value: np.ndarray) -> None:
        if name.endswith("running_mean"):
            self.running_mean = value.copy()
        elif name.endswith("running_var"):
            self.running_var = value.copy()
        else:
            raise KeyError(name)
        self.batches_tracked = max(self.batches_tracked, 1)


# ---------------------------------------------------------------------------
# Convolution layer


class Conv1d:
    """Convolution (or transposed convolution) layer with selectable
    normalization and an optional leaky ReLU. A convolution gives
    1 + ceil(max(T + pl + pr - K, 0) / stride) frames; a transposed one,
    the ``length`` its mirrored convolution consumed."""

    group = "conv"  # optimizer group of every parameter, batch norm's included

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: tuple[int, int] = (0, 0),
                 transposed: bool = False, norm: str = "weight_norm",
                 rng: np.random.Generator | None = None):
        if kernel_size < 1 or stride < 1:
            raise ConfigError(f"kernel_size and stride must be >= 1, got {kernel_size}, {stride}")
        if norm not in NORM_KINDS:
            raise ConfigError(f"unknown norm kind {norm!r}; expected one of {NORM_KINDS}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.transposed = transposed
        self.norm = norm

        self.weight = Tensor(uniform_init(rng, (out_channels, in_channels, kernel_size),
                                          in_channels * kernel_size), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.weight_g = None
        self.bn = None
        if norm == "weight_norm":
            norms = np.sqrt((self.weight.data.reshape(out_channels, -1) ** 2).sum(axis=1))
            self.weight_g = Tensor(norms, requires_grad=True)
        elif norm == "batch_norm":
            self.bn = BatchNorm1d(out_channels)

    def __call__(self, x, training: bool = False, length: int | None = None,
                 slope: float | None = None) -> Tensor:
        """The layer's output, leaky-ReLU-activated with ``slope`` unless it
        is None. With weight norm, the norm and the activation run inside
        the convolution op, in training and inference alike, so the layer
        is one tape op; with batch norm a ``leaky_relu`` op follows the norm."""
        x = astensor(x)
        fused = slope if self.bn is None else None
        if self.transposed:
            out = conv_transpose1d(x, self.weight, self.bias, stride=self.stride, length=length,
                                   slope=fused, weight_g=self.weight_g)
        else:
            # A tail frame the strided walk skipped is one the mirrored decoder
            # could never predict, so zero-pad the right edge until it is covered.
            pl, pr = self.padding
            over = x.data.shape[-1] + pl + pr - self.kernel_size
            extra = -over if over < 0 else -over % self.stride
            out = conv1d(x, self.weight, self.bias, stride=self.stride, padding=(pl, pr + extra),
                         slope=fused, weight_g=self.weight_g)
        if self.bn is not None:
            out = self.bn(out, training)
            if slope is not None:
                out = leaky_relu(out, slope)
        return out

    def named_parameters(self, prefix: str):
        yield prefix + "weight", self.weight
        yield prefix + "bias", self.bias
        if self.weight_g is not None:
            yield prefix + "weight_g", self.weight_g
        if self.bn is not None:
            yield from self.bn.named_parameters(prefix + "bn.")

    def named_buffers(self, prefix: str):
        if self.bn is not None:
            yield from self.bn.named_buffers(prefix + "bn.")

    def load_buffer(self, name: str, value: np.ndarray) -> None:
        self.bn.load_buffer(name, value)


# ---------------------------------------------------------------------------
# GRU


def _sigmoid_inplace(a: np.ndarray) -> None:
    # 0.5 * (1 + tanh(a / 2)): never exponentiates, so stable in both tails.
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


class GRU:
    """Unidirectional gated recurrent unit over the time axis.

    Per frame: z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
    hcand = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * hcand
    (Cho et al. 2014). A call is one tape op, laid out as in Appleyard et
    al. 2016: the input projections of all three gates and all frames are
    one GEMM, and each frame runs one (H, 2H) recurrent product for z and
    r and one (H, H) product for hcand. The backward rule is hand-written
    backpropagation through time: a reverse frame loop carries dL/dh, then
    the weight, bias and input gradients are single GEMMs over all frames.
    """

    GATES = ("z", "r", "h")
    group = "gru"  # optimizer group: lower learning rate, clipped

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = {}
        self.u = {}
        self.b = {}
        for gate in self.GATES:
            self.w[gate] = Tensor(uniform_init(rng, (hidden_size, input_size), input_size),
                                  requires_grad=True)
            self.u[gate] = Tensor(uniform_init(rng, (hidden_size, hidden_size), hidden_size),
                                  requires_grad=True)
            self.b[gate] = Tensor(np.zeros(hidden_size), requires_grad=True)

    def __call__(self, x) -> Tensor:
        x = _batched(x)
        xb = x.data
        b, c, t = xb.shape
        if c != self.input_size:
            raise ShapeError(f"gru: input has {c} channels, expected {self.input_size}")
        hsize = self.hidden_size
        params = [p for _, p in self.named_parameters("")]
        dt = np.result_type(xb, *(p.data for p in params))

        # hs[:, i] is the state entering frame i; hs[:, 1:] is the output.
        hs = np.empty((b, t + 1, hsize), dtype=dt)
        hs[:, 0] = 0.0

        w_all = np.concatenate([self.w[g].data for g in self.GATES])   # (3H, C)
        u_zr = np.concatenate([self.u["z"].data, self.u["r"].data])    # (2H, H)
        u_h = self.u["h"].data
        xf = np.ascontiguousarray(xb.transpose(0, 2, 1)).reshape(b * t, c)
        # Input projections of all frames in one GEMM; the recurrent loop
        # turns the pre-activations into the z | r | hcand gate values in place.
        gates = (xf @ w_all.T).reshape(b, t, 3 * hsize)
        gates += np.concatenate([self.b[g].data for g in self.GATES])
        rh = np.empty((b, t, hsize), dtype=dt)
        for i in range(t):
            h = hs[:, i]
            zr = gates[:, i, :2 * hsize]
            zr += h @ u_zr.T
            _sigmoid_inplace(zr)
            z, r = zr[:, :hsize], zr[:, hsize:]
            np.multiply(r, h, out=rh[:, i])
            hc = gates[:, i, 2 * hsize:]
            hc += rh[:, i] @ u_h.T
            np.tanh(hc, out=hc)
            h_next = hs[:, i + 1]
            np.subtract(hc, h, out=h_next)
            h_next *= z
            h_next += h

        out = Tensor._wrap(np.ascontiguousarray(hs[:, 1:].transpose(0, 2, 1)))

        def backward_rule(grad):
            gh = grad.transpose(0, 2, 1)  # (B, T, H)
            dpre = np.empty_like(gates)  # gradients of the gate pre-activations
            dh = np.zeros((b, hsize), dtype=dt)
            for i in reversed(range(t)):
                dh += gh[:, i]
                h = hs[:, i]
                z, r, hc = (gates[:, i, k * hsize:(k + 1) * hsize] for k in range(3))
                dz, dr, dhc = (dpre[:, i, k * hsize:(k + 1) * hsize] for k in range(3))
                np.subtract(hc, h, out=dz)
                dz *= dh
                np.multiply(dh, z, out=dhc)
                dh_prev = dh - dhc
                dhc *= 1.0 - hc * hc
                drh = dhc @ u_h
                np.multiply(drh, h, out=dr)
                drh *= r
                dh_prev += drh
                dz *= z * (1.0 - z)
                dr *= r * (1.0 - r)
                dh_prev += dpre[:, i, :2 * hsize] @ u_zr
                dh = dh_prev

            d2 = dpre.reshape(b * t, 3 * hsize)
            dw = d2.T @ xf
            du_zr = d2[:, :2 * hsize].T @ hs[:, :-1].reshape(b * t, hsize)
            du_h = d2[:, 2 * hsize:].T @ rh.reshape(b * t, hsize)
            db = d2.sum(axis=0)
            for k, gate in enumerate(self.GATES):
                rows = slice(k * hsize, (k + 1) * hsize)
                accumulate_grad(self.w[gate], dw[rows])
                accumulate_grad(self.b[gate], db[rows])
            accumulate_grad(self.u["z"], du_zr[:hsize])
            accumulate_grad(self.u["r"], du_zr[hsize:])
            accumulate_grad(self.u["h"], du_h)
            if x.requires_grad:
                dx = np.ascontiguousarray((d2 @ w_all).reshape(b, t, c).transpose(0, 2, 1))
                accumulate_grad(x, dx)

        return record_op(out, (x, *params), backward_rule)

    def named_parameters(self, prefix: str):
        for gate in self.GATES:
            yield prefix + f"w_{gate}", self.w[gate]
            yield prefix + f"u_{gate}", self.u[gate]
            yield prefix + f"b_{gate}", self.b[gate]

    def named_buffers(self, prefix: str):
        return iter(())
